"""Exact linear algebra over F_p: subspaces, flags, pairings, canonical forms.

Subspaces are reduced row-echelon matrices (numpy int64, entries in [0, p)),
so equal subspaces are equal arrays.  Maps use the column convention: a matrix
A of shape (m, n) sends a column vector v in F_p^n to A @ v in F_p^m; a
pairing b: V x U -> K is a matrix of shape (dim V, dim U) with
b(v, u) = v^T b u.

Every row reduction (rref, row spaces, rank, nullspace, solves, inverse,
intersections, preimages, quotient sections) goes through one entry,
`_reduce(A, p)`: an integer array in, its rref as an array and the pivot
columns out, by one pivot rule: the pivot of a column is the first row, at
or below the current one, with a nonzero entry there.  `_reduce` reduces
its input mod p, so callers pass unreduced integer arrays, and it picks the
kernel by size.  Up to SMALL_ENTRIES entries (m*n <= 256, the 16x16 and
smaller systems of the classification pipeline) `_eliminate` works on
lists of Python-int rows, which beats numpy's per-call overhead at that
size.  Larger ones (the dense systems of contact splitting) are reduced by
`_rref_large` in place on one int16 array: entries lie in [0, p) with
p <= 13, so each update x - f*y stays within [-144, 12], and a pivot only
touches the rows with a nonzero entry in its column, from its column on.
`nullspace` eliminates once, on the matrix with its columns reversed: the
basis read off that rref, reversed back, is already the canonical rref of
the kernel.

Trivial subspace questions are read off row counts, with no elimination:
an rref subspace of F_p^n with k rows is 0 when k = 0 and everything when
k = n.  So A ∩ B is A when B is everything or A is 0, and B in the mirror
cases (`subspace_intersection`); every space lies in everything
(`subspace_leq`); the preimage of everything and the orthogonal of 0 are
everything (`preimage_rows`, `orthogonal_subspace`); the image of 0 in a
factor is 0 and that of everything is the whole factor (`Factor.image_of`);
sup/0 has the section sup and sup/sup an empty one (`make_factor`), so the
factor everything/0 projects by the identity (`Factor._projection_t`); and
the S-part of v is v when S is everything, since the solve against
[I; sub] puts every pivot in the I block and leaves the sub coefficients
free, hence 0 (`component_in`).  Most of the questions the type-1 grind
asks are of this kind.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)
SMALL_ENTRIES = 256

class CheckFailed(AssertionError):
    """An internal check of the computation failed: a fault in the program,
    never in its input (bad input raises ValueError)."""


def ensure(cond, msg: str) -> None:
    """Raise CheckFailed(msg) unless cond holds.  Unlike `assert`, the check
    also runs under `python -O`."""
    if not cond:
        raise CheckFailed(msg)


def check_prime(p: int) -> None:
    if p not in SUPPORTED_PRIMES:
        raise ValueError(f"unsupported prime {p}; expected one of {SUPPORTED_PRIMES}")


def modp(A, p: int) -> np.ndarray:
    return np.asarray(A, dtype=np.int64) % p


def zeros(m: int, n: int) -> np.ndarray:
    return np.zeros((m, n), dtype=np.int64)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


@lru_cache(maxsize=None)
def _inverse_table(p: int) -> tuple:
    return (0,) + tuple(pow(a, p - 2, p) for a in range(1, p))


def inv_scalar(a: int, p: int) -> int:
    a = int(a) % p
    if a == 0:
        raise ZeroDivisionError("0 is not invertible mod p")
    return _inverse_table(p)[a]


# ---------------------------------------------------------------------------
# The elimination core.
# ---------------------------------------------------------------------------

def _reduce(A, p: int, pivots_only: bool = False) -> tuple:
    """(rref of the integer array A mod p, pivot columns); a vector is one
    row.  Up to SMALL_ENTRIES entries `_eliminate` reduces rows of Python
    ints and R is int64; beyond, `_rref_large` reduces an int16 R in place.
    With pivots_only the small R is not built (None)."""
    A = np.atleast_2d(A)
    if A.size > SMALL_ENTRIES:
        R = (A % p).astype(np.int16, copy=False)
        return R, _rref_large(R, p)
    rows = (A % p).tolist()
    pivots = _eliminate(rows, A.shape[1], p)
    if pivots_only:
        return None, pivots
    return np.array(rows, dtype=np.int64).reshape(A.shape), pivots


def _eliminate(rows: list, n: int, p: int) -> list[int]:
    """rref of rows (lists of n Python ints in [0, p)) in place, by the
    pivot rule above; returns the pivot columns."""
    m = len(rows)
    inv = _inverse_table(p)
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        for i in range(r, m):
            if rows[i][c]:
                break
        else:
            continue
        base = rows[i]
        if i != r:
            rows[i] = rows[r]
        a = base[c]
        if a != 1:
            a = inv[a]
            base = [x * a % p for x in base]
        rows[r] = base
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = [(x - f * y) % p for x, y in zip(row, base)]
        pivots.append(c)
        r += 1
    return pivots


def _rref_large(A: np.ndarray, p: int) -> list[int]:
    """The same elimination by numpy row operations, for large matrices.

    Reduces the int16 array A (entries in [0, p)) to rref in place and
    returns the pivot columns.  The pivot row is zero left of its pivot, so
    only the columns from there on change, and only in the rows with a
    nonzero entry in the pivot column.
    """
    inv = _inverse_table(p)
    m, n = A.shape
    r = 0
    pivots: list[int] = []
    for c in range(n):
        if r == m:
            break
        hit = A[:, c].nonzero()[0]
        k = int(hit.searchsorted(r))
        if k == hit.size:
            continue
        piv = int(hit[k])
        if piv != r:
            # A[r, c] == 0 here, so after the swap row piv is zero at c
            A[[r, piv]] = A[[piv, r]]
        a = int(A[r, c])
        if a != 1:
            A[r, c:] = A[r, c:] * inv[a] % p
        others = hit[hit != piv]
        if others.size:
            block = A[others, c:]
            block -= block[:, :1] * A[r, c:]
            A[others, c:] = block % p
        pivots.append(c)
        r += 1
    return pivots


def _solve(B, V, p: int) -> np.ndarray | None:
    """The coefficient rows C with C @ B = V, free coordinates zero, from
    one elimination of [B^T | V^T]; None if a row of V lies outside the
    row space of B."""
    k, n = B.shape
    if V.shape[1] != n:
        raise ValueError(f"rows of length {V.shape[1]} against a basis of "
                         f"shape {B.shape}")
    R, pivots = _reduce(np.concatenate([B.T, V.T], axis=1), p)
    if pivots and pivots[-1] >= k:
        return None
    C = zeros(V.shape[0], k)
    C[:, pivots] = R[:len(pivots), k:].T
    return C


# ---------------------------------------------------------------------------
# Matrices.
# ---------------------------------------------------------------------------

def rref(A, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_p; returns (R, pivot columns)."""
    R, pivots = _reduce(A, p)
    return R.astype(np.int64, copy=False), pivots


def row_space(A, p: int) -> np.ndarray:
    """Canonical basis (rref with zero rows dropped) of the row space."""
    R, pivots = rref(A, p)
    return R[: len(pivots)]


def rank(A, p: int) -> int:
    return len(_reduce(A, p, pivots_only=True)[1])


def empty_space(n: int) -> np.ndarray:
    return zeros(0, n)


@lru_cache(maxsize=None)
def full_space(n: int) -> np.ndarray:
    """The identity of size n, one read-only array per n."""
    E = eye(n)
    E.flags.writeable = False
    return E


def nullspace(A, p: int) -> np.ndarray:
    """Canonical basis (rref) of {x : A @ x = 0}, from one elimination.

    Let J reverse the columns and R = rref(A J).  The kernel vector of A J at
    a free column c has 1 at c, 0 at the other free columns and -R[i, c] at
    the pivot column of row i.  Reversed (J v) it has its leading 1 at
    n - 1 - c and 0 at the other leading columns, so these vectors, taken in
    decreasing c, are the rref of ker A.  They are written into the result
    N through its column-reversed view, and R is read only at its free
    columns, with no copy of the whole of it.
    """
    R, pivots = _reduce(np.asarray(A)[..., ::-1], p)
    n = R.shape[1]
    free = sorted(set(range(n)).difference(pivots), reverse=True)
    N = zeros(len(free), n)
    N[:, ::-1][:, pivots] = -R[:len(pivots)].take(free, axis=1).T % p
    N.put([k * n + n - 1 - c for k, c in enumerate(free)], 1)
    return N


def solve_rows(B, V, p: int) -> np.ndarray | None:
    """Coefficients c with c @ B = v for each row v of V, from one elimination.

    V may be one vector (the result is then one coefficient vector) or a
    matrix of rows (one coefficient row each).  None if any v lies outside
    the row space of B.
    """
    C = _solve(np.atleast_2d(B), np.atleast_2d(V), p)
    if C is None or np.ndim(V) > 1:
        return C
    return C[0]


def inverse(A, p: int) -> np.ndarray:
    """A^-1 over F_p, as the rows C with C @ A^T = I, transposed."""
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"cannot invert a matrix of shape {A.shape}")
    C = _solve(A.T, full_space(A.shape[0]), p)
    if C is None:
        raise ValueError("matrix is singular mod p")
    return C.T.copy()


def is_invertible(A, p: int) -> bool:
    return A.shape[0] == A.shape[1] and rank(A, p) == A.shape[0]


def is_alternating(M, p: int) -> bool:
    """M is square with M + M^T = 0 and a zero diagonal mod p, so that
    v^T M v = 0 for every v (at p = 2 the diagonal is not implied)."""
    M = modp(M, p)
    return M.ndim == 2 and M.shape[0] == M.shape[1] and \
        not np.any((M + M.T) % p) and not np.any(np.diagonal(M))


def random_matrix(rng, m: int, n: int, p: int) -> np.ndarray:
    return np.array([[rng.randrange(p) for _ in range(n)] for _ in range(m)],
                    dtype=np.int64).reshape(m, n)


def random_invertible(rng, n: int, p: int) -> np.ndarray:
    while True:
        A = random_matrix(rng, n, n, p)
        if is_invertible(A, p):
            return A


# ---------------------------------------------------------------------------
# Subspace calculus.  A subspace of F_p^n is an rref row matrix (k, n).
# ---------------------------------------------------------------------------

def subspace_sum(A, B, p: int) -> np.ndarray:
    if A.shape[1] != B.shape[1]:
        raise ValueError("ambient dimension mismatch")
    return row_space(np.concatenate([A, B], axis=0), p)


def _zassenhaus(A, B, C, p: int) -> np.ndarray:
    """Canonical basis (rref) of {x @ B : x @ A in the row space of C}.

    A and B have one row per x; C has A's columns.  Returns the B-block of
    the rows of R = rref([[A, B], [C, 0]]) whose A-block is zero.  The row
    space of [[A, B], [C, 0]] is {(x A + y C, x B)}; its vectors with a zero
    A-block are exactly (0, x B) with x A = -y C in the row space of C.  The
    rows of R with their pivot in the B-block span the row-space vectors
    that vanish on the A-block, and are zero there themselves; their
    B-blocks are reduced at their pivots and zero above and below them, so
    they form the rref of that space.  One elimination.
    """
    (m, a), c = A.shape, C.shape[0]
    block = zeros(m + c, a + B.shape[1])
    block[:m, :a], block[:m, a:], block[m:, :a] = A, B, C
    R, pivots = _reduce(block, p)
    return R[bisect_left(pivots, a):len(pivots), a:].astype(np.int64, copy=False)


def subspace_intersection(A, B, p: int) -> np.ndarray:
    """A ∩ B: {x @ A : x @ A in B} (Zassenhaus)."""
    if A.shape[1] != B.shape[1]:
        raise ValueError("ambient dimension mismatch")
    if B.shape[0] == B.shape[1] or A.shape[0] == 0:
        return A
    if A.shape[0] == A.shape[1] or B.shape[0] == 0:
        return B
    return _zassenhaus(A, A, B, p)


def subspace_leq(A, B, p: int) -> bool:
    """A subseteq B, both rref."""
    if A.shape[0] == 0 or B.shape[0] == B.shape[1]:
        return True
    return rank(np.concatenate([B, A], axis=0), p) == B.shape[0]


def preimage_rows(M, S, p: int) -> np.ndarray:
    """Row basis of {v : M @ v in row space of S}: the rows x of the identity
    with x @ M^T in S (Zassenhaus on (M^T, I, S)); M may be singular or
    rectangular."""
    if S.shape[0] == S.shape[1]:
        return full_space(M.shape[1])
    return _zassenhaus(M.T, full_space(M.shape[1]), S, p)


def component_in(S, sub, V, p: int) -> np.ndarray:
    """The S-parts of the rows v of V, each written as v = s + u with s in S
    and u in sub (solved against [S; sub] with free coordinates zero)."""
    if S.shape[0] == S.shape[1]:
        return modp(V, p)
    coeffs = solve_rows(np.concatenate([S, sub], axis=0), V, p)
    ensure(coeffs is not None, "vectors outside S + sub")
    return modp(coeffs[:, : S.shape[0]] @ S, p)


def _pivots(R: np.ndarray) -> list[int]:
    """Pivot columns of an rref matrix without zero rows: the first nonzero
    column of each row, from one vector call."""
    return (R != 0).argmax(axis=1).tolist() if R.size else []


def quotient_section(sub, sup, p: int) -> np.ndarray:
    """Canonical complement of `sub` inside `sup` (sub ⊆ sup, both rref).

    The rref of the vectors of sup that vanish at sub's pivot columns s:
    sub is the identity at s, so each row v of sup is reduced there by
    v - v[s] @ sub, and the results are eliminated once.
    """
    return row_space(sup - sup[:, _pivots(sub)] @ sub, p)


@dataclass(frozen=True)
class Factor:
    """A quotient sup/sub with a chosen section basis: its rows, in the
    ambient space, represent the factor coordinates."""
    sub: np.ndarray
    sup: np.ndarray
    section: np.ndarray
    p: int

    @property
    def dim(self) -> int:
        return self.section.shape[0]

    @cached_property
    def _projection_t(self) -> np.ndarray:
        """P^T, where P @ v holds the section coordinates of v in sup.

        Let s be sub's pivots and t the section's (the section vanishes at
        s).  For v in sup the residue v - v[s] @ sub vanishes at s, so it
        lies in span(section), where the coordinates are the entries at t:
        P = I[t] - sub[:, t]^T @ I[s].
        """
        if self.dim == self.sub.shape[1]:
            return eye(self.dim)
        s, t = _pivots(self.sub), _pivots(self.section)
        Pt = zeros(self.sub.shape[1], self.dim)
        Pt[t, np.arange(self.dim)] = 1
        Pt[s] = -self.sub[:, t] % self.p
        return Pt

    @cached_property
    def _sup_coords(self) -> np.ndarray:
        """The rows of sup in factor coordinates: sup @ P^T."""
        return self.sup @ self._projection_t

    def project_vectors(self, vecs: np.ndarray) -> np.ndarray:
        """Factor coordinates of ambient row vectors (must lie in sup)."""
        return modp(vecs @ self._projection_t, self.p)

    def image_of(self, S: np.ndarray) -> np.ndarray:
        """Image of a subspace S: ((S ∩ sup) + sub)/sub, in factor coords,
        the projections x @ sup @ P^T of the x @ sup in S (Zassenhaus on
        (sup, sup @ P^T, S))."""
        if S.shape[0] == 0:
            return empty_space(self.dim)
        if S.shape[0] == S.shape[1]:
            return full_space(self.dim)
        return _zassenhaus(self.sup, self._sup_coords, S, self.p)


def make_factor(sub, sup, p: int) -> Factor:
    """The factor sup/sub; sub ⊆ sup must both be rref without zero rows
    (as `row_space`, `nullspace` and the flags return them)."""
    if sub.shape[0] == 0:
        return Factor(sub, sup, sup, p)
    if sub.shape[0] == sup.shape[0]:
        return Factor(sub, sup, empty_space(sup.shape[1]), p)
    return Factor(sub, sup, quotient_section(sub, sup, p), p)


# ---------------------------------------------------------------------------
# Flags.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlagChain:
    """A flag of any of the six shapes, as one chain of spaces S_0, ..., S_L
    closed by E: the whole space (increasing) or 0 (decreasing).  Factor q
    lies between S_q and S_{q+1}, with S_{L+1} = E: Φ_q = S_{q+1}/S_q when
    increasing, S_q/S_{q+1} when decreasing.

    Constructors append E rather than compute it.  A flag read into a
    factor keeps E, since the image of the whole space is the whole factor
    and that of 0 is 0, and an isomorphism moves the whole space onto the
    whole space and 0 onto 0, in either direction.

    The spaces have no zero rows, so dim Φ_q is a difference of row counts:
    `labels` reads the nonzero factors off them, and a factor is built only
    when `factor` is first asked for it.
    """
    direction: str                      # "inc" | "dec"
    spaces: tuple                       # rref arrays S_0..S_L, then E
    p: int
    _built: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)  # label -> Φ_q, once asked for

    @property
    def ambient_dim(self) -> int:
        return self.spaces[-1].shape[1]

    def bounds(self, q: int) -> tuple:
        """(sub, sup) of Φ_q: (S_q, S_{q+1}) increasing, (S_{q+1}, S_q)
        decreasing."""
        low, high = self.spaces[q], self.spaces[q + 1]
        return (low, high) if self.direction == "inc" else (high, low)

    @cached_property
    def labels(self) -> tuple:
        """Labels of the nonzero factors, increasing: the q with
        dim S_q != dim S_{q+1}."""
        dims = [S.shape[0] for S in self.spaces]
        return tuple(q for q in range(len(dims) - 1) if dims[q] != dims[q + 1])

    def factor(self, label: int) -> Factor:
        """Φ_label, built on the first call."""
        fac = self._built.get(label)
        if fac is None:
            fac = self._built[label] = make_factor(*self.bounds(label), self.p)
        return fac

    def is_trivial(self) -> bool:
        """No space strictly between 0 and the ambient space."""
        return all(S.shape[0] in (0, self.ambient_dim) for S in self.spaces)

    def check(self) -> None:
        seq = self.spaces if self.direction == "inc" else self.spaces[::-1]
        for A, B in zip(seq, seq[1:]):
            ensure(subspace_leq(A, B, self.p), "flag not monotone")


def _top_space(n: int, direction: str) -> np.ndarray:
    """E of a flag on F_p^n: everything (increasing) or 0 (decreasing)."""
    return full_space(n) if direction == "inc" else empty_space(n)


def make_flag(ambient_dim: int, direction: str, spaces, p: int) -> FlagChain:
    """The flag of the given spaces S_0, ..., S_L, closed by E."""
    chain = tuple(row_space(np.asarray(S, dtype=np.int64), p) for S in spaces)
    flag = FlagChain(direction, chain + (_top_space(ambient_dim, direction),), p)
    flag.check()
    return flag


# ---------------------------------------------------------------------------
# Pairings, orthogonals and flag transfer.  A flag F is carried into a factor
# Φ_k(target) by one reader, read_flag: each space S of F, moved by an
# isomorphism mu if one is given, is read in Φ_k by one elimination.  Through
# a pairing b, F is transferred as read_flag(orthogonal_flag(b, F, p),
# target, k), where the orthogonal flag does not depend on k; through mu, as
# read_flag(F, target, k, mu) (F on mu's domain) or with inverse(mu) (F on
# mu's codomain).
# ---------------------------------------------------------------------------

def orthogonal_subspace(b, M, p: int) -> np.ndarray:
    """Orthogonal of M ⊆ U under the pairing b: V x U -> K, that is
    {v in V : b(v, M) = 0}."""
    if M.shape[1] != b.shape[1]:
        raise ValueError("dimension mismatch")
    if M.shape[0] == 0:
        return full_space(b.shape[0])
    return nullspace(M @ b.T, p)


def orthogonal_flag(b, F: FlagChain, p: int) -> FlagChain:
    """The b-orthogonals of S_0, ..., S_L of F (F on the right factor of b).

    The direction flips, and E is that of the new direction: the orthogonal
    of F's E would be the radical of b instead of 0 when b is degenerate.
    """
    direction = "dec" if F.direction == "inc" else "inc"
    spaces = tuple(orthogonal_subspace(b, S, p) for S in F.spaces[:-1])
    return FlagChain(direction, spaces + (_top_space(np.shape(b)[0], direction),), p)


def read_flag(F: FlagChain, target: FlagChain, k: int, mu=None) -> FlagChain:
    """The flag mu F (F itself when mu is None) read in the factor
    Φ_k(target), closed by the factor's E; the direction is kept.  Each
    space S of F becomes the image of S mu^T in Φ_k (`Factor.image_of`)."""
    fac = target.factor(k)
    if fac.dim == 0:
        raise ValueError(f"label {k} names an empty factor")
    spaces = F.spaces[:-1]
    if mu is not None:
        spaces = [S @ mu.T for S in spaces]
    spaces = tuple(map(fac.image_of, spaces)) + (_top_space(fac.dim, F.direction),)
    flag = FlagChain(F.direction, spaces, F.p)
    flag.check()
    return flag


# ---------------------------------------------------------------------------
# Polynomials over F_p: dense little-endian coefficient tuples.
# ---------------------------------------------------------------------------

def ptrim(f) -> tuple:
    f = [int(c) for c in f]
    while f and f[-1] == 0:
        f.pop()
    return tuple(f)


def pdeg(f) -> int:
    return len(f) - 1


def pmul(f, g, p: int) -> tuple:
    f, g = ptrim(f), ptrim(g)
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, c in enumerate(g):
                out[i + j] = (out[i + j] + a * c) % p
    return ptrim(out)


def pdivmod(f, g, p: int) -> tuple[tuple, tuple]:
    f = list(ptrim(f))
    g = ptrim(g)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    inv = inv_scalar(g[-1], p)
    q = [0] * max(0, len(f) - len(g) + 1)
    while len(f) >= len(g):
        if f[-1] == 0:
            f.pop()
            continue
        shift = len(f) - len(g)
        c = (f[-1] * inv) % p
        q[shift] = c
        for i, a in enumerate(g):
            f[shift + i] = (f[shift + i] - c * a) % p
        f.pop()
    return ptrim(q), ptrim(f)


def pmod(f, g, p: int) -> tuple:
    return pdivmod(f, g, p)[1]


def pmonic(f, p: int) -> tuple:
    f = ptrim(f)
    if not f:
        return f
    c = inv_scalar(f[-1], p)
    return tuple(a * c % p for a in f)


def pgcd(f, g, p: int) -> tuple:
    f, g = ptrim(f), ptrim(g)
    while g:
        f, g = g, pmod(f, g, p)
    return pmonic(f, p)


def ppow(f, e: int, p: int) -> tuple:
    out = (1,)
    f = ptrim(f)
    while e:
        if e & 1:
            out = pmul(out, f, p)
        f = pmul(f, f, p)
        e >>= 1
    return out


@lru_cache(maxsize=None)
def irreducibles(p: int, d: int) -> tuple:
    """All monic irreducible polynomials of degree d over F_p."""
    if d == 1:
        return tuple(((a % p, 1)) for a in range(p))
    lower = [q for dd in range(1, d // 2 + 1) for q in irreducibles(p, dd)]
    out = []
    for idx in range(p ** d):
        coeffs = []
        k = idx
        for _ in range(d):
            coeffs.append(k % p)
            k //= p
        f = tuple(coeffs) + (1,)
        if all(pmod(f, q, p) for q in lower):
            out.append(f)
    return tuple(out)


def pfactor(f, p: int) -> dict:
    """Factor a monic polynomial into irreducibles: {q: multiplicity}.

    Linear factors x + c are peeled first, c = 0, 1, ..., p - 1, by
    synthetic division at the root -c.  A root-free rest of degree at most 3
    is irreducible, since a reducible one has a factor of degree 1.  A
    root-free rest of degree 4 or more goes through distinct degrees, d = 1,
    2, ... while 2d <= deg f: with every factor of degree below d already
    divided out, g = gcd(f, x^(p^d) - x) is the product of the distinct
    irreducible factors of degree d.  g is one of them if deg g = d; only if
    deg g > d are the degree-d irreducibles tried.  Once f has no factor of
    degree at most half its own, f is irreducible.
    """
    f = pmonic(f, p)
    out: dict = {}
    for c in range(p):
        while pdeg(f) > 0:
            quo = [1]                   # f / (x + c), top coefficient first
            for a in f[-2::-1]:
                quo.append((a - c * quo[-1]) % p)
            if quo.pop():               # the remainder f(-c)
                break
            out[(c, 1)] = out.get((c, 1), 0) + 1
            f = tuple(quo[::-1])
    h = (0, 1)                          # x^(p^d) mod f
    d = 1
    while pdeg(f) >= 4 and 2 * d <= pdeg(f):
        h = _powmod(h, p, f, p)
        h_minus_x = list(h) + [0, 0]
        h_minus_x[1] = (h_minus_x[1] - 1) % p
        g = pgcd(f, h_minus_x, p)
        if pdeg(g) > 0:
            for q in [g] if pdeg(g) == d else irreducibles(p, d):
                while True:
                    quo, rem = pdivmod(f, q, p)
                    if rem:
                        break
                    out[q] = out.get(q, 0) + 1
                    f = quo
            h = pmod(h, f, p)
        d += 1
    if pdeg(f) > 0:
        out[f] = 1
    return out


def _powmod(g, e: int, f, p: int) -> tuple:
    """g^e mod f (deg f >= 1), by square and multiply."""
    out = (1,)
    while e:
        if e & 1:
            out = pmod(pmul(out, g, p), f, p)
        g = pmod(pmul(g, g, p), f, p)
        e >>= 1
    return out


def companion(f, p: int) -> np.ndarray:
    """Companion matrix of a monic polynomial (column convention)."""
    f = pmonic(f, p)
    d = pdeg(f)
    C = zeros(d, d)
    for i in range(d - 1):
        C[i + 1, i] = 1
    for i in range(d):
        C[i, d - 1] = (-f[i]) % p
    return C


# ---------------------------------------------------------------------------
# Endomorphisms: elementary divisors.
# ---------------------------------------------------------------------------

def elementary_divisors(h, p: int) -> list[tuple]:
    """Sorted multiset of prime-power divisors q^e of the module of h.

    The minimal polynomial comes from one elimination: with the flattened
    powers h^0, h^1, ..., h^n as columns, the rref has pivots 0..d-1 (d its
    degree), and its column d expresses h^d in the lower powers.  The rest
    is read off ranks: for each irreducible factor q of it, with r_k = rank
    q(h)^k, there are (r_{k-1} - 2 r_k + r_{k+1}) / deg q summands
    F_p[x]/q^k, the factor x of a singular h included; r_k stops falling at
    the exponent e of q in the minimal polynomial.
    """
    h = modp(h, p)
    n = h.shape[0]
    if h.shape != (n, n):
        raise ValueError("matrix must be square")
    powers = [eye(n)]
    for _ in range(n):
        powers.append(modp(h @ powers[-1], p))
    R, pivots = rref(np.array([P.reshape(-1) for P in powers]).T, p)
    d = len(pivots)
    out = []
    for q, e in pfactor([(-c) % p for c in R[:d, d]] + [1], p).items():
        Q = modp(sum(c * P for c, P in zip(q, powers)), p)       # q(h)
        ranks = [n]
        M = eye(n)
        for _ in range(e):
            M = modp(Q @ M, p)
            ranks.append(rank(M, p))
        ranks.append(ranks[-1])
        for k in range(1, e + 1):
            count = (ranks[k - 1] - 2 * ranks[k] + ranks[k + 1]) // pdeg(q)
            out.extend([ppow(q, k, p)] * count)
    return sorted(out)
