"""Classification of antisymmetric bilinear forms relative to a flag.

A FlaggedBilinear is (V, 0 = V_0 ⊆ V_1 ⊆ ... ⊆ V_r = V, b) with b
antisymmetric and zero on the diagonal (required separately at p = 2).  The
complete orbit invariant under the flag stabilizer is the grid
n_qt = dim (V_q ∩ V_{t-1}^⊥) / (V_q ∩ V_t^⊥ + V_{q-1} ∩ V_{t-1}^⊥);
the canonical-basis construction follows the inductive correction over the
ordered slot set (i, j, k), solving at each step for a correction inside the
span of the already-fixed slots that must pair to zero.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import gfp
from .gfp import (empty_space, ensure, eye, full_space, modp,
                  orthogonal_subspace, row_space,
                  subspace_intersection, subspace_sum, zeros)


@dataclass(frozen=True)
class FlaggedBilinear:
    p: int
    flag: tuple          # rref subspaces V_0 = 0, ..., V_r = V
    b: np.ndarray

    def __post_init__(self):
        p = self.p
        gfp.check_prime(p)
        object.__setattr__(self, "b", modp(self.b, p))
        object.__setattr__(self, "flag",
                           tuple(row_space(np.asarray(S, dtype=np.int64), p)
                                 for S in self.flag))
        d = self.b.shape[0]
        if self.b.shape != (d, d):
            raise ValueError("form matrix must be square")
        if not gfp.is_alternating(self.b, p):
            raise ValueError("form must be antisymmetric with zero diagonal")
        if self.flag[0].shape[0] != 0 or self.flag[-1].shape[0] != d:
            raise ValueError("flag must run from 0 to the full space")
        for A, B in zip(self.flag, self.flag[1:]):
            if not gfp.subspace_leq(A, B, p):
                raise ValueError("flag is not increasing")

    @property
    def dim(self) -> int:
        return self.b.shape[0]

    @property
    def r(self) -> int:
        return len(self.flag) - 1

    def factor_dims(self) -> list[int]:
        return [self.flag[i].shape[0] - self.flag[i - 1].shape[0]
                for i in range(1, len(self.flag))]

    def nondegenerate(self) -> bool:
        return gfp.rank(self.b, self.p) == self.dim


def coordinate_flag(dims) -> tuple:
    """0 ⊆ <e_1..e_{d_1}> ⊆ ... from cumulative dims (last = ambient)."""
    return tuple([empty_space(dims[-1])] + [eye(dims[-1])[:d] for d in dims])


def flagged_from_dims(p: int, dims, b) -> FlaggedBilinear:
    return FlaggedBilinear(p, coordinate_flag(dims), b)


def _w_spaces(fb: FlaggedBilinear):
    """W[i][j] = V_i ∩ V_j^⊥ for 0 <= i, j <= r, plus the j = r+1 zero slot."""
    orth = [orthogonal_subspace(fb.b, S, fb.p) for S in fb.flag]
    W = {}
    for i in range(fb.r + 1):
        for j in range(fb.r + 1):
            W[i, j] = subspace_intersection(fb.flag[i], orth[j], fb.p)
        W[i, fb.r + 1] = empty_space(fb.dim)
    return W


def invariants_nqt(fb: FlaggedBilinear) -> np.ndarray:
    """The grid n_qt, 1 <= q, t <= r."""
    return _grid(_w_spaces(fb), fb.r)


def _grid(W: dict, r: int) -> np.ndarray:
    """The grid n_qt, 1 <= q, t <= r, of the spaces W of `_w_spaces`, read
    off their dimensions w(i, j) = dim W[i, j].

    n_qt = dim W[q, t-1] - dim(W[q, t] + W[q-1, t-1]), and since V_{q-1} ⊆
    V_q and V_t^⊥ ⊆ V_{t-1}^⊥, W[q, t] ∩ W[q-1, t-1] = V_{q-1} ∩ V_t^⊥ =
    W[q-1, t]; by dim(A + B) = dim A + dim B - dim(A ∩ B),
    n_qt = w(q, t-1) - w(q, t) - w(q-1, t-1) + w(q-1, t).
    """
    w = np.array([[W[i, j].shape[0] for j in range(r + 1)]
                  for i in range(r + 1)], dtype=np.int64)
    return w[1:, :-1] - w[1:, 1:] - w[:-1, :-1] + w[:-1, 1:]


def grid_ok(grid, dims, nondegenerate: bool | None = None) -> bool:
    """The Cor-4.4 constraints for a grid against factor dimensions."""
    grid = np.asarray(grid, dtype=np.int64)
    r = len(dims)
    if grid.shape != (r, r) or np.any(grid < 0):
        return False
    if not np.array_equal(grid, grid.T):
        return False
    if any(grid[q, q] % 2 for q in range(r)):
        return False
    sums = grid.sum(axis=1)
    if nondegenerate:
        return all(sums[q] == dims[q] for q in range(r))
    return all(sums[q] <= dims[q] for q in range(r))


def admissible_grids(dims, nondegenerate: bool = False):
    """All Cor-4.4 grids for the given factor dimensions."""
    r = len(dims)
    slots = [(q, t) for q in range(r) for t in range(q, r)]

    def rec(idx, grid, rowsum):
        if idx == len(slots):
            if not nondegenerate or all(rowsum[q] == dims[q] for q in range(r)):
                yield np.array(grid, dtype=np.int64)
            return
        q, t = slots[idx]
        if q == t:
            top = dims[q] - rowsum[q]
            for v in range(0, top + 1, 2):
                grid[q][t] = v
                rowsum[q] += v
                yield from rec(idx + 1, grid, rowsum)
                rowsum[q] -= v
                grid[q][t] = 0
        else:
            top = min(dims[q] - rowsum[q], dims[t] - rowsum[t])
            for v in range(0, top + 1):
                grid[q][t] = grid[t][q] = v
                rowsum[q] += v
                rowsum[t] += v
                yield from rec(idx + 1, grid, rowsum)
                rowsum[q] -= v
                rowsum[t] -= v
                grid[q][t] = grid[t][q] = 0

    yield from rec(0, [[0] * r for _ in range(r)], [0] * r)


# ---------------------------------------------------------------------------
# Canonical basis (the constructive bijection proof, run against b's own
# invariants).
# ---------------------------------------------------------------------------

def _slot_key(i, j, k):
    m = min(i, j)
    return (m, 0 if i <= j else 1, i, j, k)


def _slot_sections(fb: FlaggedBilinear, W):
    """Representatives e_{ij}^k in V for each slot (i, j), j = 1..r+1.

    Slot (i, j) is a section of (W[i,j] + W[i-1,j-1]) inside W[i,j-1];
    the greedy rref choice makes it deterministic.
    """
    p = fb.p
    out = {}
    for i in range(1, fb.r + 1):
        for j in range(1, fb.r + 2):
            sub = subspace_sum(W[i, j], W[i - 1, j - 1], p)
            sec = gfp.quotient_section(sub, W[i, j - 1], p)
            out[i, j] = sec
    return out


def _pairing_value(fb, rows1, rows2):
    return modp(rows1 @ fb.b @ rows2.T, fb.p)


def _darboux_rows(fb: FlaggedBilinear, rows: np.ndarray) -> np.ndarray:
    """Reorder/combine rows so the induced alternating class form becomes
    consecutive hyperbolic pairs; the class form must be nondegenerate."""
    p = fb.p
    remaining = [r.copy() for r in rows]
    out = []
    while remaining:
        u = remaining.pop(0)
        Bvals = [int(_pairing_value(fb, u.reshape(1, -1), v.reshape(1, -1))[0, 0])
                 for v in remaining]
        try:
            idx = next(i for i, val in enumerate(Bvals) if val)
        except StopIteration:
            raise ValueError("class form is degenerate")
        w = remaining.pop(idx)
        c = gfp.inv_scalar(Bvals[idx], p)
        w = (w * c) % p
        fixed = []
        for v in remaining:
            bu = int(_pairing_value(fb, v.reshape(1, -1), u.reshape(1, -1))[0, 0])
            bw = int(_pairing_value(fb, v.reshape(1, -1), w.reshape(1, -1))[0, 0])
            fixed.append((v + bu * w - bw * u) % p)
        remaining = fixed
        out.extend([u, w])
    return np.array(out, dtype=np.int64).reshape(len(out), rows.shape[1])


def canonical_flag_basis(fb: FlaggedBilinear) -> np.ndarray:
    """An ordered flag-compatible basis in which b takes its canonical values.

    Rows are basis vectors ordered by slots (i, j, k); the resulting matrix
    P b P^T equals grid_canonical_matrix of the invariants.
    """
    p = fb.p
    W = _w_spaces(fb)
    secs = _slot_sections(fb, W)
    # canonical class bases: dual pairs across (i, j)/(j, i), Darboux on (i,i)
    reps = {}
    for i in range(1, fb.r + 1):
        for j in range(1, fb.r + 2):
            reps[i, j] = secs[i, j].copy()
    for i in range(1, fb.r + 1):
        for j in range(i, fb.r + 1):
            if reps[i, j].shape[0] == 0:
                continue
            if i == j:
                reps[i, i] = _darboux_rows(fb, reps[i, i])
            else:
                M = _pairing_value(fb, reps[i, j], reps[j, i])
                # replace the (j, i) side by the dual family
                reps[j, i] = modp(gfp.inverse(M, p).T @ reps[j, i], p)
    # inductive correction over the ordered slot list
    order = []
    for i in range(1, fb.r + 1):
        for j in range(1, fb.r + 2):
            for k in range(reps[i, j].shape[0]):
                order.append((i, j, k))
    order.sort(key=lambda s: _slot_key(*s))
    fixed: dict = {}
    for (s, t, q) in order:
        e = reps[s, t][q].copy()
        J = [(i, j, k) for (i, j, k) in fixed if i >= t and j < s]
        Jp = [(i, j, k) for (i, j, k) in fixed if i < s and j >= t]
        if J:
            P = np.array([fixed[s2] for s2 in J], dtype=np.int64)
            Q = np.array([fixed[s2] for s2 in Jp], dtype=np.int64)
            rhs = _pairing_value(fb, e.reshape(1, -1), P)[0]
            Mx = _pairing_value(fb, Q, P)
            c = gfp.solve_rows(Mx, rhs, p)
            ensure(c is not None, "correction system inconsistent")
            e = (e - c @ Q) % p
        fixed[(s, t, q)] = e
    # flag-compatible output order: slot (i, j, k) sorted by i, then j, k
    basis = np.array([fixed[s] for s in sorted(fixed)], dtype=np.int64)
    # verify against the grid-synthesized canonical matrix
    slot_sizes = {(i, j): reps[i, j].shape[0]
                  for i in range(1, fb.r + 1) for j in range(1, fb.r + 2)}
    target = _canonical_matrix_from_slots(fb.p, fb.r, slot_sizes)
    got = _pairing_value(fb, basis, basis)
    ensure(np.array_equal(got, target), "canonical basis failed verification")
    return basis


def _canonical_matrix_from_slots(p: int, r: int, slot_sizes: dict) -> np.ndarray:
    order = []
    for i in range(1, r + 1):
        for j in range(1, r + 2):
            for k in range(slot_sizes.get((i, j), 0)):
                order.append((i, j, k))
    order.sort()
    pos = {s: a for a, s in enumerate(order)}
    d = len(order)
    out = zeros(d, d)
    for (i, j, k) in order:
        if j == r + 1:
            continue
        if i == j:
            # consecutive hyperbolic pairs within the slot
            if k % 2 == 0 and (i, j, k + 1) in pos:
                a, b2 = pos[(i, j, k)], pos[(i, j, k + 1)]
                out[a, b2] = 1
                out[b2, a] = p - 1
        elif i < j:
            a, b2 = pos[(i, j, k)], pos[(j, i, k)]
            out[a, b2] = 1
            out[b2, a] = p - 1
    return out


def grid_canonical_matrix(p: int, dims, grid) -> np.ndarray:
    """The canonical antisymmetric matrix of a Cor-4.4 grid.

    Radical slots (j = r+1) absorb dims[q] - sum_t grid[q][t].
    """
    grid = np.asarray(grid, dtype=np.int64)
    r = len(dims)
    slot_sizes = {}
    for q in range(1, r + 1):
        for t in range(1, r + 1):
            slot_sizes[q, t] = int(grid[q - 1, t - 1])
        slot_sizes[q, r + 1] = int(dims[q - 1] - grid[q - 1].sum())
    return _canonical_matrix_from_slots(p, r, slot_sizes)


# ---------------------------------------------------------------------------
# Augmented invariants: forms paired with a distinguished functional.
# ---------------------------------------------------------------------------

def invariants_form_functional(fb: FlaggedBilinear, k: int, f) -> tuple:
    """Invariants (l, grid) of (b, f) with f a nonzero functional on the
    k-th flag factor, the grid as int tuples; b must be nondegenerate.

    The special index is l = 1 + max{t >= 0 : f does not vanish on the image
    of V_k ∩ V_t^⊥ in the factor}.
    """
    p = fb.p
    if not fb.nondegenerate():
        raise ValueError("form must be nondegenerate")
    f = modp(np.asarray(f), p).reshape(-1)
    fac = gfp.make_factor(fb.flag[k - 1], fb.flag[k], p)
    if fac.dim != f.shape[0] or not np.any(f):
        raise ValueError("need a nonzero functional on the k-th factor")
    W = _w_spaces(fb)
    best = None
    for t in range(0, fb.r + 1):
        img = fac.image_of(W[k, t])
        if img.shape[0] and np.any(modp(img @ f, p)):
            best = t
    ensure(best is not None, "functional vanishes on the whole factor")
    ell = best + 1
    grid = _grid(W, fb.r)
    ensure(grid[k - 1, ell - 1] != 0, "augmented invariant needs n_kl != 0")
    return ell, tuple(map(tuple, grid.tolist()))


def invariants_contact_pair(p: int, flag: tuple, f, b) -> tuple:
    """Invariants (k, grid) of a contact-type pair (f, b) with
    V = V^⊥ ⊕ Ker f, the grid as int tuples.

    f is a functional on V (a vector), b antisymmetric on V; the grid is the
    Cor-4.4 grid of b restricted to Q = Ker f with the induced flag Q ∩ V_q.
    """
    f = modp(np.asarray(f), p).reshape(-1)
    if not np.any(f):
        raise ValueError("functional must be nonzero")
    d = f.shape[0]
    b = modp(b, p)
    Q = gfp.nullspace(f.reshape(1, -1), p)
    rad = orthogonal_subspace(b, full_space(d), p)
    if subspace_intersection(rad, Q, p).shape[0] != 0 or \
            rad.shape[0] + Q.shape[0] != d:
        raise ValueError("V = V^⊥ ⊕ Ker f fails")
    flag = tuple(row_space(np.asarray(S, dtype=np.int64), p) for S in flag)
    k = None
    for q in range(1, len(flag)):
        if flag[q].shape[0] and np.any(modp(flag[q] @ f, p)):
            k = q
            break
    ensure(k is not None, "f vanishes on V")
    # restrict to Q coordinates: Q ∩ S in the basis Q is {x : x @ Q in S},
    # the preimage of S under the inclusion x -> x @ Q
    bq = modp(Q @ b @ Q.T, p)
    sub_flag = tuple(gfp.preimage_rows(Q.T, S, p) for S in flag)
    fbq = FlaggedBilinear(p, sub_flag, bq)
    return k, tuple(map(tuple, invariants_nqt(fbq).tolist()))


# ---------------------------------------------------------------------------
# Exhaustive oracle.
# ---------------------------------------------------------------------------

def all_antisymmetric(p: int, d: int):
    """All antisymmetric zero-diagonal d x d matrices over F_p."""
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    for vals in itertools.product(range(p), repeat=len(pairs)):
        M = zeros(d, d)
        for (i, j), v in zip(pairs, vals):
            M[i, j] = v
            M[j, i] = (-v) % p
        yield M


def _check_form_count(p: int, d: int) -> None:
    """Refuse, before building any, to enumerate the p^C(d,2) forms of
    `all_antisymmetric` when twice their number passes 2^24."""
    if 2 * p ** min(math.comb(d, 2), 24) > 2 ** 24:
        raise ValueError("form enumeration exceeds the size guard")


def flag_stabilizer(p: int, dims):
    """All invertible matrices preserving the coordinate flag of dims."""
    d = dims[-1]
    level = []
    for c in range(d):
        level.append(next(i for i, top in enumerate(dims) if c < top))
    free = [(r, c) for r in range(d) for c in range(d) if level[r] <= level[c]]
    if p ** len(free) > 2 ** 24:
        raise ValueError("stabilizer enumeration exceeds the size guard")
    for vals in itertools.product(range(p), repeat=len(free)):
        A = zeros(d, d)
        for (r, c), v in zip(free, vals):
            A[r, c] = v
        if gfp.is_invertible(A, p):
            yield A


# Bound on the work of brute_force_orbit_partition: candidate matrices
# tested plus products A^T M A made (~13 and ~7 us each on a 2-core Xeon).
ORBIT_WORK_LIMIT = 2 ** 21


def _stabilizer_counts(p: int, dims) -> tuple[int, int]:
    """(candidate matrices, order) of the flag stabilizer of dims: it is
    block upper triangular over the factors k_i, so `flag_stabilizer` tests
    p^(free entries) candidates and keeps prod |GL_{k_i}(F_p)| times p^(free
    entries off the diagonal blocks)."""
    fd = [dims[0]] + [b - a for a, b in zip(dims, dims[1:])]
    free = sum(k * (dims[-1] - top + k) for k, top in zip(fd, dims))
    order = p ** (free - sum(k * k for k in fd))
    for k in fd:
        order *= math.prod(p ** k - p ** j for j in range(k))
    return p ** free, order


def brute_force_orbit_partition(p: int, dims):
    """Partition all antisymmetric forms into flag-stabilizer orbits.

    Returns a list of orbits, each a set of byte-keys of the form matrices.
    """
    _check_form_count(p, dims[-1])
    # the orbit loop makes |G| products per orbit, at most one orbit per form
    candidates, order = _stabilizer_counts(p, dims)
    if candidates + p ** math.comb(dims[-1], 2) * order > ORBIT_WORK_LIMIT:
        raise ValueError("orbit enumeration exceeds the size guard")
    group = list(flag_stabilizer(p, dims))
    forms = list(all_antisymmetric(p, dims[-1]))
    key = lambda M: M.tobytes()
    unseen = {key(M): M for M in forms}
    orbits = []
    while unseen:
        _, M = next(iter(unseen.items()))
        orbit = set()
        for A in group:
            N = modp(A.T @ M @ A, p)
            orbit.add(key(N))
        for knd in orbit:
            unseen.pop(knd, None)
        orbits.append(orbit)
    return orbits


def grid_fibers(p: int, dims):
    """Group all antisymmetric forms by their invariant grid."""
    _check_form_count(p, dims[-1])
    flag = coordinate_flag(dims)
    fibers: dict = {}
    for M in all_antisymmetric(p, dims[-1]):
        fb = FlaggedBilinear(p, flag, M)
        g = tuple(map(tuple, invariants_nqt(fb).tolist()))
        fibers.setdefault(g, set()).add(M.tobytes())
    return fibers
