"""Recognition, invariants, normal shapes and equivalence of symplectic and
contact forms.

A symplectic candidate is a pair (u-class vector e, degree-2 body) standing
for exp(sum e_i x_i) * body: closedness reads d(body) + (sum e_i dx_i) ^ body
= 0, nondegeneracy is a unit determinant of the coefficient matrix (decided
on constant terms, which is exact in a local ring).  Type 1 (e = 0) is
classified by the grinding descriptor of the pair (constant bivector,
top-cohomology bivector); type 2 by the height level of e together with the
augmented flag invariants of the constant bivector; contact forms by the
augmented invariants of their constant linear and bivector parts.
"""
from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import gfp
from .algebra import AlgebraElement, FlagSpec, multiplication_matrix
from .flagbilinear import (FlaggedBilinear, admissible_grids,
                           grid_canonical_matrix, grid_ok,
                           invariants_contact_pair, invariants_form_functional)
from .forms import DiffForm, e_vector_form, h_class, top_monomial
from .gfp import ensure, inv_scalar
from .grind import (canonical_pair_label, classify_type1_matrices,
                    descriptor_equal, height_spaces,
                    synthesize_descriptor_matrices)
from .groups import Automorphism, random_in, transport_witness


class FormatError(ValueError):
    """Malformed input, or an input field outside the domain of a call;
    carries a field diagnostic."""

    def __init__(self, field: str, msg: str):
        self.field = field
        super().__init__(f"{field}: {msg}")


@dataclass
class SymplecticCandidate:
    u_class: np.ndarray
    body: DiffForm

    def __post_init__(self):
        self.u_class = np.asarray(self.u_class, dtype=np.int64) % self.spec.p
        if self.body.degree != 2:
            raise ValueError("body must be a 2-form")
        if len(self.u_class) != self.spec.n:
            raise ValueError("u-class length mismatch")

    @property
    def spec(self) -> FlagSpec:
        return self.body.spec

    def has_u(self) -> bool:
        return bool(np.any(self.u_class))


@dataclass
class ContactCandidate:
    form: DiffForm

    def __post_init__(self):
        if self.form.degree != 1:
            raise ValueError("contact candidate must be a 1-form")

    @property
    def spec(self) -> FlagSpec:
        return self.form.spec


@dataclass(frozen=True)
class Type2Invariant:
    k: int
    ell: int
    grid: tuple


@dataclass(frozen=True)
class ContactInvariant:
    k: int
    grid: tuple


def constant_bivector(body: DiffForm) -> np.ndarray:
    """The coefficient matrix of body mod m * Omega^2 (antisymmetric)."""
    spec = body.spec
    n = spec.n
    out = gfp.zeros(n, n)
    zero = spec.zero_mono()
    for (i, j), f in body.terms.items():
        c = f.terms.get(zero, 0)
        out[i, j] = c
        out[j, i] = (-c) % spec.p
    return out


def constant_covector(omega: DiffForm) -> np.ndarray:
    spec = omega.spec
    out = np.zeros(spec.n, dtype=np.int64)
    zero = spec.zero_mono()
    for (i,), f in omega.terms.items():
        out[i] = f.terms.get(zero, 0)
    return out


def h2_bivector(body: DiffForm, dbody: DiffForm | None = None) -> np.ndarray:
    """The class of a closed 2-form as an antisymmetric matrix over the
    top-cocycle basis (`dbody`, if given, is d body)."""
    spec = body.spec
    n = spec.n
    coords = h_class(body, dbody)
    out = gfp.zeros(n, n)
    for c, (i, j) in zip(coords, itertools.combinations(range(n), 2)):
        out[i, j] = c
        out[j, i] = (-int(c)) % spec.p
    return out


def is_symplectic(cand: SymplecticCandidate, dbody: DiffForm | None = None) -> str:
    """'no', 'type1' or 'type2'.  `dbody`, if given, is d(body), already
    computed by the caller."""
    spec = cand.spec
    p = spec.p
    if p == 2 and cand.has_u() and any(m == 1 for m in spec.heights):
        raise FormatError("heights",
                          "type-2 recognition at p = 2 needs all heights > 1")
    dbody = cand.body.d() if dbody is None else dbody
    closed = dbody + e_vector_form(spec, cand.u_class).wedge(cand.body)
    if closed:
        return "no"
    if not gfp.is_invertible(constant_bivector(cand.body), p):
        return "no"
    return "type2" if cand.has_u() else "type1"


def invariants(cand) -> Type2Invariant | ContactInvariant | Counter:
    """Complete conjugacy invariants of a recognized form; the form's d is
    computed once and shared by recognition and the invariants."""
    if isinstance(cand, SymplecticCandidate):
        dbody = cand.body.d()
        kind = is_symplectic(cand, dbody)
        if kind == "no":
            raise ValueError("not a symplectic form")
        spec = cand.spec
        b = constant_bivector(cand.body)
        if kind == "type1":
            c = h2_bivector(cand.body, dbody)
            return classify_type1_matrices(spec.p, spec.heights, b, c)
        return _type2_invariants(spec, cand.u_class, b)
    if isinstance(cand, ContactCandidate):
        domega = cand.form.d()
        if not is_contact(cand, domega):
            raise ValueError("not a contact form")
        return _contact_invariants(cand, domega)
    raise TypeError("unrecognized candidate type")


def _type2_invariants(spec: FlagSpec, e, b) -> Type2Invariant:
    p = spec.p
    k = min(spec.heights[i] for i in range(spec.n) if int(e[i]) % p)
    flag = height_spaces(spec.heights)
    fb = FlaggedBilinear(p, flag, b)
    fac = gfp.make_factor(flag[k - 1], flag[k], p)
    # the functional on V_k/V_{k-1} induced by e (the section basis is made
    # of coordinate vectors, so evaluation is coordinate pairing)
    f = gfp.modp(fac.section @ np.asarray(e, dtype=np.int64), p)
    return Type2Invariant(k, *invariants_form_functional(fb, k, f))


def _contact_invariants(cand: ContactCandidate, domega: DiffForm) -> ContactInvariant:
    spec = cand.spec
    p = spec.p
    x = constant_covector(cand.form)
    b = constant_bivector(domega)
    flag = height_spaces(spec.heights)
    return ContactInvariant(*invariants_contact_pair(p, flag, x, b))


# ---------------------------------------------------------------------------
# Contact recognition.
# ---------------------------------------------------------------------------

def is_contact(cand: ContactCandidate, domega: DiffForm | None = None) -> bool:
    """Unit bordered determinant; decided on constant terms (exact).
    `domega`, if given, is d omega, already computed by the caller."""
    spec = cand.spec
    if spec.p == 2:
        raise FormatError("p", "contact recognition requires p > 2")
    n = spec.n
    x = constant_covector(cand.form)
    db = constant_bivector(cand.form.d() if domega is None else domega)
    M = gfp.zeros(n + 1, n + 1)
    M[:n, :n] = db
    M[:n, n] = x
    M[n, :n] = (-x) % spec.p
    return gfp.is_invertible(M, spec.p)


def contact_split(cand: ContactCandidate):
    """F_p-bases (canonical rref, int64) of P = ker(delta -> delta . d omega)
    and Q = ker(delta -> omega(delta)) inside W(F).

    Write d omega = sum_{j<k} g_jk dx_j ^ dx_k and let A be the skew n x n
    matrix over O with A_jk = g_jk; delta = sum a_j d_j contracts to
    -sum_k (A a)_k dx_k, so P = ker A.  For odd n the Reeb vector
    R_i = (-1)^i Pf(A without row and column i) satisfies A R = 0.  omega is
    contact exactly when the constant bordered matrix of (A, f) is
    nonsingular; then A mod m has rank n - 1, some R_i is a unit and A has
    a unit (n-1)-minor.  Over the local ring O such an A is equivalent to
    diag(1, ..., 1, a) with a = 0 (det A = 0 for odd n), so ker A is free
    of rank 1; it contains the unimodular R, hence P = O R, spanned over F_p
    by the x^(m) R.  Q is the kernel of [M(f_0) | ... | M(f_{n-1})], where
    M = `multiplication_matrix` and omega = sum f_j dx_j.

    Both bases are read off in closed form when a coefficient is a unit
    (multiplication matrices commute, and M(g / u) = M(u)^-1 M(g)):
    if R_0 is a unit, P = O (R / R_0) has the rref
    [I | M(R_1/R_0)^T | ... | M(R_{n-1}/R_0)^T]; if f_{n-1} is a unit, the
    kernel is a_{n-1} = -sum_{i<n-1} M(f_i/f_{n-1}) a_i, whose rref is
    [I | B] with block row i of B equal to -M(f_i/f_{n-1})^T.  Otherwise
    the space is eliminated, and only its matrix is built: `gfp.row_space`
    of `_reeb_span` for P, `gfp.nullspace` of `_omega_matrix` for Q.
    """
    domega = cand.form.d()
    if not is_contact(cand, domega):
        raise ValueError("not a contact form")
    spec = cand.spec
    p, n, dimO = spec.p, spec.n, spec.dim
    reeb = _reeb_vector(domega)
    ensure(not domega.contract(reeb), "d omega . R != 0")
    f = [cand.form.terms.get((j,), AlgebraElement.zero(spec)) for j in range(n)]
    if reeb[0].constant_term():
        P = np.zeros((dimO, n * dimO), dtype=np.int64)
        np.fill_diagonal(P, 1)
        for j, q in enumerate(_quotients(reeb[1:], reeb[0]), start=1):
            P[:, j * dimO:(j + 1) * dimO] = multiplication_matrix(q).T
    else:
        P = gfp.row_space(_reeb_span(reeb), p)
    if f[-1].constant_term():
        k = (n - 1) * dimO
        Q = np.zeros((k, n * dimO), dtype=np.int64)
        np.fill_diagonal(Q, 1)
        for i, q in enumerate(_quotients(f[:-1], f[-1])):
            Q[i * dimO:(i + 1) * dimO, k:] = -multiplication_matrix(q).T % p
    else:
        Q = gfp.nullspace(_omega_matrix(f), p)
    ensure(P.shape[0] == dimO, "P is not free of rank 1")
    ensure(P.shape[0] + Q.shape[0] == n * dimO, "contact split dimensions broken")
    return P, Q


def _quotients(gs: list, u: AlgebraElement) -> list:
    """The g / u for g in gs and a unit u, by solving M(u) x = g.

    In the `spec.monomials()` order the index of x^(a+b) is that of x^(a)
    plus that of x^(b), so M(u) = c (1 + N) is lower triangular with the
    constant term c on its diagonal and N raising the degree, so
    x = c^-1 sum_k (-N)^k g needs at most top_degree matrix products, all
    right-hand sides at once.
    """
    spec = u.spec
    p = spec.p
    cinv = inv_scalar(u.constant_term(), p)
    N = multiplication_matrix(u) * cinv % p
    np.fill_diagonal(N, 0)
    term = np.zeros((spec.dim, len(gs)), dtype=np.int64)
    for col, g in enumerate(gs):
        if g.terms:
            idx = np.ravel_multi_index(np.array(list(g.terms)).T, spec.caps)
            term[idx, col] = list(g.terms.values())
    term = term * cinv % p
    x = term.copy()
    for _ in range(spec.top_degree):
        term = -(N @ term) % p
        if not term.any():
            break
        x += term
    x %= p
    monos = np.indices(spec.caps).reshape(spec.n, spec.dim).T.tolist()
    return [AlgebraElement(spec, {tuple(monos[i]): int(c[i])
                                  for i in np.flatnonzero(c)})
            for c in x.T]


def _reeb_vector(domega: DiffForm) -> list:
    """R_i = (-1)^i Pf(A without row and column i) for the skew matrix
    A_jk = g_jk of d omega = sum_{j<k} g_jk dx_j ^ dx_k (n odd); for n = 3,
    R = (g_12, -g_02, g_01)."""
    spec = domega.spec
    zero = AlgebraElement.zero(spec)

    def pfaffian(idx):
        # expansion along the first index; a 2 x 2 Pfaffian is its entry
        if not idx:
            return AlgebraElement.one(spec)
        if len(idx) == 2:
            return domega.terms.get(idx, zero)
        out = zero
        for t, j in enumerate(idx[1:]):
            g = domega.terms.get((idx[0], j))
            if g:
                term = g * pfaffian(idx[1:t + 1] + idx[t + 2:])
                out = out - term if t % 2 else out + term
        return out

    n = spec.n
    return [pfaffian(tuple(k for k in range(n) if k != i)).scale((-1) ** i)
            for i in range(n)]


def _reeb_span(reeb: list) -> np.ndarray:
    """The F_p spanning rows [M(R_0)^T | ... | M(R_{n-1})^T] of P = O R, a
    dim O(F) x dim W(F) int16 array, M = `multiplication_matrix`.

    Coordinate j * dim O(F) + idx(x^(m)) of W(F) is x^(m) d_j, so row m is
    x^(m) R: column m of M(R_j) in block j.
    """
    return np.concatenate([multiplication_matrix(r).T for r in reeb], axis=1,
                          dtype=np.int16)


def _omega_matrix(f: list) -> np.ndarray:
    """[M(f_0) | ... | M(f_{n-1})], the matrix of delta -> omega(delta) on
    W(F) for omega = sum f_j dx_j, a dim O(F) x dim W(F) int16 array."""
    return np.concatenate([multiplication_matrix(g) for g in f], axis=1,
                          dtype=np.int16)


# ---------------------------------------------------------------------------
# Normal shapes.
# ---------------------------------------------------------------------------

def heights_from_grid(grid, contact_k: int | None = None) -> tuple:
    """Heights realizing a full-row-sum grid; for contact grids the k-row
    carries one extra variable (the distinguished index)."""
    grid = np.asarray(grid, dtype=np.int64)
    r = grid.shape[0]
    dims = [int(grid[q].sum()) for q in range(r)]
    if contact_k is not None:
        dims[contact_k - 1] += 1
    heights = []
    for q in range(r):
        heights.extend([q + 1] * dims[q])
    return tuple(heights)


def _pairing_form(spec: FlagSpec, grid, skip: int | None = None) -> DiffForm:
    """sum_{i < tau(i)} x_i dx_{tau(i)} on the variables other than skip,
    where tau pairs the variables that the canonical matrix of the grid
    (`grid_canonical_matrix`) pairs to 1 above its diagonal."""
    var = [i for i in range(spec.n) if i != skip]
    M = grid_canonical_matrix(spec.p, grid.sum(axis=1), grid)
    return DiffForm(spec, 1, {(var[j],): AlgebraElement.generator(spec, var[i])
                              for i, j in zip(*np.nonzero(np.triu(M)))})


def _type1_form(spec: FlagSpec, a, c) -> SymplecticCandidate:
    """sum_{i<j} (a_ij + c_ij x_i^(top) x_j^(top)) dx_i ^ dx_j, u-class 0,
    for antisymmetric a and c reduced mod p."""
    zero = spec.zero_mono()
    terms = {}
    for i, j in itertools.combinations(range(spec.n), 2):
        top = top_monomial(spec, (i, j))
        terms[i, j] = AlgebraElement(spec, {zero: int(a[i, j]), top: int(c[i, j])})
    return SymplecticCandidate(np.zeros(spec.n, dtype=np.int64),
                               DiffForm(spec, 2, terms))


def _grid_heights(inv, contact: bool):
    """(grid array, heights) of a type-2 or contact datum, if the grid is
    admissible for its own row sums (`grid_ok`), k names a row and the last
    row names a variable (the contact index counts in row k), as in the
    invariants of a form."""
    try:
        grid = np.asarray(inv.grid, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        raise FormatError("grid", "not an integer matrix") from None
    if grid.ndim != 2 or not grid_ok(grid, grid.sum(axis=1), nondegenerate=True):
        raise FormatError("grid", "must be square, symmetric and nonnegative "
                                  "with an even diagonal")
    if not 1 <= inv.k <= grid.shape[0]:
        raise FormatError("k", f"must name a grid row, 1..{grid.shape[0]}")
    heights = heights_from_grid(grid, contact_k=inv.k if contact else None)
    if max(heights, default=0) != grid.shape[0]:
        raise FormatError("grid", "its last row names no variable")
    return grid, heights


def _check_descriptor(desc: Counter, p: int) -> None:
    """A type-1 descriptor as `invariants` gives them: a nonempty multiset
    of indecomposables with canonical labels of heights >= 1, each periodic
    one (and only those) with a monic endo q^e, q irreducible, q(0) != 0."""
    if not desc:
        raise FormatError("descriptor", "empty")
    for ind, mult in desc.items():
        label = (ind.top, ind.bottom)
        if mult < 1 or not ind.top or len(ind.top) != len(ind.bottom) \
                or min(ind.top + ind.bottom) < 1 \
                or canonical_pair_label(ind.periodic, *label) != label:
            raise FormatError("descriptor", f"{label} x {mult} is not a canonical "
                                            f"label with a positive multiplicity")
        endo = ind.endo
        if (endo is not None) != ind.periodic or endo is not None and not (
                endo and endo[0] and endo[-1] == 1 and 0 <= min(endo)
                and max(endo) < p and len(gfp.pfactor(endo, p)) == 1):
            raise FormatError("descriptor", f"endo {endo} on {label}")


def normal_shape(inv, p: int):
    """The canonical representative of an invariant datum.

    Type 2: d(exp(x_{i0}) * eta) encoded as a candidate; contact:
    dx_{i0} + eta, where eta = sum x_i dx_{i'} (`_pairing_form`) has the
    grid's `grid_canonical_matrix` as its constant bivector d(eta), on every
    variable (type 2) or on every variable but x_{i0} (contact); type 1: the
    descriptor's block matrices as
    sum (a_ij + b_ij x_i^(top) x_j^(top)) dx_i ^ dx_j.  A datum that no form
    has as its invariants raises FormatError.
    """
    gfp.check_prime(p)
    if isinstance(inv, Counter):
        _check_descriptor(inv, p)
        heights, a, c = synthesize_descriptor_matrices(inv, p)
        return _type1_form(FlagSpec(p, heights), a, c)
    if isinstance(inv, Type2Invariant):
        grid, heights = _grid_heights(inv, contact=False)
        if p == 2 and grid[0].any():
            raise FormatError("grid", "type-2 forms at p = 2 need all heights > 1: "
                                      "the first row must be zero")
        if not 1 <= inv.ell <= grid.shape[0] or grid[inv.k - 1, inv.ell - 1] == 0:
            raise FormatError("l", "inadmissible type-2 invariants: n_kl = 0")
        spec = FlagSpec(p, heights)
        # the first variable of slot (k, l): rows above k, then columns before l
        i0 = int(grid[:inv.k - 1].sum() + grid[inv.k - 1, :inv.ell - 1].sum())
        eta = _pairing_form(spec, grid)
        e = np.zeros(spec.n, dtype=np.int64)
        e[i0] = 1
        body = eta.d() + e_vector_form(spec, e).wedge(eta)
        cand = SymplecticCandidate(e, body)
        ensure(is_symplectic(cand) == "type2", "type-2 normal shape is not type 2")
        return cand
    if isinstance(inv, ContactInvariant):
        grid, heights = _grid_heights(inv, contact=True)
        spec = FlagSpec(p, heights)
        i0 = heights.index(inv.k)
        cand = ContactCandidate(DiffForm(spec, 1, {(i0,): AlgebraElement.one(spec)})
                                + _pairing_form(spec, grid, skip=i0))
        ensure(is_contact(cand), "contact normal shape is not contact")
        return cand
    raise TypeError("unknown invariant datum")


# ---------------------------------------------------------------------------
# Equivalence.
# ---------------------------------------------------------------------------

def recognize(cand) -> str:
    if isinstance(cand, SymplecticCandidate):
        return is_symplectic(cand)
    if isinstance(cand, ContactCandidate):
        return "contact" if is_contact(cand) else "no"
    raise TypeError("unknown candidate")


def equivalent(c1, c2) -> tuple[bool, dict]:
    """Equivalence decision with a report naming the matched invariants."""
    s1, s2 = c1.spec, c2.spec
    if s1.p != s2.p:
        raise FormatError("p", "mixed characteristics")
    k1, k2 = recognize(c1), recognize(c2)
    report = {"kind": (k1, k2)}
    if k1 == "no" or k2 == "no" or k1 != k2:
        report["reason"] = "kind mismatch"
        return False, report
    if s1.heights_multiset() != s2.heights_multiset():
        report["reason"] = "height multisets differ"
        return False, report
    i1, i2 = invariants(c1), invariants(c2)
    if isinstance(i1, Counter):
        same = descriptor_equal(i1, i2)
        report["descriptor_match"] = same
    else:
        same = i1 == i2
        report["invariants"] = (str(i1), str(i2))
    return same, report


def same_Gprime_orbit(c1: SymplecticCandidate, c2: SymplecticCandidate) -> bool:
    """Type-1 forms over the same spec: equal constant bivectors and equal
    top-cohomology classes (p > 2)."""
    s = c1.spec
    if s.p == 2:
        raise ValueError("the G'-orbit predicate requires p > 2")
    if c2.spec != s:
        raise ValueError("specs differ")
    if is_symplectic(c1) != "type1" or is_symplectic(c2) != "type1":
        raise ValueError("both forms must be first-type symplectic")
    return np.array_equal(constant_bivector(c1.body), constant_bivector(c2.body)) \
        and np.array_equal(h2_bivector(c1.body), h2_bivector(c2.body))


# ---------------------------------------------------------------------------
# Group action on candidates and random generation.
# ---------------------------------------------------------------------------

def apply_to_candidate(sigma: Automorphism, cand):
    """Transport a candidate along an automorphism.

    Symplectic: sigma(exp(e) body) = exp(e') * (lam * w * sigma(body)) with
    (e', w, lam) from the u-class transport; contact: plain form action.
    """
    if isinstance(cand, ContactCandidate):
        return ContactCandidate(sigma.apply_to_form(cand.form))
    spec = cand.spec
    if not cand.has_u():
        return SymplecticCandidate(cand.u_class,
                                   sigma.apply_to_form(cand.body))
    e2, w, lam = transport_witness(sigma, cand.u_class)
    body2 = sigma.apply_to_form(cand.body).mul_function(w.scale(lam))
    return SymplecticCandidate(e2, body2)


def _height_counts(heights) -> list:
    """dims[q - 1] = the number of variables of height q, q = 1..max."""
    return [list(heights).count(q) for q in range(1, max(heights) + 1)]


def _grid_tuple(grid) -> tuple:
    return tuple(tuple(int(x) for x in row) for row in grid)


def admissible_type2_invariants(heights, p: int):
    """All (k, ell, grid) for the given heights (full row sums, n_kl != 0)."""
    dims = _height_counts(heights)
    r = len(dims)
    return [Type2Invariant(k, ell, _grid_tuple(grid))
            for grid in admissible_grids(dims, nondegenerate=True)
            for k in range(1, r + 1) if dims[k - 1]
            for ell in range(1, r + 1) if grid[k - 1, ell - 1]]


def admissible_contact_invariants(heights, p: int):
    """All (k, grid) for the given heights per the contact row-sum rule."""
    dims = _height_counts(heights)
    out = []
    for k in range(1, len(dims) + 1):
        if dims[k - 1]:
            qdims = list(dims)
            qdims[k - 1] -= 1
            out.extend(ContactInvariant(k, _grid_tuple(grid))
                       for grid in admissible_grids(qdims, nondegenerate=True))
    return out


def random_form(kind: str, spec: FlagSpec, seed: int):
    """A recognized random form: a normal shape conjugated by a random group
    element (contact forms also pick up a random unit factor)."""
    rng = random.Random(seed)
    p = spec.p
    if kind == "type1":
        # random nondegenerate constant part and random top part over the
        # requested heights (n must be even for nondegeneracy)
        n = spec.n
        if n % 2:
            raise FormatError("heights",
                              "type-1 forms need an even number of variables")

        def alternating():
            m = gfp.random_matrix(rng, n, n, p)
            return gfp.modp(m - m.T, p)     # zero diagonal

        a = alternating()
        while not gfp.is_invertible(a, p):
            a = alternating()
        cand = _type1_form(spec, a, alternating())
    elif kind == "type2":
        if p == 2 and any(m == 1 for m in spec.heights):
            raise FormatError("heights",
                              "type-2 generation at p = 2 needs all heights > 1")
        invs = admissible_type2_invariants(spec.heights, p)
        if not invs:
            raise FormatError("heights", f"no admissible type-2 invariants "
                                         f"for {spec.heights}")
        cand = normal_shape(rng.choice(invs), p)
    elif kind == "contact":
        if p == 2:
            raise FormatError("p", "no contact forms at p = 2")
        invs = admissible_contact_invariants(spec.heights, p)
        if not invs:
            raise FormatError("heights", f"no admissible contact invariants "
                                         f"for {spec.heights}")
        cand = normal_shape(rng.choice(invs), p)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    sigma = random_in(rng, cand.spec, "G")
    cand = apply_to_candidate(sigma, cand)
    if kind == "contact":
        from .algebra import random_element
        u = AlgebraElement.scalar(cand.spec, rng.randrange(1, p)) + \
            random_element(rng, cand.spec, 2)
        cand = ContactCandidate(cand.form.mul_function(u))
    return cand
