import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from charpforms.algebra import AlgebraElement, FlagSpec, random_element
from charpforms import gfp
from charpforms.classify import (
    ContactCandidate, ContactInvariant, FormatError, SymplecticCandidate,
    Type2Invariant,
    _contact_matrices, _reeb_vector, admissible_contact_invariants,
    admissible_type2_invariants, apply_to_candidate, constant_bivector,
    contact_split, equivalent, invariants, is_contact, is_symplectic,
    normal_shape, random_form, recognize, same_Gprime_orbit,
)
from charpforms.flagbilinear import grid_canonical_matrix
from charpforms.forms import DiffForm, e_vector_form
from charpforms.grind import (Indecomposable, canonical_pair_label,
                              descriptor_equal)
from charpforms.groups import random_in


def dx_wedge(spec, i, j, coeff=None):
    return DiffForm(spec, 2, {(i, j): coeff or AlgebraElement.one(spec)})


def test_is_symplectic_examples():
    s = FlagSpec(3, (1, 1))
    # dx1 ^ dx2: type 1
    cand = SymplecticCandidate([0, 0], dx_wedge(s, 0, 1))
    assert is_symplectic(cand) == "type1"
    # x1 dx1 ^ dx2: determinant not a unit
    bad = SymplecticCandidate([0, 0], dx_wedge(s, 0, 1, AlgebraElement.generator(s, 0)))
    assert is_symplectic(bad) == "no"
    # u_class (1,0), body (1+x1) dx1^dx2 = the expansion of d(exp(x1) x1 dx2)
    body = dx_wedge(s, 0, 1, AlgebraElement.one(s) + AlgebraElement.generator(s, 0))
    t2 = SymplecticCandidate([1, 0], body)
    assert is_symplectic(t2) == "type2"
    # p = 2 restriction for type 2 with a height-1 variable
    s2 = FlagSpec(2, (1, 1))
    with pytest.raises(ValueError):
        is_symplectic(SymplecticCandidate([1, 0], dx_wedge(s2, 0, 1)))


def test_type2_invariants_example():
    s = FlagSpec(3, (1, 1))
    body = dx_wedge(s, 0, 1, AlgebraElement.one(s) + AlgebraElement.generator(s, 0))
    t2 = SymplecticCandidate([1, 0], body)
    inv = invariants(t2)
    assert inv == Type2Invariant(1, 1, ((2,),))


def test_type1_descriptor_examples():
    s = FlagSpec(3, (1, 1))
    d1 = invariants(SymplecticCandidate([0, 0], dx_wedge(s, 0, 1)))
    assert d1 == Counter({Indecomposable(False, (1,), (1,), None): 1})
    # (1 + x1^(2) x2^(2)) dx1 ^ dx2: the periodic descriptor
    coeff = AlgebraElement.one(s) + AlgebraElement.monomial(s, (2, 2))
    d2 = invariants(SymplecticCandidate([0, 0], dx_wedge(s, 0, 1, coeff)))
    assert d2 == Counter({Indecomposable(True, (1,), (1,), (2, 1)): 1})
    assert not descriptor_equal(d1, d2)


def _contact_matrices_by_columns(cand):
    """Reference build of the contact-split matrices: one contraction and
    n products of algebra elements per basis derivation x^(m) d_i."""
    spec = cand.spec
    monos = list(spec.monomials())
    mono_index = {m: i for i, m in enumerate(monos)}
    dimO = len(monos)
    dimW = spec.n * dimO
    domega = cand.form.d()
    rows_P = gfp.zeros(dimW, dimW)
    rows_Q = gfp.zeros(dimO, dimW)
    for col in range(dimW):
        i, m = divmod(col, dimO)
        delta = [AlgebraElement.zero(spec) for _ in range(spec.n)]
        delta[i] = AlgebraElement(spec, {monos[m]: 1})
        for (k,), f in domega.contract(delta).terms.items():
            for mono, c in f.terms.items():
                rows_P[k * dimO + mono_index[mono], col] = c
        val = AlgebraElement.zero(spec)
        for (k,), f in cand.form.terms.items():
            val = val + f * delta[k]
        for mono, c in val.terms.items():
            rows_Q[mono_index[mono], col] = c
    return rows_P, rows_Q


@pytest.mark.parametrize("p, heights, seed", [
    (3, (1,), 1), (5, (2,), 2), (3, (1, 1, 1), 3), (3, (1, 2, 1), 4),
    (5, (1, 1, 1), 5), (7, (1, 1, 1), 6)])
def test_contact_split_matches_per_column_build(p, heights, seed):
    cand = random_form("contact", FlagSpec(p, heights), seed)
    ref_P, ref_Q = _contact_matrices_by_columns(cand)
    _, rows_Q = _contact_matrices(cand, _reeb_vector(cand.form.d()))
    assert np.array_equal(rows_Q, ref_Q)
    P, Q = contact_split(cand)
    assert np.array_equal(P, gfp.nullspace(ref_P, p))
    assert np.array_equal(Q, gfp.nullspace(ref_Q, p))
    assert P.shape[0] == cand.spec.dim
    assert not np.any(gfp.modp(ref_P @ P.T, p))
    assert not np.any(gfp.modp(ref_Q @ Q.T, p))


def _reeb_normal_form(spec):
    """dx_n + x_1 dx_2 + x_3 dx_4 + ... (n odd): for n > 1 both f_0 and the
    Reeb component R_0 vanish."""
    n = spec.n
    form = e_vector_form(spec, [0] * (n - 1) + [1])
    for i in range(0, n - 1, 2):
        form = form + DiffForm(spec, 1, {(i + 1,): AlgebraElement.generator(spec, i)})
    return ContactCandidate(form)


# (p, heights): n in {1, 3, 5}, dim W from 13 to 1,215
SPLIT_ORACLE_CELLS = [(13, (1,)), (13, (2,)), (7, (2,)), (3, (1, 1, 1)),
                      (5, (1, 1, 1)), (3, (1, 2, 1)), (7, (1, 1, 1)),
                      (3, (1, 1, 1, 1, 1))]


@pytest.mark.parametrize("p, heights", SPLIT_ORACLE_CELLS)
def test_contact_split_non_unit_components_match_dense_oracle(p, heights):
    """P and Q against the null spaces of the per-column build when f_0 and
    R_0 need not be units: the normal form dx_n + x_1 dx_2 + ..., and that
    form moved by a random G' automorphism (constant part kept, so f_0 and
    R_0 stay in the maximal ideal) and by a random G automorphism times a
    random unit."""
    spec = FlagSpec(p, heights)
    rng = random.Random(p * 100 + sum(heights))
    base = _reeb_normal_form(spec)
    moved = apply_to_candidate(random_in(rng, spec, "Gprime"), base)
    unit = AlgebraElement.scalar(spec, rng.randrange(1, p)) + random_element(rng, spec, 3)
    general = ContactCandidate(
        apply_to_candidate(random_in(rng, spec, "G"), base).form.mul_function(unit))
    for cand in (base, moved, general):
        reeb = _reeb_vector(cand.form.d())
        f0 = cand.form.terms.get((0,), AlgebraElement.zero(spec))
        if cand is not general:
            assert (f0.constant_term() == 0) == (spec.n > 1)
            assert (reeb[0].constant_term() == 0) == (spec.n > 1)
        ref_P, ref_Q = _contact_matrices_by_columns(cand)
        P, Q = contact_split(cand)
        assert P.dtype == Q.dtype == np.int64
        assert np.array_equal(P, gfp.nullspace(ref_P, p))
        assert np.array_equal(Q, gfp.nullspace(ref_Q, p))


def _shifted_normal_form(spec, i0, extra=None):
    """dx_{i0} (+ dx_extra) + x_a dx_b over consecutive pairs (a, b) of the
    other variables: R and f are units at i0 only (f also at extra), so
    i0 = 0 makes R_0 a unit and i0 = n - 1 or extra = n - 1 makes f_{n-1}
    one."""
    rest = [i for i in range(spec.n) if i != i0]
    form = e_vector_form(spec, [int(i in (i0, extra)) for i in range(spec.n)])
    for a, b in zip(rest[::2], rest[1::2]):
        form = form + DiffForm(spec, 1, {(b,): AlgebraElement.generator(spec, a)})
    return ContactCandidate(form)


# kind -> (R_0 a unit, f_{n-1} a unit, i0, extra)
SPLIT_KINDS = {"both": (True, True, 0, -1), "R0 only": (True, False, 0, None),
               "f_last only": (False, True, -1, None),
               "neither": (False, False, 1, None)}


@pytest.mark.parametrize("kind", SPLIT_KINDS)
@pytest.mark.parametrize("p, heights", [(5, (1, 1, 1)), (3, (1, 2, 1)),
                                        (7, (1, 1, 1)), (3, (1, 1, 1, 1, 1))])
def test_contact_split_closed_forms_match_elimination(kind, p, heights):
    """Each of the four unit patterns of (R_0, f_{n-1}) selects its own
    branch of `contact_split` (closed form or elimination, for P and for
    Q); P and Q equal the row space and null space of the matrices of
    `_contact_matrices`, values and dtype.  Besides the shape itself, its
    image under a random G' automorphism times a unit in c + m^2 keeps the
    constant parts of d omega and omega up to the scalar c, so it keeps
    the pattern."""
    spec = FlagSpec(p, heights)
    n = spec.n
    R0_unit, f_unit, i0, extra = SPLIT_KINDS[kind]
    base = _shifted_normal_form(spec, i0 % n, None if extra is None else extra % n)
    rng = random.Random(p * 1000 + sum(heights) * 10 + len(kind))
    unit = AlgebraElement.scalar(spec, rng.randrange(1, p)) + \
        random_element(rng, spec, 4, in_m2=True)
    moved = ContactCandidate(apply_to_candidate(
        random_in(rng, spec, "Gprime"), base).form.mul_function(unit))
    for cand in (base, moved):
        reeb = _reeb_vector(cand.form.d())
        f_last = cand.form.terms.get((n - 1,), AlgebraElement.zero(spec))
        assert (reeb[0].constant_term() != 0) == R0_unit
        assert (f_last.constant_term() != 0) == f_unit
        span_P, rows_Q = _contact_matrices(cand, reeb)
        ref_P, ref_Q = gfp.row_space(span_P, p), gfp.nullspace(rows_Q, p)
        P, Q = contact_split(cand)
        assert P.dtype == Q.dtype == ref_P.dtype == ref_Q.dtype == np.int64
        assert np.array_equal(P, ref_P)
        assert np.array_equal(Q, ref_Q)


def test_is_contact_examples():
    s1 = FlagSpec(3, (1,))
    assert is_contact(ContactCandidate(e_vector_form(s1, [1])))
    s3 = FlagSpec(3, (1, 1, 1))
    # dx3 + x1 dx2
    form = e_vector_form(s3, [0, 0, 1]) + DiffForm(
        s3, 1, {(1,): AlgebraElement.generator(s3, 0)})
    cand = ContactCandidate(form)
    assert is_contact(cand)
    P, Q = contact_split(cand)
    assert P.shape[0] == 27 and Q.shape[0] == 54
    # x1 dx2 alone is not contact
    assert not is_contact(ContactCandidate(DiffForm(
        s3, 1, {(1,): AlgebraElement.generator(s3, 0)})))
    # even n is never contact
    s2 = FlagSpec(3, (1, 1))
    assert not is_contact(ContactCandidate(e_vector_form(s2, [1, 0])))
    # p = 2 rejected
    with pytest.raises(ValueError):
        is_contact(ContactCandidate(e_vector_form(FlagSpec(2, (1,)), [1])))


def test_contact_invariants_example():
    s3 = FlagSpec(3, (1, 1, 1))
    form = e_vector_form(s3, [0, 0, 1]) + DiffForm(
        s3, 1, {(1,): AlgebraElement.generator(s3, 0)})
    inv = invariants(ContactCandidate(form))
    assert inv == ContactInvariant(1, ((2,),))


def test_normal_shape_round_trips_small():
    # type 2 example from the running construction
    inv = Type2Invariant(1, 1, ((2,),))
    cand = normal_shape(inv, 3)
    assert is_symplectic(cand) == "type2"
    assert invariants(cand) == inv
    # contact
    cinv = ContactInvariant(1, ((2,),))
    ccand = normal_shape(cinv, 3)
    assert invariants(ccand) == cinv
    # type 1 descriptor
    desc = Counter({Indecomposable(True, (1,), (1,), (2, 1)): 1})
    tcand = normal_shape(desc, 3)
    assert is_symplectic(tcand) == "type1"
    assert descriptor_equal(invariants(tcand), desc)


def test_normal_shape_round_trips_quintic_cycle():
    """A 10-variable type-1 normal shape at p = 13 whose cycle carries an
    irreducible quintic: factoring its minimal polynomial used to try every
    irreducible of degree up to 5 and did not finish."""
    desc = Counter({Indecomposable(True, (1,), (1,), (7, 5, 9, 3, 8, 1)): 1})
    cand = normal_shape(desc, 13)
    assert cand.body.spec.n == 10
    assert descriptor_equal(invariants(cand), desc)


def test_normal_shape_round_trips_catalog():
    """Every admissible type-2 and contact datum over a few heights: its
    normal shape has it as invariants, and the shape's constant bivector
    is the canonical matrix of its grid (over every variable but the
    distinguished one, for contact)."""
    for p in (3, 5):
        for heights in [(1, 1), (1, 2), (2, 2), (1, 1, 2, 2), (1, 2, 3, 3)]:
            for inv in admissible_type2_invariants(heights, p):
                cand = normal_shape(inv, p)
                assert is_symplectic(cand) == "type2"
                assert invariants(cand) == inv
                grid = np.array(inv.grid)
                assert np.array_equal(constant_bivector(cand.body),
                                      grid_canonical_matrix(p, grid.sum(axis=1), grid))
        for heights in [(1,), (1, 1, 1), (1, 2, 2), (1, 1, 1, 2, 2), (1, 2, 2, 3, 3)]:
            for inv in admissible_contact_invariants(heights, p):
                cand = normal_shape(inv, p)
                assert is_contact(cand)
                assert invariants(cand) == inv
                grid = np.array(inv.grid)
                i0 = cand.spec.heights.index(inv.k)
                b = np.delete(np.delete(constant_bivector(cand.form.d()), i0, 0), i0, 1)
                assert np.array_equal(b, grid_canonical_matrix(p, grid.sum(axis=1), grid))


# Invariant data that no form has, with the field its FormatError names and
# the prime if not 3: each used to crash normal_shape, to answer for another
# class or to name a field the caller never passed.
_OUTSIDE = [
    (Type2Invariant(5, 1, ((2,),)), "k"),
    (Type2Invariant(1, 1, ((1,),)), "grid"),
    (Type2Invariant(0, 1, ((2,),)), "k"),
    (Type2Invariant(1, 1, ((2, 1),)), "grid"),
    (Type2Invariant(1, 2, ((2,),)), "l"),
    (Type2Invariant(1, 1, ((0, 1), (1, 0))), "l"),
    (Type2Invariant(1, 1, ((2, 0), (0, 0))), "grid"),
    (ContactInvariant(3, ((2,),)), "k"),
    (ContactInvariant(1, ((1,),)), "grid"),
    (Counter(), "descriptor"),
    (Counter({Indecomposable(True, (1,), (1,), None): 1}), "descriptor"),
    (Counter({Indecomposable(True, (1,), (1,), (0, 1)): 1}), "descriptor"),
    (Counter({Indecomposable(True, (1,), (1,), (2, 0, 1)): 1}), "descriptor"),
    (Counter({Indecomposable(False, (2,), (1,), None): 1}), "descriptor"),
    (Counter({Indecomposable(False, (1,), (2,), (2, 1)): 1}), "descriptor"),
    (Counter({Indecomposable(False, (1,), (1,), None): 0}), "descriptor"),
    (Type2Invariant(1, 1, ((2,),)), "grid", 2),          # height 1 at p = 2
]


@pytest.mark.parametrize("inv, field, p", [
    pytest.param(inv, field, *(p or [3]), id=f"inv{i}-{field}")
    for i, (inv, field, *p) in enumerate(_OUTSIDE)])
def test_normal_shape_rejects_data_outside_the_classification(inv, field, p):
    with pytest.raises(FormatError) as err:
        normal_shape(inv, p)
    assert err.value.field == field


def _rarely(draw) -> bool:
    return draw(st.integers(0, 7)) == 0


def _row(draw, r: int) -> int:
    """A row index, 1..r, rarely one outside."""
    return draw(st.sampled_from([0, r + 1])) if _rarely(draw) else draw(st.integers(1, max(r, 1)))


@st.composite
def _small_invariant_data(draw):
    """(p, datum) of any kind, small, mostly inside the classification and
    often outside it: zero heights, unequal or non-canonical labels, endos
    that are not prime powers, zero multiplicities; odd, asymmetric or
    ragged grids, rows out of range, zero n_kl."""
    kind = draw(st.sampled_from(["type1", "type2", "contact"]))
    if kind == "type1":
        p = draw(st.sampled_from([2, 3, 5]))
        powers = [gfp.ppow(q, e, p) for d in (1, 2) for q in gfp.irreducibles(p, d)
                  if q[0] for e in (1, 2) if d * e <= 2]
        desc = Counter()
        for _ in range(draw(st.integers(1, 2))):
            n = draw(st.integers(1, 2))
            top, bottom = (draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
                           for _ in range(2))
            periodic = draw(st.booleans())
            if not _rarely(draw):
                top, bottom = map(list, canonical_pair_label(periodic, top, bottom))
            if _rarely(draw):
                draw(st.sampled_from([top, bottom]))[0] = 0
            if _rarely(draw):
                bottom.pop()
            if _rarely(draw):
                endo = tuple(draw(st.lists(st.integers(0, p), min_size=1, max_size=3)))
            else:
                endo = draw(st.sampled_from(powers)) if periodic else None
            mult = 0 if _rarely(draw) else draw(st.integers(1, 2))
            desc[Indecomposable(periodic, tuple(top), tuple(bottom), endo)] += mult
        return p, desc
    p = 2 if _rarely(draw) else 3
    r = draw(st.integers(0 if _rarely(draw) else 1, 3))
    grid = [[0] * r for _ in range(r)]
    for q in range(r):
        grid[q][q] = 2 * draw(st.integers(0, 1))
        for t in range(q + 1, r):
            grid[q][t] = grid[t][q] = draw(st.integers(0, 2))
    if r and not any(grid[-1]) and not _rarely(draw):
        grid[-1][-1] = 2                      # a variable of the top height
    if r and _rarely(draw):
        grid[0][-1] += 1                      # asymmetric, or an odd diagonal
    if r and _rarely(draw):
        grid[-1] = grid[-1][:-1]              # ragged
    grid = tuple(map(tuple, grid))
    # keep dim O(F) = p^(sum of heights) small
    assume(p ** sum((q + 1) * sum(row) for q, row in enumerate(grid)) <= 729)
    k = _row(draw, r)
    if kind == "contact":
        return p, ContactInvariant(k, grid)
    ells = [t + 1 for t in range(r) if 1 <= k <= r and t < len(grid[k - 1])
            and grid[k - 1][t]]
    ell = draw(st.sampled_from(ells)) if ells and not _rarely(draw) else _row(draw, r)
    return p, Type2Invariant(k, ell, grid)


@settings(max_examples=200, deadline=None)
@given(_small_invariant_data())
def test_normal_shape_rejects_or_round_trips(data):
    """normal_shape either raises ValueError or gives a form whose
    invariants are the datum again."""
    p, inv = data
    try:
        cand = normal_shape(inv, p)
    except ValueError:
        return
    assert invariants(cand) == inv


def test_orbit_invariance_fuzz():
    rng = random.Random(0)
    for p, heights, kind in [(3, (1, 1), "type1"), (3, (1, 1), "type2"),
                             (5, (1, 1), "type2"), (3, (1, 1, 1), "contact"),
                             (2, (1, 1), "type1"), (3, (1, 2), "type2")]:
        spec = FlagSpec(p, heights)
        for trial in range(6):
            cand = random_form(kind, spec, seed=100 * trial + 7)
            base = invariants(cand)
            sigma = random_in(rng, cand.spec, "G")
            moved = apply_to_candidate(sigma, cand)
            assert recognize(moved) == recognize(cand)
            got = invariants(moved)
            if isinstance(base, Counter):
                assert descriptor_equal(base, got)
            else:
                assert base == got
            ok, report = equivalent(cand, moved)
            assert ok, report


def test_contact_unit_scaling_invariance():
    rng = random.Random(1)
    spec = FlagSpec(3, (1, 1, 1))
    for trial in range(6):
        cand = random_form("contact", spec, seed=trial)
        u = AlgebraElement.scalar(cand.spec, rng.randrange(1, 3)) + \
            random_element(rng, cand.spec, 2)
        scaled = ContactCandidate(cand.form.mul_function(u))
        assert is_contact(scaled)
        assert invariants(scaled) == invariants(cand)
        ok, _ = equivalent(cand, scaled)
        assert ok


def test_equivalence_decisions():
    s = FlagSpec(3, (1, 1))
    a = SymplecticCandidate([0, 0], dx_wedge(s, 0, 1))
    coeff = AlgebraElement.one(s) + AlgebraElement.monomial(s, (2, 2))
    b = SymplecticCandidate([0, 0], dx_wedge(s, 0, 1, coeff))
    ok, report = equivalent(a, b)
    assert not ok
    # same form, permuted heights spec
    s2 = FlagSpec(3, (1, 2))
    s3 = FlagSpec(3, (2, 1))
    f2 = SymplecticCandidate([0, 0], dx_wedge(s2, 0, 1))
    f3 = SymplecticCandidate([0, 0], dx_wedge(s3, 0, 1))
    ok23, _ = equivalent(f2, f3)
    assert ok23
    # different height multisets never equivalent
    f11 = SymplecticCandidate([0, 0], dx_wedge(s, 0, 1))
    ok12, report12 = equivalent(f11, f2)
    assert not ok12 and report12["reason"] == "height multisets differ"


def test_equivalence_across_height_orders():
    # the same invariant data over permuted heights is still equivalent
    p = 3
    inv = Type2Invariant(1, 2, ((0, 1), (1, 0)))
    base = normal_shape(inv, p)  # heights come out sorted: (1, 2)
    swapped = FlagSpec(p, (2, 1))
    # rebuild the same geometric form with the variables swapped
    perm = {0: 1, 1: 0}
    terms = {}
    for (i, j), f in base.body.terms.items():
        I = tuple(sorted((perm[i], perm[j])))
        sign = 1 if (perm[i] < perm[j]) == (i < j) else -1
        g = AlgebraElement(swapped, {(m[1], m[0]): c for m, c in f.terms.items()})
        terms[I] = g.scale(sign)
    u2 = np.array([base.u_class[1], base.u_class[0]], dtype=np.int64)
    moved = SymplecticCandidate(u2, DiffForm(swapped, 2, terms))
    ok, report = equivalent(base, moved)
    assert ok, report
    cinv = ContactInvariant(2, ((2, 0), (0, 0)))
    c1 = normal_shape(cinv, p)
    assert invariants(c1) == cinv
    ok2, _ = equivalent(c1, c1)
    assert ok2


def test_same_gprime_orbit():
    s = FlagSpec(3, (1, 1))
    omega = SymplecticCandidate([0, 0], dx_wedge(s, 0, 1))
    # omega + d(phi) for phi in m^(2) Omega^1 stays in the orbit
    phi = DiffForm(s, 1, {(0,): AlgebraElement.monomial(s, (2, 1))})
    omega2 = SymplecticCandidate([0, 0], omega.body + phi.d())
    assert same_Gprime_orbit(omega, omega2)
    # 2 * omega is not (different constant bivector)
    omega3 = SymplecticCandidate([0, 0], omega.body.scale(2))
    assert not same_Gprime_orbit(omega, omega3)
    # random sigma in G' fixes the orbit
    rng = random.Random(2)
    for _ in range(6):
        sigma = random_in(rng, s, "Gprime")
        moved = apply_to_candidate(sigma, omega)
        assert same_Gprime_orbit(omega, moved)
    with pytest.raises(ValueError):
        s2 = FlagSpec(2, (1, 1))
        same_Gprime_orbit(SymplecticCandidate([0, 0], dx_wedge(s2, 0, 1)),
                          SymplecticCandidate([0, 0], dx_wedge(s2, 0, 1)))


def _shape_data(cand):
    """(i0, pairing) read off a normal shape."""
    spec = cand.spec
    if isinstance(cand, ContactCandidate):
        form = cand.form
        i0 = next(i for (i,), f in form.terms.items() if f.constant_term())
        pairs = set()
        for (j,), f in form.terms.items():
            for i, c in enumerate(f.linear_part()):
                if c:
                    pairs.add(frozenset((i, j)))
        return i0, pairs
    i0 = next(i for i in range(spec.n) if int(cand.u_class[i]))
    eta_pairs = set()
    # body = d(eta) + dx_{i0} ^ eta with eta = sum x_i dx_{i'}: the pairs are
    # the constant-coefficient wedge slots of d(eta)
    from charpforms.classify import constant_bivector
    a = constant_bivector(cand.body)
    for i in range(spec.n):
        for j in range(i + 1, spec.n):
            if a[i, j]:
                eta_pairs.add(frozenset((i, j)))
    return i0, eta_pairs


def _permutation_criterion(c1, c2) -> bool:
    """Independent oracle for normal-shape equivalence: a height-preserving
    index bijection matching the distinguished index and the partition."""
    import itertools as it
    s1, s2 = c1.spec, c2.spec
    if s1.heights_multiset() != s2.heights_multiset() or s1.n != s2.n:
        return False
    i0a, pa = _shape_data(c1)
    i0b, pb = _shape_data(c2)
    for perm in it.permutations(range(s1.n)):
        if any(s1.heights[i] != s2.heights[perm[i]] for i in range(s1.n)):
            continue
        if perm[i0a] != i0b:
            continue
        if {frozenset(perm[i] for i in pair) for pair in pa} == pb:
            return True
    return False


def test_permutation_criterion_matches_invariants():
    # over the small catalog: normal shapes are equivalent exactly when a
    # height-preserving pairing-compatible permutation exists
    p = 3
    for heights in [(1, 1), (1, 1, 2, 2), (1, 2)]:
        invs = admissible_type2_invariants(heights, p)
        shapes = [normal_shape(i, p) for i in invs]
        for a, ia in zip(shapes, invs):
            for b, ib in zip(shapes, invs):
                assert _permutation_criterion(a, b) == (ia == ib), (ia, ib)
    for heights in [(1,), (1, 1, 1), (1, 2, 2)]:
        invs = admissible_contact_invariants(heights, p)
        shapes = [normal_shape(i, p) for i in invs]
        for a, ia in zip(shapes, invs):
            for b, ib in zip(shapes, invs):
                assert _permutation_criterion(a, b) == (ia == ib), (ia, ib)


def test_random_form_recognized():
    for kind, spec in [("type1", FlagSpec(3, (1, 1))),
                       ("type2", FlagSpec(3, (2, 1))),
                       ("contact", FlagSpec(5, (1, 1, 1)))]:
        for seed in range(3):
            cand = random_form(kind, spec, seed)
            expect = "contact" if kind == "contact" else kind
            assert recognize(cand) == expect
            assert cand.spec.heights_multiset() == spec.heights_multiset()
