import itertools
import math
import random
import time

import pytest

from charpforms import gfp
from charpforms.algebra import AlgebraElement, FlagSpec, random_element
from charpforms.forms import (
    DiffForm, cohomology_basis, cohomology_dims, d_element, decompose_z1,
    dlog, e_vector_form, h_class, h_class_to_form, is_exact_with_potential,
    render_form, top_monomial, twisted_cohomology_dims,
)


def random_form(rng, spec, degree, terms=2):
    out = DiffForm.zero(spec, degree)
    combos = list(itertools.combinations(range(spec.n), degree))
    for _ in range(terms):
        I = rng.choice(combos)
        out = out + DiffForm(spec, degree, {I: random_element(rng, spec, 2, in_m=False)})
    return out


def lie_derivative(coeffs, omega):
    """Cartan's formula: L_delta = i_delta d + d i_delta."""
    return omega.d().contract(coeffs) + omega.contract(coeffs).d()


def random_derivation(rng, spec, terms=2):
    return [random_element(rng, spec, terms, in_m=False) for _ in range(spec.n)]


def eta_form(spec, e):
    """The twisting cocycle sum e_i x_i^(p^{m_i}-1) dx_i."""
    return DiffForm(spec, 1, {
        (i,): AlgebraElement.monomial(spec, top_monomial(spec, (i,)), int(c))
        for i, c in enumerate(e)})


def twisted_d(omega, e):
    """d'(omega) = d(omega) + eta ^ omega."""
    return omega.d() + eta_form(omega.spec, e).wedge(omega)


def dense_twisted_dims(spec, e):
    """Independent oracle: dim H^k(d') from one dense matrix of d' per
    degree, built term by term from `twisted_d`."""
    basis = [[(m, I) for I in itertools.combinations(range(spec.n), k)
              for m in spec.monomials()] for k in range(spec.n + 2)]
    ranks = [0]
    for k in range(spec.n + 1):
        index = {el: r for r, el in enumerate(basis[k + 1])}
        M = gfp.zeros(len(basis[k + 1]), len(basis[k]))
        for c, (mono, I) in enumerate(basis[k]):
            form = DiffForm(spec, k, {I: AlgebraElement(spec, {mono: 1})})
            for J, f in twisted_d(form, e).terms.items():
                for m2, coeff in f.terms.items():
                    M[index[(m2, J)], c] = coeff
        ranks.append(gfp.rank(M, spec.p))
    return [len(basis[k]) - ranks[k + 1] - ranks[k] for k in range(spec.n + 1)]


def test_d_examples():
    s = FlagSpec(3, (2,))
    x2 = AlgebraElement.monomial(s, (2,))
    omega = DiffForm.from_function(x2)
    assert omega.d().terms == {(0,): AlgebraElement.monomial(s, (1,))}
    s2 = FlagSpec(3, (1, 1))
    const = DiffForm(s2, 2, {(0, 1): AlgebraElement.one(s2)})
    assert not const.d()
    x1dx2 = DiffForm(s2, 1, {(1,): AlgebraElement.generator(s2, 0)})
    assert x1dx2.d() == DiffForm(s2, 2, {(0, 1): AlgebraElement.one(s2)})


def test_d_squared_and_leibniz():
    rng = random.Random(0)
    for p, heights in [(2, (1, 1)), (3, (1, 2)), (5, (1, 1)), (3, (1, 1, 1))]:
        s = FlagSpec(p, heights)
        for _ in range(300):
            k = rng.randrange(0, s.n)
            w = random_form(rng, s, k)
            assert not w.d().d()
            l = rng.randrange(0, s.n - k) if s.n > k else 0
            v = random_form(rng, s, l)
            lhs = w.wedge(v).d()
            rhs = w.d().wedge(v) + w.wedge(v.d()).scale((-1) ** k)
            assert lhs == rhs


def test_wedge_alternating_and_contract():
    s = FlagSpec(3, (1, 1))
    dx1 = DiffForm(s, 1, {(0,): AlgebraElement.one(s)})
    assert not dx1.wedge(dx1)
    dx12 = DiffForm(s, 2, {(0, 1): AlgebraElement.one(s)})
    delta = [AlgebraElement.one(s), AlgebraElement.zero(s)]
    assert dx12.contract(delta) == DiffForm(s, 1, {(1,): AlgebraElement.one(s)})


def test_contraction_identities():
    # Leibniz rules for the Lie derivative and contraction over wedge
    rng = random.Random(1)
    for p, heights in [(3, (1, 1)), (2, (1, 1, 1)), (5, (1, 1))]:
        s = FlagSpec(p, heights)
        for _ in range(300):
            k = rng.randrange(0, s.n)
            w = random_form(rng, s, k, terms=1)
            v = random_form(rng, s, rng.randrange(0, s.n - k + 1) if s.n >= k else 0, terms=1)
            delta = random_derivation(rng, s, 1)
            lhs = w.wedge(v).contract(delta)
            rhs = w.contract(delta).wedge(v) + w.wedge(v.contract(delta)).scale((-1) ** k)
            assert lhs == rhs
            # d commutes with the Lie derivative
            assert lie_derivative(delta, w).d() == lie_derivative(delta, w.d())
            # L(w ^ v) = Lw ^ v + w ^ Lv
            assert lie_derivative(delta, w.wedge(v)) == \
                lie_derivative(delta, w).wedge(v) + w.wedge(lie_derivative(delta, v))


def test_lie_derivative_of_closed_form():
    # for delta with delta . d(omega) = 0 and omega(delta) = f, the Lie
    # derivative is df
    s = FlagSpec(3, (1, 1))
    omega = DiffForm(s, 1, {(0,): AlgebraElement.one(s)})   # dx1, closed
    f = AlgebraElement.monomial(s, (1, 1))
    delta = [f, AlgebraElement.zero(s)]                     # f * d_1
    assert lie_derivative(delta, omega) == d_element(f)


def test_evaluate_matches_coordinates():
    rng = random.Random(2)
    s = FlagSpec(3, (1, 1))
    w = random_form(rng, s, 2, terms=2)
    d1 = random_derivation(rng, s)
    d2 = random_derivation(rng, s)
    # omega(d1, d2) = sum_{i<j} f_{ij} (d1_i d2_j - d1_j d2_i)
    expected = AlgebraElement.zero(s)
    for (i, j), f in w.terms.items():
        expected = expected + f * (d1[i] * d2[j] - d1[j] * d2[i])
    assert w.evaluate([d1, d2]) == expected
    # alternating: omega(d1, d1) = 0
    assert not w.evaluate([d1, d1])


@pytest.mark.parametrize("p,heights", [(2, (1,)), (2, (1, 1)), (3, (1,)),
                                       (3, (2,)), (3, (1, 1)), (5, (1, 1)),
                                       (2, (2, 1)), (3, (1, 1, 1)),
                                       (3, (1, 2)), (5, (2,)), (2, (1, 1, 1))])
def test_cohomology_dims_match_dense_oracle(p, heights):
    s = FlagSpec(p, heights)
    block = cohomology_dims(s)
    assert block == dense_twisted_dims(s, [0] * s.n)
    assert block == [math.comb(s.n, k) for k in range(s.n + 1)]


def test_cohomology_basis_not_exact():
    s = FlagSpec(3, (1, 2))
    for k in (1, 2):
        for z in cohomology_basis(s, k):
            assert not z.d()
            assert is_exact_with_potential(z) is None


def test_exactness_examples():
    s = FlagSpec(3, (2,))
    # x dx has potential x^(2)
    xdx = DiffForm(s, 1, {(0,): AlgebraElement.generator(s, 0)})
    phi = is_exact_with_potential(xdx)
    assert phi is not None and phi.d() == xdx
    # the top cocycle is not exact
    top = DiffForm(s, 1, {(0,): AlgebraElement.monomial(s, (8,))})
    assert is_exact_with_potential(top) is None
    # zero form
    assert is_exact_with_potential(DiffForm.zero(s, 1)) is not None


def test_exactness_random_roundtrip():
    rng = random.Random(3)
    for p, heights in [(2, (1, 1)), (3, (1, 2)), (5, (1, 1)), (3, (1, 1, 1))]:
        s = FlagSpec(p, heights)
        for _ in range(20):
            k = rng.randrange(1, s.n + 1)
            phi = random_form(rng, s, k - 1)
            omega = phi.d()
            psi = is_exact_with_potential(omega)
            assert psi is not None and psi.d() == omega


@pytest.mark.parametrize("p,heights", [(2, (2, 1)), (2, (3,)), (2, (1, 1, 2)),
                                       (3, (2, 1)), (3, (1, 1, 1)), (5, (2,)),
                                       (5, (1, 2)), (13, (1, 1))])
def test_homotopy_potential_decides_exactness(p, heights):
    """omega = d(phi) + sum c_I z_I is exact iff every c_I is 0, and then
    the potential integrates omega, with constant term 0 in degree 1."""
    s = FlagSpec(p, heights)
    rng = random.Random(p * 100 + sum(heights))
    for k in range(1, s.n + 1):
        basis = cohomology_basis(s, k)
        for trial in range(8):
            omega = random_form(rng, s, k - 1, terms=3).d()
            cs = [0] * len(basis) if trial % 2 else \
                [rng.randrange(p) for _ in basis]
            for c, z in zip(cs, basis):
                omega = omega + z.scale(c)
            psi = is_exact_with_potential(omega)
            assert (psi is None) == any(cs)
            if psi is not None:
                assert psi.degree == k - 1 and psi.d() == omega
                if k == 1:
                    assert psi.coefficient(()).constant_term() == 0


def test_h_class_examples():
    s = FlagSpec(3, (1, 2))
    # the top 2-cocycle maps to a unit vector
    z12 = DiffForm(s, 2, {(0, 1): AlgebraElement.monomial(s, top_monomial(s, (0, 1)))})
    assert list(h_class(z12)) == [1]
    # exact forms map to zero
    x1dx2 = DiffForm(s, 1, {(1,): AlgebraElement.generator(s, 0)})
    dd = x1dx2.d()
    assert list(h_class(dd)) == [0]
    assert is_exact_with_potential(dd) is not None
    # difference of a closed form and its class representative is exact
    rng = random.Random(4)
    for _ in range(10):
        phi = random_form(rng, s, 1)
        omega = phi.d() + z12.scale(rng.randrange(3))
        rep = h_class_to_form(s, 2, h_class(omega))
        assert is_exact_with_potential(omega - rep) is not None


def test_h_class_refuses_a_form_that_is_not_closed():
    """With or without d omega from the caller, a form that is not closed
    raises, and on a closed form both calls agree."""
    s = FlagSpec(3, (1, 2))
    x1dx2 = DiffForm(s, 1, {(1,): AlgebraElement.generator(s, 0)})
    for args in [(x1dx2,), (x1dx2, x1dx2.d())]:
        with pytest.raises(ValueError):
            h_class(*args)
    rng = random.Random(5)
    for k in (1, 2):
        omega = random_form(rng, s, k - 1).d()
        assert list(h_class(omega, omega.d())) == list(h_class(omega))


def test_decompose_z1_examples():
    s = FlagSpec(3, (1,))
    # phi = dx -> e = (1), witness scalar
    phi = e_vector_form(s, [1])
    e, u = decompose_z1(phi)
    assert list(e) == [1]
    # phi = x^(p-1) dx -> e = (1)  (df = f^(p-1) df mod logarithmic part)
    phi2 = DiffForm(s, 1, {(0,): AlgebraElement.monomial(s, (2,))})
    e2, u2 = decompose_z1(phi2)
    assert list(e2) == [1]
    assert dlog(u2) + e_vector_form(s, e2) == phi2
    # phi = dg for g in m^2 -> e = 0
    s2 = FlagSpec(3, (1, 1))
    g = AlgebraElement.monomial(s2, (1, 1))
    e3, u3 = decompose_z1(d_element(g))
    assert list(e3) == [0, 0]
    assert dlog(u3) == d_element(g)


def test_decompose_z1_random():
    rng = random.Random(5)
    for p, heights in [(2, (2,)), (3, (1, 2)), (5, (1, 1))]:
        s = FlagSpec(p, heights)
        for _ in range(15):
            # random closed 1-form: d(random function) + random top cocycles
            phi = d_element(random_element(rng, s, 3, in_m=False))
            for i in range(s.n):
                c = rng.randrange(p)
                phi = phi + DiffForm(s, 1, {(i,): AlgebraElement(
                    s, {top_monomial(s, (i,)): c})})
            e, u = decompose_z1(phi)
            assert dlog(u) + e_vector_form(s, e) == phi


def test_exp_and_z1_splitting_of_many_terms_at_p13():
    """exp of a 20-term element of m^2 at p = 13, and the Z^1 splitting of
    dg + 3 x1^(12) dx1 + 5 x2^(12) dx2 for another one, within seconds.
    Summing over every composition of p across the terms took 32 s and
    over 30 s on these inputs; the product of one-term series takes
    milliseconds."""
    s = FlagSpec(13, (1, 1))
    f = random_element(random.Random(20), s, 20, in_m2=True)
    g = random_element(random.Random(1), s, 20, in_m2=True)
    phi = d_element(g) + DiffForm(s, 1, {
        (0,): AlgebraElement.monomial(s, (12, 0), 3),
        (1,): AlgebraElement.monomial(s, (0, 12), 5)})
    start = time.perf_counter()
    ef = f.exp_interior()
    e, u = decompose_z1(phi)
    assert time.perf_counter() - start < 5
    assert ef * (-f).exp_interior() == AlgebraElement.one(s)
    assert d_element(ef) == d_element(f).mul_function(ef)
    assert list(e) == [3, 5]
    assert dlog(u) + e_vector_form(s, e) == phi


def test_twisted_acyclic_small_vs_dense():
    """The closed form against the dense oracle at every e in F_p^n, e = 0
    included, and at vectors with entries outside [0, p)."""
    cases = [(2, (1,)), (2, (1, 1)), (2, (2, 1)), (3, (1, 1)), (3, (1, 2)),
             (5, (1, 1))]
    for p, heights in cases:
        s = FlagSpec(p, heights)
        untwisted = [math.comb(s.n, k) for k in range(s.n + 1)]
        for e in itertools.product(range(p), repeat=s.n):
            dims = twisted_cohomology_dims(s, e)
            assert dims == dense_twisted_dims(s, e)
            assert dims == (untwisted if not any(e) else [0] * (s.n + 1))
    s = FlagSpec(3, (1, 1))
    for e, dims in [([-2, 4], [0, 0, 0]), ([3, -6], [1, 2, 1])]:
        assert twisted_cohomology_dims(s, e) == dense_twisted_dims(s, e) == dims


def test_forms_api_rejects_bad_indices():
    """A twisting or u-class vector of the wrong length, and a wedge index
    outside 0..n-1, raise ValueError instead of being cut or ignored."""
    s = FlagSpec(3, (1, 1))
    for e in ([1], [0, 0, 5], [1, 0, 2]):
        with pytest.raises(ValueError):
            twisted_cohomology_dims(s, e)
        with pytest.raises(ValueError):
            e_vector_form(s, e)
    one = AlgebraElement.one(s)
    for I in [(5,), (-1,), (0, 2), (-1, 1)]:
        with pytest.raises(ValueError, match="bad wedge index tuple"):
            DiffForm(s, len(I), {I: one})
    assert render_form(DiffForm(s, 2, {(0, 1): one})) == "dx1^dx2"


def test_render_form():
    s = FlagSpec(3, (1, 1))
    w = DiffForm(s, 2, {(0, 1): AlgebraElement.one(s)})
    assert "dx1^dx2" in render_form(w)
