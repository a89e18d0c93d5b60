import random

import numpy as np
import pytest

from charpforms.algebra import AlgebraElement, FlagSpec, random_element
from charpforms.forms import d_element, h_class
from charpforms.groups import (
    Automorphism, Derivation, from_derivation, identity_automorphism,
    linear_automorphism, random_in, transport_witness,
)
from tests.test_forms import random_form


def test_identity_and_validation():
    s = FlagSpec(3, (1, 1))
    sigma = identity_automorphism(s)
    assert sigma.is_identity()
    assert sigma.in_Gprime()
    assert all(sigma.in_G_j(j) for j in range(1, s.top_degree + 1))
    # escaping divided powers are rejected: x1 -> x1^(3) needs (x^(3))^(3)
    s2 = FlagSpec(3, (2,))
    with pytest.raises(ValueError):
        Automorphism(s2, [AlgebraElement.monomial(s2, (3,))])
    # singular Jacobian rejected
    with pytest.raises(ValueError):
        Automorphism(s, [AlgebraElement.generator(s, 0),
                         AlgebraElement.generator(s, 0)])


def test_example_membership():
    # images (x1 + x1x2, x2): valid, in G'_1, Jacobian det = 1 + x2
    s = FlagSpec(3, (1, 1))
    y1 = AlgebraElement.generator(s, 0) + AlgebraElement.monomial(s, (1, 1))
    y2 = AlgebraElement.generator(s, 1)
    sigma = Automorphism(s, [y1, y2])
    assert sigma.in_Gprime()
    assert sigma.in_G_j(1)
    assert not sigma.in_G_j(2)


def test_apply_is_ring_homomorphism():
    rng = random.Random(0)
    for p, heights in [(2, (1, 1)), (3, (1, 2)), (5, (1, 1))]:
        s = FlagSpec(p, heights)
        for _ in range(12):
            sigma = random_in(rng, s, "G")
            f = random_element(rng, s, 2, in_m=False)
            g = random_element(rng, s, 2, in_m=False)
            assert sigma.apply_to_element(f * g) == \
                sigma.apply_to_element(f) * sigma.apply_to_element(g)
            assert sigma.apply_to_element(f + g) == \
                sigma.apply_to_element(f) + sigma.apply_to_element(g)


@pytest.mark.parametrize("p, heights", [(2, (1, 2, 1, 2)), (3, (1, 2, 1, 1)),
                                        (5, (1, 1, 1, 1)), (13, (1, 1, 1, 1))])
def test_apply_to_element_matches_direct_products(p, heights):
    # sigma(x^(a)) is built from cached prefixes; it must equal
    # y_1^(a_1) * ... * y_n^(a_n) multiplied left to right, term order too
    s = FlagSpec(p, heights)
    rng = random.Random(p)
    for _ in range(1 if p == 13 else 4):      # dense images at p = 13
        sigma = random_in(rng, s, "G")
        monos = [tuple(rng.randrange(cap) for cap in s.caps) for _ in range(6)]
        monos += [m[:k] + (0,) * (s.n - k) for m in monos[:2] for k in range(s.n)]
        rng.shuffle(monos)
        for mono in monos:
            direct = AlgebraElement.one(s)
            for i, a in enumerate(mono):
                if a:
                    direct = direct * sigma.images[i].divided_power(a)
            got = sigma.apply_to_element(AlgebraElement.monomial(s, mono, 1))
            assert list(got.terms.items()) == list(direct.terms.items())


def test_apply_preserves_divided_powers():
    rng = random.Random(1)
    s = FlagSpec(3, (1, 2))
    for _ in range(10):
        sigma = random_in(rng, s, "G")
        f = random_element(rng, s, 2, in_m2=True)
        for r in (2, 3):
            assert sigma.apply_to_element(f.divided_power(r)) == \
                sigma.apply_to_element(f).divided_power(r)


def test_compose_invert():
    rng = random.Random(2)
    for p, heights in [(3, (1, 1)), (2, (2,)), (5, (1, 1)), (3, (1, 2))]:
        s = FlagSpec(p, heights)
        for _ in range(8):
            sigma = random_in(rng, s, "G")
            tau = random_in(rng, s, "G")
            rho = random_in(rng, s, "Gprime")
            # associativity
            lhs = sigma.compose(tau).compose(rho)
            rhs = sigma.compose(tau.compose(rho))
            assert lhs.images == rhs.images
            # inverse
            inv = sigma.invert()
            assert sigma.compose(inv).is_identity()
            assert inv.compose(sigma).is_identity()


@pytest.mark.parametrize("p, heights", [(3, (2,)), (13, (1,)), (2, (1, 2)),
                                        (5, (1, 1)), (3, (1, 2, 1)),
                                        (5, (1, 1, 1))])
def test_invert_round_trip(p, heights):
    """sigma^-1 undoes sigma on both sides and on random elements, and
    inverting twice gives sigma back, for n = 1, 2, 3."""
    rng = random.Random(p * 10 + len(heights))
    s = FlagSpec(p, heights)
    for group in ("G", "Gprime", "G"):
        sigma = random_in(rng, s, group)
        inv = sigma.invert()
        assert sigma.compose(inv).is_identity()
        assert inv.compose(sigma).is_identity()
        assert inv.invert().images == sigma.images
        f = random_element(rng, s, 4, in_m=False)
        assert inv.apply_to_element(sigma.apply_to_element(f)) == f


def test_apply_to_form_commutes_with_d():
    rng = random.Random(3)
    for p, heights in [(3, (1, 1)), (2, (1, 1)), (5, (1, 1)), (3, (2, 1))]:
        s = FlagSpec(p, heights)
        for _ in range(8):
            sigma = random_in(rng, s, "G")
            f = random_element(rng, s, 2, in_m=False)
            assert sigma.apply_to_form(d_element(f)) == \
                d_element(sigma.apply_to_element(f))
            k = rng.randrange(0, s.n + 1)
            w = random_form(rng, s, k, terms=1)
            assert sigma.apply_to_form(w.d()) == sigma.apply_to_form(w).d()
            v = random_form(rng, s, s.n - k, terms=1)
            assert sigma.apply_to_form(w.wedge(v)) == \
                sigma.apply_to_form(w).wedge(sigma.apply_to_form(v))


def test_gprime_fixes_h_classes():
    rng = random.Random(4)
    for p, heights in [(3, (1, 1)), (2, (1, 2)), (5, (1, 1)), (3, (2, 1))]:
        s = FlagSpec(p, heights)
        for _ in range(10):
            sigma = random_in(rng, s, "Gprime")
            k = rng.randrange(1, s.n + 1)
            phi = random_form(rng, s, k - 1, terms=1)
            from charpforms.forms import cohomology_basis
            omega = phi.d()
            for z in cohomology_basis(s, k):
                omega = omega + z.scale(rng.randrange(p))
            assert list(h_class(sigma.apply_to_form(omega))) == list(h_class(omega))


def test_random_in_membership():
    rng = random.Random(5)
    s = FlagSpec(3, (1, 2))
    for _ in range(10):
        g = random_in(rng, s, "G")
        # flag preservation: linear part lower-blocked by heights
        A = g.linear_matrix()
        for i in range(s.n):
            for j in range(s.n):
                if s.heights[j] < s.heights[i]:
                    assert A[i, j] == 0
        gp = random_in(rng, s, "Gprime")
        assert gp.in_Gprime()
        g2 = random_in(rng, s, "Gprime_j", j=2)
        assert g2.in_Gprime() and g2.in_G_j(2)


def test_two_seeds_differ():
    s = FlagSpec(3, (1, 1))
    a = random_in(random.Random(10), s, "G")
    b = random_in(random.Random(11), s, "G")
    assert a.images != b.images


def test_G_j_normality_spot_check():
    # sigma tau sigma^{-1} stays in G_j for tau in G_j, sigma in G
    rng = random.Random(12)
    s = FlagSpec(3, (2, 1))
    for _ in range(6):
        sigma = random_in(rng, s, "G")
        j = rng.randrange(1, 3)
        tau = random_in(rng, s, "Gprime_j", j=j)
        conj = sigma.compose(tau).compose(sigma.invert())
        assert conj.in_G_j(j)


def test_from_derivation():
    s = FlagSpec(3, (1, 1))
    # delta = 0 -> identity
    zero = Derivation(s, [AlgebraElement.zero(s)] * 2)
    assert from_derivation(zero).is_identity()
    # delta = x1 x2 d_1 -> x1 + x1x2
    delta = Derivation(s, [AlgebraElement.monomial(s, (1, 1)), AlgebraElement.zero(s)])
    sigma = from_derivation(delta)
    assert sigma.images[0] == AlgebraElement.generator(s, 0) + \
        AlgebraElement.monomial(s, (1, 1))
    # out-of-g' rejected
    bad = Derivation(s, [AlgebraElement.generator(s, 0), AlgebraElement.zero(s)])
    with pytest.raises(ValueError):
        from_derivation(bad)


def test_first_order_agreement():
    # (sigma - id - delta)(f) has filtration >= j + deg(f) + 1
    rng = random.Random(6)
    for p, heights in [(3, (2, 1)), (2, (2, 2)), (5, (1, 1))]:
        s = FlagSpec(p, heights)
        for _ in range(8):
            j = rng.randrange(1, 3)
            coeffs = []
            for i in range(s.n):
                c = random_element(rng, s, 1, in_m2=True)
                while c and c.filtration_degree() < j + 1:
                    c = random_element(rng, s, 1, in_m2=True)
                coeffs.append(c)
            delta = Derivation(s, coeffs)
            if not delta.in_gprime(j):
                continue
            sigma = from_derivation(delta, j)
            f = random_element(rng, s, 2, in_m=False)
            l = f.filtration_degree()
            if l is None:
                continue
            err = sigma.apply_to_element(f) - f - delta.apply(f)
            if err:
                assert err.filtration_degree() >= j + l + 1


def test_transport_u_class():
    s = FlagSpec(3, (1, 1))
    rng = random.Random(7)
    # G' fixes u-classes
    for _ in range(10):
        sigma = random_in(rng, s, "Gprime")
        e = [rng.randrange(3), rng.randrange(3)]
        assert list(transport_witness(sigma, e)[0]) == [c % 3 for c in e]
    # a permutation of equal-height variables permutes e
    P = linear_automorphism(s, np.array([[0, 1], [1, 0]]))
    assert list(transport_witness(P, [1, 0])[0]) == [0, 1]
    # zero maps to zero
    sigma = random_in(rng, s, "G")
    assert list(transport_witness(sigma, [0, 0])[0]) == [0, 0]


def test_transport_height_filtration():
    # the first height level with a nonzero component is preserved
    rng = random.Random(8)
    s = FlagSpec(3, (1, 2, 2))
    for _ in range(12):
        sigma = random_in(rng, s, "G")
        e = [0, rng.randrange(1, 3), rng.randrange(3)]
        e2 = transport_witness(sigma, e)[0]
        def level(vec):
            ks = [s.heights[i] for i, c in enumerate(vec) if int(c) % 3]
            return min(ks) if ks else None
        assert level(e) == level(e2)


def test_transport_witness_consistency():
    # sigma(exp(e)) = lam * w * exp(e'): check by differentiating both sides
    rng = random.Random(9)
    s = FlagSpec(3, (1, 1))
    from charpforms.forms import dlog, e_vector_form
    for _ in range(8):
        sigma = random_in(rng, s, "G")
        e = [rng.randrange(3), rng.randrange(3)]
        e2, w, lam = transport_witness(sigma, e)
        g = AlgebraElement.zero(s)
        for i, c in enumerate(e):
            g = g + sigma.images[i].scale(c)
        if not g:
            continue
        assert d_element(g) == dlog(w) + e_vector_form(s, e2)
        assert (lam * w.constant_term()) % 3 == 1
