import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charpforms import gfp
from charpforms.flagbilinear import coordinate_flag
from charpforms.gfp import (
    CheckFailed, companion, component_in, elementary_divisors, empty_space,
    eye, full_space, inverse, irreducibles, make_factor,
    make_flag, modp, nullspace, orthogonal_flag, orthogonal_subspace, pfactor, pmul,
    preimage_rows, quotient_section, rank, read_flag, row_space, rref,
    solve_rows, subspace_intersection, subspace_leq, subspace_sum,
)


def all_subspaces(n, p):
    """Every subspace of F_p^n as an rref matrix, by incremental extension."""
    vectors = [np.array(v, dtype=np.int64)
               for v in itertools.product(range(p), repeat=n)][1:]
    layer = {(0, empty_space(n).tobytes()): empty_space(n)}
    out = list(layer.values())
    for _ in range(n):
        nxt = {}
        for R in layer.values():
            for v in vectors:
                if solve_rows(R, v, p) is None:
                    S = row_space(np.concatenate([R, v.reshape(1, -1)]), p)
                    nxt[(S.shape[0], S.tobytes())] = S
        layer = nxt
        out.extend(layer.values())
    return out


def test_rref_canonical():
    p = 3
    A = np.array([[1, 2, 0], [2, 4, 0], [0, 0, 1]])
    R, piv = rref(A, p)
    assert piv == [0, 2]
    B = np.array([[2, 1, 0], [0, 0, 2]])
    assert np.array_equal(row_space(A, p), row_space(B, p))


def test_solve_and_inverse():
    rng = random.Random(0)
    for p in (2, 3, 5):
        for _ in range(20):
            A = gfp.random_invertible(rng, 4, p)
            b = gfp.random_matrix(rng, 4, 1, p).reshape(-1)
            x = solve_rows(A.T, b, p)
            assert np.array_equal(modp(A @ x, p), b)
            Ai = inverse(A, p)
            assert np.array_equal(modp(A @ Ai, p), eye(4))


@pytest.mark.parametrize("call, shape", [
    (lambda: inverse([[1, 0]], 5), r"\(1, 2\)"),
    (lambda: inverse([[1], [0]], 5), r"\(2, 1\)"),
    (lambda: solve_rows([[1, 0, 0], [0, 1, 0]], [1, 0, 0, 2], 5), r"length 4 .*\(2, 3\)"),
    (lambda: solve_rows([[1, 0, 0], [0, 1, 0]], [1, 0], 5), r"length 2 .*\(2, 3\)"),
], ids=["inverse-wide", "inverse-tall", "solve-wider", "solve-narrower"])
def test_mismatched_shapes_are_refused(call, shape):
    """A non-square inverse and a vector of the wrong length for solve_rows
    raise ValueError naming the shapes, instead of a wrong answer (a wide
    inverse, extra entries dropped) or an IndexError."""
    with pytest.raises(ValueError, match=shape):
        call()


@pytest.mark.parametrize("m, n", [(0, 3), (3, 0), (0, 0), (2, 3)])
def test_random_matrix_shapes(m, n):
    """An empty random matrix keeps both dimensions, and draws nothing."""
    rng = random.Random(1)
    assert gfp.random_matrix(rng, m, n, 5).shape == (m, n)
    assert gfp.random_invertible(random.Random(1), 0, 5).shape == (0, 0)
    if m * n == 0:
        assert rng.random() == random.Random(1).random()


def test_nullspace():
    p = 3
    Z = nullspace(gfp.zeros(2, 2), p)
    assert Z.shape == (2, 2)  # kernel of the zero map on F_3^2 is everything
    A = np.array([[1, 1, 0], [0, 1, 1]])
    N = nullspace(A, p)
    assert N.shape[0] == 1
    assert not np.any(modp(A @ N[0], p))


def test_subspace_basics():
    p = 2
    e1 = row_space(np.array([[1, 0, 0]]), p)
    e2 = row_space(np.array([[0, 1, 0]]), p)
    e12 = row_space(np.array([[1, 0, 0], [0, 1, 0]]), p)
    assert np.array_equal(subspace_intersection(e1, e12, p), e1)
    assert np.array_equal(subspace_sum(e1, e2, p), e12)


def test_quotient_section_gives_representatives():
    p = 3
    sub = row_space(np.array([[1, 1, 0]]), p)
    sup = full_space(3)
    sec = quotient_section(sub, sup, p)
    assert sec.shape[0] == 2
    assert rank(np.concatenate([sub, sec]), p) == 3
    fac = make_factor(sub, sup, p)
    v = np.array([2, 2, 1])  # = 2*(1,1,0) + (0,0,1)
    coords = fac.project_vectors(v.reshape(1, -1))
    back = modp(coords @ fac.section, p)
    d = solve_rows(sub, modp(v - back[0], p), p)
    assert d is not None


def _matrix_rows(data, p, m_max, n):
    entries = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    rows = data.draw(st.lists(entries, max_size=m_max))
    return np.array(rows, dtype=np.int64).reshape(len(rows), n)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_quotient_section_is_canonical_complement(data):
    """For sub ⊆ sup the section is in rref, vanishes at sub's pivot
    columns and completes sub to sup; a spanning set of sup that is not in
    rref gives the same section."""
    p = data.draw(st.sampled_from(gfp.SUPPORTED_PRIMES))
    n = data.draw(st.integers(1, 6))
    A = _matrix_rows(data, p, 6, n)
    sup = row_space(A, p)
    sub = row_space(modp(_matrix_rows(data, p, 4, sup.shape[0]) @ sup, p), p)
    sec = quotient_section(sub, sup, p)
    assert not np.any(sec[:, rref(sub, p)[1]])
    assert np.array_equal(row_space(sec, p), sec)
    assert sec.shape[0] == sup.shape[0] - sub.shape[0]
    assert np.array_equal(subspace_sum(sub, sec, p), sup)
    assert np.array_equal(quotient_section(sub, A, p), sec)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_project_vectors_match_solve_rows(data):
    """Factor coordinates read at pivots are the section coordinates that
    solving c @ [sub; section] = v gives, for random v in sup."""
    p = data.draw(st.sampled_from(gfp.SUPPORTED_PRIMES))
    n = data.draw(st.integers(1, 6))
    sup = row_space(_matrix_rows(data, p, 6, n), p)
    sub = row_space(modp(_matrix_rows(data, p, 4, sup.shape[0]) @ sup, p), p)
    fac = make_factor(sub, sup, p)
    V = modp(_matrix_rows(data, p, 4, sup.shape[0]) @ sup, p)
    coeffs = solve_rows(np.concatenate([sub, fac.section]), V, p)
    assert np.array_equal(fac.project_vectors(V), coeffs[:, sub.shape[0]:])


def test_orthogonal_examples():
    # nondegenerate on F_3^2, M full -> 0
    p = 3
    b = np.array([[0, 1], [2, 0]])
    assert orthogonal_subspace(b, full_space(2), p).shape[0] == 0
    # zero pairing, any M -> everything
    assert orthogonal_subspace(gfp.zeros(2, 2), row_space(np.array([[1, 0]]), p), p).shape[0] == 2
    # standard symplectic over F_2: span{e1} is isotropic
    p = 2
    b = np.array([[0, 1], [1, 0]])  # alternating over F_2
    e1 = row_space(np.array([[1, 0]]), p)
    assert np.array_equal(orthogonal_subspace(b, e1, p), e1)
    # the orthogonal of 0 is everything, for a rectangular pairing too
    for m, k in ((3, 2), (2, 3), (0, 2), (2, 0)):
        b = gfp.random_matrix(random.Random(m + k), m, k, p)
        assert np.array_equal(orthogonal_subspace(b, empty_space(k), p), full_space(m))


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3)])
def test_orthogonal_identities_exhaustive(p, n):
    # M^perp-perp = M + V^perp, (M+L)^perp = M^perp ∩ L^perp,
    # (M ∩ L^perp)^perp = M^perp + L, for random antisymmetric b.
    rng = random.Random(7)
    B = gfp.random_matrix(rng, n, n, p)
    b = modp(B - B.T, p)
    np.fill_diagonal(b, 0)
    subs = all_subspaces(n, p)
    rad = orthogonal_subspace(b, full_space(n), p)
    orth = {i: orthogonal_subspace(b, M, p) for i, M in enumerate(subs)}
    for i, M in enumerate(subs):
        assert np.array_equal(orthogonal_subspace(b, orth[i], p),
                              subspace_sum(M, rad, p))
    for i, M in enumerate(subs):
        for j, L in enumerate(subs):
            lhs = orthogonal_subspace(b, subspace_sum(M, L, p), p)
            rhs = subspace_intersection(orth[i], orth[j], p)
            assert np.array_equal(lhs, rhs)
            lhs2 = orthogonal_subspace(b, subspace_intersection(M, orth[j], p), p)
            rhs2 = subspace_sum(orth[i], L, p)
            assert np.array_equal(lhs2, rhs2)


def test_orthogonal_identities_exhaustive_f3_dim4():
    p, n = 3, 4
    rng = random.Random(11)
    B = gfp.random_matrix(rng, n, n, p)
    b = modp(B - B.T, p)
    np.fill_diagonal(b, 0)
    subs = all_subspaces(n, p)
    rad = orthogonal_subspace(b, full_space(n), p)
    orth = [orthogonal_subspace(b, M, p) for M in subs]
    for M, MO in zip(subs, orth):
        assert np.array_equal(orthogonal_subspace(b, MO, p),
                              subspace_sum(M, rad, p))
    orth_of = {(M.shape[0], M.tobytes()): MO for M, MO in zip(subs, orth)}
    for M, MO in zip(subs, orth):
        for L, LO in zip(subs, orth):
            S = subspace_sum(M, L, p)
            assert np.array_equal(orth_of[(S.shape[0], S.tobytes())],
                                  subspace_intersection(MO, LO, p))
            I = subspace_intersection(M, LO, p)
            assert np.array_equal(orth_of[(I.shape[0], I.tobytes())],
                                  subspace_sum(MO, L, p))


def test_flag_basics():
    p = 3
    F = make_flag(2, "inc", coordinate_flag([1, 2]), p)
    assert F.factor(0).dim == 1
    assert F.factor(1).dim == 1
    assert F.factor(2).dim == 0
    assert F.labels == (0, 1)
    assert not F.is_trivial()
    T = make_flag(2, "inc", coordinate_flag([2]), p)
    assert T.is_trivial()


def test_transfer_via_pairing_zero_and_nondeg():
    p = 3
    target = make_flag(2, "inc", coordinate_flag([1, 2]), p)
    F = make_flag(2, "inc", coordinate_flag([1, 2]), p)
    # zero pairing: constant flag equal to the whole factor, radical in the
    # top factor
    T = read_flag(orthogonal_flag(gfp.zeros(2, 2), F, p), target, 0)
    assert T.direction == "dec"
    assert all(S.shape[0] == T.ambient_dim for S in T.spaces[:-1])
    assert T.spaces[-2].shape[0] == T.ambient_dim
    # nondegenerate pairing, one-step flag -> one-step flag on the factor
    b = np.array([[0, 1], [2, 0]])
    F1 = make_flag(2, "inc", [empty_space(2), full_space(2)], p)
    big = make_flag(2, "inc", [empty_space(2), full_space(2)], p)
    T1 = read_flag(orthogonal_flag(b, F1, p), big, 0)
    assert T1.spaces[0].shape[0] == 2 and T1.spaces[1].shape[0] == 0
    assert T1.spaces[-2].shape[0] == 0


def test_transfer_via_iso_permutation():
    p = 2
    mu = np.array([[0, 1], [1, 0]])  # swap coordinates
    F = make_flag(2, "inc", [empty_space(2), row_space(np.array([[1, 0]]), p), full_space(2)], p)
    target = make_flag(2, "inc", [empty_space(2), full_space(2)], p)
    T = read_flag(F, target, 0, inverse(mu, p))
    # preimage of span{e1} under the swap is span{e2}
    assert np.array_equal(T.spaces[1], row_space(np.array([[0, 1]]), p))
    # and so is its image, the swap being its own inverse
    assert np.array_equal(read_flag(F, target, 0, mu).spaces[1], T.spaces[1])


# ---------------------------------------------------------------------------
# The subspace operations read off one block elimination, each against the
# composition of several eliminations it replaced.  The oracles intersect by
# null spaces (U ∩ W is the null space of the stacked null spaces of U and
# W), so none of them goes through the block elimination under test.
# ---------------------------------------------------------------------------

def _meet(U, W, p):
    return nullspace(np.concatenate([nullspace(U, p), nullspace(W, p)]), p)


def _image_oracle(fac, S, p):
    """((S ∩ sup) + sub)/sub: intersect, project, row-reduce."""
    return row_space(fac.project_vectors(_meet(S, fac.sup, p)), p)


def _preimage_oracle(M, S, p):
    """{v : M v in S}: the null space of (the null space of S) @ M."""
    return nullspace(modp(nullspace(S, p) @ M, p), p)


def _subspaces(rng, n, p, dims=None):
    """The zero space, the whole space and the spans of k random vectors for
    k in dims (by default 1 to n - 1) and for k = n + 1, as rref matrices."""
    out = [empty_space(n), full_space(n)]
    for k in range(1, n) if dims is None else dims:
        out.append(row_space(gfp.random_matrix(rng, k, n, p), p))
    out.append(row_space(gfp.random_matrix(rng, n + 1, n, p), p))
    return out


def _random_flag(rng, n, direction, p):
    """A flag of 2 to 4 random nested spaces from 0 to the whole space."""
    basis = gfp.random_invertible(rng, n, p)
    dims = sorted(rng.randrange(n + 1) for _ in range(rng.randrange(3)))
    spaces = [basis[:d] for d in [0] + dims + [n]]
    return make_flag(n, direction, spaces if direction == "inc" else spaces[::-1], p)


def _factors(rng, n, p, dims=None):
    """sub ⊆ sup pairs, including zero factors (sub = sup) and the full one
    (0 ⊆ F_p^n)."""
    out = [(empty_space(n), full_space(n)), (full_space(n), full_space(n)),
           (empty_space(n), empty_space(n))]
    for sup in _subspaces(rng, n, p, dims):
        sub = row_space(modp(gfp.random_matrix(rng, rng.randrange(4), sup.shape[0], p)
                             @ sup, p), p)
        out += [(sub, sup), (sup, sup)]
    return [make_factor(sub, sup, p) for sub, sup in out]


@pytest.mark.parametrize("p", gfp.SUPPORTED_PRIMES)
def test_block_elimination_ops_match_compositions(p):
    """subspace_intersection, subspace_leq, Factor.image_of, preimage_rows
    and the Q-coordinate flag of a contact pair equal the rref that the old
    compositions gave, on empty and full spaces, zero and full factors and
    singular and rectangular maps.  At n = 12 and 17, with fewer subspaces,
    the block eliminations pass SMALL_ENTRIES and take the int16 kernel."""
    rng = random.Random(100 + p)
    for n in (1, 2, 3, 4, 5, 12, 17):
        dims = None if n <= 5 else (n // 2, n - 2)
        subs = _subspaces(rng, n, p, dims)
        for U in subs:
            for W in subs:
                meet = _meet(U, W, p)
                assert np.array_equal(subspace_intersection(U, W, p), meet)
                assert subspace_leq(U, W, p) == np.array_equal(meet, U)
        for fac in _factors(rng, n, p, dims):
            assert np.array_equal(fac.section, quotient_section(fac.sub, fac.sup, p))
            for S in subs:
                img = fac.image_of(S)
                assert img.shape[1] == fac.dim
                assert np.array_equal(img, _image_oracle(fac, S, p))
        for m in range(0, 6):
            maps = [gfp.zeros(m, n), gfp.random_matrix(rng, m, n, p),
                    modp(gfp.random_matrix(rng, m, 1, p)
                         @ gfp.random_matrix(rng, 1, n, p), p)]
            for M in maps:
                for S in _subspaces(rng, m, p) if m else [empty_space(0)]:
                    assert np.array_equal(preimage_rows(M, S, p),
                                          _preimage_oracle(M, S, p))
        for Q in subs[2:] + [full_space(n)]:
            for S in subs:
                coords = row_space(solve_rows(Q, _meet(S, Q, p), p), p)
                assert np.array_equal(preimage_rows(Q.T, S, p), coords)


@pytest.mark.parametrize("p", gfp.SUPPORTED_PRIMES)
def test_component_in_matches_solve_rows(p):
    """component_in(S, sub, V) equals the S-part read off solve_rows against
    [S; sub], lies in S and differs from V by rows of sub, for S and sub 0,
    everything or random; a row outside S + sub fails its check."""
    rng = random.Random(400 + p)
    for n in range(1, 6):
        subs = _subspaces(rng, n, p)
        for S in subs:
            for sub in subs:
                both = np.concatenate([S, sub])
                V = modp(gfp.random_matrix(rng, 3, both.shape[0], p) @ both, p)
                got = component_in(S, sub, V, p)
                coeffs = solve_rows(both, V, p)
                assert np.array_equal(got, modp(coeffs[:, :S.shape[0]] @ S, p))
                assert solve_rows(S, got, p) is not None
                assert solve_rows(sub, modp(V - got, p), p) is not None
                span = row_space(both, p)
                if span.shape[0] < n:
                    outside = next(v for v in eye(n) if solve_rows(span, v, p) is None)
                    with pytest.raises(CheckFailed):
                        component_in(S, sub, np.vstack([V, outside]), p)


@pytest.mark.parametrize("p", gfp.SUPPORTED_PRIMES)
def test_transfer_via_iso_matches_move_then_restrict(p):
    """read_flag(F, target, k, mu) equals F moved by mu, then read in
    Φ_k(target) space by space, and read_flag with inverse(mu) equals the
    preimages under mu read there, for both directions of F and every
    nonzero factor of the target; without mu it reads F unmoved."""
    rng = random.Random(200 + p)
    for n in range(1, 6):
        for _ in range(10):
            mu = gfp.random_invertible(rng, n, p)
            target = _random_flag(rng, n, rng.choice(["inc", "dec"]), p)
            F = _random_flag(rng, n, rng.choice(["inc", "dec"]), p)
            moves = [(inverse(mu, p), lambda S: _preimage_oracle(mu, S, p)),
                     (mu, lambda S: row_space(modp(S @ mu.T, p), p)),
                     (None, lambda S: S)]
            for by, move in moves:
                for k in target.labels:
                    fac = target.factor(k)
                    T = read_flag(F, target, k, by)
                    assert T.direction == F.direction and T.ambient_dim == fac.dim
                    want = [_image_oracle(fac, move(S), p) for S in F.spaces]
                    got = T.spaces
                    assert len(got) == len(want)
                    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("p", gfp.SUPPORTED_PRIMES)
def test_reading_E_into_a_factor_gives_E(p):
    """E (everything for an increasing flag, 0 for a decreasing one) read
    into a factor by read_flag, unmoved or moved by mu or inverse(mu), is
    E of the factor: what lets the flag constructors append E instead of
    reading it.  E is read here as the space below the top of a flag that
    repeats it."""
    rng = random.Random(300 + p)
    for n in range(1, 6):
        for _ in range(5):
            mu = gfp.random_invertible(rng, n, p)
            target = _random_flag(rng, n, rng.choice(["inc", "dec"]), p)
            for direction in ("inc", "dec"):
                F = _random_flag(rng, n, direction, p)
                G = make_flag(n, direction, F.spaces, p)
                assert np.array_equal(G.spaces[-2], F.spaces[-1])
                for k in target.labels:
                    d = target.factor(k).dim
                    E = full_space(d) if direction == "inc" else empty_space(d)
                    for by in (None, mu, inverse(mu, p)):
                        T = read_flag(G, target, k, by)
                        assert np.array_equal(T.spaces[-2], E)
                        assert np.array_equal(T.spaces[-1], E)


def test_poly_factor_and_companion():
    p = 2
    f = (1, 1, 1)  # x^2 + x + 1, irreducible over F_2
    assert pfactor(f, p) == {f: 1}
    C = companion(f, p)
    assert np.array_equal(C, np.array([[0, 1], [1, 1]]))
    g = pmul(f, (1, 1), p)
    assert pfactor(g, p) == {f: 1, (1, 1): 1}
    assert len(irreducibles(3, 2)) == 3


def test_elementary_divisors_identity_and_companion():
    p = 3
    assert elementary_divisors(eye(2), p) == [(2, 1), (2, 1)]  # x - 1 twice
    C = companion((1, 1, 1), 2)
    assert elementary_divisors(C, 2) == [(1, 1, 1)]
    assert elementary_divisors(eye(0), p) == []


def test_elementary_divisors_conjugation_invariant():
    rng = random.Random(3)
    for p in (2, 3, 5):
        for _ in range(15):
            n = rng.randrange(1, 5)
            h = gfp.random_invertible(rng, n, p)
            g = gfp.random_invertible(rng, n, p)
            hc = modp(g @ h @ inverse(g, p), p)
            divs = elementary_divisors(h, p)
            assert divs == elementary_divisors(hc, p)
            assert sum(gfp.pdeg(f) for f in divs) == n


def block_companion(divisors, p):
    """Block-diagonal matrix of the companion matrices of the divisors."""
    blocks = [companion(f, p) for f in divisors]
    n = sum(B.shape[0] for B in blocks)
    D = gfp.zeros(n, n)
    at = 0
    for B in blocks:
        d = B.shape[0]
        D[at:at + d, at:at + d] = B
        at += d
    return D


def test_elementary_divisors_block_companion_round_trip():
    """Companion blocks of prime powers, repeated and conjugated, give back
    their own multiset."""
    rng = random.Random(4)
    for p in (2, 3, 5, 13):
        powers = [gfp.ppow(q, e, p) for d in (1, 2) for q in irreducibles(p, d)
                  if q[0] for e in (1, 2, 3) if d * e <= 4]
        for _ in range(12):
            divisors = []
            while True:
                f = rng.choice(powers)
                if sum(map(gfp.pdeg, divisors)) + gfp.pdeg(f) > 6:
                    break
                divisors += [f] * rng.choice((1, 1, 2))
            if not divisors:
                continue
            D = block_companion(divisors, p)
            g = gfp.random_invertible(rng, D.shape[0], p)
            h = modp(g @ D @ inverse(g, p), p)
            assert elementary_divisors(h, p) == sorted(divisors)


def test_elementary_divisors_distinct_char_polys_differ():
    p = 3
    h1 = companion((1, 0, 1), p)   # x^2 + 1
    h2 = companion((2, 0, 1), p)   # x^2 + 2
    assert elementary_divisors(h1, p) != elementary_divisors(h2, p)


def test_pfactor_large_irreducible():
    """The split stops at half the degree: an irreducible quintic at p = 13
    has a trivial gcd with x^(13^d) - x for d = 1, 2, so it factors as
    itself without trying any irreducible."""
    f = (7, 5, 9, 3, 8, 1)
    assert pfactor(f, 13) == {f: 1}
    g = pmul(pmul(f, (1, 1), 13), (1, 1), 13)
    assert pfactor(g, 13) == {(1, 1): 2, f: 1}


def test_det():
    """A square matrix is invertible exactly when its integer determinant
    is nonzero mod p."""
    sympy = pytest.importorskip("sympy")
    p = 5
    rng = random.Random(9)
    seen = set()
    for _ in range(30):
        A = gfp.random_matrix(rng, 3, 3, p)
        invertible = sympy.Matrix(A.tolist()).det() % p != 0
        assert gfp.is_invertible(A, p) == invertible
        seen.add(invertible)
    assert seen == {True, False}


@pytest.mark.parametrize("p", (2, 3, 5))
def test_pfactor_every_monic_up_to_degree_4(p):
    """Every monic f of degree <= 4 is the product of the q^e of
    pfactor(f), and every q is a monic irreducible."""
    for d in range(5):
        for coeffs in itertools.product(range(p), repeat=d):
            f = coeffs + (1,)
            prod = (1,)
            for q, e in pfactor(f, p).items():
                assert q in irreducibles(p, gfp.pdeg(q)) and e >= 1, (f, q)
                prod = pmul(prod, gfp.ppow(q, e, p), p)
            assert prod == f


def test_pfactor_root_free_quartics_reach_distinct_degrees(monkeypatch):
    """(x^2+1)^2 and (x^2+1)(x^2+x+2) at p = 3 have no root, yet are
    reducible: they are split by the distinct-degree loop, not read as
    irreducible as a root-free rest of degree <= 3 is."""
    p = 3
    a, b = (1, 0, 1), (2, 1, 1)
    assert a in irreducibles(p, 2) and b in irreducibles(p, 2)
    calls = []
    powmod = gfp._powmod
    monkeypatch.setattr(gfp, "_powmod", lambda *args: calls.append(args) or powmod(*args))
    # the last one is root-free once x + 1 is peeled off
    for f, expected in [(pmul(a, a, p), {a: 2}), (pmul(a, b, p), {a: 1, b: 1}),
                        (pmul(pmul(a, b, p), (1, 1), p), {(1, 1): 1, a: 1, b: 1})]:
        calls.clear()
        assert pfactor(f, p) == expected
        assert calls, f
    for f in (pmul(a, a, p), pmul(a, b, p)):
        assert all(sum(c * x ** i for i, c in enumerate(f)) % p for x in range(p))
    # a root-free cubic and linear factors alone need no powers of x
    cubic = (1, 2, 0, 1)
    calls.clear()
    assert pfactor(cubic, p) == {cubic: 1}
    assert pfactor(pmul(cubic, (2, 1), p), p) == {(2, 1): 1, cubic: 1}
    assert pfactor(gfp.ppow((1, 1), 3, p), p) == {(1, 1): 3}
    assert not calls


def _flags_with_repeats(rng, n, p):
    """Flags in both directions whose spaces repeat: equal neighbours (zero
    factors) at the start, inside and next to E."""
    for direction in ("inc", "dec"):
        basis = gfp.random_invertible(rng, n, p)
        for dims in ([0, 0, n], [0, 1, 1, n], [1, 1, 2, 2, n], [0, n, n],
                     sorted(rng.randrange(n + 1) for _ in range(4))):
            spaces = [basis[:d] for d in dims]
            yield make_flag(n, direction, spaces if direction == "inc" else spaces[::-1], p)


@pytest.mark.parametrize("p", gfp.SUPPORTED_PRIMES)
def test_flag_labels_and_lazy_factors(p, monkeypatch):
    """`labels` reads the nonzero factors off row counts without building
    any factor, and `factor(q)` builds make_factor(*bounds(q)) once."""
    rng = random.Random(700 + p)
    built = []
    make = gfp.make_factor
    monkeypatch.setattr(gfp, "make_factor", lambda *args: built.append(args) or make(*args))
    flags = [F for n in range(1, 6) for F in _flags_with_repeats(rng, n, p)]
    flags += [orthogonal_flag(gfp.random_invertible(rng, F.ambient_dim, p), F, p)
              for F in flags]
    for F in flags:
        built.clear()
        expected = [make(*F.bounds(q), p) for q in range(len(F.spaces) - 1)]
        assert F.labels == tuple(q for q, fac in enumerate(expected) if fac.dim > 0)
        assert not built
        for q, ref in enumerate(expected):
            fac = F.factor(q)
            for name in ("sub", "sup", "section"):
                assert np.array_equal(getattr(fac, name), getattr(ref, name))
            assert fac.dim == ref.dim and F.factor(q) is fac
        assert len(built) == len(expected)


@pytest.mark.parametrize("p", gfp.SUPPORTED_PRIMES)
def test_pivots_match_per_row_scan(p):
    rng = random.Random(800 + p)
    for n in range(0, 7):
        assert gfp._pivots(gfp.zeros(0, n)) == []
        for _ in range(5):
            R = row_space(gfp.random_matrix(rng, rng.randrange(n + 2), n, p), p)
            pivots = gfp._pivots(R)
            assert pivots == [int(np.flatnonzero(row)[0]) for row in R]
            assert pivots == rref(R, p)[1]
            assert all(type(c) is int for c in pivots)
