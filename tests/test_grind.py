import itertools
import random
from collections import Counter

import numpy as np
import pytest

from charpforms import gfp, grind
from charpforms.gfp import modp
from charpforms.grind import (
    BState, Indecomposable, build_type1_object, canonical_pair_label,
    classify_type1_matrices, decompose_rep, descriptor_equal,
    descriptor_weight_catalog, extract_quiver_rep, grind_A_to_B, grind_B_to_A,
    grind_to_primitive, height_spaces, self_paired_divisors,
    synthesize_descriptor_matrices, synthesize_normal_matrices,
)

STD2 = np.array([[0, 1], [-1, 0]])


def blkdiag(*mats):
    n = sum(m.shape[0] for m in mats)
    out = gfp.zeros(n, n)
    at = 0
    for m in mats:
        d = m.shape[0]
        out[at:at + d, at:at + d] = m
        at += d
    return out


def random_pair(rng, n, p):
    """A random nondegenerate antisymmetric b and antisymmetric c on F_p^n."""
    while True:
        b = gfp.random_matrix(rng, n, n, p)
        b = modp(b - b.T, p)
        np.fill_diagonal(b, 0)
        if gfp.rank(b, p) == n:
            break
    c = gfp.random_matrix(rng, n, n, p)
    c = modp(c - c.T, p)
    np.fill_diagonal(c, 0)
    return b, c


def test_build_examples():
    st = build_type1_object(3, (1, 1), STD2, gfp.zeros(2, 2))
    assert len(st.v) == 1 and len(st.w) == 1
    assert list(st.nu) == [(0, 0)]
    st2 = build_type1_object(3, (1, 2), STD2, gfp.zeros(2, 2))
    assert sorted(q for (_, q) in st2.nu) == [0, 1]
    with pytest.raises(ValueError):
        build_type1_object(3, (1, 1), gfp.zeros(2, 2), gfp.zeros(2, 2))


def test_build_flag_is_the_height_flag():
    """The starting flag takes the coordinate spaces as they are, with no
    row reduction: they are the spaces of make_flag, dtype included."""
    rng = random.Random(12)
    for p in gfp.SUPPORTED_PRIMES:
        for _ in range(5):
            heights = tuple(rng.randrange(1, 5) for _ in range(2 * rng.randrange(1, 4)))
            n = len(heights)
            st = build_type1_object(p, heights, blkdiag(*[STD2] * (n // 2)),
                                    gfp.zeros(n, n))
            want = gfp.make_flag(n, "inc", height_spaces(heights), p)
            for flag in (st.v[0].flag, st.w[0].flag):
                assert flag.direction == "inc" and len(flag.spaces) == len(want.spaces)
                for got, space in zip(flag.spaces, want.spaces):
                    assert got.dtype == space.dtype and np.array_equal(got, space)


def test_hand_example_c_zero():
    # heights (1,1), b std, c = 0: one self-paired chain ((1),(1))
    desc = classify_type1_matrices(3, (1, 1), STD2, gfp.zeros(2, 2))
    assert desc == Counter({Indecomposable(False, (1,), (1,), None): 1})


def test_hand_example_c_std():
    # heights (1,1), b std, c = xi * std: one periodic ((1),(1)) with x - xi
    for p, xi in [(3, 1), (3, 2), (5, 3)]:
        c = modp(xi * STD2, p)
        desc = classify_type1_matrices(p, (1, 1), modp(STD2, p), c)
        expected = Counter({Indecomposable(True, (1,), (1,), ((-xi) % p, 1)): 1})
        assert desc == expected


def test_hand_example_heights_12():
    # heights (1,2), b std, c = 0: one open chain ((1),(2))
    desc = classify_type1_matrices(3, (1, 2), STD2, gfp.zeros(2, 2))
    assert desc == Counter({Indecomposable(False, (1,), (2,), None): 1})


def test_orthogonal_sum_additivity():
    p = 3
    b1, c1 = modp(STD2, p), gfp.zeros(2, 2)
    b2, c2 = modp(STD2, p), modp(STD2, p)
    d1 = classify_type1_matrices(p, (1, 1), b1, c1)
    d2 = classify_type1_matrices(p, (1, 1), b2, c2)
    dsum = classify_type1_matrices(p, (1, 1, 1, 1), blkdiag(b1, b2),
                                   blkdiag(c1, c2))
    assert dsum == d1 + d2
    # two copies of the same summand merge into one component but still
    # decompose to the double multiset
    dtwice = classify_type1_matrices(p, (1, 1, 1, 1), blkdiag(b2, b2),
                                     blkdiag(c2, c2))
    assert dtwice == d2 + d2


def test_canonical_pair_label():
    # finite reverse-swap
    assert canonical_pair_label(False, (1, 2), (3, 4)) == \
        canonical_pair_label(False, (4, 3), (2, 1))
    # periodic rotation
    assert canonical_pair_label(True, (1, 2), (3, 4)) == \
        canonical_pair_label(True, (2, 1), (4, 3))
    # periodic swap
    assert canonical_pair_label(True, (1, 2), (3, 4)) == \
        canonical_pair_label(True, (4, 3), (2, 1))
    # fixed point
    assert canonical_pair_label(False, (1,), (1,)) == ((1,), (1,))
    # least period reduction
    assert canonical_pair_label(True, (2, 2), (1, 1)) == \
        canonical_pair_label(True, (2,), (1,))


def test_synthesize_examples():
    # chain ((1),(1)): heights (1,1), a = std, c = 0
    h, a, c = synthesize_normal_matrices(Indecomposable(False, (1,), (1,), None), 3)
    assert h == (1, 1)
    assert a.tolist() == [[0, 1], [2, 0]]
    assert not np.any(c)
    # periodic ((1),(1)) with endo x - 1: c = std
    h2, a2, c2 = synthesize_normal_matrices(
        Indecomposable(True, (1,), (1,), (2, 1)), 3)
    assert h2 == (1, 1)
    assert a2.tolist() == [[0, 1], [2, 0]]
    assert c2.tolist() == [[0, 1], [2, 0]]
    # periodic ((1,2),(1,1)) with endo x - 1: 4 variables
    h3, a3, c3 = synthesize_normal_matrices(
        Indecomposable(True, (1, 2), (1, 1), (2, 1)), 3)
    assert h3 == (1, 2, 1, 1)
    assert a3.shape == (4, 4) and c3.shape == (4, 4)


def round_trip(desc, p):
    heights, a, c = synthesize_descriptor_matrices(desc, p)
    got = classify_type1_matrices(p, heights, a, c)
    assert descriptor_equal(got, desc), (dict(desc), dict(got), heights)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_round_trip_singletons(p):
    cat = descriptor_weight_catalog(p, max_weight=4, max_entry=2, max_endo_deg=2)
    assert cat
    for ind in cat:
        round_trip(Counter({ind: 1}), p)


def test_round_trip_some_pairs():
    p = 3
    cat = descriptor_weight_catalog(p, max_weight=3, max_entry=2, max_endo_deg=1)
    rng = random.Random(0)
    pairs = list(itertools.combinations_with_replacement(range(len(cat)), 2))
    for i, j in rng.sample(pairs, min(25, len(pairs))):
        round_trip(Counter({cat[i]: 1}) + Counter({cat[j]: 1}), p)


def test_descriptor_invariance_under_T_moves():
    rng = random.Random(1)
    p = 3
    for _ in range(15):
        heights = tuple(rng.choice([1, 2]) for _ in range(2 * rng.randrange(1, 3)))
        n = len(heights)
        b, c = random_pair(rng, n, p)
        base = classify_type1_matrices(p, heights, b, c)
        # a T-move: M is the linear part of a group element (row i may use
        # column k only when heights[k] >= heights[i]); N shares its graded
        # blocks and adds strictly height-raising terms
        for _ in range(3):
            while True:
                M = gfp.zeros(n, n)
                for i in range(n):
                    for j in range(n):
                        if heights[j] >= heights[i]:
                            M[i, j] = rng.randrange(p)
                if gfp.is_invertible(M, p):
                    break
            N = M.copy()
            for i in range(n):
                for j in range(n):
                    if heights[j] > heights[i]:
                        N[i, j] = rng.randrange(p)
            b2 = modp(M.T @ b @ M, p)
            c2 = modp(N.T @ c @ N, p)
            assert descriptor_equal(classify_type1_matrices(p, heights, b2, c2),
                                    base)


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_self_paired_divisors_of_hyperbolic_double(p):
    """On the conjugated hyperbolic double M = g^T [[0, I], [-I, 0]] g,
    H = g^-1 diag(h_U, h_U^T) g, the halved divisors of H are those of h_U:
    U = g^-1(first half) is an isotropic H-invariant half by construction.
    h_U repeats a linear divisor and carries a square and an irreducible
    quadratic."""
    rng = random.Random(40 + p)
    lin = (p - 1, 1)                                   # x - 1
    quad = gfp.irreducibles(p, 2)[0]
    pieces = [lin, lin, gfp.ppow(lin, 2, p), quad]
    if p > 2:
        pieces.append(gfp.ppow((p - 2, 1), 2, p))      # (x - 2)^2
    for size in range(1, len(pieces) + 1):             # the last takes all
        divs = sorted(rng.sample(pieces, size))
        h0 = blkdiag(*(gfp.companion(q, p) for q in divs))
        c = gfp.random_invertible(rng, h0.shape[0], p)
        hU = modp(gfp.inverse(c, p) @ h0 @ c, p)
        m = hU.shape[0]
        M0 = gfp.zeros(2 * m, 2 * m)
        M0[:m, m:] = gfp.eye(m)
        M0[m:, :m] = modp(-gfp.eye(m), p)
        g = gfp.random_invertible(rng, 2 * m, p)
        M = modp(g.T @ M0 @ g, p)
        H = modp(gfp.inverse(g, p) @ blkdiag(hU, hU.T) @ g, p)
        assert gfp.elementary_divisors(hU, p) == divs
        assert self_paired_divisors(M, H, p) == divs


def test_self_paired_divisors_checks_its_hypotheses(monkeypatch):
    """Negative controls: M H not alternating, and (with the alternating
    checks bypassed) a divisor of odd multiplicity, both raise."""
    p = 3
    J = np.array([[1, 1], [0, 1]])                     # h_U != h_U^T
    M0 = gfp.zeros(4, 4)
    M0[:2, 2:] = gfp.eye(2)
    M0[2:, :2] = modp(-gfp.eye(2), p)
    with pytest.raises(gfp.CheckFailed, match="h-alternating"):
        self_paired_divisors(M0, blkdiag(J, J), p)
    monkeypatch.setattr(gfp, "is_alternating", lambda M, p: True)
    with pytest.raises(gfp.CheckFailed, match="odd multiplicity"):
        self_paired_divisors(modp(STD2, p), J, p)


def test_grind_preserves_dims_and_rep_axioms():
    rng = random.Random(3)
    for p in (2, 3, 5):
        for _ in range(10):
            heights = tuple(rng.choice([1, 2]) for _ in range(2 * rng.randrange(1, 3)))
            n = len(heights)
            b, c = random_pair(rng, n, p)
            st = build_type1_object(p, heights, b, c)
            prim = grind_to_primitive(st)
            assert prim.total_dims() == (n, n)
            rep = extract_quiver_rep(prim)  # asserts the axioms internally
            desc = decompose_rep(rep)
            # total variable count is preserved in the descriptor
            total = 0
            for ind, mult in desc.items():
                if ind.periodic:
                    total += 2 * len(ind.top) * (len(ind.endo) - 1) * mult
                else:
                    total += 2 * len(ind.top) * mult
            assert total == n


def test_classification_rejects_a_degenerate_constant_part():
    with pytest.raises(ValueError, match="constant part is degenerate"):
        classify_type1_matrices(3, (1, 1), gfp.zeros(2, 2), gfp.zeros(2, 2))


def _b_states(rng, p, count):
    """Every B-state on the way to the primitive limit of count random
    objects at p: heights up to 3 on up to eight variables."""
    out = []
    for _ in range(count):
        heights = tuple(rng.choice([1, 2, 3]) for _ in range(2 * rng.randrange(1, 5)))
        A = build_type1_object(p, heights, *random_pair(rng, len(heights), p))
        while not A.is_primitive():
            out.append(grind_A_to_B(A))
            A = grind_B_to_A(out[-1])
    return out


def _same_state(A1, A2, scale=1):
    """A2 has A1's cells, flags and pairings, and scale times A1's nu."""
    for cells1, cells2 in ((A1.v, A2.v), (A1.w, A2.w)):
        assert cells1.keys() == cells2.keys()
        for x, cell in cells1.items():
            other = cells2[x]
            assert (cell.dim, cell.alpha, cell.partner) == \
                (other.dim, other.alpha, other.partner)
            assert cell.flag.direction == other.flag.direction
            assert all(map(np.array_equal, cell.flag.spaces, other.flag.spaces))
    for pair1, pair2 in ((A1.b, A2.b), (A1.c, A2.c)):
        assert pair1.keys() == pair2.keys()
        assert all(np.array_equal(pair1[x], pair2[x]) for x in pair1)
    assert A1.nu.keys() == A2.nu.keys()
    for key, (wid, r, N) in A1.nu.items():
        assert A2.nu[key][:2] == (wid, r)
        assert np.array_equal(A2.nu[key][2], modp(scale * N, A1.p))


@pytest.mark.parametrize("p", gfp.SUPPORTED_PRIMES)
def test_nu_maps_scale_with_mu(p):
    """Scaling every mu of a B-state by a unit lam scales every new nu by
    lam and leaves the flags and pairings: lam moves no space, and the
    pairings come from the parents.  With c = b both sides grind alike, so
    every nu is the identity."""
    rng = random.Random(70 + p)
    for B in _b_states(rng, p, 6):
        A = grind_B_to_A(B)
        for lam in range(1, p):
            mu = {rid: (sid, modp(lam * N, p)) for rid, (sid, N) in B.mu.items()}
            _same_state(A, grind_B_to_A(BState(B.r, B.s, mu, B.a_state,
                                               B.rid_of, B.sid_of)), lam)
    for _ in range(4):
        heights = tuple(rng.choice([1, 2, 3]) for _ in range(2 * rng.randrange(1, 4)))
        b, _ = random_pair(rng, len(heights), p)
        A = build_type1_object(p, heights, b, b)
        while not A.is_primitive():
            A = grind_B_to_A(grind_A_to_B(A))
            for wid, r, N in A.nu.values():
                assert np.array_equal(N, gfp.eye(N.shape[0]))


def _lift_oracle(flag, t, window, source, p):
    """The lift solved inside span(source) ∩ window.sup, intersected first,
    as the pair step read it before the one lift routine."""
    naive = modp(flag.factor(t).section @ window.section, p)
    S = gfp.subspace_intersection(gfp.row_space(source, p), window.sup, p)
    return gfp.component_in(S, window.sub, naive, p)


@pytest.mark.parametrize("p", gfp.SUPPORTED_PRIMES)
def test_lift_is_honest_and_reads_the_intersected_pairings(p, monkeypatch):
    """Every row of `_lift` lies in span(source) ∩ window.sup and differs
    from the naive lift by a vector of window.sub; the pairings and nu maps
    read through it equal those read through the intersection."""
    calls = []
    lift = grind._lift

    def recording(flag, t, window, source, p):
        out = lift(flag, t, window, source, p)
        calls.append((flag, t, window, source, out))
        return out

    for B in _b_states(random.Random(80 + p), p, 8):
        monkeypatch.setattr(grind, "_lift", recording)
        A = grind_B_to_A(B)
        monkeypatch.setattr(grind, "_lift", _lift_oracle)
        _same_state(A, grind_B_to_A(B))
    assert calls
    for flag, t, window, source, out in calls:
        honest = gfp.subspace_intersection(gfp.row_space(source, p), window.sup, p)
        assert gfp.subspace_leq(gfp.row_space(out, p), honest, p)
        naive = modp(flag.factor(t).section @ window.section, p)
        assert gfp.subspace_leq(gfp.row_space(naive - out, p), window.sub, p)
