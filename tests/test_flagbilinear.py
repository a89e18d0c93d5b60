import random

import numpy as np
import pytest

from charpforms import gfp
from charpforms.flagbilinear import (
    FlaggedBilinear, _stabilizer_counts, admissible_grids,
    brute_force_orbit_partition, canonical_flag_basis, coordinate_flag,
    flag_stabilizer, flagged_from_dims,
    grid_canonical_matrix, grid_fibers, grid_ok, invariants_contact_pair,
    invariants_form_functional, invariants_nqt,
)
from charpforms.gfp import modp


def random_antisym(rng, d, p):
    M = gfp.zeros(d, d)
    for i in range(d):
        for j in range(i + 1, d):
            v = rng.randrange(p)
            M[i, j] = v
            M[j, i] = (-v) % p
    return M


def random_stab(rng, dims, p):
    d = dims[-1]
    level = [next(i for i, top in enumerate(dims) if c < top) for c in range(d)]
    while True:
        A = gfp.zeros(d, d)
        for r in range(d):
            for c in range(d):
                if level[r] <= level[c]:
                    A[r, c] = rng.randrange(p)
        if gfp.is_invertible(A, p):
            return A


def test_grid_examples():
    # zero form -> all zero
    fb = flagged_from_dims(3, [1, 2], gfp.zeros(2, 2))
    assert not np.any(invariants_nqt(fb))
    # standard symplectic over F_3, flag dims (1, 2)
    b = np.array([[0, 1], [2, 0]])
    fb2 = flagged_from_dims(3, [1, 2], b)
    assert invariants_nqt(fb2).tolist() == [[0, 1], [1, 0]]
    # nondegenerate with trivial flag: n_11 = dim V
    fb3 = flagged_from_dims(3, [2], b)
    assert invariants_nqt(fb3).tolist() == [[2]]


def test_same_orbit():
    p = 3
    b = np.array([[0, 1], [2, 0]])
    fb = flagged_from_dims(p, [1, 2], b)
    z = flagged_from_dims(p, [1, 2], gfp.zeros(2, 2))
    assert not np.array_equal(invariants_nqt(fb), invariants_nqt(z))
    rng = random.Random(0)
    for _ in range(30):
        d = rng.randrange(2, 5)
        cut = sorted(rng.sample(range(1, d + 1), rng.randrange(1, d)) + [d])
        dims = sorted(set(cut))
        M = random_antisym(rng, d, p)
        A = random_stab(rng, dims, p)
        fb1 = flagged_from_dims(p, dims, M)
        fb2 = flagged_from_dims(p, dims, modp(A.T @ M @ A, p))
        assert np.array_equal(invariants_nqt(fb1), invariants_nqt(fb2))


def nqt_by_subspace_sums(fb):
    """The defining n_qt = dim W[q, t-1] - dim(W[q, t] + W[q-1, t-1]),
    W[i, j] = V_i ∩ V_j^⊥, by one subspace sum per cell."""
    p, r = fb.p, fb.r
    orth = [gfp.orthogonal_subspace(fb.b, S, p) for S in fb.flag]
    W = {(i, j): gfp.subspace_intersection(fb.flag[i], orth[j], p)
         for i in range(r + 1) for j in range(r + 1)}
    out = gfp.zeros(r, r)
    for q in range(1, r + 1):
        for t in range(1, r + 1):
            total = gfp.subspace_sum(W[q, t], W[q - 1, t - 1], p)
            out[q - 1, t - 1] = W[q, t - 1].shape[0] - total.shape[0]
    return out


@pytest.mark.parametrize("p", gfp.SUPPORTED_PRIMES)
def test_grid_matches_subspace_sum_definition(p):
    """The grid read off dim W[i, j] equals the subspace-sum definition on
    random forms and flags moved by a random invertible g (r <= 4)."""
    rng = random.Random(p)
    for _ in range(25):
        d = rng.randrange(1, 7)
        dims = sorted(rng.sample(range(1, d), min(d - 1, rng.randrange(4)))) + [d]
        g = gfp.random_invertible(rng, d, p)
        flag = tuple(gfp.row_space(S @ g, p) for S in coordinate_flag(dims))
        fb = FlaggedBilinear(p, flag, random_antisym(rng, d, p))
        assert np.array_equal(invariants_nqt(fb), nqt_by_subspace_sums(fb))


def test_grid_constraints_hold():
    rng = random.Random(1)
    for p in (2, 3):
        for _ in range(40):
            d = rng.randrange(1, 5)
            dims = sorted(set(rng.sample(range(1, d + 1), rng.randrange(1, d + 1)) + [d]))
            M = random_antisym(rng, d, p)
            fb = flagged_from_dims(p, dims, M)
            g = invariants_nqt(fb)
            assert grid_ok(g, fb.factor_dims(), nondegenerate=None)
            if fb.nondegenerate():
                assert grid_ok(g, fb.factor_dims(), nondegenerate=True)


def test_canonical_basis_trivial_and_random():
    p = 3
    b = np.array([[0, 1], [2, 0]])
    fb = flagged_from_dims(p, [1, 2], b)
    P = canonical_flag_basis(fb)
    target = grid_canonical_matrix(p, fb.factor_dims(), invariants_nqt(fb))
    assert np.array_equal(modp(P @ fb.b @ P.T, p), target)
    rng = random.Random(2)
    for p in (2, 3, 5):
        for _ in range(25):
            d = rng.randrange(1, 6)
            dims = sorted(set(rng.sample(range(1, d + 1), rng.randrange(1, d + 1)) + [d]))
            M = random_antisym(rng, d, p)
            fb = flagged_from_dims(p, dims, M)
            P = canonical_flag_basis(fb)  # self-verifying
            target = grid_canonical_matrix(p, fb.factor_dims(), invariants_nqt(fb))
            assert np.array_equal(modp(P @ fb.b @ P.T, p), target)
            # flag compatibility: the first (cumulative) rows span V_i
            at = 0
            slot_sizes = []
            g = invariants_nqt(fb)
            fd = fb.factor_dims()
            for i in range(len(fd)):
                slot_sizes.append(fd[i])
            for i, cum in enumerate(np.cumsum(slot_sizes)):
                span = gfp.row_space(P[:cum], p)
                assert np.array_equal(span, fb.flag[i + 1])


def test_canonical_basis_idempotent():
    rng = random.Random(3)
    p = 3
    for _ in range(10):
        d = rng.randrange(2, 5)
        dims = sorted(set(rng.sample(range(1, d + 1), rng.randrange(1, d + 1)) + [d]))
        M = random_antisym(rng, d, p)
        fb = flagged_from_dims(p, dims, M)
        P = canonical_flag_basis(fb)
        canon = modp(P @ fb.b @ P.T, p)
        fb2 = flagged_from_dims(p, dims, canon)
        P2 = canonical_flag_basis(fb2)
        assert np.array_equal(modp(P2 @ fb2.b @ P2.T, p), canon)


def test_bruteforce_examples():
    # F_2^2, flag (1,2): two forms, two orbits
    orbits = brute_force_orbit_partition(2, [1, 2])
    assert len(orbits) == 2
    # trivial flag: orbits are classified by rank
    orbits3 = brute_force_orbit_partition(3, [2])
    assert len(orbits3) == 2  # rank 0 and rank 2
    orbits4 = brute_force_orbit_partition(2, [4])
    assert len(orbits4) == 3  # ranks 0, 2, 4


@pytest.mark.parametrize("p,dims", [(2, [1, 2, 3]), (3, [1, 2]), (2, [1, 3]),
                                    (2, [2, 3]), (3, [1, 1, 2])])
def test_bruteforce_matches_grid_fibers(p, dims):
    orbits = brute_force_orbit_partition(p, dims)
    fibers = grid_fibers(p, dims)
    assert sorted(map(sorted, orbits)) == sorted(map(sorted, fibers.values()))
    fd = [dims[0]] + [b - a for a, b in zip(dims, dims[1:])]
    grids = list(admissible_grids(fd))
    assert len(orbits) == len(grids)


@pytest.mark.parametrize("p, dims", [(3, [3]), (2, [1, 2, 3]), (3, [1, 1, 2]),
                                     (2, [2, 4]), (3, [1, 3]), (2, [0, 2]),
                                     (2, [1, 2, 3, 4])])
def test_stabilizer_counts_match_enumeration(p, dims):
    """The order behind the work guard of brute_force_orbit_partition is the
    number of matrices flag_stabilizer yields."""
    assert _stabilizer_counts(p, dims)[1] == len(list(flag_stabilizer(p, dims)))


def test_functional_invariants_examples():
    p = 3
    # f nonzero on the full factor image: l = 1
    b = np.array([[0, 1], [2, 0]])
    fb = flagged_from_dims(p, [2], b)
    ell, _ = invariants_form_functional(fb, 1, [1, 0])
    assert ell == 1
    # heights-(1,1) running example: l = m_{i0'} = 1, n_11 = 2
    fb2 = flagged_from_dims(p, [2], b)
    inv2 = invariants_form_functional(fb2, 1, [0, 1])
    assert inv2 == (1, ((2,),))


def test_functional_invariants_conjugation():
    rng = random.Random(4)
    p = 3
    for _ in range(25):
        d = 2 * rng.randrange(1, 3)
        dims = sorted(set(rng.sample(range(1, d + 1), rng.randrange(1, d + 1)) + [d]))
        # random nondegenerate antisymmetric form
        while True:
            M = random_antisym(rng, d, p)
            if gfp.rank(M, p) == d:
                break
        fb = flagged_from_dims(p, dims, M)
        k = rng.randrange(1, len(dims) + 1)
        fac = gfp.make_factor(fb.flag[k - 1], fb.flag[k], p)
        if fac.dim == 0:
            continue
        f = np.array([rng.randrange(p) for _ in range(fac.dim)], dtype=np.int64)
        if not np.any(f):
            f[0] = 1
        inv = invariants_form_functional(fb, k, f)
        # conjugate by a stabilizer element: b -> A^T b A, f -> f . (induced A)
        A = random_stab(rng, dims, p)
        M2 = modp(A.T @ M @ A, p)
        fb2 = flagged_from_dims(p, dims, M2)
        # induced action on the factor: new section reps are A^{-1}(old)?
        # f transforms contravariantly: f2(v) = f(class of A v)
        # compute f2 on the canonical section of fb2's factor
        fac2 = gfp.make_factor(fb2.flag[k - 1], fb2.flag[k], p)
        # the map v -> A v sends fb2-classes to fb-classes; evaluate f there
        f2 = []
        for row in fac2.section:
            img = modp(row @ A.T, p)
            coords = fac.project_vectors(img.reshape(1, -1))[0]
            f2.append(int(modp(coords @ f, p)))
        inv2 = invariants_form_functional(fb2, k, np.array(f2, dtype=np.int64))
        assert inv == inv2


def test_contact_pair_examples():
    p = 3
    # V one-dimensional, b = 0, f != 0: k = min q with f(V_q) != 0
    flag = coordinate_flag([1])
    inv = invariants_contact_pair(p, flag, [2], gfp.zeros(1, 1))
    assert inv == (1, ((0,),))
    # heights (1,1,1) contact example: k = 1, n_11 = 2
    flag3 = coordinate_flag([3])
    b = gfp.zeros(3, 3)
    b[0, 1] = 1
    b[1, 0] = 2
    inv2 = invariants_contact_pair(p, flag3, [0, 0, 1], b)
    assert inv2 == (1, ((2,),))
    # scaling f changes nothing
    inv3 = invariants_contact_pair(p, flag3, [0, 0, 2], b)
    assert inv2 == inv3


def test_contact_pair_moves():
    # invariance under b -> b + f ^ g and under the stabilizer
    rng = random.Random(5)
    p = 3
    for _ in range(25):
        d = 3
        dims = sorted(set(rng.sample(range(1, d + 1), rng.randrange(1, d + 1)) + [d]))
        flag = coordinate_flag(dims)
        f = np.array([rng.randrange(p) for _ in range(d)], dtype=np.int64)
        if not np.any(f):
            f[0] = 1
        M = random_antisym(rng, d, p)
        # force the splitting condition V = V^perp + Ker f
        try:
            inv = invariants_contact_pair(p, flag, f, M)
        except ValueError:
            continue
        g = np.array([rng.randrange(p) for _ in range(d)], dtype=np.int64)
        M2 = modp(M + np.outer(f, g) - np.outer(g, f), p)
        inv2 = invariants_contact_pair(p, flag, f, M2)
        assert inv == inv2
        lam = rng.randrange(1, p)
        inv3 = invariants_contact_pair(p, flag, modp(lam * f, p),
                                       modp(lam * M, p))
        assert inv == inv3
        A = random_stab(rng, dims, p)
        inv4 = invariants_contact_pair(p, flag, modp(A.T @ f, p),
                                       modp(A.T @ M @ A, p))
        assert inv == inv4


def test_admissible_grid_counts():
    # trivial flag: grids are n_11 in 0, 2, ..., <= d
    grids = list(admissible_grids([4]))
    assert sorted(g[0, 0] for g in grids) == [0, 2, 4]
    grids_nd = list(admissible_grids([4], nondegenerate=True))
    assert len(grids_nd) == 1 and grids_nd[0][0, 0] == 4


def test_composite_p_rejected():
    # the Fermat inverse behind the grid is wrong for composite moduli
    with pytest.raises(ValueError, match="unsupported prime 4"):
        flagged_from_dims(4, [1, 2], np.array([[0, 1], [3, 0]]))
