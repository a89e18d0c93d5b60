"""Wider-range stress for the grinding pipeline: longer labels, genuine
period-2 cycles, height 3, and larger primes."""
import random
from collections import Counter

import numpy as np

from charpforms import gfp
from charpforms.classify import apply_to_candidate, invariants, normal_shape
from charpforms.gfp import modp
from charpforms.grind import (Indecomposable, classify_type1_matrices,
                              descriptor_equal, synthesize_descriptor_matrices)
from charpforms.groups import random_in


def round_trip(desc, p):
    heights, a, c = synthesize_descriptor_matrices(desc, p)
    got = classify_type1_matrices(p, heights, a, c)
    assert descriptor_equal(got, desc), (dict(desc), dict(got))


def test_period_two_cycles():
    # genuinely period-2 labels with degree-1 and degree-2 endomorphisms
    for p in (2, 3, 5):
        units = [u for u in range(1, p)]
        for top, bottom in [((1, 2), (1, 1)), ((2, 1), (2, 2)), ((1, 2), (2, 1))]:
            from charpforms.grind import canonical_pair_label
            lab = canonical_pair_label(True, top, bottom)
            for u in units:
                ind = Indecomposable(True, *lab, ((-u) % p, 1))
                round_trip(Counter({ind: 1}), p)
        # an irreducible quadratic endomorphism on a period-2 label
        quad = next(q for q in gfp.irreducibles(p, 2) if q[0] != 0)
        lab = canonical_pair_label(True, (1, 2), (1, 1))
        round_trip(Counter({Indecomposable(True, *lab, quad): 1}), p)


def test_longer_chains():
    from charpforms.grind import canonical_pair_label
    for p in (2, 3):
        for top, bottom in [((1, 1, 1), (1, 1, 1)), ((1, 2, 1), (1, 1, 2)),
                            ((2, 1, 2), (2, 1, 2))]:
            lab = canonical_pair_label(False, top, bottom)
            round_trip(Counter({Indecomposable(False, *lab, None): 1}), p)


def test_height_three():
    from charpforms.grind import canonical_pair_label
    p = 2
    for top, bottom in [((3,), (3,)), ((1,), (3,)), ((3, 1), (2, 2))]:
        lab = canonical_pair_label(False, top, bottom)
        round_trip(Counter({Indecomposable(False, *lab, None): 1}), p)
    lab = canonical_pair_label(True, (3,), (1,))
    round_trip(Counter({Indecomposable(True, *lab, (1, 1)): 1}), p)


def test_larger_primes_smoke():
    for p in (7, 11, 13):
        from charpforms.grind import canonical_pair_label
        lab = canonical_pair_label(True, (1,), (1,))
        for u in (1, p - 1, 3 % p):
            ind = Indecomposable(True, *lab, ((-u) % p, 1))
            round_trip(Counter({ind: 1}), p)
        round_trip(Counter({Indecomposable(False, (1,), (2,), None): 1}), p)


def test_big_random_pairs_invariance():
    # T-move invariance fuzz at sizes above the acceptance catalog
    rng = random.Random(0)
    p = 3
    for trial in range(8):
        n = 2 * rng.randrange(1, 4)
        heights = tuple(sorted(rng.choice([1, 2, 3]) for _ in range(n)))
        while True:
            b = gfp.random_matrix(rng, n, n, p)
            b = modp(b - b.T, p)
            np.fill_diagonal(b, 0)
            if gfp.rank(b, p) == n:
                break
        c = gfp.random_matrix(rng, n, n, p)
        c = modp(c - c.T, p)
        np.fill_diagonal(c, 0)
        base = classify_type1_matrices(p, heights, b, c)
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
        moved = classify_type1_matrices(p, heights, modp(M.T @ b @ M, p),
                                        modp(N.T @ c @ N, p))
        assert descriptor_equal(base, moved)
        # variable count conservation
        total = 0
        for ind, mult in base.items():
            d = len(ind.endo) - 1 if ind.periodic else 1
            total += 2 * len(ind.top) * d * mult
        assert total == n


def test_form_level_height_three():
    # a height-3 type-1 form survives the full form-level pipeline
    rng = random.Random(1)
    from charpforms.algebra import FlagSpec
    spec = FlagSpec(2, (1, 3))
    desc = Counter({Indecomposable(False, (1,), (3,), None): 1})
    cand = normal_shape(desc, 2)
    assert cand.spec.heights_multiset() == spec.heights_multiset()
    sigma = random_in(rng, cand.spec, "G", extra_terms=1)
    moved = apply_to_candidate(sigma, cand)
    assert descriptor_equal(invariants(moved), desc)
