"""An exhaustive orbit oracle for the type-1 classification at p = 2.

A type-1 form over the heights h is classified by its pair (b, c) of
alternating matrices, b nondegenerate, up to the action (M, N): b -> M^T b M,
c -> N^T c N, where M is flag-linear (M[i, j] = 0 unless h[j] >= h[i]) and N
agrees with M on the equal-height blocks, both free in their own
height-raising entries (the moves of
`test_grind.py::test_descriptor_invariance_under_T_moves`).  That group is
generated by the transvections I + a E_ij and the diagonal scalings shared by
M and N within one height, and by I + E_ij on M alone or on N alone when
h[j] > h[i].

Every pair of a cell is put into its orbit by a union-find under those
generators.  The descriptors of `classify_type1_matrices` are complete
invariants exactly when the orbits and the distinct descriptors are equally
many and each orbit carries one descriptor.
"""
import itertools
import random

import pytest

from charpforms import gfp
from charpforms.grind import classify_type1_matrices


def alternating_matrices(n: int, p: int) -> list:
    """Every alternating n x n matrix over F_p."""
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    for entries in itertools.product(range(p), repeat=len(pairs)):
        A = gfp.zeros(n, n)
        for (i, j), x in zip(pairs, entries):
            A[i, j], A[j, i] = x, -x % p
        out.append(A)
    return out


def generators(heights, p: int) -> list:
    """The pairs (M, N) that generate the group acting on (b, c)."""
    n = len(heights)
    eye = gfp.eye(n)

    def elementary(i, j, a):
        T = eye.copy()
        T[i, j] = a
        return T

    gens = []
    for i, j in itertools.permutations(range(n), 2):
        if heights[i] == heights[j]:
            gens.append((elementary(i, j, 1), elementary(i, j, 1)))
        elif heights[j] > heights[i]:
            gens += [(elementary(i, j, 1), eye), (eye, elementary(i, j, 1))]
    gens += [(elementary(i, i, a), elementary(i, i, a))
             for i in range(n) for a in range(2, p)]
    return gens


def orbits(heights, p: int) -> list:
    """The orbits of the pairs (b, c), b nondegenerate, as lists of pairs."""
    n = len(heights)
    mats = alternating_matrices(n, p)
    index = {A.tobytes(): k for k, A in enumerate(mats)}
    bs = [k for k, A in enumerate(mats) if gfp.is_invertible(A, p)]
    parent = {(b, c): (b, c) for b in bs for c in range(len(mats))}

    def root(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def act(T):
        return [index[gfp.modp(T.T @ A @ T, p).tobytes()] for A in mats]

    for M, N in generators(heights, p):
        on_b, on_c = act(M), act(N)
        for b, c in parent:
            parent[root((b, c))] = root((on_b[b], on_c[c]))
    classes: dict = {}
    for x in parent:
        classes.setdefault(root(x), []).append((mats[x[0]], mats[x[1]]))
    return list(classes.values())


@pytest.mark.parametrize("heights, count, sampled", [
    ((1, 1, 1, 1), 6, False),
    ((1, 1, 2, 2), 15, False),
    ((1, 2, 2, 3), 17, True),
], ids=["1111", "1122", "1223"])
def test_descriptors_separate_the_orbits_at_p2(heights, count, sampled):
    """Every pair of the cell is classified (a representative and three
    sampled members of each orbit in the last cell)."""
    p = 2
    found = orbits(heights, p)
    assert sum(map(len, found)) == 28 * 64               # nondegenerate b, any c
    assert len(found) == count
    rng = random.Random(0)
    descriptors = []
    for orbit in found:
        members = [orbit[0]] + rng.sample(orbit[1:], min(3, len(orbit) - 1)) \
            if sampled else orbit
        seen = {frozenset(classify_type1_matrices(p, heights, b, c).items())
                for b, c in members}
        assert len(seen) == 1, f"orbit of {len(orbit)} pairs has {len(seen)} descriptors"
        descriptors += seen
    assert len(set(descriptors)) == len(found)
