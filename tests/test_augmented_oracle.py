"""Exhaustive orbit oracles for the augmented invariants.

The grid-plus-index invariants of (form, functional) pairs claim to be
complete orbit invariants for their groups.  These tests enumerate every
pair on small spaces, build the orbits by explicit closure under the group
generators, and check the orbit partition coincides with the invariant
fibers exactly.
"""
import itertools

import numpy as np

from charpforms import gfp
from charpforms.flagbilinear import (coordinate_flag, flag_stabilizer,
                                     flagged_from_dims,
                                     invariants_contact_pair,
                                     invariants_form_functional)
from charpforms.gfp import modp


def nondeg_antisym(p, d):
    from charpforms.flagbilinear import all_antisymmetric
    return [M for M in all_antisymmetric(p, d) if gfp.rank(M, p) == d]


def functional_pairs(p, dims, k):
    """(b, f) with b nondegenerate and f a functional on V_k killing V_{k-1},
    nonzero on the factor; f is stored as a length-d covector supported on
    the factor coordinates."""
    d = dims[-1]
    lo = dims[k - 2] if k >= 2 else 0
    hi = dims[k - 1]
    out = []
    for b in nondeg_antisym(p, d):
        for fac_vals in itertools.product(range(p), repeat=hi - lo):
            if not any(fac_vals):
                continue
            f = np.zeros(d, dtype=np.int64)
            f[lo:hi] = fac_vals
            out.append((b, f))
    return out


def orbit_partition_functional(p, dims, k):
    """Orbits of (b, f) under the flag stabilizer, by explicit action.

    A acts by b -> A^T b A and f -> f o A on V_k; representatives are
    re-normalized to the factor coordinates (the coordinate flag makes the
    factor the coordinate window [lo, hi))."""
    d = dims[-1]
    lo = dims[k - 2] if k >= 2 else 0
    hi = dims[k - 1]
    group = list(flag_stabilizer(p, dims))
    pairs = functional_pairs(p, dims, k)

    def key(b, f):
        return b.tobytes() + bytes(int(x) for x in f[lo:hi])

    unseen = {key(b, f): (b, f) for b, f in pairs}
    orbits = []
    while unseen:
        _, (b, f) = next(iter(unseen.items()))
        orbit = set()
        for A in group:
            b2 = modp(A.T @ b @ A, p)
            f2 = modp(A.T @ f, p)       # f2(v) = f(A v)
            # f2 is determined on V_k only modulo V_{k-1}: zero the lower
            # window so equal factor functionals collide
            f2[:lo] = 0
            f2[hi:] = 0
            orbit.add(key(b2, f2))
        for kk in orbit:
            unseen.pop(kk, None)
        orbits.append(orbit)
    return orbits, pairs, key, lo, hi


def test_functional_invariants_exhaustive():
    for p, dims, k in [(3, [1, 2], 1), (3, [1, 2], 2), (2, [2, 4], 1),
                       (2, [2, 4], 2), (2, [1, 2, 3], 3), (3, [2, 2], 1)]:
        if dims[-1] % 2:
            continue  # no nondegenerate antisymmetric forms on odd dim
        orbits, pairs, key, lo, hi = orbit_partition_functional(p, dims, k)
        flag = coordinate_flag(dims)
        fibers = {}
        for b, f in pairs:
            fb = flagged_from_dims(p, dims, b)
            inv = invariants_form_functional(fb, k, f[lo:hi])
            fibers.setdefault(inv, set()).add(key(b, f))
        assert sorted(map(sorted, orbits)) == \
            sorted(map(sorted, fibers.values())), (p, dims, k)


def contact_pairs(p, d):
    """(f, b) with f != 0 and V = V^perp_b + Ker f (direct)."""
    from charpforms.flagbilinear import all_antisymmetric
    out = []
    for b in all_antisymmetric(p, d):
        rad = gfp.orthogonal_subspace(b, gfp.full_space(d), p)
        for f_vals in itertools.product(range(p), repeat=d):
            if not any(f_vals):
                continue
            f = np.array(f_vals, dtype=np.int64)
            Q = gfp.nullspace(f.reshape(1, -1), p)
            if rad.shape[0] + Q.shape[0] != d:
                continue
            if gfp.subspace_intersection(rad, Q, p).shape[0] != 0:
                continue
            out.append((f, b))
    return out


def orbit_partition_contact(p, dims):
    """Orbits of (f, b) under scalings, shears b -> b + f^g, and the flag
    stabilizer, by breadth-first closure."""
    d = dims[-1]
    group = list(flag_stabilizer(p, dims))
    pairs = contact_pairs(p, d)
    vecs = [np.array(v, dtype=np.int64)
            for v in itertools.product(range(p), repeat=d)]

    def key(f, b):
        return bytes(int(x) for x in f) + b.tobytes()

    index = {key(f, b) for f, b in pairs}
    unseen = dict(((key(f, b)), (f, b)) for f, b in pairs)
    orbits = []
    while unseen:
        startk, start = next(iter(unseen.items()))
        frontier = [start]
        orbit = {startk}
        while frontier:
            f, b = frontier.pop()
            nbrs = []
            for A in group:
                nbrs.append((modp(A.T @ f, p), modp(A.T @ b @ A, p)))
            for lam in range(2, p):
                nbrs.append((modp(lam * f, p), modp(lam * b, p)))
            for g in vecs:
                nbrs.append((f, modp(b + np.outer(f, g) - np.outer(g, f), p)))
            for f2, b2 in nbrs:
                k2 = key(f2, b2)
                assert k2 in index, "action left the admissible set"
                if k2 not in orbit:
                    orbit.add(k2)
                    frontier.append((f2, b2))
        for kk in orbit:
            unseen.pop(kk, None)
        orbits.append(orbit)
    return orbits, pairs, key


def test_contact_invariants_exhaustive():
    for p, dims in [(3, [1, 2]), (2, [1, 2, 3]), (3, [1, 1, 3]), (2, [3])]:
        orbits, pairs, key = orbit_partition_contact(p, dims)
        flag = coordinate_flag(dims)
        fibers = {}
        for f, b in pairs:
            inv = invariants_contact_pair(p, flag, f, b)
            fibers.setdefault(inv, set()).add(key(f, b))
        assert sorted(map(sorted, orbits)) == \
            sorted(map(sorted, fibers.values())), (p, dims)
