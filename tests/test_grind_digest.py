"""A committed digest of the type-1 grind's intermediate states.

Seeded descriptors from `descriptor_weight_catalog` at p in {2, 3, 5, 13}
are synthesized into (heights, b, c), once as the normal-shape matrices and
once moved by a random automorphism of the height flag, and ground to the
primitive state.  Every state on the way is recorded: each A-state's cells
(dimension, label, partner, flag spaces) and its b, c and nu matrices, and
each B-state's pieces (label, parent, transferred flag, window section) and
mu matrices.  The SHA-256 of the records is compared with DIGEST.

A change that should keep the grind's answers (a refactor or a speed-up of
the F_p kernel, the flags or the grind) must leave the digest as it is: it
pins the intermediate answers, not just the descriptors at the end.  A
change that is meant to move them updates DIGEST and says why.
"""
import hashlib
import random
from collections import Counter

import numpy as np

from charpforms import gfp
from charpforms.grind import (build_type1_object, decompose_rep,
                              descriptor_weight_catalog, extract_quiver_rep,
                              grind_A_to_B, grind_B_to_A,
                              synthesize_descriptor_matrices)

PRIMES = (2, 3, 5, 13)
DESCRIPTORS_PER_PRIME = 50
DIGEST = "2ba9e6a40bacf1f32ae62126a462ced8fbc5970745ea14a8aae2a26942d5b3db"


def _mat(M) -> tuple:
    M = np.asarray(M)
    return M.shape, M.tolist()


def _flag(F) -> tuple:
    return F.direction, [_mat(S) for S in F.spaces]


def _a_record(A) -> tuple:
    def cells(side):
        return [(x, c.dim, c.alpha, c.partner, _flag(c.flag))
                for x, c in sorted(side.items())]

    return ("A", A.parity, cells(A.v), cells(A.w),
            [(x, _mat(M)) for x, M in sorted(A.b.items())],
            [(x, _mat(M)) for x, M in sorted(A.c.items())],
            [(key, wid, r, _mat(N)) for key, (wid, r, N) in sorted(A.nu.items())])


def _b_record(B) -> tuple:
    def pieces(side):
        return [(x, pc.alpha, pc.parent, pc.label, _flag(pc.flag),
                 _mat(pc.window.section)) for x, pc in sorted(side.items())]

    return ("B", pieces(B.r), pieces(B.s),
            [(rid, sid, _mat(N)) for rid, (sid, N) in sorted(B.mu.items())])


def _flag_automorphism(rng, heights, p):
    """A random invertible g with g V_q ⊆ V_q for the height flag: column j
    has nonzeros only in rows i with heights[i] <= heights[j]."""
    n = len(heights)
    while True:
        g = gfp.random_matrix(rng, n, n, p)
        for i in range(n):
            for j in range(n):
                if heights[i] > heights[j]:
                    g[i, j] = 0
        if gfp.is_invertible(g, p):
            return g


def _inputs():
    """(p, descriptor, heights, b, c), in a fixed order from one seed."""
    rng = random.Random(2026)
    for p in PRIMES:
        catalog = descriptor_weight_catalog(p)
        for _ in range(DESCRIPTORS_PER_PRIME):
            desc = Counter(rng.choice(catalog) for _ in range(rng.choice((1, 2, 3))))
            heights, b, c = synthesize_descriptor_matrices(desc, p)
            yield p, desc, heights, b, c
            g = _flag_automorphism(rng, heights, p)
            yield p, desc, heights, gfp.modp(g.T @ b @ g, p), gfp.modp(g.T @ c @ g, p)


def grind_records():
    """Every recorded state, item by item, and the number of rounds."""
    rounds = 0
    for p, desc, heights, b, c in _inputs():
        state = build_type1_object(p, heights, b, c)
        records = [_a_record(state)]
        while True:
            mid = grind_A_to_B(state)
            state = grind_B_to_A(mid)
            records += [_b_record(mid), _a_record(state)]
            rounds += 1
            if state.is_primitive():
                break
        assert decompose_rep(extract_quiver_rep(state)) == desc
        yield (p, heights), records
    assert rounds >= 40, rounds


def test_grind_intermediate_states_digest():
    h = hashlib.sha256()
    for key, records in grind_records():
        h.update(repr((key, records)).encode())
    assert h.hexdigest() == DIGEST
