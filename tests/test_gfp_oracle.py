"""The F_p elimination core against an independent implementation: sympy's
DomainMatrix over GF(p), on seeded random matrices for every supported prime,
with sizes on both sides of the m*n = 256 switch to numpy elimination."""
import random

import numpy as np
import pytest

pytest.importorskip("sympy")
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from charpforms import gfp

# (m, n): 256 entries and below take the Python-int path, above it numpy
SHAPES = [(1, 5), (3, 4), (8, 8), (16, 16), (12, 22), (17, 17), (20, 30)]
# well past 256 entries, always rank-deficient; at p = 13 the int16 updates
# of the large path reach their extreme values
LARGE_SHAPES = [(60, 180), (180, 60), (120, 120)]
SQUARE = [1, 4, 9, 16, 17, 20]


def _random_matrix(rng, m, n, p):
    """Full rank or, for half the seeds, rank about half of min(m, n)."""
    A = gfp.random_matrix(rng, m, n, p)
    if rng.random() < 0.5:
        r = max(1, min(m, n) // 2)
        A = gfp.modp(gfp.random_matrix(rng, m, r, p) @ gfp.random_matrix(rng, r, n, p), p)
    return A


def _sympy(A, p):
    K = GF(p, symmetric=False)
    return K, DomainMatrix.from_list(A.tolist(), K)


def _ints(K, M):
    return np.array([[K.to_int(x) for x in row] for row in M.to_list()],
                    dtype=np.int64).reshape(M.shape)


@pytest.mark.parametrize("p", gfp.SUPPORTED_PRIMES)
def test_rref_rank_nullspace_match_sympy(p):
    rng = random.Random(p)
    for m, n in SHAPES:
        for _ in range(3):
            A = _random_matrix(rng, m, n, p)
            K, M = _sympy(A, p)
            R_ref, piv_ref = M.rref()
            R, piv = gfp.rref(A, p)
            assert piv == list(piv_ref)
            assert np.array_equal(R, _ints(K, R_ref))
            assert gfp.rank(A, p) == M.rank()
            N = gfp.nullspace(A, p)
            assert N.shape == (n - M.rank(), n)
            assert not np.any(gfp.modp(A @ N.T, p))
            if N.shape[0]:
                N_ref = _ints(K, M.nullspace().rref()[0])
                assert np.array_equal(N, N_ref)


def _assert_rref(R, p):
    """R has no zero rows, leading entries 1 at increasing columns, and
    zeros elsewhere in each pivot column."""
    assert np.all((R >= 0) & (R < p))
    last = -1
    for row in R:
        lead = int(np.flatnonzero(row)[0])
        assert lead > last and row[lead] == 1
        assert np.count_nonzero(R[:, lead]) == 1
        last = lead


@pytest.mark.parametrize("p", gfp.SUPPORTED_PRIMES)
def test_large_rank_deficient_match_sympy(p):
    rng = random.Random(300 + p)
    for m, n in LARGE_SHAPES:
        r = min(m, n) // 2
        A = gfp.modp(gfp.random_matrix(rng, m, r, p) @ gfp.random_matrix(rng, r, n, p), p)
        K, M = _sympy(A, p)
        R_ref, piv_ref = M.rref()
        R, piv = gfp.rref(A, p)
        assert piv == list(piv_ref) and len(piv) < min(m, n)
        assert np.array_equal(R, _ints(K, R_ref))
        assert gfp.rank(A, p) == len(piv_ref)
        # n - rank independent kernel vectors in rref are the canonical
        # basis of the kernel
        N = gfp.nullspace(A, p)
        assert N.shape == (n - len(piv_ref), n) and N.dtype == np.int64
        assert not np.any(gfp.modp(A @ N.T, p))
        _assert_rref(N, p)


def _sympy_nullspace(A, p):
    """The rref of sympy's null-space basis, as an int64 (k, n) array."""
    K, M = _sympy(A, p)
    N = M.nullspace()
    if N.shape[0] == 0:
        return gfp.zeros(0, A.shape[1])
    return _ints(K, N.rref()[0])


def _assert_nullspace_matches_sympy(A, p):
    N = gfp.nullspace(A, p)
    ref = _sympy_nullspace(np.atleast_2d(A), p)
    assert N.dtype == np.int64 and N.shape == ref.shape
    assert np.array_equal(N, ref)


@pytest.mark.parametrize("p", gfp.SUPPORTED_PRIMES)
def test_nullspace_edge_inputs_match_sympy(p):
    """Inputs the random shapes miss: products m x r times r x n of every
    rank r (small path), the zero matrix, a 1-D vector, 0-row and 0-column
    matrices, and wide large matrices where pivot and free columns
    interleave."""
    rng = random.Random(600 + p)
    for m, n in [(1, 1), (2, 7), (5, 5), (7, 3), (6, 12), (16, 16)]:
        for r in range(min(m, n) + 1):
            left = gfp.random_matrix(rng, m, r, p)
            right = gfp.random_matrix(rng, r, n, p)
            _assert_nullspace_matches_sympy(gfp.modp(left @ right, p), p)
    for m, n in [(3, 4), (20, 20), (17, 17)]:
        _assert_nullspace_matches_sympy(gfp.zeros(m, n), p)
    for n in (1, 6, 300):
        v = gfp.random_matrix(rng, 1, n, p)[0]
        v[0] = 0                      # the first column is free
        _assert_nullspace_matches_sympy(v, p)
    for n in (0, 5, 300):
        assert np.array_equal(gfp.nullspace(gfp.zeros(0, n), p), gfp.eye(n))
    for m in (0, 5, 300):
        assert gfp.nullspace(gfp.zeros(m, 0), p).shape == (0, 0)
    # sympy's dense GF(p) elimination costs seconds at (125, 375), so that
    # shape runs at low rank and only at p = 2 and at p = 13, where the int16
    # updates of the large path reach their extreme values
    wide = [(40, 120, 40), (40, 120, 20)]
    if p in (2, 13):
        wide.append((125, 375, 12))
    for m, n, r in wide:
        A = gfp.modp(gfp.random_matrix(rng, m, r, p) @ gfp.random_matrix(rng, r, n, p), p)
        # zero columns and repeated columns scatter free columns between
        # the pivots
        A[:, rng.sample(range(n), n // 10)] = 0
        A[:, 1::7] = A[:, 0::7][:, :A[:, 1::7].shape[1]]
        _assert_nullspace_matches_sympy(A, p)


@pytest.mark.parametrize("p", gfp.SUPPORTED_PRIMES)
def test_inverse_and_det_match_sympy(p):
    rng = random.Random(100 + p)
    for n in SQUARE:
        for _ in range(3):
            A = _random_matrix(rng, n, n, p)
            K, M = _sympy(A, p)
            d = K.to_int(M.det())
            assert gfp.is_invertible(A, p) == (d != 0)
            if d:
                assert np.array_equal(gfp.inverse(A, p), _ints(K, M.inv()))
            else:
                with pytest.raises(ValueError):
                    gfp.inverse(A, p)


@pytest.mark.parametrize("p", gfp.SUPPORTED_PRIMES)
def test_batched_solve_rows_equals_per_row(p):
    rng = random.Random(200 + p)
    for k, n, count in [(3, 5, 4), (6, 8, 8), (10, 16, 12), (12, 20, 6)]:
        # dependent rows in B, so the chosen coefficients are not unique
        B = _random_matrix(rng, k, n, p)
        V = gfp.modp(gfp.random_matrix(rng, count, k, p) @ B, p)
        per_row = [gfp.solve_rows(B, v, p) for v in V]
        batched = gfp.solve_rows(B, V, p)
        assert batched.shape == (count, k)
        assert np.array_equal(batched, np.array(per_row))
        assert np.array_equal(gfp.modp(batched @ B, p), V)
        pivots = gfp.rref(B, p)[1]
        if len(pivots) < n:
            # a unit vector at a non-pivot column is outside the row space
            outside = gfp.eye(n)[min(set(range(n)) - set(pivots))]
            assert gfp.solve_rows(B, outside, p) is None
            assert gfp.solve_rows(B, np.vstack([V, outside]), p) is None


# ---------------------------------------------------------------------------
# Polynomial factoring and elementary divisors against sympy over GF(p)[x].
# ---------------------------------------------------------------------------

def _sympy_factors(expr, x, p):
    """{q: multiplicity} of a sympy polynomial over GF(p), q as a monic
    little-endian coefficient tuple."""
    from sympy import Poly
    _, factors = Poly(expr, x, modulus=p).factor_list()
    return {gfp.pmonic([int(c) % p for c in reversed(q.all_coeffs())], p): e
            for q, e in factors}


@pytest.mark.parametrize("p", gfp.SUPPORTED_PRIMES)
def test_pfactor_matches_sympy(p):
    from sympy import symbols
    x = symbols("x")
    rng = random.Random(400 + p)
    for d in range(1, 9):
        for _ in range(8):
            # random monic, and a product of random monic factors (repeats
            # included) so multiplicities above one occur
            f = tuple(rng.randrange(p) for _ in range(d)) + (1,)
            g = gfp.pmul(f, gfp.ppow((rng.randrange(p), 1), rng.randrange(1, 3), p), p)
            for poly in (f, g):
                expr = sum(c * x ** i for i, c in enumerate(poly))
                assert gfp.pfactor(poly, p) == _sympy_factors(expr, x, p), poly


def _block_diag(blocks):
    n = sum(B.shape[0] for B in blocks)
    D = gfp.zeros(n, n)
    at = 0
    for B in blocks:
        D[at:at + B.shape[0], at:at + B.shape[0]] = B
        at += B.shape[0]
    return D


def _endomorphisms(rng, p):
    """Nonsingular n x n matrices, n <= 6: random ones, and conjugated block
    sums of Jordan blocks and companions of irreducible quadratic powers,
    some repeated."""
    for n in range(1, 7):
        yield gfp.random_invertible(rng, n, p)
    quadratics = gfp.irreducibles(p, 2)
    for _ in range(8):
        blocks = []
        while True:
            a, k = rng.randrange(1, p), rng.randrange(1, 4)
            jordan = gfp.modp(a * gfp.eye(k) + np.eye(k, k, 1, dtype=np.int64), p)
            q = rng.choice(quadratics)
            B = rng.choice([jordan, gfp.companion(gfp.ppow(q, (k + 1) // 2, p), p)])
            copies = rng.choice((1, 2))
            if sum(b.shape[0] for b in blocks) + copies * B.shape[0] > 6:
                break
            blocks += [B] * copies
        if blocks:
            D = _block_diag(blocks)
            g = gfp.random_invertible(rng, D.shape[0], p)
            yield gfp.modp(g @ D @ gfp.inverse(g, p), p)


def _singular_endomorphisms(rng, p):
    """Singular n x n matrices, n <= 7: conjugated block sums of a 1 x 1
    zero, nilpotent Jordan blocks and unit Jordan blocks, some repeated."""
    for _ in range(8):
        blocks = []
        while True:
            a, k = rng.choice([0, 0, rng.randrange(1, p)]), rng.randrange(1, 4)
            jordan = gfp.modp(a * gfp.eye(k) + np.eye(k, k, 1, dtype=np.int64), p)
            copies = rng.choice((1, 2))
            if sum(b.shape[0] for b in blocks) + copies * k > 6:
                break
            blocks += [jordan] * copies
        blocks.append(gfp.zeros(1, 1))
        D = _block_diag(blocks)
        g = gfp.random_invertible(rng, D.shape[0], p)
        yield gfp.modp(g @ D @ gfp.inverse(g, p), p)


def _sympy_divisors(h, p):
    from sympy import GF, Matrix, eye, symbols
    from sympy.matrices.normalforms import invariant_factors
    x = symbols("x")
    char = x * eye(h.shape[0]) - Matrix(h.tolist())
    ref = []
    for f in invariant_factors(char, domain=GF(p)[x]):
        ref += [gfp.ppow(q, e, p) for q, e in _sympy_factors(f, x, p).items()]
    return sorted(ref)


@pytest.mark.parametrize("p", gfp.SUPPORTED_PRIMES)
def test_elementary_divisors_match_sympy(p):
    rng = random.Random(500 + p)
    for h in _endomorphisms(rng, p):
        assert gfp.elementary_divisors(h, p) == _sympy_divisors(h, p), h.tolist()


@pytest.mark.parametrize("p", gfp.SUPPORTED_PRIMES)
def test_elementary_divisors_of_singular_match_sympy(p):
    """The rank formula also counts the powers of the factor x."""
    rng = random.Random(600 + p)
    assert gfp.elementary_divisors(gfp.zeros(2, 2), p) == [(0, 1), (0, 1)]
    for h in _singular_endomorphisms(rng, p):
        assert gfp.elementary_divisors(h, p) == _sympy_divisors(h, p), h.tolist()


def _endomorphisms_7_8(rng, p):
    """7 x 7 and 8 x 8 matrices, the sizes of the largest cycle maps of the
    type-1 grind: random ones, singular ones of rank n - 2, and conjugated
    block sums of sizes exactly 7 and 8 of Jordan blocks (nilpotent ones
    included) and companions of irreducible quadratic powers, some
    repeated."""
    quadratics = gfp.irreducibles(p, 2)
    for n in (7, 8):
        yield gfp.random_matrix(rng, n, n, p)
        yield gfp.random_invertible(rng, n, p)
        yield gfp.modp(gfp.random_matrix(rng, n, n - 2, p)
                       @ gfp.random_matrix(rng, n - 2, n, p), p)
        for _ in range(4):
            blocks = []
            while sum(b.shape[0] for b in blocks) < n:
                a, k = rng.randrange(p), rng.randrange(1, 4)
                jordan = gfp.modp(a * gfp.eye(k) + np.eye(k, k, 1, dtype=np.int64), p)
                q = rng.choice(quadratics)
                B = rng.choice([jordan, gfp.companion(gfp.ppow(q, (k + 1) // 2, p), p)])
                for _ in range(rng.choice((1, 2))):
                    if sum(b.shape[0] for b in blocks) + B.shape[0] <= n:
                        blocks.append(B)
                if sum(b.shape[0] for b in blocks) == n - 1:
                    blocks.append(gfp.modp([[rng.randrange(p)]], p))
            D = _block_diag(blocks)
            g = gfp.random_invertible(rng, n, p)
            yield gfp.modp(g @ D @ gfp.inverse(g, p), p)


@pytest.mark.parametrize("p", gfp.SUPPORTED_PRIMES)
def test_elementary_divisors_7_8_match_sympy(p):
    """From n = 7 on, the n^2 x (n + 1) matrix of flattened powers is
    reduced by `_rref_large`."""
    assert 7 * 7 * 8 > gfp.SMALL_ENTRIES >= 6 * 6 * 7
    rng = random.Random(900 + p)
    sizes = set()
    for h in _endomorphisms_7_8(rng, p):
        sizes.add(h.shape[0])
        assert gfp.elementary_divisors(h, p) == _sympy_divisors(h, p), h.tolist()
    assert sizes == {7, 8}
