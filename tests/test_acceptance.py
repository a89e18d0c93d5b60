"""Acceptance suite: one test per criterion, exact checks, timed.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line and
the elapsed time per criterion.
"""
import itertools
import math
import random
import time
from collections import Counter

import numpy as np
import pytest

from charpforms import gfp
from charpforms.algebra import (AlgebraElement, FlagSpec, OutOfAlgebraError,
                                random_element)
from charpforms.classify import (SymplecticCandidate, _reeb_vector,
                                 admissible_contact_invariants,
                                 admissible_type2_invariants,
                                 apply_to_candidate, constant_bivector,
                                 contact_split, invariants, is_contact,
                                 is_symplectic, normal_shape, random_form,
                                 same_Gprime_orbit)
from charpforms.flagbilinear import (admissible_grids,
                                     brute_force_orbit_partition, grid_fibers)
from charpforms.forms import (DiffForm, cohomology_basis, cohomology_dims,
                              d_element, h_class, is_exact_with_potential,
                              twisted_cohomology_dims)
from charpforms.grind import (build_type1_object, check_rep_axioms,
                              classify_type1_matrices, decompose_rep,
                              descriptor_equal, descriptor_weight_catalog,
                              extract_quiver_rep, grind_to_primitive,
                              synthesize_descriptor_matrices)
from charpforms.groups import random_in, transport_witness

GRID = [(p, heights)
        for p in (2, 3, 5)
        for n in (1, 2, 3)
        for heights in itertools.combinations_with_replacement((1, 2), n)]


def _timed(name, budget):
    class _T:
        def __enter__(self):
            self.t0 = time.time()
            return self

        def __exit__(self, *exc):
            dt = time.time() - self.t0
            if exc[0] is None:
                print(f"PASS {name} ({dt:.2f}s, budget {budget}s)")
            else:
                print(f"FAIL {name} ({dt:.2f}s)")
            assert dt < budget, f"{name} exceeded its {budget}s budget ({dt:.2f}s)"
            return False
    return _T()


def _dp_prefix(f, p):
    """[f^(0), ..., f^(p)] computed incrementally (f^(i) = f^i / i!)."""
    from charpforms.gfp import inv_scalar
    out = [AlgebraElement.one(f.spec)]
    acc = out[0]
    fact = 1
    for i in range(1, p):
        acc = acc.mul_free(f)
        fact = fact * i % p
        out.append(acc.scale(inv_scalar(fact, p)))
    out.append(f._dp_free_p())
    return out


def test_criterion_1_algebra_identities():
    with _timed("criterion 1: algebra identity suite", 10):
        for p, heights in GRID:
            spec = FlagSpec(p, heights)
            rng = random.Random(hash((p, heights)) & 0xFFFF)
            for _ in range(500):
                f = random_element(rng, spec, 2)
                g = random_element(rng, spec, 2)
                fs = _dp_prefix(f, p)
                gs = _dp_prefix(g, p)
                # addition rule at r = p
                lhs = (f + g).dp_free(p)
                rhs = AlgebraElement.zero(spec)
                for i in range(p + 1):
                    rhs = rhs + fs[i].mul_free(gs[p - i])
                assert lhs == rhs
                # product rule
                assert fs[1].mul_free(fs[2]) == \
                    f.dp_free(3).scale(math.comb(3, 1) % p)
                # products have no p-th divided power
                assert not f.mul_free(g)._dp_free_p()
                # tower rule
                assert fs[p]._dp_free_p() == f.dp_free(p * p)
                # d f^(r) = f^(r-1) df, on interior data
                h = random_element(rng, spec, 2, in_m2=True)
                r = rng.choice([2, p])
                try:
                    fr = h.divided_power(r)
                    fr1 = h.divided_power(r - 1)
                except OutOfAlgebraError:
                    continue
                assert d_element(fr) == d_element(h).mul_function(fr1)


def test_criterion_2_cohomology_dimensions():
    with _timed("criterion 2: cohomology dimensions", 10):
        for p, heights in GRID:
            spec = FlagSpec(p, heights)
            n = spec.n
            assert cohomology_dims(spec) == [math.comb(n, k) for k in range(n + 1)]
            # the basis cocycles are closed and independent modulo exact forms
            for k in range(n + 1):
                basis = cohomology_basis(spec, k)
                for z in basis:
                    assert not z.d()
                seen = set()
                for z in basis:
                    v = tuple(int(x) for x in h_class(z))
                    assert sum(v) == 1 and v not in seen
                    seen.add(v)
                if k > 0:
                    for z in basis:
                        assert is_exact_with_potential(z) is None


def test_criterion_3_twisted_acyclicity():
    with _timed("criterion 3: twisted acyclicity", 30):
        for p, heights in GRID:
            if p == 2 and any(m == 1 for m in heights):
                continue  # the p = 2 caveat for classes outside O(F)
            spec = FlagSpec(p, heights)
            zero = [0] * spec.n
            for e in itertools.product(range(p), repeat=spec.n):
                if not any(e):
                    continue
                dims = twisted_cohomology_dims(spec, e)
                assert all(d == 0 for d in dims), (p, heights, e, dims)


def test_criterion_4_exhaustive_flag_oracle():
    with _timed("criterion 4: exhaustive flag-form oracle", 60):
        for p, dims in [(2, [1, 2, 3]), (3, [1, 2])]:
            orbits = brute_force_orbit_partition(p, dims)
            fibers = grid_fibers(p, dims)
            assert sorted(map(sorted, orbits)) == \
                sorted(map(sorted, fibers.values()))
            fd = [dims[0]] + [b - a for a, b in zip(dims, dims[1:])]
            assert len(orbits) == len(list(admissible_grids(fd)))


def test_criterion_5_group_action_coherence():
    with _timed("criterion 5: group-action coherence", 60):
        rng = random.Random(5)
        # 100 sigma in G' fix h-classes, u-classes, constant bivectors
        spec = FlagSpec(3, (1, 2))
        for i in range(100):
            sigma = random_in(rng, spec, "Gprime")
            phi = DiffForm(
                spec, 1, {(0,): random_element(rng, spec, 2, in_m=False)})
            omega = phi.d()
            for z in cohomology_basis(spec, 2):
                omega = omega + z.scale(rng.randrange(3))
            assert list(h_class(sigma.apply_to_form(omega))) == \
                list(h_class(omega))
            e = [rng.randrange(3), rng.randrange(3)]
            assert list(transport_witness(sigma, e)[0]) == [c % 3 for c in e]
            assert np.array_equal(
                constant_bivector(sigma.apply_to_form(omega)),
                constant_bivector(omega))
        # 100 sigma in G preserve the classification invariants
        jobs = [("type1", FlagSpec(3, (1, 1)), 20),
                ("type1", FlagSpec(2, (1, 2)), 15),
                ("type2", FlagSpec(3, (1, 2)), 20),
                ("type2", FlagSpec(5, (1, 1)), 15),
                ("contact", FlagSpec(3, (1, 1, 1)), 20),
                ("contact", FlagSpec(5, (1, 1, 2)), 10)]
        assert sum(n for _, _, n in jobs) == 100
        for kind, spec, count in jobs:
            for i in range(count):
                cand = random_form(kind, spec, seed=1000 + i)
                base = invariants(cand)
                sigma = random_in(rng, cand.spec, "G")
                moved = apply_to_candidate(sigma, cand)
                got = invariants(moved)
                if isinstance(base, Counter):
                    assert descriptor_equal(base, got)
                else:
                    assert base == got


def test_criterion_6_normal_shape_round_trips():
    with _timed("criterion 6: normal-shape round trips", 60):
        for p in (3, 5):
            # type 2: all admissible (k, l, grid) with heights <= 2, sum <= 4
            for n in (2, 4):
                for heights in itertools.combinations_with_replacement((1, 2), n):
                    for inv in admissible_type2_invariants(heights, p):
                        cand = normal_shape(inv, p)
                        assert is_symplectic(cand) == "type2"
                        assert invariants(cand) == inv
            # contact: n odd, grid sums n - 1 <= 4
            for n in (1, 3, 5):
                for heights in itertools.combinations_with_replacement((1, 2), n):
                    for inv in admissible_contact_invariants(heights, p):
                        cand = normal_shape(inv, p)
                        assert is_contact(cand)
                        assert invariants(cand) == inv
        # type 1: descriptors with <= 2 indecomposables from the catalog
        for p in (2, 3, 5):
            cat = descriptor_weight_catalog(p, max_weight=4, max_entry=2,
                                            max_endo_deg=2)
            descs = [Counter({ind: 1}) for ind in cat]
            descs += [Counter({a: 1}) + Counter({b: 1})
                      for a, b in
                      itertools.combinations_with_replacement(cat, 2)]
            for desc in descs:
                heights, a, c = synthesize_descriptor_matrices(desc, p)
                cand = normal_shape(desc, p)
                assert is_symplectic(cand) == "type1"
                got = invariants(cand)
                assert descriptor_equal(got, desc), (dict(desc), dict(got))


def _var_count(ind):
    if ind.periodic:
        from charpforms.gfp import pdeg
        return 2 * len(ind.top) * pdeg(ind.endo)
    return 2 * len(ind.top)


def test_criterion_7_uniqueness_of_decomposition():
    with _timed("criterion 7: decomposition uniqueness", 120):
        rng = random.Random(7)
        for p, trials in [(3, 30), (2, 20)]:
            cat = descriptor_weight_catalog(p, max_weight=4, max_entry=2,
                                            max_endo_deg=2)
            for trial in range(trials):
                # random orthogonal sum, capped at 6 variables so the
                # form-level conjugation stays desk-sized
                while True:
                    pieces = rng.sample(cat, rng.randrange(1, 3))
                    if sum(_var_count(i) for i in pieces) <= 6:
                        break
                desc = Counter()
                for ind in pieces:
                    desc[ind] += 1
                heights, a, c = synthesize_descriptor_matrices(desc, p)
                n = len(heights)
                # random T-move on (b, c)
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
                a2 = gfp.modp(M.T @ a @ M, p)
                c2 = gfp.modp(N.T @ c @ N, p)
                assert descriptor_equal(
                    classify_type1_matrices(p, heights, a2, c2), desc)
                # and a form-level conjugation by a random group element
                cand = normal_shape(desc, p)
                sigma = random_in(rng, cand.spec, "G", extra_terms=1)
                moved = apply_to_candidate(sigma, cand)
                assert descriptor_equal(invariants(moved), desc)


def test_criterion_8_rep_axioms_and_splitter():
    with _timed("criterion 8: rep axioms asserted on every run", 30):
        # the pipeline runs its axioms on every extraction; a corrupted
        # representation must trip the checks (negative control)
        rng = random.Random(8)
        reps = []
        for trial in range(10):
            heights = tuple(rng.choice([1, 2]) for _ in range(2))
            n = len(heights)
            while True:
                b = gfp.random_matrix(rng, n, n, 3)
                b = gfp.modp(b - b.T, 3)
                np.fill_diagonal(b, 0)
                if gfp.rank(b, 3) == n:
                    break
            c = gfp.random_matrix(rng, n, n, 3)
            c = gfp.modp(c - c.T, 3)
            np.fill_diagonal(c, 0)
            prim = grind_to_primitive(build_type1_object(3, heights, b, c))
            rep = extract_quiver_rep(prim)   # runs check_rep_axioms
            decompose_rep(rep)               # runs the self-paired cycle checks
            reps.append(rep)
        corrupted = next(r for r in reps if any(s is not None
                                                for s in r.sigma.values()))
        bad = corrupted.b[corrupted.nodes[0]].copy()
        bad[0, 0] = (bad[0, 0] + 1) % 3
        corrupted.b[corrupted.nodes[0]] = bad
        with pytest.raises(AssertionError):
            check_rep_axioms(corrupted)


def test_criterion_9_contact_split():
    with _timed("criterion 9: contact structure split", 60):
        for p, heights, seeds in [(3, (1, 1, 1), 3), (5, (1, 1, 1), 2),
                                  (3, (1, 2, 1), 2)]:
            spec = FlagSpec(p, heights)
            dim_w = spec.n * spec.dim
            for seed in range(seeds):
                cand = random_form("contact", spec, seed)
                P, Q = contact_split(cand)
                assert P.shape[0] + Q.shape[0] == dim_w
        # Q^perp = O * omega on a small spec
        spec = FlagSpec(3, (1, 1, 1))
        cand = random_form("contact", spec, 11)
        P, Q = contact_split(cand)
        monos = list(cand.spec.monomials())
        midx = {m: i for i, m in enumerate(monos)}
        dimO = len(monos)
        n = cand.spec.n
        # psi in Omega^1 as a coordinate vector psi[i * dimO + m]; each
        # condition psi(delta_q) = 0 gives dimO linear equations, read off
        # by evaluating psi(delta) bilinearly
        eq_rows = []
        for qv in Q:
            for mval in range(dimO):
                eq_rows.append((qv, mval))
        A = gfp.zeros(len(Q) * dimO, n * dimO)
        for r, (qv, mval) in enumerate(eq_rows):
            # psi(delta) = sum_i psi_i * delta_i; row = coefficient of psi
            # monomial column (i, m') in the m-th coordinate of the product
            for i in range(n):
                di = AlgebraElement(cand.spec, {
                    monos[k]: int(qv[i * dimO + k]) for k in range(dimO)
                    if qv[i * dimO + k]})
                if not di:
                    continue
                for m2 in range(dimO):
                    prod = di * AlgebraElement(cand.spec, {monos[m2]: 1})
                    ccoef = prod.terms.get(monos[mval], 0)
                    if ccoef:
                        A[r, i * dimO + m2] = ccoef
        perp = gfp.nullspace(A, 3)
        span_rows = []
        for m in monos:
            f = AlgebraElement(cand.spec, {m: 1})
            scaled = cand.form.mul_function(f)
            vec = np.zeros(n * dimO, dtype=np.int64)
            for (i,), g in scaled.terms.items():
                for m2, cval in g.terms.items():
                    vec[i * dimO + midx[m2]] = cval
            span_rows.append(vec)
        span = gfp.row_space(np.array(span_rows, dtype=np.int64), 3)
        assert np.array_equal(perp, span)


def test_contact_split_p13_in_closed_form():
    """The split of one contact form at p = 13, heights (1,1,1) (dim W =
    6,591), where R_0 and f_2 are units: sampled rows of P satisfy
    d omega(delta, .) = 0 and sampled rows of Q satisfy omega(delta) = 0."""
    spec = FlagSpec(13, (1, 1, 1))
    cand = random_form("contact", spec, 5)
    dimO = spec.dim
    domega = cand.form.d()
    assert _reeb_vector(domega)[0].constant_term() and \
        cand.form.terms[(2,)].constant_term()
    with _timed("contact split at p = 13, heights (1,1,1)", 5):
        P, Q = contact_split(cand)
    assert P.shape == (dimO, 3 * dimO) and Q.shape == (2 * dimO, 3 * dimO)
    monos = list(spec.monomials())

    def derivation(row):
        return [AlgebraElement(spec, {monos[m]: int(row[i * dimO + m])
                                      for m in np.flatnonzero(row[i * dimO:(i + 1) * dimO])})
                for i in range(spec.n)]

    rng = random.Random(13)
    for r in rng.sample(range(P.shape[0]), 3):
        assert not domega.contract(derivation(P[r]))
    for r in rng.sample(range(Q.shape[0]), 3):
        delta = derivation(Q[r])
        value = AlgebraElement.zero(spec)
        for (i,), f in cand.form.terms.items():
            value = value + f * delta[i]
        assert not value


def test_criterion_10_gprime_orbit_predicate():
    with _timed("criterion 10: G'-orbit predicate", 30):
        rng = random.Random(10)
        for p, heights in [(3, (1, 1)), (5, (1, 1)), (3, (1, 2)), (3, (2, 2))]:
            spec = FlagSpec(p, heights)
            for trial in range(10):
                cand = random_form("type1", spec, seed=trial)
                omega = cand.body
                # omega + d(phi), phi in m^(2) Omega^1: always the same orbit
                phi_terms = {}
                for i in range(spec.n):
                    f = random_element(rng, spec, 2, in_m=False)
                    f = AlgebraElement(spec, {m: c for m, c in f.terms.items()
                                              if sum(m) >= 2})
                    if f:
                        phi_terms[(i,)] = f
                phi = DiffForm(spec, 1, phi_terms)
                moved = SymplecticCandidate(cand.u_class, omega + phi.d())
                assert is_symplectic(moved) == "type1"
                assert same_Gprime_orbit(cand, moved)
                # lam * omega for lam not in {0, 1}: never the same orbit
                for lam in range(2, p):
                    assert not same_Gprime_orbit(
                        cand, SymplecticCandidate(cand.u_class,
                                                  omega.scale(lam)))
