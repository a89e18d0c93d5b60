"""The three seeded workloads of the charpforms benchmark.

Each workload builds, from one seed, a pool of rounds (`build` yields them
one at a time, so set-up can be timed like the items).  A round is a fixed
mix of cells (prime, heights, kind), so every run measures the same mix of
item sizes and only the random instances change with the seed.  The timed
call `run(item)` receives only generated inputs; `check(item, answer)`
verifies the answer outside the timed call.  `reference_mix` names the
reference kernel (reference.py) that tracks the machine speed for the
workload's kind of work.

Import this module only after `charpforms` is importable (run.py puts the
checkout's `src/` on the path first).  Library functions are looked up
through their modules at call time, so the tracer's wrappers apply.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from charpforms import algebra, classify, cli, grind, groups, jsonio

PRIMES = (2, 3, 5, 13)


def _form_record(cand) -> list:
    """Canonical, package-independent description of a candidate form."""
    form = cand.body if isinstance(cand, classify.SymplecticCandidate) else cand.form
    u = [int(c) for c in getattr(cand, "u_class", [0] * form.spec.n)]
    terms = sorted((list(I), list(m), int(c))
                   for I, f in form.terms.items() for m, c in f.terms.items())
    return [form.spec.p, list(form.spec.heights), u, form.degree, terms]


def _descriptor_record(desc: Counter) -> list:
    return sorted([ind.periodic, list(ind.top), list(ind.bottom),
                   list(ind.endo) if ind.endo is not None else None, mult]
                  for ind, mult in desc.items())


# ---------------------------------------------------------------------------
# type1_grind: normal shape, then invariants, of type-1 descriptors.
# ---------------------------------------------------------------------------

@dataclass
class Type1Item:
    p: int
    desc: Counter
    expected: Counter


class Type1Grind:
    """One or two indecomposables from the weight-4 catalog per descriptor.
    A round holds, for each prime, one single and two double descriptors:
    singles and doubles form two clusters of item times, and one to two
    puts the median inside the doubles, not in the gap between them."""

    name = "type1_grind"
    pool_rounds = 200
    reference_mix = {"small": 3, "tiny": 3}

    def build(self, seed: int):
        rng = random.Random(seed)
        cats = {p: grind.descriptor_weight_catalog(p, max_weight=4, max_entry=2,
                                                   max_endo_deg=2)
                for p in PRIMES}
        for _ in range(self.pool_rounds):
            items = []
            for p in PRIMES:
                for pieces in (1, 2, 2):
                    desc = Counter(rng.choice(cats[p]) for _ in range(pieces))
                    items.append(Type1Item(p, desc, Counter(desc)))
            yield items

    def record(self, item: Type1Item) -> list:
        return [item.p, _descriptor_record(item.desc)]

    def run(self, item: Type1Item):
        cand = classify.normal_shape(item.desc, item.p)
        return classify.invariants(cand)

    def check(self, item: Type1Item, answer) -> bool:
        return grind.descriptor_equal(answer, item.expected)

    def corrupt(self, item: Type1Item) -> None:
        item.expected = item.expected + Counter(item.expected)


# ---------------------------------------------------------------------------
# orbit_equiv: transport along a random group element, then `charpforms equiv`.
# ---------------------------------------------------------------------------

# (kind, p, heights): dim O(F) = p^sum(heights) runs from 16 to 2,197.
ORBIT_CELLS = (
    ("type1", 2, (2, 2)), ("type1", 2, (1, 1, 1, 1)), ("type1", 2, (3, 3)),
    ("type1", 3, (1, 2)), ("type1", 3, (1, 1, 1, 1)), ("type1", 3, (1, 1, 1, 2)),
    ("type1", 5, (1, 2)), ("type1", 5, (2, 2)), ("type1", 13, (1, 1)),
    ("type1", 13, (1, 2)),
    ("type2", 2, (2, 2)), ("type2", 2, (3, 3)), ("type2", 3, (1, 3)),
    ("type2", 3, (1, 1, 1, 1)), ("type2", 5, (1, 1)), ("type2", 5, (2, 2)),
    ("type2", 13, (1, 1)), ("type2", 13, (1, 2)),
    ("contact", 3, (1, 1, 1)), ("contact", 3, (1, 2, 2)),
    ("contact", 3, (2, 2, 2)), ("contact", 5, (1, 1, 1)),
    ("contact", 5, (1, 1, 2)),
)
# Pairs of normal shapes with equal kind and heights but different
# admissible invariants: `equiv` must answer "not equivalent" (exit 1).
ORBIT_NEGATIVE_CELLS = (
    ("type2", 3, (1, 2)), ("type2", 5, (1, 3)), ("type2", 3, (1, 1, 2, 2)),
    ("contact", 3, (1, 1, 2)), ("contact", 5, (1, 1, 2)),
)


@dataclass
class OrbitItem:
    a: object                # first form, written as is
    b: object                # second form, transported along sigma first
    images: tuple            # images of the generators under sigma
    expected: int            # exit code of `charpforms equiv`


class OrbitEquiv:
    """Transport, form-file round trip and an in-process `equiv` call."""

    name = "orbit_equiv"
    pool_rounds = 24
    reference_mix = {"sparse": 2, "small": 1}

    def __init__(self, workdir: Path, tracer):
        self.path_a = workdir / "a.json"
        self.path_b = workdir / "b.json"
        self.tracer = tracer

    def build(self, seed: int):
        rng = random.Random(seed)
        for _ in range(self.pool_rounds):
            items = []
            for kind, p, heights in ORBIT_CELLS:
                spec = algebra.FlagSpec(p, heights)
                cand = classify.random_form(kind, spec, rng.randrange(1 << 30))
                sigma = groups.random_in(rng, cand.spec, "G")
                items.append(OrbitItem(cand, cand, sigma.images, 0))
            for kind, p, heights in ORBIT_NEGATIVE_CELLS:
                admissible = (classify.admissible_type2_invariants
                              if kind == "type2" else
                              classify.admissible_contact_invariants)
                inv_a, inv_b = rng.sample(admissible(heights, p), 2)
                a = classify.normal_shape(inv_a, p)
                b = classify.normal_shape(inv_b, p)
                sigma = groups.random_in(rng, b.spec, "G")
                items.append(OrbitItem(a, b, sigma.images, 1))
            rng.shuffle(items)
            yield items

    def record(self, item: OrbitItem) -> list:
        images = [sorted((list(m), int(c)) for m, c in y.terms.items())
                  for y in item.images]
        return [_form_record(item.a), _form_record(item.b), images,
                item.expected]

    def _write(self, path: Path, cand) -> int:
        text = json.dumps(jsonio.form_to_json(cand), indent=2, sort_keys=True)
        path.write_text(text + "\n")
        return len(text) + 1

    def run(self, item: OrbitItem) -> int:
        # A fresh Automorphism per call, so no image cache survives a round.
        sigma = groups.Automorphism(item.b.spec, item.images)
        moved = classify.apply_to_candidate(sigma, item.b)
        with self.tracer.span("jsonio"):
            nbytes = self._write(self.path_a, item.a) + \
                self._write(self.path_b, moved)
        if self.tracer.active:
            self.tracer.counts["jsonio.bytes"] += nbytes
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["equiv", str(self.path_a), str(self.path_b)])

    def check(self, item: OrbitItem, answer) -> bool:
        return answer == item.expected

    def corrupt(self, item: OrbitItem) -> None:
        item.expected = 1 - item.expected


# ---------------------------------------------------------------------------
# contact_split: the P / Q splitting of W(F) for a contact form.
# ---------------------------------------------------------------------------

# (p, heights) with dim W = n * p^sum(heights) in {81, 243, 375}; the mix
# puts the median inside the dim-243 cells and the 90th percentile inside
# the dim-375 cell, away from the boundaries between sizes.
CONTACT_CELLS = ((3, (1, 1, 1)), (3, (1, 1, 1)),
                 (3, (1, 1, 2)), (3, (1, 2, 1)), (3, (2, 1, 1)),
                 (5, (1, 1, 1)))
CONTACT_CHECK_ROWS = 3


@dataclass
class ContactItem:
    cand: object
    expected: tuple          # (dim P, dim Q) = (dim O, (n - 1) dim O)
    check_seed: int


class ContactSplit:
    """Dense eliminations on matrices of up to 375 x 375 (numpy path)."""

    name = "contact_split"
    pool_rounds = 24
    reference_mix = {"small": 1, "sparse": 1, "dense": 1}

    def build(self, seed: int):
        rng = random.Random(seed)
        for _ in range(self.pool_rounds):
            items = []
            for p, heights in CONTACT_CELLS:
                spec = algebra.FlagSpec(p, heights)
                cand = classify.random_form("contact", spec, rng.randrange(1 << 30))
                dim_o = cand.spec.dim
                items.append(ContactItem(cand, (dim_o, (cand.spec.n - 1) * dim_o),
                                         rng.randrange(1 << 30)))
            rng.shuffle(items)
            yield items

    def record(self, item: ContactItem) -> list:
        return [_form_record(item.cand), list(item.expected), item.check_seed]

    def run(self, item: ContactItem):
        return classify.contact_split(item.cand)

    def check(self, item: ContactItem, answer) -> bool:
        P, Q = answer
        if (P.shape[0], Q.shape[0]) != item.expected:
            return False
        spec = item.cand.spec
        form = item.cand.form
        monos = list(spec.monomials())
        dim_o = len(monos)

        def derivation(row):
            return [algebra.AlgebraElement(
                spec, {monos[m]: int(row[i * dim_o + m]) for m in range(dim_o)
                       if row[i * dim_o + m]}) for i in range(spec.n)]

        rng = random.Random(item.check_seed)
        domega = form.d()
        for row in _sample_rows(rng, P):
            if domega.contract(derivation(row)):
                return False
        for row in _sample_rows(rng, Q):
            delta = derivation(row)
            value = algebra.AlgebraElement.zero(spec)
            for (i,), f in form.terms.items():
                value = value + f * delta[i]
            if value:
                return False
        return True

    def corrupt(self, item: ContactItem) -> None:
        item.expected = (item.expected[0] + 1, item.expected[1])


def _sample_rows(rng: random.Random, M) -> list:
    picks = rng.sample(range(M.shape[0]), min(CONTACT_CHECK_ROWS, M.shape[0]))
    return [M[r] for r in picks]


def make(name: str, workdir: Path, tracer):
    if name == "type1_grind":
        return Type1Grind()
    if name == "orbit_equiv":
        return OrbitEquiv(workdir, tracer)
    if name == "contact_split":
        return ContactSplit()
    raise ValueError(f"unknown workload {name!r}")
