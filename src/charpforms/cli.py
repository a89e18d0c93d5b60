"""Command-line front end.

Verbs: check, invariants, normalize, equiv, cohomology, selftest,
bruteforce-flagforms, flag-invariants, random.  JSON in, JSON out, canonical
term ordering; exit 0 on success/recognized/equivalent, 1 on a negative
decision, 2 on malformed input, 3 when an internal check fails (a fault in
the program; `selftest` also exits 3 when a property fails).  CARTAN_SEED
overrides the default seed.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

import numpy as np

from .algebra import FlagSpec
from .classify import (equivalent, invariants, normal_shape, random_form,
                       recognize)
from .flagbilinear import (admissible_grids, brute_force_orbit_partition,
                           flagged_from_dims, grid_fibers, invariants_nqt)
from .forms import (DiffForm, cohomology_basis, cohomology_dims, h_class,
                    h_class_to_form, is_exact_with_potential, render_form)
from .gfp import CheckFailed
from .jsonio import (FormatError, _ints, check_p, form_from_json,
                     form_to_json, invariants_to_json, make_spec)


def _read_json(path: str) -> dict:
    """The JSON object in the file at path."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as ex:
        raise FormatError(path, str(ex))
    except json.JSONDecodeError as ex:
        raise FormatError(f"{path}:{ex.lineno}", ex.msg)
    if not isinstance(data, dict):
        raise FormatError("<root>", "expected an object")
    return data


def _emit(data, path: str | None = None) -> None:
    """Canonical JSON (sorted keys, indent 2) to the file at path, or to
    stdout."""
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _int_list(text: str, field: str) -> list:
    """The integers of a comma-separated option value."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise FormatError(field, f"expected comma-separated integers, got {text!r}")


def _flag_dims(dims, field: str) -> list:
    """Cumulative flag dimensions: a nonempty, nondecreasing list of
    integers >= 0."""
    if not dims or not _ints(dims) or dims[0] < 0 or \
            any(a > b for a, b in zip(dims, dims[1:])):
        raise FormatError(field, "expected a nonempty nondecreasing list of "
                                 "integers >= 0")
    return dims


def _load_form(path: str):
    cand = form_from_json(_read_json(path))
    if isinstance(cand, DiffForm):
        raise FormatError("degree", f"expected 1 (contact) or 2 (symplectic), "
                                    f"got {cand.degree}")
    return cand


def cmd_check(args) -> int:
    cand = _load_form(args.form)
    kind = recognize(cand)
    _emit({"kind": kind})
    return 0 if kind != "no" else 1


def cmd_invariants(args) -> int:
    cand = _load_form(args.form)
    if recognize(cand) == "no":
        _emit({"kind": "no"})
        return 1
    _emit(invariants_to_json(invariants(cand)))
    return 0


def cmd_normalize(args) -> int:
    cand = _load_form(args.form)
    if recognize(cand) == "no":
        _emit({"kind": "no"})
        return 1
    shape = normal_shape(invariants(cand), cand.spec.p)
    _emit(form_to_json(shape), args.output)
    return 0


def cmd_equiv(args) -> int:
    a = _load_form(args.form_a)
    b = _load_form(args.form_b)
    ok, report = equivalent(a, b)
    _emit({"equivalent": ok, "report": report})
    return 0 if ok else 1


def cmd_cohomology(args) -> int:
    heights = _int_list(args.heights, "heights")
    spec = make_spec(args.p, heights)
    dims = cohomology_dims(spec)
    k = args.degree
    if k < 0 or k > spec.n:
        raise FormatError("degree", f"outside 0..{spec.n}")
    classes = [render_form(z) for z in cohomology_basis(spec, k)]
    _emit({"p": spec.p, "heights": heights, "degree": k,
           "dim": dims[k], "classes": classes})
    return 0


def cmd_bruteforce(args) -> int:
    check_p(args.p)
    dims = _flag_dims(_int_list(args.dims, "dims"), "dims")
    orbits = brute_force_orbit_partition(args.p, dims)
    fibers = grid_fibers(args.p, dims)
    agree = sorted(map(sorted, orbits)) == sorted(map(sorted, fibers.values()))
    fd = [dims[0]] + [b - a for a, b in zip(dims, dims[1:])]
    grids = list(admissible_grids(fd))
    _emit({"p": args.p, "flag_dims": dims, "orbits": len(orbits),
           "admissible_grids": len(grids), "fibers_match_orbits": agree})
    return 0 if agree and len(orbits) == len(grids) else 1


def cmd_flag_invariants(args) -> int:
    data = _read_json(args.matrix)
    p = data.get("p")
    dims = data.get("flag_dims")
    mat = data.get("matrix")
    if not isinstance(p, int) or isinstance(p, bool) \
            or not isinstance(dims, list) or not isinstance(mat, list):
        raise FormatError("<root>", "need p, flag_dims, matrix")
    check_p(p)
    n = _flag_dims(dims, "flag_dims")[-1]
    if len(mat) != n or not all(isinstance(row, list) and len(row) == n
                                and _ints(row) for row in mat):
        raise FormatError("matrix", f"expected {n} integer rows of length {n} "
                                    f"(the last flag dimension)")
    b = np.array([[x % p for x in row] for row in mat], dtype=np.int64)
    try:
        fb = flagged_from_dims(p, dims, b.reshape(n, n))
    except ValueError as ex:            # the only check left: b alternating
        raise FormatError("matrix", str(ex))
    grid = invariants_nqt(fb)
    _emit({"p": p, "flag_dims": dims, "grid": grid.tolist()})
    return 0


def cmd_random(args) -> int:
    spec = make_spec(args.p, _int_list(args.heights, "heights"))
    seed = args.seed if args.seed is not None else _default_seed()
    _emit(form_to_json(random_form(args.kind, spec, seed)), args.output)
    return 0


def _default_seed() -> int:
    return int(os.environ.get("CARTAN_SEED", "12061986"))


def cmd_selftest(args) -> int:
    import itertools
    import random as _random
    from .algebra import AlgebraElement, random_element
    from .classify import apply_to_candidate
    from .groups import random_in

    seed = args.seed if args.seed is not None else _default_seed()
    rng = _random.Random(seed)
    p = args.p
    check_p(p)
    for field in ("n", "iters"):
        value = getattr(args, field)
        if value < 1:
            raise FormatError(field, f"expected an integer >= 1, got {value}")
    n = args.n
    heights = tuple(rng.choice([1, 2]) for _ in range(n))
    spec = FlagSpec(p, heights)
    failures = 0

    def report(name, ok):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        failures += 0 if ok else 1

    ok = True
    for _ in range(args.iters):
        f = random_element(rng, spec, 2)
        g = random_element(rng, spec, 2)
        lhs = (f + g).dp_free(p)
        rhs = AlgebraElement.zero(spec)
        for i in range(p + 1):
            rhs = rhs + f.dp_free(i).mul_free(g.dp_free(p - i))
        ok = ok and lhs == rhs and not f.mul_free(g).dp_free(p)
    report("divided power identities", ok)

    ok = True
    for _ in range(args.iters):
        for k in range(1, min(2, spec.n) + 1):
            # omega = d(phi) + sum c_I z_I is closed with class c
            phi = DiffForm(spec, k - 1, {
                I: random_element(rng, spec, 2, in_m=False)
                for I in itertools.combinations(range(spec.n), k - 1)})
            basis = cohomology_basis(spec, k)
            c = [rng.randrange(p) for _ in basis]
            omega = phi.d()
            for ci, z in zip(c, basis):
                omega = omega + z.scale(ci)
            rest = omega - h_class_to_form(spec, k, c)
            ok = ok and [int(x) for x in h_class(omega)] == c \
                and is_exact_with_potential(rest) is not None \
                and (not any(c) or is_exact_with_potential(omega) is None)
    report("cohomology classes", ok)

    from .forms import d_element
    ok = True
    for _ in range(args.iters):
        f = random_element(rng, spec, 3, in_m=False)
        omega = d_element(f)
        phi = is_exact_with_potential(omega)
        ok = ok and phi is not None and phi.d() == omega
    report("exactness solver round trip", ok)

    ok = True
    even = spec if spec.n % 2 == 0 else FlagSpec(p, heights + (1,))
    for trial in range(max(1, args.iters // 5)):
        cand = random_form("type1", even, seed + trial)
        sigma = random_in(rng, cand.spec, "G")
        moved = apply_to_candidate(sigma, cand)
        same, _ = equivalent(cand, moved)
        ok = ok and same
    report("type-1 orbit invariance", ok)
    return 3 if failures else 0


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    ap = argparse.ArgumentParser(prog="charpforms",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="verb", required=True)

    s = sub.add_parser("check", help="recognize a form file")
    s.add_argument("form")
    s.set_defaults(fn=cmd_check)

    s = sub.add_parser("invariants", help="complete conjugacy invariants")
    s.add_argument("form")
    s.set_defaults(fn=cmd_invariants)

    s = sub.add_parser("normalize", help="emit the canonical normal shape")
    s.add_argument("form")
    s.add_argument("-o", "--output")
    s.set_defaults(fn=cmd_normalize)

    s = sub.add_parser("equiv", help="decide equivalence of two form files")
    s.add_argument("form_a")
    s.add_argument("form_b")
    s.set_defaults(fn=cmd_equiv)

    s = sub.add_parser("cohomology", help="de Rham dimensions and classes")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--heights", required=True)
    s.add_argument("--degree", type=int, required=True)
    s.set_defaults(fn=cmd_cohomology)

    s = sub.add_parser("selftest", help="run the property suites")
    s.add_argument("--p", type=int, default=3)
    s.add_argument("--n", type=int, default=2)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--iters", type=int, default=25)
    s.set_defaults(fn=cmd_selftest)

    s = sub.add_parser("bruteforce-flagforms",
                       help="exhaustive orbit/invariant cross-check")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--dims", required=True)
    s.set_defaults(fn=cmd_bruteforce)

    s = sub.add_parser("flag-invariants", help="invariant grid of a matrix")
    s.add_argument("matrix")
    s.set_defaults(fn=cmd_flag_invariants)

    s = sub.add_parser("random", help="generate a recognized random form")
    s.add_argument("--kind", required=True,
                   choices=["type1", "type2", "contact"])
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--heights", required=True)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("-o", "--output")
    s.set_defaults(fn=cmd_random)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as ex:      # FormatError is a ValueError
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except CheckFailed as ex:
        print(f"error: internal check failed: {ex}", file=sys.stderr)
        return 3
    except Exception as ex:                 # a crash is never a negative decision
        print(f"error: internal error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
