import contextlib
import io
import itertools
import json
import random
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charpforms import cli, flagbilinear, gfp, grind
from charpforms.algebra import AlgebraElement, FlagSpec
from charpforms.classify import (SymplecticCandidate, invariants,
                                 normal_shape, random_form)
from charpforms.cli import main
from charpforms.forms import DiffForm
from charpforms.gfp import CheckFailed
from charpforms.groups import random_in
from charpforms.jsonio import (FormatError, automorphism_from_json,
                               automorphism_to_json, form_from_json,
                               form_to_json, invariants_from_json,
                               invariants_to_json)
from tests.test_classify import _rarely, _small_invariant_data


def write_form(tmp_path, cand, name="f.json"):
    path = tmp_path / name
    path.write_text(json.dumps(form_to_json(cand)))
    return str(path)


def test_form_json_roundtrip():
    s = FlagSpec(3, (1, 2))
    body = DiffForm(s, 2, {(0, 1): AlgebraElement.one(s) +
                           AlgebraElement.monomial(s, (2, 8), 2)})
    cand = SymplecticCandidate([1, 0], body)
    data = form_to_json(cand)
    back = form_from_json(json.loads(json.dumps(data)))
    assert isinstance(back, SymplecticCandidate)
    assert back.body == cand.body
    assert list(back.u_class) == [1, 0]
    # canonical ordering is stable
    assert form_to_json(back) == data


def test_automorphism_json_roundtrip():
    s = FlagSpec(3, (1, 1))
    rng = random.Random(0)
    sigma = random_in(rng, s, "G")
    data = automorphism_to_json(sigma)
    back = automorphism_from_json(json.loads(json.dumps(data)))
    assert back.images == sigma.images


def test_descriptor_and_invariants_json():
    s = FlagSpec(3, (1, 1))
    cand = SymplecticCandidate([0, 0], DiffForm(
        s, 2, {(0, 1): AlgebraElement.one(s)}))
    inv = invariants(cand)
    data = invariants_to_json(inv)
    back = invariants_from_json(json.loads(json.dumps(data)))
    assert back == inv
    t2 = random_form("type2", FlagSpec(3, (1, 1)), 5)
    inv2 = invariants(t2)
    assert invariants_from_json(json.loads(
        json.dumps(invariants_to_json(inv2)))) == inv2


_RECORD = {"label": {"kind": "finite", "top": [1], "bottom": [1]},
           "endo": None, "mult": 1}


def _type1(**change):
    """A one-record type-1 invariants object, with fields of the record
    (and of its label) replaced."""
    label = {**_RECORD["label"], **change.pop("label", {})}
    return {"kind": "type1", "descriptor": [{**_RECORD, "label": label, **change}]}


@pytest.mark.parametrize("data, field", [
    ({"kind": "type2", "invariants": {"l": 1, "grid": [[1]]}}, "k"),
    ({"kind": "type2", "invariants": {"k": 1, "grid": [[1]]}}, "l"),
    ({"kind": "contact", "invariants": {"grid": [[1]]}}, "k"),
    ({"kind": "contact", "invariants": {"k": True, "grid": [[1]]}}, "k"),
    ({"kind": "type1", "descriptor": [5]}, "descriptor[0]"),
    (_type1(label={"top": ["a"]}), "descriptor[0].label.top"),
    (_type1(label={"bottom": 2}), "descriptor[0].label.bottom"),
    (_type1(mult="x"), "descriptor[0].mult"),
    (_type1(mult=0), "descriptor[0].mult"),
    (_type1(endo=7), "descriptor[0].endo"),
    (_type1(endo=[1, True]), "descriptor[0].endo"),
    ({"kind": "type2", "invariants": {"k": 1, "l": 1, "grid": [["a"]]}}, "grid"),
    ({"kind": "contact", "invariants": {"k": 1, "grid": [1]}}, "grid"),
    (5, "kind")])
def test_invariants_from_json_missing_field(data, field):
    """A missing or malformed field raises FormatError naming it."""
    assert invariants_from_json(_type1())     # the unchanged record is valid
    with pytest.raises(FormatError) as ex:
        invariants_from_json(data)
    assert ex.value.field == field


def test_cli_check_and_invariants(tmp_path, capsys):
    s = FlagSpec(3, (1, 1))
    cand = SymplecticCandidate([0, 0], DiffForm(
        s, 2, {(0, 1): AlgebraElement.one(s)}))
    path = write_form(tmp_path, cand)
    assert main(["check", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "type1"
    assert main(["invariants", path]) == 0
    inv = json.loads(capsys.readouterr().out)
    assert inv["kind"] == "type1"
    # unrecognized form exits 1
    bad = SymplecticCandidate([0, 0], DiffForm(
        s, 2, {(0, 1): AlgebraElement.generator(s, 0)}))
    bpath = write_form(tmp_path, bad, "bad.json")
    assert main(["check", bpath]) == 1


def test_cli_malformed_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error" in err
    path2 = tmp_path / "badfield.json"
    path2.write_text(json.dumps({"p": 3, "heights": [1, 1], "degree": 2,
                                 "terms": [{"coeff": 1, "mono": [9, 0],
                                            "wedge": [1, 2]}]}))
    assert main(["check", str(path2)]) == 2
    assert "mono" in capsys.readouterr().err


def test_cli_wrong_degree_exits_2(tmp_path, capsys):
    """A form file of degree 0 or 3 is neither symplectic nor contact."""
    s = FlagSpec(3, (1, 1, 1))
    good = write_form(tmp_path, random_form("contact", s, 1), "good.json")
    zero = write_form(tmp_path, DiffForm(s, 0, {(): AlgebraElement.one(s)}),
                      "zero.json")
    three = write_form(tmp_path, DiffForm(s, 3, {(0, 1, 2): AlgebraElement.one(s)}),
                       "three.json")
    for path in (zero, three):
        assert main(["check", path]) == 2
        assert "error: degree: " in capsys.readouterr().err
        assert main(["equiv", good, path]) == 2
        err = capsys.readouterr().err
        assert "degree" in err and "Traceback" not in err


def test_cli_rejects_non_integer_fields(tmp_path, capsys):
    """true/false in an integer field exit 2; so do a fractional exponent,
    which used to be truncated silently, and a wedge index of mixed type,
    which used to raise TypeError."""
    s = FlagSpec(3, (1, 1, 1))
    data = form_to_json(random_form("contact", s, 1))
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path)]) == 0
    capsys.readouterr()
    first = data["terms"][0]
    for field, patch in [("degree", {"degree": True}),
                         ("p", {"p": True}),
                         ("heights", {"heights": [True, 1, 1]}),
                         ("u_class", {"u_class": [False, 0, 0]}),
                         ("coeff", {"terms": [dict(first, coeff=True)]}),
                         ("mono", {"terms": [dict(first, mono=[False, 0, 0])]}),
                         ("mono", {"terms": [dict(first, mono=[0.5, 0, 0])]}),
                         ("wedge", {"terms": [dict(first, wedge=[True])]})]:
        path.write_text(json.dumps(dict(data, **patch)))
        assert main(["check", str(path)]) == 2, field
        assert f"{field}: " in capsys.readouterr().err
    two = form_to_json(random_form("type1", FlagSpec(3, (1, 1)), 1))
    two["terms"][0]["wedge"] = ["a", 1]
    path.write_text(json.dumps(two))
    assert main(["check", str(path)]) == 2
    assert "wedge: " in capsys.readouterr().err
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps({"p": True, "flag_dims": [2], "matrix": [[0, 1], [-1, 0]]}))
    assert main(["flag-invariants", str(mat)]) == 2
    assert "<root>: " in capsys.readouterr().err


def test_cli_equiv_and_normalize(tmp_path, capsys):
    rng = random.Random(1)
    spec = FlagSpec(3, (1, 1))
    cand = random_form("type1", spec, 3)
    p1 = write_form(tmp_path, cand, "a.json")
    sigma = random_in(rng, cand.spec, "G")
    from charpforms.classify import apply_to_candidate
    moved = apply_to_candidate(sigma, cand)
    p2 = write_form(tmp_path, moved, "b.json")
    assert main(["equiv", p1, p2]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["equivalent"]
    # normalize both and compare files: canonical representatives agree
    o1 = str(tmp_path / "n1.json")
    o2 = str(tmp_path / "n2.json")
    assert main(["normalize", p1, "-o", o1]) == 0
    assert main(["normalize", p2, "-o", o2]) == 0
    capsys.readouterr()
    assert json.loads(open(o1).read()) == json.loads(open(o2).read())
    # idempotence at the file level
    o3 = str(tmp_path / "n3.json")
    assert main(["normalize", o1, "-o", o3]) == 0
    assert json.loads(open(o1).read()) == json.loads(open(o3).read())


def test_cli_inequivalent_exits_1(tmp_path, capsys):
    s = FlagSpec(3, (1, 1))
    a = SymplecticCandidate([0, 0], DiffForm(s, 2, {(0, 1): AlgebraElement.one(s)}))
    coeff = AlgebraElement.one(s) + AlgebraElement.monomial(s, (2, 2))
    b = SymplecticCandidate([0, 0], DiffForm(s, 2, {(0, 1): coeff}))
    p1 = write_form(tmp_path, a, "a.json")
    p2 = write_form(tmp_path, b, "b.json")
    assert main(["equiv", p1, p2]) == 1


def test_cli_random_deterministic(tmp_path, capsys):
    o1 = str(tmp_path / "r1.json")
    o2 = str(tmp_path / "r2.json")
    assert main(["random", "--kind", "contact", "--p", "3",
                 "--heights", "1,1,1", "--seed", "9", "-o", o1]) == 0
    assert main(["random", "--kind", "contact", "--p", "3",
                 "--heights", "1,1,1", "--seed", "9", "-o", o2]) == 0
    assert open(o1).read() == open(o2).read()
    # and the generated file is recognized
    assert main(["check", o1]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "contact"


def test_cli_cohomology(capsys):
    assert main(["cohomology", "--p", "3", "--heights", "1,1",
                 "--degree", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dim"] == 2
    assert out["classes"] == ["x1^(2)*dx1", "x2^(2)*dx2"]


def test_cli_flag_invariants(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"p": 3, "flag_dims": [1, 2],
                                "matrix": [[0, 1], [2, 0]]}))
    assert main(["flag-invariants", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["grid"] == [[0, 1], [1, 0]]


def test_cli_flag_invariants_rejects_non_alternating_matrix(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"p": 3, "flag_dims": [1, 2],
                                "matrix": [[0, 1], [1, 0]]}))
    assert main(["flag-invariants", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: matrix: form must be antisymmetric with "
                            "zero diagonal\n")


def test_cli_flag_invariants_rejects_composite_p(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"p": 4, "flag_dims": [1, 2],
                                "matrix": [[0, 1], [3, 0]]}))
    assert main(["flag-invariants", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: p: unsupported prime 4")


def test_cli_selftest(capsys):
    assert main(["selftest", "--p", "3", "--n", "2", "--seed", "4",
                 "--iters", "5"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_cli_selftest_failure_exits_3(monkeypatch, capsys):
    """A failing property is an internal fault: exit 3, not 2 (malformed
    input)."""
    h_class = cli.h_class
    monkeypatch.setattr(cli, "h_class", lambda omega: h_class(omega) + 1)
    assert main(["selftest", "--p", "3", "--n", "2", "--seed", "4",
                 "--iters", "1"]) == 3
    out = capsys.readouterr().out
    assert "FAIL cohomology classes" in out
    assert "PASS exactness solver round trip" in out


def test_cli_internal_check_failure_exits_3(tmp_path, monkeypatch, capsys):
    """A failed internal check exits 3 with a diagnostic, never 1 (a
    negative decision) with a traceback."""
    path = write_form(tmp_path, random_form("type1", FlagSpec(3, (1, 1)), 1))

    def broken(cand):
        raise CheckFailed("grinding lost dimensions")

    monkeypatch.setattr(cli, "recognize", broken)
    assert main(["check", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal check failed: grinding lost dimensions\n"


def test_cli_singular_induced_map_exits_3(tmp_path, monkeypatch, capsys):
    """A singular induced map inside the grind can only come from a fault
    in the program, so `invariants` exits 3, not 2 (malformed input)."""
    path = write_form(tmp_path, random_form("type1", FlagSpec(3, (1, 2)), 1))
    monkeypatch.setattr(gfp.Factor, "project_vectors",
                        lambda self, vecs: gfp.zeros(len(vecs), self.dim))
    assert main(["invariants", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: internal check failed: "
                            "nu is not an isomorphism of factors\n")


def test_cli_singular_cycle_map_exits_3(tmp_path, monkeypatch, capsys):
    """A singular cycle map can only come from a fault in the program, so
    `invariants` exits 3, not 2 (malformed input)."""
    desc = Counter({grind.Indecomposable(True, (1,), (1,), (1, 1)): 1})
    path = write_form(tmp_path, normal_shape(desc, 3))
    monkeypatch.setattr(grind, "_walk_map",
                        lambda rep, start, steps: gfp.zeros(rep.dim[start], rep.dim[start]))
    assert main(["invariants", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: internal check failed: "
                            "cycle endomorphism is singular\n")


def test_cli_crash_exits_3(tmp_path, monkeypatch, capsys):
    """Any other uncaught exception is a fault in the program: exit 3 with
    a one-line diagnostic, never 1 (a negative decision)."""
    path = write_form(tmp_path, random_form("type1", FlagSpec(3, (1, 1)), 1))

    def broken(cand):
        raise IndexError("index 4 is out of bounds")

    monkeypatch.setattr(cli, "recognize", broken)
    assert main(["check", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal error: IndexError: index 4 is out of bounds\n"


@pytest.mark.parametrize("field, patch", [
    ("flag_dims", {"flag_dims": [True, 2]}),
    ("flag_dims", {"flag_dims": [1, 2.0]}),
    ("matrix", {"matrix": [[0, 1], [2, False]]}),
    ("matrix", {"matrix": [[0, 1.5], [2, 0]]}),
    ("matrix", {"matrix": [[0, 1], "20"]}),
    ("flag_dims", {"flag_dims": []}),
    ("flag_dims", {"flag_dims": [2, 1]}),
    ("flag_dims", {"flag_dims": [-1, 2]})])
def test_cli_flag_invariants_rejects_non_integer_entries(tmp_path, capsys,
                                                         field, patch):
    """Non-integer entries, and flag dimensions that are empty, negative or
    decreasing (an empty list used to raise IndexError, exit 1)."""
    path = tmp_path / "m.json"
    data = {"p": 3, "flag_dims": [1, 2], "matrix": [[0, 1], [2, 0]]}
    path.write_text(json.dumps(dict(data, **patch)))
    assert main(["flag-invariants", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field}: ")


def test_cli_integers_past_int64_read_mod_p(tmp_path, capsys):
    """u-class and matrix entries past int64 read mod p, as small ones do;
    both used to exit 3 with an OverflowError."""
    shifts = (0, 3 * 10 ** 30, -3 * 10 ** 23)
    form = form_to_json(random_form("type2", FlagSpec(3, (1, 1)), 1))
    outs = []
    for shift in shifts:
        path = tmp_path / "f.json"
        path.write_text(json.dumps(dict(form, u_class=[u + shift for u in
                                                       form["u_class"]])))
        assert main(["check", str(path)]) == 0
        assert main(["invariants", str(path)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs == outs[:1] * len(shifts)
    for shift in shifts:
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"p": 3, "flag_dims": [1, 2], "matrix":
                                    [[0, 1 + shift], [2 - shift, 0]]}))
        assert main(["flag-invariants", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["grid"] == [[0, 1], [1, 0]]


@pytest.mark.parametrize("entry", [2 ** 63, -2 ** 63 - 1, 10 ** 30])
def test_normal_shape_rejects_grid_entries_past_int64(entry):
    """A grid entry that int64 cannot hold names `grid`; it used to raise
    OverflowError."""
    for kind, rec in (("type2", {"k": 1, "l": 1}), ("contact", {"k": 1})):
        inv = invariants_from_json({"kind": kind,
                                    "invariants": dict(rec, grid=[[entry]])})
        with pytest.raises(FormatError) as ex:
            normal_shape(inv, 3)
        assert ex.value.field == "grid"


def test_cli_main_twice_in_one_process(tmp_path, capsys):
    """The parser is built once per process; verbs, help text and usage
    errors do not depend on which verb ran before."""
    coh = ["cohomology", "--p", "3", "--heights", "1,1", "--degree", "1"]
    assert main(coh) == 0
    first = capsys.readouterr().out
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"p": 3, "flag_dims": [1, 2],
                                "matrix": [[0, 1], [2, 0]]}))
    assert main(["flag-invariants", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["grid"] == [[0, 1], [1, 0]]
    assert main(coh) == 0
    assert capsys.readouterr().out == first
    for argv, code in ((["--help"], 0), (["random", "--p", "3"], 2)):
        seen = []
        for _ in range(2):
            with pytest.raises(SystemExit) as ex:
                main(argv)
            assert ex.value.code == code
            seen.append(capsys.readouterr())
        assert seen[0] == seen[1]


def form_by_terms(spec, degree, records):
    """Reference reader: one single-term form per record, summed."""
    out = DiffForm(spec, degree, {})
    for t in records:
        I = tuple(i - 1 for i in t["wedge"])
        piece = AlgebraElement(spec, {tuple(t["mono"]): t["coeff"]})
        out = out + DiffForm(spec, degree, {I: piece})
    return out


def _form_of(cand):
    return getattr(cand, "body", getattr(cand, "form", cand))


@st.composite
def form_records(draw):
    """A form file whose term list repeats (wedge, mono) pairs drawn from a
    small pool, with negative and out-of-range coefficients, and then
    cancels every term of some wedges (possibly all of them)."""
    p = draw(st.sampled_from([2, 3, 5, 13]))
    heights = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    spec = FlagSpec(p, heights)
    degree = draw(st.integers(0, spec.n))
    wedges = [tuple(w) for w in itertools.combinations(range(1, spec.n + 1), degree)]
    monos = st.tuples(*(st.integers(0, cap - 1) for cap in spec.caps))
    pool = draw(st.lists(st.tuples(st.sampled_from(wedges), monos),
                         min_size=1, max_size=4))
    records = [{"wedge": list(w), "mono": list(m),
                "coeff": draw(st.integers(-2 * p, 2 * p))}
               for w, m in draw(st.lists(st.sampled_from(pool), max_size=10))]
    cancel = draw(st.sets(st.sampled_from(wedges)))
    records += [dict(t, coeff=-t["coeff"]) for t in records
                if tuple(t["wedge"]) in cancel]
    records = draw(st.permutations(records))
    return {"p": p, "heights": heights, "degree": degree, "terms": records}


@settings(max_examples=300, deadline=None)
@given(form_records(), st.data())
def test_form_from_json_matches_per_term_reference(data, draw):
    spec = FlagSpec(data["p"], tuple(data["heights"]))
    want = form_by_terms(spec, data["degree"], data["terms"])
    got = _form_of(form_from_json(data))
    assert got == want
    if data["terms"]:
        # a bad term keeps its own index in the diagnostic
        i = draw.draw(st.integers(0, len(data["terms"]) - 1))
        for key, value in (("mono", [spec.caps[0]] + [0] * (spec.n - 1)),
                           ("mono", [0] * (spec.n + 1)), ("coeff", 1.5)):
            bad = [dict(t) for t in data["terms"]]
            bad[i][key] = value
            with pytest.raises(FormatError) as ex:
                form_from_json(dict(data, terms=bad))
            assert ex.value.field == f"terms[{i}].{key}"


@pytest.mark.parametrize("root", [[1, 2], "matrix", 3])
def test_cli_flag_invariants_rejects_non_object_root(tmp_path, capsys, root):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(root))
    assert main(["flag-invariants", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: <root>: expected an object\n"


@pytest.mark.parametrize("argv, field", [
    (["bruteforce-flagforms", "--p", "2", "--dims", "2,1"], "dims"),
    (["bruteforce-flagforms", "--p", "2", "--dims=-1,2"], "dims"),
    (["bruteforce-flagforms", "--p", "2", "--dims", "1,x"], "dims"),
    (["cohomology", "--p", "3", "--heights", "1,x", "--degree", "1"], "heights"),
    (["random", "--kind", "type1", "--p", "3", "--heights", "1,x"], "heights")])
def test_cli_malformed_lists_exit_2(capsys, argv, field):
    """Malformed --dims / --heights exit 2 naming the option; a decreasing
    or negative flag used to print a report and exit 1 (a negative
    decision)."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field}: ")


def test_cli_bruteforce_repeated_dims(capsys):
    """A repeated dimension is a flag with a zero factor, not an error."""
    assert main(["bruteforce-flagforms", "--p", "2", "--dims", "1,1"]) == 0
    assert json.loads(capsys.readouterr().out)["fibers_match_orbits"]


@pytest.mark.parametrize("dims", ["8", "4,8", "1,2,3,4,5,6,7,8"])
def test_cli_bruteforce_size_guard_before_enumerating(monkeypatch, capsys, dims):
    """A flag too big to enumerate exits 2 naming the size guard without
    building a single form; the guard used to run only after every form
    was in memory (a MemoryError under a 600 MB cap at --dims 8)."""
    def no_forms(p, d):
        raise AssertionError("all_antisymmetric was iterated")
        yield

    monkeypatch.setattr(flagbilinear, "all_antisymmetric", no_forms)
    assert main(["bruteforce-flagforms", "--p", "2", "--dims", dims]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: form enumeration exceeds the size guard\n"
    with pytest.raises(ValueError, match="size guard"):
        flagbilinear.grid_fibers(2, [int(d) for d in dims.split(",")])


@pytest.mark.parametrize("p, dims", [("2", "1,2,3,4,5,6"), ("3", "1,2,3,4,5")])
def test_cli_bruteforce_work_guard_before_enumerating(monkeypatch, capsys, p, dims):
    """Forms and stabilizer candidates each pass their own bound here, but
    candidate tests plus orbit-loop products do not: exit 2 before a single
    stabilizer candidate is built (p = 2 used to run 89.5 s)."""
    def no_group(p, dims):
        raise AssertionError("flag_stabilizer was iterated")
        yield

    monkeypatch.setattr(flagbilinear, "flag_stabilizer", no_group)
    assert main(["bruteforce-flagforms", "--p", p, "--dims", dims]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: orbit enumeration exceeds the size guard\n"


@pytest.mark.parametrize("argv, field", [
    (["random", "--kind", "type1", "--p", "3", "--heights", "0,1"], "heights"),
    (["cohomology", "--p", "3", "--heights", "0,1", "--degree", "1"], "heights"),
    (["random", "--kind", "type1", "--p", "4", "--heights", "1,1"], "p"),
    (["cohomology", "--p", "4", "--heights", "1,1", "--degree", "1"], "p"),
    (["selftest", "--p", "4", "--iters", "1"], "p"),
    (["bruteforce-flagforms", "--p", "4", "--dims", "1,2"], "p")])
def test_cli_bad_p_or_heights_name_the_field(capsys, argv, field):
    """A height below 1 or an unsupported prime exits 2 naming its option;
    both used to print the bare FlagSpec/check_prime message."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field}: ")


@pytest.mark.parametrize("argv, field", [
    (["--iters", "0"], "iters"), (["--iters", "-2"], "iters"),
    (["--n", "0"], "n"), (["--n", "-3"], "n")])
def test_cli_selftest_rejects_empty_runs(capsys, argv, field):
    """No iterations would print PASS for properties never tested, and a
    nonpositive n used to become 1 silently: both exit 2 naming the option."""
    assert main(["selftest", "--p", "3", "--seed", "4"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field}: ")


def test_cli_form_file_with_bad_p_names_p(tmp_path, capsys):
    """An unsupported prime in a form file is reported as `p`, not as
    `heights`."""
    data = form_to_json(random_form("type1", FlagSpec(3, (1, 1)), 1))
    path = tmp_path / "f.json"
    path.write_text(json.dumps(dict(data, p=4)))
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: p: unsupported prime 4")


# dx3 + x1 dx2 at p = 2 (contact is undefined there), and the type-2 body
# dx1 ^ dx2 with u-class (1, 0) at p = 2 over a height-1 variable
P2_CONTACT = {"p": 2, "heights": [1, 1, 1], "degree": 1, "terms": [
    {"wedge": [3], "mono": [0, 0, 0], "coeff": 1},
    {"wedge": [2], "mono": [1, 0, 0], "coeff": 1}]}
P2_TYPE2 = {"p": 2, "heights": [1, 1], "degree": 2, "u_class": [1, 0],
            "terms": [{"wedge": [1, 2], "mono": [0, 0], "coeff": 1}]}


@pytest.mark.parametrize("verb", ["check", "invariants", "normalize", "equiv"])
@pytest.mark.parametrize("data, field", [(P2_CONTACT, "p"),
                                         (P2_TYPE2, "heights")])
def test_cli_form_outside_the_classification_names_the_field(
        tmp_path, capsys, verb, data, field):
    """A contact form at p = 2, or a type-2 form at p = 2 with a height-1
    variable, exits 2 naming `p` or `heights`; both used to print the bare
    classify message."""
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
    files = [str(path)] * (2 if verb == "equiv" else 1)
    assert main([verb] + files) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field}: ")


@pytest.mark.parametrize("kind, p, heights, field", [
    ("contact", "2", "1,1,1", "p"), ("type2", "2", "1,1", "heights"),
    ("type2", "2", "2,1", "heights"), ("type1", "3", "1", "heights"),
    ("type2", "3", "1", "heights"), ("contact", "3", "1,1", "heights")])
def test_cli_random_outside_the_classification_names_the_field(
        capsys, kind, p, heights, field):
    """`random` for a kind that has no forms at this p or these heights
    exits 2 naming the option."""
    assert main(["random", "--kind", kind, "--p", p, "--heights", heights]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field}: ")


@pytest.mark.parametrize("dims, matrix", [
    ([1, 3], [[0, 1], [2, 0]]),
    ([1, 2], [[0, 1, 0], [2, 0, 0], [0, 0, 0]]),
    ([1, 2], [[0, 1], [2]]),
    ([1, 2], [[0, 1], [2, 0, 1]]),
    ([1, 2], [[0, 1]]),
    ([0], [[0]])])
def test_cli_flag_invariants_matrix_shape(tmp_path, capsys, dims, matrix):
    """The matrix must be square of size flag_dims[-1]; a mismatch used to
    report "flag must run from 0 to the full space" and ragged rows raised
    numpy's inhomogeneous-shape error."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"p": 3, "flag_dims": dims, "matrix": matrix}))
    assert main(["flag-invariants", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: matrix: ")


# ---------------------------------------------------------------------------
# Fuzzing the form readers and the verbs with mutated golden-corpus files.
# ---------------------------------------------------------------------------

_CORPUS = json.loads((Path(__file__).parent / "golden" / "cli_corpus.json").read_text())
_FORM_FILES = sorted({rec["file"] for rec in _CORPUS.values() if "file" in rec})
_JUNK = st.sampled_from(["x", 1.5, [], {}, None, True, False, -1, 0, 4, 17,
                         10 ** 6, [True], [0], ["x"], [[1]]])
_ENTRY = st.sampled_from([-1, 0, 1, 2, 3, 99, True, False, "x", None, 1.5, [0]])


@st.composite
def _mutated_form(draw):
    """A golden-corpus form file with one field replaced by a wrong type, a
    boolean, an out-of-range value or nothing; one `mono`, `wedge` or
    `coeff` entry of a term changed; or its heights or degree changed."""
    form = json.loads(draw(st.sampled_from(_FORM_FILES)))
    how = draw(st.sampled_from(["field", "term", "term", "heights", "degree"]))
    if how == "field":
        key = draw(st.sampled_from(sorted(form)))
        if draw(st.booleans()):
            del form[key]
        else:
            form[key] = draw(_JUNK)
    elif how == "term" and form["terms"]:
        term = form["terms"][draw(st.integers(0, len(form["terms"]) - 1))]
        part = draw(st.sampled_from(["mono", "wedge", "coeff"]))
        action = draw(st.sampled_from(["replace", "entry", "entry", "append"]))
        if part == "coeff" or action == "replace":
            term[part] = draw(st.one_of(_JUNK, _ENTRY))
        elif action == "entry" and term[part]:
            term[part][draw(st.integers(0, len(term[part]) - 1))] = draw(_ENTRY)
        else:
            term[part].append(draw(st.integers(0, 3)))
    elif how == "heights":
        heights = form["heights"]
        at = draw(st.integers(0, len(heights)))
        if at == len(heights):
            heights.append(draw(st.integers(1, 3)))
        elif draw(st.booleans()):
            heights[at] = draw(st.one_of(st.integers(-1, 3), st.just(True)))
        else:
            del heights[at]
    else:
        form["degree"] = draw(st.integers(-1, 4))
    return form


def _verb_exit(argv) -> int:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, err)
    if code == 2:
        assert re.search(r"^error: \S+: ", err, re.M), err
    return code


@settings(max_examples=500, deadline=None)
@given(_mutated_form(), st.sampled_from(_FORM_FILES))
def test_fuzz_verbs_on_mutated_form_files(tmp_path_factory, form, other):
    """Every verb answers a mutated form file with exit 0, 1 or 2 (with an
    `error: <field>: ` line), never with the exit 3 of a program fault."""
    tmp = tmp_path_factory.mktemp("fuzz")
    bad, good = tmp / "bad.json", tmp / "good.json"
    bad.write_text(json.dumps(form))
    good.write_text(other)
    for verb in ("check", "invariants", "normalize"):
        _verb_exit([verb, str(bad)])
    _verb_exit(["equiv", str(bad), str(good)])
    _verb_exit(["equiv", str(good), str(bad)])


_AUTOMORPHISMS = [automorphism_to_json(random_in(random.Random(seed), FlagSpec(p, h), "G"))
                  for seed, p, h in [(1, 2, (1, 2)), (2, 3, (1, 1)), (3, 5, (1,))]]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_AUTOMORPHISMS), st.data())
def test_fuzz_automorphism_from_json_on_mutated_images(record, data):
    """A mutated image list reads as an automorphism or raises FormatError."""
    images = json.loads(json.dumps(record["images"]))
    how = data.draw(st.sampled_from(["list", "image", "term"]))
    at = data.draw(st.integers(0, len(images) - 1))
    if how == "list":
        images = data.draw(st.one_of(_JUNK, st.just(images[:-1]),
                                     st.just(images + images[:1])))
    elif how == "image" or not images[at]:
        images[at] = data.draw(_JUNK)
    else:
        term = images[at][data.draw(st.integers(0, len(images[at]) - 1))]
        part = data.draw(st.sampled_from(["mono", "coeff"]))
        if part == "mono" and data.draw(st.booleans()):
            term["mono"][data.draw(st.integers(0, len(term["mono"]) - 1))] = \
                data.draw(_ENTRY)
        else:
            term[part] = data.draw(st.one_of(_JUNK, _ENTRY))
    try:
        automorphism_from_json(dict(record, images=images))
    except FormatError:
        pass


# Replacements that keep every size small: a datum read whole from such a
# file names at most a few more variables than the one it was mutated from.
_SMALL_JUNK = st.sampled_from(["x", 1.5, [], {}, None, True, False, -1, 0, 1,
                               2, 3, [True], [0], ["x"], [[1]], [2, 2]])
# Integers that int64 cannot hold: a datum reads them mod p or rejects them.
# They replace no type-1 height or multiplicity, which have no size bound.
_HUGE = st.sampled_from([2 ** 63, -2 ** 63 - 1, 3 * 2 ** 64, -(10 ** 30)])


def _json_nodes(doc, path=()) -> list:
    """(container, key, path) of every value nested in a JSON document, path
    the keys from the root to the container."""
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    out = []
    for key, val in items:
        out.append((doc, key, path))
        out.extend(_json_nodes(val, path + (key,)))
    return out


@settings(max_examples=300, deadline=None)
@given(_small_invariant_data(), st.data())
def test_fuzz_invariants_from_json_into_normal_shape(datum, data):
    """A mutated invariants file reads into a datum whose normal shape has
    that datum as its invariants, or raises FormatError on the way."""
    p, inv = datum
    doc = invariants_to_json(inv)
    for _ in range(data.draw(st.integers(0, 2))):
        container, key, path = data.draw(st.sampled_from(_json_nodes(doc)))
        sized = key == "mult" or {"top", "bottom"} & set(path)
        if data.draw(st.booleans()):
            del container[key]
        elif not sized and data.draw(st.booleans()):
            container[key] = data.draw(_HUGE)
        else:
            container[key] = json.loads(json.dumps(data.draw(_SMALL_JUNK)))
    try:
        read = invariants_from_json(doc)
        cand = normal_shape(read, p)
    except FormatError:
        return
    assert invariants(cand) == read


# ---------------------------------------------------------------------------
# Fuzzing the option values of the verbs that take no form file.  Primes,
# heights and dims stay small, so that every valid draw answers in well
# under a second; argparse's own rejection of a non-integer exits 2 too.
# ---------------------------------------------------------------------------

_INT_JUNK = st.sampled_from(["", "x", "1.5", "2.0", "1e1", "0x3", " 3", "+3",
                             "٣", "True"])


@st.composite
def _int_text(draw, lo: int, hi: int, bad=st.integers(-2, 0)):
    """An integer option value in lo..hi; rarely one from bad, or junk."""
    if _rarely(draw):
        return str(draw(bad)) if draw(st.booleans()) else draw(_INT_JUNK)
    return str(draw(st.integers(lo, hi)))


@st.composite
def _list_text(draw, lo: int, hi: int, size: int):
    """A comma-separated option value of such integers, rarely empty."""
    items = draw(st.lists(_int_text(lo, hi), min_size=0 if _rarely(draw) else 1,
                          max_size=size))
    return ",".join(items)


_PRIME = _int_text(2, 5, bad=st.sampled_from([-1, 0, 1, 4, 6, 13]))


def _option_exit(argv) -> int:
    try:
        return _verb_exit(argv)
    except SystemExit as ex:                # argparse rejected a value
        assert ex.code == 2, argv
        return 2


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["type1", "type2", "contact"]), _PRIME,
       _list_text(1, 2, 3), st.one_of(st.none(), _int_text(-5, 10 ** 20)))
def test_fuzz_random_options(kind, p, heights, seed):
    argv = ["random", "--kind", kind, "--p", p, "--heights", heights]
    _option_exit(argv + ([] if seed is None else ["--seed", seed]))


@settings(max_examples=200, deadline=None)
@given(_PRIME, _list_text(1, 2, 4), _int_text(0, 4, bad=st.sampled_from([-1, 5])))
def test_fuzz_cohomology_options(p, heights, degree):
    _option_exit(["cohomology", "--p", p, "--heights", heights,
                  "--degree", degree])


@settings(max_examples=100, deadline=None)
@given(_int_text(2, 3, bad=st.sampled_from([-1, 0, 1, 4])), _list_text(0, 3, 3))
def test_fuzz_bruteforce_options(p, dims):
    _option_exit(["bruteforce-flagforms", "--p", p, "--dims", dims])


@st.composite
def _flag_matrix_record(draw):
    """A flag-invariants record over F_p, p <= 5 and dim <= 3: mostly an
    alternating matrix on a nondecreasing flag, rarely a field missing or
    junk, an unsorted flag, a ragged or misshapen matrix or a matrix that
    is not alternating."""
    p = draw(st.sampled_from([2, 3, 5]))
    dims = sorted(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)))
    if _rarely(draw):
        dims = draw(st.permutations(dims))
    n = dims[-1] + (draw(st.sampled_from([-1, 1])) if _rarely(draw) else 0)
    M = [[0] * max(n, 0) for _ in range(max(n, 0))]
    for i in range(n):
        for j in range(i + 1, n):
            M[i][j] = draw(st.integers(0, p - 1))
            M[j][i] = -M[i][j] % p
    if M and _rarely(draw):
        M[0][-1] += 1
    if M and _rarely(draw):
        M[-1] = M[-1][:-1]
    record = {"p": p, "flag_dims": list(dims), "matrix": M}
    if _rarely(draw):
        key = draw(st.sampled_from(sorted(record)))
        if draw(st.booleans()):
            del record[key]
        else:
            record[key] = draw(_SMALL_JUNK)
    return record


@settings(max_examples=200, deadline=None)
@given(_flag_matrix_record())
def test_fuzz_flag_invariants_file(tmp_path_factory, record):
    path = tmp_path_factory.mktemp("fuzz") / "m.json"
    path.write_text(json.dumps(record))
    _option_exit(["flag-invariants", str(path)])
