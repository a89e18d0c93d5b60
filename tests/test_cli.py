import json
import random

import pytest

from charpforms.algebra import AlgebraElement, FlagSpec
from charpforms.classify import (SymplecticCandidate, invariants,
                                 random_form)
from charpforms.cli import main
from charpforms.forms import DiffForm
from charpforms.groups import random_in
from charpforms.jsonio import (FormatError, automorphism_from_json,
                               automorphism_to_json, form_from_json,
                               form_to_json, invariants_from_json,
                               invariants_to_json)


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


@pytest.mark.parametrize("data, field", [
    ({"kind": "type2", "invariants": {"l": 1, "grid": [[1]]}}, "k"),
    ({"kind": "type2", "invariants": {"k": 1, "grid": [[1]]}}, "l"),
    ({"kind": "contact", "invariants": {"grid": [[1]]}}, "k"),
    ({"kind": "contact", "invariants": {"k": True, "grid": [[1]]}}, "k")])
def test_invariants_from_json_missing_field(data, field):
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


@pytest.mark.parametrize("field, patch", [
    ("flag_dims", {"flag_dims": [True, 2]}),
    ("flag_dims", {"flag_dims": [1, 2.0]}),
    ("matrix", {"matrix": [[0, 1], [2, False]]}),
    ("matrix", {"matrix": [[0, 1.5], [2, 0]]}),
    ("matrix", {"matrix": [[0, 1], "20"]})])
def test_cli_flag_invariants_rejects_non_integer_entries(tmp_path, capsys,
                                                         field, patch):
    path = tmp_path / "m.json"
    data = {"p": 3, "flag_dims": [1, 2], "matrix": [[0, 1], [2, 0]]}
    path.write_text(json.dumps(dict(data, **patch)))
    assert main(["flag-invariants", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field}: ")


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
