"""Golden corpus: seeded CLI runs whose stdout and exit codes must not move.

`tests/golden/cli_corpus.json` maps a case name to the exit code, the
stdout and (for `-o` runs) the written file of one in-process `main` call.
Every form is generated by `random` from a fixed seed, so the corpus pins
`random`, `check`, `invariants`, `normalize`, `equiv` and `cohomology`
byte for byte.  `tests/golden/demo_stdout.json` maps each script of `demos/`
to its stdout.  Regenerate both only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from charpforms.cli import main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "golden" / "cli_corpus.json"
DEMO_STDOUT = ROOT / "tests" / "golden" / "demo_stdout.json"

# (kind, p, heights); each cell runs at seeds 1 and 2.
CELLS = (
    ("type1", 2, (1, 1)), ("type1", 2, (2, 2)), ("type1", 2, (1, 1, 1, 1)),
    ("type1", 3, (1, 1)), ("type1", 3, (1, 2)), ("type1", 5, (1, 1)),
    ("type1", 5, (1, 2)), ("type1", 13, (1, 1)),
    ("type2", 2, (2, 2)), ("type2", 3, (1, 1)), ("type2", 3, (1, 2)),
    ("type2", 5, (1, 1)), ("type2", 13, (1, 1)),
    ("contact", 3, (1, 1, 1)), ("contact", 3, (1, 1, 2)),
    ("contact", 5, (1, 1, 1)), ("contact", 13, (1,)),
)
SEEDS = (1, 2)
# (p, heights, degree)
COHOMOLOGY = ((2, (1, 2), 1), (3, (1, 1), 2), (5, (1, 1, 1), 2))


def _call(argv, written: Path | None = None) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([str(a) for a in argv])
    rec = {"exit": code, "stdout": buf.getvalue()}
    if written is not None:
        rec["file"] = written.read_text()
    return rec


def run_corpus(workdir: Path) -> dict:
    out = {}
    for kind, p, heights in CELLS:
        h = ",".join(map(str, heights))
        for seed in SEEDS:
            name = f"{kind} p={p} h={h} seed={seed}"
            a, b, nf = (workdir / f"{x}.json" for x in ("a", "b", "n"))
            gen = ["random", "--kind", kind, "--p", p, "--heights", h]
            out[f"{name} random"] = _call(gen + ["--seed", seed])
            out[f"{name} random -o"] = _call(
                gen + ["--seed", seed, "-o", a], a)
            _call(gen + ["--seed", seed + 100, "-o", b])
            out[f"{name} check"] = _call(["check", a])
            out[f"{name} invariants"] = _call(["invariants", a])
            out[f"{name} normalize"] = _call(["normalize", a])
            out[f"{name} normalize -o"] = _call(["normalize", a, "-o", nf], nf)
            out[f"{name} equiv normal"] = _call(["equiv", a, nf])
            out[f"{name} equiv seed+100"] = _call(["equiv", a, b])
    # a degenerate 2-form (negative decisions) and a kind mismatch
    deg = workdir / "degenerate.json"
    deg.write_text(json.dumps({"p": 3, "heights": [1, 1], "u_class": [0, 0],
                               "degree": 2, "terms": []}))
    for verb in ("check", "invariants", "normalize"):
        out[f"degenerate {verb}"] = _call([verb, deg])
    t1, t2 = workdir / "t1.json", workdir / "t2.json"
    _call(["random", "--kind", "type1", "--p", 3, "--heights", "1,1",
           "--seed", 1, "-o", t1])
    _call(["random", "--kind", "type2", "--p", 3, "--heights", "1,1",
           "--seed", 1, "-o", t2])
    out["type1 vs type2 equiv"] = _call(["equiv", t1, t2])
    for p, heights, degree in COHOMOLOGY:
        h = ",".join(map(str, heights))
        out[f"cohomology p={p} h={h} degree={degree}"] = _call(
            ["cohomology", "--p", p, "--heights", h, "--degree", degree])
    return out


def run_demos() -> dict:
    """The stdout of each demo script, run as its own process on `src`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [x for x in [env.get("PYTHONPATH")] if x])
    return {demo.name: subprocess.run(
                [sys.executable, str(demo)], env=env, cwd=ROOT, check=True,
                capture_output=True, text=True).stdout
            for demo in sorted((ROOT / "demos").glob("*.py"))}


def test_golden_corpus(tmp_path):
    expected = json.loads(CORPUS.read_text())
    got = run_corpus(tmp_path)
    assert sorted(got) == sorted(expected)
    for name in expected:
        assert got[name] == expected[name], name


def test_demo_stdout():
    assert run_demos() == json.loads(DEMO_STDOUT.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        corpus = run_corpus(Path(tmp))
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"{len(corpus)} cases, {CORPUS.stat().st_size} bytes -> {CORPUS}",
          file=sys.stderr)
    DEMO_STDOUT.write_text(json.dumps(run_demos(), indent=1, sort_keys=True) + "\n")
    print(f"demo stdout -> {DEMO_STDOUT}", file=sys.stderr)
