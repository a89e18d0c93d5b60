"""The benchmark's own test: the checker can fail, inputs follow the seed,
and a checkout without the package gives no result.

    python3 -m pytest -q perfbench/check_bench.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"


def _run(*args, cwd=None, script=RUN):
    return subprocess.run([sys.executable, str(script), *args],
                          capture_output=True, text=True, timeout=170, cwd=cwd)


def _bench(workload, seed, *extra):
    proc = _run("--workload", workload, "--seed", str(seed),
                "--seconds", "0.5", "--trace", "0", *extra)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload",
                         ["type1_grind", "orbit_equiv", "contact_split"])
def test_wrong_expected_answer_is_caught(workload):
    record, result = _bench(workload, 3, "--wrong-answer")
    assert record["failed_frac"] > 0
    assert result["failed"] >= 1
    assert result["correct"] is False


def test_correct_run_reports_every_metric():
    record, result = _bench("type1_grind", 3)
    assert result["correct"] is True and result["failed"] == 0
    assert record["failed_frac"] == 0
    assert set(result["metrics"]) == {"items_per_s", "item_ms_p50",
                                      "item_ms_p90", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    env = record["environment"]
    assert {"python", "numpy", "cpu", "nproc", "git_commit", "trace"} <= set(env)


def test_seed_fixes_the_input_digest():
    first, _ = _bench("type1_grind", 5)
    again, _ = _bench("type1_grind", 5)
    other, _ = _bench("type1_grind", 6)
    assert first["input_digest"] == again["input_digest"]
    assert first["input_digest"] != other["input_digest"]


def test_traced_run_reports_layers():
    proc = _run("--workload", "type1_grind", "--seed", "3", "--seconds", "1",
                "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    bench = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in bench["per_layer"]}
    assert metrics["gfp.small_calls"]["value"] > metrics["gfp.large_calls"]["value"]
    assert "grind.a_to_b_s" in proc.stdout      # reported, not in the result


def test_checkout_without_package_fails(tmp_path):
    root = RUN.parent.parent
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("--workload", "type1_grind", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path,
                script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
