"""Benchmark of charpforms: seeded workloads timed end to end and per layer.

Run one workload (its own process, one closed-loop client, no threads):

    python3 perfbench/run.py --workload type1_grind --seed 1 --seconds 30 --trace 0

or every workload, each in a process of its own:

    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

With `--trace 0` the run reports the end-to-end metrics; with `--trace 1` it
measures half the time untraced and half traced, and reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it records
the seed, the SHA-256 digest of the generated inputs, the environment and
the unscaled wall-time figures (the timed figures are scaled to a fixed
machine speed, see reference.py and ScaledClock).  The benchmark imports
the package from `src/` of the checkout it sits in, and exits with code 2
if that is missing.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
WORKLOADS = ("type1_grind", "orbit_equiv", "contact_split")
SETUP_REPEATS = 3
MIN_ITEMS = 100
MAX_SECONDS_FACTOR = 4       # stop a run at this multiple of --seconds
ACCOUNTING_TOLERANCE = 0.01

E2E_UNITS = {"items_per_s": "1/s", "item_ms_p50": "ms", "item_ms_p90": "ms",
             "setup_s": "s", "failed_frac": "frac", "peak_rss_mb": "MB"}
# failed_frac is printed with the others but left out of the result line:
# it is 0 on a correct program, and `failed`/`attempted` already carry it.
RESULT_E2E = ("items_per_s", "item_ms_p50", "item_ms_p90", "setup_s",
              "peak_rss_mb")

# Per-layer metrics of the result line.  Every per-layer metric is printed
# in the report above it; this list leaves out the times of layers that a
# workload never enters (grind stages, groups, flagbilinear, jsonio, cli),
# which read exactly 0 there, and the tautological trace.accounted_frac.
RESULT_PER_LAYER = (
    "gfp.calls", "gfp.small_calls", "gfp.large_calls", "gfp.elim_ops",
    "gfp.self_s", "gfp.self_frac",
    "algebra.mul_calls", "algebra.mul_pairs", "algebra.mul_yield",
    "algebra.dp_calls", "algebra.self_s", "algebra.self_frac",
    "groups.apply_calls", "groups.form_terms_in",
    "forms.calls", "forms.self_s", "forms.self_frac",
    "grind.rounds", "flagbilinear.calls",
    "classify.invariants_calls", "classify.self_s", "classify.self_frac",
    "jsonio.bytes", "bench.self_s", "bench.self_frac",
    "setup.import_s", "setup.inputs_s", "trace.overhead_frac",
)

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import charpforms.cli; "
                "print(time.perf_counter() - t)")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--wrong-answer", action="store_true",
                    help="corrupt one expected answer (tests the checker)")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment record.
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from its own .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(trace: bool) -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu": _cpu_model(), "nproc": os.cpu_count(),
            "git_commit": _git_commit(), "trace": trace}


# ---------------------------------------------------------------------------
# Set-up and the closed loop.
# ---------------------------------------------------------------------------

def time_import() -> list:
    """Import time of the package: this process plus fresh interpreters."""
    t0 = time.perf_counter()
    import charpforms.cli  # noqa: F401
    samples = [time.perf_counter() - t0]
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                             capture_output=True, text=True, check=True,
                             timeout=60)
        samples.append(float(out.stdout.strip()))
    return samples


def input_digest(wl, pool) -> str:
    h = hashlib.sha256()
    for items in pool:
        for item in items:
            h.update(json.dumps(wl.record(item), sort_keys=True).encode())
            h.update(b"\n")
    return h.hexdigest()


class ScaledClock:
    """Raw interval times and the same intervals at the nominal machine
    speed of `ref` (see reference.py): a reference sample is taken at the
    start and after every `ref.every_s`, and each interval is scaled by
    nominal / (mean of the samples before and after it)."""

    def __init__(self, ref):
        self.ref = ref
        self.raw: list = []
        self.scaled: list = []
        self.samples: list = []
        self._open = 0               # intervals not yet bracketed by samples
        self._sampled_at = 0.0
        self.sample()

    def sample(self) -> None:
        s = self.ref.sample()
        if self._open:
            scale = self.ref.nominal_s / ((self.samples[-1] + s) / 2)
            self.scaled.extend(dt * scale for dt in self.raw[-self._open:])
            self._open = 0
        self.samples.append(s)
        self._sampled_at = time.perf_counter()

    def add(self, dt: float) -> None:
        self.raw.append(dt)
        self._open += 1
        if time.perf_counter() - self._sampled_at >= self.ref.every_s:
            self.sample()

    def close(self) -> None:
        if self._open:
            self.sample()

    def speed(self) -> float:
        return self.ref.nominal_s / statistics.median(self.samples)


def set_up(wl, ref, seed: int, import_s: float):
    """SETUP_REPEATS set-ups, each an input build (timed round by round) and
    a warm-up round with unchecked answers, on a ScaledClock of its own.  Every build must
    give the same inputs.  Returns the pool, its digest, the raw medians and
    the median scaled set-up time, import time included."""
    builds, warms, scaled, digests = [], [], [], set()
    pool = None
    for _ in range(SETUP_REPEATS):
        clock = ScaledClock(ref)
        pool = []
        rounds = wl.build(seed)
        while True:
            t0 = time.perf_counter()
            items = next(rounds, None)
            if items is None:
                break
            clock.add(time.perf_counter() - t0)
            pool.append(items)
        n_build = len(clock.raw)
        digests.add(input_digest(wl, pool))
        Loop(wl, pool, clock).run_round(check=False)
        clock.close()
        builds.append(sum(clock.raw[:n_build]))
        warms.append(sum(clock.raw[n_build:]))
        scaled.append(import_s * ref.nominal_s / clock.samples[0]
                      + sum(clock.scaled))
    if len(digests) != 1:
        raise RuntimeError("input generation is not deterministic")
    setup = {"import_s": import_s, "inputs_s": statistics.median(builds),
             "warmup_s": statistics.median(warms)}
    return pool, digests.pop(), setup, statistics.median(scaled)


class Loop:
    """Closed loop over whole rounds of the pool, one item at a time, timed
    on a ScaledClock; with check=False the answers are not checked."""

    def __init__(self, wl, pool, clock, tracer=None):
        self.wl = wl
        self.pool = pool
        self.clock = clock
        self.tracer = tracer
        self.checked = 0
        self.failed = 0
        self.first_error = None
        self.next_round = 0

    def run_round(self, check: bool = True) -> None:
        items = self.pool[self.next_round % len(self.pool)]
        self.next_round += 1
        for item in items:
            error = None
            if self.tracer is not None:
                self.tracer.active = True
            t0 = time.perf_counter()
            try:
                answer = self.wl.run(item)
            except Exception as ex:      # a crash is a failed item
                error = f"{type(ex).__name__}: {ex}"
            dt = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.active = False
            self.clock.add(dt)
            if not check:
                continue
            self.checked += 1
            if error is None:
                try:
                    if not self.wl.check(item, answer):
                        error = "wrong answer"
                except Exception as ex:  # an unreadable answer is wrong
                    error = f"wrong answer ({type(ex).__name__}: {ex})"
            if error is not None:
                self.failed += 1
                self.first_error = self.first_error or error

    def run_for(self, seconds: float, min_items: int) -> None:
        start = time.perf_counter()
        limit = seconds * MAX_SECONDS_FACTOR
        while True:
            self.run_round()
            elapsed = time.perf_counter() - start
            if elapsed >= limit:
                break
            if elapsed >= seconds and self.checked >= min_items:
                break
        self.clock.close()


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

def item_timing(times: list) -> dict:
    return {"items_per_s": len(times) / sum(times),
            "item_ms_p50": statistics.median(times) * 1e3,
            "item_ms_p90": statistics.quantiles(times, n=10)[8] * 1e3}


def end_to_end(loop: Loop, setup_s: float) -> dict:
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {**item_timing(loop.clock.scaled), "setup_s": setup_s,
            "failed_frac": loop.failed / loop.checked,
            "peak_rss_mb": rss_kb / 1024}


def raw_end_to_end(loop: Loop, setup_raw_s: float) -> dict:
    """The timed figures in unscaled wall time, for the record."""
    return {**item_timing(loop.clock.raw), "setup_s": setup_raw_s,
            "speed": loop.clock.speed()}


def per_layer(tracer, traced: Loop, untraced: Loop, setup: dict) -> dict:
    """Per-layer metrics of the traced loop, per item unless a ratio.
    Times per item are scaled to the nominal machine speed like the
    end-to-end times, with the traced loop's median reference sample."""
    from tracer import LAYERS

    n = traced.checked
    wall = sum(traced.clock.raw)
    c = tracer.counts
    layer_s, top_s = tracer.check_accounting()
    bench_s = wall - top_s
    per_item_s = traced.clock.speed() / n
    out = {
        "gfp.calls": (c["gfp.entries"] / n, "count/item"),
        "gfp.small_calls": (c["gfp.small_calls"] / n, "count/item"),
        "gfp.large_calls": (c["gfp.large_calls"] / n, "count/item"),
        "gfp.elim_ops": (c["gfp.elim_ops"] / n, "ops/item"),
        "algebra.mul_calls": (c["algebra.mul_calls"] / n, "count/item"),
        "algebra.mul_pairs": (c["algebra.mul_pairs"] / n, "count/item"),
        "algebra.mul_yield": (c["algebra.mul_out_terms"] / c["algebra.mul_pairs"]
                              if c["algebra.mul_pairs"] else 0.0, "frac"),
        "algebra.dp_calls": (c["algebra.dp_calls"] / n, "count/item"),
        "groups.apply_calls": (c["groups.apply_calls"] / n, "count/item"),
        "groups.form_terms_in": (c["groups.form_terms_in"] / n, "count/item"),
        "forms.calls": (c["forms.calls"] / n, "count/item"),
        "grind.rounds": (c["grind.rounds"] / n, "count/item"),
        "flagbilinear.calls": (c["flagbilinear.entries"] / n, "count/item"),
        "classify.invariants_calls": (c["classify.invariants_calls"] / n,
                                      "count/item"),
        "jsonio.bytes": (c["jsonio.bytes"] / n, "bytes/item"),
    }
    for stage in ("a_to_b", "b_to_a", "extract", "decompose"):
        out[f"grind.{stage}_s"] = (tracer.stage_s[stage] * per_item_s, "s/item")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (tracer.self_s[layer] * per_item_s, "s/item")
        out[f"{layer}.self_frac"] = (tracer.self_s[layer] / wall, "frac")
    out["bench.self_s"] = (bench_s * per_item_s, "s/item")
    out["bench.self_frac"] = (bench_s / wall, "frac")
    out["setup.import_s"] = (setup["import_s"], "s")
    out["setup.inputs_s"] = (setup["inputs_s"], "s")
    traced_s = statistics.fmean(traced.clock.scaled)
    untraced_s = statistics.fmean(untraced.clock.scaled)
    out["trace.overhead_frac"] = (traced_s / untraced_s - 1, "frac")
    out["trace.accounted_frac"] = ((layer_s + bench_s) / wall, "frac")
    if abs(layer_s - top_s) > ACCOUNTING_TOLERANCE * wall:
        raise RuntimeError(f"layer self times {layer_s:.4f}s do not add up to "
                           f"the traced span time {top_s:.4f}s")
    return out


# ---------------------------------------------------------------------------
# Entry points.
# ---------------------------------------------------------------------------

def run_workload(args) -> int:
    if not (SRC / "charpforms" / "__init__.py").is_file():
        print(f"error: no charpforms package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import_samples = time_import()
    import charpforms
    if Path(charpforms.__file__).resolve().parent != SRC / "charpforms":
        print(f"error: charpforms imported from {charpforms.__file__}",
              file=sys.stderr)
        return 2
    import reference   # after time_import: it loads numpy
    import tracer as tracing
    import workloads

    tracer = tracing.Tracer()
    WORKDIR.mkdir(exist_ok=True)
    workdir = WORKDIR / str(os.getpid())
    workdir.mkdir()
    try:
        wl = workloads.make(args.workload, workdir, tracer)
        ref = reference.Reference(wl.reference_mix)
        pool, digest, setup, setup_s = set_up(
            wl, ref, args.seed, statistics.median(import_samples))
        if args.wrong_answer:
            wl.corrupt(pool[0][0])
        setup_raw_s = sum(setup.values())

        loop = Loop(wl, pool, ScaledClock(ref))
        if args.trace:
            loop.run_for(args.seconds / 2, 1)
            tracer.install()
            traced = Loop(wl, pool, ScaledClock(ref), tracer)
            traced.next_round = loop.next_round
            traced.run_for(args.seconds / 2, 1)
            metrics = per_layer(tracer, traced, loop, setup)
            measured = [loop, traced]
            raw = {}
        else:
            loop.run_for(args.seconds, MIN_ITEMS)
            e2e = end_to_end(loop, setup_s)
            metrics = {k: (v, E2E_UNITS[k]) for k, v in e2e.items()}
            measured = [loop]
            raw = raw_end_to_end(loop, setup_raw_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass                         # another run still uses it

    attempted = sum(lp.checked for lp in measured)
    failed = sum(lp.failed for lp in measured)
    errors = [lp.first_error for lp in measured if lp.first_error]
    if errors:
        print(f"first failure: {errors[0]}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:14s} {name:28s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"{args.workload:14s} {'items':28s} {attempted:14d} count")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "input_digest": digest,
              "setup": setup, "failed_frac": failed / attempted,
              "raw_wall_time": raw,
              "environment": environment(bool(args.trace))}
    print(json.dumps(record, sort_keys=True))
    keep = RESULT_PER_LAYER if args.trace else RESULT_E2E
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                          for k in keep}}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a process of its own, one after another."""
    status = 0
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.wrong_answer:
            cmd.append("--wrong-answer")
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    if status:
        return status
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
