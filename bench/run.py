"""bcsplines benchmark: closed-loop CLI workloads with output checks.

Run from the root of a checkout (the package source is read from ``src``):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seconds S      # every workload

One client runs one ``bcsplines`` CLI process at a time, each in a fresh
interpreter with default flags, because that is how users run it: every
invocation pays its own caches.  A pass is the workload's fixed list of
invocations, run in order; passes repeat until ``--seconds`` have gone by
(and at least ``MIN_PASSES`` have run).  Every invocation's stdout and exit
code are compared with the reference captured by ``bench/capture.py``.

With ``--trace 0`` the last line reports the end-to-end metrics, measured
with tracing off.  With ``--trace 1`` untraced and traced passes alternate
(see ``bench/tracer.py``); the last line reports the per-layer metrics and a
report with the raw spans is written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCES = BENCH / "references.json"

# The rank-6 t-sets the seed picks from for `char --n 6`: those whose
# t-set-dependent work costs the same within 1% (bench/tsets.py measures it;
# timings in bench/BASELINE.md).  Not every t-set qualifies: that work
# ranges from 0.41 s for {t1,...,t5} to 0.58 s for {} on the baseline machine.
SCAN_TSETS = (
    "t1,t2,t5",
    "t1,t2,t5,t6",
    "t1,t5,t6",
    "t3,t4",
    "t1,t6",
    "t1,t3",
    "t2,t5",
    "t1,t4",
)

# Each workload is a fixed list of CLI invocations, run in order.  No
# invocation uses --jobs or a non-default verify format, so later changes
# to those flags leave the workloads runnable unchanged.
WORKLOADS = {
    # Kernel fallback: {t4} and {t1,t4} realise in type C on the divergent
    # branch, left_basis raises and spline_space_basis solves the edge system
    # in Fraction.  The other 14 rows take the closed-form route (bundles,
    # exact inverses, pivots, per-class traces).  Exit code 2 (rows {t4} and
    # {t1,t4} read NO) is expected.
    "fallback-n4": lambda seed: [["table", "--n", "4", "--level", "full", "--format", "tsv"]],
    # Rank 6 (46,080 elements): group arithmetic, length/BFS, the H-inversion
    # scan, closed-form descent sets, conjugacy classes and p_to_h; no linalg.
    # verify exits 2 (descent-formula fails at i=5 on the documented t-sets).
    "scan-n6": lambda seed: [
        ["verify", "--n", "6", "--type", "C"],
        ["char", "--n", "6", "--tset", random.Random(seed).choice(SCAN_TSETS), "--format", "json"],
    ],
}

MIN_PASSES = 2
SETUP_REPEATS = 11
# The runner must end within 180 s; a child still running at the deadline is
# killed and its invocation counts as failed.
RUN_LIMIT_S = 170
CLI = "import sys; from bcsplines.cli import main; sys.exit(main())"
SETUP = "import bcsplines.cli; bcsplines.cli.build_parser()"


def invocations(workload: str, seed: int) -> list[list[str]]:
    return WORKLOADS[workload](seed)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def check_output(ref: dict, code: int, stdout: bytes, stderr: bytes) -> str | None:
    """Why an invocation's result differs from its reference, or None."""
    if code != ref["exit_code"]:
        return f"exit code {code}, reference {ref['exit_code']}"
    if stdout != ref["stdout"].encode():
        return "stdout is not byte-identical to the reference"
    if b"Traceback" in stderr:
        return "traceback on stderr"
    return None


@dataclass
class Result:
    """Outcome of one child process."""

    wall_s: float
    cpu_s: float
    code: int
    stdout: bytes
    stderr: bytes


def launch(cmd: list[str], deadline: float) -> Result:
    """Run one child to completion or the deadline; CPU time comes from RUSAGE_CHILDREN."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, env=child_env(), capture_output=True, timeout=max(deadline - start, 0.01)
        )
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        code, stdout, stderr = -9, exc.stdout or b"", b"timed out"
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return Result(wall, cpu, code, stdout, stderr)


def peak_child_rss_mb() -> float:
    """Largest max-RSS of any child reaped so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def measure_setup(deadline: float) -> float:
    """Median wall time of a fresh interpreter importing the CLI and building its parser."""
    launch([sys.executable, "-c", SETUP], deadline)  # writes the bytecode caches; not timed
    times = []
    for _ in range(SETUP_REPEATS):
        res = launch([sys.executable, "-c", SETUP], deadline)
        if res.code != 0:
            raise RuntimeError(f"set-up probe failed: {res.stderr.decode()[-400:]}")
        times.append(res.wall_s)
    print("  set-up probe wall_s: " + " ".join(f"{t:.3f}" for t in times))
    return statistics.median(times)


class Tally:
    """Invocations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, argv, ref, res: Result) -> None:
        self.attempted += 1
        why = check_output(ref, res.code, res.stdout, res.stderr)
        if why:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {' '.join(argv)}: {why}", file=sys.stderr)


def untraced_pass(argvs, refs, tally: Tally, deadline: float) -> list[Result]:
    """Run the workload's invocations once, in order, each in a fresh interpreter."""
    results = []
    for argv in argvs:
        res = launch([sys.executable, "-c", CLI, *argv], deadline)
        tally.record(argv, refs[" ".join(argv)], res)
        results.append(res)
    return results


def traced_pass(argvs, refs, tally: Tally, first_id: int, deadline: float):
    """Run the pass under bench/tracer.py; returns its wall time and the records."""
    wall = 0.0
    records = []
    OUT.mkdir(exist_ok=True)
    for k, argv in enumerate(argvs):
        path = OUT / "span.json"
        if path.exists():
            path.unlink()
        spawn = time.perf_counter()
        cmd = [sys.executable, str(BENCH / "tracer.py"), str(path), str(first_id + k),
               repr(spawn), "--", *argv]
        res = launch(cmd, deadline)
        tally.record(argv, refs[" ".join(argv)], res)
        wall += res.wall_s
        if path.exists():
            with open(path) as fh:
                records.append(json.load(fh))
            path.unlink()
    return wall, records


def measure(workload: str, seed: int, seconds: float, deadline: float):
    """End-to-end metrics of one run, tracing off."""
    argvs = invocations(workload, seed)
    refs = load_references()
    setup_s = measure_setup(deadline)
    tally = Tally()
    passes: list[list[Result]] = []
    start = time.perf_counter()
    while (len(passes) < MIN_PASSES or time.perf_counter() - start < seconds) and (
        time.perf_counter() < deadline
    ):
        passes.append(untraced_pass(argvs, refs, tally, deadline))
    pass_walls = [sum(r.wall_s for r in p) for p in passes]
    metrics = {
        "wall_s": (statistics.median(pass_walls), "s"),
        "cpu_s": (statistics.median(sum(r.cpu_s for r in p) for p in passes), "s"),
        "peak_rss_mb": (peak_child_rss_mb(), "MB"),
        "setup_s": (setup_s, "s"),
        "ok_frac": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }
    print("  pass wall_s: " + " ".join(f"{w:.3f}" for w in pass_walls))
    return metrics, tally, len(passes)


def measure_traced(workload: str, seed: int, seconds: float, deadline: float):
    """Per-layer metrics of one run; untraced and traced passes alternate."""
    argvs = invocations(workload, seed)
    refs = load_references()
    tally = Tally()
    base_walls, traced_walls, passes = [], [], []
    start = time.perf_counter()
    while not passes or (
        time.perf_counter() - start < seconds and time.perf_counter() < deadline
    ):
        base_walls.append(sum(r.wall_s for r in untraced_pass(argvs, refs, tally, deadline)))
        wall, records = traced_pass(argvs, refs, tally, len(passes) * len(argvs), deadline)
        traced_walls.append(wall)
        passes.append(records)
    base = statistics.median(base_walls)
    per_pass = [tracer.layer_metrics(records) for records in passes]
    metrics = {
        name: (statistics.median(p[name][0] for p in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    traced = statistics.median(traced_walls)
    overhead = (traced - base) / base
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    metrics["trace.base_wall_s"] = (base, "s")
    metrics["trace.wall_s"] = (traced, "s")
    layer_self = {k: v for k, (v, _) in metrics.items() if k.endswith(".self_s")}
    accounted = sum(layer_self.values()) + metrics["trace.startup_s"][0]
    unaccounted = (traced - accounted) / traced
    metrics["trace.unaccounted_frac"] = (unaccounted, "ratio")
    check = {
        "layer_self_s": layer_self,
        "startup_s": metrics["trace.startup_s"][0],
        "accounted_s": accounted,
        "traced_wall_s": traced,
        "unaccounted_frac": unaccounted,
        "overhead_frac": overhead,
        "ok": abs(unaccounted) <= abs(overhead),
    }
    print(
        f"self-time check: layers+startup {accounted:.3f} s of traced {traced:.3f} s, "
        f"unaccounted {unaccounted:+.2%} vs overhead {overhead:+.2%}: "
        f"{'ok' if check['ok'] else 'NOT within overhead'}"
    )
    write_report(workload, seed, argvs, metrics, check, base_walls, traced_walls, passes)
    return metrics, tally, len(passes)


def write_report(workload, seed, argvs, metrics, check, base_walls, traced_walls, passes):
    """One file per traced run: the per-layer metrics, the check and the raw spans."""
    report = {
        "workload": workload,
        "seed": seed,
        "invocations": [" ".join(a) for a in argvs],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "self_time_check": check,
        "untraced_pass_walls_s": base_walls,
        "traced_pass_walls_s": traced_walls,
        "calls": [
            {k: rec[k] for k in ("invocation", "argv", "stats", "counters", "trace_cache")}
            for records in passes
            for rec in records
        ],
        "span_fields": ["id", "name", "start", "end", "parent", "invocation"],
        "spans": [span for records in passes for rec in records for span in rec["spans"]],
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump(report, fh, separators=(",", ":"))
    print(f"per-layer report: {path.relative_to(ROOT)}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Tally]:
    argvs = invocations(workload, seed)
    print(f"workload {workload}, seed {seed}: " + "; ".join(" ".join(a) for a in argvs))
    deadline = time.perf_counter() + RUN_LIMIT_S
    if trace:
        metrics, tally, passes = measure_traced(workload, seed, seconds, deadline)
    else:
        metrics, tally, passes = measure(workload, seed, seconds, deadline)
    print(f"  {passes} passes, {tally.attempted} invocations, {tally.failed} failed "
          f"(fail_frac {tally.failed / tally.attempted:.4f})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit}")
    return metrics, tally


def checkout_problem() -> str | None:
    if not (SRC / "bcsplines" / "cli.py").is_file():
        return f"no package source at {SRC / 'bcsplines'}; run from the root of a checkout"
    if not REFERENCES.is_file():
        return f"missing reference outputs {REFERENCES}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = checkout_problem()
    if problem:
        print(f"bench: {problem}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics: dict = {}
    attempted = failed = 0
    for name in names:
        got, tally = run_workload(name, args.seed, args.seconds, bool(args.trace))
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in got.items()})
        attempted += tally.attempted
        failed += tally.failed
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
