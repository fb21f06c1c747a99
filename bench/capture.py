"""Capture the reference output of every benchmark invocation.

Run from the root of a checkout, at the commit whose output is the reference:

    python3 bench/capture.py

Each distinct invocation of every workload (every t-set the seed can pick
included) runs twice; its stdout and exit code go to bench/references.json.
Capturing refuses output that differs between the two runs or that has a
traceback on stderr, since the benchmark compares stdout byte for byte.
"""

from __future__ import annotations

import json
import sys
import time

import run


def distinct_invocations() -> dict[str, list[str]]:
    found = {}
    for workload in run.WORKLOADS:
        for seed in range(64):
            for argv in run.invocations(workload, seed):
                found[" ".join(argv)] = argv
    missing = [t for t in run.SCAN_TSETS if not any(t in key.split() for key in found)]
    if missing:
        raise SystemExit(f"no seed below 64 picks t-sets {missing}")
    return found


def main() -> int:
    if not (run.SRC / "bcsplines" / "cli.py").is_file():
        print(f"capture: no package source at {run.SRC}", file=sys.stderr)
        return 2
    refs = {}
    for key, argv in sorted(distinct_invocations().items()):
        cmd = [sys.executable, "-c", run.CLI, *argv]
        first, second = (run.launch(cmd, time.perf_counter() + 600) for _ in range(2))
        if b"Traceback" in first.stderr + second.stderr:
            raise SystemExit(f"{key}: traceback on stderr")
        if (first.code, first.stdout) != (second.code, second.stdout):
            raise SystemExit(f"{key}: output differs between two runs")
        refs[key] = {"exit_code": first.code, "stdout": first.stdout.decode()}
        print(f"{key}: exit {first.code}, {len(first.stdout)} bytes, {first.wall_s:.2f} s")
    with open(run.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
