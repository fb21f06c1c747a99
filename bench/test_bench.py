"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 -m pytest bench/test_bench.py -q

They run the real program (about a minute in all) and change no file
outside ``.bench_out/`` and the pytest temporary directory.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_names_use_only_allowed_characters():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_spec_lists_the_runner_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_every_invocation_has_a_reference():
    refs = run.load_references()
    for workload in run.WORKLOADS:
        for seed in range(64):
            for argv in run.invocations(workload, seed):
                assert " ".join(argv) in refs


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_runner_reports_every_metric(trace, kind):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan-n6",
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = "\n".join(proc.stdout.splitlines()[:-1])
    for name in expected:
        assert name in printed


def test_output_check_rejects_a_corrupted_reference(tmp_path, monkeypatch):
    refs = run.load_references()
    key = "verify --n 6 --type C"
    good = refs[key]
    stdout = good["stdout"].encode()
    assert run.check_output(good, good["exit_code"], stdout, b"") is None
    flipped = good["stdout"].replace("PASS", "FAIL", 1)
    assert flipped != good["stdout"]
    corrupted = dict(good, stdout=flipped)
    assert run.check_output(corrupted, good["exit_code"], stdout, b"") is not None
    assert run.check_output(good, good["exit_code"] + 1, stdout, b"") is not None
    assert run.check_output(good, good["exit_code"], stdout, b"Traceback (most recent") is not None

    # end to end: the runner counts the invocation as failed against the copy
    path = tmp_path / "references.json"
    path.write_text(json.dumps({**refs, key: corrupted}))
    monkeypatch.setattr(run, "REFERENCES", path)
    monkeypatch.setattr(run, "SRC", ROOT / "src")
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    metrics, tally, passes = run.measure("scan-n6", 0, 0, time.perf_counter() + 170)
    assert (tally.attempted, tally.failed, passes) == (2, 1, 1)
    assert metrics["ok_frac"][0] == 0.5


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.iterdir():
        if path.is_file():
            (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan-n6", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
