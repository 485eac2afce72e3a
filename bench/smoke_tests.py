"""Smoke tests of the benchmark at a tiny size: python3 -m pytest bench/smoke_tests.py"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads

sys.path.insert(0, str(run.SRC))
import qcorr.cli  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _main(monkeypatch, *argv, cycle=1):
    """run.main in-process on short cycles with one setup probe; returns (code, stdout lines)."""
    for cls in workloads.WORKLOADS.values():
        monkeypatch.setattr(cls, "cycle", cycle)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    return code, out.getvalue().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_named_metric_is_printed(monkeypatch, workload, trace):
    code, lines = _main(monkeypatch, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                        "--trace", str(trace))
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], float)
    if not trace:
        assert result["metrics"]["pass_share"]["value"] == 1.0 - result["failed"] / result["attempted"]
    if workload == "library-mixed":
        assert result["failed"] >= 1  # the item-2 repro point
        if trace:
            assert any(line.startswith("absent (never called): cli.self_ms") for line in lines)


def _corrupt_qd(data, row):
    lines = data.decode().splitlines()
    fields = lines[row + 1].split(",")
    fields[4] = repr(float(fields[4]) + 0.01)
    lines[row + 1] = ",".join(fields)
    return ("\n".join(lines) + "\n").encode()


def test_corrupted_csv_row_is_one_failed_point(tmp_path):
    wl = workloads.Fig2Decohere(qcorr, str(tmp_path))
    op = next(wl.ops(0))
    code, stdout, stderr, data = wl.record(op, wl.run(op))
    rng = np.random.default_rng(0)
    assert wl.check([op], [(code, stdout, stderr, data)], rng)[:2] == ([0], True)
    bad = (code, stdout, stderr, _corrupt_qd(data, 5))
    assert wl.check([op], [bad], rng)[:2] == ([1], True)


def test_missing_csv_row_fails_the_call_and_the_run(tmp_path):
    wl = workloads.Fig2Decohere(qcorr, str(tmp_path))
    op = next(wl.ops(0))
    code, stdout, stderr, data = wl.record(op, wl.run(op))
    short = b"\n".join(data.splitlines()[:-1]) + b"\n"
    failed, readable, _ = wl.check([op], [(code, stdout, stderr, short)], np.random.default_rng(0))
    assert failed == [op.points] and not readable


def test_corrupted_output_is_counted_in_pass_share(monkeypatch):
    original = workloads.LibraryMixed.record

    def corrupt_second(self, op, report):
        values = original(self, op, report)
        if op is not workloads.REPRO and not getattr(self, "_corrupted", False):
            self._corrupted = True
            values = values[:3] + (values[3] + 0.01,)
        return values

    monkeypatch.setattr(workloads.LibraryMixed, "record", corrupt_second)
    code, lines = _main(monkeypatch, "--workload", "library-mixed", "--seed", "3", "--seconds", "0.2")
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] is True
    assert result["failed"] == 2  # the repro point and the corrupted one
    assert result["metrics"]["pass_share"]["value"] == 1.0 - 2 / result["attempted"]


def test_failures_depend_on_the_seed_not_the_run_length(monkeypatch):
    monkeypatch.setattr(workloads.LibraryMixed, "POOL", 12)
    results = []
    for seconds in ("0.01", "0.3"):
        code, lines = _main(monkeypatch, "--workload", "library-mixed", "--seed", "5", "--seconds", seconds,
                            cycle=12)
        assert code == 0
        results.append(json.loads(lines[-1]))
        assert any(" calls of 12 distinct operations" in line for line in lines)
    assert [(r["attempted"], r["failed"]) for r in results] == [(12, 1), (12, 1)]


def test_a_repeat_with_another_output_fails_its_operation(monkeypatch):
    monkeypatch.setattr(workloads.LibraryMixed, "POOL", 6)
    original = workloads.LibraryMixed.record
    calls = []

    def drift_on_repeat(self, op, report):
        calls.append(op)
        values = original(self, op, report)
        if len(calls) == 8:  # the second call of the second pool point
            values = values[:3] + (values[3] + 1e-15,)
        return values

    monkeypatch.setattr(workloads.LibraryMixed, "record", drift_on_repeat)
    code, lines = _main(monkeypatch, "--workload", "library-mixed", "--seed", "3", "--seconds", "0.3", cycle=6)
    result = json.loads(lines[-1])
    assert len(calls) >= 12 and code == 0
    assert (result["attempted"], result["failed"]) == (6, 2)  # the repro point and the drifting one


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert not Path(tmp_path / ".bench_out").exists()
