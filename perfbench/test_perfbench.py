"""Tests of the benchmark itself: tiny runs, the output checks and the tracer.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import eitlab.cli  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.CHECKS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    report = "\n".join(lines[:-1])
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], float)
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in report.splitlines()), m["name"]


def test_run_without_the_program_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "tracer.py"):
        (bench / name).write_text((HERE / name).read_text(encoding="utf-8"), encoding="utf-8")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectrum", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={"PATH": "/usr/bin:/bin"})
    assert done.returncode != 0
    assert "correct" not in done.stdout


def _flip_sign_in_sampled_row(out: Path, case, rng_seed: int) -> None:
    path = out / "spectrum.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = workloads.oracle_rows(case.meta["points"], np.random.default_rng(rng_seed))
    row = next(r for r in rows if r != case.meta["points"] // 2)
    cells = lines[row + 1].split(",")
    col = 1 + int(np.argmax([abs(float(c)) for c in cells[1:]]))
    cells[col] = cells[col][1:] if cells[col].startswith("-") else "-" + cells[col]
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _drop_last_snapshot_row(out: Path, case, rng_seed: int) -> None:
    path = sorted(out.glob("snapshot_*.csv"))[-1]
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")


def _scale_snapshot_modulus(out: Path, case, rng_seed: int) -> None:
    path = out / "snapshot_001.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    for cells in rows:
        cells[1] = repr(1.05 * float(cells[1]))
    path.write_text("\n".join([lines[0]] + [",".join(c) for c in rows]) + "\n", encoding="utf-8")


@pytest.mark.parametrize("workload, corrupt", [
    ("spectrum", _flip_sign_in_sampled_row),
    ("propagate", _drop_last_snapshot_row),
    ("splitstep", _scale_snapshot_modulus),
])
def test_check_reports_a_corrupted_output(tmp_path, workload, corrupt):
    case = workloads.write_cases(workload, 5, tmp_path / "configs", tiny=True)[0]
    out = tmp_path / "out"
    assert eitlab.cli.main(case.argv + ["--out", str(out)]) == 0
    check = workloads.CHECKS[workload]
    assert check(case, out, np.random.default_rng(9)) == []
    corrupt(out, case, 9)
    assert check(case, out, np.random.default_rng(9)) != []


def test_generator_is_deterministic_and_covers_the_regimes(tmp_path):
    first = workloads.write_cases("spectrum", 8, tmp_path / "a", tiny=True)
    second = workloads.write_cases("spectrum", 8, tmp_path / "b", tiny=True)
    assert [c.path.read_bytes() for c in first] == [c.path.read_bytes() for c in second]
    situations = {eitlab.cli.derive_couplings(eitlab.cli.config_from_dict(
        json.loads(c.path.read_text()))).situation.value for c in first}
    assert situations == set(workloads.REGIMES)


def test_rollup_self_time_counts_overlapping_children_once():
    # root [0, 100]; two pool threads in response at [10, 50] and [30, 70];
    # the first has an FFT child at [20, 25].
    spans = [
        (0, 1, None, 0, tracer.ROOT_SPAN, 0, 100, None),
        (0, 2, 1, 1, "response.coherence_point", 10, 50, False),
        (0, 3, 1, 2, "response.coherence_point", 30, 70, True),
        (0, 4, 2, 1, "numerics.fft", 20, 25, None),
    ]
    m = tracer.rollup(spans, fft_pair_ref_us=1.0)
    assert m["cli.self_ms"] == pytest.approx(40e-6)
    assert m["share.cli"] == pytest.approx(0.40)
    assert m["share.response"] == pytest.approx(0.55)
    assert m["share.numerics"] == pytest.approx(0.05)
    assert m["response.coherence_point.calls"] == 2
    assert m["response.nan_ratio"] == pytest.approx(0.5)


def test_tracer_keeps_every_span_under_thread_contention(monkeypatch):
    target = types.ModuleType("perfbench_target")
    target.work = lambda x: x
    original = target.work
    monkeypatch.setitem(sys.modules, target.__name__, target)

    rec = tracer.Tracer()
    rec.install([(target.__name__, "work", "numerics.fft", None)])
    threads, calls = 8, 400
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with rec.op(0):
            pool = [threading.Thread(target=lambda: [target.work(i) for i in range(calls)])
                    for _ in range(threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=60)
        assert not any(t.is_alive() for t in pool)
    finally:
        sys.setswitchinterval(interval)
        rec.uninstall()
    assert target.work is original
    assert len(rec.spans) == threads * calls + 1
    assert len({s[1] for s in rec.spans}) == len(rec.spans)
    root = next(s[1] for s in rec.spans if s[4] == tracer.ROOT_SPAN)
    assert all(s[2] == root for s in rec.spans if s[4] != tracer.ROOT_SPAN)
