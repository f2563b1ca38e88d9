"""eitlab benchmark: one closed-loop client driving ``eitlab.cli.main(argv)``.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 30 --trace 0

Run from anywhere; the checkout is the directory above this file and the
program is imported from its ``src``.  One process serves one run: it
generates the workload's configs from ``--seed`` (set-up), then issues one
op after another, each after the previous one returned, until the ops have
taken ``--seconds`` of wall time.  Every op's output is checked against an
oracle outside the timed region and then deleted.  The program's thread
pool keeps its default size: ``EITLAB_THREADS`` is never set here.

BENCHMARK.json lists ``spectrum`` and ``splitstep``.  ``propagate`` (full
mode, two checkpoints; ~96% CSV formatting in ``cli``) still runs by hand.
It is left out so that the other two get longer runs: on a shared 2-vCPU
host the medians of every workload moved by up to a third between runs
minutes apart, and propagate's layers are also measured by the other two.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced ops and reports the per-layer metrics of the traced
ones, plus the tracing overhead.  The last line of standard output is the
JSON result; the lines before it are a readable report.  Run records and
spans go to ``perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# numpy and eitlab are imported inside functions only: the set-up time
# includes their first import, as it does for every CLI call.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"

WORKLOADS = ("spectrum", "propagate", "splitstep")
#: Set-up samples per untraced run: this process plus fresh interpreters.
SETUP_PROBES = 4
#: A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10

#: Layer shares each workload's rationale (its "why" in BENCHMARK.json)
#: predicts, checked against every traced run.
PREDICTIONS = {
    "spectrum": ("response and cli each >= 1/3, nls = 0",
                 lambda m: m["share.response"] >= 1 / 3 and m["share.cli"] >= 1 / 3
                 and m["share.nls"] == 0),
    "propagate": ("cli >= 0.80, nls.split_step <= 0.05",
                  lambda m: m["share.cli"] >= 0.80 and m["share.nls.split_step"] <= 0.05),
    "splitstep": ("nls.split_step (with its FFTs) > cli",
                  lambda m: m["share.nls.split_step"] > m["share.cli"]),
}

# Runs in a fresh interpreter: the set-up a user pays on every CLI call.
_SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.write_cases(sys.argv[3], int(sys.argv[4]), sys.argv[5], sys.argv[6] == "1")
print(time.perf_counter() - start)
"""


def _set_up(workload: str, seed: int, directory: Path, tiny: bool):
    """Import the program and write the seeded configs; returns (module, cases, seconds)."""
    start = time.perf_counter()
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads
    cases = workloads.write_cases(workload, seed, directory, tiny)
    return workloads, cases, time.perf_counter() - start


def _probe_setup(workload: str, seed: int, directory: Path, tiny: bool) -> float:
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(HERE), workload, str(seed),
         str(directory), "1" if tiny else "0"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _fft_pair_ref_us(seed: int, points: int = 2**14, reps: int = 200) -> float:
    """Median time of a bare numpy fft+ifft pair: the machine reference."""
    import numpy as np
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(points) + 1j * rng.standard_normal(points)
    times = []
    for i in range(reps + 10):
        start = time.perf_counter()
        np.fft.ifft(np.fft.fft(x))
        if i >= 10:
            times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def _tail(durations: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, percentile, n)."""
    ordered = sorted(durations)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n


def _run_ops(cli, check, cases, seconds, tracer, scratch: Path, seed: int):
    """The timed closed loop.  Returns one record per op."""
    import numpy as np
    records = []
    timed = 0.0
    sink = io.StringIO()
    check_rng = np.random.default_rng([seed, 1])
    i = 0
    while timed < seconds:
        case = cases[i % len(cases)]
        out = scratch / f"op_{i:05d}"
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
        op_ctx = tracer.op(i) if traced else contextlib.nullcontext()
        code = None
        with contextlib.redirect_stdout(sink):
            start = time.perf_counter()
            try:
                with op_ctx:
                    code = cli.main(case.argv + ["--out", str(out)])
            except (Exception, SystemExit):
                traceback.print_exc()
            elapsed = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        sink.seek(0)
        sink.truncate()
        try:
            problems = check(case, out, check_rng) if code == 0 else [f"exit code {code}"]
        except Exception as exc:  # a crash on malformed output is a failed op
            traceback.print_exc()
            problems = [f"check raised {exc!r}"]
        for problem in problems:
            print(f"op {i}: {problem}", file=sys.stderr)
        written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) if out.exists() else 0
        shutil.rmtree(out, ignore_errors=True)
        records.append({"op": i, "s": elapsed, "ok": not problems, "work": case.work,
                        "bytes": written, "traced": traced})
        timed += elapsed
        i += 1
    return records


def _end_to_end(records, setup_samples) -> tuple[dict, dict]:
    durations = [r["s"] for r in records]
    tail, percentile, n = _tail(durations)
    ok = [r for r in records if r["ok"]]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "op_p50_ms": statistics.median(durations) * 1e3,
        "op_tail_ms": tail * 1e3,
        "work_per_s": sum(r["work"] for r in ok) / sum(durations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "out_bytes_per_op": statistics.fmean(r["bytes"] for r in records),
        "ok_ratio": len(ok) / len(records),
    }
    return metrics, {"tail_percentile": percentile, "samples": n,
                     "fail_ratio": 1.0 - metrics["ok_ratio"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    seed = args.seed % 2**64  # numpy seeds must be non-negative

    RUNS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    try:
        try:
            workloads, cases, setup_main = _set_up(args.workload, seed,
                                                   scratch / "configs", args.tiny)
        except ImportError as exc:
            print(f"perfbench: cannot import the program from {SRC}: {exc}", file=sys.stderr)
            return 2
        import eitlab
        import numpy
        if not Path(eitlab.__file__).resolve().is_relative_to(SRC):
            print(f"perfbench: eitlab imported from {eitlab.__file__}, not {SRC}", file=sys.stderr)
            return 2

        setup_samples = [setup_main]
        if not args.trace:
            setup_samples += [_probe_setup(args.workload, seed, scratch / f"probe{i}",
                                           args.tiny) for i in range(SETUP_PROBES)]
        fft_ref = _fft_pair_ref_us(seed)

        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
        records = _run_ops(eitlab.cli, workloads.CHECKS[args.workload], cases, args.seconds,
                           tracer, scratch, seed)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "eitlab_threads_set": "EITLAB_THREADS" in os.environ,
        "fft_pair_ref_us": fft_ref,
    }
    failed = sum(not r["ok"] for r in records)
    units = _units("per_layer" if args.trace else "end_to_end")
    if args.trace:
        from tracer import rollup
        traced = [r for r in records if r["traced"]]
        plain = [r for r in records if not r["traced"]]
        metrics = rollup(tracer.spans, fft_ref)
        metrics["trace.overhead_ratio"] = (
            statistics.median(r["s"] for r in traced) / statistics.median(r["s"] for r in plain)
            - 1.0) if traced and plain else 0.0
        tracer.write(RUNS / f"spans-{args.workload}.jsonl")
        claim, holds = PREDICTIONS[args.workload]
        detail = {"prediction": claim,
                  "prediction_holds": bool(holds(metrics)),
                  "traced_ops": len(traced)}
    else:
        metrics, detail = _end_to_end(records, setup_samples)
        detail["setup_samples_s"] = setup_samples
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }

    record = {"env": env, "detail": detail, "result": result, "ops": records}
    (RUNS / f"last-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print("env " + json.dumps(env, sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    for name in units:
        print(f"{name:40s} {metrics[name]:>16.6g} {units[name]}")
    if not args.trace:
        print(f"{'fail_ratio':40s} {detail['fail_ratio']:>16.6g} ratio")
    print(json.dumps(result))
    return 0


def _units(kind: str) -> dict[str, str]:
    """Metric names and units of one kind, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


if __name__ == "__main__":
    sys.exit(main())
