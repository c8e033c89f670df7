"""The fracham benchmark: one command, three closed-loop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload ritz_sweep --seed 1 --seconds 20 --trace 0

Workloads (why each was chosen is in BENCHMARK.json):

    ritz_sweep          `fracham solve-example` in process, fresh (alpha, beta)
                        each op, n cycling 256 / 512 / 1024
    refine_ladder       one `fracham converge` study, n = 256 .. 4096
    trajectory_queries  variational queries and a six-kind operator table
                        on a warm pool of operators, n = 256 / 1024 / 2048

Each is a closed loop with one caller: the next op starts when the last
one has returned. BLAS threads are capped at the number of usable CPUs.

With ``--trace 0`` a run is WORKERS fresh worker processes (worker.py)
in turn, each with every WORKERS-th op of the run's input sequence and
1/WORKERS of ``--seconds`` (refine_ladder: one study each). Fresh processes keep peak memory and
the operator cache the workload's own, and spreading a run over several
of them averages out slow drift of the machine. The last line of
standard output is a JSON object with the end-to-end metrics:

    setup_s      median over the workers of process start to first timed op
    ops_per_s    ops that passed their check per second of op time
    op_p50_ms    median op latency (the sample count is printed before)
    op_p90_ms    90th-percentile op latency
    peak_rss_mb  median over the workers of their peak resident memory
    l2_err       geometric mean of the trapezoid-l2 errors the checks
                 measure: every solution against t^beta (ritz_sweep,
                 refine_ladder, every level), CAPUTO_LEFT of t^p against
                 caputo_power_rule (trajectory_queries)

With ``--trace 1`` one worker runs untraced for half of ``--seconds``,
then the same ops run again in a traced worker, which reports the
per-layer metrics of tracer.py; ``trace.overhead_ratio`` is the traced
over the untraced op time. A JSON line before the result records the
environment. Failed ops are printed to standard error with their inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ritz_sweep", "refine_ladder", "trajectory_queries")
WORKERS = 3
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def _worker(env: dict, deadline: float, *args: str) -> dict:
    t0 = time.monotonic()
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), *args, "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker did not finish before the deadline: {' '.join(args)}")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _natural(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def end_to_end(runs: list[dict]) -> dict[str, tuple[float, str]]:
    latencies = np.concatenate([r["latencies_s"] for r in runs])
    errors = np.concatenate([r["errors"] for r in runs])
    passed = sum(r["attempted"] - r["failed"] for r in runs)
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in runs), "s"),
        "ops_per_s": (passed / latencies.sum(), "1/s"),
        "op_p50_ms": (1e3 * np.percentile(latencies, 50), "ms"),
        "op_p90_ms": (1e3 * np.percentile(latencies, 90), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        "l2_err": (float(np.exp(np.mean(np.log(errors)))) if errors.size else None, "1"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="fracham benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=_natural, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "fracham" / "__init__.py").is_file():
        print(f"error: no fracham sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from checks import self_test

    problems = self_test()
    for p in problems:
        print(f"self-test failure: {p}", file=sys.stderr)

    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    try:
        if args.trace:
            base = _worker(env, deadline, *common, "--seconds", repr(args.seconds / 2))
            traced = _worker(env, deadline, *common, "--seconds", repr(args.seconds),
                             "--trace", "--ops", str(base["attempted"]))
            runs = [base, traced]
            values = dict(traced["per_layer"])
            values["trace.overhead_ratio"] = (
                sum(traced["latencies_s"]) / sum(base["latencies_s"]), "ratio")
        else:
            runs = [_worker(env, deadline, *common, "--part", str(j), "--parts", str(WORKERS),
                            "--seconds", repr(args.seconds / WORKERS)) for j in range(WORKERS)]
            values = end_to_end(runs)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"env": runs[0]["env"], "workload": args.workload, "seed": args.seed,
                      "op_samples": attempted}))
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
