"""proctensor benchmark: end-to-end metrics of the CLI, or per-layer traces.

    python3 bench/run.py [--workload audit-n3|audit-n5|analysis-mix|all]
                         [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in fresh interpreters (``worker.py``) with the BLAS
thread count set here, so peak memory and threads are not inherited. With
``--trace 0`` the run reports the end-to-end metrics; ``setup_s`` is the
median of ``SETUP_RUNS`` set-ups, each in its own interpreter. With
``--trace 1`` it reports the per-layer metrics of a traced run and writes
the spans to ``.bench_work/<workload>/spans.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same metrics, the call counts, the error rate and the environment
for a reader. See ``bench/README.md`` for why each workload and metric
exists.
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

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("audit-n3", "audit-n5", "analysis-mix")
DEFAULT_SEED = 1
HOLDOUT_SEED = 90210  # kept out of tuning, for validating later claims
SETUP_RUNS = 5
# One client runs on one core; more BLAS threads on these small matrices
# burn CPU time without shortening the calls.
BLAS_THREADS = 1
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time")
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, env=worker_env(), stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """Worker result of one workload, with ``setup_s`` added to the end-to-end metrics."""
    work = WORK / workload
    common = ["--workload", workload, "--seed", str(seed), "--work", str(work)]
    setups = []
    if not trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(run_worker([*common, "--seconds", "0", "--setup-only"],
                                     deadline)["setup_s"])
    result = run_worker([*common, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    if not trace:
        setups.append(result["setup_s"])
        result["metrics"]["setup_s"] = (statistics.median(setups), "s")
    return result


def report(workload: str, result: dict) -> None:
    print(f"# {workload}: {result['calls']} timed calls, {result['items']} items; "
          f"median machine slow-down {result['slowdown_median']:.3f}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{workload:13s} {name:42s} {value:14.6g} {unit}")
    error_rate = result["failed"] / result["attempted"]
    print(f"{workload:13s} {'error_rate':42s} {error_rate:14.6g} "
          f"({result['failed']} failed / {result['attempted']} attempted)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "proctensor" / "__init__.py").is_file():
        print(f"error: no proctensor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + TIME_LIMIT_S
            results[name] = measure(name, args.seed, args.seconds, args.trace, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = {"git_sha": git_sha(), "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, **next(iter(results.values()))["environment"]}
    print("# environment: " + json.dumps(env))
    metrics = {}
    for name, result in results.items():
        report(name, result)
        prefix = "" if len(results) == 1 else f"{name}."
        for metric, (value, unit) in result["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
