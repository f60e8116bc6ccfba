"""One measured run of one workload, in a fresh interpreter.

Started by ``run.py``. It imports proctensor from the checkout's ``src``,
writes the workload's inputs from the seed and makes one warm-up call (the
set-up, timed as ``setup_s``), then calls ``proctensor.cli.main`` in
process, in a closed loop with one client, cycling through the workload's
calls until ``--seconds`` have passed and the current round is complete.
Every call's exit status and output are compared with the stored reference
as the call returns, outside its timed span.

Call times are reported in seconds at the reference machine speed: each is
divided by the slow-down that the speed probe (``speed.py``) measured around
it, weighted by the workload's ``speed_sensitivity``. On the machine this was
tuned on, raw call times of the same work moved by up to 1.6x between runs;
the scaled times are steady.

With ``--trace 1`` rounds alternate between untraced and traced, so the
tracing overhead is measured on the same run. The last line of standard
output is one JSON object that ``run.py`` reads.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from checks import load_reference, mismatch  # noqa: E402
from speed import REFERENCE_S, probe  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
CHUNK_S = 0.1


def import_cli():
    """proctensor.cli from the checkout's ``src``, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import proctensor.cli

    if Path(proctensor.cli.__file__).resolve().parent.parent != src:
        raise ImportError(f"proctensor imported from {proctensor.cli.__file__}, not {src}")
    return proctensor.cli


def run_call(cli, call) -> tuple[int | None, str, float]:
    """Exit status, output text and wall seconds of one CLI call."""
    call.out.unlink(missing_ok=True)
    sink = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(list(call.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed call, not a failed run
        code = None
        print(f"call {call.key} raised {exc!r}", file=sys.stderr)
    dt = perf_counter() - t0
    out = call.out.read_text() if call.out.exists() else ""
    return code, out, dt


def check(reference: dict, call, code: int | None, out: str) -> bool:
    """Whether a call's exit status and output match its reference; prints why not."""
    why = mismatch(reference[call.key], code, out) if call.key in reference else "no reference"
    if why is not None:
        print(f"mismatch {call.key}: {why}", file=sys.stderr)
    return why is None


def quantile(values: list[float], q: int) -> float:
    """q-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def environment() -> dict:
    """Python, numpy, BLAS library and its thread count, as this process sees them."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads = getattr(handle, symbol)()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def per_layer(tracer, scale: dict[int, float], items: int, untraced_rate: float,
              traced_rate: float) -> dict:
    times = tracer.self_times(scale)

    def calls(name):
        return times.get(name, (0, 0.0))[0]

    def self_ms(name):
        return 1e3 * times.get(name, (0, 0.0))[1] / items

    out = {}
    for name in (
        "linalg.DensityMatrix", "linalg.trace_distance", "linalg.partial_trace",
        "linalg.state_spectrum", "processes.verify_causality",
        "processes.build_from_circuit", "processes.haar_unitary",
        "metrics.correlation_report", "metrics.audit_bounds", "io.load_choi",
        "io.load_process_spec", "channels.depolarizing_choi", "channels.channel_M",
    ):
        out[f"{name}.self_ms"] = (self_ms(name), "ms/item")
    for name in ("linalg.DensityMatrix", "linalg.partial_trace", "linalg.state_spectrum",
                 "processes.verify_causality"):
        out[f"{name}.calls"] = (calls(name) / items, "count/item")
    for branch in ("qr_calls", "dense_calls"):
        name = f"linalg.trace_distance.{branch}"
        out[name] = (tracer.counts[name] / items, "count/item")
    out["linalg.max_dense_side"] = (tracer.max_dense_side, "rows")
    builds = calls("processes.build_from_circuit")
    out["processes.verify_per_process"] = (
        calls("processes.verify_causality") / builds if builds else 0.0, "ratio")
    for layer in LAYERS:
        secs = sum(s for name, (_, s) in times.items() if name.startswith(layer + "."))
        out[f"{layer}.self_ms"] = (1e3 * secs / items, "ms/item")
    out["trace.overhead"] = (traced_rate / untraced_rate, "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True, help="directory for inputs and outputs")
    parser.add_argument("--setup-only", action="store_true", help="stop after the set-up")
    args = parser.parse_args(argv)

    # -- set-up: import, inputs from the seed, one warm-up call ------------
    cli = import_cli()
    args.work.mkdir(parents=True, exist_ok=True)
    plan = WORKLOADS[args.workload].prepare(args.seed, args.work)
    code, out, _ = run_call(cli, plan.warmup)
    setup_s = perf_counter() - T0
    # set-up time at the reference speed, like the call times below
    setup_s /= (probe() + probe()) / (2 * REFERENCE_S)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # -- timed phase: closed loop, one client ------------------------------
    # Outputs are checked as they come, so the benchmark holds none of them
    # and the peak RSS is the program's.
    reference = load_reference(args.workload)
    failed = 0 if check(reference, plan.warmup, code, out) else 1
    tracer = Tracer() if args.trace else None
    # Call times are divided by the machine's slow-down factor, measured
    # with the speed probe before and after each chunk of about CHUNK_S of calls.
    probes = [probe()]
    timings = []  # (traced, items, seconds, chunk)
    chunk_s = 0.0
    deadline = perf_counter() + args.seconds
    k = 0
    while True:
        rounds, at_boundary = divmod(k, plan.round_size)
        # stop on a round boundary, after an untraced-traced pair in trace mode
        if at_boundary == 0 and rounds >= 2 and perf_counter() >= deadline:
            if tracer is None or rounds % 2 == 0:
                break
        traced = tracer is not None and rounds % 2 == 1
        call = plan.calls[k % len(plan.calls)]
        if traced:
            tracer.call_id = k
            tracer.install()
        try:
            code, out, dt = run_call(cli, call)
        finally:
            if traced:
                tracer.uninstall()
        failed += not check(reference, call, code, out)
        timings.append((traced, call.items, dt, len(probes) - 1))
        chunk_s += dt
        if chunk_s >= CHUNK_S:
            probes.append(probe())
            chunk_s = 0.0
        k += 1
    probes.append(probe())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    kappa = WORKLOADS[args.workload].speed_sensitivity
    factors = [1 + kappa * ((a + b) / (2 * REFERENCE_S) - 1) for a, b in zip(probes, probes[1:])]
    call_s = {False: [], True: []}
    items = {False: 0, True: 0}
    for traced, n_items, dt, chunk in timings:
        call_s[traced].append(dt / factors[chunk])
        items[traced] += n_items
    rate = items[False] / sum(call_s[False])
    result = {
        "attempted": len(timings) + 1,
        "failed": failed,
        "calls": len(timings),
        "items": items[False] + items[True],
        "slowdown_median": statistics.median(factors),
        "setup_s": setup_s,
        "environment": environment(),
    }
    if tracer is None:
        result["metrics"] = {
            "items_per_s": (rate, "1/s"),
            "call_ms_p50": (1e3 * statistics.median(call_s[False]), "ms"),
            "call_ms_p90": (1e3 * quantile(call_s[False], 90), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        scale = {k: 1.0 / factors[chunk] for k, (_, _, _, chunk) in enumerate(timings)}
        traced_rate = items[True] / sum(call_s[True])
        result["metrics"] = per_layer(tracer, scale, items[True], rate, traced_rate)
        tracer.write(args.work / "spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
