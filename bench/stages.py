"""Per-sample cost of the random audit by stage, from traced spans.

    python3 bench/stages.py

Prints the ROADMAP's stage table: for each (n, d) with d_env = 4, the
median over single-sample ``audit-random`` calls of

- build: ``build_from_circuit``, which includes its own causality check;
- second verify: the ``verify_causality`` call the audit makes itself;
- report + audit: ``correlation_report`` and ``audit_bounds``.

Only the stage functions and the CLI are wrapped, so the other layers run
untraced. This is a diagnostic command, not a gated workload.
"""

from __future__ import annotations

import os
import statistics
import sys

from run import WORK, worker_env

os.environ.update(worker_env())  # same BLAS threads as the measured runs, before numpy loads

from tracer import Tracer  # noqa: E402
from worker import import_cli, run_call  # noqa: E402
from workloads import Call  # noqa: E402

GRID = ((3, 2, 20), (5, 2, 10), (6, 2, 5), (4, 3, 3))  # (n, d, samples)
D_ENV = 4
SPANS = {
    "cli.main", "cli.cmd_audit_random", "processes.build_from_circuit",
    "processes.verify_causality", "metrics.correlation_report", "metrics.audit_bounds",
}


def stage_seconds(tracer: Tracer) -> dict[str, float]:
    names = {sid: name for sid, _, name, *_ in tracer.spans}
    out = {"build": 0.0, "verify": 0.0, "report": 0.0}
    for _sid, parent, name, t0, t1, _call in tracer.spans:
        if name == "processes.build_from_circuit":
            out["build"] += t1 - t0
        elif name == "processes.verify_causality" and names.get(parent) == "cli.cmd_audit_random":
            out["verify"] += t1 - t0
        elif name in ("metrics.correlation_report", "metrics.audit_bounds"):
            out["report"] += t1 - t0
    return out


def main() -> int:
    cli = import_cli()
    work = WORK / "stages"
    work.mkdir(parents=True, exist_ok=True)
    print("| n, d | build (includes a causality check) | second `verify_causality` | report + audit |")
    print("|---|---|---|---|")
    for n, d, samples in GRID:

        def call(seed: int) -> Call:
            argv = ("audit-random", "--n", str(n), "--d", str(d), "--denv", str(D_ENV),
                    "--samples", "1", "--seed", str(seed), "--out", str(work / "audit.txt"))
            return Call(f"seed={seed}", argv, work / "audit.txt", 1)

        run_call(cli, call(samples))  # warm-up
        per_stage: dict[str, list[float]] = {"build": [], "verify": [], "report": []}
        for seed in range(samples):
            tracer = Tracer(SPANS)
            tracer.install()
            try:
                code, _, _ = run_call(cli, call(seed))
            finally:
                tracer.uninstall()
            if code != 0:
                print(f"audit-random n={n} d={d} seed={seed} exited {code}", file=sys.stderr)
                return 1
            for stage, secs in stage_seconds(tracer).items():
                per_stage[stage].append(secs)
        cells = [f"{1e3 * statistics.median(per_stage[s]):.3g} ms" for s in ("build", "verify", "report")]
        print(f"| {n}, {d} | " + " | ".join(cells) + " |", flush=True)
    print(f"\nMedian of {', '.join(str(s) for *_, s in GRID)} samples; d_env = {D_ENV}.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
