"""Command-line surface: sweeps, analysis, randomized audits and verification.

Exit status: 0 = all checks pass, 1 = a verified-false condition
(bound or causality violation), 2 = input/usage error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import io
from .config import DEFAULT_TOL
from .linalg import LinalgError
from .metrics import (
    SLACK_NAMES,
    audit_bounds,
    bound_slacks,
    bounds_hold,
    correlation_report,
    slack_starts,
    transfer_quantities,
)
from .processes import (
    CausalityError,
    RandomSpec,
    causality_holds,
    fredkin_processes,
    random_processes,
    # Not called here: bench/test_bench.py asserts that its tracer rebinds this name in cli.
    verify_causality,  # noqa: F401
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


def _parse_dims(text: str) -> list[int]:
    try:
        dims = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated dimension list: {text!r}")
    if not dims or any(d < 2 for d in dims):
        raise argparse.ArgumentTypeError(f"dimensions must be >= 2: {text!r}")
    return dims


def _parse_tol(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0: {text!r}")
    return tol


def _grid(points: int) -> list[float]:
    """``points`` evenly spaced values of p in [0, 1]; fewer than 2 is a usage error."""
    if points < 2:
        raise ValueError("--grid must be >= 2")
    return [j / (points - 1) for j in range(points)]


def _fredkin_stack(grid: list[float], n: int, d: int) -> tuple[np.ndarray, ...]:
    """Causality residuals and ``transfer_quantities`` of n Fredkin steps at each p of ``grid``.

    The grid is built in the stacks of ``fredkin_processes``, so its peak
    memory does not grow with the grid. Returns the residuals (points, n),
    then the step values, ``total`` and N.
    """
    stacks = [(r, *transfer_quantities(t)) for t, r, _ in fredkin_processes(grid, n, d)]
    return tuple(np.concatenate(column) for column in zip(*stacks))


def _violated(residuals: np.ndarray, grid: list[float], where: str = "") -> bool:
    """Whether a row of ``residuals`` fails ``causality_holds``; names its first p on stderr."""
    failed = np.flatnonzero(~causality_holds(residuals))
    if len(failed):
        k = failed[0]
        print(f"error: causality hierarchy violated at {where}p = {grid[k]}: worst residual "
              f"{residuals[k].max():.3e} > {DEFAULT_TOL.causal:.1e}", file=sys.stderr)
    return bool(len(failed))


def cmd_sweep_depolarizing(args: argparse.Namespace) -> int:
    grid, rows = _grid(args.grid), []
    for d in args.d:
        # The one-step Fredkin dilation is the depolarizing channel; M is its step value.
        residuals, step, _, _ = _fredkin_stack(grid, 1, d)
        if _violated(residuals, grid, f"d = {d}, "):
            return EXIT_VIOLATION
        rows += [(float(d), p, m) for p, m in zip(grid, step[:, 0].tolist())]
    _write_lines(args.out, io.csv_lines(("d", "p", "M_nats"), rows))
    return EXIT_OK


def cmd_emit_figure(args: argparse.Namespace) -> int:
    if args.figure == "fig2":
        return cmd_sweep_depolarizing(args)
    if args.d != [2]:
        print("error: --figure fig6 is a qubit circuit and takes no --d but 2", file=sys.stderr)
        return EXIT_USAGE
    grid = _grid(args.grid)
    residuals, step, total, non_markov = _fredkin_stack(grid, 2, 2)
    if _violated(residuals, grid):
        return EXIT_VIOLATION
    values = np.column_stack([step, non_markov, total]).tolist()  # M1, M2, N, I
    rows = [(p, *row) for p, row in zip(grid, values)]
    _write_lines(args.out, io.csv_lines(("p", "M1", "M2", "N", "I"), rows))
    return EXIT_OK


def _write_lines(out: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        pt = io.load_process(args.infile, args.tol)
    except CausalityError as exc:
        _write_lines(args.out, io.causality_lines(exc.report))
        return EXIT_VIOLATION
    report = correlation_report(pt)
    audit = audit_bounds(report)
    lines = io.causality_lines(pt.causality) + io.report_lines(report) + io.audit_lines(audit)
    _write_lines(args.out, lines)
    return EXIT_OK if audit.passed else EXIT_VIOLATION


def cmd_audit_random(args: argparse.Namespace) -> int:
    if args.samples < 1:
        print("error: --samples must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    t0 = time.monotonic()
    worst_causality = 0.0
    column_minima = math.inf  # per column of ``bound_slacks``, over every audited sample
    violations = 0
    spec = RandomSpec(n=args.n, d=args.d, d_env=args.denv, seed=args.seed)
    for transfer, residuals, _ in random_processes(spec, args.samples):
        worst_causality = max(worst_causality, residuals.max())
        # A sample that fails the hierarchy is a violation and is not audited.
        passed = causality_holds(residuals)
        slacks = bound_slacks(*(q[passed] for q in transfer_quantities(transfer)), spec.d)
        column_minima = np.minimum(column_minima, slacks.min(axis=0, initial=math.inf))
        violations += len(passed) - np.count_nonzero(bounds_hold(slacks, args.tol))
        del transfer, residuals, slacks  # not held while the next stack is drawn
    min_slacks = np.minimum.reduceat(column_minima, slack_starts(spec.n)).tolist()
    elapsed = time.monotonic() - t0
    lines = [
        f"samples = {args.samples}",
        f"n = {args.n}",
        f"d = {args.d}",
        f"d_env = {args.denv}",
        f"seed = {args.seed}",
    ]
    for name, low in zip(SLACK_NAMES, min_slacks):
        lines.append(f"min_slack_{name} = {io.fmt(low)}")
    lines.append(f"worst_causality_residual = {io.fmt(worst_causality)}")
    lines.append(f"violations = {violations}")
    _write_lines(args.out, lines)
    # keep the summary file deterministic; timing goes to stderr only
    print(f"audit wall time: {elapsed:.2f}s", file=sys.stderr)
    return EXIT_OK if violations == 0 else EXIT_VIOLATION


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        report = io.load_process(args.infile, args.tol).causality
    except CausalityError as exc:
        report = exc.report
    _write_lines(args.out, io.causality_lines(report))
    return EXIT_OK if report.passed else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proctensor",
        description="Temporal correlations of multitime quantum processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, tol: float | None = None) -> None:
        p.add_argument("--out", default=None, help="output file path")
        if tol is not None:
            p.add_argument("--tol", type=_parse_tol, default=tol,
                           help=f"tolerance (finite, >= 0; default {tol})")

    p = sub.add_parser("sweep-depolarizing", help="CSV of channel correlation vs p")
    p.add_argument("--d", type=_parse_dims, default=[2], help="comma-separated dims")
    p.add_argument("--grid", type=int, default=101, help="number of p-grid points")
    common(p)
    p.set_defaults(func=cmd_sweep_depolarizing)

    p = sub.add_parser("emit-figure", help="CSV data for the reference figures")
    p.add_argument("--figure", choices=("fig2", "fig6"), required=True)
    p.add_argument("--d", type=_parse_dims, default=[2])
    p.add_argument("--grid", type=int, default=101)
    common(p)
    p.set_defaults(func=cmd_emit_figure)

    p = sub.add_parser("analyze", help="full report for a spec or Choi file")
    p.add_argument("--in", dest="infile", required=True, help="spec JSON or Choi file")
    common(p, DEFAULT_TOL.causal)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("audit-random", help="randomized bound audit")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--denv", type=int, default=4)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    common(p, DEFAULT_TOL.xcheck)
    p.set_defaults(func=cmd_audit_random)

    p = sub.add_parser("verify", help="causality check of a spec or Choi file")
    p.add_argument("--in", dest="infile", required=True, help="spec JSON or Choi file")
    common(p, DEFAULT_TOL.causal)
    p.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process: parsing keeps no state in it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (io.SpecFileError, ValueError, LinalgError, MemoryError) as exc:
        # numpy's MemoryError names the refused allocation; a bare one has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
