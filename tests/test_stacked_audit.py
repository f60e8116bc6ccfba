"""The stacked audit against the per-sample one, bit for bit.

``audit-random`` audits each stack of ``random_processes`` as arrays
(``transfer_quantities``, ``bound_slacks``, ``bounds_hold``). The oracle here
is the scalar route it replaced: one ``CorrelationReport`` per sample, built
alone, the bounds evaluated term by term in Python floats, and the summary
reduced sample by sample.
"""

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import proctensor.cli
import proctensor.metrics
from proctensor import io
from proctensor.config import DEFAULT_TOL
from proctensor.cli import main
from proctensor.metrics import (
    SLACK_NAMES,
    BoundAudit,
    CorrelationReport,
    audit_bounds,
    bound_slacks,
    bounds_hold,
    correlation_report,
    slack_starts,
    transfer_quantities,
)
from proctensor.processes import CausalityReport, RandomSpec, random_process, random_processes


@functools.cache
def single_report(spec: RandomSpec) -> CorrelationReport:
    """``correlation_report`` of ``spec``'s process built alone: the oracle of a stack's row."""
    return correlation_report(random_process(spec))


def scalar_slacks(report: CorrelationReport) -> dict[str, tuple[float, ...]]:
    """Every slack of ``report`` in Python floats, per name and, at n = 2, ``two_step``."""
    n, d = report.n, report.d
    comp = report.step_complement
    big_n, big_m, big_i = report.non_markov, report.markov, report.total
    log_d = math.log(d)
    before = [0.0, *itertools.accumulate(comp)]
    after = [*itertools.accumulate(reversed(comp))][::-1] + [0.0]
    slacks = {
        "unordered": tuple(2.0 * (before[k] + after[k + 1]) - big_n for k in range(n)),
        "ordered": tuple(2.0 * before[k] + after[k + 1] - big_n for k in range(n)),
        "max_nonmarkov": (2.0 * (n - 1) * log_d - big_n,),
    }
    if n == 1:
        slacks["markov_tradeoff"] = (2.0 * n * log_d - big_m,)
        slacks["total_tradeoff"] = (2.0 * n * log_d - big_i,)
    else:
        tail = 1.0 - math.ldexp(1.0, 1 - n)
        slacks["markov_tradeoff"] = (
            2.0 * n * log_d - (1.0 - math.ldexp(1.0, -n)) / tail * big_n - big_m,
        )
        slacks["total_tradeoff"] = (2.0 * n * log_d - math.ldexp(big_n, -n) / tail - big_i,)
    if n == 2:
        slacks["two_step"] = (2.0 * comp[0] - big_n, comp[1] - big_n)
    return slacks


def scalar_passed(slacks: dict[str, tuple[float, ...]], tol: float) -> bool:
    return all([s >= -tol for row in slacks.values() for s in row])


def audit_slacks(audit: BoundAudit) -> dict[str, tuple[float, ...]]:
    """The slacks of ``audit`` keyed as ``scalar_slacks`` keys them."""
    out = {name: audit.slack(name) for name in SLACK_NAMES}
    if two_step := audit.slack("two_step"):
        out["two_step"] = two_step
    return out


def row_slacks(row: list[float], n: int) -> dict[str, tuple[float, ...]]:
    """A row of ``bound_slacks`` keyed as ``scalar_slacks`` keys them."""
    starts = slack_starts(n)
    out = {name: tuple(row[a:b])
           for name, a, b in zip(SLACK_NAMES, starts, [*starts[1:], len(row)])}
    if n == 2:
        out["two_step"] = tuple(row[:2])
    return out


def oracle_summary(spec: RandomSpec, samples: int, tol: float, stacks) -> tuple[int, str]:
    """Exit status and summary of ``audit-random``, reduced sample by sample from scalar slacks.

    Each sample's causality row is judged in Python floats at the tolerance
    its stack was built at, ``DEFAULT_TOL.causal``.
    """
    worst, violations = 0.0, 0
    minima = dict.fromkeys(SLACK_NAMES, math.inf)
    for k, row in enumerate(row for _, residuals, _ in stacks for row in residuals.tolist()):
        worst = max(worst, max(row))
        if not all(res <= DEFAULT_TOL.causal for res in row):
            violations += 1
            continue
        slacks = scalar_slacks(single_report(dataclasses.replace(spec, seed=spec.seed + k)))
        for name in SLACK_NAMES:
            minima[name] = min(minima[name], min(slacks[name]))
        if not scalar_passed(slacks, tol):
            violations += 1
    lines = [f"samples = {samples}", f"n = {spec.n}", f"d = {spec.d}", f"d_env = {spec.d_env}",
             f"seed = {spec.seed}"]
    lines += [f"min_slack_{name} = {io.fmt(minima[name])}" for name in SLACK_NAMES]
    lines += [f"worst_causality_residual = {io.fmt(worst)}", f"violations = {violations}"]
    return (0 if violations == 0 else 1), "\n".join(lines) + "\n"


def run_audit(tmp_path, spec: RandomSpec, samples: int, tol: float) -> tuple[int, str]:
    out = tmp_path / "audit.txt"
    code = main(["audit-random", "--n", str(spec.n), "--d", str(spec.d), "--denv", str(spec.d_env),
                 "--samples", str(samples), "--seed", str(spec.seed), "--tol", repr(tol),
                 "--out", str(out)])
    return code, out.read_text()


class TestSlackKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3, 8, 9, 12]),
        d=st.sampled_from([2, 3]),
        d_env=st.sampled_from([1, 2, 4]),
        seed=st.integers(0, 2**31),
        count=st.integers(1, 5),
    )
    def test_stack_rows_equal_per_sample_audits(self, n, d, d_env, seed, count):
        spec = RandomSpec(n, d, d_env, seed)
        ((transfer, _, _),) = random_processes(spec, count)
        step, total, non_markov = transfer_quantities(transfer)
        slacks = bound_slacks(step, total, non_markov, d)
        assert slacks.shape == (count, slack_starts(n)[-1] + 1)
        for k in range(count):
            report = single_report(dataclasses.replace(spec, seed=seed + k))
            assert report.step_markov == tuple(step[k].tolist())
            assert (report.total, report.non_markov) == (total[k], non_markov[k])
            expected = scalar_slacks(report)
            audit = audit_bounds(report)
            assert row_slacks(slacks[k].tolist(), n) == expected
            assert audit_slacks(audit) == expected
            for tol in (0.0, 1e-8):
                passed = scalar_passed(expected, tol)
                assert bool(bounds_hold(slacks, tol)[k]) == passed
                assert dataclasses.replace(audit, tol=tol).passed == passed

    def test_empty_stack(self):
        for n in (1, 2, 9):
            slacks = bound_slacks(np.empty((0, n)), np.empty(0), np.empty(0), 2)
            assert slacks.shape == (0, slack_starts(n)[-1] + 1)
            assert bounds_hold(slacks, 0.0).shape == (0,)


# (n, d, d_env, seed, samples): one to several stacks, n >= 8 for the summation order
SUMMARIES = [
    (1, 2, 4, 0, 5), (1, 3, 1, 4, 40), (2, 2, 4, 3, 70), (2, 3, 2, 8, 12), (2, 2, 1, 0, 7),
    (3, 2, 4, 1, 100), (3, 3, 2, 5, 30), (5, 2, 4, 2, 9), (9, 2, 4, 7, 120), (12, 3, 1, 6, 6),
]


class TestAuditSummary:
    @pytest.mark.parametrize("n, d, d_env, seed, samples", SUMMARIES)
    @pytest.mark.parametrize("tol", [1e-8, 0.0])
    def test_summary_bytes_equal_the_per_sample_reduction(
        self, tmp_path, n, d, d_env, seed, samples, tol
    ):
        spec = RandomSpec(n, d, d_env, seed)
        expected = oracle_summary(spec, samples, tol, random_processes(spec, samples))
        assert run_audit(tmp_path, spec, samples, tol) == expected


class TestEdgeStacks:
    """Stacks in which some or all samples fail the causality hierarchy."""

    @staticmethod
    def failing(fails):
        """``random_processes`` whose rows fail for the sample indices that ``fails`` picks.

        A failing row gets its last level at twice the tolerance, the others
        as built, and is no longer marked certified.
        """

        def engine(spec, count):
            start = 0
            for transfer, residuals, certified in random_processes(spec, count):
                failed = np.array([fails(start + k) for k in range(len(residuals))])
                residuals[failed, -1] = 2.0 * DEFAULT_TOL.causal
                yield transfer, residuals, certified & ~failed
                start += len(residuals)

        return engine

    @pytest.mark.parametrize("n, d, d_env, seed, samples, tol", [
        (3, 2, 4, 1, 100, 1e-8),   # three stacks
        (2, 2, 1, 0, 7, 0.0),      # every audited sample also fails its bounds
        (9, 2, 4, 7, 40, 1e-8),
    ])
    @pytest.mark.parametrize("fails", [lambda k: k % 3 == 1, lambda k: True, lambda k: k == 0],
                             ids=["some", "all", "first"])
    def test_failed_samples_count_once_and_are_not_audited(
        self, tmp_path, monkeypatch, n, d, d_env, seed, samples, tol, fails
    ):
        engine = self.failing(fails)
        monkeypatch.setattr(proctensor.cli, "random_processes", engine)
        spec = RandomSpec(n, d, d_env, seed)
        code, text = run_audit(tmp_path, spec, samples, tol)
        assert (code, text) == oracle_summary(spec, samples, tol, engine(spec, samples))
        fields = dict(ln.split(" = ") for ln in text.splitlines())
        failed = sum(map(fails, range(samples)))
        assert failed <= int(fields["violations"]) <= samples
        if failed == samples:
            assert all(fields[f"min_slack_{name}"] == "inf" for name in SLACK_NAMES)
        if d_env == 1 and tol == 0.0:
            assert fields["violations"] == str(samples)


class TestNoPerSampleObjects:
    def test_audit_builds_no_report_or_audit(self, tmp_path, monkeypatch):
        built = {BoundAudit: 0, CorrelationReport: 0, CausalityReport: 0}
        for cls in built:
            init = cls.__init__

            def counting(self, *args, _cls=cls, _init=init, **kwargs):
                built[_cls] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        audit_bounds(proctensor.metrics.correlation_report(
            proctensor.processes.random_process(RandomSpec(3, 2, 4, 0))))
        assert built == {BoundAudit: 1, CorrelationReport: 1, CausalityReport: 1}  # they count
        out = tmp_path / "audit.txt"
        assert main(["audit-random", "--n", "3", "--samples", "100", "--out", str(out)]) == 0
        assert built == {BoundAudit: 1, CorrelationReport: 1, CausalityReport: 1}
