"""Temporal-correlation quantifiers and the proved inequality audits.

All quantities are mutual informations of the 2n-slot Choi state, in nats:
total correlations over all slots, per-step (input:output) Markovian
correlations, and the non-Markovian correlations across step blocks.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL
from .linalg import (
    DensityMatrix,
    factor_entropies,
    kron,
    partial_trace,
    relative_entropy,
    von_neumann_entropies,
    von_neumann_entropy,
)
from .processes import ProcessTensor, Transfer, slot_shape


@dataclass(frozen=True)
class CorrelationReport:
    """Correlation quantifiers of one process, all in nats.

    Every quantity is read from the n step Choi states on (i_{j-1}, o_j),
    one single-slot state per output o_j and one global entropy. For a
    process built from a circuit they come from its transfer
    (``ProcessTensor.transfer``): the step states and the outputs as the
    transfer gives them, and the global entropy from its final environment
    state. Any other state is read from its 2n slots: the step marginals,
    the single slots o_j and the entropy of the full state. The step values
    and the i_{j-1} singles of ``total`` come from the step states, the o_j
    singles of ``total`` from the outputs, so ``additivity_residual``
    compares two routes to the o_j marginals.
    """

    d: int
    total: float                      # multipartite MI over all 2n slots
    step_markov: tuple[float, ...]    # per-step (input:output) MI
    non_markov: float                 # MI across step blocks

    @property
    def n(self) -> int:
        """Step count: the length of ``step_markov``."""
        return len(self.step_markov)

    @property
    def markov(self) -> float:
        """Sum of ``step_markov``."""
        return sum(self.step_markov)

    @property
    def step_complement(self) -> tuple[float, ...]:
        """2 ln d minus each step value."""
        log_d2 = 2.0 * math.log(self.d)
        return tuple(log_d2 - m for m in self.step_markov)

    @property
    def additivity_residual(self) -> float:
        """|total - (markov + non_markov)|."""
        return abs(self.total - (self.markov + self.non_markov))


# The proved bounds, each read as the field ``f"{name}_slack"`` of a ``BoundAudit``.
SLACK_NAMES = ("unordered", "ordered", "max_nonmarkov", "markov_tradeoff", "total_tradeoff")


@dataclass(frozen=True)
class BoundAudit:
    """Signed slacks (bound minus quantity) for every proved inequality, judged at ``tol``.

    A slack of at least -``tol`` means the bound holds; zero slack flags
    saturation. ``two_step_slacks`` is populated only for n = 2.
    ``dataclasses.replace(audit, tol=...)`` re-judges the same slacks.
    """

    unordered_slack: tuple[float, ...]   # per k: 2*sum_{j!=k} complement_j - N
    ordered_slack: tuple[float, ...]     # per k: 2*sum_{j<k} + sum_{j>k} complements - N
    max_nonmarkov_slack: float           # 2(n-1) ln d - N
    markov_tradeoff_slack: float         # 2n ln d - ((2^n-1)/(2^n-2)) N - M
    total_tradeoff_slack: float          # 2n ln d - N/(2^n-2) - I
    two_step_slacks: tuple[float, float] | None
    tol: float

    @property
    def passed(self) -> bool:
        """Whether every slack, the two-step ones included, is at least -``tol``; a NaN fails."""
        slacks = list(self.two_step_slacks or ())
        for name in SLACK_NAMES:
            s = getattr(self, f"{name}_slack")
            slacks += s if isinstance(s, tuple) else (s,)
        return all([s >= -self.tol for s in slacks])


def _as_state(pt: ProcessTensor | DensityMatrix) -> tuple[DensityMatrix, int, int]:
    if isinstance(pt, ProcessTensor):
        return pt.state, pt.n, pt.d
    n, d = slot_shape(pt)
    return pt, n, d


def correlation_report(pt: ProcessTensor | DensityMatrix) -> CorrelationReport:
    """Compute all correlation quantifiers of a 2n-slot state.

    A process built from a circuit is read from its transfer, in O(n)
    matrices of side d^2 and one eigensolve of side d_env r, and its Choi
    state is never formed; any other state is read from its slots (see
    ``CorrelationReport``). Accepts a raw multipartite density matrix as
    well, since the unordered bound applies without causality.
    """
    if isinstance(pt, ProcessTensor) and pt.transfer is not None:
        return transfer_reports(pt.transfer)[0]
    state, n, d = _as_state(pt)
    steps = np.array([partial_trace(state, (2 * j, 2 * j + 1)).mat for j in range(n)])
    outputs = np.array([partial_trace(state, (2 * j + 1,)).mat for j in range(n)])
    return _reports(steps[None], outputs[None], np.array([von_neumann_entropy(state)]))[0]


def transfer_reports(transfer: Transfer) -> list[CorrelationReport]:
    """Correlation reports of a stack of circuits, one per sample of ``transfer``.

    The global entropies come from the final environment states, and every
    spectrum of the stack from one batched ``eigvalsh`` per kind of state.
    """
    return _reports(transfer.steps, transfer.outputs, factor_entropies(transfer.final))


def _reports(
    steps: np.ndarray, outputs: np.ndarray, s_global: np.ndarray
) -> list[CorrelationReport]:
    """Reports of a stack (S, n, ...) of step states and outputs, with global entropies (S,)."""
    s, n, d = steps.shape[0], steps.shape[1], outputs.shape[-1]
    blocks = steps.reshape(s, n, d, d, d, d)
    s_step = von_neumann_entropies(steps)
    singles = von_neumann_entropies(np.concatenate([
        np.einsum("sniojo->snij", blocks),  # i_{j-1}
        np.einsum("snioip->snop", blocks),  # o_j, from the step states
        outputs,                            # o_j, from the transfer or the slots
    ], axis=1))
    s_in, s_out, s_outputs = singles[:, :n], singles[:, n:2 * n], singles[:, 2 * n:]
    step = (s_in + s_out - s_step).tolist()
    total = (np.sum(s_in, axis=1) + np.sum(s_outputs, axis=1) - s_global)
    # At n = 1 the one step block is the whole state, so N is exactly 0; the
    # difference of its two spectra's entropies would only show their rounding.
    non_markov = (np.sum(s_step, axis=1) - s_global).tolist() if n > 1 else [0.0] * s
    return [CorrelationReport(d=d, total=tot, step_markov=tuple(st), non_markov=nm)
            for st, tot, nm in zip(step, total.tolist(), non_markov)]


def non_markovianity_crosscheck(pt: ProcessTensor | DensityMatrix) -> float:
    """Relative entropy to the product of step marginals.

    Independent route to the non-Markovian correlations: distance to the
    closest Markov (product-of-steps) Choi state. May return ``math.inf``
    on support mismatch; never silently capped.

    Each step marginal gets a fresh factor from the eigh of its own
    d^2-sided matrix, so the product's factor has at most d^{2n} columns
    (the marginals' own factors can be far wider), and only
    ``relative_entropy`` eigendecomposes the product.
    """
    state, n, _ = _as_state(pt)
    margs = (partial_trace(state, (2 * j, 2 * j + 1)) for j in range(n))
    factors = [DensityMatrix(m.mat, m.dims).factor for m in margs]
    product = DensityMatrix(None, state.dims, factor=functools.reduce(kron, factors))
    return relative_entropy(state, product)


def audit_bounds(
    report: CorrelationReport, tol: float = DEFAULT_TOL.xcheck
) -> BoundAudit:
    """Evaluate every proved inequality on a correlation report."""
    n, d = report.n, report.d
    comp = report.step_complement
    big_n, big_m, big_i = report.non_markov, report.markov, report.total
    log_d = math.log(d)
    before = [0.0, *itertools.accumulate(comp)]                  # sum_{j<k} comp_j
    after = [*itertools.accumulate(reversed(comp))][::-1] + [0.0]  # sum_{j>=k} comp_j
    unordered = tuple(2.0 * (before[k] + after[k + 1]) - big_n for k in range(n))
    ordered = tuple(2.0 * before[k] + after[k + 1] - big_n for k in range(n))
    thm1 = 2.0 * (n - 1) * log_d - big_n
    if n == 1:
        # The step-count factor degenerates at n = 1, where N is identically
        # zero; the tradeoff bounds reduce to the plain range bounds.
        thm2 = 2.0 * n * log_d - big_m
        thm2p = 2.0 * n * log_d - big_i
    else:
        # (2^n - 1)/(2^n - 2) and N/(2^n - 2), scaled by 2^-n so that no
        # power of two overflows; the scaled terms are exact for n <= 53.
        tail = 1.0 - math.ldexp(1.0, 1 - n)
        thm2 = 2.0 * n * log_d - (1.0 - math.ldexp(1.0, -n)) / tail * big_n - big_m
        thm2p = 2.0 * n * log_d - math.ldexp(big_n, -n) / tail - big_i
    two_step = None
    if n == 2:
        two_step = (2.0 * comp[0] - big_n, comp[1] - big_n)
    return BoundAudit(
        unordered_slack=unordered,
        ordered_slack=ordered,
        max_nonmarkov_slack=thm1,
        markov_tradeoff_slack=thm2,
        total_tradeoff_slack=thm2p,
        two_step_slacks=two_step,
        tol=tol,
    )


Status = str  # "vacuous" | "holds" | "violated"


def implication_checks(report: CorrelationReport, epsilon: float) -> dict[str, Status]:
    """Evaluate the two-step high/low correlation implications.

    Each implication is "vacuous" when its premise does not fire, "holds"
    when premise and conclusion both hold, and "violated" otherwise.
    """
    if report.n != 2:
        raise ValueError(f"implication checks are defined for n = 2, got n = {report.n}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    log_d = math.log(report.d)
    m1, m2 = report.step_markov
    big_n, big_i = report.non_markov, report.total

    def judge(premise: bool, conclusion: bool) -> Status:
        if not premise:
            return "vacuous"
        return "holds" if conclusion else "violated"

    return {
        "high_step1_markov": judge(m1 >= 2 * log_d - epsilon, big_n <= 2 * epsilon),
        "high_step2_markov": judge(m2 >= 2 * log_d - epsilon, big_n <= epsilon),
        "high_total": judge(big_i >= 4 * log_d - epsilon, big_n <= 2 * epsilon),
        "high_non_markov": judge(
            big_n >= 2 * log_d - 2 * epsilon,
            m1 <= log_d + epsilon and m2 <= 2 * epsilon and big_i <= 3 * log_d + epsilon,
        ),
    }
