"""Temporal-correlation quantifiers and the proved inequality audits.

All quantities are mutual informations of the 2n-slot Choi state, in nats:
total correlations over all slots, per-step (input:output) Markovian
correlations, and the non-Markovian correlations across step blocks.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL
from .linalg import DensityMatrix, kron, relative_entropy, von_neumann_entropies
from .processes import ProcessTensor, Transfer


@dataclass(frozen=True)
class CorrelationReport:
    """Correlation quantifiers of one process, all in nats.

    Every quantity is read from a ``Transfer``: the n step Choi states on
    (i_{j-1}, o_j), one single-slot state per output o_j and the global
    entropy S(P_n). A process built from a circuit has its own
    (``ProcessTensor.transfer``); any other state is read from its 2n
    slots (``Transfer.of_state``). The step values and the i_{j-1} singles
    of ``total`` come from the step states, the o_j singles of ``total``
    from the outputs, so ``additivity_residual`` compares two routes to the
    o_j marginals.
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
        """Sum of ``step_markov``, added left to right from the integer 0.

        That is how ``sum`` added floats before Python 3.12, whose ``sum``
        compensates; ``bound_slacks`` adds M in the same order.
        """
        return functools.reduce(operator.add, self.step_markov, 0)

    @property
    def step_complement(self) -> tuple[float, ...]:
        """2 ln d minus each step value."""
        log_d2 = 2.0 * math.log(self.d)
        return tuple(log_d2 - m for m in self.step_markov)

    @property
    def additivity_residual(self) -> float:
        """|total - (markov + non_markov)|."""
        return abs(self.total - (self.markov + self.non_markov))


# The proved bounds in their column order in a row of ``bound_slacks``, each
# marked True if it has one slack per step k and False if it has one slack.
# At n = 2 the row starts with the two-step pair, 2 comp_1 - N and comp_2 - N.
PER_STEP = {
    "unordered": True,          # 2 sum_{j!=k} comp_j - N, comp_j = 2 ln d - M_j
    "ordered": True,            # 2 sum_{j<k} comp_j + sum_{j>k} comp_j - N
    "max_nonmarkov": False,     # 2(n-1) ln d - N
    "markov_tradeoff": False,   # 2n ln d - ((2^n-1)/(2^n-2)) N - M
    "total_tradeoff": False,    # 2n ln d - N/(2^n-2) - I
}
SLACK_NAMES = tuple(PER_STEP)


@dataclass(frozen=True)
class BoundAudit:
    """Signed slacks (bound minus quantity) for every proved inequality, judged at ``tol``.

    ``slacks`` is an n-step row of ``bound_slacks``; ``slack`` reads one
    bound's columns from it. A slack of at least -``tol`` means the bound
    holds; zero slack flags saturation. ``dataclasses.replace(audit, tol=...)``
    re-judges the same slacks.
    """

    n: int
    slacks: tuple[float, ...]
    tol: float

    def slack(self, name: str) -> tuple[float, ...]:
        """The slacks of bound ``name``; ``"two_step"`` gives the n = 2 pair and at other n ()."""
        if name == "two_step":
            return self.slacks[:2] if self.n == 2 else ()
        starts = [*slack_starts(self.n), len(self.slacks)]
        k = SLACK_NAMES.index(name)
        return self.slacks[starts[k]:starts[k + 1]]

    @property
    def passed(self) -> bool:
        """Whether every slack is at least -``tol``; a NaN fails."""
        return bool(bounds_hold(np.array([self.slacks]), self.tol)[0])


def correlation_report(pt: ProcessTensor | DensityMatrix) -> CorrelationReport:
    """Compute all correlation quantifiers of a 2n-slot state, from one ``Transfer``.

    A process built from a circuit is read from its transfer, in O(n)
    matrices of side d^2, and its Choi state is never formed; any other
    state is read from its slots (``Transfer.of_state``). Accepts a raw
    multipartite density matrix as well, since the unordered bound applies
    without causality.
    """
    if isinstance(pt, ProcessTensor):
        transfer = pt.transfer if pt.transfer is not None else Transfer.of_state(pt.state)
    else:
        transfer = Transfer.of_state(pt)
    step, total, non_markov = (q[0].tolist() for q in transfer_quantities(transfer))
    d = transfer.outputs.shape[-1]
    return CorrelationReport(d=d, total=total, step_markov=tuple(step), non_markov=non_markov)


def transfer_quantities(transfer: Transfer) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step values (S, n), ``total`` (S,) and N (S,) of a stack of processes, in nats.

    Row k holds the fields of ``correlation_report`` on sample k built
    alone, bit for bit. Every spectrum of the stack comes from one batched
    ``eigvalsh`` per kind of state.
    """
    steps, outputs = transfer.steps, transfer.outputs
    s, n, d = steps.shape[0], steps.shape[1], outputs.shape[-1]
    blocks = steps.reshape(s, n, d, d, d, d)
    s_step = von_neumann_entropies(steps)
    singles = von_neumann_entropies(np.concatenate([
        np.einsum("sniojo->snij", blocks),  # i_{j-1}
        np.einsum("snioip->snop", blocks),  # o_j, from the step states
        outputs,                            # o_j, from the circuit's transfer or the slots
    ], axis=1))
    s_in, s_out, s_outputs = singles[:, :n], singles[:, n:2 * n], singles[:, 2 * n:]
    total = s_in.sum(axis=1) + s_outputs.sum(axis=1) - transfer.entropy
    # At n = 1 the one step block is the whole state, so N is exactly 0; the
    # difference of its two spectra's entropies would only show their rounding.
    non_markov = s_step.sum(axis=1) - transfer.entropy if n > 1 else np.zeros(s)
    return s_in + s_out - s_step, total, non_markov


def non_markovianity_crosscheck(pt: ProcessTensor | DensityMatrix) -> float:
    """Relative entropy to the product of step marginals.

    Independent route to the non-Markovian correlations: distance to the
    closest Markov (product-of-steps) Choi state. May return ``math.inf``
    on support mismatch; never silently capped.

    The step marginals are those of ``Transfer.of_state``. Each is
    validated as a d^2-sided ``DensityMatrix``, whose factor has at most
    d^2 columns, so the product's factor has at most d^{2n} (the marginals'
    own factors can be far wider). Where the marginals' pivoted Cholesky
    factors are certified, only ``relative_entropy`` eigendecomposes, once,
    on the product.
    """
    state = pt.state if isinstance(pt, ProcessTensor) else pt
    factors = [DensityMatrix(m, state.dims[:2]).factor for m in Transfer.of_state(state).steps[0]]
    product = DensityMatrix(None, state.dims, factor=functools.reduce(kron, factors))
    return relative_entropy(state, product)


def audit_bounds(
    report: CorrelationReport, tol: float = DEFAULT_TOL.xcheck
) -> BoundAudit:
    """Evaluate every proved inequality on a correlation report: one row of ``bound_slacks``."""
    row = bound_slacks(
        np.array([report.step_markov]), np.array([report.total]), np.array([report.non_markov]),
        report.d,
    )
    return BoundAudit(n=report.n, slacks=tuple(row[0].tolist()), tol=tol)


def slack_starts(n: int) -> list[int]:
    """First column of each bound of ``PER_STEP`` in an n-step row of ``bound_slacks``.

    At n = 2 the two-step pair comes first. Each bound's columns, n of them
    if it is per step and else one, run up to the next one's start.
    """
    widths = [n if per_step else 1 for per_step in PER_STEP.values()]
    return list(itertools.accumulate(widths[:-1], initial=2 if n == 2 else 0))


def bound_slacks(
    step: np.ndarray, total: np.ndarray, non_markov: np.ndarray, d: int
) -> np.ndarray:
    """Signed slacks (bound minus quantity) of every proved inequality, one row per process.

    ``step`` is (S, n), ``total`` and ``non_markov`` are (S,), as
    ``transfer_quantities`` returns them; the columns are laid out as
    ``slack_starts(n)`` says. Each entry is the float that the scalar
    formula gives, term by term in the same order: M is summed in step
    order and the sums over j < k and j > k accumulate outward from the
    ends, as ``sum`` and ``itertools.accumulate`` would on a row, while
    ``np.sum`` would add pairwise from n = 8. O(n) per row.
    """
    s, n = step.shape
    log_d = math.log(d)
    u, o, mx = slack_starts(n)[:3]    # first columns of unordered, ordered, max_nonmarkov
    comp = 2.0 * log_d - step         # 2 ln d - M_j
    slacks = np.zeros((s, mx + 3))
    before = slacks[:, o:mx]          # sum_{j<k} comp_j, formed in the ordered columns
    np.add.accumulate(comp[:, :-1], axis=1, out=before[:, 1:])
    after = np.zeros((s, n))          # sum_{j>k} comp_j
    np.add.accumulate(comp[:, :0:-1], axis=1, out=after[:, -2::-1])
    unordered = np.add(before, after, out=slacks[:, u:o])
    unordered *= 2.0                  # unordered: 2 sum_{j!=k} comp_j
    ordered = before
    ordered *= 2.0
    ordered += after                  # ordered: 2 sum_{j<k} + sum_{j>k} comp_j
    slacks[:, mx] = 2.0 * (n - 1) * log_d
    if n == 2:                        # the two-step bounds: 2 comp_1 and comp_2
        slacks[:, 0] = 2.0 * comp[:, 0]
        slacks[:, 1] = comp[:, 1]
    slacks[:, :mx + 1] -= non_markov[:, None]  # each bound so far, minus N
    big_m = np.add.accumulate(step, axis=1)[:, -1]
    if n == 1:
        # The step-count factor degenerates at n = 1, where N is identically
        # zero; the tradeoff bounds reduce to the plain range bounds.
        slacks[:, -2] = 2.0 * n * log_d - big_m
        slacks[:, -1] = 2.0 * n * log_d - total
    else:
        # (2^n - 1)/(2^n - 2) and N/(2^n - 2), scaled by 2^-n so that no
        # power of two overflows; the scaled terms are exact for n <= 53.
        tail = 1.0 - math.ldexp(1.0, 1 - n)
        weight = (1.0 - math.ldexp(1.0, -n)) / tail
        slacks[:, -2] = 2.0 * n * log_d - weight * non_markov - big_m
        slacks[:, -1] = 2.0 * n * log_d - np.ldexp(non_markov, -n) / tail - total
    return slacks


def bounds_hold(slacks: np.ndarray, tol: float) -> np.ndarray:
    """Per row of ``bound_slacks``, whether every slack is at least -``tol``; a NaN fails."""
    return (slacks >= -tol).all(axis=1)


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
