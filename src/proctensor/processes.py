"""n-step process tensors: circuit construction, causality checks, named examples.

The Choi state of an n-step process carries 2n slots of uniform dimension d
in the order (i_0, o_1, i_1, o_2, ..., i_{n-1}, o_n). A single environment
persists through all steps; it is traced out only at the end, so memory may
flow through it between steps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from .config import DEFAULT_TOL, max_dense_dim
from .linalg import (
    DensityMatrix,
    DimensionLimitError,
    NotAStateError,
    kron,
    maximally_mixed,
    partial_trace,
    trace_distance,
    unitarity_residual,
)


@dataclass(frozen=True)
class CausalityReport:
    """Per-level residuals of the trace-condition hierarchy.

    ``bounds`` marks residuals that are upper bounds on the generic ones.
    """

    residuals: tuple[float, ...]  # level j = residuals[j-1], j = n down to 1
    base_residual: float          # first-input marginal vs maximally mixed
    tol: float
    passed: bool
    bounds: bool = False

    @classmethod
    def judge(
        cls, residuals: tuple[float, ...], base_residual: float, tol: float, bounds: bool = False
    ) -> "CausalityReport":
        """Report whose ``passed`` compares every residual with ``tol``."""
        passed = all(res <= tol for res in residuals) and base_residual <= tol
        return cls(residuals, base_residual, tol, passed, bounds)

    @property
    def worst(self) -> float:
        """Largest residual, base level included."""
        return max(self.residuals + (self.base_residual,))


class CausalityError(ValueError):
    """A state fails the causality hierarchy; ``report`` holds its residuals."""

    def __init__(self, report: CausalityReport) -> None:
        super().__init__(
            f"causality hierarchy violated: worst residual "
            f"{report.worst:.3e} > {report.tol:.1e}"
        )
        self.report = report


def slot_shape(state: DensityMatrix) -> tuple[int, int]:
    """(n, d) of a state on 2n slots of uniform dimension d; raises otherwise."""
    k = state.num_subsystems
    if k == 0 or k % 2 != 0:
        raise ValueError(f"a process tensor needs an even slot count, got {k}")
    d = state.dims[0]
    if any(dim != d for dim in state.dims):
        raise ValueError(f"slot dimensions must be uniform, got {state.dims}")
    return k // 2, d


@dataclass(frozen=True)
class ProcessTensor:
    """Causality-verified Choi state of an n-step process.

    ``causality`` is the hierarchy's report, computed once at construction
    with the tolerance it was built with; its ``passed`` is always true.
    """

    state: DensityMatrix
    n: int
    d: int
    causality: CausalityReport

    @classmethod
    def from_state(
        cls, state: DensityMatrix, tol_causal: float = DEFAULT_TOL.causal
    ) -> "ProcessTensor":
        """Verify ``state`` against the hierarchy; raises ``CausalityError`` if it fails."""
        return cls._carry(state, verify_causality(state, tol_causal))

    @classmethod
    def _carry(cls, state: DensityMatrix, report: CausalityReport) -> "ProcessTensor":
        if not report.passed:
            raise CausalityError(report)
        n, d = slot_shape(state)
        return cls(state=state, n=n, d=d, causality=report)


@dataclass(frozen=True)
class CircuitProcessSpec:
    """Circuit description of an n-step dilation, one unitary per step.

    Each unitary acts on system (x) environment, system first; the same
    environment, initially ``env_state``, threads through all steps. Its
    factor purifies it, with a rank that no tolerance sets (``DensityMatrix``).
    Each unitary's ``unitarity_residual`` ||U^dag U - I||_op must be at most
    ``DEFAULT_TOL.eig``; kept in ``residuals``, they certify the built process's causality.
    """

    n: int
    d: int
    env_state: DensityMatrix
    unitaries: tuple[np.ndarray, ...]
    residuals: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.d < 2:
            raise ValueError(f"d must be >= 2, got {self.d}")
        us = tuple(np.asarray(u, dtype=complex) for u in self.unitaries)
        object.__setattr__(self, "unitaries", us)
        if len(us) != self.n:
            raise ValueError(f"expected {self.n} unitaries, got {len(us)}")
        dim = self.d * self.d_env
        for j, u in enumerate(us):
            if u.shape != (dim, dim):
                raise ValueError(f"unitary {j} has shape {u.shape}, expected {(dim, dim)}")
            u.setflags(write=False)
        object.__setattr__(self, "residuals", tuple(map(unitarity_residual, us)))
        for j, res in enumerate(self.residuals):
            if res > DEFAULT_TOL.eig:
                raise ValueError(f"unitary {j} unitarity residual {res:.3e}")

    @property
    def d_env(self) -> int:
        return self.env_state.dim


EnvInit = Literal["maximally-mixed", "pure-ground", "seeded-random"]


@dataclass(frozen=True)
class RandomSpec:
    """Seeded random process: Haar unitaries over a shared environment."""

    n: int
    d: int
    d_env: int
    seed: int
    env_init: EnvInit = "maximally-mixed"

    def __post_init__(self) -> None:
        if self.n < 1 or self.d < 2 or self.d_env < 1:
            raise ValueError(f"invalid (n, d, d_env) = {(self.n, self.d, self.d_env)}")


def build_from_circuit(
    spec: CircuitProcessSpec, tol_causal: float = DEFAULT_TOL.causal
) -> ProcessTensor:
    """Simulate the Choi-generating circuit and return the process tensor.

    A fresh maximally entangled pair feeds each step: its live half passes
    through the step unitary (becoming output slot o_j) while the kept half
    becomes input slot i_{j-1}. A single purified environment survives across
    steps and is traced out at the end: the rows of the returned state's
    factor index the 2n slots and its columns (environment, ancilla), where
    the ancilla indexes the columns of ``spec.env_state.factor``.

    Causality is decided by ``_unitarity_certificate``, computed from the
    unitaries alone, with ``tol_causal``; a failed hierarchy raises
    ``CausalityError``. Leaks that the spec allowed can still move the
    state's trace beyond ``DEFAULT_TOL.tr``; the ``NotAStateError`` then
    names the leakiest unitary.
    """
    n, d, de = spec.n, spec.d, spec.d_env
    psi_env = spec.env_state.factor  # (de, r)
    r = psi_env.shape[1]
    working = d ** (2 * n) * de * r
    if working > max_dense_dim():
        raise DimensionLimitError(
            f"working dimension {working} exceeds dense limit {max_dense_dim()}"
        )
    # vec axes: (slots of P_{j-1}, env, ancilla). The new pair's amplitudes
    # are I/sqrt(d), so its kept half i_{j-1} selects the input column of
    # the unitary on the live half.
    vec = psi_env.reshape(1, de, r)
    for u in spec.unitaries:
        t = np.tensordot(vec, u.reshape(d, de, d, de), axes=([1], [3]))
        # t axes: (slots, ancilla, o_j, env, i_{j-1})
        vec = t.transpose(0, 4, 2, 3, 1).reshape(-1, de, r) / math.sqrt(d)
    try:
        state = DensityMatrix(None, (d,) * (2 * n), factor=vec.reshape(-1, de * r))
    except NotAStateError as exc:
        j = int(np.argmax(spec.residuals))
        raise NotAStateError(
            f"{exc}; the unitaries leak trace, unitary {j} the most "
            f"(unitarity residual {spec.residuals[j]:.3e})"
        ) from exc
    return ProcessTensor._carry(state, _unitarity_certificate(spec, state, tol_causal))


def _level_residuals(chain: Sequence[DensityMatrix], d: int) -> list[float]:
    """Residuals T(tr_{o_j} M_j, M_{j-1} (x) I/d) of a chain M_1..M_n.

    M_j lives on the 2j slots (i_0, o_1, ..., i_{j-1}, o_j); M_0 (x) I/d is
    read as I/d.
    """
    residuals = []
    for j, m in enumerate(chain, start=1):
        lhs = partial_trace(m, range(2 * j - 1))
        if j == 1:
            rhs = maximally_mixed(d)
        else:
            prev = chain[j - 2]
            fac = np.kron(prev.factor, np.eye(d) / math.sqrt(d))
            rhs = DensityMatrix(None, prev.dims + (d,), factor=fac)
        residuals.append(trace_distance(lhs, rhs))
    return residuals


# Rounding allowance between a computed generic residual and its computed certificate; the
# largest excess over the SWAP, Fredkin and CNOT circuits and 600 random processes, n <= 5,
# d <= 3, half leaking 1e-13 to 3e-11, half with tr env up to 9e-11 off 1, was 3.7e-16.
_ROUNDING = 1e-14


def _unitarity_certificate(
    spec: CircuitProcessSpec, state: DensityMatrix, tol: float
) -> CausalityReport:
    """Hierarchy report of ``state``, the Choi state of ``spec``, from its unitaries.

    Step j applies U = U_j to Y = X_{j-1} (x) Phi, where X_{j-1} >= 0 is the
    (j-1)-step prefix before the environment is traced; X_0, the environment,
    has trace t. With c_j = ||U_j^dag U_j - I||_op (``spec.residuals``),
    tr_{o_j E}(U Y U^dag) - tr_{o_j E}(Y) = tr_{o_j E}((U^dag U - I) Y) and
    ||Y||_1 = tr X_{j-1} <= t prod_{i<j} (1 + c_i), the prefix processes P_j obey

        eps_j = T(tr_{o_j} P_j, P_{j-1} (x) I/d) <= 1/2 c_j t prod_{i<j} (1 + c_i),

    with P_0 (x) I/d := I/d, which adds T(t I/d, I/d) = 1/2 |t - 1| to eps_1.
    Let delta_j = T(rho_j, P_j), rho_j the marginal of P_n on its first 2j
    slots. Tracing i_{j-1} o_j gives delta_{j-1} <= delta_j + eps_j, and the
    triangle inequality bounds the generic residuals:

        g_j <= delta_j + eps_j + delta_{j-1} <= 2 sum_{k>=j} eps_k   (j >= 2),
        g_1 = base <= delta_1 + eps_1        <=   sum_{k>=1} eps_k.

    The bounds hold in exact arithmetic and are judged by ``_certified``, so
    the verdict is ``verify_causality``'s.
    """
    t_env = float(np.sum(np.abs(spec.env_state.factor) ** 2))
    eps, growth = [], t_env
    for c in spec.residuals:
        eps.append(0.5 * c * growth)
        growth *= 1.0 + c
    eps[0] += 0.5 * abs(t_env - 1.0)
    tails = list(itertools.accumulate(reversed(eps)))[::-1]  # sum_{k>=j} eps_k
    upper = (tails[0],) + tuple(2.0 * t for t in tails[1:])
    report = CausalityReport.judge(upper, tails[0], tol, bounds=True)
    return _certified(report, state, tol)


def _certified(report: CausalityReport, state: DensityMatrix, tol: float) -> CausalityReport:
    """Judge the residuals of ``report``, computed for ``state``, at ``tol``.

    Generic residuals are judged as they are. Bounds hold in exact
    arithmetic, while a computed generic residual may exceed its computed
    bound by rounding, so they certify a pass only ``_ROUNDING`` or more
    below ``tol``. Otherwise the generic hierarchy of ``state`` decides and
    its report is returned.
    """
    report = CausalityReport.judge(report.residuals, report.base_residual, tol, report.bounds)
    if not report.bounds or report.worst + _ROUNDING <= tol:
        return report
    return verify_causality(state, tol)


def verify_causality(
    state: DensityMatrix | ProcessTensor, tol: float = DEFAULT_TOL.causal
) -> CausalityReport:
    """Check the hierarchy of trace conditions on a 2n-slot state.

    For each level j (from n down to 1) the output slot o_j of the
    first-j-steps marginal must trace away into the previous marginal
    tensored with a maximally mixed input. Each marginal is traced from the
    one above it. The base residual is the level-1 residual: the first-input
    marginal against the maximally mixed state.

    A ``ProcessTensor`` carries residuals that do not depend on the
    tolerance: the generic residuals, which are re-judged at ``tol``, or
    unitarity-certified bounds on them, which decide only when they pass
    ``_ROUNDING`` or more below ``tol``; otherwise the hierarchy is computed
    from the state, so the verdict is always the generic one.
    """
    if isinstance(state, ProcessTensor):
        return _certified(state.causality, state.state, tol)
    n, d = slot_shape(state)
    chain = [state]
    for j in range(n - 1, 0, -1):
        chain.append(partial_trace(chain[-1], range(2 * j)))
    residuals = tuple(_level_residuals(chain[::-1], d))
    return CausalityReport.judge(residuals, residuals[0], tol)


def swap_unitary(d: int) -> np.ndarray:
    """SWAP between two d-dimensional factors."""
    s = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            s[i * d + j, j * d + i] = 1.0
    return s


def fredkin_unitary(d: int = 2) -> np.ndarray:
    """Controlled SWAP on (system, control qubit, environment target).

    Control basis: |0> do nothing, |1> swap system with the target qudit.
    """
    dim = d * 2 * d
    u = np.zeros((dim, dim))
    for s in range(d):
        for t in range(d):
            u[(s * 2 + 0) * d + t, (s * 2 + 0) * d + t] = 1.0
            u[(t * 2 + 1) * d + s, (s * 2 + 1) * d + t] = 1.0
    return u


def fredkin_dilation(p: float, d: int = 2) -> CircuitProcessSpec:
    """One-step dilation of the depolarizing channel by a Fredkin gate.

    The environment is a control qubit in (1-p)|0><0| + p|1><1| tensored
    with a maximally mixed target qudit.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    control = np.diag([1.0 - p, p])
    env = DensityMatrix(kron(control, np.eye(d) / d), (2, d))
    return CircuitProcessSpec(n=1, d=d, env_state=env, unitaries=(fredkin_unitary(d),))


def nm_depolarizing_process(p: float) -> ProcessTensor:
    """Two-step qubit process from two Fredkin interactions with one environment.

    The environment is that of ``fredkin_dilation(p)``; each step is locally
    depolarizing, but memory flows through the shared environment.
    """
    step = fredkin_dilation(p)
    spec = CircuitProcessSpec(n=2, d=2, env_state=step.env_state, unitaries=step.unitaries * 2)
    return build_from_circuit(spec)


def swap_chain_process(n: int, d: int) -> ProcessTensor:
    """Maximally non-Markovian chain: each output repeats the previous input.

    Every step swaps the system with a d-dimensional environment that starts
    maximally mixed, so o_1 is maximally mixed and o_{j+1} carries i_{j-1}.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    spec = CircuitProcessSpec(
        n=n, d=d, env_state=maximally_mixed(d), unitaries=(swap_unitary(d),) * n
    )
    return build_from_circuit(spec)


def cnot_swap_process() -> ProcessTensor:
    """Two-step qubit process: CNOT onto a fresh |0> environment, then SWAP.

    Maximally non-Markovian while keeping nonzero first-step correlations.
    """
    env = DensityMatrix(np.diag([1.0, 0.0]), (2,))
    cnot = np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ],
        dtype=float,
    )
    spec = CircuitProcessSpec(n=2, d=2, env_state=env, unitaries=(cnot, swap_unitary(2)))
    return build_from_circuit(spec)


def haar_unitary(dim: int, seed: int | np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via phase-corrected QR of a complex Gaussian."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    z /= math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_env(rng: np.random.Generator, d_env: int, env_init: EnvInit) -> DensityMatrix:
    """Initial environment state named by ``env_init``; ``seeded-random`` draws from ``rng``."""
    if env_init == "maximally-mixed":
        return maximally_mixed(d_env)
    if env_init == "pure-ground":
        ground = np.zeros((d_env, 1))
        ground[0, 0] = 1.0
        return DensityMatrix(None, (d_env,), factor=ground)
    if env_init == "seeded-random":
        g = rng.standard_normal((d_env, d_env)) + 1j * rng.standard_normal((d_env, d_env))
        mat = g @ g.conj().T
        return DensityMatrix(mat / np.trace(mat).real, (d_env,))
    raise ValueError(f"unknown env_init {env_init!r}")


def random_process(spec: RandomSpec) -> ProcessTensor:
    """Deterministic (seeded) random process from Haar unitaries."""
    rng = np.random.default_rng(spec.seed)
    env = random_env(rng, spec.d_env, spec.env_init)
    us = tuple(haar_unitary(spec.d * spec.d_env, rng) for _ in range(spec.n))
    circuit = CircuitProcessSpec(n=spec.n, d=spec.d, env_state=env, unitaries=us)
    return build_from_circuit(circuit)
