"""n-step process tensors: circuit construction, causality checks, named examples.

The Choi state of an n-step process carries 2n slots of uniform dimension d
in the order (i_0, o_1, i_1, o_2, ..., i_{n-1}, o_n). A single environment
persists through all steps; it is traced out only at the end, so memory may
flow through it between steps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Literal, Sequence, get_args

import numpy as np

from .config import DEFAULT_TOL
from .linalg import (
    DensityMatrix,
    NotAStateError,
    check_dense,
    factor_entropies,
    factor_trace_distance,
    factor_traces,
    maximally_mixed,
    partial_trace,
    unitarity_residual,
    von_neumann_entropy,
)


@dataclass(frozen=True)
class CausalityReport:
    """One process's per-level residuals of the trace-condition hierarchy, judged at ``tol``.

    ``bounds`` marks residuals that are upper bounds on the generic ones.
    ``dataclasses.replace(report, tol=...)`` re-judges the same residuals;
    exact ones (``bounds`` false) as the hierarchy would at that ``tol``.
    Bounds re-judged at a lower ``tol`` can fail where the exact hierarchy
    passes, so a spec-built process is built at the tolerance it needs.
    A stack of circuits keeps its verdicts as arrays (``build_stack``).
    """

    residuals: tuple[float, ...]  # level j = residuals[j-1], j = 1..n
    tol: float
    bounds: bool = field(default=False, kw_only=True)

    @property
    def base_residual(self) -> float:
        """Level 1's residual: the first-input marginal against the maximally mixed state."""
        return self.residuals[0]

    @property
    def passed(self) -> bool:
        """Whether every residual is at most ``tol``; a NaN fails (``causality_holds``)."""
        return bool(causality_holds(np.array(self.residuals), self.tol))

    @property
    def worst(self) -> float:
        """Largest residual."""
        return max(self.residuals)


def causality_holds(residuals: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Per row of hierarchy residuals, whether every residual is at most ``tol``; a NaN fails.

    ``tol`` defaults to ``DEFAULT_TOL.causal``, read at the call: the
    tolerance a stack is built and judged at (``build_stack``).
    """
    return (residuals <= (DEFAULT_TOL.causal if tol is None else tol)).all(axis=-1)


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


@dataclass(frozen=True, eq=False)
class ProcessTensor:
    """Causality-verified n-step process: a Choi state, or the circuit behind one.

    ``causality`` is the hierarchy's report, computed once at construction
    with the tolerance it was built with; its ``passed`` is always true.

    ``ProcessTensor.from_state`` keeps the given Choi state. A process built
    by ``build_from_circuit`` keeps its ``spec`` and its ``transfer``
    instead, which is all ``correlation_report`` reads; its verdict came
    from its build, which forms no Choi state. ``state`` simulates the
    d^(2n)-row Choi state on first use, the one place a spec-built process
    does so, and raises ``DimensionLimitError`` before it allocates one
    beyond ``max_dense_dim()``.
    """

    n: int
    d: int
    causality: CausalityReport
    spec: CircuitProcessSpec | None = field(default=None, repr=False)
    transfer: Transfer | None = field(default=None, repr=False)
    _state: DensityMatrix | None = field(default=None, repr=False)

    @classmethod
    def from_state(
        cls, state: DensityMatrix, tol_causal: float = DEFAULT_TOL.causal
    ) -> "ProcessTensor":
        """Verify ``state`` against the hierarchy; raises ``CausalityError`` if it fails."""
        report = _passed(verify_causality(state, tol_causal))
        n, d = slot_shape(state)
        return cls(n, d, report, _state=state)

    @property
    def state(self) -> DensityMatrix:
        """Choi state on the 2n slots; a spec-built process simulates it on first use."""
        if self._state is None:
            s = self.spec
            object.__setattr__(self, "_state", _choi_state(s.d, s.unitaries, s.env_state.factor))
        return self._state


def _passed(report: CausalityReport) -> CausalityReport:
    """``report`` if it passed; raises ``CausalityError`` otherwise, the one place that does."""
    if not report.passed:
        raise CausalityError(report)
    return report


@dataclass(frozen=True, eq=False)
class CircuitProcessSpec:
    """Circuit description of an n-step dilation, one unitary per step.

    Each unitary acts on system (x) environment, system first; the same
    environment, initially ``env_state``, threads through all steps. Its
    factor purifies it, with a rank that no tolerance sets (``DensityMatrix``).
    Each unitary's entries must be finite and its ``unitarity_residual``
    ||U^dag U - I||_F at most ``DEFAULT_TOL.eig``; the spec keeps those
    residuals, which ``build_from_circuit`` reads. Specs compare by
    identity, since their fields hold arrays.
    """

    n: int
    d: int
    env_state: DensityMatrix
    unitaries: tuple[np.ndarray, ...]
    _residuals: np.ndarray = field(init=False, repr=False)  # (1, n): a stack of one

    def __post_init__(self) -> None:
        _check_slots(self.n, self.d)
        us = checked_unitaries(self.unitaries, self.n, self.d * self.d_env)
        object.__setattr__(self, "unitaries", us)
        residuals = unitarity_residual(np.array(us))[None]
        _check_unitarity(residuals)
        object.__setattr__(self, "_residuals", residuals)

    @property
    def d_env(self) -> int:
        return self.env_state.dim


def _check_slots(n: int, d: int) -> None:
    """Refuse fewer than one step or fewer than two levels per slot: a spec's or a stack's."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")


def checked_unitaries(unitaries: Iterable[np.ndarray], n: int, dim: int) -> tuple[np.ndarray, ...]:
    """``unitaries`` as n read-only complex arrays of shape (dim, dim) with finite entries.

    Raises ``ValueError`` naming the first unitary that fails; unitarity
    itself is left to ``CircuitProcessSpec``. Needs no environment, so a
    spec file is checked by it before its environment is built.
    """
    us = tuple(np.asarray(u, dtype=complex) for u in unitaries)
    if len(us) != n:
        raise ValueError(f"expected {n} unitaries, got {len(us)}")
    for j, u in enumerate(us):
        if u.shape != (dim, dim):
            raise ValueError(f"unitary {j} has shape {u.shape}, expected {(dim, dim)}")
        if not np.all(np.isfinite(u)):
            raise ValueError(f"unitary {j} entries must be finite")
        u.setflags(write=False)
    return us


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
        _check_slots(self.n, self.d)
        if self.d_env < 1:
            raise ValueError(f"d_env must be >= 1, got {self.d_env}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.env_init not in get_args(EnvInit):
            allowed = ", ".join(get_args(EnvInit))
            raise ValueError(f"env_init must be one of {allowed}, got {self.env_init!r}")


@dataclass(frozen=True, eq=False)
class Transfer:
    """What the correlation quantifiers read of Choi states P_n: step states and S(P_n).

    Every field has a leading sample axis of length S, one entry per state;
    its arrays are read-only. A stack of circuits gets its fields from its
    environment transfer (``_transfer``), which traces each marginal from
    P_n without forming it: step j's is tr_{E'}(W_j sigma_{j-1} W_j^dag),
    with sigma_{j-1} the environment's reduced state before step j and W_j
    its Kraus operators weighed by the later steps. They are positive
    semidefinite in exact arithmetic and share the validated trace of the
    final environment (x) ancilla state, whose entropy is S(P_n).
    ``Transfer.of_state`` reads a stack of one from a state's 2n slots.
    Every single-slot marginal, i_{j-1} and o_j alike, is a partial trace
    of step j's state, so none is stored apart from it.
    """

    steps: np.ndarray    # (S, n, d^2, d^2): step j's Choi state on (i_{j-1}, o_j)
    entropy: np.ndarray  # (S,): S(P_n)

    def __post_init__(self) -> None:
        for m in (self.steps, self.entropy):
            m.setflags(write=False)

    @classmethod
    def of_state(cls, state: DensityMatrix) -> "Transfer":
        """Stack of one read from a 2n-slot state: its step marginals and its entropy.

        Raises ``slot_shape``'s ``ValueError`` for a state off the slot layout.
        """
        n, _ = slot_shape(state)
        steps = np.array([partial_trace(state, (2 * j, 2 * j + 1)).mat for j in range(n)])
        return cls(steps[None], np.array([von_neumann_entropy(state)]))


Stack = tuple[Transfer, np.ndarray, np.ndarray]  # build_stack's: transfer, residuals, certified


def build_from_circuit(
    spec: CircuitProcessSpec, tol_causal: float = DEFAULT_TOL.causal
) -> ProcessTensor:
    """Process tensor of the Choi-generating circuit of ``spec``: a stack of one.

    A fresh maximally entangled pair feeds each step: its live half passes
    through the step unitary (becoming output slot o_j) while the kept half
    becomes input slot i_{j-1}. A single purified environment survives across
    steps and is traced out at the end.

    The 2n slots are never formed here: the returned process keeps ``spec``
    and the stack's transfer, and simulates its Choi state only when
    ``state`` is read. A failed hierarchy raises ``CausalityError``; a trace
    beyond ``DEFAULT_TOL.tr`` raises ``NotAStateError`` naming the leakiest
    unitary. The spec and its environment were validated when they were
    made, so their unitarity residuals, factor and trace go to the stack's
    build as they are, and no check runs twice.
    """
    env = spec.env_state
    transfer, residuals, certified = _build_stack(
        np.array([spec.unitaries]), spec._residuals, env.factor[None], np.array([env.trace]),
        tol_causal,
    )
    report = CausalityReport(tuple(residuals[0].tolist()), tol_causal, bounds=bool(certified[0]))
    return ProcessTensor(spec.n, spec.d, _passed(report), spec, transfer)


def build_stack(unitaries: np.ndarray, env: np.ndarray) -> Stack:
    """Transfer and causality of a stack of S circuits, each check run once on the stack.

    ``unitaries`` is (S, n, D, D) with D = d d_env, and ``env`` the factors
    (S, d_env, r) of the S initial environments, F with rho = F F^dag; a
    shared environment may be one factor broadcast over the stack. The
    checks run in this order, and the first sample in stack order that
    fails one raises the error that building it alone would raise:

    - environments: a shape that does not fit the unitaries, or unitaries
      of no step, raises ``ValueError``; a non-finite factor or a trace beyond
      ``DEFAULT_TOL.tr`` raises the error of
      ``DensityMatrix(None, (d_env,), factor=env[k])`` (``factor_traces``).
      The certificate reads these traces, each summed over its factor in
      row-major order, the bits of ``DensityMatrix.trace`` for a
      C-contiguous factor;
    - unitarity: a ``unitarity_residual`` beyond ``DEFAULT_TOL.eig`` raises
      the ``ValueError`` of ``CircuitProcessSpec``;
    - final traces (``_transfer``): a trace beyond ``DEFAULT_TOL.tr``
      raises ``NotAStateError`` naming the leakiest unitary. The transfer
      runs in the fewest near-equal slices of at most ``_slice_size``
      samples, in stack order, so the stack's peak memory fits
      ``_STACK_BYTES`` beside what it holds; each slice fills its part of
      the stack's arrays in place, bit for bit what one slice would;
    - certificate (``_unitarity_certificate``): its bounds decide a sample
      only where they pass ``_ROUNDING`` or more below ``DEFAULT_TOL.causal``.
      Every other sample gets the exact hierarchy, read from the same
      transfer (``_transfer``), which then decides. No circuit is simulated
      twice, and no Choi state is formed.

    Returns the stacked ``Transfer``, the hierarchy residuals (S, n) of
    levels 1..n and the mask ``certified`` (S,). Row k holds sample k's
    certificate bounds where ``certified[k]``, its exact residuals
    elsewhere, the residuals of the report that ``build_from_circuit``
    gives it alone. Sample k passes where ``causality_holds`` holds for
    row k; a failed sample raises nothing here.
    """
    env = np.ascontiguousarray(env, dtype=complex)  # a broadcast factor is copied row-major
    dim = unitaries.shape[-1]
    de = env.shape[1] if env.ndim == 3 else 0  # 0 fails the check
    if len(env) != len(unitaries) or unitaries.shape[1] < 1 or not 0 < de < dim or dim % de:
        raise ValueError(
            f"environment factors of shape {env.shape} do not fit unitaries of shape "
            f"{unitaries.shape}"
        )
    traces = factor_traces(env)
    residuals = unitarity_residual(unitaries)
    _check_unitarity(residuals)
    return _build_stack(unitaries, residuals, env, traces, DEFAULT_TOL.causal)


def _build_stack(
    unitaries: np.ndarray,
    residuals: np.ndarray,
    env: np.ndarray,
    traces: np.ndarray,
    tol_causal: float,
) -> Stack:
    """``build_stack`` past its checks, on the ``residuals`` (S, n) and ``traces`` (S,) they read."""
    rows = _unitarity_certificate(residuals, traces)
    certified = causality_holds(rows + _ROUNDING, tol_causal)
    s, n, dim = unitaries.shape[:3]
    de = env.shape[1]
    d = dim // de
    steps, entropy = np.empty((s, n, d * d, d * d), dtype=complex), np.empty(s)
    undecided = ~certified
    for part in _near_equal_slices(s, _slice_size(s, n, d, de)):
        _transfer(unitaries[part], env[part], undecided[part],
                  steps[part], entropy[part], rows[part])
    return Transfer(steps, entropy), rows, certified


def _check_unitarity(residuals: np.ndarray) -> None:
    """Raise for the first unitary, in stack then step order, off unitary beyond ``DEFAULT_TOL.eig``.

    ``residuals`` is (S, n): the ``unitarity_residual`` of each circuit's
    unitaries. A NaN residual fails.
    """
    bad = np.argwhere(~(residuals <= DEFAULT_TOL.eig))
    if len(bad):
        k, j = bad[0]
        raise ValueError(f"unitary {j} unitarity residual {residuals[k, j]:.3e}")


def _circuit_state(
    unitaries: Sequence[np.ndarray], dims: tuple[int, ...], factor: np.ndarray
) -> DensityMatrix:
    """``DensityMatrix`` of a factor that a circuit of these ``unitaries`` produced.

    A trace beyond ``DEFAULT_TOL.tr`` comes from the unitaries' leaks, so
    the ``NotAStateError`` names the one of the largest ``unitarity_residual``.
    """
    try:
        return DensityMatrix(None, dims, factor=factor)
    except NotAStateError as exc:
        residuals = unitarity_residual(np.asarray(unitaries))
        j = int(np.argmax(residuals))
        raise NotAStateError(
            f"{exc}; the unitaries leak trace, unitary {j} the most "
            f"(unitarity residual {residuals[j]:.3e})"
        ) from exc


def _transfer(
    unitaries: np.ndarray, env: np.ndarray, exact: np.ndarray,
    steps: np.ndarray, entropy: np.ndarray, rows: np.ndarray,
) -> None:
    """Fill in the step marginals, S(P_n) and exact hierarchy residuals of a circuit stack.

    ``unitaries`` is (S, n, d d_env, d d_env), ``env`` the environments'
    factors (S, d_env, r) and ``exact`` a boolean mask (S,) of the samples
    whose hierarchy residuals are wanted. The first circuit in stack order
    whose final trace fails validation raises ``_circuit_state``'s
    ``NotAStateError``, which names its leakiest unitary; only then is
    anything written: the step marginals into ``steps`` (S, n, d^2, d^2),
    S(P_n) into ``entropy`` (S,) and levels 1..n of each masked sample into
    its row of ``rows`` (S, n), whose other rows are left as they are.
    ``_build_stack`` passes views of its stack's arrays, one slice at a time.

    Per circuit, rho_j is the state of environment E (x) ancilla R once the
    slots of the first j steps are traced out; rho_0 is the pure state of
    the environment's factor. With U_j as a tensor (o, E', a, E) and the
    operators K_oa = U_j[o, :, a, :] / sqrt(d) on E,

        rho_j = sum_{o,a} K_oa rho_{j-1} K_oa^dag    (R untouched),

    carried as a factor F with rows (E, R): the columns of K_oa F, stacked
    over (o, a), are cut back to d_env r by a QR where they outnumber
    d_env r. Step n is not cut: nothing reads rho_n but its trace, the
    Choi state's, and its entropy, S(P_n) = S(rho_n) since (slots, E, R)
    is pure; ``factor_entropies`` takes that from the uncut factor's
    narrower Gram side.

    K_oa F with rows (o_j, E', a = i_{j-1}) is a factor of the state of
    (i_{j-1}, o_j, E, R) with the earlier slots traced out. The later steps
    weigh E by the effect E_j = T_{j+1}^dag ... T_n^dag(I), with
    T_k^dag(X) = sum_{o,a} K_oa^dag X K_oa, which is I when they are
    unitary; tracing E against it gives the step marginals of the Choi state
    P_n, leaks included. The chain starts at E_{n-1} = T_n^dag(I) =
    sum_{o,a} K_oa^dag K_oa, with no product by E_n = I. With
    E_j = L L^dag (Cholesky) and W_j the operators L^dag K_oa stacked into
    rows (a, o, E'), that trace is the plain trace over E' of the weighed
    factor W_j F. W is one batched product of L^dag with the Kraus blocks
    laid out as (E', (o, a, E)), its rows then reordered. The marginal reads
    F only through the environment's reduced state sigma_{j-1} = tr_R rho_{j-1}:

        step_j = tr_{E'} (W_j sigma_{j-1} W_j^dag).

    Proof: write F_E for F with its rows R moved into its columns, so rows
    E and columns (R, column). Then W_j F_E is the weighed factor with R in
    its columns, and the marginal on (i_{j-1}, o_j, E') is
    (W_j F_E)(W_j F_E)^dag = W_j (F_E F_E^dag) W_j^dag, where F_E F_E^dag
    sums rho_{j-1} = F F^dag over R on both sides: it is tr_R rho_{j-1}.
    So the loop carries only sigma_{j-1}, one d_env-sided product per
    step, and the marginals of every step come from two batched products
    after it.

    The weighed factor W_j F, with its rows (column of F, i_{j-1}, o_j), is a
    factor of the marginal of P_n on its first 2j slots: F's columns stand
    in for the earlier slots, which the pure prefix state maps into them
    isometrically on its support. Trace distances are blind to that
    isometry, so ``_level_residuals`` on these factors gives the hierarchy's
    residuals exactly, on matrices of side at most d d_env r.
    """
    s, n, dim = unitaries.shape[:3]
    de, r = env.shape[1:]
    d = dim // de
    ks = unitaries.reshape(s, n, d, de, d, de) / math.sqrt(d)  # (sample, step, o, E', a, E)
    kraus = ks.transpose(1, 0, 2, 4, 3, 5)  # (step, sample, o, a, E', E): K_oa
    effects = [np.broadcast_to(np.eye(de), (s, de, de))]  # E_n = I, then E_{n-1}, ..., E_1
    for k in kraus[:0:-1]:  # T^dag(E) = sum_{o,a} K_oa^dag (E K_oa), rows (o, a, E')
        flat = k.reshape(s, -1, de)
        x = flat if len(effects) == 1 else (effects[-1][:, None, None] @ k).reshape(s, -1, de)
        effects.append(flat.conj().swapaxes(1, 2) @ x)
    lh = np.linalg.cholesky(np.stack(effects[::-1], axis=1)).conj().swapaxes(-1, -2)
    w = lh @ ks.transpose(0, 1, 3, 2, 4, 5).reshape(s, n, de, -1)  # rows E', columns (o, a, E)
    w = w.reshape(s, n, de, d, d, de).transpose(0, 1, 4, 3, 2, 5)
    weighed = w.reshape(s, n, -1, de)  # W: rows (a, o, E')
    del w
    fac = env.reshape(s, -1, 1)  # rows (E, R)
    picked = np.flatnonzero(exact)
    sigmas, levels = [], []
    for j, k in enumerate(ks.reshape(s, n, -1, de).swapaxes(0, 1)):
        f = fac.reshape(s, de, -1)  # columns (R, column)
        sigmas.append(f @ f.conj().swapaxes(1, 2))  # sigma_{j-1} = tr_R rho_{j-1}
        if len(picked):  # level j's factors: (sample, column, i_{j-1}, o_j, E', R)
            step = weighed[picked, j] @ f[picked]  # rows (i_{j-1}, o_j, E'), columns (R, column)
            levels.append(np.moveaxis(step.reshape(len(picked), d, d, de, r, -1), 5, 1))
        t = (k @ f).reshape(s, d, de, d, r, -1).transpose(0, 2, 4, 1, 3, 5)  # (., E, R, o, a, .)
        del f, fac  # rho_{j-1} is read: a cut's copies form without it
        if j == n - 1 or t[0].size <= (de * r) ** 2:  # rho_n is read uncut
            fac = t.reshape(s, de * r, -1)
        else:
            t = np.conjugate(t, order="C").reshape(s, de * r, -1)
            fac = np.linalg.qr(t.swapaxes(1, 2), mode="r").conj().swapaxes(1, 2)
        del t  # else the next step's factors would form beside it
    fac = np.ascontiguousarray(fac)  # already contiguous: step n's factor is a reordered copy
    v = fac.reshape(s, -1).view(float)
    traces = np.einsum("si,si->s", v, v)  # sum |F|^2 over rho_n's factor
    bad = ~(np.abs(traces - 1.0) <= DEFAULT_TOL.tr)  # catches NaN too
    for k in np.flatnonzero(bad):
        _circuit_state(unitaries[k], (de, r), fac[k])  # raises the leak message
    for m, k in enumerate(picked):
        rows[k] = _level_residuals((lv[m].reshape(-1, de * r) for lv in levels), d)
    entropy[:] = factor_entropies(fac)  # on the narrower Gram side of rho_n's factor
    del fac
    ws = (weighed @ np.stack(sigmas, axis=1)).reshape(s, n, d * d, -1)  # W sigma: columns (E', E)
    np.conjugate(weighed, out=weighed)  # no longer read as W
    steps[:] = ws @ weighed.reshape(s, n, d * d, -1).swapaxes(2, 3)  # tr_{E'} W sigma W^dag


def _choi_state(d: int, unitaries: Sequence[np.ndarray], psi_env: np.ndarray) -> DensityMatrix:
    """Choi state of a circuit of n ``unitaries`` on d-dimensional slots, simulated on its 2n slots.

    ``psi_env`` is the factor (d_env, r) of the initial environment. The rows
    of the returned state's factor index the 2n slots and its columns
    (environment, ancilla), where the ancilla indexes the columns of
    ``psi_env``. Raises ``DimensionLimitError`` before it allocates a
    working dimension beyond ``max_dense_dim()``.
    """
    n = len(unitaries)
    de, r = psi_env.shape
    check_dense("working dimension", d ** (2 * n) * de * r)
    # vec axes: (slots of P_{j-1}, env, ancilla). The new pair's amplitudes
    # are I/sqrt(d), so its kept half i_{j-1} selects the input column of
    # the unitary on the live half.
    vec = psi_env.reshape(1, de, r)
    for u in unitaries:
        t = np.tensordot(vec, u.reshape(d, de, d, de), axes=([1], [3]))
        # t axes: (slots, ancilla, o_j, env, i_{j-1})
        vec = t.transpose(0, 4, 2, 3, 1).reshape(-1, de, r) / math.sqrt(d)
    return _circuit_state(unitaries, (d,) * (2 * n), vec.reshape(-1, de * r))


def _level_residuals(levels: Iterable[np.ndarray], d: int) -> list[float]:
    """Residuals T(tr_{o_j} rho_j, rho_{j-1} (x) I/d) of the hierarchy, levels j = 1, 2, ...

    Level j gives a factor of rho_j, a state of the first 2j slots, with
    rows (p, i_{j-1}, o_j), where p stands for the first 2(j-1) slots in
    any frame that they map into isometrically: the slots themselves
    (``verify_causality``) or a transfer factor's columns (``_transfer``).
    Reshaped to rows (p, i_{j-1}) it is a factor of tr_{o_j} rho_j, and to
    rows p, one of rho_{j-1}; rho_0 (x) I/d is read as I/d.
    """
    half = np.eye(d) / math.sqrt(d)
    residuals = []
    for j, f in enumerate(levels, start=1):
        rhs = half if j == 1 else np.kron(f.reshape(len(f) // d**2, -1), half)
        residuals.append(factor_trace_distance(f.reshape(len(f) // d, -1), rhs))
    return residuals


# Rounding allowance between a computed generic residual and its computed certificate: the
# bounds hold in exact arithmetic, but a computed generic residual may exceed its computed
# bound by rounding, so ``build_stack`` lets the bounds certify a pass only this far or more
# below the tolerance. The largest excess was 4.4e-16, on the SWAP chain at n = 4, d = 3
# (chains n <= 4, d <= 3, Fredkin and CNOT circuits), and 3.2e-16 over 600 random processes,
# n <= 5, d <= 3, half leaking 1e-13 to 3e-11 (half of those on the diagonal), half with
# tr env up to 9e-11 off 1.
_ROUNDING = 1e-14


def _unitarity_certificate(residuals: np.ndarray, t_env: np.ndarray) -> np.ndarray:
    """Bounds on the hierarchy residuals of a stack of circuits, from their unitaries.

    ``residuals`` holds c_j >= ||U_j^dag U_j - I||_op per circuit and step
    (S, n), ``t_env`` the traces (S,) of their environments. Returns the
    (S, n) bounds on levels 1..n; level 1's bounds the base residual too.
    The c_j are ``unitarity_residual``s, Frobenius norms, which bound the
    operator norm from above; the proof below uses nothing else of them.

    Step j applies U = U_j to Y = X_{j-1} (x) Phi, where X_{j-1} >= 0 is the
    (j-1)-step prefix before the environment is traced; X_0, the environment,
    has trace t. Since
    tr_{o_j E}(U Y U^dag) - tr_{o_j E}(Y) = tr_{o_j E}((U^dag U - I) Y) and
    ||Y||_1 = tr X_{j-1} <= t prod_{i<j} (1 + c_i), the prefix processes P_j obey

        eps_j = T(tr_{o_j} P_j, P_{j-1} (x) I/d) <= 1/2 c_j t prod_{i<j} (1 + c_i),

    with P_0 (x) I/d := I/d, which adds T(t I/d, I/d) = 1/2 |t - 1| to eps_1.
    Let delta_j = T(rho_j, P_j), rho_j the marginal of P_n on its first 2j
    slots. Tracing i_{j-1} o_j gives delta_{j-1} <= delta_j + eps_j, and the
    triangle inequality bounds the generic residuals:

        g_j <= delta_j + eps_j + delta_{j-1} <= 2 sum_{k>=j} eps_k   (j >= 2),
        g_1 = base <= delta_1 + eps_1        <=   sum_{k>=1} eps_k.

    The bounds hold in exact arithmetic and ``build_stack`` judges them with
    the margin ``_ROUNDING``, so the verdict is the exact hierarchy's. On
    Haar circuits at n = 10, 100 and 1000 (d = 2, d_env = 4, seed 1, each
    ``EnvInit``) they exceed the exact residuals that ``_transfer`` reads
    by at least 7e-16 at every level.
    """
    growth = np.cumprod(np.concatenate([t_env[:, None], 1.0 + residuals[:, :-1]], axis=1), axis=1)
    eps = 0.5 * residuals * growth
    eps[:, 0] += 0.5 * np.abs(t_env - 1.0)
    tails = np.cumsum(eps[:, ::-1], axis=1)[:, ::-1]  # sum_{k>=j} eps_k
    return np.concatenate([tails[:, :1], 2.0 * tails[:, 1:]], axis=1)


def verify_causality(state: DensityMatrix, tol: float = DEFAULT_TOL.causal) -> CausalityReport:
    """Check the hierarchy of trace conditions on a 2n-slot state.

    At each level j the output slot o_j of the first-j-steps marginal must
    trace away into the previous marginal tensored with a maximally mixed
    input. Every marginal is a reshape of the state's factor, its rows the
    first slots and its columns the rest (``_level_residuals``). The base
    residual is the level-1 residual: the first-input marginal against the
    maximally mixed state.
    """
    n, d = slot_shape(state)
    levels = (state.factor.reshape(d ** (2 * j), -1) for j in range(1, n + 1))
    return CausalityReport(tuple(_level_residuals(levels, d)), tol)


def _permutation(dims: tuple[int, ...], move: Callable[..., tuple]) -> np.ndarray:
    """Real permutation unitary on factors of ``dims`` that sends basis state idx to move(*idx).

    ``move`` takes one integer array per factor, the digits of every basis
    state at once, and returns the digits of their images.
    """
    size = math.prod(dims)
    u = np.zeros((size, size))
    # np.indices lists the basis states in row-major order, so state k is column k
    u[np.ravel_multi_index(move(*np.indices(dims)), dims).ravel(), np.arange(size)] = 1.0
    return u


def swap_unitary(d: int) -> np.ndarray:
    """SWAP between two d-dimensional factors."""
    return _permutation((d, d), lambda a, b: (b, a))


def fredkin_unitary(d: int = 2) -> np.ndarray:
    """Controlled SWAP on (system, control qubit, environment target).

    Control basis: |0> do nothing, |1> swap system with the target qudit.
    """
    return _permutation((d, 2, d), lambda s, c, t: (np.where(c, t, s), c, np.where(c, s, t)))


def _fredkin_circuits(ps: Sequence[float], n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Unitaries (S, n, 2d^2, 2d^2) and environment factors (S, 2d, 2d) of the Fredkin family.

    Point k is n steps of ``fredkin_unitary(d)``, broadcast over the S =
    len(ps) points, on one environment: a control qubit in
    (1-p)|0><0| + p|1><1| tensored with a maximally mixed target qudit, at
    p = ps[k]. Its factor is diag(sqrt(1-p), sqrt(p)) (x) I/sqrt(d), with no
    dense matrix and no eigendecomposition. It keeps its zero columns at
    p = 0 and 1, so every p gives one factor shape and a p-grid builds as
    one stack. The first p outside [0, 1], or NaN, raises ``ValueError``.
    """
    grid = np.asarray(ps, dtype=float)
    inside = (0.0 <= grid) & (grid <= 1.0)
    if not inside.all():
        raise ValueError(f"p must lie in [0, 1], got {ps[np.argmin(inside)]}")
    factors = np.zeros((len(grid), 2 * d, 2 * d))
    diag = np.arange(2 * d)
    factors[:, diag, diag] = np.sqrt(np.repeat(np.stack([1.0 - grid, grid], axis=1), d, axis=1) / d)
    u = fredkin_unitary(d)
    return np.broadcast_to(u, (len(grid), n, *u.shape)), factors


def fredkin_spec(p: float, n: int, d: int) -> CircuitProcessSpec:
    """n Fredkin steps on one environment at p: the one-point stack of ``fredkin_processes``.

    At n = 1 it dilates the depolarizing channel rho -> p I/d + (1-p) rho.
    From n = 2 on each step is locally depolarizing, but memory flows
    through the shared environment (``_fredkin_circuits``). n < 1 or d < 2
    raises ``CircuitProcessSpec``'s ``ValueError`` before anything is built.
    """
    _check_slots(n, d)
    (us,), (env,) = _fredkin_circuits([p], n, d)
    return CircuitProcessSpec(n, d, DensityMatrix(None, (2, d), factor=env), tuple(us))


def swap_chain_process(n: int, d: int) -> ProcessTensor:
    """Maximally non-Markovian chain: each output repeats the previous input.

    Every step swaps the system with a d-dimensional environment that starts
    maximally mixed, so o_1 is maximally mixed and o_{j+1} carries i_{j-1}.
    n < 1 or d < 2 raises ``CircuitProcessSpec``'s ``ValueError`` before
    anything is built, and n = 1, a chain of one step, is refused too.
    """
    _check_slots(n, d)
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
    cnot = _permutation((2, 2), lambda a, b: (a, (a + b) % 2))
    spec = CircuitProcessSpec(n=2, d=2, env_state=env, unitaries=(cnot, swap_unitary(2)))
    return build_from_circuit(spec)


def _haar(gauss: np.ndarray) -> np.ndarray:
    """Haar unitaries (..., D, D) from standard normals (..., 2, D, D), real parts first.

    Each is the phase-corrected QR of its complex Gaussian; a stack gives the
    same unitaries, bit for bit, as one matrix at a time.
    """
    z = np.empty(gauss.shape[:-3] + gauss.shape[-2:], dtype=complex)
    z.real, z.imag = gauss[..., 0, :, :], gauss[..., 1, :, :]
    z /= math.sqrt(2.0)  # the bits of (re + 1j im) / sqrt(2), with no temporaries
    q, r = np.linalg.qr(z)
    del z  # freed before the phases are applied to Q in place
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (diag / np.abs(diag))[..., None, :]
    return q


def haar_unitary(dim: int, seed: int | np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via phase-corrected QR of a complex Gaussian."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return _haar(rng.standard_normal((2, dim, dim)))


def random_env(rng: np.random.Generator | None, d_env: int, env_init: EnvInit) -> np.ndarray:
    """Factor (d_env, r) of the initial environment named by ``env_init``.

    ``maximally-mixed`` is I/sqrt(d_env) and ``pure-ground`` the column e_0;
    neither reads ``rng``, which may then be None. ``seeded-random`` draws
    a complex Ginibre matrix g from ``rng``, real parts first, and returns
    g / ||g||_F, a factor of g g^dag / tr(g g^dag), with no dense matrix
    and no factorization.
    """
    if env_init == "maximally-mixed":
        return np.eye(d_env) / math.sqrt(d_env)
    if env_init == "pure-ground":
        ground = np.zeros((d_env, 1))
        ground[0, 0] = 1.0
        return ground
    if env_init == "seeded-random":
        g = rng.standard_normal((d_env, d_env)) + 1j * rng.standard_normal((d_env, d_env))
        return g / np.linalg.norm(g)
    raise ValueError(f"unknown env_init {env_init!r}")


def random_process(spec: RandomSpec) -> ProcessTensor:
    """Deterministic (seeded) random process from Haar unitaries."""
    (us,), env = _random_circuits(spec, 1)
    env_state = DensityMatrix(None, (spec.d_env,), factor=env[0])
    return build_from_circuit(CircuitProcessSpec(spec.n, spec.d, env_state, tuple(us)))


# Bytes that one stack of ``_stacks`` may hold at its peak. A stack is planned by what
# a sample holds outside ``_transfer`` (``_draw_bytes``: 18.7 kB at n = 3, d = 2, d_env = 4, so
# 105 samples), and ``_build_stack`` runs its transfer in slices planned by what a sample holds
# inside it (``_sample_bytes``: 59 kB), beside what the stack already holds, its transfer fields
# included, which each slice fills in place (``_slice_size``: 100 samples run as four slices of
# 25). A stack adds up to ``_STACK_FIXED`` of numpy's own buffers. Measured with ``tracemalloc``
# (numpy 2.4), the draw sets the peak where d_env >= 2: 0.83 of the budget at n = 3, d = 2,
# d_env = 4, against 0.5 to 0.7 for the build and 0.1 for the audit; at d_env = 1 the transfer
# slices or the audit do. In time, on one core of an Intel Xeon with one BLAS thread, an n = 3
# stack (draw, build and audit) costs about 0.67 ms plus 0.098 ms per sample, and a transfer
# slice beyond the first about 0.08 ms, so a 100-sample audit runs as one stack.
_STACK_BYTES = 2_190_000
_STACK_FIXED = 160_000


def _sample_bytes(n: int, d: int, d_env: int) -> int:
    """Upper bound on the bytes one sample of a transfer slice holds in ``_transfer``.

    The carried factor has d_env r rows, r <= d_env the environment's rank,
    and after a cut at most d_env r columns. A step's product with the
    Kraus operators, its reordered copy and the final factor, which is not
    cut, have d^2 times as many: at most d^2 min(d^(2(n-1)), d_env r)
    (``_transfer``; d^(2 d_env) >= d_env^2 caps the exponent). Two of these
    wide arrays live at once, beside one square one of side at most
    min(d_env r, d^(2n)): a cut's R, or the final factor's Gram on its
    narrower side. Five arrays the size of the n unitaries cover the
    unitaries, their Kraus copy, W, W sigma and the n effects and sigmas of
    side d_env; these fill at most half of the fifth, whose other half
    covers the sample's row of the environment factors, at most d_env^2
    entries. The step marginals are n d^4 entries, formed before they are
    copied into the stack's, the sample's rows of the certificate's arrays
    and of its exact residuals 4 n more, and 6 kB cover its Python
    objects. A sample that the certificate leaves undecided also keeps its
    n level factors for the exact hierarchy, which this does not count.
    """
    wide = d * d * d_env**2 * min(d ** (2 * min(n - 1, d_env)), d_env**2)
    square = min(d_env**2, d ** (2 * n)) ** 2
    return 16 * (2 * wide + square + 5 * n * (d * d_env) ** 2 + n * d**4 + 4 * n) + 6144


def _draw_bytes(n: int, d: int, d_env: int) -> int:
    """Upper bound on the bytes a stacked sample holds outside ``_transfer``: its draw and audit.

    The draw holds the sample's generator (2 kB covers one of
    ``default_rng``'s), its Gaussians and, in the Haar QR, four arrays the
    size of its n unitaries (the complex Gaussians, LAPACK's copy of them,
    Q and R) with their reflectors and phases, 2 n d d_env entries;
    ``random_env`` holds at most two of its environment factors. The
    checks of ``build_stack`` hold less: the unitaries and the three arrays
    of their size that ``unitarity_residual`` forms. The audit holds the
    sample's unitaries, its step states (n d^4 entries), a copy of them in
    the batched spectra, the i_{j-1} and o_j marginals (2 n d^2) with their
    copy, and its rows of residuals, quantities and slacks: about 12 n
    floats. The larger of the two is the bound; the audit's is larger only
    where d_env is small beside d (d_env = 1, or d = 3 with d_env = 2).
    """
    draw = 5 * n * (d * d_env) ** 2 + 2 * n * d * d_env + 2 * d_env**2
    audit = n * (d * d_env) ** 2 + 2 * n * d**4 + 4 * n * d**2 + 6 * n
    return 16 * max(draw, audit) + 2048


def _stack_size(n: int, d: int, d_env: int) -> int:
    """Most samples of shape (n, d, d_env) one stack holds within ``_STACK_BYTES``; at least 1.

    The stack leaves room for a transfer slice of one sample, so only a
    stack of one exceeds the budget, where one sample's transfer does.
    """
    room = _STACK_BYTES - _STACK_FIXED - _sample_bytes(n, d, d_env)
    return max(1, room // _draw_bytes(n, d, d_env))


def _slice_size(count: int, n: int, d: int, d_env: int) -> int:
    """Most samples of one ``_transfer`` slice of a stack of ``count`` circuits; at least 1.

    While its transfer is built, the stack holds per sample its unitaries,
    its environment factor, its unitarity and certificate residual rows
    and its transfer fields (n d^4 + 1 entries), which the slices fill in
    place. A slice's samples hold ``_sample_bytes`` each beside that,
    within ``_STACK_BYTES``.
    """
    held = n * (d * d_env) ** 2 + d_env**2 + (n * d**4 + 1) + 2 * n + 1
    room = _STACK_BYTES - _STACK_FIXED - 16 * count * held
    return max(1, room // _sample_bytes(n, d, d_env))


def _near_equal_slices(count: int, size: int) -> Iterator[slice]:
    """The fewest slices of at most ``size`` that cover ``count`` items in order.

    Their sizes differ by at most one. They are made as they are read, so
    planning them holds no memory that grows with the count.
    """
    parts = -(-count // size)
    return (slice(k * count // parts, (k + 1) * count // parts) for k in range(parts))


def _stacks(
    count: int, n: int, d: int, d_env: int,
    circuits: Callable[[slice], tuple[np.ndarray, np.ndarray]],
) -> Iterator[Stack]:
    """``build_stack`` of ``circuits(part)`` per stack ``part`` of ``count`` samples, in order.

    The samples are circuits of n steps on d-dimensional slots and a
    d_env-sided environment. The stacks are the fewest slices of at most
    ``_stack_size(n, d, d_env)`` samples, their sizes differing by at most
    one, so a peak memory set by ``_draw_bytes`` does not grow with the
    count. ``circuits`` gives a stack's unitaries (S, n, D, D) and
    environment factors (S, d_env, r). n < 1 or d < 2 raises
    ``CircuitProcessSpec``'s ``ValueError`` at the call, before any stack
    is planned. The stacks are planned, drawn and built one at a time, and
    nothing of a stack's draw is held while its caller reads what
    ``build_stack`` returned.
    """
    _check_slots(n, d)
    parts = _near_equal_slices(count, _stack_size(n, d, d_env))
    return (build_stack(*circuits(part)) for part in parts)


def random_processes(spec: RandomSpec, count: int) -> Iterator[Stack]:
    """``random_process`` for the seeds spec.seed, ..., spec.seed + count - 1, built in stacks.

    Yields, per stack of consecutive seeds (``_stacks``), what
    ``build_stack`` returns: the stacked ``Transfer``, the hierarchy
    residuals (S, n) in seed order and the mask (S,) of rows that hold
    certificate bounds; ``build_from_circuit`` would raise for a sample
    whose row fails ``causality_holds``. Sample k is the circuit of
    ``random_process`` for seed spec.seed + k, bit for bit
    (``_random_circuits``), so the first sample in seed order that fails a
    check raises the single-process error.
    """
    return _stacks(count, spec.n, spec.d, spec.d_env, lambda part: _random_circuits(
        replace(spec, seed=spec.seed + part.start), part.stop - part.start))


def fredkin_processes(ps: Sequence[float], n: int, d: int) -> Iterator[Stack]:
    """n Fredkin steps on one environment per p of ``ps``, built in stacks (``_stacks``).

    Point p is ``fredkin_spec(p, n, d)``, whose environment has side 2d
    (``_fredkin_circuits``). Yields ``build_stack``'s triple per stack, in
    the order of ``ps``; each point's values are those of one stack of all
    of ``ps``, bit for bit.
    """
    return _stacks(len(ps), n, d, 2 * d, lambda part: _fredkin_circuits(ps[part], n, d))


def _random_circuits(spec: RandomSpec, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Unitaries (count, n, D, D) and environment factors (count, d_env, r) for seeds spec.seed, ....

    They come in the order ``build_stack`` takes them. Sample k draws from
    ``default_rng(spec.seed + k)``, bit for bit (``_generators``): its
    environment factor (``random_env``), then the real and imaginary
    Gaussians of each unitary. A shared environment, drawn from no
    generator (maximally mixed, pure ground), is one factor broadcast over
    the stack.
    """
    dim = spec.d * spec.d_env
    rngs = _generators(spec.seed, count)
    if spec.env_init == "seeded-random":
        env = np.array([random_env(rng, spec.d_env, spec.env_init) for rng in rngs])
    else:
        shared = random_env(rngs[0], spec.d_env, spec.env_init)
        env = np.broadcast_to(shared, (count, *shared.shape))
    gauss = np.empty((count, spec.n, 2, dim, dim))
    for rng, g in zip(rngs, gauss):
        rng.standard_normal(out=g)
    return _haar(gauss), env


# Stacks of fewer seeds take ``default_rng`` per generator. On one core of an Intel Xeon a
# ``_seed_states`` pass costs 50 to 75 us, and a generator built from its row 1.6 us against
# 10 us from ``default_rng``, so the measured crossover lies between 6 and 10 seeds. numpy's
# SeedSequence pool holds 4 words of 32 bits; a seed from 2^128 on has more words, which numpy
# mixes in after the pool, so a stack that reaches ``_SEED_LIMIT`` takes ``default_rng`` too.
_SEEDED_STACK = 8
_SEED_LIMIT = 2**128


def _generators(seed: int, count: int) -> list[np.random.Generator]:
    """Generators for the seeds seed + k, k < count, each in the state ``default_rng`` gives it.

    Below ``_SEEDED_STACK`` seeds, or where a seed reaches ``_SEED_LIMIT``,
    these are ``default_rng``'s own. Otherwise one ``_seed_states`` pass
    seeds the whole stack, and each ``PCG64`` reads its row through a
    ``_SeedState``, in place of a SeedSequence hashing its seed alone.
    """
    if count < _SEEDED_STACK or seed + count > _SEED_LIMIT:
        return [np.random.default_rng(seed + k) for k in range(count)]
    seed_state = _seed_state_type()
    states = _seed_states(seed, count)
    return [np.random.Generator(np.random.PCG64(seed_state(row))) for row in states]


@functools.cache
def _seed_state_type() -> type:
    """The class of ``_generators``' seed sequences, made on first use.

    Subclassing numpy's ISeedSequence imports ``numpy.random``, about 6 MB
    of resident memory that a run which draws no generator does not need.
    """

    class _SeedState(np.random.bit_generator.ISeedSequence):
        """What ``SeedSequence(seed).generate_state(4, np.uint64)`` gives, already computed.

        That is all ``PCG64`` asks of a seed sequence. It reads the raw data
        of the array it gets, so ``state`` is one C-contiguous row of
        ``_seed_states``.
        """

        __slots__ = ("state",)

        def __init__(self, state: np.ndarray) -> None:
            self.state = state

        def generate_state(self, n_words: int, dtype: type = np.uint32) -> np.ndarray:
            return self.state

    return _SeedState


def _hash_constants(start: int, mult: int, calls: int) -> np.ndarray:
    """Column (calls + 1, 1) of a hash constant: ``start``, times ``mult`` mod 2^32 per call."""
    consts = [start]
    for _ in range(calls):
        consts.append(consts[-1] * mult % 2**32)
    return np.array(consts, dtype=np.uint32)[:, None]


_MIX_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)  # the pool's 16 hashmix calls
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)  # the state's 8 words


def _hashmix(v: np.ndarray, calls: slice) -> np.ndarray:
    """SeedSequence's hashmix as its ``calls`` apply it, one call per row of the result.

    The hash constant h that each call reads and multiplies carries across
    calls, but depends on no data: call c reads ``_MIX_HASH[c]``.
    """
    v = (v ^ _MIX_HASH[calls]) * _MIX_HASH[calls.start + 1:calls.stop + 1]
    return v ^ v >> 16


def _seed_states(seed: int, count: int) -> np.ndarray:
    """``SeedSequence(seed + k).generate_state(4, np.uint64)`` for k < count, as rows (count, 4).

    numpy's SeedSequence hashes a seed's little-endian 32-bit words into a
    pool of 4 words, and the pool into the state that ``PCG64`` reads. This
    runs that hash on every seed of the stack at once, in uint32 arrays,
    whose arithmetic wraps mod 2^32 (numpy scalars would warn). The seeds
    must lie below 2^128: the pool reads a missing word as 0, and a fifth
    word would be mixed in after it. Each seed's upper three words are
    those of seed >> 32 or of the next integer, as count < 2^32.

    - pool word i is hashmix(word i); then, for src = 0..3, every other pool
      word dst becomes mix(pool[dst], hashmix(pool[src])), where mix(x, y)
      is r ^ r >> 16 for r = 0xca01f9dd x - 0x4973f715 y. Those three
      updates read pool[src] alone, so each round is one array step;
    - state word i, for i = 0..7, is pool[i % 4] hashed by the state's own
      constants, and word pairs, low word first, make the 4 uint64.
    """
    low = np.arange(count, dtype=np.uint64) + seed % 2**32
    upper = np.array([[h >> shift & 0xFFFFFFFF for shift in (0, 32, 64)]
                      for h in (seed >> 32, (seed >> 32) + 1)], dtype=np.uint32)
    entropy = np.concatenate([low.astype(np.uint32)[None], upper[low >> 32].T])  # (4, count)
    pool = _hashmix(entropy, slice(0, 4))
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        hashed = _hashmix(pool[src], slice(4 + 3 * src, 7 + 3 * src))
        mixed = pool[dst] * 0xCA01F9DD - hashed * 0x4973F715
        pool[dst] = mixed ^ mixed >> 16
    words = (pool[[0, 1, 2, 3] * 2] ^ _STATE_HASH[:-1]) * _STATE_HASH[1:]
    words ^= words >> 16
    states = np.left_shift(words[1::2].T, 32, dtype=np.uint64)
    states |= words[0::2].T
    return np.ascontiguousarray(states)
