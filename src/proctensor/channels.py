"""Single-step channel constructs: Choi states, dilations and the M quantifier.

Channels are represented canonically by their normalized Choi state with
subsystem order (in, out). Dilation unitaries act on system (x) environment,
system first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL
from .linalg import (
    DensityMatrix,
    kron,
    max_entangled_state,
    max_entangled_vector,
    maximally_mixed,
    mutual_information,
    partial_trace,
    partial_transpose,
    trace_distance,
    unitarity_residual,
    von_neumann_entropy,
)


@dataclass(frozen=True)
class ChannelChoi:
    """Normalized Choi state of a single-step channel, shape (d_in, d_out).

    Tracing out the output leg must give the maximally mixed input marginal
    (trace preservation of the underlying channel).
    """

    state: DensityMatrix

    def __post_init__(self) -> None:
        if self.state.num_subsystems != 2:
            raise ValueError("a channel Choi state carries exactly two subsystems")
        marginal = partial_trace(self.state, (0,))
        res = trace_distance(marginal, maximally_mixed(self.d_in))
        if res > DEFAULT_TOL.eig:
            raise ValueError(f"input marginal deviates from maximally mixed by {res:.3e}")

    @property
    def d_in(self) -> int:
        return self.state.dims[0]

    @property
    def d_out(self) -> int:
        return self.state.dims[1]


@dataclass(frozen=True)
class DilationSpec:
    """Unitary dilation rho -> tr_E[U (rho x env) U^dag]; env's factor purifies env.

    ``unitarity_residual(unitary)``, ||U^dag U - I||_op, must be at most ``DEFAULT_TOL.eig``.
    """

    d_sys: int
    env_state: DensityMatrix
    unitary: np.ndarray

    def __post_init__(self) -> None:
        u = np.asarray(self.unitary, dtype=complex)
        object.__setattr__(self, "unitary", u)
        expected = self.d_sys * self.env_state.dim
        if u.shape != (expected, expected):
            raise ValueError(
                f"unitary shape {u.shape} does not match d_sys*d_env = {expected}"
            )
        res = unitarity_residual(u)
        if res > DEFAULT_TOL.eig:
            raise ValueError(f"unitarity residual {res:.3e} > {DEFAULT_TOL.eig:.1e}")
        u.setflags(write=False)

    @property
    def d_env(self) -> int:
        return self.env_state.dim


@dataclass(frozen=True)
class EtaDiagnostics:
    """Information-exchange diagnostics of a dilation, all in nats.

    ``kept`` is the input-output correlation M of the reduced channel,
    ``lost`` its complement 2 ln d - M (information handed to the
    environment), ``in_env_ancilla`` the input correlation with the joint
    environment+ancilla, and ``inout_ancilla`` the system correlation with
    the purifying ancilla alone.
    """

    kept: float
    lost: float
    in_env_ancilla: float
    inout_ancilla: float


def depolarizing_choi(d: int, p: float) -> ChannelChoi:
    """Choi state of the depolarizing channel rho -> p*I/d + (1-p)*rho."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    phi = max_entangled_state(d)
    mat = p * np.eye(d * d) / (d * d) + (1.0 - p) * phi.mat
    return ChannelChoi(DensityMatrix(mat, (d, d)))


def _eta_vector(spec: DilationSpec) -> tuple[np.ndarray, int]:
    """Global pure state after the interaction, axes (in, out, env, ancilla).

    Returns the amplitude tensor and the ancilla (purification) dimension.
    """
    d, de = spec.d_sys, spec.d_env
    psi_er = spec.env_state.factor  # (de, r)
    r = psi_er.shape[1]
    vec = np.multiply.outer(max_entangled_vector(d), psi_er)  # (in, sys, env, anc)
    u = spec.unitary.reshape(d, de, d, de)
    vec = np.tensordot(u, vec, axes=([2, 3], [1, 2]))  # (out, env, in, anc)
    vec = vec.transpose(2, 0, 1, 3)  # (in, out, env, anc)
    return vec, r


def choi_from_dilation(spec: DilationSpec) -> ChannelChoi:
    """Choi state of the channel obtained by tracing the environment of a dilation."""
    d = spec.d_sys
    vec, _ = _eta_vector(spec)
    m = vec.reshape(d * d, -1)
    return ChannelChoi(DensityMatrix(None, (d, d), factor=m))


def apply_channel(choi: ChannelChoi, rho: DensityMatrix) -> DensityMatrix:
    """Act with the channel on a state via its Choi state."""
    d_in, d_out = choi.d_in, choi.d_out
    if rho.dim != d_in:
        raise ValueError(f"state dimension {rho.dim} does not match d_in = {d_in}")
    upsilon_t = partial_transpose(choi.state, (0,))
    # With unit-trace Choi states the correct prefactor is d_in * d_out.
    big = kron(rho.mat, np.eye(d_out)) @ upsilon_t
    t = big.reshape(d_in, d_out, d_in, d_out)
    out = d_in * np.trace(t, axis1=0, axis2=2)
    return DensityMatrix(out, (d_out,))


def channel_M(choi: ChannelChoi) -> float:
    """Input-output mutual information of the Choi state, in [0, 2 ln d]."""
    return mutual_information(choi.state, ((0,), (1,)))


def eta_diagnostics(spec: DilationSpec) -> EtaDiagnostics:
    """Information-exchange diagnostics from the purified global state."""
    d = spec.d_sys
    vec, r = _eta_vector(spec)
    dims = (d, d, spec.d_env, r)
    eta = DensityMatrix(None, dims, factor=vec.reshape(-1, 1))

    def mi(a: tuple[int, ...], b: tuple[int, ...]) -> float:
        joint = partial_trace(eta, a + b)
        blocks = (tuple(range(len(a))), tuple(range(len(a), len(a) + len(b))))
        return mutual_information(joint, blocks)

    kept = mi((0,), (1,))
    lost = 2.0 * math.log(d) - kept
    return EtaDiagnostics(
        kept=kept,
        lost=lost,
        in_env_ancilla=mi((0,), (2, 3)),
        inout_ancilla=mi((0, 1), (3,)),
    )


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


def fredkin_dilation(p: float, d: int = 2) -> DilationSpec:
    """Dilation of the depolarizing channel by a Fredkin gate.

    The environment is a control qubit in (1-p)|0><0| + p|1><1| tensored
    with a maximally mixed target qudit.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    control = np.diag([1.0 - p, p])
    env = DensityMatrix(kron(control, np.eye(d) / d), (2, d))
    return DilationSpec(d_sys=d, env_state=env, unitary=fredkin_unitary(d))
