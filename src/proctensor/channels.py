"""Single-step channels as one-step processes: the M quantifier and dilation diagnostics.

A channel is the n = 1 process tensor: its normalized Choi state is a
``ProcessTensor`` on the slots (i_0, o_1), and a dilation is a one-step
``CircuitProcessSpec`` whose Choi state ``build_from_circuit(spec).state``
simulates. ``depolarizing_choi`` and ``channel_M`` go through the dense
Choi state; they are the reference route for the CLI's sweep, which reads
M from a stack of one-step Fredkin dilations (``processes.fredkin_processes``,
whose point p is ``fredkin_spec(p, 1, d)``) and forms no Choi state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix, max_entangled_state, mutual_information, partial_trace
from .processes import CircuitProcessSpec, ProcessTensor, build_from_circuit


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


def _one_step(n: int) -> None:
    if n != 1:
        raise ValueError(f"a channel is a one-step process, got n = {n}")


def depolarizing_choi(d: int, p: float) -> ProcessTensor:
    """Choi state of the depolarizing channel rho -> p*I/d + (1-p)*rho."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    phi = max_entangled_state(d)
    mat = p * np.eye(d * d) / (d * d) + (1.0 - p) * phi.mat
    return ProcessTensor.from_state(DensityMatrix(mat, (d, d)))


def channel_M(choi: ProcessTensor) -> float:
    """Input-output mutual information of a one-step Choi state, in [0, 2 ln d]."""
    _one_step(choi.n)
    return mutual_information(choi.state, ((0,), (1,)))


def eta_diagnostics(spec: CircuitProcessSpec) -> EtaDiagnostics:
    """Information-exchange diagnostics of a one-step dilation.

    The global pure state on (in, out, environment, ancilla) is the factor
    of the built Choi state, whose columns index (environment, ancilla).
    """
    _one_step(spec.n)
    d, de = spec.d, spec.d_env
    factor = build_from_circuit(spec).state.factor
    eta = DensityMatrix(None, (d, d, de, factor.shape[1] // de), factor=factor.reshape(-1, 1))

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
