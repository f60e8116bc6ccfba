import functools
import math

import numpy as np
import pytest

from proctensor import (
    CircuitProcessSpec,
    DensityMatrix,
    ProcessTensor,
    build_from_circuit,
    channel_M,
    depolarizing_choi,
    eta_diagnostics,
    fredkin_dilation,
    haar_unitary,
    kron,
    max_entangled_state,
    maximally_mixed,
    partial_trace,
    swap_chain_process,
    swap_unitary,
    trace_distance,
)

from conftest import random_density

LN2 = math.log(2)


def random_dilation(rng, d_sys=2, d_env=2, rank=None) -> CircuitProcessSpec:
    env = random_density(rng, (d_env,), rank)
    u = haar_unitary(d_sys * d_env, rng)
    return CircuitProcessSpec(n=1, d=d_sys, env_state=env, unitaries=(u,))


def dense_eta(spec: CircuitProcessSpec) -> tuple[float, float, float, float]:
    """(kept, lost, in_env_ancilla, inout_ancilla) from the explicit global vector.

    I_in (x) U (x) I_anc acts on Phi_(in, sys) (x) psi_(env, anc), where psi
    purifies the environment through its eigendecomposition; the reduced
    states are formed from the amplitude tensor and their entropies taken
    with eigvalsh.
    """
    d, de = spec.d, spec.d_env
    w, v = np.linalg.eigh(spec.env_state.mat)
    psi = (v * np.sqrt(np.clip(w, 0.0, None))).reshape(-1)
    phi = np.eye(d).reshape(-1) / math.sqrt(d)
    op = np.kron(np.eye(d), np.kron(spec.unitaries[0], np.eye(de)))
    amps = (op @ np.kron(phi, psi)).reshape(d, d, de, de)  # (in, out, env, anc)

    def entropy(keep: tuple[int, ...]) -> float:
        rest = tuple(a for a in range(4) if a not in keep)
        m = amps.transpose(keep + rest).reshape(math.prod(amps.shape[a] for a in keep), -1)
        lam = np.linalg.eigvalsh(m @ m.conj().T)
        lam = lam[lam > 0]
        return float(-np.sum(lam * np.log(lam)))

    def mi(a: tuple[int, ...], b: tuple[int, ...]) -> float:
        return entropy(a) + entropy(b) - entropy(a + b)

    kept = mi((0,), (1,))
    return kept, 2 * math.log(d) - kept, mi((0,), (2, 3)), mi((0, 1), (3,))


def choi_of(channel, d: int) -> np.ndarray:
    """(1/d) sum_ij |i><j| (x) T(|i><j|): the Choi state of the linear map T = ``channel``."""
    mat = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            e_ij = np.zeros((d, d), dtype=complex)
            e_ij[i, j] = 1.0
            mat += kron(e_ij, channel(e_ij)) / d
    return mat


def depolarized(d: int, p: float, op: np.ndarray) -> np.ndarray:
    """p tr(op) I/d + (1-p) op: the depolarizing channel, on any operator."""
    return p * np.trace(op) * np.eye(d) / d + (1 - p) * op


def dilated(spec: CircuitProcessSpec, op: np.ndarray) -> np.ndarray:
    """tr_env U (op (x) sigma) U^dag: the channel of a one-step dilation, on any operator."""
    d, de = spec.d, spec.d_env
    u = spec.unitaries[0]
    big = u @ kron(op, spec.env_state.mat) @ u.conj().T
    return np.einsum("aebe->ab", big.reshape(d, de, d, de))


class TestDepolarizingChoi:
    def test_p_zero_is_max_entangled(self):
        for d in (2, 3):
            choi = depolarizing_choi(d, 0.0)
            assert np.allclose(choi.state.mat, max_entangled_state(d).mat)

    def test_p_one_is_maximally_mixed(self):
        choi = depolarizing_choi(3, 1.0)
        assert np.allclose(choi.state.mat, np.eye(9) / 9)

    def test_half_spectrum(self):
        got = np.linalg.eigvalsh(depolarizing_choi(2, 0.5).state.mat)
        assert np.allclose(got, [1 / 8, 1 / 8, 1 / 8, 5 / 8])

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            depolarizing_choi(2, 1.5)

    def test_dimension_below_two_refused(self):
        with pytest.raises(ValueError, match="^dimension must be >= 2, got 1$"):
            depolarizing_choi(1, 0.5)

    def test_choi_trace_condition_enforced(self):
        # a product state with non-mixed input marginal is not a Choi state
        bad = DensityMatrix(np.diag([1.0, 0, 0, 0]), (2, 2))
        with pytest.raises(ValueError):
            ProcessTensor.from_state(bad)


class TestChoiFromDilation:
    def test_identity_unitary(self, rng):
        env = random_density(rng, (3,))
        spec = CircuitProcessSpec(n=1, d=2, env_state=env, unitaries=(np.eye(6),))
        choi = build_from_circuit(spec)
        assert trace_distance(choi.state, max_entangled_state(2)) <= 1e-12

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_fredkin_matches_depolarizing(self, p):
        got = build_from_circuit(fredkin_dilation(p))
        assert trace_distance(got.state, depolarizing_choi(2, p).state) <= 1e-9

    def test_global_swap_gives_fixed_output(self, rng):
        sigma = random_density(rng, (2,))
        spec = CircuitProcessSpec(n=1, d=2, env_state=sigma, unitaries=(swap_unitary(2),))
        choi = build_from_circuit(spec)
        expected = DensityMatrix(kron(np.eye(2) / 2, sigma.mat), (2, 2))
        assert trace_distance(choi.state, expected) <= 1e-12
        assert channel_M(choi) == pytest.approx(0.0, abs=1e-10)

    def test_trace_condition_always_satisfied(self, rng):
        for _ in range(10):
            choi = build_from_circuit(random_dilation(rng, d_env=3))
            marg = partial_trace(choi.state, (0,))
            assert trace_distance(marg, maximally_mixed(2)) <= 1e-9

    def test_dimension_mismatch(self, rng):
        env = random_density(rng, (2,))
        with pytest.raises(ValueError):
            CircuitProcessSpec(n=1, d=2, env_state=env, unitaries=(np.eye(6),))

    @pytest.mark.parametrize("d", [2, 3])
    def test_states_are_the_choi_states_of_their_channels(self, rng, d):
        # Built and depolarizing states against the Choi state of their
        # channel, formed from the channel's action on each |i><j|.
        cases = [(depolarizing_choi(d, p), functools.partial(depolarized, d, p))
                 for p in (0.0, 0.4, 1.0)]
        for d_env in (2, 3):
            for rank in (None, 1):
                spec = random_dilation(rng, d_sys=d, d_env=d_env, rank=rank)
                cases.append((build_from_circuit(spec), functools.partial(dilated, spec)))
        for choi, channel in cases:
            assert np.max(np.abs(choi.state.mat - choi_of(channel, d))) <= 1e-12


class TestChannelM:
    def test_endpoints(self):
        for d in (2, 3, 4):
            assert channel_M(depolarizing_choi(d, 0.0)) == pytest.approx(
                2 * math.log(d), abs=1e-10
            )
            assert channel_M(depolarizing_choi(d, 1.0)) == pytest.approx(0.0, abs=1e-10)

    def test_half_value_from_spectrum_oracle(self):
        lams = np.array([5 / 8, 1 / 8, 1 / 8, 1 / 8])
        expected = 2 * LN2 - float(-np.sum(lams * np.log(lams)))
        assert channel_M(depolarizing_choi(2, 0.5)) == pytest.approx(expected, abs=1e-10)

    def test_monotone_in_p(self):
        for d in (2, 3):
            vals = [channel_M(depolarizing_choi(d, j / 100)) for j in range(101)]
            assert all(vals[k + 1] <= vals[k] + 1e-10 for k in range(100))

    def test_two_step_process_rejected(self):
        with pytest.raises(ValueError, match="one-step"):
            channel_M(swap_chain_process(2, 2))

    def test_zero_iff_fixed_output(self, rng):
        sigma = random_density(rng, (2,))
        fixed = ProcessTensor.from_state(DensityMatrix(kron(np.eye(2) / 2, sigma.mat), (2, 2)))
        assert channel_M(fixed) == pytest.approx(0.0, abs=1e-10)
        near = depolarizing_choi(2, 0.999)
        assert channel_M(near) > 1e-7


class TestEtaDiagnostics:
    def test_identity_unitary(self, rng):
        env = random_density(rng, (2,))
        spec = CircuitProcessSpec(n=1, d=2, env_state=env, unitaries=(np.eye(4),))
        eta = eta_diagnostics(spec)
        assert eta.kept == pytest.approx(2 * LN2, abs=1e-9)
        assert eta.lost == pytest.approx(0.0, abs=1e-9)
        assert eta.inout_ancilla == pytest.approx(0.0, abs=1e-9)

    def test_fredkin_fully_depolarizing(self):
        eta = eta_diagnostics(fredkin_dilation(1.0))
        assert eta.lost == pytest.approx(2 * LN2, abs=1e-9)
        assert eta.in_env_ancilla == pytest.approx(2 * LN2, abs=1e-9)

    def test_lost_information_identity(self, rng):
        # information lost to the environment equals the complement of M
        for _ in range(10):
            eta = eta_diagnostics(random_dilation(rng, d_env=3))
            assert eta.in_env_ancilla == pytest.approx(eta.lost, abs=1e-8)
            assert eta.kept + eta.lost == pytest.approx(2 * LN2, abs=1e-12)

    def test_exchange_bound(self, rng):
        for _ in range(10):
            eta = eta_diagnostics(random_dilation(rng, d_env=4))
            assert eta.inout_ancilla <= 2 * eta.lost + 1e-8

    @pytest.mark.parametrize("d, d_env", [(2, 2), (2, 3), (3, 2)])
    @pytest.mark.parametrize("rank", [None, 1, 2])
    def test_matches_dense_global_vector(self, rng, d, d_env, rank):
        for _ in range(4):
            spec = random_dilation(rng, d_sys=d, d_env=d_env, rank=rank)
            eta = eta_diagnostics(spec)
            got = (eta.kept, eta.lost, eta.in_env_ancilla, eta.inout_ancilla)
            assert np.max(np.abs(np.subtract(got, dense_eta(spec)))) <= 1e-10

    def test_two_step_spec_rejected(self, rng):
        env = random_density(rng, (2,))
        swap = swap_unitary(2)
        spec = CircuitProcessSpec(n=2, d=2, env_state=env, unitaries=(swap, swap))
        with pytest.raises(ValueError, match="one-step"):
            eta_diagnostics(spec)
