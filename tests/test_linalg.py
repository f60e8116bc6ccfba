import math
import tracemalloc
import warnings

import numpy as np
import pytest

import proctensor.linalg
from proctensor import (
    DensityMatrix,
    DimensionLimitError,
    NotAStateError,
    NotHermitianError,
    kron,
    max_entangled_state,
    maximally_mixed,
    mutual_information,
    partial_trace,
    permute_subsystems,
    relative_entropy,
    trace_distance,
    von_neumann_entropies,
    von_neumann_entropy,
)
from proctensor.channels import depolarizing_choi
from proctensor.processes import (
    RandomSpec,
    _random_circuits,
    fredkin_unitary,
    haar_unitary,
    swap_unitary,
)
from proctensor.config import DEFAULT_TOL
from proctensor.io import load_choi, save_choi
from proctensor.linalg import (
    _certified_factor,
    _factor_spectra,
    factor_entropies,
    hermiticity_residual,
    unitarity_residual,
)

from conftest import count_eigh, leaky_unitary, random_density, random_pure

LN2 = math.log(2)
EPS = np.finfo(float).eps


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]), (2,))

    def test_rejects_negative(self):
        with pytest.raises(NotAStateError):
            DensityMatrix(np.diag([1.5, -0.5]), (2,))

    def test_rejects_bad_trace(self):
        with pytest.raises(NotAStateError):
            DensityMatrix(np.eye(2), (2,))

    def test_rejects_bad_shape_product(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(4) / 4, (2, 3))

    @pytest.mark.parametrize("scale", [1e200, 1e200 * (1 + 1j), 1e308 * (1 + 1j)])
    def test_huge_factor_is_refused_with_no_numpy_warning(self, scale):
        # Its entries overflow the trace to inf, which the trace check refuses;
        # a NaN entry is still refused as such.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotAStateError, match=r"^factor trace inf deviates from 1 "):
                DensityMatrix(None, (2,), factor=scale * np.eye(2))
            with pytest.raises(ValueError, match="^factor entries must be finite$"):
                DensityMatrix(None, (2,), factor=np.array([[np.nan, 0.0], [0.0, scale]]))


def eigh_factor(mat: np.ndarray) -> np.ndarray:
    """The slow route: eigenpairs above the rounding level w.max() dim eps, as V sqrt(w)."""
    w, v = np.linalg.eigh(mat)
    keep = w > w[-1] * len(mat) * EPS
    return v[:, keep] * np.sqrt(w[keep])


def forbid_eigh(monkeypatch):
    def eigh(*args, **kwargs):
        raise AssertionError("eigh called on the certified path")

    monkeypatch.setattr(np.linalg, "eigh", eigh)


def rotated(rng, w, dim: int) -> np.ndarray:
    """A Hermitian matrix of side dim with eigenvalues w (zero-padded) in a Haar basis."""
    u = haar_unitary(dim, rng)
    m = (u * np.concatenate([w, np.zeros(dim - len(w))])) @ u.conj().T
    return (m + m.conj().T) / 2


class TestDenseInput:
    def test_needs_exactly_one_of_mat_and_factor(self):
        v = np.array([[1.0], [0.0]])
        with pytest.raises(ValueError):
            DensityMatrix(v @ v.T, (2,), factor=v)
        with pytest.raises(ValueError):
            DensityMatrix(None, (2,))

    @pytest.mark.parametrize("dims, factor, message", [
        ((0,), np.zeros((0, 1)), r"subsystem dimensions must be >= 1, got \(0,\)"),
        ((2,), np.ones((3, 1)), r"factor shape \(3, 1\) does not match dimension 2"),
        ((2,), np.array([[np.nan], [0.0]]), "factor entries must be finite"),
    ])
    def test_factor_input_is_refused_by_name(self, dims, factor, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            DensityMatrix(None, dims, factor=factor)

    def test_mat_is_the_input_array(self, rng):
        mat = np.array(random_density(rng, (2, 3)).mat)
        assert DensityMatrix(mat, (2, 3)).mat is mat

    def test_choi_file_round_trips_byte_for_byte(self, rng, tmp_path):
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        save_choi(random_density(rng, (2, 2, 2, 2), rank=3), first)
        save_choi(load_choi(first), second)
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("rank", [1, 3, None])
    def test_factor_reproduces_mat(self, rng, rank):
        rho = random_density(rng, (2, 3, 2), rank=rank)
        err = np.linalg.norm(rho.mat - rho.factor @ rho.factor.conj().T, 2)
        assert err <= rho.dim * EPS
        # the validated trace, summed in the factor's memory order (column-major here)
        assert rho.trace == np.sum(np.abs(rho.factor) ** 2)

    @pytest.mark.parametrize("rank", [1, 3, None])
    def test_factor_has_one_column_per_eigenvalue_above_rounding(self, rng, rank):
        rho = random_density(rng, (2, 3, 2), rank=rank)
        w = np.linalg.eigvalsh(rho.mat)
        assert rho.factor.shape[1] == np.count_nonzero(w > w[-1] * rho.dim * EPS)
        assert rho.factor.shape[1] == (rho.dim if rank is None else rank)

    def test_small_eigenvalues_are_kept_and_rounding_noise_dropped(self):
        psd = DEFAULT_TOL.psd
        for small, kept in ((10 * psd, 2), (psd, 2), (1e-13, 2), (1e-17, 1), (-psd / 10, 1)):
            rho = DensityMatrix(np.diag([1.0 - small, small]), (2,))
            assert rho.factor.shape == (2, kept)

    def test_tiny_eigenvalues_keep_the_trace(self):
        # Eigenvalues 0.9e-10 sit below DEFAULT_TOL.psd, yet the factor keeps them,
        # so its partial traces are unit-trace states equal to the dense ones.
        e = 0.9e-10
        phi = max_entangled_state(2).mat
        mat = (1 - 3 * e) * phi + e * (np.eye(4) - phi)
        rho = DensityMatrix(mat, (2, 2))
        assert rho.factor.shape == (4, 4)
        got = partial_trace(rho, (0,)).mat
        assert np.max(np.abs(got - dense_partial_trace(mat, (2, 2), (0,)))) <= 1e-12

    def test_negative_eigenvalues_that_break_the_factor_trace_are_rejected(self):
        # Each eigenvalue -0.9e-10 is allowed by DEFAULT_TOL.psd, but a factor cannot
        # carry them, and without them its trace is 1 + 2.7e-10.
        e = 0.9e-10
        with pytest.raises(NotAStateError, match="factor trace"):
            DensityMatrix(np.diag([1.0 + 3 * e, -e, -e, -e]), (2, 2))

    @pytest.mark.parametrize("side", [12, 64, 256])
    @pytest.mark.parametrize("rank", [1, 3, None])
    def test_matches_the_eigh_oracle(self, rng, monkeypatch, side, rank):
        dims = {12: (3, 4), 64: (4, 4, 4), 256: (4, 4, 4, 4)}[side]
        r = side if rank is None else rank
        g = rng.standard_normal((side, r)) + 1j * rng.standard_normal((side, r))
        mat = g @ g.conj().T
        mat /= np.trace(mat).real
        oracle = DensityMatrix(None, dims, factor=eigh_factor(mat))
        w = np.linalg.eigvalsh(mat)
        forbid_eigh(monkeypatch)
        rho = DensityMatrix(mat, dims)
        f = rho.factor
        assert np.linalg.norm(mat - f @ f.conj().T, 2) <= side * EPS
        assert f.shape[1] == np.count_nonzero(w > w[-1] * side * EPS) == r
        for keep in [(0,), (1,), tuple(range(1, len(dims)))]:
            got = von_neumann_entropy(partial_trace(rho, keep))
            assert got == pytest.approx(von_neumann_entropy(partial_trace(oracle, keep)), abs=1e-12)

    @pytest.mark.parametrize("diag", [
        [0.5, 0.0, 0.3, 0.2],
        [1 - 1e-13 - 1e-17, 1e-13, 1e-17],
        [0.05 * k for k in (4, 0, 1, 0, 3, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 10)],
    ])
    def test_diagonal_input_gives_the_eigh_factor_exactly(self, monkeypatch, diag):
        mat = np.diag(np.array(diag, dtype=complex))
        oracle = eigh_factor(mat)
        forbid_eigh(monkeypatch)
        assert np.array_equal(DensityMatrix(mat, (len(diag),)).factor, oracle)

    @pytest.mark.parametrize("case", ["allowed negative", "kept 1e-13, dropped 1e-17", "anti-Hermitian"])
    def test_fallback_gives_the_eigh_factor(self, monkeypatch, case):
        rng = np.random.default_rng(5)
        if case == "allowed negative":
            mat = np.diag([1 + DEFAULT_TOL.psd / 10, -DEFAULT_TOL.psd / 10]).astype(complex)
        elif case == "kept 1e-13, dropped 1e-17":
            # Spread over 256 rows, the 1e-13 eigenvalue leaves every pivot below the
            # rounding level, so only the residual shows that the factor misses it.
            mat = rotated(rng, np.array([1 - 1e-13 - 1e-17, 1e-13, 1e-17]), 256)
        else:
            g = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
            h = rng.standard_normal((12, 12))
            mat = g @ g.conj().T / np.sum(np.abs(g) ** 2) + 1e-12 * (h - h.T)
        oracle = eigh_factor(mat)
        sides = count_eigh(monkeypatch)
        rho = DensityMatrix(mat, (len(mat),))
        assert sides == [len(mat)]
        assert np.array_equal(rho.factor, oracle)
        if case == "kept 1e-13, dropped 1e-17":
            assert rho.factor.shape[1] == 2

    def test_fallback_refuses_a_negative_eigenvalue_by_name(self, monkeypatch):
        psd = DEFAULT_TOL.psd
        sides = count_eigh(monkeypatch)
        with pytest.raises(NotAStateError, match=r"^minimum eigenvalue -2\.000e-10 < -1\.0e-10$"):
            DensityMatrix(np.diag([1 + 2 * psd, -2 * psd]), (2,))
        assert sides == [2]

    def test_low_rank_input_peaks_below_the_eigh_route(self, rng):
        # The eigh route peaked at 3.28 MB (numpy 2.4), the 1.05 MB input included. The
        # Hermiticity check, by row blocks, and the factorization form no 256 x 256 array,
        # so the constructor peaks at 1.88 MB: below the input's copy plus one input's size.
        g = rng.standard_normal((256, 4)) + 1j * rng.standard_normal((256, 4))
        mat = g @ g.conj().T
        mat /= np.trace(mat).real
        tracemalloc.start()
        try:
            DensityMatrix(mat.copy(), (256,))
            total = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            _certified_factor(mat, 1.0)
            factoring = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert total <= 2 * mat.nbytes
        assert factoring < mat.nbytes


class TestHermiticityResidual:
    """The row-block residual equals the full-array max |m - m^dag|, and forms no input-sized array."""

    @staticmethod
    def full_array(m: np.ndarray) -> float:
        return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0

    def test_equals_the_full_array_formula(self, rng):
        herm = random_density(rng, (16, 16)).mat
        off = herm.copy()
        off[200, 150] += 1e-11  # both rows beyond the first block
        g = rng.standard_normal((81, 81)) + 1j * rng.standard_normal((81, 81))
        for m in (herm, off, g, np.zeros((0, 0), dtype=complex)):
            assert hermiticity_residual(m) == self.full_array(m)
        assert hermiticity_residual(off) == pytest.approx(1e-11, rel=1e-3)

    def test_nan_propagates(self):
        m = np.eye(300, dtype=complex)
        m[299, 0] = np.nan
        assert math.isnan(hermiticity_residual(m))

    def test_peaks_below_one_input(self, rng):
        m = random_density(rng, (256,), rank=4).mat
        tracemalloc.start()
        try:
            hermiticity_residual(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m.nbytes


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal_product(self):
        got = kron(np.diag([1.0, 0.0]), np.eye(2) / 2)
        assert np.allclose(got, np.diag([0.5, 0.5, 0.0, 0.0]))

    def test_trace_multiplicative(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.isclose(np.trace(kron(a, b)), np.trace(a) * np.trace(b))

    def test_dimension_limit(self, monkeypatch):
        monkeypatch.setenv("PROCTENSOR_MAX_DIM", "8")
        with pytest.raises(DimensionLimitError):
            kron(np.eye(4), np.eye(4))


class TestPartialTrace:
    def test_product_state(self, rng):
        a = random_density(rng, (2,))
        b = random_density(rng, (3,))
        joint = DensityMatrix(kron(a.mat, b.mat), (2, 3))
        assert np.allclose(partial_trace(joint, (0,)).mat, a.mat)
        assert np.allclose(partial_trace(joint, (1,)).mat, b.mat)

    def test_max_entangled_marginal(self):
        phi = max_entangled_state(3)
        assert np.allclose(partial_trace(phi, (0,)).mat, np.eye(3) / 3)

    def test_depolarizing_trace_condition(self):
        for p in (0.0, 0.3, 1.0):
            choi = depolarizing_choi(2, p)
            assert np.allclose(partial_trace(choi.state, (0,)).mat, np.eye(2) / 2)

    def test_sequential_equals_joint(self, rng):
        rho = random_density(rng, (2, 2, 3))
        via_two = partial_trace(partial_trace(rho, (0, 2)), (1,))
        direct = partial_trace(rho, (2,))
        assert np.max(np.abs(via_two.mat - direct.mat)) <= 1e-9

    def test_invalid_subset(self, rng):
        rho = random_density(rng, (2, 2))
        with pytest.raises(ValueError):
            partial_trace(rho, (2,))
        with pytest.raises(ValueError):
            partial_trace(rho, ())
        with pytest.raises(ValueError, match=r"^keep has repeated indices: \(0, 0\)$"):
            partial_trace(rho, (0, 0))
        with pytest.raises(ValueError, match="^perm must cover every subsystem$"):
            permute_subsystems(rho, (1,))


class TestUnitarityResidual:
    """||U^dag U - I||_F against the operator norm from an SVD, its lower bound."""

    @staticmethod
    def operator_norm(u: np.ndarray) -> float:
        return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]), 2))

    @pytest.mark.parametrize("spread", [False, True])
    @pytest.mark.parametrize("dim", [2, 4, 6, 8, 9])
    def test_lies_between_the_operator_norm_and_sqrt_dim_times_it(self, rng, dim, spread):
        for leak in (1e-13, 1e-11, 1e-9, 1e-6, 1e-3):
            u = leaky_unitary(haar_unitary(dim, rng), leak, rng, spread)
            op, res = self.operator_norm(u), unitarity_residual(u)
            assert isinstance(res, float)
            assert op * (1 - 1e-12) <= res <= math.sqrt(dim) * op * (1 + 1e-12)
            if spread and leak >= 1e-11:  # sigma^2 - 1 = +-2 leak + leak^2, above rounding
                assert res == pytest.approx(math.sqrt(dim) * op, rel=1e-3)

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_equals_the_operator_norm_on_rank_one_leaks(self, rng, dim):
        # U = I + eps v v^dag gives U^dag U - I = (2 eps + eps^2) v v^dag
        for eps in (1e-9, 1e-6, 1e-3):
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            v /= np.linalg.norm(v)
            u = np.eye(dim) + eps * np.outer(v, v.conj())
            res = unitarity_residual(u)
            assert res == pytest.approx(self.operator_norm(u), rel=1e-6)
            assert res == pytest.approx(2 * eps + eps**2, rel=1e-6)

    def test_stack_matches_one_matrix_at_a_time(self, rng):
        # ``random_process`` takes the residuals of one circuit, ``random_processes``
        # those of a stack: both must be the same bits.
        us, _ = _random_circuits(RandomSpec(n=3, d=2, d_env=4, seed=3), 40)
        leaky = np.array([[leaky_unitary(u, 1e-11, rng, k % 2 == 1) for u in circuit]
                          for k, circuit in enumerate(us)])
        for stack in (us, leaky):
            got = unitarity_residual(stack)
            assert got.shape == stack.shape[:2]
            for k in range(len(stack)):
                assert np.array_equal(got[k], unitarity_residual(stack[k]))
                for j in range(stack.shape[1]):
                    assert got[k, j] == unitarity_residual(stack[k, j])

    def test_permutation_gates_give_exactly_zero(self):
        cnot = np.eye(4)[[0, 1, 3, 2]]
        gates = [swap_unitary(2), swap_unitary(3), fredkin_unitary(2), fredkin_unitary(3), cnot]
        for u in gates:
            assert unitarity_residual(u) == 0.0
        assert np.array_equal(unitarity_residual(np.array([[swap_unitary(2), cnot]])), [[0.0, 0.0]])


class TestEigenvalues:
    def test_depolarizing_spectrum(self):
        got = _factor_spectra(depolarizing_choi(2, 0.5).state.factor)
        assert np.allclose(got, [1 / 8, 1 / 8, 1 / 8, 5 / 8])


class TestEntropy:
    def test_maximally_mixed(self):
        for d in (2, 3, 5):
            assert von_neumann_entropy(maximally_mixed(d)) == pytest.approx(math.log(d))

    def test_pure_state(self, rng):
        assert von_neumann_entropy(random_pure(rng, (4,))) == pytest.approx(0.0, abs=1e-12)

    def test_isotropic_spectrum_value(self):
        # independent oracle: -sum(lambda ln lambda) on the analytic spectrum
        lams = np.array([5 / 8, 1 / 8, 1 / 8, 1 / 8])
        expected = float(-np.sum(lams * np.log(lams)))
        rho = DensityMatrix(np.diag(lams), (4,))
        assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.0735429, abs=1e-6)

    def test_pure_bipartition_entropies_match(self, rng):
        for _ in range(25):
            psi = random_pure(rng, (3, 4))
            sa = von_neumann_entropy(partial_trace(psi, (0,)))
            sb = von_neumann_entropy(partial_trace(psi, (1,)))
            assert sa == pytest.approx(sb, abs=1e-8)

    def test_araki_lieb_and_subadditivity(self, rng):
        for _ in range(50):
            rho = random_density(rng, (3, 3))
            sa = von_neumann_entropy(partial_trace(rho, (0,)))
            sb = von_neumann_entropy(partial_trace(rho, (1,)))
            sab = von_neumann_entropy(rho)
            assert abs(sa - sb) <= sab + 1e-8
            assert sab <= sa + sb + 1e-8


    def test_stack_matches_each_state(self, rng, monkeypatch):
        # full-rank, rank-deficient and pure states, side 4, in one stack
        states = [random_density(rng, (4,), rank=k) for k in (4, 2, 1)]
        stack = np.array([rho.mat for rho in states])
        got = von_neumann_entropies(stack)
        assert got.shape == (3,)
        for s, rho in zip(got, states):
            assert s == pytest.approx(von_neumann_entropy(rho), abs=1e-13)
        assert von_neumann_entropies(stack.reshape(3, 1, 4, 4)).shape == (3, 1)
        # Side 2 is taken in closed form; eigvalsh on the same stack is the oracle.
        u = haar_unitary(2, rng)
        qubits = np.array([
            random_pure(rng, (2,)).mat,
            np.eye(2) / 2,
            np.diag([1.0, 0.0]),
            np.diag([1.0 - 1e-17, 1e-17]),
            (u * [1.0 - 1e-16, 1e-16]) @ u.conj().T,
            np.array([[0.6, 0.1 - 0.2j], [0.1 + 0.2j, 0.4]]),
            *(random_density(rng, (2,)).mat for _ in range(50)),
        ])
        spectra = np.linalg.eigvalsh(qubits)
        entropies = [-sum(x * math.log(x) for x in w if x > 0) for w in spectra]

        def eigvalsh(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        closed = proctensor.linalg._hermitian_spectra(qubits)
        bound = 4 * EPS * np.max(np.abs(spectra), axis=1)[:, None]
        assert np.all(np.abs(closed - spectra) <= bound)
        # eigvalsh itself strays up to about 6 eps max|lambda| on random qubit states; the
        # closed form stays within 2 eps of the same formula in extended precision.
        a, c, b = (qubits[:, i, j].astype(np.clongdouble) for i, j in ((0, 0), (1, 1), (1, 0)))
        h, r = (a.real + c.real) / 2, np.sqrt(((a.real - c.real) / 2) ** 2 + abs(b) ** 2)
        exact = np.stack([h - r, h + r], axis=1)
        assert np.all(np.abs(closed - exact) <= bound / 2)
        assert np.all(np.abs(von_neumann_entropies(qubits) - entropies) <= 1e-13)
        assert von_neumann_entropies(qubits.reshape(2, -1, 2, 2)).shape == (2, len(qubits) // 2)
        with pytest.raises(AssertionError, match="eigvalsh called"):
            von_neumann_entropies(stack)

    def test_stack_rejects_negative_eigenvalues(self):
        bad = np.array([np.eye(2) / 2, np.diag([1.0 + 1e-9, -1e-9])])
        with pytest.raises(NotAStateError, match="negative eigenvalue"):
            von_neumann_entropies(bad)

    def test_a_non_finite_spectrum_fails(self, monkeypatch):
        # A NaN is below no bound, so it once passed the check and was read
        # as 1 ln 1 = 0. Side 2 is taken in closed form, any other side by
        # eigvalsh, whose spectrum reaches the same check.
        with pytest.raises(NotAStateError, match="non-finite eigenvalue"):
            von_neumann_entropies(np.array([np.eye(2) / 2, [[0.5, 0.0], [0.0, np.nan]]]))
        for bad in (np.nan, np.inf):
            with pytest.raises(NotAStateError, match="non-finite eigenvalue"):
                proctensor.linalg._entropy_from_spectrum(np.array([[0.5, 0.5, 0.0], [bad, 0.5, 0.5]]))
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: real(m) + [0.0, np.nan, 0.0])
        with pytest.raises(NotAStateError, match="non-finite eigenvalue"):
            von_neumann_entropies(np.eye(3)[None] / 3)


class TestRelativeEntropy:
    def test_self_is_zero(self, rng):
        rho = random_density(rng, (4,))
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_max_entangled_vs_mixed(self):
        phi = max_entangled_state(2)
        assert relative_entropy(phi, maximally_mixed((2, 2))) == pytest.approx(
            2 * LN2, abs=1e-10
        )

    def test_orthogonal_supports_infinite(self):
        zero = DensityMatrix(np.diag([1.0, 0.0]), (2,))
        one = DensityMatrix(np.diag([0.0, 1.0]), (2,))
        assert relative_entropy(zero, one) == math.inf

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            relative_entropy(random_density(rng, (2,)), random_density(rng, (3,)))


class TestMutualInformation:
    def test_product_is_zero(self, rng):
        a = random_density(rng, (2,))
        b = random_density(rng, (3,))
        joint = DensityMatrix(kron(a.mat, b.mat), (2, 3))
        assert mutual_information(joint, ((0,), (1,))) == pytest.approx(0.0, abs=1e-9)

    def test_max_entangled(self):
        for d in (2, 3):
            phi = max_entangled_state(d)
            assert mutual_information(phi, ((0,), (1,))) == pytest.approx(
                2 * math.log(d), abs=1e-10
            )

    def test_four_pure_factors(self, rng):
        mats = [random_pure(rng, (2,)).mat for _ in range(4)]
        mat = mats[0]
        for m in mats[1:]:
            mat = kron(mat, m)
        joint = DensityMatrix(mat, (2, 2, 2, 2))
        got = mutual_information(joint, ((0,), (1,), (2,), (3,)))
        assert got == pytest.approx(0.0, abs=1e-9)

    def test_matches_relative_entropy_form(self, rng):
        for _ in range(20):
            rho = random_density(rng, (2, 3))
            mi = mutual_information(rho, ((0,), (1,)))
            marginals = kron(partial_trace(rho, (0,)).mat, partial_trace(rho, (1,)).mat)
            rel = relative_entropy(rho, DensityMatrix(marginals, (2, 3)))
            assert mi == pytest.approx(rel, abs=1e-8)
            assert mi >= -1e-8

    def test_malformed_partition(self, rng):
        rho = random_density(rng, (2, 2))
        with pytest.raises(ValueError):
            mutual_information(rho, ((0,), (0, 1)))
        with pytest.raises(ValueError):
            mutual_information(rho, ((0,),))

    def test_block_entropies_add_left_to_right(self, rng, monkeypatch):
        # The blocks' entropies 0.1, 0.2 and 0.3, then the global one: the
        # sum must be the left-to-right one, which math.fsum (standing in for
        # the compensated ``sum`` of Python 3.12) does not give.
        entropies = iter([0.1, 0.2, 0.3, 0.0625])
        monkeypatch.setattr(proctensor.linalg, "von_neumann_entropy", lambda rho: next(entropies))
        got = mutual_information(random_density(rng, (2, 2, 2)), ((0,), (1,), (2,)))
        assert math.fsum([0.1, 0.2, 0.3]) != (0.1 + 0.2) + 0.3
        assert got == ((0.1 + 0.2) + 0.3) - 0.0625


class TestSpectraReadFactors:
    """Every entropy of a state is taken from its factor (``_factor_spectra``), never from ``mat``."""

    @staticmethod
    def states(rng, d: int) -> list[DensityMatrix]:
        dims = (d, d, 2)
        dim = math.prod(dims)
        wide = [rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
                for k in (dim, dim + 3)]
        return [
            random_density(rng, dims),          # dense, full rank: a square factor
            random_density(rng, dims, rank=3),  # dense, rank-deficient
            random_pure(rng, dims),
            *(DensityMatrix(None, dims, factor=f / np.linalg.norm(f)) for f in wide),
        ]

    @pytest.mark.parametrize("d", [2, 3])
    def test_no_entropy_reads_mat(self, rng, monkeypatch, d):
        states = self.states(rng, d)

        def no_mat(rho):
            raise AssertionError("DensityMatrix.mat read")

        monkeypatch.setattr(DensityMatrix, "mat", property(no_mat))
        # the dense full-rank state and both factor-built ones have wide factors
        assert [rho.factor.shape[1] >= rho.dim for rho in states] == [True, False, False, True, True]
        for rho in states:
            von_neumann_entropy(rho)
            mutual_information(rho, ((0,), (1,), (2,)))
            mutual_information(rho, ((0, 2), (1,)))

    @pytest.mark.parametrize("d", [2, 3])
    def test_entropy_is_the_factor_entropy(self, rng, d):
        for rho in self.states(rng, d):
            for state in (rho, partial_trace(rho, (0,)), partial_trace(rho, (1, 2))):
                got = np.float64(von_neumann_entropy(state))
                assert got.view(np.int64) == factor_entropies(state.factor).view(np.int64)


class TestTraceDistance:
    def test_identical(self, rng):
        rho = random_density(rng, (3,))
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure(self):
        zero = DensityMatrix(np.diag([1.0, 0.0]), (2,))
        one = DensityMatrix(np.diag([0.0, 1.0]), (2,))
        assert trace_distance(zero, one) == pytest.approx(1.0)

    def test_diagonal_example(self):
        a = maximally_mixed(2)
        b = DensityMatrix(np.diag([0.75, 0.25]), (2,))
        assert trace_distance(a, b) == pytest.approx(0.25)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            trace_distance(random_density(rng, (2,)), random_density(rng, (3,)))

    @pytest.mark.parametrize("ka, kb", [(3, 3), (2, 5), (7, 8)])
    @pytest.mark.parametrize("relation", ["identical", "close", "unrelated"])
    def test_factor_branch_matches_dense_spectrum(self, rng, ka, kb, relation):
        # ka + kb < dim selects the QR-projected branch; the reference is the
        # dense spectrum of a.mat - b.mat. (7, 8) sums to dim - 1.
        dim = 16

        def ginibre(k):
            return rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))

        for _ in range(5):
            fa = ginibre(ka)
            if relation == "unrelated":
                fb = ginibre(kb)
            else:
                fb = np.hstack([fa, np.zeros((dim, kb - ka))])
                if relation == "close":
                    fb = fb + 1e-14 * ginibre(kb)
            a = DensityMatrix(None, (2,) * 4, factor=fa / np.linalg.norm(fa))
            b = DensityMatrix(None, (2,) * 4, factor=fb / np.linalg.norm(fb))
            dense = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(a.mat - b.mat)))
            assert abs(trace_distance(a, b) - dense) <= 1e-12


def dense_partial_trace(mat: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    k = len(dims)
    row = list(range(k))
    col = [k + i if i in keep else i for i in range(k)]
    out = list(keep) + [k + i for i in keep]
    side = math.prod(dims[i] for i in keep)
    return np.einsum(mat.reshape(dims + dims), row + col, out).reshape(side, side)


def tiny_eigenvalue_density(rng: np.random.Generator, dims) -> DensityMatrix:
    """Full-rank state with two large eigenvalues, the rest in (1e-12, 1e-10]."""
    dim = math.prod(dims)
    w = np.concatenate([[0.6, 0.4], np.geomspace(2e-12, 1e-10, dim - 2)])
    w /= w.sum()
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    mat = (q * w) @ q.conj().T
    return DensityMatrix(0.5 * (mat + mat.conj().T), dims)


def dense_relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    w = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    s, v = np.linalg.eigh(sigma)
    overlap = np.einsum("ij,jk,ki->i", v.conj().T, rho, v).real
    return float(np.sum(w[w > 0] * np.log(w[w > 0])) - np.sum(overlap * np.log(s)))


class TestFactorRoutesMatchDenseFormulas:
    """Every state operation against a numpy formula on the dense matrix."""

    DIMS = (2, 3, 2)

    @pytest.fixture(params=[None, 5, 2, "tiny"], ids=["full-rank", "rank-5", "rank-2", "tiny"])
    def rho(self, request, rng):
        if request.param == "tiny":
            return tiny_eigenvalue_density(rng, self.DIMS)
        return random_density(rng, self.DIMS, rank=request.param)

    def test_partial_trace(self, rho):
        for keep in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)):
            got = partial_trace(rho, keep).mat
            assert np.max(np.abs(got - dense_partial_trace(rho.mat, rho.dims, keep))) <= 1e-12

    def test_permute_subsystems(self, rho):
        for perm in ((0, 1, 2), (2, 0, 1), (1, 2, 0), (2, 1, 0)):
            got = permute_subsystems(rho, perm).mat
            t = rho.mat.reshape(rho.dims + rho.dims).transpose(perm + tuple(3 + p for p in perm))
            assert np.max(np.abs(got - t.reshape(rho.dim, rho.dim))) <= 1e-12

    def test_state_spectrum(self, rho):
        got = _factor_spectra(rho.factor)
        assert np.max(np.abs(got - np.linalg.eigvalsh(rho.mat))) <= 1e-12

    def test_trace_distance(self, rho, rng):
        for rank in (None, 4, 1):
            other = random_density(rng, self.DIMS, rank=rank)
            dense = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho.mat - other.mat)))
            assert abs(trace_distance(rho, other) - dense) <= 1e-12

    def test_relative_entropy(self, rho, rng):
        sigma = random_density(rng, self.DIMS)
        dense = dense_relative_entropy(rho.mat, sigma.mat)
        assert abs(relative_entropy(rho, sigma) - dense) <= 1e-12
