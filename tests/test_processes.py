import dataclasses
import inspect
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import proctensor.processes
from proctensor import (
    CausalityError,
    CausalityReport,
    CircuitProcessSpec,
    DensityMatrix,
    DimensionLimitError,
    NotAStateError,
    ProcessTensor,
    RandomSpec,
    build_from_circuit,
    cnot_swap_process,
    correlation_report,
    depolarizing_choi,
    fredkin_spec,
    fredkin_unitary,
    haar_unitary,
    kron,
    max_entangled_state,
    maximally_mixed,
    partial_trace,
    permute_subsystems,
    random_process,
    swap_chain_process,
    swap_unitary,
    trace_distance,
    verify_causality,
)

from proctensor.config import DEFAULT_TOL
from proctensor.io import save_choi
from proctensor.linalg import unitarity_residual
from proctensor.metrics import bound_slacks, transfer_quantities
from proctensor.processes import (
    _STACK_BYTES,
    build_stack,
    causality_holds,
    fredkin_processes,
    random_env,
    random_processes,
)

from conftest import (
    causal_tol,
    count_states,
    leaky_unitary,
    near_equal,
    random_density,
    record_plan,
    seeded_circuit_spec,
    stack_plan,
)


def random_circuit_spec(rng, n=2, d=2, d_env=2) -> CircuitProcessSpec:
    env = random_density(rng, (d_env,))
    us = tuple(haar_unitary(d * d_env, rng) for _ in range(n))
    return CircuitProcessSpec(n=n, d=d, env_state=env, unitaries=us)


def dense_circuit_choi(spec: CircuitProcessSpec) -> np.ndarray:
    """Choi matrix of the circuit by Kronecker products of full operators.

    The state is kept as a density matrix over (i_0, l_1, ..., i_{n-1}, l_n,
    env); step j conjugates it by U_j on (l_j, env), tensored with the
    identity and moved into place by a permutation matrix.
    """
    n, d, de = spec.n, spec.d, spec.d_env
    phi = np.eye(d).reshape(-1) / math.sqrt(d)
    rho = spec.env_state.mat
    for _ in range(n):
        rho = np.kron(np.outer(phi, phi), rho)
    dims = (d,) * (2 * n) + (de,)
    dim = rho.shape[0]
    for j, u in enumerate(spec.unitaries):
        live, env = 2 * j + 1, 2 * n
        order = [live, env] + [a for a in range(2 * n + 1) if a not in (live, env)]
        perm = np.eye(dim)[np.arange(dim).reshape(dims).transpose(order).reshape(-1)]
        w = perm.T @ np.kron(u, np.eye(dim // (d * de))) @ perm
        rho = w @ rho @ w.conj().T
    half = dim // de
    return np.trace(rho.reshape(half, de, half, de), axis1=1, axis2=3)


def assert_same_verdict(report, dense):
    """A build's exact residuals against the dense hierarchy's: same tol and verdict, within 1e-15."""
    assert report.tol == dense.tol
    for got, want in zip(report.residuals, dense.residuals, strict=True):
        assert abs(got - want) <= 1e-15
    assert report.passed == dense.passed


class TestBuildFromCircuit:
    def test_identity_steps_give_product_of_pairs(self, rng):
        env = random_density(rng, (3,))
        ident = np.eye(6)
        pt = build_from_circuit(
            CircuitProcessSpec(n=2, d=2, env_state=env, unitaries=(ident, ident))
        )
        phi = max_entangled_state(2)
        expected = DensityMatrix(kron(phi.mat, phi.mat), (2, 2, 2, 2))
        assert trace_distance(pt.state, expected) <= 1e-10

    def test_swap_steps_feed_input_forward(self):
        swap = swap_unitary(2)
        pt = build_from_circuit(
            CircuitProcessSpec(
                n=2, d=2, env_state=maximally_mixed(2), unitaries=(swap, swap)
            )
        )
        # first output maximally mixed, second output carries the first input
        o1 = partial_trace(pt.state, (1,))
        assert trace_distance(o1, maximally_mixed(2)) <= 1e-10
        i0_o2 = partial_trace(pt.state, (0, 3))
        assert trace_distance(i0_o2, max_entangled_state(2)) <= 1e-10

    @pytest.mark.parametrize(
        "n, d, d_env", [(1, 2, 3), (1, 3, 3), (2, 2, 3), (2, 3, 2), (3, 2, 2)]
    )
    def test_matches_dense_simulation(self, rng, n, d, d_env):
        spec = random_circuit_spec(rng, n=n, d=d, d_env=d_env)
        pt = build_from_circuit(spec)
        assert np.max(np.abs(pt.state.mat - dense_circuit_choi(spec))) <= 1e-12

    def test_choi_state_is_simulated_on_first_use(self, monkeypatch):
        simulated = []
        real = proctensor.processes._choi_state
        monkeypatch.setattr(
            proctensor.processes, "_choi_state",
            lambda d, us, psi: simulated.append(us) or real(d, us, psi),
        )
        pt = random_process(RandomSpec(n=3, d=2, d_env=4, seed=0))
        assert pt.causality.bounds  # certified: the build simulated nothing
        assert simulated == []
        state = pt.state
        assert pt.state is state
        assert len(simulated) == 1 and simulated[0] is pt.spec.unitaries

    def test_choi_state_beyond_the_cap_fails_before_it_allocates(self):
        # n = 12 builds from its transfer; its Choi state would need a
        # working dimension of 2^26.
        pt = swap_chain_process(12, 2)
        tracemalloc.start()
        try:
            with pytest.raises(DimensionLimitError, match="exceeds dense limit"):
                pt.state
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 200])
    def test_certified_build_calls_no_qr(self, monkeypatch, n):
        # At d = 2, d_env = 4 the carried factor (16 rows) would outgrow 16
        # columns in step 3; from there the transfer carries the state
        # itself, so no step is cut by a QR, and the report still adds up.
        spec = seeded_circuit_spec(n, 2, 4, 0, "maximally-mixed")
        real, shapes = np.linalg.qr, []
        monkeypatch.setattr(np.linalg, "qr", lambda a, mode: shapes.append(a.shape) or real(a, mode=mode))
        pt = build_from_circuit(spec)
        assert pt.causality.bounds and shapes == []
        assert correlation_report(pt).additivity_residual <= 1e-12

    def test_leaky_transfer_names_the_unitary(self):
        # Four steps, each about 5.4e-11 off unitary, move the trace of the
        # final transfer state, which is that of the Choi state, by 1.2e-10.
        # The message names the argmax of the unitarity residuals.
        spec = seeded_circuit_spec(4, 2, 1, 0, "maximally-mixed", leak=2.7e-11)
        with pytest.raises(NotAStateError, match="factor trace") as info:
            build_from_circuit(spec)
        assert leak_named(unitarity_residual(np.array(spec.unitaries))) in str(info.value)

    def test_leaky_simulation_names_the_unitary_of_the_transfer(self):
        # The dense simulation of the same circuit fails its trace too, and
        # its message names the same unitary with the same figure.
        spec = seeded_circuit_spec(4, 2, 1, 0, "maximally-mixed", leak=2.7e-11)
        with pytest.raises(NotAStateError, match="factor trace") as info:
            proctensor.processes._choi_state(spec.d, spec.unitaries, spec.env_state.factor)
        assert leak_named(unitarity_residual(np.array(spec.unitaries))) in str(info.value)

    def test_unitary_count_mismatch(self, rng):
        env = random_density(rng, (2,))
        with pytest.raises(ValueError):
            CircuitProcessSpec(n=2, d=2, env_state=env, unitaries=(np.eye(4),))

    def test_non_unitary_rejected(self, rng):
        env = random_density(rng, (2,))
        with pytest.raises(ValueError):
            CircuitProcessSpec(n=1, d=2, env_state=env, unitaries=(np.ones((4, 4)),))

    def test_nan_unitarity_residual_fails(self):
        with pytest.raises(ValueError, match="^unitary 1 unitarity residual nan$"):
            proctensor.processes._check_unitarity(np.array([[0.0, math.nan]]))

    def test_specs_compare_by_identity(self):
        # equal env_state objects made the field-wise comparison reach the
        # unitaries, whose arrays have no single truth value
        env = maximally_mixed(2)
        a = CircuitProcessSpec(n=1, d=2, env_state=env, unitaries=(np.eye(4),))
        b = CircuitProcessSpec(n=1, d=2, env_state=env, unitaries=(swap_unitary(2),))
        assert (a == b) is False
        assert a == a


class TestCausalityReport:
    def test_verdict_is_not_stored(self):
        assert [f.name for f in dataclasses.fields(CausalityReport)] == [
            "residuals", "tol", "bounds"
        ]
        assert not hasattr(CausalityReport, "judge")

    def test_base_residual_is_level_one(self):
        report = CausalityReport((3e-12, 7e-12, 1e-12), 1e-9)
        assert report.base_residual == 3e-12 and not report.bounds

    def test_bounds_is_keyword_only(self):
        # A stale call with a separate base residual would otherwise be read
        # with the base as the tolerance.
        with pytest.raises(TypeError):
            CausalityReport((0.25, 0.25), 0.25, 1e-9)
        assert CausalityReport((0.25,), 1e-9, bounds=True).bounds

    @pytest.mark.parametrize("residuals", [(1e-12, 3e-12, 7e-12), (7e-12, 3e-12, 1e-12)])
    def test_replaced_tol_flips_passed_exactly_at_the_worst_residual(self, residuals):
        report = CausalityReport(residuals, 0.0)
        assert report.worst == 7e-12 and not report.passed
        assert dataclasses.replace(report, tol=7e-12).passed
        assert not dataclasses.replace(report, tol=math.nextafter(7e-12, 0.0)).passed
        assert dataclasses.replace(report, tol=1.0).residuals == residuals

    def test_carried_generic_report_is_rejudged_by_replace(self):
        pt = ProcessTensor.from_state(random_process(RandomSpec(3, 2, 4, 0)).state)
        worst = pt.causality.worst
        for tol in (0.0, math.nextafter(worst, 0.0), worst, 1e-9):
            rejudged = dataclasses.replace(pt.causality, tol=tol)
            assert rejudged == verify_causality(pt.state, tol)
            assert rejudged.passed == (worst <= tol)

    @pytest.mark.parametrize("residuals", [(math.nan, 0.0), (0.0, math.nan)])
    def test_nan_residual_fails(self, residuals):
        for tol in (0.0, 1.0, math.inf):
            assert not CausalityReport(residuals, tol).passed

    def test_reports_with_equal_fields_compare_equal(self):
        a = CausalityReport((1e-12, 2e-12), 1e-9, bounds=True)
        b = CausalityReport((1e-12, 2e-12), 1e-9, bounds=True)
        assert a == b and hash(a) == hash(b)
        assert a != dataclasses.replace(a, tol=0.0)
        assert a != dataclasses.replace(a, bounds=False)
        state = random_process(RandomSpec(2, 2, 2, 5)).state
        assert verify_causality(state, 0.0) == verify_causality(state, 0.0)


class TestVerifyCausality:
    def test_circuit_output_passes(self, rng):
        for n in (1, 2, 3):
            pt = build_from_circuit(random_circuit_spec(rng, n=n))
            assert verify_causality(pt.state).passed

    def test_cross_step_entangled_state_fails(self):
        # maximally entangled across the (step 1):(step 2) bipartition
        phi4 = max_entangled_state(4)
        state = permute_subsystems(
            DensityMatrix(phi4.mat, (2, 2, 2, 2)), (0, 1, 2, 3)
        )
        report = verify_causality(state)
        assert not report.passed
        with pytest.raises(ValueError):
            ProcessTensor.from_state(state)

    def test_causality_error_carries_failed_report(self):
        phi4 = max_entangled_state(4)
        state = DensityMatrix(phi4.mat, (2, 2, 2, 2))
        with pytest.raises(CausalityError) as info:
            ProcessTensor.from_state(state)
        report = info.value.report
        assert not report.passed
        assert report == verify_causality(state)

    def test_report_is_carried_with_the_build_tolerance(self, rng):
        spec = random_circuit_spec(rng, n=2)
        pt = build_from_circuit(spec, tol_causal=1e-6)
        assert pt.causality.tol == 1e-6 and pt.causality.passed
        with pytest.raises(CausalityError) as info:
            build_from_circuit(spec, tol_causal=0.0)
        assert not info.value.report.bounds
        assert_same_verdict(info.value.report, verify_causality(pt.state, 0.0))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 4),
        d_env=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        env_init=st.sampled_from(["maximally-mixed", "pure-ground", "seeded-random"]),
        tol=st.floats(0.0, 1e-6),
    )
    def test_carried_report_matches_fresh_check(self, n, d_env, seed, env_init, tol):
        built = random_process(RandomSpec(n=n, d=2, d_env=d_env, seed=seed, env_init=env_init))
        pt = ProcessTensor.from_state(built.state)
        carried, fresh = dataclasses.replace(pt.causality, tol=tol), verify_causality(pt.state, tol)
        assert carried.residuals == fresh.residuals
        assert carried.tol == fresh.tol == tol
        assert carried.passed == fresh.passed

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 5),
        d=st.integers(2, 3),
        d_env=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        env_init=st.sampled_from(["maximally-mixed", "pure-ground", "seeded-random"]),
        leak=st.one_of(st.just(0.0), st.floats(1e-13, 3e-11)),
        spread=st.booleans(),
        env_shift=st.one_of(st.just(0.0), st.floats(-9e-11, 9e-11)),
        tol=st.one_of(st.floats(0.0, 1e-6), st.floats(0.0, 1e-9)),
    )
    def test_certificate_dominates_generic_residuals(
        self, n, d, d_env, seed, env_init, leak, spread, env_shift, tol
    ):
        # n = 5 at d = 3 is left out: its generic check eigensolves 2187-sided
        # dense matrices. Leaky unitaries and environments of trace off 1 put
        # the certificate and the generic residuals near the tolerances drawn
        # from [0, 1e-9]. Spread leaks are diagonal, where the Frobenius
        # residual is furthest above the operator norm.
        assume(d ** (2 * n) <= 3**8)
        spec = seeded_circuit_spec(n, d, d_env, seed, env_init, leak, 1.0 + env_shift, spread)
        try:
            pt = build_from_circuit(spec, 1.0)
        except NotAStateError:
            # the leaks moved the trace of the Choi state beyond DEFAULT_TOL.tr
            assume(False)
        certificate, generic = pt.causality, verify_causality(pt.state, tol)
        assert certificate.bounds
        for g, c in zip(generic.residuals, certificate.residuals, strict=True):
            assert g <= c + 1e-14
        try:
            carried = build_from_circuit(spec, tol).causality
        except CausalityError as exc:
            carried = exc.report
        assert carried.tol == tol
        if not carried.bounds:
            # The exact route rounds apart from the dense one by up to 1e-15,
            # so the verdicts may differ only for a tol that close to a residual.
            for c, g in zip(carried.residuals, generic.residuals, strict=True):
                assert abs(c - g) <= 1e-15
        if carried.bounds or all(abs(g - tol) > 1e-15 for g in generic.residuals):
            assert carried.passed == generic.passed

    def test_certificate_counts_the_environment_trace(self):
        # Exact unitaries on an environment of trace 1 + 9e-11: the base
        # residual is |tr env - 1| / 2 = 4.5e-11, which the certificate
        # carries, so both routes fail at 1e-11 with the generic report.
        cnot = np.eye(4)[[0, 1, 3, 2]]
        env = DensityMatrix(np.diag([0.5 + 9e-11, 0.5]), (2,))
        spec = CircuitProcessSpec(n=2, d=2, env_state=env, unitaries=(cnot, swap_unitary(2)))
        loose = build_from_circuit(spec, 1.0)
        generic = verify_causality(loose.state, 1e-11)
        assert not generic.passed
        assert generic.base_residual == pytest.approx(4.5e-11, rel=1e-5)
        assert generic.base_residual <= loose.causality.base_residual + 1e-14
        with pytest.raises(CausalityError) as info:
            build_from_circuit(spec, 1e-11)
        assert_same_verdict(info.value.report, generic)

    def test_carried_bounds_defer_to_the_generic_hierarchy(self):
        # The carried certificate (2.5e-15, from the Frobenius norms of
        # U^dag U - I) exceeds the exact residuals (2.2e-16) of this process;
        # at a tolerance between the two the exact hierarchy passes and
        # decides.
        pt = random_process(RandomSpec(n=3, d=2, d_env=4, seed=0))
        generic = verify_causality(pt.state, 5e-16)
        assert generic.passed
        assert pt.causality.worst > 5e-16
        exact = build_from_circuit(pt.spec, 5e-16).causality
        assert not exact.bounds
        assert_same_verdict(exact, generic)

    def test_carried_generic_residuals_are_rejudged_without_recomputing(self, monkeypatch):
        built = random_process(RandomSpec(n=3, d=2, d_env=4, seed=0))
        assert built.causality.bounds
        fresh = verify_causality(built.state, 0.0)
        chains = []
        real = proctensor.processes._level_residuals
        monkeypatch.setattr(
            proctensor.processes, "_level_residuals", lambda c, d: chains.append(c) or real(c, d)
        )
        pt = ProcessTensor.from_state(built.state)
        assert not pt.causality.bounds and len(chains) == 1
        assert dataclasses.replace(pt.causality, tol=0.0) == fresh
        assert len(chains) == 1

    def test_generic_hierarchy_decides_when_the_bounds_fail(self):
        # Unitaries about 1e-10 off unitary leak at every level. The
        # certificate charges each level the Frobenius norm, an upper bound
        # on the operator norm, of every later unitary's U^dag U - I
        # (2.7e-10 at worst against a generic 2.7e-11), so a tolerance
        # between the two worst values fails the certificate and passes the
        # generic hierarchy.
        rng = np.random.default_rng(145)
        n, d, d_env = 3, 2, 2
        us = tuple(leaky_unitary(haar_unitary(4, rng), 5e-11, rng) for _ in range(n))
        spec = CircuitProcessSpec(n=n, d=d, env_state=maximally_mixed(d_env), unitaries=us)
        loose = build_from_circuit(spec, 1.0)
        fresh = verify_causality(loose.state, 1.0)
        for g, b in zip(fresh.residuals, loose.causality.residuals, strict=True):
            assert g <= b
        bound, generic = loose.causality.worst, fresh.worst
        assert 1e-12 < generic < bound
        tol = (generic + bound) / 2
        pt = build_from_circuit(spec, tol)
        assert_same_verdict(pt.causality, verify_causality(pt.state, tol))
        assert pt.causality.worst < tol < bound

    @pytest.mark.parametrize("n, d", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3)])
    @pytest.mark.parametrize("kind", ["causal", "non-causal", "rank-deficient"])
    def test_matches_a_dense_formula(self, rng, n, d, kind):
        # The reference traces slots from the dense matrix with einsum and
        # takes the spectrum of each level's difference; rho_0 (x) I/d is I/d.
        if kind == "causal":
            state = random_process(RandomSpec(n, d, 2, int(rng.integers(1000)), "seeded-random")).state
        else:
            state = random_density(rng, (d,) * (2 * n), rank=None if kind == "non-causal" else 3)
        mat = state.mat

        def marginal(m, side):  # trace all but the first ``side`` rows' slots
            rest = m.shape[0] // side
            return np.einsum("aibi->ab", m.reshape(side, rest, side, rest))

        expected = []
        for j in range(1, n + 1):
            lhs = marginal(mat, d ** (2 * j - 1))
            rhs = np.kron(marginal(mat, d ** (2 * j - 2)), np.eye(d) / d) if j > 1 else np.eye(d) / d
            expected.append(0.5 * np.sum(np.abs(np.linalg.eigvalsh(lhs - rhs))))
        report = verify_causality(state, 0.0)
        assert np.max(np.abs(np.array(report.residuals) - expected)) <= 1e-12
        if kind == "causal":
            assert report.worst <= 1e-12
        elif kind == "non-causal":
            assert report.worst > 1e-3

    def test_all_maximally_mixed_passes(self):
        state = maximally_mixed((2, 2, 2, 2))
        assert verify_causality(state).passed

    def test_first_input_marginal_is_mixed(self, rng):
        pt = build_from_circuit(random_circuit_spec(rng, n=2, d_env=3))
        i0 = partial_trace(pt.state, (0,))
        assert trace_distance(i0, maximally_mixed(2)) <= 1e-9


class TestNmDepolarizingProcess:
    def test_invalid_p(self):
        with pytest.raises(ValueError):
            fredkin_spec(-0.1, 2, 2)

    def test_step_marginals_are_depolarizing(self):
        # each step marginal fits the depolarizing family for some p_eff
        phi = max_entangled_state(2)
        for p in (0.0, 0.3, 0.7, 1.0):
            proc = build_from_circuit(fredkin_spec(p, 2, 2))
            for pair in ((0, 1), (2, 3)):
                marg = partial_trace(proc.state, pair)
                overlap = float(np.real(np.trace(phi.mat @ marg.mat)))
                p_eff = (1.0 - overlap) / (1.0 - 1.0 / 4.0)
                p_eff = min(max(p_eff, 0.0), 1.0)
                fit = depolarizing_choi(2, p_eff)
                assert trace_distance(marg, fit.state) <= 1e-8

    def test_first_step_matches_single_fredkin(self):
        for p in (0.2, 0.8):
            proc = build_from_circuit(fredkin_spec(p, 2, 2))
            first = partial_trace(proc.state, (0, 1))
            assert trace_distance(first, depolarizing_choi(2, p).state) <= 1e-9


class TestFredkinEnv:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
    def test_factor_of_the_control_and_target(self, monkeypatch, d, p):
        # One factor shape at every p, zero columns kept, so a p-grid builds as
        # one stack; no eigendecomposition gives the factor.
        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        env = fredkin_spec(p, 1, d).env_state
        assert env.factor.shape == (2 * d, 2 * d)
        want = kron(np.diag([1.0 - p, p]), np.eye(d) / d)
        assert np.max(np.abs(env.mat - want)) <= 1e-15
        assert env.trace == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_p_outside_the_unit_interval(self, d, p):
        with pytest.raises(ValueError, match=rf"^p must lie in \[0, 1\], got {p}$"):
            fredkin_spec(p, 1, d)


class TestSwapChainProcess:
    def test_matches_circuit_construction(self):
        for n, d in ((2, 2), (3, 2), (2, 3)):
            direct = swap_chain_process(n, d)
            spec = CircuitProcessSpec(
                n=n, d=d, env_state=maximally_mixed(d), unitaries=(swap_unitary(d),) * n
            )
            assert np.max(np.abs(direct.state.mat - dense_circuit_choi(spec))) <= 1e-9

    def test_equals_nm_depolarizing_at_p_one(self):
        a = swap_chain_process(2, 2)
        b = build_from_circuit(fredkin_spec(1.0, 2, 2))
        assert np.max(np.abs(a.state.mat - b.state.mat)) <= 1e-9

    def test_causality(self):
        assert verify_causality(swap_chain_process(3, 2).state).passed

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            swap_chain_process(1, 2)

    @pytest.mark.parametrize("n, d, message", [
        (1, 2, "n must be >= 2, got 1"), (0, 2, "n must be >= 1, got 0"),
        (2, 1, "d must be >= 2, got 1"), (2, 0, "d must be >= 2, got 0"),
        (2, -1, "d must be >= 2, got -1"),
    ])
    @pytest.mark.filterwarnings("error")
    def test_refusals_name_the_slot_fact(self, n, d, message):
        # (n, d) are checked before the environment or a unitary is formed,
        # with the messages of ``CircuitProcessSpec``; n = 1 is no chain.
        with pytest.raises(ValueError, match=f"^{message}$"):
            swap_chain_process(n, d)


class TestCnotSwapProcess:
    def test_choi_structure(self):
        proc = cnot_swap_process()
        # expected: tripartite GHZ-type state on (i_0, o_1, o_2), mixed i_1
        v = np.zeros(8)
        v[0] = v[7] = 1.0 / math.sqrt(2)
        ghz = np.outer(v, v)
        built = DensityMatrix(kron(ghz, np.eye(2) / 2), (2, 2, 2, 2))
        expected = permute_subsystems(built, (0, 1, 3, 2))
        assert trace_distance(proc.state, expected) <= 1e-9

    def test_causality(self):
        assert verify_causality(cnot_swap_process().state).passed


def loop_swap(d: int) -> np.ndarray:
    """SWAP of two d-dimensional factors, entry by entry: the oracle of ``swap_unitary``."""
    s = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            s[i * d + j, j * d + i] = 1.0
    return s


def loop_fredkin(d: int) -> np.ndarray:
    """Fredkin gate on (system, control, target), entry by entry: ``fredkin_unitary``'s oracle."""
    dim = d * 2 * d
    u = np.zeros((dim, dim))
    for s in range(d):
        for t in range(d):
            u[(s * 2 + 0) * d + t, (s * 2 + 0) * d + t] = 1.0
            u[(t * 2 + 1) * d + s, (s * 2 + 1) * d + t] = 1.0
    return u


CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float)


class TestNamedGates:
    """The permutation gates against their entry-by-entry constructions."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_gates_equal_their_loops(self, d):
        for got, want in ((swap_unitary(d), loop_swap(d)), (fredkin_unitary(d), loop_fredkin(d))):
            assert got.dtype == np.float64
            assert np.array_equal(got, want)

    def test_named_processes_save_the_oracle_bytes(self, tmp_path):
        p = 0.3
        fredkin_env = DensityMatrix(kron(np.diag([1.0 - p, p]), np.eye(2) / 2), (2, 2))
        pairs = [
            (cnot_swap_process(), CircuitProcessSpec(
                n=2, d=2, env_state=DensityMatrix(np.diag([1.0, 0.0]), (2,)),
                unitaries=(CNOT, loop_swap(2)))),
            (swap_chain_process(3, 2), CircuitProcessSpec(
                n=3, d=2, env_state=maximally_mixed(2), unitaries=(loop_swap(2),) * 3)),
            (build_from_circuit(fredkin_spec(p, 2, 2)), CircuitProcessSpec(
                n=2, d=2, env_state=fredkin_env, unitaries=(loop_fredkin(2),) * 2)),
        ]
        for k, (named, spec) in enumerate(pairs):
            got, want = tmp_path / f"got{k}.choi", tmp_path / f"want{k}.choi"
            save_choi(named.state, got)
            save_choi(build_from_circuit(spec).state, want)
            assert got.read_bytes() == want.read_bytes(), k


class TestSpecRefusals:
    @pytest.mark.parametrize("n, d, message", [
        (0, 2, "n must be >= 1, got 0"), (1, 1, "d must be >= 2, got 1"),
    ])
    def test_circuit_spec_below_one_step_or_two_levels(self, n, d, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            CircuitProcessSpec(n=n, d=d, env_state=maximally_mixed(2), unitaries=())

    def test_unknown_env_init(self):
        with pytest.raises(ValueError, match="^unknown env_init 'thermal'$"):
            random_env(np.random.default_rng(0), 2, "thermal")


class TestHaarUnitary:
    def test_unitarity(self, rng):
        for dim in (1, 2, 5):
            u = haar_unitary(dim, rng)
            assert np.max(np.abs(u @ u.conj().T - np.eye(dim))) <= 1e-9

    def test_dim_one_is_phase(self):
        u = haar_unitary(1, 3)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    def test_dim_below_one_refused(self):
        with pytest.raises(ValueError, match="^dim must be >= 1, got 0$"):
            haar_unitary(0, 3)

    def test_first_entry_moment(self):
        # Haar moment: E|U_00|^2 = 1/dim
        rng = np.random.default_rng(99)
        dim, samples = 4, 10_000
        vals = np.array([abs(haar_unitary(dim, rng)[0, 0]) ** 2 for _ in range(samples)])
        se = vals.std(ddof=1) / math.sqrt(samples)
        assert abs(vals.mean() - 1.0 / dim) <= 3 * se


class TestRandomProcess:
    @pytest.mark.parametrize("env_init", ["bogus", "thermal", "", None])
    def test_unknown_env_init_refused_where_the_spec_is_made(self, env_init):
        # It was refused only once a sample was drawn (``random_env``).
        with pytest.raises(ValueError) as info:
            RandomSpec(2, 2, 2, 0, env_init=env_init)
        assert str(info.value) == (
            "env_init must be one of maximally-mixed, pure-ground, seeded-random, "
            f"got {env_init!r}"
        )

    def test_deterministic(self):
        spec = RandomSpec(n=2, d=2, d_env=3, seed=11, env_init="seeded-random")
        a = random_process(spec)
        b = random_process(spec)
        assert np.array_equal(a.state.mat, b.state.mat)

    def test_unit_trace(self):
        pt = random_process(RandomSpec(n=3, d=2, d_env=4, seed=5))
        assert abs(np.trace(pt.state.mat) - 1.0) <= 1e-10

    @pytest.mark.parametrize("env_init", ["maximally-mixed", "pure-ground", "seeded-random"])
    def test_env_variants_pass_causality(self, env_init):
        pt = random_process(RandomSpec(n=2, d=2, d_env=3, seed=2, env_init=env_init))
        assert verify_causality(pt.state).passed

    def test_batch_causality(self):
        for k in range(20):
            pt = random_process(RandomSpec(n=3, d=2, d_env=4, seed=1000 + k))
            assert verify_causality(pt.state).passed


def inline_haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar unitary drawn alone, as ``haar_unitary`` drew it before draws were stacked."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    z /= math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


class TestRandomProcesses:
    """Stacked builds of consecutive seeds; drawing and building one at a time is the oracle."""

    @pytest.mark.parametrize(
        "n, d, d_env, env_init",
        [(3, 2, 4, "maximally-mixed"), (2, 3, 2, "seeded-random"), (1, 2, 1, "pure-ground")],
    )
    def test_stacked_draws_match_one_matrix_at_a_time(self, n, d, d_env, env_init):
        spec = RandomSpec(n=n, d=d, d_env=d_env, seed=7, env_init=env_init)
        us, env = proctensor.processes._random_circuits(spec, 300)
        for k in range(300):
            rng = np.random.default_rng(7 + k)
            assert np.array_equal(env[k], random_env(rng, d_env, env_init))
            for j in range(n):
                assert np.array_equal(us[k, j], inline_haar_unitary(d * d_env, rng))

    def test_haar_unitary_matches_one_matrix_at_a_time(self):
        for seed in range(300):
            expected = inline_haar_unitary(6, np.random.default_rng(seed))
            assert np.array_equal(haar_unitary(6, seed), expected)

    @pytest.mark.parametrize("env_init", ["maximally-mixed", "pure-ground", "seeded-random"])
    def test_causality_matches_one_build_per_seed(self, env_init):
        spec = RandomSpec(n=3, d=2, d_env=3, seed=40, env_init=env_init)
        outcomes = [report_of(residuals, certified, k, DEFAULT_TOL.causal)
                    for _, residuals, certified in random_processes(spec, 20)
                    for k in range(len(residuals))]
        assert len(outcomes) == 20
        for k, report in enumerate(outcomes):
            alone = random_process(RandomSpec(3, 2, 3, 40 + k, env_init)).causality
            assert report.passed and report.bounds
            assert report.residuals == pytest.approx(alone.residuals, rel=1e-12, abs=0.0)
            assert report.base_residual == pytest.approx(alone.base_residual, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "spoil, error, message",
        [
            # samples 2 and 4 leak trace beyond DEFAULT_TOL.tr, sample 2 less;
            # the message names sample 2's leakiest unitary (``leak_named``)
            ({2: (slice(None), 4e-11), 4: (slice(None), 8e-11)}, NotAStateError,
             r"factor trace .* the unitaries leak trace, unitary \d the most"),
            # samples 1 and 3 fail the unitarity check, at unitaries 0 and 2
            ({1: (0, 1e-6), 3: (2, 1e-6)}, ValueError, "unitary 0 unitarity residual"),
        ],
    )
    def test_first_failing_sample_in_seed_order_raises(self, monkeypatch, spoil, error, message):
        real = proctensor.processes._random_circuits
        drawn = []

        def spoiled(spec, count):
            us, env = real(spec, count)
            us = us.copy()
            for k, (j, scale) in spoil.items():
                us[k, j] *= 1.0 + scale
            drawn.append(us)
            return us, env

        monkeypatch.setattr(proctensor.processes, "_random_circuits", spoiled)
        with pytest.raises(error, match=message) as info:
            list(random_processes(RandomSpec(n=3, d=2, d_env=1, seed=0), 6))
        if error is NotAStateError:
            assert leak_named(unitarity_residual(drawn[0][2])) in str(info.value)

    @pytest.mark.parametrize("env_init", ["maximally-mixed", "pure-ground", "seeded-random"])
    def test_stack_peak_memory_fits_the_budget(self, env_init):
        # ``_draw_bytes`` bounds what a sample holds outside ``_transfer`` from
        # above, and ``_sample_bytes`` what it holds in a transfer slice, so the
        # largest stack ``random_processes`` builds fits ``_STACK_BYTES`` whole:
        # its draw, the arrays it holds, every transfer slice and its audit.
        # Only a stack of one may exceed it, where one sample's transfer does.
        sliced = 0
        for n, d, d_env in itertools.product((1, 2, 3, 5, 8, 20), (2, 3), (1, 2, 4, 8)):
            spec = RandomSpec(n=n, d=d, d_env=d_env, seed=11, env_init=env_init)
            size = proctensor.processes._stack_size(n, d, d_env)
            sliced += proctensor.processes._slice_size(size, n, d, d_env) < size
            list(random_processes(spec, 1))  # lazy imports and first-call set-up
            tracemalloc.start()
            try:
                for transfer, residuals, _ in random_processes(spec, size):
                    passed = causality_holds(residuals)
                    bound_slacks(*(q[passed] for q in transfer_quantities(transfer)), d)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(residuals) == size
            assert peak <= _STACK_BYTES or size == 1, (n, d, d_env, size, peak)
        assert sliced >= 40  # of the 48 shapes

    @pytest.mark.parametrize("n, d, d_env", [(3, 2, 4), (2, 3, 2), (20, 2, 2), (5, 2, 8)])
    def test_given_stack_peak_memory_fits_the_budget(self, n, d, d_env):
        # ``build_stack`` on circuits given whole, as many as a planned stack
        # holds: its transfer runs in several slices, within the budget.
        size = proctensor.processes._stack_size(n, d, d_env)
        spec = RandomSpec(n, d, d_env, 3, "seeded-random")
        us, env = proctensor.processes._random_circuits(spec, size)
        assert proctensor.processes._slice_size(size, n, d, d_env) < size  # several slices
        build_stack(us[:1], env[:1])  # first-call set-up
        tracemalloc.start()
        try:
            _, residuals, _ = build_stack(us, env)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(residuals) == size
        assert peak <= _STACK_BYTES, (size, peak)

    @pytest.mark.parametrize("source, n, d, d_env", [
        ("random", 3, 2, 4), ("random", 1, 2, 1), ("random", 2, 2, 4), ("random", 8, 2, 8),
        ("random", 5, 3, 8), ("fredkin", 1, 2, 4), ("fredkin", 1, 4, 8), ("fredkin", 2, 2, 4),
    ])
    def test_stacks_are_the_fewest_near_equal_stacks(self, monkeypatch, source, n, d, d_env):
        # Both sources run one plan: the fewest stacks of at most ``_stack_size``
        # samples, their sizes differing by at most one, in order.
        stacks, _ = record_plan(monkeypatch)
        size = proctensor.processes._stack_size(n, d, d_env)
        for count in (1, 2, size, size + 1, 2 * size + 1, 3 * size - 1):
            if source == "random":
                built = random_processes(RandomSpec(n=n, d=d, d_env=d_env, seed=5), count)
            else:
                built = fredkin_processes([k / count for k in range(count)], n, d)
            assert sum(len(residuals) for _, residuals, _ in built) == count
            assert stacks == near_equal(count, size)
            stacks.clear()

    def test_first_stack_of_a_huge_count_holds_no_plan(self):
        # Planning 3e7 samples as a list of slices traced about 115 MB before
        # the first stack was drawn; the first stack alone fits ``_STACK_BYTES``.
        spec = RandomSpec(n=3, d=2, d_env=4, seed=0)
        list(random_processes(spec, 1))  # lazy imports and first-call set-up
        tracemalloc.start()
        try:
            stacks = random_processes(spec, 3 * 10**7)
            _, residuals, _ = next(stacks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stacks.close()
        assert residuals.shape == (104, 3)  # 3e7 samples in 285715 stacks of 104 or 105
        assert peak < 4 * 2**20


# Seeds that start a stack: 0..2000, 50 either side of each 32-bit word boundary up to 2^128,
# and one with a fifth word. A stack of 100 then reaches 99 past each.
STACK_STARTS = [
    *range(2001),
    *(start for w in (1, 2, 3, 4) for start in range(2 ** (32 * w) - 50, 2 ** (32 * w) + 51)),
    2**130,
]


class TestSeededGenerators:
    """One ``_seed_states`` pass per stack seeds its generators; ``default_rng`` per seed is the oracle."""

    @pytest.fixture(scope="class")
    def oracle(self):
        """Per seed, ``default_rng(seed)``'s state and its first 64 standard normals."""
        seeds = {start + k for start in STACK_STARTS for k in range(100)}
        table = {}
        for seed in seeds:
            rng = np.random.default_rng(seed)
            table[seed] = rng.bit_generator.state, rng.standard_normal(64)
        return table

    @pytest.mark.parametrize("count", [1, 7, 8, 9, 34, 100])
    def test_states_and_draws_equal_default_rng(self, oracle, count):
        for start in STACK_STARTS:
            rngs = proctensor.processes._generators(start, count)
            assert len(rngs) == count
            for k, rng in enumerate(rngs):
                state, draws = oracle[start + k]
                assert rng.bit_generator.state == state, (start, k)
                assert np.array_equal(rng.standard_normal(64), draws), (start, k)

    @pytest.mark.parametrize("start, count, calls", [
        (0, 1, 1), (0, 7, 7), (2**32 - 3, 7, 7), (2**128 - 7, 7, 7),
        (0, 8, 0), (5, 9, 0), (2**32 - 20, 34, 0), (2**64 - 5, 100, 0), (2**128 - 8, 8, 0),
        (2**128 - 7, 8, 8), (2**128 - 50, 100, 100), (2**130, 34, 34),
    ])
    def test_route_by_stack_size_and_seed(self, monkeypatch, start, count, calls):
        # Stacks of 8 or more seeds below 2^128 take one pass; any other takes
        # default_rng per seed.
        made = []
        default_rng = np.random.default_rng

        def counting(seed):
            made.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counting)
        spec = RandomSpec(n=1, d=2, d_env=2, seed=start, env_init="seeded-random")
        _, env = proctensor.processes._random_circuits(spec, count)
        assert len(env) == count
        assert made == list(range(start, start + calls))


def leak_named(residuals):
    """The leak message's naming of the unitary of the largest of these unitarity ``residuals``."""
    j = int(np.argmax(residuals))
    return f"leak trace, unitary {j} the most (unitarity residual {residuals[j]:.3e})"


def stack_of(specs):
    """``build_stack``'s arguments for a list of specs that share one environment factor shape."""
    return np.array([s.unitaries for s in specs]), np.array([s.env_state.factor for s in specs])


def report_of(residuals, certified, k, tol):
    """Row k of a stack's verdict as the ``CausalityReport`` of sample k built alone at ``tol``."""
    return CausalityReport(tuple(residuals[k].tolist()), tol, bounds=bool(certified[k]))


class TestCausalityHolds:
    """The one rule a row of hierarchy residuals is judged by: each at most tol, a NaN failing."""

    @pytest.mark.parametrize("tol", [0.0, 2e-11, 1e-9, 1.0])
    def test_a_residual_at_tol_holds_and_the_next_float_fails(self, tol):
        above = np.nextafter(tol, math.inf)
        rows = np.array([[0.0, tol, tol], [tol, above, 0.0], [np.nan, 0.0, 0.0], [tol, tol, tol],
                         [0.0, 0.0, np.nan]])
        verdicts = [True, False, False, True, False]
        assert causality_holds(rows, tol).tolist() == verdicts
        for row, verdict in zip(rows, verdicts):
            assert causality_holds(row[None], tol).tolist() == [verdict]
            assert bool(causality_holds(row, tol)) is verdict
            assert CausalityReport(tuple(row.tolist()), tol).passed is verdict

    def test_default_is_the_causal_tolerance_at_the_call(self):
        rows = np.array([[DEFAULT_TOL.causal, 0.0], [0.0, 0.0]])
        assert causality_holds(rows).tolist() == [True, True]
        with causal_tol(0.0):
            assert causality_holds(rows).tolist() == [False, True]
        assert causality_holds(rows).tolist() == [True, True]

    def test_stacks_take_no_tolerance(self):
        # They are built and judged at DEFAULT_TOL.causal, the default of the row rule.
        assert list(inspect.signature(proctensor.processes.build_stack).parameters) == [
            "unitaries", "env"]
        assert list(inspect.signature(random_processes).parameters) == ["spec", "count"]


class TestBuildStack:
    """Stacks of given circuits; ``build_from_circuit`` on each circuit alone is the oracle."""

    @staticmethod
    def mixed_specs():
        # At 2e-11: exact Haar circuits, whose certificates pass; a circuit
        # about 2e-11 off unitary, whose certificate (5.8e-11) cannot decide
        # and whose generic residuals (at most 5.0e-12) pass; and an
        # environment of trace 1 + 9e-11, whose base residual of 4.5e-11
        # fails the generic hierarchy.
        return [
            seeded_circuit_spec(3, 2, 2, 0, "maximally-mixed"),
            seeded_circuit_spec(3, 2, 2, 145, "maximally-mixed", leak=1e-11),
            seeded_circuit_spec(3, 2, 2, 1, "maximally-mixed"),
            seeded_circuit_spec(3, 2, 2, 2, "maximally-mixed", env_trace=1.0 + 9e-11),
            seeded_circuit_spec(3, 2, 2, 3, "maximally-mixed"),
        ]

    @pytest.mark.parametrize("tol", [0.0, 2e-11, 1e-9, 1.0])
    def test_outcomes_match_one_build_per_circuit(self, tol):
        specs = self.mixed_specs()
        with causal_tol(tol):
            transfer, residuals, certified = proctensor.processes.build_stack(*stack_of(specs))
        assert residuals.shape == (len(specs), 3) and certified.shape == (len(specs),)
        kinds = []
        for k, spec in enumerate(specs):
            outcome = report_of(residuals, certified, k, tol)
            try:
                alone = build_from_circuit(spec, tol)
            except CausalityError as exc:
                assert not outcome.passed
                assert outcome == exc.report
                kinds.append("failed")
                continue
            assert outcome == alone.causality
            kinds.append("certified" if outcome.bounds else "generic")
            for field in ("steps", "entropy"):
                got, want = getattr(transfer, field)[k], getattr(alone.transfer, field)[0]
                assert np.max(np.abs(got - want)) <= 1e-12
        if tol == 2e-11:
            assert kinds == ["certified", "generic", "certified", "failed", "certified"]
        if tol == 0.0:
            assert "certified" not in kinds

    @pytest.mark.parametrize("env_init", ["maximally-mixed", "pure-ground", "seeded-random"])
    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("tol", [0.0, 2e-11, 1e-9, 1.0])
    def test_rows_are_each_circuits_verdict_bit_for_bit(self, env_init, n, tol):
        # Haar circuits alternate with circuits leaking 3e-11 per step, whose
        # certificates (2.4e-11 to 3.4e-10) leave them to the exact hierarchy
        # at 2e-11, where two of them fail at n = 5.
        specs = [seeded_circuit_spec(n, 2, 2, seed, env_init, leak=leak)
                 for seed in range(4) for leak in (0.0, 3e-11)]
        with causal_tol(tol):
            _, residuals, certified = proctensor.processes.build_stack(*stack_of(specs))
        assert residuals.shape == (8, n) and certified.dtype == bool
        for k, spec in enumerate(specs):
            try:
                report = build_from_circuit(spec, tol).causality
            except CausalityError as exc:
                report = exc.report
            assert residuals[k].tolist() == list(report.residuals)
            assert bool(certified[k]) is report.bounds
        expected = {0.0: [False] * 8, 2e-11: [True, False] * 4, 1e-9: [True] * 8, 1.0: [True] * 8}
        assert certified.tolist() == expected[tol]

    @pytest.mark.parametrize("env_init", ["maximally-mixed", "seeded-random"])
    @pytest.mark.parametrize("tol", [0.0, 2e-11])
    def test_each_slice_fills_its_samples_in_place(self, monkeypatch, env_init, tol):
        # Transfer slices of at most 3 run the 8 samples as 2, 3 and 3. At
        # 2e-11 the certificate leaves samples 1, 3, 5 and 7 to the exact
        # hierarchy: offsets 1, 1, 0 and 2 of the three slices; at 0 all.
        stack_plan(monkeypatch, 8, 3)
        slices = record_plan(monkeypatch)[1]
        specs = [seeded_circuit_spec(3, 2, 2, seed, env_init, leak=leak)
                 for seed in range(4) for leak in (0.0, 3e-11)]
        with causal_tol(tol):
            transfer, residuals, certified = build_stack(*stack_of(specs))
        assert slices == [2, 3, 3]
        for k, spec in enumerate(specs):
            try:
                alone = build_from_circuit(spec, tol)
                report = alone.causality
            except CausalityError as exc:
                report = exc.report
                alone = build_from_circuit(spec, 1.0)  # its transfer, as tol does not move it
            assert residuals[k].tolist() == list(report.residuals), k
            assert bool(certified[k]) is report.bounds, k
            assert np.array_equal(transfer.steps[k], alone.transfer.steps[0]), k
            assert np.array_equal(transfer.entropy[k], alone.transfer.entropy[0]), k
        expected = {0.0: [False] * 8, 2e-11: [True, False] * 4}
        assert certified.tolist() == expected[tol]

    def test_first_non_unitary_sample_raises_its_spec_error(self):
        specs = self.mixed_specs()
        us, env = stack_of(specs)
        us = us.copy()
        us[1, 2] *= 1.0 + 1e-6
        us[3, 0] *= 1.0 + 1e-6
        with pytest.raises(ValueError) as alone:
            CircuitProcessSpec(3, 2, specs[1].env_state, tuple(us[1]))
        with pytest.raises(ValueError) as stacked:
            proctensor.processes.build_stack(us, env)
        assert str(stacked.value) == str(alone.value)
        assert str(alone.value).startswith("unitary 2 unitarity residual")

    def test_first_leaky_sample_raises_its_single_process_error(self):
        # Samples 1 and 3 move the trace beyond DEFAULT_TOL.tr, sample 2
        # leaks within it; the first leaky sample in stack order is named,
        # also at tolerance 0, where every sample gets the exact hierarchy.
        specs = [seeded_circuit_spec(4, 2, 1, seed, "maximally-mixed", leak=leak)
                 for seed, leak in ((3, 0.0), (1, 8e-11), (3, 8e-11), (0, 2.7e-11))]
        with pytest.raises(NotAStateError) as alone:
            build_from_circuit(specs[1])
        for tol in (1e-9, 0.0):
            with causal_tol(tol), pytest.raises(NotAStateError) as stacked:
                proctensor.processes.build_stack(*stack_of(specs))
            assert str(stacked.value) == str(alone.value)
        assert leak_named(unitarity_residual(np.array(specs[1].unitaries))) in str(alone.value)


ENV_INITS = ("maximally-mixed", "pure-ground", "seeded-random")


def recorded_traces(monkeypatch) -> list[np.ndarray]:
    """Patch the certificate to record the environment traces (S,) that each stack hands it."""
    seen, real = [], proctensor.processes._unitarity_certificate

    def recording(residuals, t_env):
        seen.append(t_env)
        return real(residuals, t_env)

    monkeypatch.setattr(proctensor.processes, "_unitarity_certificate", recording)
    return seen


def old_trace(factor: np.ndarray) -> float:
    """A factor's trace as ``DensityMatrix`` summed it before stacks were checked at once."""
    return float(np.sum(np.abs(np.asarray(factor, dtype=complex)) ** 2))


class TestStackEnvironments:
    """A stack's environments are one factor array, checked once; each factor alone is the oracle."""

    @staticmethod
    def stack(count=5, d_env=2, seed=0):
        spec = RandomSpec(n=2, d=2, d_env=d_env, seed=seed, env_init="seeded-random")
        us, env = proctensor.processes._random_circuits(spec, count)
        return us, env.copy()

    @pytest.mark.parametrize("spoil", [
        {1: np.nan, 3: 2.0},
        {2: np.inf, 4: np.nan},
        {0: complex(0.0, np.inf)},
        {1: 1.0 + 3e-10, 3: np.nan},  # scales the factor: trace off 1 by 6e-10
        {4: 1.0 - 2e-10},
        {2: 1e200, 4: np.nan},  # overflows the trace to inf, with no numpy warning
    ])
    @pytest.mark.filterwarnings("error")
    def test_first_bad_factor_raises_its_single_state_error(self, spoil):
        us, env = self.stack()
        for k, value in spoil.items():
            if isinstance(value, float) and np.isfinite(value):
                env[k] *= value
            else:
                env[k, 1, 0] = value
        first = min(spoil)
        with pytest.raises((ValueError, NotAStateError)) as alone:
            DensityMatrix(None, (2,), factor=env[first])
        with pytest.raises(type(alone.value)) as stacked:
            proctensor.processes.build_stack(us, env)
        assert str(stacked.value) == str(alone.value)
        with pytest.raises(type(alone.value)) as one:
            proctensor.processes.build_stack(us[first:first + 1], env[first:first + 1])
        assert str(one.value) == str(alone.value)

    def test_environments_are_checked_before_the_unitaries(self):
        # As when each environment was a state built before its stack.
        us, env = self.stack()
        us[0, 0] *= 1.0 + 1e-6
        env[3, 0, 0] = np.nan
        with pytest.raises(ValueError, match="^factor entries must be finite$"):
            proctensor.processes.build_stack(us, env)

    @pytest.mark.parametrize("shape", [(4, 2, 2), (6, 2, 2), (2, 2), (5, 3, 2), (5, 4, 2), (5, 0, 2)])
    def test_factors_that_do_not_fit_the_unitaries(self, shape):
        # Wrong count, no sample axis, a side that does not divide D = 4, or
        # leaves d < 2, or is 0.
        us, _ = self.stack()
        with pytest.raises(ValueError, match=rf"^environment factors of shape {re.escape(str(shape))} "
                                             r"do not fit unitaries of shape \(5, 2, 4, 4\)$"):
            proctensor.processes.build_stack(us, np.full(shape, 0.5))

    @pytest.mark.filterwarnings("error")
    def test_circuits_of_no_step_are_refused(self):
        # As a spec of n = 0 is, before any check reads the unitaries.
        us, env = self.stack()
        with pytest.raises(ValueError, match=r"^environment factors of shape \(5, 2, 2\) "
                                             r"do not fit unitaries of shape \(5, 0, 4, 4\)$"):
            proctensor.processes.build_stack(us[:, :0], env)

    @pytest.mark.parametrize("n, d, message", [
        (0, 2, "n must be >= 1, got 0"), (-1, 2, "n must be >= 1, got -1"),
        (1, 1, "d must be >= 2, got 1"), (0, 1, "n must be >= 1, got 0"),
        (1, 0, "d must be >= 2, got 0"), (1, -1, "d must be >= 2, got -1"),
    ])
    @pytest.mark.filterwarnings("error")
    def test_fredkin_processes_refuse_what_a_point_refuses(self, n, d, message):
        # The stacks are refused at the call, before any is planned, with the
        # message of the point ``fredkin_spec`` at the same (n, d), which
        # checks them before it forms a circuit.
        with pytest.raises(ValueError, match=f"^{message}$"):
            fredkin_spec(0.5, n, d)
        for ps in ([0.5], []):
            with pytest.raises(ValueError, match=f"^{message}$"):
                fredkin_processes(ps, n, d)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_fredkin_grid_rows_and_traces(self, monkeypatch, d):
        grid = [j / 20 for j in range(21)]
        us, factors = proctensor.processes._fredkin_circuits(grid, 1, d)
        assert us.shape == (21, 1, 2 * d * d, 2 * d * d)
        assert all(np.array_equal(u, fredkin_unitary(d)) for u in us[:, 0])
        traces = recorded_traces(monkeypatch)
        proctensor.processes.build_stack(us, factors)
        (got,) = traces
        for k, p in enumerate(grid):
            env = fredkin_spec(p, 1, d).env_state
            want = np.diag(np.sqrt(np.repeat([1.0 - p, p], d) / d))  # the grid's former route
            assert np.array_equal(factors[k], want)
            assert np.array_equal(factors[k], env.factor)
            assert got[k] == env.trace == old_trace(want)

    @pytest.mark.parametrize("n, d", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2)])
    def test_fredkin_processes_are_one_build_per_point(self, n, d):
        spec = fredkin_spec(0.3, n, d)
        assert (spec.n, spec.d, spec.d_env, len(spec.unitaries)) == (n, d, 2 * d, n)
        assert all(np.array_equal(u, fredkin_unitary(d)) for u in spec.unitaries)
        grid = [j / 20 for j in range(21)]
        ((transfer, residuals, certified),) = fredkin_processes(grid, n, d)
        for k, p in enumerate(grid):
            pt = build_from_circuit(fredkin_spec(p, n, d))
            assert residuals[k].tolist() == list(pt.causality.residuals)
            assert certified[k] == pt.causality.bounds
            for got, want in zip(
                (transfer.steps, transfer.entropy), (pt.transfer.steps, pt.transfer.entropy)
            ):
                assert np.array_equal(got[k], want[0])

    def test_fredkin_processes_refuse_p_outside_the_unit_interval(self):
        with pytest.raises(ValueError, match=r"^p must lie in \[0, 1\], got 1.5$"):
            list(fredkin_processes([0.0, 1.5], 1, 2))

    @pytest.mark.parametrize("p", [-0.1, 1.1, float("nan")])
    def test_fredkin_grid_refuses_p_outside_the_unit_interval(self, p):
        # The first bad point in grid order is named, with fredkin_spec's message.
        with pytest.raises(ValueError) as alone:
            fredkin_spec(p, 1, 2)
        with pytest.raises(ValueError) as grid:
            proctensor.processes._fredkin_circuits([0.0, 0.5, p, 2.0, 1.0], 1, 2)
        assert str(grid.value) == str(alone.value) == f"p must lie in [0, 1], got {p}"

    @pytest.mark.parametrize("env_init", ENV_INITS)
    def test_stacked_traces_are_each_states_trace(self, monkeypatch, env_init):
        traces = recorded_traces(monkeypatch)
        for d_env in (1, 2, 3, 4, 8):
            spec = RandomSpec(n=2, d=2, d_env=d_env, seed=3, env_init=env_init)
            ((_, residuals, _),) = random_processes(spec, 9)
            got = traces.pop()
            assert len(got) == len(residuals) == 9
            for k in range(9):
                factor = random_env(np.random.default_rng(3 + k), d_env, env_init)
                state = DensityMatrix(None, (d_env,), factor=factor)
                assert got[k] == state.trace == old_trace(factor)

    def test_stacked_traces_of_dense_spec_environments(self, monkeypatch):
        # The explicit ``env`` of a spec file is a dense matrix; a stack of
        # its factors gives each the trace its state validated, bit for bit,
        # whether the stack is laid out in C or in Fortran order.
        rng = np.random.default_rng(26)
        for d_env in (2, 4):
            states = [random_density(rng, (d_env,)) for _ in range(16)]
            factors = np.array([s.factor for s in states])
            us = np.array([[haar_unitary(2 * d_env, rng)] for _ in states])
            traces = recorded_traces(monkeypatch)
            for env in (factors, np.asfortranarray(factors.transpose(1, 2, 0)).transpose(2, 0, 1)):
                proctensor.processes.build_stack(us, env)
                got = traces.pop()
                for k, state in enumerate(states):
                    assert state.factor.flags.c_contiguous
                    assert got[k] == state.trace == old_trace(state.factor)

    @pytest.mark.parametrize("d_env", [1, 2, 3, 4, 8])
    def test_seeded_random_state_matches_its_dense_route(self, d_env):
        # The draw's former route: g g^dag / tr, validated as a dense state.
        for seed in range(40):
            factor = random_env(np.random.default_rng(seed), d_env, "seeded-random")
            rng = np.random.default_rng(seed)
            g = rng.standard_normal((d_env, d_env)) + 1j * rng.standard_normal((d_env, d_env))
            mat = g @ g.conj().T
            dense = DensityMatrix(mat / np.trace(mat).real, (d_env,))
            state = DensityMatrix(None, (d_env,), factor=factor)
            assert np.max(np.abs(state.mat - dense.mat)) <= 1e-14
            assert abs(state.trace - dense.trace) <= 1e-14

    @pytest.mark.parametrize("env_init", ENV_INITS)
    def test_random_process_is_sample_k_bit_for_bit(self, env_init):
        # Stacks below and above ``_SEEDED_STACK``, and across 2^32 and 2^64.
        for seed, count in itertools.product((60, 2**32 - 4, 2**64 - 5), (7, 9)):
            spec = RandomSpec(n=3, d=2, d_env=3, seed=seed, env_init=env_init)
            ((transfer, residuals, certified),) = random_processes(spec, count)
            assert residuals.shape == (count, 3) and certified.shape == (count,)
            for k in range(count):
                alone = random_process(dataclasses.replace(spec, seed=seed + k))
                assert report_of(residuals, certified, k, DEFAULT_TOL.causal) == alone.causality
                for name in ("steps", "entropy"):
                    assert np.array_equal(getattr(transfer, name)[k], getattr(alone.transfer, name)[0])

    @pytest.mark.parametrize("env_init", ENV_INITS)
    def test_random_processes_form_no_state(self, monkeypatch, env_init):
        seen = count_states(monkeypatch)
        for count in (1, 40):
            spec = RandomSpec(n=3, d=2, d_env=4, seed=5, env_init=env_init)
            assert sum(len(r) for _, r, _ in random_processes(spec, count)) == count
        assert seen == []

    def test_spec_build_checks_nothing_twice(self, monkeypatch):
        # The spec validated its unitaries and its environment when it was
        # made; its build reads their residuals, factor and trace.
        spec = seeded_circuit_spec(3, 2, 4, 9, "seeded-random")
        calls = []

        def counted(name):
            real = getattr(proctensor.processes, name)

            def counting(*args):
                calls.append(name)
                return real(*args)
            return counting

        for name in ("unitarity_residual", "factor_traces"):
            monkeypatch.setattr(proctensor.processes, name, counted(name))
        pt = build_from_circuit(spec)
        assert calls == []
        _, residuals, certified = proctensor.processes.build_stack(
            np.array([spec.unitaries]), spec.env_state.factor[None])
        assert calls == ["factor_traces", "unitarity_residual"]
        assert report_of(residuals, certified, 0, DEFAULT_TOL.causal) == pt.causality


class TestExactHierarchy:
    """The hierarchy a build reads from its transfer, where the certificate cannot decide."""

    @staticmethod
    def exact(spec):
        # At tolerance 0 no certificate decides, so every residual is exact.
        with causal_tol(0.0):
            _, residuals, certified = proctensor.processes.build_stack(
                np.array([spec.unitaries]), spec.env_state.factor[None]
            )
        assert certified.tolist() == [False]
        return tuple(residuals[0].tolist())

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 5),
        d=st.integers(2, 3),
        d_env=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        env_init=st.sampled_from(["maximally-mixed", "pure-ground", "seeded-random"]),
        leak=st.one_of(st.just(0.0), st.floats(1e-13, 3e-11)),
        spread=st.booleans(),
        env_shift=st.one_of(st.just(0.0), st.floats(-9e-11, 9e-11)),
    )
    def test_matches_the_dense_hierarchy(self, n, d, d_env, seed, env_init, leak, spread, env_shift):
        assume(d ** (2 * n) <= 3**8)
        spec = seeded_circuit_spec(n, d, d_env, seed, env_init, leak, 1.0 + env_shift, spread)
        try:
            dense = verify_causality(build_from_circuit(spec, 1.0).state, 0.0)
        except NotAStateError:
            assume(False)
        for got, want in zip(self.exact(spec), dense.residuals, strict=True):
            assert abs(got - want) <= 1e-15

    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_certificate_bounds_every_level(self, n):
        # Beyond the dense route's reach, the exact route is the oracle of
        # the certificate: its bounds hold level by level.
        for env_init in ("maximally-mixed", "pure-ground", "seeded-random"):
            spec = RandomSpec(n=n, d=2, d_env=4, seed=1, env_init=env_init)
            with causal_tol(1.0):
                ((_, certificate, certified),) = random_processes(spec, 1)
            with causal_tol(0.0):
                ((_, exact, uncertified),) = random_processes(spec, 1)
            assert certified.tolist() == [True] and uncertified.tolist() == [False]
            assert certificate.shape == exact.shape == (1, n)
            for c, e in zip(certificate[0].tolist(), exact[0].tolist(), strict=True):
                assert e <= c

    def test_swap_chain_is_causal_to_rounding_at_any_length(self):
        # Its residuals are 0 in exact arithmetic; no Choi state is formed.
        for n in (4, 12, 50):
            spec = CircuitProcessSpec(
                n=n, d=2, env_state=maximally_mixed(2), unitaries=(swap_unitary(2),) * n
            )
            assert max(self.exact(spec)) <= 1e-14


def rank_two_env(d_env: int) -> DensityMatrix:
    """A seeded environment of rank 2 on d_env levels, given by its factor."""
    rng = np.random.default_rng(5)
    g = rng.standard_normal((d_env, 2)) + 1j * rng.standard_normal((d_env, 2))
    return DensityMatrix(None, (d_env,), factor=g / np.linalg.norm(g))


class TestDensePhase:
    """Transfers that carry the environment-ancilla state itself once its factor would be cut."""

    # (n, d, d_env, environment, switch): from step ``switch`` on, the factor
    # of d_env r rows would have more than d_env r columns, so the state is
    # carried; its first possible step is 1.
    SHAPES = [
        (4, 2, 4, "maximally-mixed", 3), (4, 2, 4, "pure-ground", 2),
        (4, 2, 4, "seeded-random", 3), (4, 2, 4, "rank-two", 2),
        (5, 2, 2, "maximally-mixed", 2), (5, 2, 2, "pure-ground", 1),
        (5, 2, 2, "seeded-random", 2), (5, 2, 2, "rank-two", 2),
        (3, 3, 2, "maximally-mixed", 1), (3, 3, 2, "pure-ground", 1),
        (3, 3, 2, "seeded-random", 1), (6, 2, 1, "maximally-mixed", 1),
        (6, 2, 1, "pure-ground", 1), (6, 2, 1, "seeded-random", 1),
    ]

    @staticmethod
    def leaky_spec(n, d, d_env, environment):
        env_init = "seeded-random" if environment == "rank-two" else environment
        spec = seeded_circuit_spec(n, d, d_env, 0, env_init, leak=1e-11)
        if environment == "rank-two":
            spec = dataclasses.replace(spec, env_state=rank_two_env(d_env))
        return spec

    @pytest.mark.parametrize("n, d, d_env, environment, switch", SHAPES)
    def test_matches_the_dense_route(self, monkeypatch, n, d, d_env, environment, switch):
        # At tolerance 0 the certificate decides nothing, so every level is
        # read from the transfer: from eigh's factor of each carried state,
        # one eigh per level after the switch.
        spec = self.leaky_spec(n, d, d_env, environment)
        shapes, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: shapes.append(m.shape) or eigh(m))
        with causal_tol(0.0):
            _, rows, certified = build_stack(np.array([spec.unitaries]), spec.env_state.factor[None])
        assert certified.tolist() == [False]
        side = d_env * spec.env_state.factor.shape[1]
        assert shapes == [(1, side, side)] * (n - switch)
        state = proctensor.processes._choi_state(d, spec.unitaries, spec.env_state.factor)
        dense = verify_causality(state, 0.0)
        assert np.max(np.abs(rows[0] - dense.residuals)) <= 1e-12
        got, want = correlation_report(build_from_circuit(spec, 1.0)), correlation_report(state)
        for field in ("total", "step_markov", "non_markov"):
            assert np.max(np.abs(np.subtract(getattr(got, field), getattr(want, field)))) <= 1e-12

    def test_first_leaky_sample_raises_its_single_process_error(self):
        # At d = 2, d_env = 2 the state is carried from step 2 on. Sample 1
        # moves the trace beyond DEFAULT_TOL.tr (1.2e-10), sample 2 leaks within it.
        specs = [seeded_circuit_spec(5, 2, 2, seed, "maximally-mixed", leak=leak)
                 for seed, leak in ((1, 0.0), (0, 8e-11), (1, 8e-11), (0, 1e-10))]
        with pytest.raises(NotAStateError, match="^factor trace ") as alone:
            build_from_circuit(specs[1])
        for tol in (1e-9, 0.0):
            with causal_tol(tol), pytest.raises(NotAStateError) as stacked:
                build_stack(*stack_of(specs))
            assert str(stacked.value) == str(alone.value)
        named = leak_named(unitarity_residual(np.array(specs[1].unitaries)))
        assert named in str(alone.value)
        with pytest.raises(NotAStateError, match="^factor trace ") as simulated:
            proctensor.processes._choi_state(2, specs[1].unitaries, specs[1].env_state.factor)
        assert named in str(simulated.value)

    @pytest.mark.parametrize("n, d, d_env", [(50, 2, 8), (6, 3, 2)])
    @pytest.mark.parametrize("tol", [0.0, 2e-11])
    def test_stacked_rows_and_fields_are_each_build_bit_for_bit(self, monkeypatch, n, d, d_env, tol):
        # One slice of four carries the states of all four samples at once;
        # at 2e-11 the leaky samples are left to the exact hierarchy.
        stack_plan(monkeypatch, 4, 4)
        specs = [seeded_circuit_spec(n, d, d_env, seed, env_init, leak=leak)
                 for seed, env_init, leak in ((0, "maximally-mixed", 0.0), (1, "seeded-random", 3e-11),
                                              (2, "seeded-random", 0.0), (3, "maximally-mixed", 3e-11))]
        with causal_tol(tol):
            transfer, rows, certified = build_stack(*stack_of(specs))
        assert certified.tolist() == [tol > 0.0, False, tol > 0.0, False]
        for k, spec in enumerate(specs):
            alone = build_from_circuit(spec, 1.0)  # its transfer, as tol does not move it
            with causal_tol(tol):
                _, row, _ = build_stack(np.array([spec.unitaries]), spec.env_state.factor[None])
            assert rows[k].tolist() == row[0].tolist(), k
            assert np.array_equal(transfer.steps[k], alone.transfer.steps[0]), k
            assert np.array_equal(transfer.entropy[k], alone.transfer.entropy[0]), k

    @pytest.mark.parametrize("n, d", [(200, 2), (60, 3)])
    def test_long_swap_chain_saturates_the_maximum(self, n, d):
        # N = 2 (n - 1) ln d and M_j = 0 for j >= 2; the deviation is the
        # rounding of the n step entropies, so it is allowed to grow with n.
        rep = correlation_report(swap_chain_process(n, d))
        assert abs(rep.non_markov - 2 * (n - 1) * math.log(d)) <= n * 1e-13
        assert max(abs(m) for m in rep.step_markov[1:]) <= n * 1e-13
