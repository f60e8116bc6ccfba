import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from proctensor import (
    CircuitProcessSpec,
    CorrelationReport,
    DensityMatrix,
    NotAStateError,
    RandomSpec,
    audit_bounds,
    build_from_circuit,
    cnot_swap_process,
    correlation_report,
    depolarizing_choi,
    implication_checks,
    kron,
    mutual_information,
    nm_depolarizing_process,
    non_markovianity_crosscheck,
    partial_trace,
    random_process,
    swap_chain_process,
)

import proctensor.processes
from proctensor import io
from proctensor.config import DEFAULT_TOL
from proctensor.io import load_choi, save_choi
from proctensor.linalg import von_neumann_entropy
from proctensor.metrics import (
    SLACK_NAMES,
    BoundAudit,
    bound_slacks,
    bounds_hold,
    transfer_quantities,
)
from proctensor.processes import Transfer, random_processes

from conftest import (
    causal_tol,
    count_eigh,
    leaky_unitary,
    random_density,
    seeded_circuit_spec,
    stack_plan,
)

LN2 = math.log(2)


class TestCorrelationReport:
    def test_identity_two_step(self):
        rep = correlation_report(nm_depolarizing_process(0.0))
        assert rep.total == pytest.approx(4 * LN2, abs=1e-8)
        assert rep.markov == pytest.approx(4 * LN2, abs=1e-8)
        assert rep.non_markov == pytest.approx(0.0, abs=1e-8)

    def test_cnot_swap_values(self):
        rep = correlation_report(cnot_swap_process())
        assert rep.step_markov[0] == pytest.approx(LN2, abs=1e-8)
        assert rep.step_markov[1] == pytest.approx(0.0, abs=1e-8)
        assert rep.non_markov == pytest.approx(2 * LN2, abs=1e-8)
        assert rep.total == pytest.approx(3 * LN2, abs=1e-8)

    def test_swap_chain_three_steps(self):
        rep = correlation_report(swap_chain_process(3, 2))
        assert rep.non_markov == pytest.approx(4 * LN2, abs=1e-8)
        assert rep.markov == pytest.approx(0.0, abs=1e-8)

    def test_additivity_and_ranges(self):
        for seed in range(10):
            rep = correlation_report(random_process(RandomSpec(n=2, d=2, d_env=3, seed=seed)))
            assert rep.additivity_residual <= 1e-10
            assert rep.non_markov >= -1e-8
            for m in rep.step_markov:
                assert -1e-8 <= m <= 2 * LN2 + 1e-8
            assert rep.total <= 2 * rep.n * LN2 + 1e-8

    @pytest.mark.parametrize("d, d_env", [(2, 1), (2, 2), (2, 4), (3, 2)])
    def test_single_step_nonmarkov_is_exactly_zero(self, tmp_path, d, d_env):
        # N is the mutual information across one step block, which is the
        # whole state; the transfer, the dense state and its Choi file agree.
        for seed in range(5):
            pt = random_process(RandomSpec(n=1, d=d, d_env=d_env, seed=seed))
            path = tmp_path / "choi.txt"
            save_choi(pt.state, path)
            for source in (pt, pt.state, load_choi(path)):
                rep = correlation_report(source)
                assert rep.non_markov == 0.0
                assert rep.additivity_residual == abs(rep.total - rep.markov)

    @pytest.mark.parametrize("env_init", ["pure-ground", "seeded-random"])
    @pytest.mark.parametrize("n, d", [(2, 2), (3, 2), (2, 3)])
    def test_matches_mutual_information_of_the_slots(self, n, d, env_init):
        # A non-maximally-mixed environment leaves the outputs o_j mixed
        # unequally, so S(o_j) != S(i_{j-1}); every quantity is a mutual
        # information of the dense Choi state.
        for seed in range(3):
            pt = random_process(RandomSpec(n=n, d=d, d_env=2, seed=seed, env_init=env_init))
            rep, state = correlation_report(pt), pt.state
            singles = [(k,) for k in range(2 * n)]
            blocks = [(2 * j, 2 * j + 1) for j in range(n)]
            assert rep.total == pytest.approx(mutual_information(state, singles), abs=1e-12)
            assert rep.non_markov == pytest.approx(mutual_information(state, blocks), abs=1e-12)
            for j, m in enumerate(rep.step_markov):
                step = partial_trace(state, blocks[j])
                assert m == pytest.approx(mutual_information(step, ((0,), (1,))), abs=1e-12)

    def test_raw_state_accepted(self, rng):
        rep = correlation_report(random_density(rng, (2, 2, 2, 2)))
        assert rep.n == 2 and rep.d == 2

    def test_odd_slot_count_rejected(self, rng):
        with pytest.raises(ValueError):
            correlation_report(random_density(rng, (2, 2, 2)))

    @pytest.mark.parametrize("dims, message", [
        ((2, 2, 2), "a process tensor needs an even slot count, got 3"),
        ((2, 3), "slot dimensions must be uniform, got (2, 3)"),
    ])
    def test_state_off_the_slot_layout_raises_the_slot_error(self, rng, dims, message):
        state = random_density(rng, dims)
        for read in (correlation_report, non_markovianity_crosscheck, Transfer.of_state):
            with pytest.raises(ValueError) as info:
                read(state)
            assert str(info.value) == message

    def test_markov_adds_left_to_right(self):
        # math.fsum stands in for a compensated sum, such as ``sum`` of
        # floats from Python 3.12; M must stay the left-to-right sum that
        # ``bound_slacks`` also forms.
        step = (0.1, 0.2, 0.3)
        assert math.fsum(step) != (0.1 + 0.2) + 0.3
        rep = CorrelationReport(d=2, total=1.0, step_markov=step, non_markov=0.25)
        assert rep.markov == (0.1 + 0.2) + 0.3
        assert rep.markov == np.add.accumulate(np.array([step]), axis=1)[0, -1]
        assert rep.additivity_residual == abs(1.0 - (((0.1 + 0.2) + 0.3) + 0.25))


class TestTransferOfState:
    """``Transfer.of_state`` reads a state's stack of one from its 2n slots."""

    def test_fields_are_the_slot_marginals(self, rng):
        state = random_density(rng, (2, 2, 2, 2))
        transfer = Transfer.of_state(state)
        assert transfer.steps.shape == (1, 2, 4, 4)
        assert transfer.outputs.shape == (1, 2, 2, 2)
        for j, (step, out) in enumerate(zip(transfer.steps[0], transfer.outputs[0])):
            assert np.array_equal(step, partial_trace(state, (2 * j, 2 * j + 1)).mat)
            assert np.array_equal(out, partial_trace(state, (2 * j + 1,)).mat)
        assert transfer.entropy.tolist() == [von_neumann_entropy(state)]

    def test_report_is_row_zero_of_its_quantities(self, rng):
        state = random_density(rng, (2,) * 6)
        step, total, non_markov = (q[0].tolist() for q in transfer_quantities(
            Transfer.of_state(state)))
        assert correlation_report(state) == CorrelationReport(2, total, tuple(step), non_markov)

    def test_fields_are_read_only(self, rng):
        built = random_process(RandomSpec(n=2, d=2, d_env=2, seed=3)).transfer
        for transfer in (built, Transfer.of_state(random_density(rng, (2, 2)))):
            for name in ("steps", "outputs", "entropy"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(transfer, name)[0] = 0.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                transfer.entropy = np.zeros(1)


def report_fields(rep: CorrelationReport) -> list[float]:
    return [
        rep.total, rep.markov, rep.non_markov, rep.additivity_residual,
        *rep.step_markov, *rep.step_complement,
    ]


class TestTransferReport:
    """A circuit-built process is read from its transfer; the dense state is the oracle."""

    @staticmethod
    def assert_matches_dense(pt, tol=1e-12):
        fast, dense = correlation_report(pt), correlation_report(pt.state)
        assert (fast.n, fast.d) == (dense.n, dense.d)
        for a, b in zip(report_fields(fast), report_fields(dense), strict=True):
            assert a == pytest.approx(b, abs=tol)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 5),
        d=st.integers(2, 3),
        d_env=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        env=st.sampled_from(["maximally-mixed", "pure-ground", "seeded-random", "rank-deficient"]),
        leak=st.one_of(st.just(0.0), st.floats(1e-13, 3e-11)),
    )
    def test_transfer_matches_dense_report(self, n, d, d_env, seed, env, leak):
        # Leaky unitaries make the later steps weigh the environment by an
        # effect that is not the identity; the transfer must still give the
        # marginals of the dense state.
        if env == "rank-deficient":
            assume(d_env >= 2)
            spec = seeded_circuit_spec(n, d, d_env, seed, "maximally-mixed", leak)
            rng = np.random.default_rng(seed)
            env_state = random_density(rng, (d_env,), rank=int(rng.integers(1, d_env)))
            assert env_state.factor.shape[1] < d_env
            spec = CircuitProcessSpec(n=n, d=d, env_state=env_state, unitaries=spec.unitaries)
        else:
            spec = seeded_circuit_spec(n, d, d_env, seed, env, leak)
        try:
            pt = build_from_circuit(spec, 1.0)
        except NotAStateError:
            assume(False)  # the leaks moved the trace beyond DEFAULT_TOL.tr
        self.assert_matches_dense(pt)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("d_env", [8, 16])
    @pytest.mark.parametrize("env_init", ["maximally-mixed", "pure-ground", "seeded-random"])
    def test_wide_environment_matches_the_dense_state(self, n, d_env, env_init):
        # Full-rank environments leave the final factor d_env^2 rows and
        # d^(2n) columns, at most as many, so S(P_n) comes from its Gram
        # F^dag F wherever the columns are fewer.
        pt = random_process(RandomSpec(n=n, d=2, d_env=d_env, seed=n + d_env, env_init=env_init))
        dense = Transfer.of_state(pt.state)
        for name in ("steps", "outputs", "entropy"):
            got, want = getattr(pt.transfer, name), getattr(dense, name)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12, name

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("env_init", ["maximally-mixed", "pure-ground", "seeded-random"])
    def test_leaky_stack_matches_the_dense_state(self, n, d, env_init):
        # Every step leaks 1e-11 to 1e-10, so each effect E_j = T_{j+1}^dag(E_{j+1}),
        # E_{n-1} = sum K^dag K first, is off the identity by as much, and the
        # stacked fields must still be those of each sample's dense Choi state.
        rng = np.random.default_rng([n, d])
        specs = []
        for seed in range(3):
            spec = seeded_circuit_spec(n, d, 2, seed, env_init)
            leaks = 10.0 ** rng.uniform(-11, -10, n)
            us = tuple(leaky_unitary(u, leak, rng) for u, leak in zip(spec.unitaries, leaks))
            specs.append(dataclasses.replace(spec, unitaries=us))
        with causal_tol(1.0):
            transfer, _, _ = proctensor.processes.build_stack(
                np.array([s.unitaries for s in specs]),
                np.array([s.env_state.factor for s in specs]),
            )
        for k, spec in enumerate(specs):
            dense = Transfer.of_state(build_from_circuit(spec, 1.0).state)
            for name in ("steps", "outputs", "entropy"):
                got, want = getattr(transfer, name)[k], getattr(dense, name)[0]
                assert np.max(np.abs(got - want)) <= 1e-12, (k, name)

    def test_named_processes_match_dense_report(self):
        for k in range(21):
            self.assert_matches_dense(nm_depolarizing_process(k / 20))
        for n, d in ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3)):
            self.assert_matches_dense(swap_chain_process(n, d))
        self.assert_matches_dense(cnot_swap_process())

    def test_additivity_compares_the_transfer_outputs(self):
        # total takes its o_j singles from the transfer, not from the step
        # states, so a wrong output marginal shows in the residual.
        pt = random_process(RandomSpec(n=3, d=2, d_env=4, seed=0))
        assert correlation_report(pt).additivity_residual <= 1e-12
        pure = np.broadcast_to(np.diag([1.0, 0.0]), pt.transfer.outputs.shape)
        wrong = dataclasses.replace(pt.transfer, outputs=pure)
        rep = correlation_report(dataclasses.replace(pt, transfer=wrong))
        assert rep.additivity_residual > 1e-3

    def test_long_swap_chain_without_the_choi_state(self, monkeypatch):
        # At n = 12 the Choi state would have 2^24 rows; the report never
        # forms it and the chain saturates the maximal non-Markovianity.
        monkeypatch.setenv("PROCTENSOR_MAX_DIM", "1024")
        rep = correlation_report(swap_chain_process(12, 2))
        assert rep.non_markov == pytest.approx(22 * LN2, abs=1e-10)
        assert rep.markov == pytest.approx(0.0, abs=1e-10)
        assert audit_bounds(rep).slack("max_nonmarkov") == pytest.approx((0.0,), abs=1e-10)


def stack_rows(spec: RandomSpec, count: int) -> list[tuple[tuple[float, ...], float, float]]:
    """Per sample of ``random_processes(spec, count)``: its step values, ``total`` and N."""
    rows = []
    for transfer, _, _ in random_processes(spec, count):
        step, total, non_markov = (q.tolist() for q in transfer_quantities(transfer))
        rows += zip(map(tuple, step), total, non_markov)
    return rows


class TestStackedReports:
    """Samples built in stacks by ``random_processes``.

    Each sample built alone is the bitwise oracle, and its dense Choi state
    the oracle to 1e-12.
    """

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("d_env", [1, 2, 4])
    def test_stack_matches_dense_reports(self, n, d, d_env):
        env_init = "seeded-random" if d_env == 2 else "maximally-mixed"
        spec = RandomSpec(n=n, d=d, d_env=d_env, seed=100 * n + d_env, env_init=env_init)
        rows = stack_rows(spec, 3)
        assert len(rows) == 3
        for k, (step, total, non_markov) in enumerate(rows):
            pt = random_process(dataclasses.replace(spec, seed=spec.seed + k))
            dense = correlation_report(pt.state)
            assert len(step) == dense.n
            got = [total, non_markov, *step]
            want = [dense.total, dense.non_markov, *dense.step_markov]
            assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("env_init", ["maximally-mixed", "pure-ground", "seeded-random"])
    def test_stack_rows_equal_single_builds(self, monkeypatch, env_init):
        # Stacks of at most 5 samples, their transfers in slices of at most 2,
        # so 12 samples run as 4, 4 and 4, each stack in slices of 2 and 2.
        stack_plan(monkeypatch, 5, 2)
        for n, d, d_env in itertools.product((1, 2, 3, 5, 9), (2, 3), (1, 2, 4)):
            spec = RandomSpec(n=n, d=d, d_env=d_env, seed=7 * n + d_env, env_init=env_init)
            rows = stack_rows(spec, 12)
            assert len(rows) == 12
            for k, row in enumerate(rows):
                sample = dataclasses.replace(spec, seed=spec.seed + k)
                alone = correlation_report(random_process(sample))
                assert row == (alone.step_markov, alone.total, alone.non_markov), (spec, k)

    def test_single_process_is_a_stack_of_one(self):
        spec = RandomSpec(n=3, d=2, d_env=4, seed=11)
        pt = random_process(spec)
        assert pt.transfer.steps.shape == (1, 3, 4, 4)
        rep = correlation_report(pt)
        assert stack_rows(spec, 1) == [(rep.step_markov, rep.total, rep.non_markov)]


class TestNonMarkovianityCrosscheck:
    def test_markov_product_is_zero(self):
        a = depolarizing_choi(2, 0.3).state
        b = depolarizing_choi(2, 0.6).state
        product = DensityMatrix(kron(a.mat, b.mat), (2, 2, 2, 2))
        assert non_markovianity_crosscheck(product) == pytest.approx(0.0, abs=1e-9)

    def test_swap_chain_value(self):
        got = non_markovianity_crosscheck(swap_chain_process(2, 2))
        assert got == pytest.approx(2 * LN2, abs=1e-8)

    def test_matches_entropy_form(self):
        for seed in range(15):
            n = 2 + seed % 2
            pt = random_process(RandomSpec(n=n, d=2, d_env=3, seed=200 + seed))
            rep = correlation_report(pt)
            assert non_markovianity_crosscheck(pt) == pytest.approx(
                rep.non_markov, abs=1e-8
            )

    @staticmethod
    def dense_crosscheck(state: DensityMatrix) -> float:
        """S(rho || product of step marginals) from numpy's eigh on dense matrices."""
        n = state.num_subsystems // 2
        t = state.mat.reshape(state.dims * 2)
        product = np.ones((1, 1))
        for j in range(n):
            rest = [k for k in range(2 * n) if k not in (2 * j, 2 * j + 1)]
            marg = t
            for k in sorted(rest, reverse=True):
                marg = np.trace(marg, axis1=k, axis2=k + marg.ndim // 2)
            side = state.dims[2 * j] * state.dims[2 * j + 1]
            product = np.kron(product, marg.reshape(side, side))

        def tr_rho_log(m: np.ndarray) -> float:
            w, v = np.linalg.eigh(m)
            diag = np.real(np.einsum("ij,jk,ki->i", v.conj().T, state.mat, v))
            keep = w > 1e-12
            return float(np.sum(diag[keep] * np.log(w[keep])))

        return tr_rho_log(state.mat) - tr_rho_log(product)

    def test_matches_dense_formula(self):
        states = [swap_chain_process(2, 2).state, swap_chain_process(3, 2).state]
        for seed in range(20):
            n, d_env = 2 + seed % 2, 2 + seed % 3
            states.append(random_process(RandomSpec(n=n, d=2, d_env=d_env, seed=seed)).state)
        for state in states:
            got = non_markovianity_crosscheck(state)
            assert got == pytest.approx(self.dense_crosscheck(state), abs=1e-12)

    def test_one_eigh_of_the_product(self, monkeypatch):
        pt = nm_depolarizing_process(0.3)
        sides = count_eigh(monkeypatch)
        non_markovianity_crosscheck(pt)
        assert sides == [16]  # the step marginals get certified pivoted Cholesky factors


class TestAuditBounds:
    def test_swap_chain_saturates_max_bound(self):
        for n, d in [(2, 2), (3, 2), (2, 3)]:
            audit = audit_bounds(correlation_report(swap_chain_process(n, d)))
            assert audit.slack("max_nonmarkov") == pytest.approx((0.0,), abs=1e-8)
            assert audit.passed

    def test_cnot_swap_two_step_slacks(self):
        # both two-step bounds saturate: N = 2*(2 ln d - M_1) = 2 ln d - M_2
        audit = audit_bounds(correlation_report(cnot_swap_process()))
        first, second = audit.slack("two_step")
        assert first == pytest.approx(0.0, abs=1e-8)
        assert second == pytest.approx(0.0, abs=1e-8)
        # the looser unordered (causality-free) bound keeps 2 ln 2 of slack
        assert audit.slack("unordered")[0] == pytest.approx(2 * LN2, abs=1e-8)

    def test_zero_nonmarkov_leaves_all_bounds_slack(self):
        audit = audit_bounds(correlation_report(nm_depolarizing_process(0.0)))
        assert audit.passed
        assert min(audit.slack("unordered")) >= -1e-8
        assert min(audit.slack("ordered")) >= -1e-8

    def test_unordered_bound_on_raw_states(self, rng):
        # holds without any causality structure
        for _ in range(30):
            rep = correlation_report(random_density(rng, (2, 2, 2, 2)))
            audit = audit_bounds(rep)
            assert min(audit.slack("unordered")) >= -1e-8

    def test_single_step_degenerate_bounds(self):
        rep = correlation_report(random_process(RandomSpec(n=1, d=2, d_env=4, seed=3)))
        assert rep.non_markov == pytest.approx(0.0, abs=1e-10)
        audit = audit_bounds(rep)
        assert audit.passed
        assert audit.slack("two_step") == ()

    def test_random_processes_pass(self):
        for seed in range(20):
            pt = random_process(RandomSpec(n=3, d=2, d_env=4, seed=400 + seed))
            assert audit_bounds(correlation_report(pt)).passed


    @pytest.mark.parametrize("n", [2, 3, 60, 1024, 5000])
    def test_slacks_match_exact_arithmetic(self, n):
        # 2.0**n overflows from n = 1024 on; the slacks must not, and must
        # agree with rational arithmetic on the same float inputs.
        # The report derives M and the complements from its step values, so
        # the exact arithmetic takes its float inputs from the report.
        rng = np.random.default_rng(n)
        log_d = math.log(2)
        step = tuple(float(m) for m in rng.uniform(0.0, 2 * log_d, n))
        big_n, big_i = (float(x) for x in rng.uniform(0.0, n * log_d, 2))
        rep = CorrelationReport(d=2, total=big_i, step_markov=step, non_markov=big_n)
        comp, big_m = rep.step_complement, rep.markov
        assert rep.n == n
        audit = audit_bounds(rep)
        c = [Fraction(x) for x in comp]
        fn, fm, fi, fl = Fraction(big_n), Fraction(big_m), Fraction(big_i), Fraction(log_d)
        total = sum(c)
        before = [Fraction(0), *itertools.accumulate(c)]
        exact_unordered = [2 * (total - c[k]) - fn for k in range(n)]
        exact_ordered = [2 * before[k] + (total - before[k] - c[k]) - fn for k in range(n)]
        exact_thm2 = 2 * n * fl - Fraction(2**n - 1, 2**n - 2) * fn - fm
        exact_thm2p = 2 * n * fl - fn / (2**n - 2) - fi
        # each slack is a sum of at most n + 4 terms no larger than scale
        tol = 4 * (n + 4) * np.finfo(float).eps * float(2 * total + fn + fm + fi + 2 * n * fl)
        for got, exact in zip(audit.slack("unordered"), exact_unordered, strict=True):
            assert abs(got - float(exact)) <= tol
        for got, exact in zip(audit.slack("ordered"), exact_ordered, strict=True):
            assert abs(got - float(exact)) <= tol
        (thm2,), (thm2p,) = audit.slack("markov_tradeoff"), audit.slack("total_tradeoff")
        assert abs(thm2 - float(exact_thm2)) <= tol
        assert abs(thm2p - float(exact_thm2p)) <= tol
        (thm1,) = audit.slack("max_nonmarkov")
        assert thm1 == pytest.approx(float(2 * (n - 1) * fl - fn), abs=tol)


# The keys that ``analyze`` prints for an audit, in order, each with its column of the
# ``bound_slacks`` row; ``bounds_pass`` follows them. Written out, not derived, so that
# a change of names, order or layout shows here.
AUDIT_KEYS = {
    1: [("unordered_slack[1]", 0), ("ordered_slack[1]", 1), ("max_nonmarkov_slack", 2),
        ("markov_tradeoff_slack", 3), ("total_tradeoff_slack", 4)],
    2: [("unordered_slack[1]", 2), ("unordered_slack[2]", 3), ("ordered_slack[1]", 4),
        ("ordered_slack[2]", 5), ("max_nonmarkov_slack", 6), ("markov_tradeoff_slack", 7),
        ("total_tradeoff_slack", 8), ("two_step_slack_first", 0), ("two_step_slack_second", 1)],
    3: [("unordered_slack[1]", 0), ("unordered_slack[2]", 1), ("unordered_slack[3]", 2),
        ("ordered_slack[1]", 3), ("ordered_slack[2]", 4), ("ordered_slack[3]", 5),
        ("max_nonmarkov_slack", 6), ("markov_tradeoff_slack", 7), ("total_tradeoff_slack", 8)],
}


class TestAuditLayout:
    @pytest.mark.parametrize("n, d", [(1, 2), (2, 2), (3, 2), (2, 3)])
    def test_audit_lines_are_the_row(self, n, d):
        rep = correlation_report(random_process(RandomSpec(n=n, d=d, d_env=2, seed=11)))
        row = bound_slacks(np.array([rep.step_markov]), np.array([rep.total]),
                           np.array([rep.non_markov]), d)
        keys = AUDIT_KEYS[n]
        assert row.shape == (1, len(keys))
        lines = io.audit_lines(audit_bounds(rep))
        assert lines == [f"{key} = {io.fmt(row[0, col])}" for key, col in keys] + [
            f"bounds_pass = {bool(bounds_hold(row, DEFAULT_TOL.xcheck)[0])}"
        ]


class TestDerivedFields:
    def test_report_stores_only_what_it_measures(self):
        names = [f.name for f in dataclasses.fields(CorrelationReport)]
        assert names == ["d", "total", "step_markov", "non_markov"]
        rep = CorrelationReport(d=3, total=5.0, step_markov=(0.5, 1.25, 2.0), non_markov=1.0)
        assert rep.n == 3
        assert rep.markov == 3.75
        assert rep.step_complement == tuple(2 * math.log(3) - m for m in (0.5, 1.25, 2.0))
        assert rep.additivity_residual == 0.25

    def test_audit_is_its_row_and_tolerance(self):
        assert [f.name for f in dataclasses.fields(BoundAudit)] == ["n", "slacks", "tol"]
        for n in (1, 2, 3):
            rep = correlation_report(random_process(RandomSpec(n=n, d=2, d_env=2, seed=5)))
            row = bound_slacks(np.array([rep.step_markov]), np.array([rep.total]),
                               np.array([rep.non_markov]), 2)
            audit = audit_bounds(rep)
            assert audit.n == n
            assert audit.slacks == tuple(row[0].tolist())
            assert [len(audit.slack(name)) for name in SLACK_NAMES] == [n, n, 1, 1, 1]
            by_name = sum((audit.slack(name) for name in SLACK_NAMES), ())
            assert audit.slack("two_step") + by_name == audit.slacks

    # Columns of an n-step row of ``bound_slacks``, the n = 2 two-step pair included.
    WIDTHS = {1: 5, 2: 9, 3: 9}
    COLUMNS = [(n, col) for n, width in WIDTHS.items() for col in range(width)]

    @classmethod
    def _audit(cls, n: int, col: int, value: float) -> BoundAudit:
        """An n-step audit whose slacks are all 1, but for column ``col``, which is ``value``."""
        slacks = [1.0] * cls.WIDTHS[n]
        slacks[col] = value
        return BoundAudit(n=n, slacks=tuple(slacks), tol=0.0)

    @pytest.mark.parametrize("n, col", COLUMNS)
    @pytest.mark.parametrize("t", [1e-8, 3e-11, 5e-324])
    def test_replace_rejudges_at_the_new_tolerance(self, n, col, t):
        audit = self._audit(n, col, -t)
        assert not audit.passed
        assert dataclasses.replace(audit, tol=t).passed
        assert not dataclasses.replace(audit, tol=math.nextafter(t, 0.0)).passed

    @pytest.mark.parametrize("n, col", COLUMNS)
    def test_nan_slack_fails(self, n, col):
        audit = self._audit(n, col, math.nan)
        assert not dataclasses.replace(audit, tol=1.0).passed

    def test_audit_bounds_keeps_its_tolerance(self):
        audit = audit_bounds(correlation_report(cnot_swap_process()), 3e-11)
        assert audit.tol == 3e-11
        assert audit.passed


class TestImplicationChecks:
    def test_identity_process(self):
        rep = correlation_report(nm_depolarizing_process(0.0))
        flags = implication_checks(rep, 0.01)
        assert "violated" not in flags.values()
        assert flags["high_step1_markov"] == "holds"
        assert flags["high_total"] == "holds"

    def test_cnot_swap_fires_nonmarkov_branch(self):
        rep = correlation_report(cnot_swap_process())
        flags = implication_checks(rep, 0.01)
        assert flags["high_non_markov"] == "holds"
        assert flags["high_step1_markov"] == "vacuous"

    def test_random_processes_never_violate(self):
        for seed in range(30):
            pt = random_process(RandomSpec(n=2, d=2, d_env=3, seed=600 + seed))
            rep = correlation_report(pt)
            for eps in (0.01, 0.1, 0.5):
                assert "violated" not in implication_checks(rep, eps).values()

    def test_requires_two_steps(self):
        rep = correlation_report(random_process(RandomSpec(n=3, d=2, d_env=2, seed=1)))
        with pytest.raises(ValueError):
            implication_checks(rep, 0.1)

    def test_negative_epsilon_refused(self):
        rep = correlation_report(cnot_swap_process())
        with pytest.raises(ValueError, match="^epsilon must be nonnegative, got -0.001$"):
            implication_checks(rep, -1e-3)
