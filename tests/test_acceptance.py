"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
summary lines.
"""

import math

import numpy as np
import pytest

from proctensor import (
    CircuitProcessSpec,
    DensityMatrix,
    RandomSpec,
    audit_bounds,
    build_from_circuit,
    channel_M,
    cnot_swap_process,
    correlation_report,
    depolarizing_choi,
    eta_diagnostics,
    fredkin_dilation,
    haar_unitary,
    implication_checks,
    kron,
    nm_depolarizing_process,
    non_markovianity_crosscheck,
    partial_trace,
    permute_subsystems,
    random_process,
    swap_chain_process,
    trace_distance,
    von_neumann_entropy,
)

from conftest import random_density, random_pure

LN2 = math.log(2)


def report(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num:2d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def test_criterion_01_depolarizing_endpoints():
    ok = True
    for d in (2, 3, 4):
        ok &= abs(channel_M(depolarizing_choi(d, 0.0)) - 2 * math.log(d)) <= 1e-9
        ok &= abs(channel_M(depolarizing_choi(d, 1.0))) <= 1e-9
        vals = [channel_M(depolarizing_choi(d, j / 100)) for j in range(101)]
        ok &= all(vals[k + 1] <= vals[k] + 1e-10 for k in range(100))
    report(1, "depolarizing endpoints + monotonicity", ok)


def test_criterion_02_fredkin_dilation():
    ok = True
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        got = build_from_circuit(fredkin_dilation(p))
        ok &= trace_distance(got.state, depolarizing_choi(2, p).state) <= 1e-9
    report(2, "Fredkin dilation equals depolarizing Choi", ok)


def test_criterion_03_eta_identities():
    rng = np.random.default_rng(20260823)
    ok = True
    for k in range(50):
        d_env = 2 + k % 3
        env = random_density(rng, (d_env,))
        u = haar_unitary(2 * d_env, rng)
        eta = eta_diagnostics(CircuitProcessSpec(n=1, d=2, env_state=env, unitaries=(u,)))
        ok &= abs(eta.in_env_ancilla - (2 * LN2 - eta.kept)) <= 1e-8
        ok &= eta.inout_ancilla <= 2 * (2 * LN2 - eta.kept) + 1e-8
    report(3, "information-exchange identities on random dilations", ok)


def test_criterion_04_two_step_depolarizing_values():
    ok = True
    rep0 = correlation_report(nm_depolarizing_process(0.0))
    ok &= abs(rep0.step_markov[0] - 2 * LN2) <= 1e-8
    ok &= abs(rep0.step_markov[1] - 2 * LN2) <= 1e-8
    ok &= abs(rep0.non_markov) <= 1e-8
    ok &= abs(rep0.total - 4 * LN2) <= 1e-8
    rep1 = correlation_report(nm_depolarizing_process(1.0))
    ok &= abs(rep1.step_markov[0]) <= 1e-8
    ok &= abs(rep1.step_markov[1]) <= 1e-8
    ok &= abs(rep1.non_markov - 2 * LN2) <= 1e-8
    ok &= abs(rep1.total - 2 * LN2) <= 1e-8
    for j in range(21):
        rep = correlation_report(nm_depolarizing_process(j / 20))
        ok &= abs(rep.step_markov[0] - rep.step_markov[1]) <= 1e-8
    report(4, "two-step depolarizing caption values", ok)


def test_criterion_05_cnot_swap_values():
    proc = cnot_swap_process()
    rep = correlation_report(proc)
    ok = (
        abs(rep.step_markov[0] - LN2) <= 1e-8
        and abs(rep.step_markov[1]) <= 1e-8
        and abs(rep.non_markov - 2 * LN2) <= 1e-8
        and abs(rep.total - 3 * LN2) <= 1e-8
    )
    v = np.zeros(8)
    v[0] = v[7] = 1.0 / math.sqrt(2)
    ghz = np.outer(v, v)
    built = DensityMatrix(kron(ghz, np.eye(2) / 2), (2, 2, 2, 2))
    expected = permute_subsystems(built, (0, 1, 3, 2))
    ok &= trace_distance(proc.state, expected) <= 1e-9
    report(5, "CNOT+SWAP process values and product form", ok)


def test_criterion_06_swap_chain_saturation():
    ok = True
    for n in (2, 3, 4):
        for d in (2, 3):
            rep = correlation_report(swap_chain_process(n, d))
            ok &= abs(rep.non_markov - 2 * (n - 1) * math.log(d)) <= 1e-8
            ok &= abs(rep.markov) <= 1e-8
            (max_nonmarkov,) = audit_bounds(rep).slack("max_nonmarkov")
            ok &= abs(max_nonmarkov) <= 1e-8
    report(6, "swap chain saturates the maximum non-Markovianity", ok)


def test_criterion_07_randomized_bound_audit():
    ok = True
    worst_causality = 0.0
    violations = 0
    specs = [RandomSpec(n=3, d=2, d_env=4, seed=s) for s in range(1000)]
    specs += [RandomSpec(n=4, d=2, d_env=4, seed=10_000 + s) for s in range(200)]
    for spec in specs:
        pt = random_process(spec)
        ok &= pt.causality.tol == 1e-9 and pt.causality.passed
        worst_causality = max(worst_causality, pt.causality.worst)
        audit = audit_bounds(correlation_report(pt), 1e-8)
        if not audit.passed:
            violations += 1
    ok &= violations == 0 and worst_causality <= 1e-9
    print(
        f"  (audit: {len(specs)} samples, worst causality residual "
        f"{worst_causality:.2e}, violations {violations})"
    )
    report(7, "randomized audit of all proved bounds", ok)


def test_criterion_08_dual_formula_nonmarkovianity():
    ok = True
    for s in range(200):
        n = 2 + s % 2
        pt = random_process(RandomSpec(n=n, d=2, d_env=4, seed=20_000 + s))
        rep = correlation_report(pt)
        crosscheck = non_markovianity_crosscheck(pt)
        ok &= math.isfinite(crosscheck)
        ok &= abs(crosscheck - rep.non_markov) <= 1e-8
    report(8, "entropy-form N equals relative-entropy form", ok)


def test_criterion_09_additivity():
    ok = True
    processes = [
        nm_depolarizing_process(p) for p in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]
    processes.append(cnot_swap_process())
    processes += [swap_chain_process(n, d) for n in (2, 3) for d in (2, 3)]
    processes += [
        random_process(RandomSpec(n=2 + s % 3, d=2, d_env=3, seed=30_000 + s))
        for s in range(50)
    ]
    for proc in processes:
        ok &= correlation_report(proc).additivity_residual <= 1e-10
    report(9, "additivity of total correlations", ok)


def test_criterion_10_entropy_lemmas():
    rng = np.random.default_rng(5150)
    ok = True
    for _ in range(500):
        da, db = rng.integers(2, 7), rng.integers(2, 7)
        rho = random_density(rng, (int(da), int(db)))
        sa = von_neumann_entropy(partial_trace(rho, (0,)))
        sb = von_neumann_entropy(partial_trace(rho, (1,)))
        sab = von_neumann_entropy(rho)
        ok &= abs(sa - sb) <= sab + 1e-8
        ok &= sab <= sa + sb + 1e-8
    for _ in range(200):
        da, db = rng.integers(2, 7), rng.integers(2, 7)
        psi = random_pure(rng, (int(da), int(db)))
        sa = von_neumann_entropy(partial_trace(psi, (0,)))
        sb = von_neumann_entropy(partial_trace(psi, (1,)))
        ok &= abs(sa - sb) <= 1e-8
    report(10, "triangle inequality, subadditivity, pure bipartitions", ok)


def test_criterion_11_two_step_implications():
    ok = True
    for s in range(500):
        pt = random_process(RandomSpec(n=2, d=2, d_env=2 + s % 3, seed=40_000 + s))
        rep = correlation_report(pt)
        for eps in (0.01, 0.1, 0.5):
            flags = implication_checks(rep, eps)
            ok &= "violated" not in flags.values()
    report(11, "two-step implication block never violated", ok)
