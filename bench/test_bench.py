"""Tests of the benchmark itself: output checks, tracing and input generation.

    python3 -m pytest bench
"""

from __future__ import annotations

import copy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checks import load_reference, mismatch
from tracer import BINDING_MODULES, Tracer
from worker import check, import_cli, run_call
from workloads import WORKLOADS

cli = import_cli()
BENCH = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def mix_records(tmp_path_factory):
    """One pass of analysis-mix calls with their exit statuses and outputs."""
    work = tmp_path_factory.mktemp("mix")
    plan = WORKLOADS["analysis-mix"].prepare(7, work)
    return [(call, *run_call(cli, call)[:2]) for call in plan.calls]


def _tamper_number(text: str, delta: float) -> str:
    """Shift the first float of a report or CSV by ``delta``."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        key, sep, value = line.partition(" = ")
        if sep and "." in value:
            lines[i] = f"{key} = {float(value) + delta!r}"
            return "\n".join(lines) + "\n"
    raise AssertionError("no float in output")


def failed(records, reference) -> int:
    return sum(not check(reference, *record) for record in records)


def test_outputs_match_reference(mix_records):
    assert failed(mix_records, load_reference("analysis-mix")) == 0


@pytest.mark.parametrize("delta, counted", [(1e-9, 1), (1e-14, 0)])
def test_tampered_reference_number_is_counted(mix_records, delta, counted):
    reference = copy.deepcopy(load_reference("analysis-mix"))
    key = mix_records[0][0].key
    reference[key]["out"] = _tamper_number(reference[key]["out"], delta)
    assert failed(mix_records, reference) == counted


def test_wrong_exit_status_is_counted(mix_records):
    noncausal = [r for r in mix_records if "noncausal" in r[0].key]
    assert [code for _, code, _ in noncausal] == [1]
    reference = load_reference("analysis-mix")
    call, _, out = noncausal[0]
    assert failed([(call, 0, out)], reference) == 1
    tampered = copy.deepcopy(reference)
    tampered[call.key]["exit"] = 0
    assert failed(noncausal, tampered) == 1


def test_counts_and_shapes_must_match_exactly():
    audit = {"exit": 0, "out": "samples = 100\nmin_slack_ordered = 1.5\nviolations = 0\n"}
    assert mismatch(audit, 0, audit["out"]) is None
    assert mismatch(audit, 0, audit["out"].replace("violations = 0", "violations = 1"))
    assert mismatch(audit, 0, audit["out"].replace("samples = 100", "samples = 100.0"))
    csv = {"exit": 0, "out": "p,M\n0.0,1.0\n0.5,0.25\n"}
    assert mismatch(csv, 0, "p,M\n0.0,1.0\n0.5,0.25\n") is None
    assert mismatch(csv, 0, "p,M\n0.0,1.0\n") is not None
    assert mismatch(csv, 0, "p,M\n0.0,1.0,2.0\n0.5,0.25\n") is not None
    assert mismatch(csv, 0, "p,N\n0.0,1.0\n0.5,0.25\n") is not None


def _bindings():
    import importlib

    from proctensor.linalg import DensityMatrix

    out = {}
    for name in BINDING_MODULES:
        mod = importlib.import_module(name)
        out.update({(name, attr): value for attr, value in vars(mod).items() if callable(value)})
    out["DensityMatrix.__init__"] = DensityMatrix.__init__
    out["DensityMatrix.mat"] = vars(DensityMatrix)["mat"]
    return out


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    import proctensor.cli
    import proctensor.processes

    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        # cli imports verify_causality by name: both bindings share one wrapper
        assert proctensor.cli.verify_causality is proctensor.processes.verify_causality
        assert proctensor.cli.verify_causality is not before[("proctensor.processes", "verify_causality")]
        argv = ["audit-random", "--n", "3", "--samples", "2", "--out", str(tmp_path / "a.txt")]
        assert proctensor.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert _bindings() == before

    times = tracer.self_times()
    assert times["processes.verify_causality"][0] == 2 * times["processes.build_from_circuit"][0]
    assert times["linalg.DensityMatrix"][0] == 2 * 44
    assert tracer.counts["linalg.trace_distance.dense_calls"] == 2 * 8
    assert tracer.max_dense_side == 32
    # self times partition the root span
    (root,) = [s for s in tracer.spans if s[1] == 0]
    assert sum(secs for _, secs in times.values()) == pytest.approx(root[4] - root[3], abs=1e-9)


def test_inputs_come_from_the_seed_alone(tmp_path):
    mix = WORKLOADS["analysis-mix"]
    mix.prepare(3, tmp_path / "a")
    mix.prepare(3, tmp_path / "b")
    files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    assert files_a
    for rel in files_a:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
    audit = WORKLOADS["audit-n5"]
    keys = [c.key for c in audit.prepare(11, tmp_path).calls]
    assert keys == [c.key for c in audit.prepare(11, tmp_path).calls]
    assert keys != [c.key for c in audit.prepare(12, tmp_path).calls]


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "audit-n5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
