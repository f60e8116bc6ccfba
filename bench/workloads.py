"""The benchmark's workloads: the CLI calls each one makes, and their inputs.

Every random input comes from the workload seed alone. The outputs of every
call a seed can produce are stored in ``reference/<workload>.json``, so each
workload draws its inputs from a fixed pool of reference entries:

- the audits take consecutive ``--seed`` ranges, starting at a pool position
  drawn from the workload seed and wrapping round the pool;
- ``analysis-mix`` draws one input variant from the workload seed and writes
  its Haar process specs, Choi files and the non-causal Choi file in set-up.

The process specs and Choi files are written by this module in the formats
the README documents; only the Choi matrices of the causal files come from
the program (``build_from_circuit``).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Call:
    key: str               # reference entry that holds the expected output
    argv: tuple[str, ...]  # arguments of ``proctensor.cli.main``
    out: Path              # file the call writes its report or CSV to
    items: int             # items the call completes


class AuditWorkload:
    """``audit-random`` over consecutive seed ranges of a fixed pool."""

    def __init__(self, name: str, n: int, samples: int, pool: int, speed_sensitivity: float):
        self.name = name
        self.n = n
        self.samples = samples  # samples per call
        self.pool = pool        # calls with a stored reference
        self.speed_sensitivity = speed_sensitivity

    def _call(self, k: int, work: Path) -> Call:
        base = (k % self.pool) * self.samples
        argv = (
            "audit-random", "--n", str(self.n), "--d", "2", "--denv", "4",
            "--samples", str(self.samples), "--seed", str(base),
            "--out", str(work / "audit.txt"),
        )
        return Call(f"seed={base}", argv, work / "audit.txt", self.samples)

    def prepare(self, seed: int, work: Path) -> "Plan":
        start = random.Random(seed).randrange(self.pool)
        return Plan(
            warmup=self._call(start + self.pool - 1, work),
            calls=[self._call(start + i, work) for i in range(self.pool)],
            round_size=1,
        )

    def reference_calls(self, work: Path):
        """Every call a seed can produce, for writing the reference file."""
        for k in range(self.pool):
            yield self._call(k, work)


class AnalysisMix:
    """Eleven fixed calls: ``verify``, ``analyze``, ``emit-figure`` and a sweep.

    Two of the eleven verify an n=4 Choi file, the slowest call. With the
    slowest kind at 2/11 of the calls, the 90th percentile of call times
    falls inside that kind's cluster, and with an odd count the median falls
    inside the middle kind's cluster; on the edge between two clusters
    either would jump from run to run.
    """

    name = "analysis-mix"
    pool = 16  # input variants with a stored reference
    speed_sensitivity = 1.0

    # (label, n, d, d_env) of the causal Choi files and the process specs
    CHOI = (("choi-n3-d2", 3, 2, 4), ("choi-n4-d2", 4, 2, 2), ("choi-n4-d2-b", 4, 2, 2),
            ("choi-n2-d3", 2, 3, 2))
    SPECS = (("spec-n2-d2", 2, 2, 2), ("spec-n3-d2", 3, 2, 4))
    NONCAUSAL = ("noncausal-n2-d2", 2, 2)

    def _calls(self, v: int, work: Path) -> list[Call]:
        files = work / f"v{v}"
        txt, csv = work / "out.txt", work / "out.csv"

        def call(key, *argv, out=txt):
            return Call(key, (*argv, "--out", str(out)), out, 1)

        calls = [call(f"v{v}/verify/{label}", "verify", "--in", str(files / label))
                 for label, *_ in self.CHOI]
        label = self.NONCAUSAL[0]
        calls.append(call(f"v{v}/verify/{label}", "verify", "--in", str(files / label)))
        calls += [call(f"v{v}/analyze/{label}", "analyze", "--in", str(files / f"{label}.json"))
                  for label, *_ in self.SPECS]
        calls += [call(f"v{v}/verify/{label}", "verify", "--in", str(files / f"{label}.json"))
                  for label, *_ in self.SPECS]
        calls.append(call("fig6", "emit-figure", "--figure", "fig6", "--grid", "21", out=csv))
        calls.append(call("sweep", "sweep-depolarizing", "--d", "2,3,4", "--grid", "21", out=csv))
        return calls

    def write_inputs(self, v: int, work: Path) -> None:
        """Write variant ``v``'s process specs and Choi files."""
        from proctensor.linalg import DensityMatrix
        from proctensor.processes import CircuitProcessSpec, build_from_circuit

        files = work / f"v{v}"
        files.mkdir(parents=True, exist_ok=True)
        for j, (label, n, d, de) in enumerate(self.SPECS + self.CHOI):
            env, us = random_circuit(np.random.default_rng([v, j]), n, d, de)
            if label.startswith("spec"):
                write_spec(files / f"{label}.json", n, d, env, us)
            else:
                spec = CircuitProcessSpec(n=n, d=d, env_state=DensityMatrix(env, (de,)), unitaries=us)
                write_choi(files / label, n, d, build_from_circuit(spec).state.mat)
        label, n, d = self.NONCAUSAL
        rng = np.random.default_rng([v, len(self.SPECS) + len(self.CHOI)])
        write_choi(files / label, n, d, random_density(rng, d ** (2 * n)))

    def prepare(self, seed: int, work: Path) -> "Plan":
        v = random.Random(seed).randrange(self.pool)
        self.write_inputs(v, work)
        calls = self._calls(v, work)
        return Plan(warmup=calls[0], calls=calls, round_size=len(calls))

    def reference_calls(self, work: Path):
        seen = set()
        for v in range(self.pool):
            self.write_inputs(v, work)
            for c in self._calls(v, work):
                if c.key not in seen:
                    seen.add(c.key)
                    yield c


@dataclass(frozen=True)
class Plan:
    warmup: Call
    calls: list[Call]  # made in this order, cyclically, in the timed phase
    round_size: int    # calls in one round; a run ends only on a round boundary


# speed_sensitivity: how much of the speed probe's slow-down a workload's
# calls show. A call that ran while the probe was f times slower than
# speed.REFERENCE_S is divided by 1 + speed_sensitivity * (f - 1). It is 1
# unless a workload's scaled times were seen to follow f. audit-n3 slows down
# less than the probe: with 1, its scaled times fell by up to 20% from the
# fastest to the slowest machine state, and 0.7 is the slope of its call
# time against f, fitted on the tuning machine over f from 0.9 to 2.1.
WORKLOADS = {
    w.name: w
    for w in (
        AuditWorkload("audit-n3", n=3, samples=100, pool=64, speed_sensitivity=0.7),
        AuditWorkload("audit-n5", n=5, samples=1, pool=256, speed_sensitivity=1.0),
        AnalysisMix(),
    )
}


# -- input generation (independent of the program's own samplers) ----------

def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


def random_circuit(rng: np.random.Generator, n: int, d: int, d_env: int):
    """Full-rank random environment and n Haar unitaries on system (x) environment."""
    env = random_density(rng, d_env)
    return env, tuple(haar_unitary(rng, d * d_env) for _ in range(n))


def _pairs(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def write_spec(path: Path, n: int, d: int, env: np.ndarray, unitaries) -> None:
    doc = {"n": n, "d": d, "d_env": len(env), "env": _pairs(env),
           "unitaries": [_pairs(u) for u in unitaries]}
    path.write_text(json.dumps(doc) + "\n")


def write_choi(path: Path, n: int, d: int, mat: np.ndarray) -> None:
    slots = ",".join(f"i{m // 2}" if m % 2 == 0 else f"o{(m + 1) // 2}" for m in range(2 * n))
    lines = [f"proctensor-choi n={n} d={d} slots={slots}"]
    lines += [" ".join(f"{z.real!r} {z.imag!r}" for z in row.tolist()) for row in mat]
    path.write_text("\n".join(lines) + "\n")
