import contextlib
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest

import proctensor.processes
from proctensor import CircuitProcessSpec, DensityMatrix, haar_unitary
from proctensor.config import DEFAULT_TOL
from proctensor.processes import random_env


@contextlib.contextmanager
def causal_tol(tol: float):
    """Within the block, stacks are built and judged at ``tol``, as ``processes.DEFAULT_TOL``."""
    at_tol = dataclasses.replace(DEFAULT_TOL, causal=tol)
    with mock.patch.object(proctensor.processes, "DEFAULT_TOL", at_tol):
        yield


def stack_plan(monkeypatch, stack: int, part: int) -> None:
    """From now on, stacks of at most ``stack`` samples and transfer slices of at most ``part``.

    Both are the fewest near-equal parts of their whole, as the budget's are.
    """
    monkeypatch.setattr(proctensor.processes, "_stack_size", lambda n, d, d_env: stack)
    monkeypatch.setattr(proctensor.processes, "_slice_size", lambda count, n, d, d_env: part)


def record_plan(monkeypatch) -> tuple[list[int], list[int]]:
    """The sizes of the stacks built from now on, and of their transfer slices, each in order."""
    stacks, slices = [], []
    build, transfer = proctensor.processes._build_stack, proctensor.processes._transfer

    def building(unitaries, *args):
        stacks.append(len(unitaries))
        return build(unitaries, *args)

    def transferring(unitaries, *args):
        slices.append(len(unitaries))
        return transfer(unitaries, *args)

    monkeypatch.setattr(proctensor.processes, "_build_stack", building)
    monkeypatch.setattr(proctensor.processes, "_transfer", transferring)
    return stacks, slices


def near_equal(count: int, size: int) -> list[int]:
    """Sizes of the fewest parts of at most ``size`` that cover ``count``, as the plans make them."""
    parts = -(-count // size)
    return [(k + 1) * count // parts - k * count // parts for k in range(parts)]


def random_density(rng: np.random.Generator, dims, rank: int | None = None) -> DensityMatrix:
    """Random full(or fixed)-rank density matrix from a Ginibre factor."""
    dims = tuple(dims)
    dim = math.prod(dims)
    r = dim if rank is None else rank
    g = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    mat = g @ g.conj().T
    return DensityMatrix(mat / np.trace(mat).real, dims)


def count_eigh(monkeypatch) -> list[int]:
    """Patch ``np.linalg.eigh`` to record the side of every matrix it is called on."""
    sides, eigh = [], np.linalg.eigh

    def counting_eigh(m, *args, **kwargs):
        sides.append(m.shape[0])
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return sides


def count_states(monkeypatch) -> list[tuple[int, ...]]:
    """Patch ``DensityMatrix.__init__`` to record the dims of every state constructed from now on."""
    seen, init = [], DensityMatrix.__init__

    def recording_init(self, mat, dims, **kwargs):
        seen.append(tuple(dims))
        init(self, mat, dims, **kwargs)

    monkeypatch.setattr(DensityMatrix, "__init__", recording_init)
    return seen


def random_pure(rng: np.random.Generator, dims) -> DensityMatrix:
    dims = tuple(dims)
    dim = math.prod(dims)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()), dims)


def leaky_unitary(u: np.ndarray, leak: float, rng, spread: bool = False) -> np.ndarray:
    """u (I + leak H/||H||) for a random Hermitian H: off unitary by about 2 leak.

    With ``spread``, H is diagonal with random signs, so every singular value
    of the result is off 1 by about leak, and ||U^dag U - I||_F is sqrt(D)
    times its operator norm, the largest ratio the two norms can have.
    """
    if spread:
        h = np.diag(rng.choice([-1.0, 1.0], size=u.shape[0]))
    else:
        g = rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape)
        h = g + g.conj().T
        h /= np.max(np.abs(np.linalg.eigvalsh(h)))
    return u @ (np.eye(u.shape[0]) + leak * h)


def seeded_circuit_spec(
    n, d, d_env, seed, env_init, leak=0.0, env_trace=1.0, spread=False
) -> CircuitProcessSpec:
    """The circuit ``random_process`` simulates for this RandomSpec.

    A nonzero ``leak`` perturbs each unitary by ``leaky_unitary`` (diagonal
    with ``spread``), with H drawn from a second generator so the Haar
    unitaries stay the same. The environment is scaled to trace ``env_trace``.
    """
    rng = np.random.default_rng(seed)
    env = random_env(rng, d_env, env_init)
    env = DensityMatrix(None, (d_env,), factor=env * math.sqrt(env_trace))
    us = tuple(haar_unitary(d * d_env, rng) for _ in range(n))
    if leak:
        leak_rng = np.random.default_rng([seed, 1])
        us = tuple(leaky_unitary(u, leak, leak_rng, spread) for u in us)
    return CircuitProcessSpec(n=n, d=d, env_state=env, unitaries=us)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
