"""Machine-speed probe: a fixed kernel timed between chunks of CLI calls.

The machine the benchmark was tuned on (2 vCPUs shared with other tenants)
runs the same call up to 1.6x slower for seconds to minutes at a time. A
fixed kernel slows down with it: timed right before and after a chunk of
calls, it gives the chunk's slow-down factor, and the benchmark divides the
chunk's call times by that factor. Call times are then in seconds at the
reference speed, steady across runs where raw wall times are not.

The kernel mixes the three kinds of work the program does: small dense
LAPACK calls, numpy calls on tiny arrays (where call overhead dominates) and
plain Python. It does not use proctensor, so a change to the program does
not move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# probe() on an Intel Xeon at 2.1 GHz (1 BLAS thread) while uncontended
REFERENCE_S = 0.0125

_rng = np.random.default_rng(20231210)
_HERM = [g @ g.conj().T for g in (_rng.standard_normal((24, 24)) + 1j * _rng.standard_normal((24, 24))
                                  for _ in range(4))]
_SMALL = [_rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4)) for _ in range(8)]


def probe() -> float:
    """Wall seconds of the fixed kernel."""
    t0 = perf_counter()
    for m in _HERM + _HERM:
        np.linalg.eigvalsh(m)
        np.linalg.qr(m)
    acc = 0
    for _ in range(1200):
        table = {i: (i * i, str(i)) for i in range(10)}
        acc += sum(v[0] for v in table.values())
    for _ in range(40):
        for a in _SMALL:
            b = np.kron(a, a).reshape((2,) * 8).transpose(1, 0, 3, 2, 5, 4, 7, 6).reshape(16, 16)
            np.abs(b).sum()
            b.conj().T @ b
    return perf_counter() - t0
