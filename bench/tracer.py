"""Outside-in tracing of the proctensor layers.

The tracer wraps every public function of the six layer modules at every
``proctensor.*`` module attribute that binds it (``cli``, ``processes`` and
``metrics`` import by name, so one function can be bound in several
modules), plus ``DensityMatrix.__init__`` and the lazy ``DensityMatrix.mat``
property. Each wrapped call records a span ``(id, parent, name, start, end,
call)`` in memory; ``uninstall`` puts the original bindings back.

Span names are ``<layer>.<function>``; the constructor is
``linalg.DensityMatrix``. ``trace_distance`` calls are also classified by the
branch their arguments select (QR-projected or dense), and the largest side
of any dense state matrix built or read is kept as ``max_dense_side``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "io", "processes", "metrics", "channels", "linalg")
# modules whose attributes may bind a layer function
BINDING_MODULES = ("proctensor", "proctensor.config") + tuple(f"proctensor.{m}" for m in LAYERS)


class Tracer:
    """Span recorder; install it around the calls to trace, then uninstall."""

    def __init__(self, names: set[str] | None = None) -> None:
        self.names = names  # wrap only these span names when given
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self.counts: Counter[str] = Counter()
        self.max_dense_side = 0
        self.call_id = 0
        self._stack = [0]
        self._next_id = 1
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, self.call_id))

        return wrapper

    def _dense(self, side: int) -> None:
        if side > self.max_dense_side:
            self.max_dense_side = side

    def _trace_distance_hook(self, args) -> None:
        a, b = args[0], args[1]
        fa, fb = a.factor, b.factor
        if fa is not None and fb is not None and fa.shape[1] + fb.shape[1] < a.dim:
            self.counts["linalg.trace_distance.qr_calls"] += 1
        else:
            self.counts["linalg.trace_distance.dense_calls"] += 1

    def _density_matrix_hook(self, args) -> None:
        mat = args[1] if len(args) > 1 else None
        if mat is not None:
            self._dense(len(mat))

    # -- binding -----------------------------------------------------------

    def _wanted(self, name: str) -> bool:
        return self.names is None or name in self.names

    def install(self) -> None:
        """Replace every binding of the traced functions with its wrapper."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = [importlib.import_module(m) for m in BINDING_MODULES]
        layer_modules = {f"proctensor.{m}" for m in LAYERS}
        hooks = {"linalg.trace_distance": self._trace_distance_hook}
        wrappers = {}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ not in layer_modules:
                    continue
                name = f"{value.__module__.rpartition('.')[2]}.{value.__name__}"
                if not self._wanted(name):
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(name, value, hooks.get(name))
                self._saved.append((mod, attr, value))
                setattr(mod, attr, wrappers[value])

        from proctensor.linalg import DensityMatrix

        if self._wanted("linalg.DensityMatrix"):
            init = DensityMatrix.__init__
            self._saved.append((DensityMatrix, "__init__", init))
            DensityMatrix.__init__ = self._wrap(
                "linalg.DensityMatrix", init, self._density_matrix_hook
            )
        mat = vars(DensityMatrix)["mat"]
        self._saved.append((DensityMatrix, "mat", mat))
        dense = self._dense

        def read_mat(obj):
            dense(obj.dim)
            return mat.fget(obj)

        DensityMatrix.mat = property(read_mat, doc=mat.__doc__)

    def uninstall(self) -> None:
        """Restore the original bindings, in reverse order of replacement."""
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------

    def self_times(self, scale: dict[int, float] | None = None) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, seconds of self time).

        Self time is a span's duration minus the durations of its direct
        children; calls are synchronous, so children never overlap. ``scale``
        maps a call id to a factor applied to the times of its spans.
        """
        child: dict[int, float] = {}
        for _sid, parent, _name, t0, t1, _call in self.spans:
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
        out: dict[str, list] = {}
        for sid, _parent, name, t0, t1, call in self.spans:
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            factor = 1.0 if scale is None else scale[call]
            entry[1] += factor * ((t1 - t0) - child.get(sid, 0.0))
        return {name: (calls, secs) for name, (calls, secs) in out.items()}

    def write(self, path: Path) -> None:
        """Write the spans, one JSON array per line: id, parent, name, start, end, call."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
