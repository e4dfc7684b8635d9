"""In-memory span tracing of perfstruct, installed from outside the package.

``Tracer.install`` wraps every public function of each perfstruct layer
module, plus the Matrix and Coloring methods the benchmark reports on, and
rebinds the wrapper wherever the original is bound: ``structures.eig`` as
well as ``matrix.eig``, so calls that cross layers are caught.  Each call
appends one span ``[name, start, end, parent]`` to a list; nothing is
written until ``dump``.  ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

#: the package's modules, one layer each; ``errors`` does no work
LAYERS = ("matrix", "structures", "graphs", "products", "contraction",
          "colorings", "files", "cli")


def _count_scalar_ops(counters, args, out):
    a, b = args
    counters["matrix.matmul_exact.scalar_ops"] += a.rows * a.cols * b.cols


def _count_entries(counters, args, out):
    if args[0].domain == "exact":
        counters["matrix.to_complex.entries"] += args[0].data.size


def _max_residual(counters, args, out):
    key = "matrix.eig.residual_max"
    counters[key] = max(counters[key], out.residual)


def _count_accepts(counters, args, out):
    counters["colorings.verify_coloring.accepted"] += out is not None


def _count_census(counters, args, out):
    counters["colorings.census.nodes"] += out.evaluated
    counters["colorings.census.results"] += len(out.results)


#: per-call hooks that turn a call's arguments and result into counts
_POST = {
    "matrix.matmul_exact": _count_scalar_ops,
    "matrix.to_complex": _count_entries,
    "matrix.eig": _max_residual,
    "colorings.verify_coloring": _count_accepts,
    "colorings.census": _count_census,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._current = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._current]
        self._current = len(self.spans)
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list):
        rec[2] = perf_counter()
        self._current = rec[3]

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call into a layer."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn):
        post = _POST.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if post is not None:
                post(self.counters, args, out)
            return out
        return traced

    def _wrap_matmul(self, fn):
        exact = self._wrap("matrix.matmul_exact", fn)
        complex_ = self._wrap("matrix.matmul_complex", fn)

        @functools.wraps(fn)
        def traced(a, b):
            return (exact if a.domain == "exact" else complex_)(a, b)
        return traced

    # -- installing wrappers ------------------------------------------

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        mods = {layer: importlib.import_module(f"perfstruct.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        bindings = [m for name, m in list(sys.modules.items())
                    if name == "perfstruct" or name.startswith("perfstruct.")]
        for mod in bindings:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])

        matrix_cls = mods["matrix"].Matrix
        self._patch(matrix_cls, "__matmul__", self._wrap_matmul(matrix_cls.__matmul__))
        for attr in ("to_complex", "inverse"):
            self._patch(matrix_cls, attr,
                        self._wrap(f"matrix.{attr}", getattr(matrix_cls, attr)))
        self._patch(matrix_cls, "exact",
                    staticmethod(self._wrap("matrix.exact", matrix_cls.exact)))
        coloring_cls = mods["colorings"].Coloring
        self._patch(coloring_cls, "from_colors", staticmethod(
            self._wrap("colorings.Coloring.from_colors", coloring_cls.from_colors)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds); self time excludes child spans."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, tuple[int, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (end - start) - covered[i])
        return out

    def dump(self, path):
        """Write every span, one JSON array per line, once at the end of a run."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
