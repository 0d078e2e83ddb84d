"""In-memory span recorder that times calls into bandlab's modules from outside.

`Recorder.installed()` replaces every public function of the seven library
modules, and every public method of the classes they define, by a wrapper
that opens a span, in every namespace where callers look the name up: the
`bandlab` package and each `bandlab.<module>`, so `bandlab.spectra.assemble`,
`bandlab.analysis.enumerate_basis` and `bandlab.spectra.eigh` are all timed.
It also counts the numpy `eigvalsh`/`eigh` calls made under `spectra.eigh`.
Everything is restored when the block exits.  The library code is untouched.

A span is (name, layer, start, end, parent); spans are kept in parallel
lists and only turned into arrays after the run.  A span's self time is its
duration minus the durations of its direct children.  Calls are strictly
nested on the one thread the benchmark runs, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("lattice", "potential", "blowup", "fiber", "spectra", "observables", "analysis")
HARNESS = "bench"  # spans the benchmark opens around setup, call and check


def lapack_flops(n: int, is_complex: bool, vectors: bool) -> float:
    """Computed flops of one dense Hermitian eigensolve of order n.

    Tridiagonal reduction takes 4/3 n^3 real flops, and the back
    transformation for eigenvectors 2 n^3 more; a complex multiply-add
    counts as 4 real ones.  The tridiagonal solve itself is O(n^2) and left
    out.
    """
    base = (4.0 / 3.0 + (2.0 if vectors else 0.0)) * float(n) ** 3
    return 4.0 * base if is_complex else base


class Recorder:
    """Spans and counters of one traced run, on one thread."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.failed: list[bool] = []
        self.ops: list[int] = []        # operation index each span belongs to
        self.sizes: dict[int, int] = {}  # fiber.assemble span -> basis size M
        self.lapack_flops: list[float] = []  # one entry per numpy eigensolve under eigh
        self.op = -1
        self._stack: list[int] = []
        self._eigh_depth = 0

    def begin(self, name: str, layer: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0)
        self.failed.append(False)
        self._stack.append(i)
        self.starts.append(time.perf_counter_ns())
        return i

    def end(self, i: int, failed: bool = False) -> None:
        self.ends[i] = time.perf_counter_ns()
        self.failed[i] = failed
        self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str = HARNESS):
        i = self.begin(name, layer)
        try:
            yield
        except BaseException:
            self.end(i, failed=True)
            raise
        self.end(i)

    def _wrap(self, fn, name: str, layer: str):
        rec = self
        is_eigh = name == "spectra.eigh"
        is_assemble = name == "fiber.assemble"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = rec.begin(name, layer)
            rec._eigh_depth += is_eigh
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec.end(i, failed=True)
                raise
            finally:
                rec._eigh_depth -= is_eigh
            rec.end(i)
            if is_assemble:
                rec.sizes[i] = len(out.basis)
            return out

        return wrapper

    def _count_lapack(self, fn, vectors: bool):
        rec = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if rec._eigh_depth:
                arr = np.asarray(a)
                rec.lapack_flops.append(lapack_flops(arr.shape[-1], np.iscomplexobj(arr), vectors))
            return fn(a, *args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap the library's public functions and methods for the block."""
        import bandlab

        modules = {layer: importlib.import_module(f"bandlab.{layer}") for layer in LAYERS}
        wrappers = {}  # id(original function) -> wrapper
        patches = []   # (owner, attribute, original, replacement)
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{name}", layer)
                elif inspect.isclass(obj):
                    for attr, member in vars(obj).items():
                        if not attr.startswith("_") and inspect.isfunction(member):
                            qual = f"{layer}.{name}.{attr}"
                            patches.append((obj, attr, member, self._wrap(member, qual, layer)))
        for ns in (bandlab, *modules.values()):
            for name, obj in vars(ns).items():
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    patches.append((ns, name, obj, wrappers[id(obj)]))
        linalg = np.linalg
        patches.append((linalg, "eigvalsh", linalg.eigvalsh,
                        self._count_lapack(linalg.eigvalsh, vectors=False)))
        patches.append((linalg, "eigh", linalg.eigh,
                        self._count_lapack(linalg.eigh, vectors=True)))
        done = []
        try:
            for owner, attr, original, replacement in patches:
                setattr(owner, attr, replacement)
                done.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(done):
                setattr(owner, attr, original)

    def arrays(self) -> dict:
        starts = np.array(self.starts, dtype=np.int64)
        ends = np.array(self.ends, dtype=np.int64)
        parents = np.array(self.parents, dtype=np.int64)
        dur = (ends - starts) * 1e-9
        child = np.zeros(dur.size)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return {"dur": dur, "self": dur - child, "layers": np.array(self.layers),
                "names": np.array(self.names), "failed": np.array(self.failed, dtype=bool)}

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: name, layer, start/end ns, parent index."""
        with gzip.open(path, "wt") as fh:
            for row in zip(self.names, self.layers, self.starts, self.ends, self.parents,
                           self.ops):
                fh.write(json.dumps(dict(zip(
                    ("name", "layer", "start_ns", "end_ns", "parent", "op"), row))) + "\n")
