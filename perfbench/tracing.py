"""Per-layer tracing from outside the library.

`Tracer.install` wraps every public function of the traced modules and puts
the wrapper in place of the original under every name that refers to it in
any `blockspectra` module.  The library imports functions by name
(`from .linalg import eig_sym`) and calls helpers through module globals
(`perron_of_inverse` reaches `cholesky_solve` that way), so patching only the
defining module would miss most calls.

Each call records one span (name, start, end, parent span, operation id).
Spans stay in memory until the run ends.
"""

import inspect
import sys
import time

import numpy as np

TRACED_MODULES = ("linalg", "spectral", "graph", "blocks", "verify", "fileio")
ROOT_SPAN = "cli"


class Tracer:
    def __init__(self):
        self.spans = []         # (name, start, end, parent index or -1, op id)
        self.eig_inputs = []    # every matrix eig_sym received, copied
        self.op_id = -1
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn, before=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)

        traced.__wrapped__ = fn
        return traced

    def _keep_eig_input(self, args):
        self.eig_inputs.append(np.array(args[0], dtype=float))

    def install(self):
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"blockspectra.{short}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                before = self._keep_eig_input if obj.__name__ == "eig_sym" else None
                wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj, before))
        for name, module in list(sys.modules.items()):
            if name != "blockspectra" and not name.startswith("blockspectra."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, obj))

    def remove(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def call(self, op_id, fn, *args):
        """Run one operation under a root span."""
        self.op_id = op_id
        return self._wrap(ROOT_SPAN, fn)(*args)

    def layers(self):
        """{span name: (calls, self seconds)}; self time is the span's
        duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (end - start) - child[i])
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="ascii") as fh:
            fh.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{op}\n")


def eigh_reference_s(matrices, repeats=3):
    """numpy.linalg.eigh on each matrix, best of `repeats`, summed: the
    hardware reference for eig_sym, kept out of every traced span."""
    total = 0.0
    for m in matrices:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            np.linalg.eigh(m)
            best = min(best, time.perf_counter() - start)
        total += best
    return total
