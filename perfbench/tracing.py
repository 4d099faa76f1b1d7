"""Spans around the calls into each kernelspectra module, recorded from
outside the package.

Each listed public function is replaced by a timing wrapper at every
module binding it is reached through (the package imports by name, so
`spectrum` is bound in `simulate`, `sparse_pca`, `cli` and the package
itself).  Spans nest on one stack, so a span's self time is its duration
minus its direct children's.  A call made while a span of the same name
is open (`KernelSpec.__call__` delegating to `KernelExpansion.__call__`)
is folded into the outer span.  Spans stay in memory until `dump`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _gram_gflop(args, kwargs, result):
    p, n = args[0].shape
    return {"gram_gflop": 2.0 * p * p * n / 1e9}


def _bytes_written(args, kwargs, result):
    return {"cli.bytes_written": result.stat().st_size}


def _elements_evaluated(args, kwargs, result):
    return {"hermite.kernel_eval.elements": np.size(args[1])}


# (span name, module, attribute, counter hook).  A hook maps
# (args, kwargs, result) to counter increments.
TARGETS = (
    ("cli", "cli", "main", None),
    ("cli.write_csv", "cli", "write_csv", _bytes_written),
    ("cli.write_json", "cli", "write_json", _bytes_written),
    ("hermite.kernel_eval", "hermite", "KernelSpec.__call__", _elements_evaluated),
    ("hermite.kernel_eval", "hermite", "KernelExpansion.__call__", _elements_evaluated),
    ("hermite.hermite_eval", "hermite", "hermite_eval", None),
    ("hermite.project_kernel", "hermite", "project_kernel", None),
    ("hermite.kernel_moments", "hermite", "kernel_moments", None),
    ("hermite.build_quadrature", "hermite", "build_quadrature", None),
    ("limit_law.moment", "limit_law", "moment", None),
    ("limit_law.support", "limit_law", "support", None),
    ("limit_law.density", "limit_law", "density",
     lambda a, k, r: {"limit_law.density.points": np.size(a[1])}),
    ("simulate.sample_data", "simulate", "sample_data", None),
    ("simulate.build_kernel_matrix", "simulate", "build_kernel_matrix", _gram_gflop),
    ("simulate.spectrum", "simulate", "spectrum",
     lambda a, k, r: {"simulate.spectrum.eigs_returned": len(r.eigenvalues)}),
    ("simulate.ks_distance", "simulate", "ks_distance", None),
    ("simulate.rank_two_correction", "simulate", "rank_two_correction", None),
    ("simulate.decompose_hermite_sum", "simulate", "decompose_hermite_sum", None),
    ("sparse_pca.sample_spiked_data", "sparse_pca", "sample_spiked_data", None),
    ("sparse_pca.thresholded_covariance", "sparse_pca", "thresholded_covariance", _gram_gflop),
    ("sparse_pca.null_prediction", "sparse_pca", "null_prediction", None),
    ("lgraphs.enumerate_multilabelings", "lgraphs", "enumerate_multilabelings",
     lambda a, k, r: {"lgraphs.enumerate_multilabelings.classes": len(r)}),
    ("lgraphs.verify_lemmas", "lgraphs", "verify_lemmas", None),
    ("lgraphs.sample_trace_moment", "lgraphs", "sample_trace_moment", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, float, float]] = []  # name, parent, start, end
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[tuple[str, int]] = []  # open spans: name, index

    def _wrap(self, name: str, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if any(open_name == name for open_name, _ in self._stack):
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1][1] if self._stack else -1
            self.spans.append((name, parent, 0.0, 0.0))
            self._stack.append((name, index))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, parent, start, end)
            self.counters[name + ".calls"] += 1
            if hook is not None:
                for counter, value in hook(args, kwargs, result).items():
                    self.counters[counter] += value
            return result

        return traced

    def install(self, package: str = "kernelspectra") -> None:
        """Wrap every target at each of its bindings in the loaded package."""
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for name, module, attr, hook in TARGETS:
            owner = sys.modules[f"{package}.{module}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self._wrap(name, getattr(cls, method), hook))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, hook)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, binding, wrapped)

    def totals(self) -> dict[str, float]:
        """Inclusive (`.s`) and self (`.self_s`) seconds per span name,
        plus the counters."""
        out: dict[str, float] = defaultdict(float, self.counters)
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, _, start, end), children in zip(self.spans, child_time):
            out[name + ".s"] += end - start
            out[name + ".self_s"] += end - start - children
        return out

    def dump(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(extra, spans=[
            {"name": n, "parent": p, "start": s, "end": e} for n, p, s, e in self.spans
        ])
        path.write_text(json.dumps(doc) + "\n")
