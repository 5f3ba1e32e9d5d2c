"""In-memory span tracer for the layer boundaries of ``sdfslam``.

The package has no tracing hooks of its own, so the traced run replaces,
for its duration, the module attributes through which the layers call each
other. Each replacement records one span (name, start, end, parent) and the
counts that the call returns or raises. Spans stay in memory; self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from sdfslam import kernels, matching, slam, submaps


class Tracer:
    """Span list plus named counters, filled by the functions :meth:`wrap` makes."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span: list):
        span[2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, on_return=None, on_raise=None):
        """``fn`` recording a span per call.

        ``on_return(counts, args, result)`` and ``on_raise(counts, exc)`` run
        after the span closes, so their cost is not charged to the layer.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(span)
                if on_raise is not None:
                    on_raise(self.counts, exc)
                raise
            self._close(span)
            if on_return is not None:
                on_return(self.counts, args, result)
            return result

        return traced

    def layer_stats(self) -> dict[str, dict]:
        """Per span name: calls, self seconds and per-call durations."""
        child = np.zeros(len(self.spans))
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, dict] = {}
        for k, (name, start, end, _) in enumerate(self.spans):
            s = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": []})
            s["calls"] += 1
            s["self_s"] += end - start - child[k]
            s["durations"].append(end - start)
        return stats


def _update_stats(counts, args, stats):
    counts["mapping.cells_updated"] += stats.cells_updated
    counts["mapping.cells_carved"] += stats.cells_carved
    counts["mapping.cells_skipped"] += stats.cells_skipped


def _match_result(counts, args, result):
    counts["matching.matches"] += 1
    counts["matching.iters_stage1"] += result.iterations_stage1
    counts["matching.iters_stage2"] += result.iterations_stage2
    counts["matching.points_valid"] += result.points_used + result.points_trimmed
    counts["matching.points_trimmed"] += result.points_trimmed
    counts["matching.converged"] += bool(result.converged)


def _match_failure(counts, exc):
    if isinstance(exc, matching.SingularHessian):
        counts["matching.fail.singular_hessian"] += 1
    elif isinstance(exc, matching.TooFewPoints):
        counts["matching.fail.too_few_points"] += 1


def _points_in_arg(name, index):
    def record(counts, args, result):
        counts[f"{name}.points"] += len(args[index])
    return record


def _cells_returned(counts, args, result):
    counts["kernels.traverse_free.points"] += len(result[0])


def _patches():
    """(owner, attribute, span name, on_return, on_raise) for every boundary.

    The benchmark calls ``run_slam``, ``merge_submaps`` and ``pure_localize``
    through their modules. ``Submap.insert``, ``run_slam`` and
    ``pure_localize`` look up ``integrate_scan`` and ``match_two_stage`` as
    globals of their own modules, and every kernel caller goes through the
    ``kernels`` module attribute, so these are the attributes to replace.
    """
    kernel_points = {"bilinear_wf": 7, "bilinear_fw": 6, "bicubic_fw": 6}
    patches = [
        (slam, "run_slam", "slam.run_slam", None, None),
        (submaps, "merge_submaps", "submaps.merge_submaps", None, None),
        (submaps, "pure_localize", "submaps.pure_localize", None, None),
        (submaps, "integrate_scan", "mapping.integrate_scan", _update_stats, None),
        (submaps.SubmapCollection, "add_scan", "submaps.add_scan", None, None),
        (slam, "match_two_stage", "matching.match_two_stage", _match_result,
         _match_failure),
        (submaps, "match_two_stage", "matching.match_two_stage", _match_result,
         _match_failure),
        (matching, "gauss_newton", "matching.gauss_newton", None, None),
        (matching, "trim_points", "matching.trim_points", None, None),
        (kernels, "traverse_free", "kernels.traverse_free", _cells_returned, None),
    ]
    for name, index in kernel_points.items():
        span = f"kernels.{name}"
        patches.append((kernels, name, span, _points_in_arg(span, index), None))
    return patches


@contextmanager
def installed(tracer: Tracer):
    """Route the layer boundaries through ``tracer`` until the block exits."""
    saved = []
    try:
        for owner, attr, name, on_return, on_raise in _patches():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, on_return, on_raise))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
