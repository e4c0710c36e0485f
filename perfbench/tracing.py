"""Spans around the public functions of each meanset module.

The tracer replaces module attributes with wrappers for the length of a
``with tracer.installed():`` block.  It patches every attribute that
callers actually look up: ``from .convex import box_segment_min`` copies
the function into ``meanset.geodesics`` and ``meanset.boundary``, so those
names are wrapped along with ``meanset.convex.box_segment_min`` and the
package's own re-export ``meanset.box_segment_min``.  Each span records its name, start, end, thread
CPU time and parent id; every thread keeps its own stack, so the heat
map's worker threads nest correctly.  Spans stay in memory until
:meth:`Tracer.layer_metrics` folds them into per-layer figures.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import threading
import time


class Tracer:
    def __init__(self):
        self.spans = []        # (id, parent id, name, start, end, thread cpu s)
        self.counts = collections.Counter()
        self.workers = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def wrap(self, name: str, fn, on_result=None, on_error=None):
        """``fn`` recording one span per call under ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                t1 = time.perf_counter()
                cpu = time.thread_time() - c0
                stack.pop()
                self.spans.append((sid, parent, name, t0, t1, cpu))
            if on_result is not None:
                on_result(out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self, meanset):
        """Patch the layer boundaries of an imported ``meanset`` package."""
        saved = []

        def patch(owner, attr, name, **hooks):
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, **hooks)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            # the package re-exports the layer functions of their own modules
            if (getattr(original, "__module__", None) == getattr(owner, "__name__", None)
                    and getattr(meanset, attr, None) is original):
                saved.append((meanset, attr, original))
                setattr(meanset, attr, wrapper)

        cx_cls = meanset.complexes.CubicalComplex
        a_cls = meanset.recognition.PointSetA
        geo, cvx = meanset.geodesics, meanset.convex
        rec, bnd, hm = meanset.recognition, meanset.boundary, meanset.heatmap

        def geodesic_error(exc):
            if isinstance(exc, geo.GeodesicError):
                self.count("geodesics.errors")

        def feasibility(res):
            self.count("convex.feasibility_min_norm.iterations", res.iterations)
            if res.status == "stalled":
                self.count("convex.feasibility_min_norm.stalled")

        def workers(n):
            with self._lock:
                self.workers = max(self.workers, n)

        patch(cx_cls, "locate", "complexes.locate")
        patch(geo, "geodesic", "geodesics.geodesic", on_error=geodesic_error)
        patch(geo, "chain_length", "geodesics.chain_length")
        patch(geo, "vertex_upper_bound", "geodesics.vertex_upper_bound")
        for owner in (cvx, geo, bnd):
            patch(owner, "box_segment_min", "convex.box_segment_min")
        for owner in (cvx, bnd):
            patch(owner, "feasibility_min_norm", "convex.feasibility_min_norm",
                  on_result=feasibility)
        patch(bnd, "shared_certificate_weights", "convex.shared_certificate_weights")
        for owner in (cvx, rec):
            patch(owner, "min_norm_point", "convex.min_norm_point")
        for owner in (rec, bnd):
            patch(owner, "recognize_interior", "recognition.recognize_interior")
        patch(a_cls, "distances_from", "recognition.distances_from")
        patch(bnd, "recognize_general", "boundary.recognize_general")
        patch(bnd, "general_deficit", "boundary.general_deficit")
        patch(bnd, "build_model", "boundary.build_model")
        patch(hm, "run_heatmap", "heatmap.run_heatmap")
        patch(hm, "mean_deficit", "heatmap.sample")
        patch(hm, "worker_count", "heatmap.worker_count", on_result=workers)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_metrics(self) -> dict:
        """Calls, self seconds and derived ratios, keyed by layer metric name."""
        child_time = collections.defaultdict(float)
        for _, parent, _, t0, t1, _ in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        calls = collections.Counter()
        self_s = collections.defaultdict(float)
        wall = collections.defaultdict(float)
        cpu = collections.defaultdict(float)
        for sid, _, name, t0, t1, c in self.spans:
            calls[name] += 1
            self_s[name] += (t1 - t0) - child_time[sid]
            wall[name] += t1 - t0
            cpu[name] += c

        out = {}
        for name in ("complexes.locate", "geodesics.geodesic", "geodesics.chain_length",
                     "convex.box_segment_min", "convex.feasibility_min_norm",
                     "convex.shared_certificate_weights", "convex.min_norm_point",
                     "recognition.recognize_interior", "boundary.recognize_general",
                     "boundary.general_deficit"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        searches = calls["geodesics.vertex_upper_bound"]
        out["geodesics.searches"] = searches
        out["geodesics.search_ratio"] = searches / max(calls["geodesics.geodesic"], 1)
        out["geodesics.chains_per_search"] = calls["geodesics.chain_length"] / max(searches, 1)
        out["geodesics.errors"] = self.counts["geodesics.errors"]
        for key in ("iterations", "stalled"):
            out[f"convex.feasibility_min_norm.{key}"] = (
                self.counts[f"convex.feasibility_min_norm.{key}"])
        out["recognition.distances_from.calls"] = calls["recognition.distances_from"]
        out["boundary.build_model.calls"] = calls["boundary.build_model"]
        busy = cpu["heatmap.sample"]
        hm_wall = wall["heatmap.run_heatmap"]
        out["heatmap.busy_s"] = busy
        out["heatmap.wall_s"] = hm_wall
        out["heatmap.workers"] = self.workers
        out["heatmap.parallel_efficiency"] = (
            busy / (hm_wall * self.workers) if hm_wall > 0 and self.workers else 0.0)
        return out

    def work_counts(self) -> dict:
        """Every count that must repeat exactly when the same inputs run again."""
        calls = collections.Counter(name for _, _, name, _, _, _ in self.spans)
        return {**{f"{k}.calls": v for k, v in sorted(calls.items())},
                **dict(sorted(self.counts.items())), "heatmap.workers": self.workers}
