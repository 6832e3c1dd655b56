"""Self-time spans around the program's layer boundaries.

The wrappers replace module attributes for the length of a ``with``
block and restore them after, so untraced runs execute the program
exactly as shipped. A span's self time is its duration minus the time
of the spans it encloses, so no layer counts its children's time.
"""
from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter, defaultdict
from typing import Callable, Iterator


class Tracer:
    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._open: list[float] = []  # child time of each open span

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        self._open.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.self_s[name] += dt - self._open.pop()
            if self._open:
                self._open[-1] += dt

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Time the call that makes the generator and each of its steps."""

        def steps(gen):
            while True:
                with self.span(name):
                    item = next(gen, StopIteration)
                if item is StopIteration:
                    return
                yield item

        def traced(*args, **kwargs):
            with self.span(name):
                gen = fn(*args, **kwargs)
            return steps(gen)

        return traced


@contextlib.contextmanager
def patched(*targets) -> Iterator[None]:
    """``patched((obj, attr, wrapper_factory), ...)``: swap, then restore."""
    saved = []
    try:
        for obj, attr, factory in targets:
            orig = getattr(obj, attr)
            saved.append((obj, attr, orig))
            setattr(obj, attr, factory(orig))
        yield
    finally:
        for obj, attr, orig in reversed(saved):
            setattr(obj, attr, orig)


def query_layers(tr: Tracer, k: int):
    """Wrappers on the names ``repro.core.ksp_dg`` looks up at call time.

    ``repro.core`` re-exports the function ``ksp_dg`` over the module of
    the same name, so the module is reached through ``sys.modules``.
    """
    mod = importlib.import_module("repro.core.ksp_dg")

    def join(orig):
        def traced(segments, kk, **kwargs):
            with tr.span("query.join"):
                out = orig(segments, kk, **kwargs)
            tr.counts["query.join_calls"] += 1
            tr.counts["query.join_short"] += len(out) < k
            return out

        return traced

    return patched(
        (mod, "attach_query_vertices", lambda f: tr.wrap("query.attach", f)),
        (mod, "reference_paths", lambda f: tr.wrap_generator("query.filter", f)),
        (mod, "partial_ksp", lambda f: tr.wrap("query.refine", f)),
        (mod, "k_best_join", join),
    )


def update_layers(tr: Tracer):
    """Wrappers on the steps of ``DTLP.update`` (Algorithm 2)."""
    from repro.core.bounding import SubgraphIndex
    from repro.core.ep_index import EPIndex

    return patched(
        (EPIndex, "apply_delta", lambda f: tr.wrap("update.ep_shift", f)),
        (SubgraphIndex, "refresh_unit_weights", lambda f: tr.wrap("update.unit_refresh", f)),
        (SubgraphIndex, "lbd_items", lambda f: tr.wrap("update.lbd", f)),
    )


def build_layers(tr: Tracer):
    """Wrappers on the driver-side steps of ``build_dtlp_spark``."""
    mod = importlib.import_module("repro.distrib.dtlp_build")

    def reassemble(orig):
        def traced(graph, partition, xi, rows):
            tr.counts["build.bounding_rows"] += len(rows)
            with tr.span("build.reassemble"):
                return orig(graph, partition, xi, rows)

        return traced

    return patched(
        (mod, "bfs_partition", lambda f: tr.wrap("build.partition", f)),
        (mod, "dtlp_from_bounding_rows", reassemble),
    )
