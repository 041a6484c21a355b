"""Spans recorded from outside the program, by wrapping its public functions.

The tracer replaces each listed function with a wrapper in every module
that bound it (``from … import`` copies the name, so the defining module
alone is not enough). A wrapper records one span per call: name, layer,
start, end, parent span and the benchmark op it ran under. Spans stay in
memory and are written out once, at exit.

Functions that run inside Spark workers (``dependency_vector``,
``random_shortest_path``) are deliberately not wrapped: the Spark closures
that call them are pickled by value together with their globals, so a
wrapper would be shipped to the workers. Kernel time is measured instead
by a single-threaded driver loop (see ``kernel_probe`` in ``workloads``).
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path

# (span name, layer, defining module, function, modules whose binding is patched)
TARGETS: list[tuple[str, str, str, str, tuple[str, ...]]] = [
    ("graphs.two_communities", "graphs", "repro.graphs.generators",
     "two_communities", (
         "repro.graphs.generators",
     )),
    ("graphs.barabasi_albert", "graphs", "repro.graphs.generators",
     "barabasi_albert", (
         "repro.graphs.generators",
     )),
    ("graphs.grid_2d", "graphs", "repro.graphs.generators",
     "grid_2d", (
         "repro.graphs.generators",
     )),
    ("graphs.ring_of_cliques", "graphs", "repro.graphs.generators",
     "ring_of_cliques", (
         "repro.graphs.generators",
     )),
    ("graphs.random_tree", "graphs", "repro.graphs.generators",
     "random_tree", (
         "repro.graphs.generators",
     )),
    ("graphs.from_edges", "graphs", "repro.graphs.csr",
     "from_edges", (
         "repro.graphs.csr",
         "repro.graphs.generators",
     )),
    ("bfs.local.bfs_sigma", "bfs.local", "repro.bfs.local",
     "bfs_sigma", (
         "repro.baselines.distance_sampler",
     )),
    ("brandes.exact.dependency_matrix", "brandes.exact", "repro.brandes.exact",
     "dependency_matrix", (
         "repro.brandes.exact",
         "repro.core.mh_single",
         "repro.core.mh_joint",
         "repro.baselines.uniform_source",
         "repro.baselines.distance_sampler",
         "repro.evalharness.runner",
     )),
    ("brandes.exact.betweenness_vector", "brandes.exact", "repro.brandes.exact",
     "betweenness_vector", (
         "repro.brandes.exact",
         "repro.evalharness.runner",
         "repro.evalharness.tables",
     )),
    ("brandes.exact.betweenness_all", "brandes.exact", "repro.brandes.exact",
     "betweenness_all", (
         "repro.brandes.exact",
     )),
    ("core.mh_single", "core", "repro.core.mh_single",
     "mh_single", (
         "repro.core.mh_single",
         "repro.evalharness.runner",
     )),
    ("core.score_vertices", "core", "repro.core.mh_single",
     "score_vertices", (
         "repro.core.mh_single",
     )),
    ("core.run_chain", "core", "repro.core.mh_single",
     "run_chain", (
         "repro.core.mh_single",
     )),
    ("core.mh_joint", "core", "repro.core.mh_joint",
     "mh_joint", (
         "repro.core.mh_joint",
         "repro.evalharness.runner",
     )),
    ("core.score_vertices_joint", "core", "repro.core.mh_joint",
     "score_vertices_joint", (
         "repro.core.mh_joint",
     )),
    ("core.run_joint_chain", "core", "repro.core.mh_joint",
     "run_joint_chain", (
         "repro.core.mh_joint",
     )),
    ("core.eq7_estimate", "core", "repro.core.estimators",
     "eq7_estimate", (
         "repro.core.estimators",
         "repro.core.mh_single",
     )),
    ("core.eq22_ratio", "core", "repro.core.estimators",
     "eq22_ratio", (
         "repro.core.estimators",
         "repro.core.mh_joint",
     )),
    ("core.sample_budget", "core", "repro.core.theory",
     "sample_budget", (
         "repro.core.theory",
         "repro.evalharness.runner",
     )),
    ("baselines.uniform_source", "baselines", "repro.baselines.uniform_source",
     "uniform_source_estimate", (
         "repro.baselines.uniform_source",
         "repro.evalharness.runner",
     )),
    ("baselines.distance_sampler", "baselines", "repro.baselines.distance_sampler",
     "distance_sampler_estimate", (
         "repro.baselines.distance_sampler",
         "repro.evalharness.runner",
     )),
    ("baselines.distance_distribution", "baselines", "repro.baselines.distance_sampler",
     "distance_distribution", (
         "repro.baselines.distance_sampler",
     )),
    ("baselines.rk", "baselines", "repro.baselines.rk_sampler",
     "rk_estimate", (
         "repro.baselines.rk_sampler",
         "repro.evalharness.runner",
     )),
    ("evalharness.table3", "evalharness", "repro.evalharness.tables",
     "table3", (
         "repro.evalharness.tables",
     )),
    ("evalharness.table5", "evalharness", "repro.evalharness.tables",
     "table5", (
         "repro.evalharness.tables",
     )),
    ("evalharness.roles_for", "evalharness", "repro.evalharness.tables",
     "roles_for", (
         "repro.evalharness.tables",
     )),
    ("evalharness.dependency_column", "evalharness", "repro.evalharness.runner",
     "dependency_column", (
         "repro.evalharness.runner",
     )),
    ("evalharness.single_accuracy_rows", "evalharness", "repro.evalharness.runner",
     "single_accuracy_rows", (
         "repro.evalharness.runner",
     )),
    ("evalharness.baseline_rows", "evalharness", "repro.evalharness.runner",
     "baseline_rows", (
         "repro.evalharness.runner",
     )),
]


def _attrs(name: str, args: tuple, kwargs: dict, result) -> dict:
    """Counters read at the span boundary: sources, iterations, graph."""
    if name == "brandes.exact.dependency_matrix":
        g, src = args[1], kwargs.get("sources")
        n_src = g.n if src is None else len(set(int(s) for s in src))
        return {"graph": g.name, "sources": n_src, "all_sources": src is None}
    if name in ("brandes.exact.betweenness_all", "brandes.exact.betweenness_vector"):
        return {"graph": args[1].name, "sources": args[1].n, "all_sources": True}
    if name in ("core.run_chain", "core.run_joint_chain"):
        return {"iters": len(args[0])}
    if name in ("core.mh_single", "core.mh_joint"):
        g, T = args[1], args[3]
        return {
            "n": g.n,
            "T": T,
            "seed": kwargs.get("seed", 0),
            "k": len(args[2]) if name == "core.mh_joint" else 1,
            "n_scored": result.n_scored,
            "acceptance": result.acceptance_rate,
        }
    return {}


class Tracer:
    """Owns the span list and the patched names; restore with :meth:`close`."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op: int | None = None
        self.recording = False
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self, spark_context_cls) -> None:
        # Import everything first: a module imported after its source was
        # patched would bind the wrapper, not the original.
        for _, _, home, _, patch_in in TARGETS:
            for mod_name in (home, *patch_in):
                importlib.import_module(mod_name)
        for name, layer, home, fn_name, patch_in in TARGETS:
            original = getattr(importlib.import_module(home), fn_name)
            wrapped = self._wrap(name, layer, original)
            for mod_name in patch_in:
                mod = importlib.import_module(mod_name)
                if getattr(mod, fn_name) is not original:
                    raise RuntimeError(f"{mod_name}.{fn_name} is not {home}.{fn_name}")
                self._patch(mod, fn_name, wrapped)
        bc = spark_context_cls.broadcast
        self._patch(spark_context_cls, "broadcast", self._wrap("spark.broadcast", "spark", bc))

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def close(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def _wrap(self, name: str, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(span)
            span["attrs"] = _attrs(name, args, kwargs, result)
            return result

        return traced

    def open(self, name: str, layer: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "attrs": {},
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def finish(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its child spans cover (calls are
    sequential on the driver, so children never overlap)."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None and s["parent"] in out:
            out[s["parent"]] -= s["end"] - s["start"]
    return out
