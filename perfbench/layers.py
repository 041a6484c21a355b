"""Per-layer metrics of a traced run (``--trace 1``).

Layers are the repository's modules: ``graphs``, ``bfs.local``,
``brandes.exact``, ``core``, ``baselines`` and ``evalharness``, plus
``spark`` (broadcasts) and ``bench`` (op time no wrapped call covers).
Every workload reports every metric; one a workload does not exercise
reads 0 (the evalharness probe runs on ``cold-separator`` only).
"""
from __future__ import annotations

import io
import sys
import time
from pathlib import Path

import numpy as np
import pandas as pd

import tracing
import workloads

LAYERS = ("graphs", "bfs.local", "brandes.exact", "spark", "core", "baselines",
          "evalharness")
FAMILIES = ("2comm", "ba", "grid", "roc", "tree")
REF = Path(__file__).resolve().parent / "ref"


def _p50(xs) -> float:
    return float(np.median(xs)) if len(xs) else 0.0


def _family(graph_name: str) -> str | None:
    return next((f for f in FAMILIES if graph_name.startswith(f"{f}-")), None)


def spark_per_op(spark, n_ops: int) -> tuple[float, float]:
    """Jobs and tasks per op, from the status tracker's job groups."""
    st = spark.sparkContext.statusTracker()
    jobs = tasks = 0
    for i in range(n_ops):
        for j in st.getJobIdsForGroup(f"traced-op-{i}"):
            jobs += 1
            info = st.getJobInfo(j)
            for s in info.stageIds if info else ():
                stage = st.getStageInfo(s)
                tasks += stage.numTasks if stage else 0
    return jobs / n_ops, tasks / n_ops


def evalharness_probe(spark, tracer) -> tuple[dict, int]:
    """Traced ``table3``/``table5`` at test scale, checked against the frames
    recorded in ``ref/`` (the builders fix their own seeds)."""
    from repro.evalharness import tables

    out, bad = {}, 0
    for name in ("table3", "table5"):
        tracer.op, tracer.recording = f"evalharness.{name}", True
        t = time.perf_counter()
        df = getattr(tables, name)(spark, "test")
        out[name] = time.perf_counter() - t
        tracer.recording = False
        ref = pd.read_csv(REF / f"{name}_test.csv")
        got = pd.read_csv(io.StringIO(df.to_csv(index=False)))
        try:
            pd.testing.assert_frame_equal(got, ref, check_dtype=False)
        except AssertionError as e:
            print(f"evalharness {name} differs from ref/{name}_test.csv: {e}", file=sys.stderr)
            bad += 1
    return out, bad


def per_layer(spark, tracer, wl, untraced: list[dict], traced: list[dict], seed: int):
    """All per-layer metrics of one traced run; returns (metrics, extra)."""
    spans = tracer.spans
    self_t = tracing.self_times(spans)
    op_spans = [s for s in spans if isinstance(s["op"], int)]
    ops = [s for s in op_spans if s["name"] == "bench.op"]
    n_ops = len(ops)
    op_wall = sum(s["end"] - s["start"] for s in ops)

    def named(name: str) -> list[dict]:
        return [s for s in op_spans if s["name"] == name]

    def dur_ms(ss) -> list[float]:
        return [(s["end"] - s["start"]) * 1e3 for s in ss]

    m: dict[str, tuple[float, str]] = {}
    m["graphs.build_s"] = (
        sum(s["end"] - s["start"] for s in spans
            if s["op"] is None and s["layer"] == "graphs" and s["parent"] is None), "s")

    kernel = workloads.kernel_probe(workloads.kernel_families(seed), seed)
    for fam in FAMILIES:
        m[f"bfs.local.kernel_ms.{fam}"] = (kernel[fam]["kernel_ms"], "ms")
        m[f"bfs.local.levels.{fam}"] = (kernel[fam]["levels"], "count")
        m[f"bfs.local.edges_per_s.{fam}"] = (kernel[fam]["edges_per_s"], "1/s")

    dm = named("brandes.exact.dependency_matrix")
    m["brandes.exact.dependency_matrix.calls"] = (len(dm) / n_ops, "count/op")
    m["brandes.exact.dependency_matrix.ms_p50"] = (_p50(dur_ms(dm)), "ms")
    m["brandes.exact.dependency_matrix.sources_per_call"] = (
        _p50([s["attrs"]["sources"] for s in dm]), "count")
    m["brandes.exact.betweenness_vector.ms_p50"] = (
        _p50(dur_ms(named("brandes.exact.betweenness_vector"))), "ms")
    cores = spark.sparkContext.defaultParallelism
    fixed = [
        (s["end"] - s["start"]) * 1e3
        - s["attrs"]["sources"] * kernel[fam]["kernel_ms"] / cores
        for s in dm + named("brandes.exact.betweenness_vector")
        if (fam := _family(s["attrs"]["graph"])) is not None
    ]
    m["brandes.exact.fixed_ms"] = (_p50(fixed), "ms")

    jobs, tasks = spark_per_op(spark, n_ops)
    m["spark.jobs_per_op"] = (jobs, "count/op")
    m["spark.tasks_per_op"] = (tasks, "count/op")
    m["spark.broadcasts_per_op"] = (len(named("spark.broadcast")) / n_ops, "count/op")

    chains = named("core.mh_single") + named("core.mh_joint")
    for fn in ("mh_single", "mh_joint"):
        m[f"core.{fn}.self_ms"] = (
            _p50([self_t[s["id"]] * 1e3 for s in named(f"core.{fn}")]), "ms")
    m["core.score_ms"] = (
        _p50(dur_ms(named("core.score_vertices") + named("core.score_vertices_joint"))), "ms")
    for fn in ("run_chain", "run_joint_chain"):
        ss = named(f"core.{fn}")
        iters = sum(s["attrs"]["iters"] for s in ss)
        m[f"core.{fn}.ns_per_iter"] = (
            sum(s["end"] - s["start"] for s in ss) * 1e9 / iters if iters else 0.0, "ns")
    m["core.acceptance_rate"] = (_p50([s["attrs"]["acceptance"] for s in chains]), "ratio")
    proposals = sum(s["attrs"]["T"] for s in chains)
    scored = sum(s["attrs"]["n_scored"] for s in chains)
    needed = sum(
        workloads.distinct_proposals(
            a["seed"], a["n"], a["T"], a["k"] if s["name"] == "core.mh_joint" else None)
        for s in chains if (a := s["attrs"])
    )
    m["core.scored_per_proposal"] = (scored / proposals if proposals else 0.0, "ratio")
    m["core.cache_hit_ratio"] = (1.0 - scored / needed if needed else 0.0, "ratio")

    m["baselines.uniform_source.ms_p50"] = (_p50(dur_ms(named("baselines.uniform_source"))), "ms")
    m["baselines.distance_sampler.ms_p50"] = (
        _p50(dur_ms(named("baselines.distance_sampler"))), "ms")
    m["baselines.rk.ms_p50"] = (_p50(dur_ms(named("baselines.rk"))), "ms")

    bad = 0
    probe = {"table3": 0.0, "table5": 0.0}
    if wl.name == "cold-separator":
        probe, bad = evalharness_probe(spark, tracer)
    ev = [s for s in spans if isinstance(s["op"], str)]
    m["evalharness.table3_s"] = (probe["table3"], "s")
    m["evalharness.table5_s"] = (probe["table5"], "s")
    m["evalharness.npass_jobs"] = (
        sum(1 for s in ev if s["name"] == "brandes.exact.betweenness_all"
            or (s["name"] == "brandes.exact.dependency_matrix" and s["attrs"]["all_sources"])),
        "count")
    m["evalharness.rk_calls"] = (sum(1 for s in ev if s["name"] == "baselines.rk"), "count")

    untraced_s = sum(r["s"] for r in untraced)
    m["trace.overhead"] = (sum(r["s"] for r in traced) / untraced_s, "ratio")
    by_layer = dict.fromkeys(("bench",) + LAYERS, 0.0)
    for s in op_spans:
        by_layer[s["layer"]] += self_t[s["id"]]
    for layer in LAYERS:
        m[f"self_share.{layer}"] = (by_layer[layer] / op_wall, "ratio")
    m["trace.unattributed_share"] = (by_layer["bench"] / op_wall, "ratio")
    extra = {"ops": n_ops, "kernel_probe": kernel, "failed_gates": bad,
             "self_s_by_layer": by_layer, "op_wall_s": op_wall}
    return m, extra

