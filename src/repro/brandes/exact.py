"""Exact betweenness via Spark-distributed Brandes passes.

The exact baseline of every table: Brandes passes fan out over executors
against a broadcast CSR (:func:`_fan_out`). Each task takes one strided
chunk of the sources, runs the batched kernel on slices of
:func:`~repro.bfs.local.batch_size` of them and returns one NumPy result;
the driver assembles the chunks' results in partition order. This is the
O(nm) computation the paper's samplers undercut.
"""
from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from ..bfs.local import batch_size, dependency_batch
from ..graphs.csr import CSRGraph


def _fan_out(
    spark: SparkSession,
    g: CSRGraph,
    items: np.ndarray,
    fn: Callable[[CSRGraph, np.ndarray], object],
) -> list:
    """``[fn(g, items[i::p]) for i in range(p)]``, computed in one Spark stage.

    ``p = min(len(items), defaultParallelism)``: one task per chunk, so the
    job runs in a single wave with no shuffle, and strided chunks spread
    cheap and expensive items evenly. ``g`` is broadcast for the job only.
    """
    sc = spark.sparkContext
    p = min(len(items), sc.defaultParallelism)
    if p == 0:
        return []
    bg = sc.broadcast(g)
    try:
        chunks = [items[i::p] for i in range(p)]
        return (
            sc.parallelize(chunks, p)
            .mapPartitions(lambda part: [fn(bg.value, c) for c in part])
            .collect()
        )
    finally:
        bg.destroy()


def _vertex_ids(g: CSRGraph, ids: Sequence[int], what: str) -> np.ndarray:
    """Distinct ``ids`` in ascending order; raises unless all lie in ``[0, n)``."""
    out = np.asarray(sorted(set(int(v) for v in ids)), dtype=np.int64)
    bad = out[(out < 0) | (out >= g.n)]
    if len(bad):
        raise ValueError(f"{what} ids {bad.tolist()} outside [0, {g.n}) on {g.name}")
    return out


def _dependency_rows(g: CSRGraph, src: np.ndarray) -> Iterator[np.ndarray]:
    """δ rows of ``src``, in order, one kernel batch of ``batch_size(g)`` at a time."""
    k = batch_size(g)
    for i in range(0, len(src), k):
        yield dependency_batch(g, src[i : i + k])


def betweenness_all(spark: SparkSession, g: CSRGraph) -> pd.DataFrame:
    """Exact ``BC(v)`` for every vertex: pandas frame ``id, bc``, ordered by id.

    Ordered-pair convention (matches :mod:`repro.brandes.reference`).
    Each task adds the dependency vectors of its sources one at a time, in
    source order, and returns one partial vector; the driver adds the
    partial vectors in partition order, so the result is deterministic and
    the data collected is O(partitions · n), not O(n²).
    """

    def part(graph: CSRGraph, src: np.ndarray) -> np.ndarray:
        acc = np.zeros(graph.n)
        for rows in _dependency_rows(graph, src):
            for row in rows:
                acc += row
        return acc

    bc = np.zeros(g.n)
    for acc in _fan_out(spark, g, np.arange(g.n, dtype=np.int64), part):
        bc += acc
    return pd.DataFrame({"id": np.arange(g.n, dtype=np.int64), "bc": bc})


def betweenness_vector(spark: SparkSession, g: CSRGraph) -> np.ndarray:
    """Exact ``BC`` as a dense NumPy vector indexed by vertex id."""
    return betweenness_all(spark, g)["bc"].to_numpy()


def dependency_matrix(
    spark: SparkSession,
    g: CSRGraph,
    targets: Sequence[int],
    *,
    sources: Sequence[int] | None = None,
) -> pd.DataFrame:
    """``δ_s•(r)`` for every source ``s`` and every ``r ∈ targets``.

    ``sources`` defaults to all of ``V`` (ground truth mode); the samplers
    pass only their *distinct proposal* vertices — the embarrassingly
    parallel phase of the MH algorithms. Returns a pandas frame
    ``s, r, delta`` ordered by ``(r, s)``. One Brandes pass per source
    yields the dependency on *all* targets at once — the same trick the
    joint-space sampler relies on. Ground truth for ``P_r[·]`` (Eq. 5),
    ``μ(r)``, the bias envelope, and all exact relative-betweenness
    quantities. A target or source outside ``[0, n)`` raises
    ``ValueError`` before any Spark job runs.
    """
    tg = _vertex_ids(g, targets, "target")
    src = np.arange(g.n, dtype=np.int64) if sources is None else _vertex_ids(g, sources, "source")

    def part(graph: CSRGraph, chunk: np.ndarray) -> np.ndarray:
        return np.concatenate([b[:, tg] for b in _dependency_rows(graph, chunk)])

    chunks = _fan_out(spark, g, src, part)
    d = np.empty((len(src), len(tg)))
    for i, rows in enumerate(chunks):
        d[i :: len(chunks)] = rows
    return pd.DataFrame(
        {"s": np.tile(src, len(tg)), "r": np.repeat(tg, len(src)), "delta": d.T.ravel()}
    )


def betweenness_of(spark: SparkSession, g: CSRGraph, r: int) -> float:
    """Exact ``BC(r)`` = Σ_s δ_s•(r) (distributed over sources)."""
    dm = dependency_matrix(spark, g, [r])
    return float(dm["delta"].sum())


def normalized_bc(bc: float, n: int) -> float:
    """``nbc(r) = BC(r) / (n(n−1))`` — the [0,1]-scale estimand of
    Theorem 1 (see DESIGN.md faithfulness notes)."""
    return bc / (n * (n - 1))
