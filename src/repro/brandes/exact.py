"""Exact betweenness via Spark-distributed Brandes passes.

The exact baseline of every table: Brandes passes fan out over executors
with ``mapInPandas`` against a broadcast CSR, each task running the batched
kernel on slices of :func:`~repro.bfs.local.batch_size` of its sources;
partial per-partition betweenness vectors are summed with a groupBy. This
is the O(nm) computation the paper's samplers undercut.
"""
from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from ..bfs.local import batch_size, dependency_batch
from ..graphs.csr import CSRGraph


def _sources_df(spark: SparkSession, g: CSRGraph, partitions: int) -> DataFrame:
    pdf = pd.DataFrame({"s": np.arange(g.n, dtype=np.int64)})
    return spark.createDataFrame(pdf).repartition(partitions)


def _dependency_rows(g: CSRGraph, src: np.ndarray) -> Iterator[np.ndarray]:
    """δ rows of ``src``, in order, one kernel batch of ``batch_size(g)`` at a time."""
    k = batch_size(g)
    for i in range(0, len(src), k):
        yield dependency_batch(g, src[i : i + k])


def _n_partitions(spark: SparkSession, n_tasks: int) -> int:
    return max(1, min(n_tasks, spark.sparkContext.defaultParallelism * 2))


def betweenness_all(spark: SparkSession, g: CSRGraph) -> DataFrame:
    """Exact ``BC(v)`` for every vertex: DataFrame ``id, bc``.

    Ordered-pair convention (matches :mod:`repro.brandes.reference`).
    Each task accumulates the dependency vectors of its sources locally
    and emits one partial vector, so shuffle volume is
    O(partitions · n), not O(n²).
    """
    bg = spark.sparkContext.broadcast(g)

    def part(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        graph = bg.value
        acc = np.zeros(graph.n)
        for pdf in batches:
            for rows in _dependency_rows(graph, pdf["s"].to_numpy()):
                for row in rows:  # one at a time, in source order: same bits
                    acc += row
        yield pd.DataFrame({"id": np.arange(graph.n, dtype=np.int64), "bc": acc})

    parts = _n_partitions(spark, g.n)
    out = (
        _sources_df(spark, g, parts)
        .mapInPandas(part, "id long, bc double")
        .groupBy("id")
        .sum("bc")
        .withColumnRenamed("sum(bc)", "bc")
    )
    return out


def betweenness_vector(spark: SparkSession, g: CSRGraph) -> np.ndarray:
    """Exact ``BC`` as a dense NumPy vector indexed by vertex id."""
    pdf = betweenness_all(spark, g).toPandas().sort_values("id")
    out = np.zeros(g.n)
    out[pdf["id"].to_numpy()] = pdf["bc"].to_numpy()
    return out


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
    ``s, r, delta``. One Brandes pass per source yields the dependency on
    *all* targets at once — the same trick the joint-space sampler relies
    on. Ground truth for ``P_r[·]`` (Eq. 5), ``μ(r)``, the bias envelope,
    and all exact relative-betweenness quantities.
    """
    bg = spark.sparkContext.broadcast(g)
    tg = np.asarray(sorted(set(int(t) for t in targets)), dtype=np.int64)
    bt = spark.sparkContext.broadcast(tg)

    def part(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        graph, tgts = bg.value, bt.value
        for pdf in batches:
            src = pdf["s"].to_numpy()
            if len(src):
                d = np.concatenate([b[:, tgts] for b in _dependency_rows(graph, src)])
                yield pd.DataFrame(
                    {
                        "s": np.repeat(src, len(tgts)),
                        "r": np.tile(tgts, len(src)),
                        "delta": d.ravel(),
                    }
                )

    if sources is None:
        src = np.arange(g.n, dtype=np.int64)
    else:
        src = np.asarray(sorted(set(int(s) for s in sources)), dtype=np.int64)
    parts = _n_partitions(spark, len(src))
    src_df = spark.createDataFrame(pd.DataFrame({"s": src})).repartition(parts)
    out = (
        src_df.mapInPandas(part, "s long, r long, delta double")
        .toPandas()
        .sort_values(["r", "s"])
        .reset_index(drop=True)
    )
    return out


def betweenness_of(spark: SparkSession, g: CSRGraph, r: int) -> float:
    """Exact ``BC(r)`` = Σ_s δ_s•(r) (distributed over sources)."""
    dm = dependency_matrix(spark, g, [r])
    return float(dm["delta"].sum())


def normalized_bc(bc: float, n: int) -> float:
    """``nbc(r) = BC(r) / (n(n−1))`` — the [0,1]-scale estimand of
    Theorem 1 (see DESIGN.md faithfulness notes)."""
    return bc / (n * (n - 1))
