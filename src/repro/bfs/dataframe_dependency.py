"""Brandes reverse accumulation (Eq. 4) as DataFrame dataflow.

Forward phase: :func:`repro.bfs.dataframe_bfs.bfs_levels_sigma`. Backward
phase: for each BFS level deepest-first, every vertex ``w`` scatters
``σ_p/σ_w · (1 + δ_w)`` to each shortest-path-DAG parent ``p``, a join +
aggregate per level. The per-level loop mirrors the CSR kernel exactly,
so the two implementations are interchangeable and are cross-checked in
tests on every graph family.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from .dataframe_bfs import bfs_levels_sigma


def dependency_scores(spark: SparkSession, sym_edges: DataFrame, source: int) -> DataFrame:
    """Dependency ``δ_source•(v)`` for all reachable ``v``: ``id, delta``.

    ``delta`` is 0.0 where no shortest path from ``source`` passes (and at
    ``source`` itself, by the Brandes convention).
    """
    lv = bfs_levels_sigma(spark, sym_edges, source)
    lv = lv.localCheckpoint(eager=True)
    max_level = lv.agg(F.max("dist")).collect()[0][0]
    sym = sym_edges.select("src", "dst").localCheckpoint(eager=True)
    # SPD edges parent→child: (p, w) with dist(w) = dist(p) + 1.
    a, b = lv.alias("a"), lv.alias("b")
    spd = (
        sym.join(a, sym.src == F.col("a.id"))
        .join(b, sym.dst == F.col("b.id"))
        .where(F.col("b.dist") == F.col("a.dist") + 1)
        .select(
            F.col("a.id").alias("parent"),
            F.col("b.id").alias("child"),
            (F.col("a.sigma") / F.col("b.sigma")).alias("ratio"),
            F.col("b.dist").alias("child_dist"),
        )
        .localCheckpoint(eager=True)
    )
    delta = lv.select("id", F.lit(0.0).alias("delta")).localCheckpoint(eager=True)
    for lvl in range(int(max_level), 0, -1):
        # Children at this level have final δ (accumulated in earlier,
        # deeper iterations); scatter Eq. 4 shares to their parents.
        contrib = (
            spd.where(F.col("child_dist") == lvl)
            .join(delta, F.col("child") == delta.id)
            .select(
                F.col("parent").alias("id"),
                (F.col("ratio") * (F.lit(1.0) + F.col("delta"))).alias("c"),
            )
            .groupBy("id")
            .agg(F.sum("c").alias("c"))
        )
        delta = (
            delta.join(contrib, "id", "left")
            .select(
                "id",
                (F.col("delta") + F.coalesce(F.col("c"), F.lit(0.0))).alias("delta"),
            )
            .localCheckpoint(eager=True)
        )
    return delta.withColumn(
        "delta", F.when(F.col("id") == source, F.lit(0.0)).otherwise(F.col("delta"))
    )
