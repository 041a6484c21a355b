"""Level-synchronous BFS with shortest-path counts as DataFrame dataflow.

This is the pure-Catalyst expression of the paper's O(|E|) primitive:
every round is ``frontier ⋈ edges → groupBy(dst).sum(σ)``, with visited
vertices removed by an anti-join. Lineage is truncated per round with
``localCheckpoint`` so the plan does not grow with the diameter.

Validation only: the CSR kernel must agree with it exactly on every
graph; no sampler runs it.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


def bfs_levels_sigma(spark: SparkSession, sym_edges: DataFrame, source: int) -> DataFrame:
    """BFS from ``source`` over a symmetric edge table.

    Returns a DataFrame ``id, dist, sigma`` holding, for every *reachable*
    vertex, the hop distance and the number of shortest paths from
    ``source`` (float64). Levels run until the frontier is empty: the
    visited set only grows, so this ends after eccentricity + 1 rounds.
    """
    sym = sym_edges.select("src", "dst").localCheckpoint(eager=True)
    visited = spark.createDataFrame(
        [(int(source), 0, 1.0)], "id long, dist int, sigma double"
    ).localCheckpoint(eager=True)
    frontier = visited
    level = 0
    while True:
        level += 1
        # σ contributions flow along every edge out of the frontier; a
        # destination's σ at this level is the sum over its frontier
        # parents. The anti-join drops already-settled vertices.
        nxt = (
            frontier.join(sym, frontier.id == sym.src)
            .select(F.col("dst").alias("id"), F.col("sigma"))
            .join(visited.select("id"), "id", "left_anti")
            .groupBy("id")
            .agg(F.sum("sigma").alias("sigma"))
            .withColumn("dist", F.lit(level))
            .select("id", "dist", "sigma")
            .localCheckpoint(eager=True)
        )
        if nxt.isEmpty():
            break
        visited = visited.unionAll(nxt).localCheckpoint(eager=True)
        frontier = nxt
    return visited


