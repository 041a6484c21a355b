"""Graph-level properties as Spark DataFrame computations.

Connected components (iterative label propagation) and eccentricity-based
diameter bounds, used by the dataset table (T1) and by generator tests.
Each iterative step is a plain join + aggregate so Catalyst plans the
whole thing; lineage is truncated per round with ``localCheckpoint``.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..bfs.local import bfs_sigma
from .csr import CSRGraph
from .spark_io import symmetric_edges


def connected_components(edges: DataFrame) -> DataFrame:
    """Label-propagation connected components over an undirected edge table.

    Returns ``id``, ``component`` where ``component`` is the minimum vertex
    id reachable from ``id``. Rounds run until no label changes: labels
    only decrease, so the loop ends after O(diameter) rounds.
    """
    sym = symmetric_edges(edges).localCheckpoint(eager=True)
    labels = (
        sym.select(F.col("src").alias("id"))
        .distinct()
        .withColumn("component", F.col("id"))
        .localCheckpoint(eager=True)
    )
    while True:
        # Each vertex adopts min(own label, neighbours' labels).
        neigh_min = (
            sym.join(labels, sym.dst == labels.id)
            .groupBy(sym.src.alias("id"))
            .agg(F.min("component").alias("neigh"))
        )
        updated = (
            labels.join(neigh_min, "id", "left")
            .select(
                "id",
                F.least(
                    F.col("component"), F.coalesce(F.col("neigh"), F.col("component"))
                ).alias("component"),
            )
            .localCheckpoint(eager=True)
        )
        changed = (
            updated.alias("u")
            .join(labels.alias("l"), "id")
            .where(F.col("u.component") != F.col("l.component"))
            .count()
        )
        labels = updated
        if changed == 0:
            return labels


def diameter(g: CSRGraph, *, sources: int | None = None, seed: int = 0) -> int:
    """Exact diameter when ``sources`` is None (BFS from every vertex),
    else a lower bound from ``sources`` random BFS sweeps."""
    if sources is None or sources >= g.n:
        src_list = range(g.n)
    else:
        rng = np.random.default_rng(seed)
        src_list = rng.choice(g.n, size=sources, replace=False)
    best = 0
    for s in src_list:
        dist, _ = bfs_sigma(g, int(s))
        ecc = int(dist[dist >= 0].max())
        best = max(best, ecc)
    return best
