"""Baseline: Riondato–Kornaropoulos shortest-path sampler ([30], §3.2).

Sample ``T`` vertex pairs ``(s, t)`` u.a.r., draw one uniformly random
shortest ``s–t`` path each, and estimate the normalised betweenness
``nbc(r) = BC(r)/(n(n−1))`` as the fraction of sampled paths with ``r``
as an interior vertex. Pair sampling + path extraction distribute over
Spark with one task batch per partition (seeded per pair for
determinism); the VC-dimension sample budget lives in
:func:`repro.core.theory.rk_sample_budget`.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from ..bfs.local import random_shortest_path
from ..core.mh_joint import check_inputs
from ..graphs.csr import CSRGraph
from .uniform_source import BaselineResult


def rk_estimate(
    spark: SparkSession,
    g: CSRGraph,
    r: int,
    T: int,
    *,
    seed: int = 0,
) -> BaselineResult:
    """Estimate ``nbc(r)`` from ``T`` random shortest paths."""
    check_inputs(g, [r], T)
    rng = np.random.default_rng(seed)
    # Distinct endpoints per pair, as RK requires.
    s = rng.integers(0, g.n, size=T)
    t = (s + 1 + rng.integers(0, g.n - 1, size=T)) % g.n
    pair_seed = rng.integers(0, 2**62, size=T)
    pairs = pd.DataFrame({"s": s, "t": t, "ps": pair_seed})
    bg = spark.sparkContext.broadcast(g)
    br = spark.sparkContext.broadcast(int(r))

    def part(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        graph, target = bg.value, br.value
        for pdf in batches:
            hits = []
            for row in pdf.itertuples(index=False):
                path = random_shortest_path(
                    graph, int(row.s), int(row.t), np.random.default_rng(int(row.ps))
                )
                hits.append(1.0 if path is not None and target in path[1:-1] else 0.0)
            yield pd.DataFrame({"hit": hits})

    parts = max(1, min(T, spark.sparkContext.defaultParallelism * 2))
    out = (
        spark.createDataFrame(pairs)
        .repartition(parts)
        .mapInPandas(part, "hit double")
        .agg({"hit": "avg"})
        .collect()[0][0]
    )
    nbc = float(out)
    return BaselineResult(
        r=int(r),
        T=T,
        seed=seed,
        estimate_bc=nbc * g.n * (g.n - 1),
        estimate_nbc=nbc,
        n_scored=T,
    )
