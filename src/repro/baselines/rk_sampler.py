"""Baseline: Riondato–Kornaropoulos shortest-path sampler ([30], §3.2).

Sample ``T`` vertex pairs ``(s, t)`` u.a.r., draw one uniformly random
shortest ``s–t`` path each, and estimate the normalised betweenness
``nbc(r) = BC(r)/(n(n−1))`` as the fraction of sampled paths with ``r``
as an interior vertex. Path extraction fans out over Spark with the exact
Brandes jobs' :func:`~repro.brandes.exact._fan_out`, one chunk of pairs
per task (seeded per pair for determinism); the VC-dimension sample
budget lives in :func:`repro.core.theory.rk_sample_budget`.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from ..bfs.local import random_shortest_path
from ..brandes.exact import _fan_out
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
    target = int(r)

    def hits(graph: CSRGraph, pairs: np.ndarray) -> int:
        out = 0
        for s_, t_, ps in pairs.tolist():
            path = random_shortest_path(graph, s_, t_, np.random.default_rng(ps))
            out += path is not None and target in path[1:-1]
        return out

    nbc = sum(_fan_out(spark, g, np.column_stack([s, t, pair_seed]), hits)) / T
    return BaselineResult(
        r=int(r),
        T=T,
        seed=seed,
        estimate_bc=nbc * g.n * (g.n - 1),
        estimate_nbc=nbc,
        n_scored=T,
    )
