"""Baseline: uniform source sampling (Bader et al. [2] style).

Draw sources ``s ~ U(V \\ {r})`` i.i.d.; ``(n−1)·δ_s•(r)`` is an unbiased
estimator of ``BC(r)``. The per-sample work (one Brandes pass per
distinct source) fans out over Spark exactly like the MH scoring phase,
so time-per-sample comparisons against the MH sampler are apples-to-apples.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

from ..brandes.exact import dependency_matrix  # noqa: F401 (for perfbench/tracing.py)
from ..brandes.exact import normalized_bc
from ..core.mh_joint import check_inputs, score_vertices_joint
from ..graphs.csr import CSRGraph


@dataclass(frozen=True)
class BaselineResult:
    """A baseline run: raw-scale and normalised estimates of BC(r)."""

    r: int
    T: int
    seed: int
    estimate_bc: float  # estimate of BC(r) (ordered-pair scale)
    estimate_nbc: float  # estimate of BC(r)/(n(n−1))
    n_scored: int


def uniform_source_estimate(
    spark: SparkSession,
    g: CSRGraph,
    r: int,
    T: int,
    *,
    seed: int = 0,
    scores: dict[int, float] | None = None,
) -> BaselineResult:
    """Estimate ``BC(r)`` from ``T`` uniform source samples."""
    check_inputs(g, [r], T)
    rng = np.random.default_rng(seed)
    pool = np.setdiff1d(np.arange(g.n), [r])
    samples = pool[rng.integers(0, len(pool), size=T)]
    table, n_scored = score_vertices_joint(spark, g, samples, [r], scores)
    est = float((g.n - 1) * table[samples, 0].mean())
    return BaselineResult(
        r=int(r),
        T=T,
        seed=seed,
        estimate_bc=est,
        estimate_nbc=normalized_bc(est, g.n),
        n_scored=n_scored,
    )
