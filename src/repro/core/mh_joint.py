"""§4.3 — the joint-space Metropolis-Hastings sampler over R × V(G).

States are pairs ⟨r, v⟩; proposals draw both components uniformly;
acceptance is ``min{1, δ_v'•(r') / δ_v•(r)}`` (Eq. 17); the stationary
law is Eq. 18. One realised chain estimates *all* pairwise betweenness
ratios (Eq. 22) and relative scores — Bennett's acceptance-ratio method.

The single-space chain (§4.2, Eq. 6) is this chain with ``|R| = 1``, so
:mod:`repro.core.mh_single` and the δ-based baselines share its dense
``(n, |R|)`` δ table (:func:`score_vertices_joint`, one Spark job over the
distinct missing vertices) and its O(T) driver scan (:func:`run_joint_chain`).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from pyspark.sql import SparkSession

from ..brandes.exact import dependency_matrix
from ..brandes.relative import min_ratio
from ..graphs.csr import CSRGraph
from .estimators import eq22_ratio, relative_score_estimate


@dataclass(frozen=True)
class JointChainResult:
    """Realised joint chain plus all pairwise estimates."""

    R: tuple[int, ...]
    T: int
    seed: int
    r_idx_chain: np.ndarray  # index into R per state (length T+1)
    v_chain: np.ndarray  # v component per state
    delta_chain: np.ndarray  # (T+1, |R|): δ_{v_t}•(r) for every r ∈ R
    accepted: np.ndarray  # bool per iteration
    ratio: np.ndarray  # (k, k): Eq. 22 estimate of BC(R[i])/BC(R[j])
    relative: np.ndarray  # (k, k): B̈C_{R[j]}(R[i]) (Eq. 22 numerator)
    subchain_sizes: np.ndarray  # |S(j)| per j (chain-multiset reading)
    n_scored: int

    @property
    def acceptance_rate(self) -> float:
        """Fraction of iterations that moved."""
        return float(self.accepted.mean()) if len(self.accepted) else 0.0


def check_inputs(g: CSRGraph, R: Sequence[int], T: int) -> None:
    """Raise ``ValueError`` unless ``n ≥ 2``, ``T ≥ 1`` and ``R`` is a
    non-empty list of distinct vertices of ``g``."""
    distinct = len(set(R)) == len(R) > 0 and all(0 <= r < g.n for r in R)
    if g.n < 2 or T < 1 or not distinct:
        raise ValueError(f"{g.name}: need n >= 2, T >= 1 and distinct R in [0, n); "
                         f"got n = {g.n}, T = {T}, R = {list(R)}")


def score_vertices_joint(
    spark: SparkSession,
    g: CSRGraph,
    vertices: np.ndarray,
    R: Sequence[int],
    scores: Mapping | None = None,
) -> tuple[np.ndarray, int]:
    """``(table, n_scored)``: ``table[v, j] = δ_v•(R[j])``, NaN where unknown.

    ``scores`` preloads the table, as ``v → δ`` (``|R| = 1``) or
    ``v → δ-vector over R``. The distinct ``vertices`` still missing are
    scored by one Spark job, one Brandes pass each; ``n_scored`` counts them.
    """
    table = np.full((g.n, len(R)), np.nan)
    if scores:
        rows = np.fromiter(scores, np.int64, len(scores))
        table[rows] = np.reshape(list(scores.values()), (len(rows), len(R)))
    distinct = np.unique(vertices)
    missing = distinct[np.isnan(table[distinct]).any(axis=1)]
    if len(missing):
        dm = dependency_matrix(spark, g, R, sources=missing)
        col = {int(r): j for j, r in enumerate(R)}
        table[dm["s"].to_numpy(), dm["r"].map(col).to_numpy()] = dm["delta"].to_numpy()
    return table, len(missing)


def run_joint_chain(
    prop_r: np.ndarray,
    prop_v: np.ndarray,
    uniforms: np.ndarray,
    r0_idx: int,
    v0: int,
    table: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sequential Eq.-17 accept/reject scan (driver side) over a δ table.

    Zero-δ convention: a proposal with δ=0 is rejected unless the current
    state also has δ=0 (pre-support phase), in which case it is accepted —
    zero-density states are transient and never re-entered. An unscored
    (NaN) state raises ``ValueError``. Returns ``(r_idx_chain, v_chain,
    accepted)``; the chains have length T+1.
    """
    d_prop = table[prop_v, prop_r]
    dcur = float(table[v0, r0_idx])
    if np.isnan(d_prop).any() or np.isnan(dcur):
        raise ValueError("chain state with no δ in the table")
    T = len(prop_r)
    accepted = np.zeros(T, dtype=bool)
    for t, (dprop, u) in enumerate(zip(d_prop.tolist(), uniforms.tolist())):
        if dcur == 0.0 or u < min(1.0, dprop / dcur):
            accepted[t] = True
            dcur = dprop
    # State t is the last of [start, proposals[:t]] that was moved to.
    moved = np.append(True, accepted)
    src = np.maximum.accumulate(np.where(moved, np.arange(T + 1), 0))
    r_idx = np.append(r0_idx, prop_r).astype(np.int64)[src]
    v = np.append(v0, prop_v).astype(np.int64)[src]
    return r_idx, v, accepted


def mh_joint(
    spark: SparkSession,
    g: CSRGraph,
    R: list[int],
    T: int,
    *,
    seed: int = 0,
    scores: Mapping[int, np.ndarray] | None = None,
) -> JointChainResult:
    """Run the joint-space sampler for ``T`` iterations.

    Deterministic in ``seed``. ``scores`` may carry a precomputed
    ``v → δ-vector-over-R`` table (multi-chain coverage runs); missing
    vertices are scored via Spark.
    """
    check_inputs(g, R, T)
    k = len(R)
    rng = np.random.default_rng(seed)
    r0_idx = int(rng.integers(0, k))
    v0 = int(rng.integers(0, g.n))
    prop_r = rng.integers(0, k, size=T)
    prop_v = rng.integers(0, g.n, size=T)
    uniforms = rng.random(T)
    table, n_scored = score_vertices_joint(spark, g, np.append(v0, prop_v), R, scores)
    r_idx, v, accepted = run_joint_chain(prop_r, prop_v, uniforms, r0_idx, v0, table)
    delta_chain = table[v]  # (T+1, k)
    on = [r_idx == j for j in range(k)]
    # f[i][j]: min{1, δ(R[i])/δ(R[j])} along the sub-chain S(j).
    f = [[min_ratio(delta_chain[on[j], i], delta_chain[on[j], j]) for j in range(k)]
         for i in range(k)]
    ratio = np.array([[1.0 if i == j else eq22_ratio(f[i][j], f[j][i])
                       for j in range(k)] for i in range(k)])
    relative = np.array([[1.0 if i == j else relative_score_estimate(f[i][j])
                          for j in range(k)] for i in range(k)])
    return JointChainResult(
        R=tuple(int(r) for r in R),
        T=T,
        seed=seed,
        r_idx_chain=r_idx,
        v_chain=v,
        delta_chain=delta_chain,
        accepted=accepted,
        ratio=ratio,
        relative=relative,
        subchain_sizes=np.bincount(r_idx, minlength=k),
        n_scored=n_scored,
    )
