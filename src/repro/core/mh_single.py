"""§4.2 — the single-space Metropolis-Hastings sampler for BC(r).

Independence MH on V(G): uniform proposals, acceptance
``min{1, δ_v'•(r)/δ_v•(r)}`` (Eq. 6), stationary law ``P_r[·]`` (Eq. 5).
It is the joint-space chain of :mod:`repro.core.mh_joint` with ``R = [r]``,
run on that module's δ table (one Spark job scores the distinct pre-drawn
proposals, at most ``n`` Brandes passes) and its O(T) driver-side scan.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

from ..brandes.exact import dependency_matrix  # noqa: F401 (for perfbench/tracing.py)
from ..graphs.csr import CSRGraph
from .estimators import eq7_accepted_only, eq7_estimate
from .mh_joint import check_inputs, run_joint_chain as run_chain
from .mh_joint import score_vertices_joint as score_vertices


@dataclass(frozen=True)
class SingleChainResult:
    """Realised chain of the single-space sampler plus its estimates."""

    r: int
    T: int
    seed: int
    states: np.ndarray  # chain states v_0..v_T (length T+1)
    delta_chain: np.ndarray  # δ_{v_t}•(r) per state
    accepted: np.ndarray  # bool per iteration 1..T
    estimate: float  # Eq. 7, chain-multiset reading (ergodic average)
    estimate_accepted_only: float  # Eq. 7, literal accepted-set reading
    n_scored: int  # distinct vertices scored (Spark tasks' work)

    @property
    def acceptance_rate(self) -> float:
        """Fraction of iterations that moved."""
        return float(self.accepted.mean()) if len(self.accepted) else 0.0


def mh_single(
    spark: SparkSession,
    g: CSRGraph,
    r: int,
    T: int,
    *,
    seed: int = 0,
    scores: dict[int, float] | None = None,
) -> SingleChainResult:
    """Run the single-space sampler for ``T`` iterations.

    Deterministic in ``seed`` (proposals, initial state and acceptance
    coin flips all come from one PCG64 stream). ``scores`` may carry a
    precomputed δ table (e.g. when running many chains on one graph —
    Table 4 coverage runs) — any missing vertex is scored via Spark.
    """
    check_inputs(g, [r], T)
    rng = np.random.default_rng(seed)
    v0 = int(rng.integers(0, g.n))
    proposals = rng.integers(0, g.n, size=T)
    uniforms = rng.random(T)
    table, n_scored = score_vertices(spark, g, np.append(v0, proposals), [r], scores)
    _, states, accepted = run_chain(
        np.zeros(T, dtype=np.int64), proposals, uniforms, 0, v0, table
    )
    delta_chain = table[states, 0]
    return SingleChainResult(
        r=int(r),
        T=T,
        seed=seed,
        states=states,
        delta_chain=delta_chain,
        accepted=accepted,
        estimate=eq7_estimate(delta_chain, g.n),
        estimate_accepted_only=eq7_accepted_only(delta_chain, accepted, g.n),
        n_scored=n_scored,
    )
