"""Exact relative-betweenness quantities and the μ(r) parameter.

Everything here is ground truth computed from a full dependency column
``{δ_v•(r)}_{v∈V}`` (obtained with :func:`repro.brandes.exact.dependency_matrix`
or locally): the paper's μ(r) (Ineq. 11, tightest value), the Eq.-23
relative betweenness score, the chain-consistent π-weighted variant the
Eq.-22 numerator actually converges to, both sides of the Theorem-3
identity (Eq. 19), and the exact limit of the single-space estimator.

Zero-dependency conventions (DESIGN.md): in min{1, δ_i/δ_j} sums,
``0/0 := 0`` and ``x/0 := ∞ → min = 1``.
"""
from __future__ import annotations

import numpy as np


def mu_r(delta_col: np.ndarray) -> float:
    """Tightest ``μ(r)`` satisfying Ineq. 11: ``max δ / mean δ``.

    ``delta_col[v] = δ_v•(r)`` over all ``v ∈ V`` (including ``v = r``,
    whose entry is 0 — the mean in Theorem 1 averages over all of V).
    Returns ``inf`` when all dependencies are 0 (BC(r) = 0: no sampling
    budget is defined, but no sampling is needed either).
    """
    mean = float(delta_col.mean())
    if mean == 0.0:
        return float("inf")
    return float(delta_col.max()) / mean


def min_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Elementwise ``min{1, num/den}`` with the zero conventions."""
    num = np.asarray(num, dtype=np.float64)
    den = np.asarray(den, dtype=np.float64)
    out = np.ones_like(num)
    pos = den > 0
    out[pos] = np.minimum(1.0, num[pos] / den[pos])
    both_zero = (~pos) & (num == 0)
    out[both_zero] = 0.0
    return out


def relative_bc_eq23(delta_i: np.ndarray, delta_j: np.ndarray) -> float:
    """Eq. 23: ``BC_{r_j}(r_i) = (1/n) Σ_w min{1, δ_w(r_i)/δ_w(r_j)}``
    (uniform average over ``w``)."""
    return float(min_ratio(delta_i, delta_j).mean())


def relative_bc_chain(delta_i: np.ndarray, delta_j: np.ndarray) -> float:
    """The π-weighted value the Eq.-22 numerator converges to:
    ``Σ_w π_{r_j}(w)·min{1, δ_w(r_i)/δ_w(r_j)} = Σ_w min{δ_w(r_i), δ_w(r_j)} / BC(r_j)``.
    """
    bc_j = float(delta_j.sum())
    if bc_j == 0.0:
        return float("nan")
    return float(np.minimum(delta_i, delta_j).sum() / bc_j)


def eq19_sides(delta_i: np.ndarray, delta_j: np.ndarray) -> tuple[float, float]:
    """Both sides of the Theorem-3 identity (Eq. 19).

    Returns ``(lhs, rhs)`` where ``lhs = BC(r_i)/BC(r_j)`` and ``rhs`` is
    the ratio of the two π-expectations. Theorem 3 asserts lhs == rhs —
    exactly, no sampling involved. When the dependency supports of the
    two vertices are disjoint both expectations are 0 and Eq. 19 is the
    indeterminate 0/0 (the cross-multiplied Eq.-21 form still holds);
    ``rhs`` is NaN in that case. A vertex with BC 0 has no stationary law
    π (Eq. 5), so either side is undefined: ``ValueError`` naming it.
    """
    for name, col in (("delta_i", delta_i), ("delta_j", delta_j)):
        if float(col.sum()) == 0.0:
            raise ValueError(f"eq19_sides: {name} sums to 0 (BC = 0); Eq. 19 is undefined")
    lhs = float(delta_i.sum()) / float(delta_j.sum())
    num = relative_bc_chain(delta_i, delta_j)  # E under π_{r_j}
    den = relative_bc_chain(delta_j, delta_i)  # E under π_{r_i}
    if den == 0.0:
        return lhs, float("nan")
    return lhs, num / den


def eq21_residual(delta_i: np.ndarray, delta_j: np.ndarray) -> float:
    """Cross-multiplied Theorem-3 identity (summed Eq. 21):
    ``BC(r_i)·E_{π_i}[min{1, δ_j/δ_i}] − BC(r_j)·E_{π_j}[min{1, δ_i/δ_j}]``
    — exactly 0 for every pair, including disjoint-support pairs. When
    either BC is 0 its column is all 0, so both sums are 0 and so is the
    residual."""
    bc_i, bc_j = float(delta_i.sum()), float(delta_j.sum())
    if bc_i == 0.0 or bc_j == 0.0:
        return 0.0
    return bc_i * relative_bc_chain(delta_j, delta_i) - bc_j * relative_bc_chain(
        delta_i, delta_j
    )


def single_space_limit(delta_col: np.ndarray, n: int) -> float:
    """Exact limit of the single-space ergodic average:
    ``E_π[f] = Σ_v δ_v•(r)² / (BC(r)·(n−1))``.

    Satisfies ``nbc(r) ≤ E_π[f] ≤ μ(r)·nbc(r)`` (DESIGN.md); degenerate
    BC(r)=0 returns 0 (the estimator is exactly 0 there too).
    """
    bc = float(delta_col.sum())
    if bc == 0.0:
        return 0.0
    return float((delta_col**2).sum() / (bc * (n - 1)))


def stationary_distribution(delta_col: np.ndarray) -> np.ndarray:
    """``P_r[v]`` of Eq. 5 — the optimal sampling distribution."""
    tot = float(delta_col.sum())
    if tot == 0.0:
        return np.full(len(delta_col), 1.0 / len(delta_col))
    return delta_col / tot
