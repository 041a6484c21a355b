"""NumPy CSR kernels: BFS, shortest-path counts, Brandes dependencies.

The O(|E|) per-sample unit every sampler in the paper is priced in (§4.2).
It runs in Spark tasks against a broadcast CSR, and on the driver.

One kernel serves all callers: a level-synchronous BFS from K sources at
once over combined ids ``k·n + v`` (multi-source BFS, Then et al., VLDB
2014). On deep graphs a pass costs NumPy calls per BFS level, not edges, and
a batch pays them once for K sources; :func:`batch_size` fixes K from the
graph. The forward sweep records each level's shortest-path-DAG edges; σ and
the reverse sweep of Eq. 4 are ``bincount`` sums over them.

Invariants: row k of :func:`dependency_batch` has the same bits whatever the
rest of the batch, and the same bits as a per-source Brandes sweep (each bin
adds its terms from 0.0 in ascending vertex order). σ beyond float64 range
raises :class:`OverflowError`, never NaN δ.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from ..graphs.csr import CSRGraph


def batch_size(g: CSRGraph) -> int:
    """Sources per batch: a fixed ``2**19``-entry working set over the CSR
    size ``2m + n``, clamped to ``[1, 64]``."""
    return int(np.clip(2**19 // (2 * g.m + g.n), 1, 64))


def _forward(g: CSRGraph, src: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """BFS from every ``src[k]`` at once: flat ``(dist, sigma)`` over ids
    ``k·n + v``, and per level ``(frontier, pidx, child)``, the DAG edges
    ``frontier[pidx[i]] → child[i]`` in parent, then CSR order."""
    n = g.n
    if src.size and not 0 <= src.min() <= src.max() < n:
        raise ValueError(f"source out of range [0, {n}) on {g.name}")
    dist, sigma = np.full(src.size * n, -1, dtype=np.int32), np.zeros(src.size * n)
    frontier = np.arange(src.size, dtype=np.int64) * n + src
    dist[frontier], sigma[frontier] = 0, 1.0
    levels = []
    while frontier.size:
        v = frontier % n
        starts = g.indptr[v]
        counts = g.indptr[v + 1] - starts
        child = np.repeat(frontier - v, counts) + g.indices[_ranges(starts, counts)]
        tree = dist[child] == -1
        pidx, child = np.repeat(np.arange(frontier.size), counts)[tree], child[tree]
        newly, inv = np.unique(child, return_inverse=True)
        sigma[newly] = np.bincount(inv, sigma[frontier[pidx]], newly.size)
        dist[newly] = len(levels) + 1
        levels.append((frontier, pidx, child))
        frontier = newly
    bad = ~np.isfinite(sigma)
    if bad.any():
        s = int(src[np.argmax(bad) // n])
        raise OverflowError(f"float64 σ overflows on {g.name} from source {s}")
    return dist, sigma, levels


def bfs_sigma(g: CSRGraph, source: int) -> tuple[np.ndarray, np.ndarray]:
    """``(dist, sigma)`` from ``source``: ``dist[v]`` is the hop distance (−1
    if unreachable), ``sigma[v]`` the number of shortest ``source→v`` paths
    (float64 — counts explode combinatorially on dense graphs)."""
    dist, sigma, _ = _forward(g, np.array([source], dtype=np.int64))
    return dist, sigma


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(starts[i], starts[i]+counts[i])`` without a loop.

    Zero-count entries are dropped first (they'd otherwise collide on the
    same jump index), matching ``np.repeat(x, counts)`` semantics.
    """
    nz = counts > 0
    starts, counts = starts[nz], counts[nz]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    ends = np.cumsum(counts)
    out[0] = starts[0]
    out[ends[:-1]] = starts[1:] - starts[:-1] - counts[:-1] + 1
    return np.cumsum(out)


def dependency_batch(g: CSRGraph, sources: Sequence[int]) -> np.ndarray:
    """Brandes dependencies ``δ_s•(v)`` as a ``(len(sources), n)`` array, row
    ``k`` for ``s = sources[k]`` (Eq. 4; ``δ_s•(s) = 0`` by convention)."""
    src = np.asarray(sources, dtype=np.int64).reshape(-1)
    _, sigma, levels = _forward(g, src)
    delta = np.zeros_like(sigma)
    # Deepest level first; a parent's δ is complete once its children's is.
    for frontier, pidx, child in reversed(levels):
        share = (sigma[frontier[pidx]] / sigma[child]) * (1.0 + delta[child])
        delta[frontier] = np.bincount(pidx, share, frontier.size)
    delta[np.arange(src.size) * g.n + src] = 0.0
    return delta.reshape(src.size, g.n)


def dependency_vector(g: CSRGraph, source: int) -> np.ndarray:
    """Brandes dependency ``δ_source•(v)`` for every vertex ``v``."""
    return dependency_batch(g, [source])[0]


def random_shortest_path(
    g: CSRGraph, s: int, t: int, rng: np.random.Generator
) -> list[int] | None:
    """A uniformly random shortest ``s–t`` path (RK sampler primitive).

    Walk backwards from ``t`` choosing each predecessor ``p`` with
    probability ``σ_sp / Σ_p' σ_sp'`` — this makes every shortest path
    equally likely. Returns None if ``t`` is unreachable or ``s == t``.
    """
    if s == t:
        return None
    dist, sigma = bfs_sigma(g, s)
    if dist[t] < 0:
        return None
    path = [t]
    cur = t
    while cur != s:
        nbrs = g.neighbors(cur)
        preds = nbrs[dist[nbrs] == dist[cur] - 1]
        w = sigma[preds]
        cur = int(rng.choice(preds, p=w / w.sum()))
        path.append(cur)
    path.reverse()
    return path
