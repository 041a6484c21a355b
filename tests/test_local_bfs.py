"""Kernel tests: CSR BFS / σ / dependency vs independent references."""
import numpy as np
import pytest

from repro.bfs.local import (
    _forward,
    _ranges,
    batch_size,
    bfs_sigma,
    dependency_batch,
    dependency_vector,
    random_shortest_path,
)
from repro.brandes.reference import (
    brandes_dependency,
    brandes_sssp,
)
from repro.graphs import generators as gen
from repro.graphs.csr import from_edges

from .conftest import SMALL_GRAPHS, graph


class TestRanges:
    def test_basic(self):
        out = _ranges(np.array([0, 10]), np.array([3, 2]))
        assert list(out) == [0, 1, 2, 10, 11]

    def test_zero_counts_skipped(self):
        out = _ranges(np.array([5, 7, 20]), np.array([2, 0, 1]))
        assert list(out) == [5, 6, 20]

    def test_all_zero(self):
        assert len(_ranges(np.array([3, 4]), np.array([0, 0]))) == 0

    def test_empty(self):
        assert len(_ranges(np.array([], dtype=int), np.array([], dtype=int))) == 0


class TestBfsSigma:
    @pytest.mark.parametrize("key", sorted(SMALL_GRAPHS))
    def test_matches_reference_all_sources(self, key):
        g = graph(key)
        for s in range(g.n):
            dist, sigma = bfs_sigma(g, s)
            _, _, ref_sigma, ref_dist = brandes_sssp(g, s)
            assert np.array_equal(dist, np.array(ref_dist))
            assert np.allclose(sigma, np.array(ref_sigma))

    def test_source_values(self):
        g = graph("grid3x4")
        dist, sigma = bfs_sigma(g, 5)
        assert dist[5] == 0 and sigma[5] == 1.0

    def test_diamond_sigma(self):
        # 0-1, 0-2, 1-3, 2-3: two shortest paths 0→3.
        g = from_edges(4, graph_edges([(0, 1), (0, 2), (1, 3), (2, 3)]))
        _, sigma = bfs_sigma(g, 0)
        assert sigma[3] == 2.0

    def test_unreachable_marked(self):
        g = from_edges(4, graph_edges([(0, 1), (2, 3)]))
        dist, sigma = bfs_sigma(g, 0)
        assert dist[2] == -1 and dist[3] == -1 and sigma[2] == 0.0

    def test_complete_graph_sigma_one(self):
        g = graph("complete6")
        _, sigma = bfs_sigma(g, 0)
        assert np.allclose(sigma[1:], 1.0)  # direct edges, unique paths

    def test_even_cycle_two_paths_to_antipode(self):
        g = gen.cycle_graph(8)
        _, sigma = bfs_sigma(g, 0)
        assert sigma[4] == 2.0


def graph_edges(pairs):
    import pandas as pd

    return pd.DataFrame(pairs, columns=["src", "dst"])


class TestDependencyVector:
    @pytest.mark.parametrize("key", sorted(SMALL_GRAPHS))
    def test_matches_reference_all_sources(self, key):
        g = graph(key)
        for s in range(g.n):
            assert np.allclose(dependency_vector(g, s), brandes_dependency(g, s))

    def test_source_dependency_zero(self, any_graph):
        assert dependency_vector(any_graph, 0)[0] == 0.0

    def test_nonnegative(self, any_graph):
        for s in range(any_graph.n):
            assert (dependency_vector(any_graph, s) >= 0).all()


# Small deep graphs and a disconnected one (two components plus an isolated
# vertex), on top of the suite, for the batched kernel's invariants.
BATCH_GRAPHS = {
    **SMALL_GRAPHS,
    "grid9x11": lambda: gen.grid_2d(9, 11),
    "tree120": lambda: gen.random_tree(120, seed=5),
    "roc7x5": lambda: gen.ring_of_cliques(7, 5),
    "disconnected": lambda: from_edges(
        9, graph_edges([(0, 1), (1, 2), (2, 0), (2, 3), (4, 5), (5, 6), (6, 7)])
    ),
}


def source_lists(g):
    """Shuffled, with duplicates, a length that is no multiple of the batch
    size, and empty."""
    rng = np.random.default_rng(g.n)
    k = batch_size(g)
    return [
        rng.permutation(g.n),
        rng.integers(0, g.n, size=2 * g.n + 3),
        rng.choice(g.n, size=min(k + 1, g.n - 1), replace=False),
        np.array([], dtype=np.int64),
    ]


class TestDependencyBatch:
    @pytest.mark.parametrize("key", sorted(BATCH_GRAPHS))
    def test_rows_equal_single_source_bits(self, key):
        g = BATCH_GRAPHS[key]()
        single = {s: dependency_batch(g, [s])[0] for s in range(g.n)}
        for S in source_lists(g):
            out = dependency_batch(g, S)
            assert out.shape == (len(S), g.n)
            for k, s in enumerate(S):
                assert np.array_equal(out[k], single[int(s)])

    @pytest.mark.parametrize("key", sorted(BATCH_GRAPHS))
    def test_rows_match_reference(self, key):
        g = BATCH_GRAPHS[key]()
        out = dependency_batch(g, np.arange(g.n))
        for s in range(g.n):
            assert np.allclose(out[s], brandes_dependency(g, s))

    @pytest.mark.parametrize("key", sorted(BATCH_GRAPHS))
    def test_bfs_sigma_is_forward_half(self, key):
        g = BATCH_GRAPHS[key]()
        S = source_lists(g)[1]
        dist, sigma, _ = _forward(g, S)
        for k, s in enumerate(S):
            d1, s1 = bfs_sigma(g, int(s))
            assert np.array_equal(d1, dist.reshape(len(S), g.n)[k])
            assert np.array_equal(s1, sigma.reshape(len(S), g.n)[k])

    def test_source_out_of_range_raises(self):
        g = graph("path7")
        for bad in ([0, 7], [-1], [3, 100]):
            with pytest.raises(ValueError, match="out of range"):
                dependency_batch(g, bad)
        with pytest.raises(ValueError):
            bfs_sigma(g, -1)

    def test_batch_size_budget(self):
        assert batch_size(graph("path7")) == 64
        assert batch_size(gen.grid_2d(200, 200)) == 2**19 // (2 * 79600 + 40000)
        assert batch_size(gen.complete_graph(800)) == 1


def diamond_chain(k: int):
    """``k`` diamonds glued end to end: σ doubles per diamond, to 2**k."""
    pairs = []
    for i in range(k):
        a = 3 * i
        pairs += [(a, a + 1), (a, a + 2), (a + 1, a + 3), (a + 2, a + 3)]
    return from_edges(3 * k + 1, graph_edges(pairs), name=f"diamonds{k}")


class TestSigmaOverflow:
    def test_diamond_chain_raises(self):
        g = diamond_chain(1100)
        assert g.n == 3301
        with pytest.raises(OverflowError, match="diamonds1100.*source 0"):
            dependency_vector(g, 0)
        with pytest.raises(OverflowError, match="source 0"):
            bfs_sigma(g, 0)
        # From the middle joint σ peaks at 2**550: only the end source fails.
        with pytest.raises(OverflowError, match="source 3300"):
            dependency_batch(g, [1650, 3300])
        assert np.isfinite(dependency_vector(g, 1650)).all()

    def test_short_chain_exact(self):
        g = diamond_chain(40)
        _, sigma = bfs_sigma(g, 0)
        assert sigma[-1] == 2.0**40

    def test_grid_30_does_not_raise(self):
        g = gen.grid_2d(30, 30)
        out = dependency_batch(g, [0, 29, 435, 899])
        assert np.isfinite(out).all()


class TestRandomShortestPath:
    def test_valid_geodesic(self):
        g = graph("grid3x4")
        dist, _ = bfs_sigma(g, 0)
        rng = np.random.default_rng(0)
        for t in range(1, g.n):
            p = random_shortest_path(g, 0, t, rng)
            assert p[0] == 0 and p[-1] == t and len(p) == dist[t] + 1
            for a, b in zip(p, p[1:]):
                assert b in g.neighbors(a)

    def test_same_endpoints_none(self):
        g = graph("path7")
        assert random_shortest_path(g, 2, 2, np.random.default_rng(0)) is None

    def test_unreachable_none(self):
        g = from_edges(4, graph_edges([(0, 1), (2, 3)]))
        assert random_shortest_path(g, 0, 3, np.random.default_rng(0)) is None

    def test_uniform_over_diamond(self):
        # Two geodesics 0→3; each must appear ~half the time.
        g = from_edges(4, graph_edges([(0, 1), (0, 2), (1, 3), (2, 3)]))
        rng = np.random.default_rng(42)
        via1 = sum(
            1 for _ in range(4000) if random_shortest_path(g, 0, 3, rng)[1] == 1
        )
        assert 0.45 < via1 / 4000 < 0.55

    def test_uniform_over_even_cycle(self):
        g = gen.cycle_graph(6)
        rng = np.random.default_rng(7)
        clockwise = sum(
            1 for _ in range(4000) if random_shortest_path(g, 0, 3, rng)[1] == 1
        )
        assert 0.45 < clockwise / 4000 < 0.55
