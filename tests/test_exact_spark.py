"""Distributed exact Brandes ≡ pure-Python reference."""
import numpy as np
import pytest

from repro.bfs.local import batch_size
from repro.brandes.exact import (
    betweenness_all,
    betweenness_of,
    betweenness_vector,
    dependency_matrix,
    normalized_bc,
)
from repro.brandes.reference import brandes_betweenness, brandes_dependency
from repro.graphs import generators as gen

from .conftest import SMALL_GRAPHS, dep_column, exact_bc, graph
from .test_local_bfs import BATCH_GRAPHS


@pytest.mark.parametrize("key", sorted(SMALL_GRAPHS))
def test_betweenness_vector_matches_reference(spark, key):
    assert np.allclose(betweenness_vector(spark, graph(key)), exact_bc(key))


def test_betweenness_vector_disconnected(spark):
    g = BATCH_GRAPHS["disconnected"]()
    assert np.allclose(betweenness_vector(spark, g), brandes_betweenness(g))


def test_betweenness_all_schema(spark):
    df = betweenness_all(spark, graph("er30"))
    assert set(df.columns) == {"id", "bc"}
    assert df.count() == graph("er30").n


def test_betweenness_of_single_vertex(spark):
    key = "ba30"
    bc = exact_bc(key)
    r = int(np.argmax(bc))
    assert np.isclose(betweenness_of(spark, graph(key), r), bc[r])


class TestDependencyMatrix:
    def test_full_matrix_matches_reference(self, spark):
        key = "er30"
        g = graph(key)
        targets = [0, 5, 11]
        dm = dependency_matrix(spark, g, targets)
        assert len(dm) == g.n * len(targets)
        for r in targets:
            sub = dm[dm["r"] == r].sort_values("s")
            assert np.allclose(sub["delta"].to_numpy(), dep_column(key, r))

    def test_sources_subset(self, spark):
        key = "grid3x4"
        g = graph(key)
        dm = dependency_matrix(spark, g, [0], sources=[3, 7])
        assert sorted(dm["s"]) == [3, 7]
        for row in dm.itertuples(index=False):
            assert np.isclose(row.delta, brandes_dependency(g, int(row.s))[0])

    def test_source_subset_rows_bit_identical_to_full(self, spark):
        # Dense enough that tasks run several kernel batches, with remainders.
        g = gen.erdos_renyi(200, 0.6, seed=3)
        k = batch_size(g)
        assert 1 < k < g.n // 8 and g.n % k
        targets = [0, 17, 199]
        full = dependency_matrix(spark, g, targets)
        subset = [5, 60, 61, 130, 199, 2, 77, 150, 33, 101, 11]
        sub = dependency_matrix(spark, g, targets, sources=subset)
        want = full[full["s"].isin(subset)].reset_index(drop=True)
        assert len(sub) == len(subset) * len(targets)
        for col in ("s", "r", "delta"):
            assert np.array_equal(sub[col].to_numpy(), want[col].to_numpy())

    def test_duplicate_targets_deduplicated(self, spark):
        g = graph("path7")
        dm = dependency_matrix(spark, g, [3, 3], sources=[0])
        assert len(dm) == 1

    def test_column_sum_is_bc(self, spark):
        key = "barbell5"
        dm = dependency_matrix(spark, graph(key), [5])
        assert np.isclose(dm["delta"].sum(), exact_bc(key)[5])


class TestNormalizedBc:
    def test_scale(self):
        assert normalized_bc(90.0, 10) == 1.0

    def test_bounds_on_suite(self, spark):
        key = "star8"
        g = graph(key)
        bc = exact_bc(key)
        for v in range(g.n):
            assert 0.0 <= normalized_bc(float(bc[v]), g.n) <= 1.0

    def test_star_center_value(self):
        # (n−1)(n−2)/(n(n−1)) = (n−2)/n.
        n = 8
        assert np.isclose(normalized_bc(float(exact_bc("star8")[0]), n), (n - 2) / n)
