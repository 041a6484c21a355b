"""End-to-end sampler runs through the real Spark scoring phase."""
import numpy as np

from repro.core.mh_joint import mh_joint, score_vertices_joint
from repro.core.mh_single import mh_single, score_vertices

from .conftest import dep_column, exact_bc, graph


class TestScoreVertices:
    def test_csr_kernel_matches_ground_truth(self, spark):
        key, r = "er30", 0
        col = dep_column(key, r)
        table, n_scored = score_vertices(spark, graph(key), np.array([1, 5, 9, 5]), [r])
        assert n_scored == 3
        for v in (1, 5, 9):
            assert np.isclose(table[v, 0], col[v])
        assert np.isnan(np.delete(table[:, 0], [1, 5, 9])).all()

    def test_joint_scoring_vector_per_R(self, spark):
        key = "ba30"
        R = [0, 1, 5]
        table, _ = score_vertices_joint(spark, graph(key), np.array([3, 8]), R)
        assert table.shape == (graph(key).n, 3)
        for v in (3, 8):
            for i, r in enumerate(R):
                assert np.isclose(table[v, i], dep_column(key, r)[v])


class TestEndToEnd:
    def test_mh_single_spark_path_equals_precomputed(self, spark):
        key, r = "er30", 0
        g = graph(key)
        col = dep_column(key, r)
        pre = {v: float(col[v]) for v in range(g.n)}
        a = mh_single(spark, g, r, 150, seed=21)  # scores via Spark
        b = mh_single(None, g, r, 150, seed=21, scores=pre)
        assert np.array_equal(a.states, b.states)
        assert np.isclose(a.estimate, b.estimate)
        assert a.n_scored > 0 and b.n_scored == 0

    def test_mh_joint_spark_path_equals_precomputed(self, spark):
        key = "ba30"
        g = graph(key)
        R = [0, 1]
        pre = {
            v: np.array([dep_column(key, r)[v] for r in R]) for v in range(g.n)
        }
        a = mh_joint(spark, g, R, 150, seed=31)
        b = mh_joint(None, g, R, 150, seed=31, scores=pre)
        assert np.array_equal(a.v_chain, b.v_chain)
        assert np.allclose(a.ratio, b.ratio, equal_nan=True)

    def test_partial_scores_topped_up(self, spark):
        # Supplying only some scores: the rest must come from Spark and
        # the chain must equal the fully-precomputed run.
        key, r = "er30", 0
        g = graph(key)
        col = dep_column(key, r)
        partial = {v: float(col[v]) for v in range(0, g.n, 2)}
        full = {v: float(col[v]) for v in range(g.n)}
        a = mh_single(spark, g, r, 100, seed=5, scores=partial)
        b = mh_single(None, g, r, 100, seed=5, scores=full)
        assert np.array_equal(a.states, b.states)
