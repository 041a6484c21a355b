"""Graph-property DataFrame computations (components, diameter)."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graphs import generators as gen
from repro.graphs.csr import from_edges
from repro.graphs.properties import connected_components, diameter
from repro.graphs.spark_io import edges_spark
from repro.oracle import assert_equivalent

from .conftest import graph


class TestConnectedComponents:
    def test_single_component(self, spark):
        g = graph("er30")
        cc = connected_components(edges_spark(spark, g))
        assert cc.select("component").distinct().count() == 1

    def test_two_components(self, spark):
        g = from_edges(
            6, pd.DataFrame({"src": [0, 1, 3, 4], "dst": [1, 2, 4, 5]})
        )
        cc = connected_components(edges_spark(spark, g))
        labels = {row["id"]: row["component"] for row in cc.collect()}
        assert labels[0] == labels[1] == labels[2] == 0
        assert labels[3] == labels[4] == labels[5] == 3

    def test_component_is_min_reachable_id(self, spark):
        g = graph("cycle9")
        cc = connected_components(edges_spark(spark, g))
        assert cc.where(F.col("component") != 0).count() == 0

    def test_long_path_needs_more_than_50_rounds(self, spark):
        # Labels travel one hop per round: path-60 needs 59 rounds.
        old = spark.conf.get("spark.sql.shuffle.partitions")
        spark.conf.set("spark.sql.shuffle.partitions", "4")
        try:
            cc = connected_components(edges_spark(spark, gen.path_graph(60)))
            labels = cc.toPandas()
        finally:
            spark.conf.set("spark.sql.shuffle.partitions", old)
        assert len(labels) == 60 and (labels["component"] == 0).all()

    def test_oracle_count_per_component(self, spark):
        g = from_edges(
            5, pd.DataFrame({"src": [0, 1, 3], "dst": [1, 2, 4]})
        )
        cc = connected_components(edges_spark(spark, g))
        out = cc.groupBy("component").agg(F.count("*").alias("size"))
        assert_equivalent(
            out,
            "SELECT component, count(*) AS size FROM cc GROUP BY component",
            cc=cc,
        )


class TestDiameter:
    @pytest.mark.parametrize(
        "g,expect",
        [
            (gen.path_graph(9), 8),
            (gen.cycle_graph(10), 5),
            (gen.star_graph(12), 2),
            (gen.complete_graph(6), 1),
            (gen.grid_2d(3, 4), 5),
            (gen.barbell(4), 4),
        ],
        ids=["path", "cycle", "star", "complete", "grid", "barbell"],
    )
    def test_exact(self, g, expect):
        assert diameter(g) == expect

    def test_sampled_lower_bound(self):
        g = gen.random_tree(80, seed=1)
        full = diameter(g)
        sampled = diameter(g, sources=10, seed=0)
        assert sampled <= full

    def test_sampled_deterministic(self):
        g = gen.erdos_renyi(60, 0.08, seed=2)
        assert diameter(g, sources=8, seed=5) == diameter(g, sources=8, seed=5)
