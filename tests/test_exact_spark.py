"""Distributed exact Brandes ≡ pure-Python reference."""
import time

import numpy as np
import pytest
from pyspark import SparkContext
from pyspark.broadcast import Broadcast

from repro.baselines.rk_sampler import rk_estimate
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
    assert len(df) == graph("er30").n


def test_betweenness_vector_deterministic(spark):
    g = graph("ba30")
    assert np.array_equal(betweenness_vector(spark, g), betweenness_vector(spark, g))


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

    def test_empty_sources(self, spark):
        dm = dependency_matrix(spark, graph("path7"), [3], sources=[])
        assert list(dm.columns) == ["s", "r", "delta"] and len(dm) == 0

    @pytest.mark.parametrize(
        "targets, sources",
        [([-1], None), ([7], None), ([3], [-1]), ([3], [7])],
        ids=["target-negative", "target-is-n", "source-negative", "source-is-n"],
    )
    def test_out_of_range_ids_raise_before_any_job(self, spark, targets, sources):
        g = graph("path7")
        sc = spark.sparkContext
        sc.setJobGroup("bad-ids", "bad-ids")
        try:
            with pytest.raises(ValueError, match="outside"):
                dependency_matrix(spark, g, targets, sources=sources)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        assert sc.statusTracker().getJobIdsForGroup("bad-ids") == []

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


# One call of each fan-out, with the number of items it fans out over.
FAN_OUTS = {
    "dependency_matrix": (
        lambda sp: dependency_matrix(sp, graph("er30"), [0, 5], sources=[1, 2, 9]),
        3,
    ),
    "betweenness_vector": (lambda sp: betweenness_vector(sp, graph("er30")), 30),
    "rk_estimate": (lambda sp: rk_estimate(sp, graph("er30"), 0, 200, seed=1), 200),
}


def _job_stage_tasks(sc, group: str, timeout_s: float = 10.0) -> list[list[int]]:
    """Tasks per stage of each job in ``group``, once the status store has
    seen every job finish (listener events arrive asynchronously)."""
    st = sc.statusTracker()
    deadline = time.monotonic() + timeout_s
    while True:
        jobs = [st.getJobInfo(j) for j in st.getJobIdsForGroup(group)]
        done = jobs and all(j is not None and j.status == "SUCCEEDED" for j in jobs)
        if done or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    return [[st.getStageInfo(s).numTasks for s in j.stageIds] for j in jobs if j is not None]


@pytest.mark.parametrize("name", sorted(FAN_OUTS))
def test_fan_out_is_one_job_one_stage_one_wave(spark, name):
    call, n_items = FAN_OUTS[name]
    sc = spark.sparkContext
    group = f"shape-{name}"
    sc.setJobGroup(group, group)
    try:
        call(spark)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert _job_stage_tasks(sc, group) == [[min(n_items, sc.defaultParallelism)]]


@pytest.mark.parametrize("name", sorted(FAN_OUTS))
def test_fan_out_destroys_its_broadcasts(spark, monkeypatch, name):
    created, destroyed = [], []
    broadcast, destroy = SparkContext.broadcast, Broadcast.destroy

    def counting_broadcast(self, value):
        b = broadcast(self, value)
        created.append(b)
        return b

    def counting_destroy(self, *args, **kwargs):
        destroyed.append(self)
        return destroy(self, *args, **kwargs)

    monkeypatch.setattr(SparkContext, "broadcast", counting_broadcast)
    monkeypatch.setattr(Broadcast, "destroy", counting_destroy)
    FAN_OUTS[name][0](spark)
    assert len(created) == 1 and destroyed == created
