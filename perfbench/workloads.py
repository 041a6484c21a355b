"""The benchmark's workloads: inputs, ops and per-op correctness gates.

A workload builds its graphs and input tables from the workload seed
(``build``), computes references outside the timed phase
(``prepare_reference``), yields rounds of ops (``round``) and checks each
op's result (``check``). Every program call goes through the module
attribute (``ms.mh_single``, not a bound name), so the tracer's patches
apply to the benchmark's own calls too.
"""
from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.baselines import distance_sampler as ds
from repro.baselines import rk_sampler as rk
from repro.baselines import uniform_source as us
from repro.bfs import local
from repro.brandes import exact, reference, relative
from repro.core import mh_joint as mj
from repro.core import mh_single as ms
from repro.core import theory
from repro.graphs import generators as gen
from repro.graphs.csr import CSRGraph

EPSILON, DELTA = 0.05, 0.1  # the (ε, δ) of the Eq.-14 budget
CACHE = Path(__file__).resolve().parent / "out" / "reference-cache"


@dataclass
class Op:
    """One closed-loop request: a program call plus what its gate needs."""

    kind: str
    call: Callable[[], object]
    meta: dict = field(default_factory=dict)


@dataclass
class Verdict:
    """Outcome of one op's gate."""

    ok: bool
    sources: int  # distinct sources whose δ the op consumed
    eps_checked: int = 0
    eps_hits: int = 0


def _seeds(rng: np.random.Generator, k: int) -> list[int]:
    return [int(x) for x in rng.integers(0, 2**31, size=k)]


def distinct_proposals(seed: int, n: int, T: int, k: int | None) -> int:
    """Distinct vertices a chain with this seed looks up (its draw order:
    [r0 when joint], v0, [proposed r when joint], proposed v)."""
    rng = np.random.default_rng(seed)
    if k is not None:
        rng.integers(0, k)
    v0 = int(rng.integers(0, n))
    if k is not None:
        rng.integers(0, k, size=T)
    props = rng.integers(0, n, size=T)
    return len(np.unique(np.concatenate([[v0], props])))


def dense_columns(dm, n: int, targets) -> dict[int, np.ndarray]:
    """``dependency_matrix`` frame → ``{r: δ_•(r) over all sources}``."""
    cols = {}
    for r in targets:
        sub = dm[dm["r"] == r]
        c = np.zeros(n)
        c[sub["s"].to_numpy()] = sub["delta"].to_numpy()
        cols[int(r)] = c
    return cols


def community_hubs(g: CSRGraph, k: int) -> list[int]:
    """Highest-degree vertex of each community of ``two_communities(k)``."""
    deg = g.degrees()
    return [int(np.argmax(deg[:k])), k + int(np.argmax(deg[k : 2 * k]))]


def tree_betweenness(g: CSRGraph) -> np.ndarray:
    """Closed-form ordered-pair BC of a tree: ``(n−1)² − Σ c²`` over the
    component sizes ``c`` of ``T − v`` (unique paths). O(n), independent
    of the Brandes code."""
    n = g.n
    parent = np.full(n, -1)
    order = [0]
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    for v in order:
        for w in g.neighbors(v):
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                order.append(int(w))
    size = np.ones(n, dtype=np.int64)
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    sq = (n - size).astype(np.float64) ** 2  # the component holding the parent
    for v in order[1:]:
        sq[parent[v]] += float(size[v]) ** 2
    return (n - 1) ** 2 - sq


def cached_reference_bc(g: CSRGraph) -> np.ndarray:
    """``reference.brandes_betweenness`` (pure Python, seconds per graph),
    cached on disk under a hash of the graph and of the reference code."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(g.indptr).tobytes())
    h.update(np.ascontiguousarray(g.indices).tobytes())
    h.update(Path(reference.__file__).read_bytes())
    path = CACHE / f"{g.name}-{h.hexdigest()[:16]}.npy"
    if path.exists():
        return np.load(path)
    bc = reference.brandes_betweenness(g)
    CACHE.mkdir(parents=True, exist_ok=True)
    np.save(path, bc)
    return bc


def kernel_gate(g: CSRGraph, rng: np.random.Generator, k: int = 2) -> list[str]:
    """``dependency_vector`` against the textbook reference on ``k`` sources."""
    bad = []
    for s in rng.choice(g.n, size=k, replace=False):
        got = local.dependency_vector(g, int(s))
        want = reference.brandes_dependency(g, int(s))
        if not np.allclose(got, want):
            bad.append(f"dependency_vector({g.name}, {int(s)}) != reference")
    return bad


def kernel_families(seed: int) -> dict[str, CSRGraph]:
    """One graph per family the kernel probe reports, at workload sizes."""
    return {
        "2comm": gen.two_communities(2000, p_in=0.005, seed=seed),
        "ba": gen.barabasi_albert(2000, 3, seed=seed),
        "grid": gen.grid_2d(40, 40),
        "roc": gen.ring_of_cliques(40, 15),
        "tree": gen.random_tree(4000, seed=seed),
    }


def kernel_probe(graphs: dict[str, CSRGraph], seed: int, sources: int = 16) -> dict:
    """Single-threaded ``dependency_vector`` on the driver: median ms per
    source, BFS levels, and edges/s computed as 2m per sweep."""
    out = {}
    rng = np.random.default_rng(seed)
    for fam, g in graphs.items():
        srcs = rng.choice(g.n, size=sources, replace=False)
        local.dependency_vector(g, int(srcs[0]))  # untimed: first-touch
        ms_each, levels = [], []
        for s in srcs:
            t = time.perf_counter()
            local.dependency_vector(g, int(s))
            ms_each.append((time.perf_counter() - t) * 1e3)
            dist, _ = local.bfs_sigma(g, int(s))
            levels.append(int(dist.max()) + 1)
        kms = float(np.median(ms_each))
        out[fam] = {
            "kernel_ms": kms,
            "levels": float(np.mean(levels)),
            "edges_per_s": 2 * g.m / (kms / 1e3),
        }
    return out


class ColdSeparator:
    """Cold (ε, δ) estimates of BC(separator) on ``two_communities(2000)``."""

    name = "cold-separator"
    warmup = ("mh_single", "rk")  # the two Spark plans its ops run

    def __init__(self, spark, seed: int) -> None:
        self.spark, self.seed = spark, seed

    def build(self) -> None:
        self.g = gen.two_communities(2000, p_in=0.005, seed=self.seed)
        self.graphs = {"2comm": self.g}
        self.r = self.g.n - 1
        self.R = [self.r, *community_hubs(self.g, 2000)]

    def prepare_reference(self) -> None:
        g = self.g
        cols = dense_columns(exact.dependency_matrix(self.spark, g, self.R), g.n, self.R)
        col = cols[self.r]
        self.T = theory.sample_budget(EPSILON, DELTA, relative.mu_r(col))
        self.limit = relative.single_space_limit(col, g.n)
        self.nbc = exact.normalized_bc(float(col.sum()), g.n)
        self.scores = {v: float(col[v]) for v in range(g.n)}
        self.scores_joint = {
            v: np.array([cols[r][v] for r in self.R]) for v in range(g.n)
        }

    def round(self, rng: np.random.Generator) -> list[Op]:
        """Each single-target estimator twice, ``mh_joint`` once."""
        sp, g, r, T, R = self.spark, self.g, self.r, self.T, self.R
        ops = []
        for _ in range(2):
            a, b, c, d = _seeds(rng, 4)
            ops += [
                Op("mh_single", lambda a=a: ms.mh_single(sp, g, r, T, seed=a), {"seed": a}),
                Op("uniform", lambda b=b: us.uniform_source_estimate(sp, g, r, T, seed=b),
                   {"seed": b}),
                Op("distance", lambda c=c: ds.distance_sampler_estimate(sp, g, r, T, seed=c),
                   {"seed": c}),
                Op("rk", lambda d=d: rk.rk_estimate(sp, g, r, T, seed=d), {"seed": d}),
            ]
        (e,) = _seeds(rng, 1)
        ops.append(Op("mh_joint", lambda: mj.mh_joint(sp, g, R, 4000, seed=e), {"seed": e}))
        rng.shuffle(ops)
        return ops

    def check(self, op: Op, res) -> Verdict:
        sp, g, r, T, s = self.spark, self.g, self.r, self.T, op.meta["seed"]
        if op.kind == "mh_single":
            twin = ms.mh_single(sp, g, r, T, seed=s, scores=self.scores)
            ok = (
                np.isfinite(res.estimate)
                and res.estimate == twin.estimate
                and np.array_equal(res.states, twin.states)
                and np.array_equal(res.accepted, twin.accepted)
            )
            hit = abs(res.estimate - self.limit) <= EPSILON
            return Verdict(bool(ok), res.n_scored, 1, int(hit))
        if op.kind in ("uniform", "distance"):
            fn = {"uniform": us.uniform_source_estimate,
                  "distance": ds.distance_sampler_estimate}[op.kind]
            twin = fn(sp, g, r, T, seed=s, scores=self.scores)
            ok = np.isfinite(res.estimate_bc) and res.estimate_bc == twin.estimate_bc
            return Verdict(bool(ok), res.n_scored)
        if op.kind == "rk":
            # No scores= path to compare against: a finite estimate in [0, 1]
            # within 0.1 of nbc(r) (five standard errors at T ≈ 600 paths).
            est = res.estimate_nbc
            ok = np.isfinite(est) and 0.0 <= est <= 1.0 and abs(est - self.nbc) <= 0.1
            return Verdict(bool(ok), T)
        twin = mj.mh_joint(sp, g, self.R, 4000, seed=s, scores=self.scores_joint)
        ok = (
            not np.isinf(res.ratio).any()
            and np.array_equal(res.ratio, twin.ratio, equal_nan=True)
            and np.array_equal(res.relative, twin.relative, equal_nan=True)
            and np.array_equal(res.v_chain, twin.v_chain)
        )
        return Verdict(bool(ok), res.n_scored)


class ExactDeep:
    """Exact BC vectors of high-diameter graphs: the kernel dominates."""

    name = "exact-deep"
    warmup = ("betweenness_vector",)

    def __init__(self, spark, seed: int) -> None:
        self.spark, self.seed = spark, seed

    def build(self) -> None:
        self.graphs = {
            "grid": gen.grid_2d(40, 40),
            "roc": gen.ring_of_cliques(40, 15),
            "tree": gen.random_tree(4000, seed=self.seed),
        }

    def prepare_reference(self) -> None:
        small = gen.random_tree(200, seed=self.seed)
        if not np.allclose(tree_betweenness(small), reference.brandes_betweenness(small)):
            raise RuntimeError("tree closed form disagrees with the reference")
        self.ref = {
            "grid": cached_reference_bc(self.graphs["grid"]),
            "roc": cached_reference_bc(self.graphs["roc"]),
            "tree": tree_betweenness(self.graphs["tree"]),
        }

    def round(self, rng: np.random.Generator) -> list[Op]:
        ops = [
            Op(f"betweenness_vector.{fam}",
               lambda g=g: exact.betweenness_vector(self.spark, g), {"fam": fam})
            for fam, g in self.graphs.items()
        ]
        rng.shuffle(ops)
        return ops

    def check(self, op: Op, res) -> Verdict:
        fam = op.meta["fam"]
        g, ref = self.graphs[fam], self.ref[fam]
        ok = bool(np.isfinite(res).all() and np.allclose(res, ref))
        scale = g.n * (g.n - 1)
        hit = bool(np.max(np.abs(res - ref)) / scale <= EPSILON)
        return Verdict(ok, g.n, 1, int(hit))


class WarmChains:
    """Seeded chains over dependency tables built in set-up: driver only."""

    name = "warm-chains"
    warmup = ()  # no Spark plan in the timed phase
    TS = (2000, 16000)

    def __init__(self, spark, seed: int) -> None:
        self.spark, self.seed = spark, seed

    def build(self) -> None:
        sp = self.spark
        g2 = gen.two_communities(2000, p_in=0.005, seed=self.seed)
        ba = gen.barabasi_albert(2000, 3, seed=self.seed)
        self.graphs = {"2comm": g2, "ba": ba}
        # The BA target is the highest-BC vertex among the eight highest-degree
        # ones: one n-pass job yields their columns and hence their BC.
        cand = [int(v) for v in np.argsort(-ba.degrees(), kind="stable")[:8]]
        cols_ba = dense_columns(exact.dependency_matrix(sp, ba, cand), ba.n, cand)
        hub = max(cand, key=lambda v: cols_ba[v].sum())
        colba = cols_ba[hub]
        R2 = [g2.n - 1, *community_hubs(g2, 2000)]
        cols2 = dense_columns(exact.dependency_matrix(sp, g2, R2), g2.n, R2)
        # (graph, r, dense column, scores table) per single-chain target
        self.single = {
            "2comm": (g2, R2[0], cols2[R2[0]], {v: float(cols2[R2[0]][v]) for v in range(g2.n)}),
            "ba": (ba, hub, colba, {v: float(colba[v]) for v in range(ba.n)}),
        }
        self.R2 = R2
        self.table_joint = np.stack([cols2[r] for r in R2], axis=1)
        self.scores_joint = {v: self.table_joint[v].copy() for v in range(g2.n)}

    def prepare_reference(self) -> None:
        self.limit, self.budget = {}, {}
        for key, (g, _, col, _) in self.single.items():
            self.limit[key] = relative.single_space_limit(col, g.n)
            self.budget[key] = theory.sample_budget(EPSILON, DELTA, relative.mu_r(col))

    def round(self, rng: np.random.Generator) -> list[Op]:
        sp = self.spark
        ops = []
        for key, (g, r, _, scores) in self.single.items():
            for T in self.TS:
                s = int(rng.integers(0, 2**31))
                ops.append(Op(
                    f"mh_single.{key}.T{T}",
                    lambda g=g, r=r, T=T, s=s, sc=scores:
                        ms.mh_single(sp, g, r, T, seed=s, scores=sc),
                    {"key": key, "T": T, "seed": s},
                ))
        s = int(rng.integers(0, 2**31))
        g2 = self.single["2comm"][0]
        ops.append(Op(
            "mh_joint.2comm.T16000",
            lambda: mj.mh_joint(sp, g2, self.R2, 16000, seed=s, scores=self.scores_joint),
            {"T": 16000, "seed": s},
        ))
        rng.shuffle(ops)
        return ops

    def check(self, op: Op, res) -> Verdict:
        T, s = op.meta["T"], op.meta["seed"]
        if op.kind.startswith("mh_single"):
            key = op.meta["key"]
            g, _, col, _ = self.single[key]
            ok = (
                np.isfinite(res.estimate)
                and res.n_scored == 0
                and np.array_equal(res.delta_chain, col[res.states])
            )
            checked = int(T >= self.budget[key])
            hit = checked and abs(res.estimate - self.limit[key]) <= EPSILON
            return Verdict(bool(ok), distinct_proposals(s, g.n, T, None), checked, int(hit))
        g2 = self.single["2comm"][0]
        ok = (
            not np.isinf(res.ratio).any()
            and res.n_scored == 0
            and np.array_equal(res.delta_chain, self.table_joint[res.v_chain])
        )
        return Verdict(bool(ok), distinct_proposals(s, g2.n, T, len(self.R2)))


WORKLOADS = {w.name: w for w in (ColdSeparator, ExactDeep, WarmChains)}
