"""Tests for exact relative-betweenness quantities and μ(r)."""
import numpy as np
import pytest

from repro.brandes.exact import normalized_bc
from repro.brandes.relative import (
    eq21_residual,
    eq19_sides,
    min_ratio,
    mu_r,
    relative_bc_chain,
    relative_bc_eq23,
    single_space_limit,
    stationary_distribution,
)

from .conftest import SMALL_GRAPHS, dep_column, exact_bc, graph


def _positive_bc_vertices(key, k=3):
    bc = exact_bc(key)
    order = np.argsort(bc)[::-1]
    return [int(v) for v in order[:k] if bc[v] > 0]


class TestMinRatio:
    def test_plain(self):
        out = min_ratio(np.array([1.0, 5.0]), np.array([2.0, 2.0]))
        assert np.allclose(out, [0.5, 1.0])

    def test_x_over_zero_is_one(self):
        assert min_ratio(np.array([3.0]), np.array([0.0]))[0] == 1.0

    def test_zero_over_zero_is_zero(self):
        assert min_ratio(np.array([0.0]), np.array([0.0]))[0] == 0.0

    def test_zero_over_x_is_zero(self):
        assert min_ratio(np.array([0.0]), np.array([4.0]))[0] == 0.0

    def test_bounded_by_one(self):
        rng = np.random.default_rng(0)
        out = min_ratio(rng.random(100) * 10, rng.random(100) * 10)
        assert (out <= 1.0).all() and (out >= 0.0).all()


class TestMu:
    @pytest.mark.parametrize("key", sorted(SMALL_GRAPHS))
    def test_mu_at_least_one(self, key):
        g = graph(key)
        for r in _positive_bc_vertices(key):
            assert mu_r(dep_column(key, r)) >= 1.0

    def test_mu_inf_when_bc_zero(self):
        # A star leaf has zero betweenness: all dependencies on it are 0.
        assert mu_r(dep_column("star8", 1)) == float("inf")

    def test_star_center_mu(self):
        # δ_v•(0) = n−2 for every leaf ⇒ μ = n/(n−1).
        n = graph("star8").n
        assert np.isclose(mu_r(dep_column("star8", 0)), n / (n - 1))

    def test_barbell_center_mu_close_to_one(self):
        k = 5
        mu = mu_r(dep_column("barbell5", k))
        assert np.isclose(mu, (2 * k + 1) / (2 * k))

    def test_ineq11_tightness(self):
        # μ is the tightest constant: max δ == μ · mean δ exactly.
        col = dep_column("er30", 0)
        mu = mu_r(col)
        assert np.isclose(col.max(), mu * col.mean())


class TestStationaryDistribution:
    @pytest.mark.parametrize("key", ["er30", "ba30", "barbell5"])
    def test_sums_to_one(self, key):
        for r in _positive_bc_vertices(key):
            assert np.isclose(stationary_distribution(dep_column(key, r)).sum(), 1.0)

    def test_proportional_to_delta(self):
        col = dep_column("er30", 5)
        pi = stationary_distribution(col)
        assert np.allclose(pi, col / col.sum())

    def test_uniform_fallback_when_degenerate(self):
        pi = stationary_distribution(np.zeros(4))
        assert np.allclose(pi, 0.25)


class TestEq19Identity:
    @pytest.mark.parametrize("key", sorted(SMALL_GRAPHS))
    def test_exact_identity(self, key):
        vs = _positive_bc_vertices(key, k=3)
        for i in range(len(vs)):
            for j in range(len(vs)):
                if i == j:
                    continue
                a, b = dep_column(key, vs[i]), dep_column(key, vs[j])
                lhs, rhs = eq19_sides(a, b)
                if np.isnan(rhs):
                    # Disjoint supports: 0/0 — Eq. 19 degenerates but the
                    # cross-multiplied Eq.-21 form must still hold.
                    assert relative_bc_chain(a, b) == 0.0
                else:
                    assert np.isclose(lhs, rhs), (key, vs[i], vs[j])

    @pytest.mark.parametrize("key", sorted(SMALL_GRAPHS))
    def test_eq21_residual_always_zero(self, key):
        vs = _positive_bc_vertices(key, k=3)
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                res = eq21_residual(dep_column(key, vs[i]), dep_column(key, vs[j]))
                assert abs(res) < 1e-9, (key, vs[i], vs[j])

    @pytest.mark.parametrize("zero_first", [True, False], ids=["leaf-centre", "centre-leaf"])
    def test_eq21_residual_zero_bc(self, zero_first):
        # A star leaf has BC 0: both sides of the summed Eq. 21 are 0.
        pair = [dep_column("star8", 1), dep_column("star8", 0)]
        assert eq21_residual(*(pair if zero_first else pair[::-1])) == 0.0

    @pytest.mark.parametrize("zero_first", [True, False], ids=["leaf-centre", "centre-leaf"])
    def test_eq19_sides_zero_bc_raises(self, zero_first):
        leaf, centre = dep_column("star8", 1), dep_column("star8", 0)
        args, name = ((leaf, centre), "delta_i") if zero_first else ((centre, leaf), "delta_j")
        with pytest.raises(ValueError, match=name):
            eq19_sides(*args)

    def test_reciprocal_pairs(self):
        a, b = dep_column("er30", 0), dep_column("er30", 1)
        l1, _ = eq19_sides(a, b)
        l2, _ = eq19_sides(b, a)
        assert np.isclose(l1 * l2, 1.0)


class TestRelativeScores:
    def test_chain_variant_symmetric_numerator(self):
        # BC*_{rj}(ri)·BC(rj) == BC*_{ri}(rj)·BC(ri) == Σ min(δi, δj).
        a, b = dep_column("ba30", 0), dep_column("ba30", 1)
        lhs = relative_bc_chain(a, b) * b.sum()
        rhs = relative_bc_chain(b, a) * a.sum()
        assert np.isclose(lhs, rhs)

    def test_self_relative_is_one(self):
        a = dep_column("er30", 3)
        assert np.isclose(relative_bc_chain(a, a), 1.0)
        # Eq. 23 self-score: min{1, δ/δ} is 1 where δ>0, 0 where δ=0.
        assert relative_bc_eq23(a, a) == np.mean(a > 0)

    def test_range(self):
        a, b = dep_column("grid3x4", 5), dep_column("grid3x4", 6)
        for f in (relative_bc_eq23, relative_bc_chain):
            assert 0.0 <= f(a, b) <= 1.0

    def test_nan_on_zero_bc(self):
        assert np.isnan(relative_bc_chain(dep_column("star8", 0), dep_column("star8", 1)))


class TestSingleSpaceLimit:
    @pytest.mark.parametrize("key", sorted(SMALL_GRAPHS))
    def test_bias_envelope(self, key):
        g = graph(key)
        for r in _positive_bc_vertices(key):
            col = dep_column(key, r)
            nbc = normalized_bc(float(col.sum()), g.n)
            lim = single_space_limit(col, g.n)
            mu = mu_r(col)
            assert nbc - 1e-12 <= lim <= mu * nbc + 1e-12

    def test_degenerate_zero(self):
        assert single_space_limit(np.zeros(5), 5) == 0.0

    def test_uniform_delta_equals_nbc_scaled(self):
        # Constant dependencies (star centre): limit = δ/(n−1).
        col = dep_column("star8", 0)
        n = graph("star8").n
        assert np.isclose(single_space_limit(col, n), (n - 2) / (n - 1))
