"""Kernel accuracy against recorded reference values and identities.

Reference fixtures were computed once with scipy (scipy.stats.shapiro,
scipy.special.kolmogorov) and frozen here; scipy itself is only
imported for the wide-range cross-checks so the recorded numbers stay
the contract.
"""

import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptda.errors import DomainError, InputError
from ptda.smoothing import select_c
from ptda.stats import (
    expit,
    ks_two_sample_sorted,
    log_gamma,
    normal_cdf,
    shapiro_wilk_sorted,
)

from oracles import brute_force_ks_distance, log_beta


def sw_row(sample):
    """(W, p) of one sample, scored as a one-row block of the kernel."""
    w_stat, p = shapiro_wilk_sorted(np.sort(np.asarray(sample, dtype=float))[None])
    return float(w_stat[0]), float(p[0])


def ks_row(a, b):
    """(D, p) of two samples, scored as one pooled row of the kernel."""
    pooled = np.concatenate([np.asarray(a, dtype=float), np.asarray(b, dtype=float)])
    order = np.argsort(pooled)
    d, p = ks_two_sample_sorted(pooled[order][None], (order < len(a))[None])
    return float(d[0]), float(p[0])


class TestLogGamma:
    def test_matches_stdlib_over_range(self):
        xs = np.concatenate([
            np.linspace(0.05, 0.49, 23),
            np.linspace(0.5, 20.0, 101),
            np.array([50.0, 123.456, 1e3, 1e5]),
        ])
        assert np.array_equal(log_gamma(xs), [math.lgamma(v) for v in xs])
        assert np.array_equal(log_gamma(xs.reshape(4, 32)), log_gamma(xs).reshape(4, 32))

    def test_scalar_and_domain(self):
        assert log_gamma(1.0) == 0.0
        assert type(log_gamma(0.3)) is float and log_gamma(0.3) == math.lgamma(0.3)
        for bad in (0.0, -3.0, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                log_gamma(bad)
            with pytest.raises(DomainError):
                log_gamma(np.array([2.0, bad]))


class TestLogBeta:
    """The oracles' log-beta, which the direct log-Bayes-factor reference sums."""

    def test_fixtures(self):
        assert log_beta(1.0, 1.0) == pytest.approx(0.0, abs=1e-13)
        assert log_beta(3.0, 3.0) == pytest.approx(math.log(1.0 / 30.0), rel=1e-12)
        assert log_beta(0.5, 0.5) == pytest.approx(math.log(math.pi), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_beta(0.0, 1.0)

    @given(st.floats(0.01, 50.0), st.floats(0.01, 50.0))
    def test_symmetry(self, a, b):
        assert log_beta(a, b) == pytest.approx(log_beta(b, a), rel=1e-12, abs=1e-12)


class TestNormalCdfArrays:
    """The per-value math.erfc form against scipy, on arrays of any shape."""

    # math.erfc is the C library's erfc; these are glibc's (fdlibm's) branch
    # points in t = -z / sqrt 2 (the 1/0.35 cut is the double whose high
    # word is 0x4006DB6D)
    BRANCHES = (0.84375, 1.25, float(np.array(0x4006DB6D << 32, dtype=np.uint64).view(np.float64)),
                6.0, 28.0)

    @staticmethod
    def reference(z):
        return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z.tolist()])

    def check(self, z):
        ours = normal_cdf(z)
        assert np.array_equal(ours, self.reference(z))
        special = pytest.importorskip("scipy.special")
        assert np.all(np.abs(ours - special.ndtr(z)) <= 1e-15)

    def test_branch_points_and_neighbours(self):
        z = np.array([s * math.sqrt(2.0) * b for b in self.BRANCHES for s in (1.0, -1.0)])
        for _ in range(3):
            z = np.concatenate([z, np.nextafter(z, -np.inf), np.nextafter(z, np.inf)])
        t = -z / math.sqrt(2.0)
        for b in self.BRANCHES:  # both sides of every branch point are reached
            assert np.any(np.abs(t) < b) and np.any(np.abs(t) >= b)
        self.check(np.unique(z))

    def test_tails_and_signed_zero(self):
        z = np.array([38.0, -38.0, 40.0, -40.0, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324])
        self.check(z)
        assert normal_cdf(z)[4:6].tolist() == [1.0, 0.0]

    def test_dense_sweep(self):
        rng = np.random.default_rng(17)
        self.check(np.concatenate([rng.normal(size=20000), rng.uniform(-42.0, 42.0, size=20000)]))

    def test_nan_passes_through(self):
        assert np.isnan(normal_cdf(np.array([0.1, np.nan]))[1])

    def test_number_and_list_take_the_array_path(self):
        z = [0.3, -2.0, 7.5]
        out = normal_cdf(z)
        assert isinstance(out, np.ndarray) and out.shape == (3,)
        for v, ref in zip(z, out.tolist()):
            number = normal_cdf(v)
            assert isinstance(number, np.ndarray) and number.shape == ()
            assert float(number) == ref
        self.check(np.array(z))

    @given(st.floats(1e-12, 1.0 - 1e-12))
    @settings(max_examples=300)
    def test_inverts_the_stdlib_quantile(self, q):
        assert abs(float(normal_cdf(NormalDist().inv_cdf(q))) - q) <= 1e-10

    @pytest.mark.parametrize("shape", [(), (0,), (0, 3), (2, 3), (17000,)])
    def test_shape_kept(self, shape):
        z = np.linspace(-3.0, 3.0, int(np.prod(shape))).reshape(shape)
        out = normal_cdf(z)
        assert isinstance(out, np.ndarray) and out.shape == shape
        assert np.array_equal(out.ravel(), normal_cdf(z.ravel()))


class TestExpit:
    def test_values(self):
        out = expit(np.array([0.0, 710.0, -710.0, 100.0]))
        assert out[0] == 0.5
        assert out[1] == 1.0  # saturates without overflow
        assert out[2] == pytest.approx(0.0, abs=1e-300)
        assert out.shape == (4,)

    @given(st.floats(-500.0, 500.0))
    def test_reflection(self, z):
        pair = expit(np.array([-z, z]))
        assert abs(pair[0] - (1.0 - pair[1])) <= 1e-15


class TestShapiroWilk:
    # fixtures recorded from scipy.stats.shapiro
    def test_equally_spaced_five(self):
        w_stat, p = sw_row([1.0, 2.0, 3.0, 4.0, 5.0])
        assert w_stat == pytest.approx(0.986762155211559, abs=1e-4)
        assert p == pytest.approx(0.9671739349728582, abs=1e-4)

    def test_three_point_exact(self):
        w_stat, p = sw_row([1.0, 2.0, 4.0])
        assert w_stat == pytest.approx(0.9642857142857142, abs=1e-10)
        assert p == pytest.approx(0.6368868450289689, abs=1e-6)

    def test_skewed_sample(self):
        x = [0.139, 0.157, 0.175, 0.256, 0.344, 0.413, 0.503, 0.577, 0.614, 0.655,
             0.954, 1.392, 1.557, 1.648, 1.690, 1.994, 2.174, 2.206, 3.245, 3.510,
             3.571, 4.354, 4.980, 6.084, 8.351]
        w_stat, p = sw_row(x)
        assert w_stat == pytest.approx(0.8346662753381485, abs=1e-4)
        assert p == pytest.approx(0.0009134904825887374, abs=1e-4)

    def test_normal_sample_n12(self):
        x = [0.483983, -0.053693, 0.466786, 0.202275, -0.688645, -1.477785,
             1.19257, -0.148911, -1.615774, -1.209327, 0.149468, 0.57923]
        w_stat, p = sw_row(x)
        assert w_stat == pytest.approx(0.9324446302306686, abs=1e-4)
        assert p == pytest.approx(0.40674575045894407, abs=1e-4)

    def test_constant_row_scores_nan_and_zero(self):
        # a constant sample has no W, and its p-value ranks it least normal
        rows = np.array([[3.0] * 10, np.arange(10.0), [-1.0] * 10])
        w_stat, p = shapiro_wilk_sorted(rows)
        assert np.isnan(w_stat[[0, 2]]).all() and p[[0, 2]].tolist() == [0.0, 0.0]
        assert (w_stat[1], p[1]) == pytest.approx(sw_row(np.arange(10.0)), abs=1e-14)

    def test_row_spanning_past_the_double_range(self):
        # max - min of this sorted row overflows; the constant check compares
        # the ends instead, so no RuntimeWarning (an error in this suite) is raised
        w_stat, p = shapiro_wilk_sorted([[-1.7e308, 0.0, 1.7e308]])
        assert w_stat.tolist() == [1.0]
        assert p.tolist() == [1.0]

    def test_location_scale_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=40)
        base, _ = sw_row(x)
        moved, _ = sw_row(2.5 * x + 7.0)
        assert moved == pytest.approx(base, abs=1e-10)

    def test_cauchy_rejection_rate(self):
        # statistical fixture: heavy tails must be flagged nearly always
        rng = np.random.default_rng(7)
        hits = sum(sw_row(rng.standard_cauchy(100))[1] < 0.01 for _ in range(200))
        assert hits >= 198


class TestKsTwoSample:
    def test_identical(self):
        assert ks_row([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == (0.0, 1.0)

    def test_disjoint(self):
        assert ks_row([0.0, 0.1, 0.2], [5.0, 6.0])[0] == 1.0

    def test_small_fixture(self):
        # reference p from the asymptotic Kolmogorov series (scipy.special.kolmogorov)
        d, p = ks_row([1.0, 2.0, 3.0, 4.0], [2.0, 3.0, 4.0, 5.0])
        assert d == pytest.approx(0.25, abs=1e-12)
        assert p == pytest.approx(0.9996332921577278, abs=1e-4)

    def test_gaussian_fixture(self):
        rng = np.random.default_rng(20240817)
        rng.normal(size=12)
        rng.normal(size=50)
        a = np.round(rng.normal(size=30), 6)
        b = np.round(rng.normal(loc=0.5, size=40), 6)
        d, p = ks_row(a, b)
        assert d == pytest.approx(0.19166666666666665, abs=1e-12)
        assert p == pytest.approx(0.5546299561090957, abs=1e-4)

    def test_empty_errors(self):
        # the kernel needs both samples in every row; select_c refuses an
        # empty group (`training_data`) before it computes any p-value
        with pytest.raises(InputError, match="both groups"):
            select_c(np.arange(8.0).reshape(4, 2), np.ones(4, dtype=np.int8))

    @given(
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=12),
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=12),
    )
    @settings(max_examples=150)
    def test_matches_brute_force(self, a, b):
        assert ks_row(a, b)[0] == pytest.approx(
            brute_force_ks_distance(a, b), abs=1e-12)

    def test_null_pvalues_roughly_uniform(self):
        # 1000 seeded replicate pairs from one distribution; the p-values'
        # ECDF must stay close to uniform.  Unequal sizes keep the
        # statistic off a coarse lattice, which would otherwise dominate
        # the distance at this replicate count.
        rng = np.random.default_rng(99)
        pvals = np.sort([
            ks_row(rng.normal(size=1000), rng.normal(size=1033))[1]
            for _ in range(1000)
        ])
        grid = (np.arange(1, 1001)) / 1000.0
        d = float(np.max(np.abs(pvals - grid)))
        # one-sample KS critical value at level 0.01 for n=1000
        assert d <= 1.63 / math.sqrt(1000)


class TestAgainstScipyWideRange:
    """Second, broader route: live comparison against scipy where available."""

    def test_shapiro_many_sizes(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(1234)
        for n in (4, 6, 11, 12, 30, 100, 700):
            x = rng.normal(size=n)
            w_stat, p = shapiro_wilk_sorted(np.sort(x)[None])
            ref = scipy_stats.shapiro(x)
            assert w_stat[0] == pytest.approx(ref.statistic, abs=1e-6)
            assert p[0] == pytest.approx(ref.pvalue, abs=1e-4)

    def test_kolmogorov_series(self):
        special = pytest.importorskip("scipy.special")
        from ptda.stats import _kolmogorov_sf

        for lam in np.linspace(0.01, 4.0, 80):
            assert _kolmogorov_sf(float(lam)) == pytest.approx(
                float(special.kolmogorov(lam)), abs=1e-12)
