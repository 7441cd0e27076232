"""Kernel accuracy against recorded reference values and identities.

Reference fixtures were computed once with scipy (scipy.stats.shapiro,
scipy.special.kolmogorov/ndtri) and frozen here; scipy itself is only
imported for the wide-range cross-checks so the recorded numbers stay
the contract.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptda.errors import DomainError, InputError
from ptda.stats import (
    expit,
    ks_two_sample,
    log_beta,
    log_gamma,
    normal_cdf,
    normal_quantile,
    shapiro_wilk,
)

from oracles import brute_force_ks_distance


class TestLogGamma:
    def test_matches_stdlib_over_range(self):
        xs = np.concatenate([
            np.linspace(0.05, 0.49, 23),
            np.linspace(0.5, 20.0, 101),
            np.array([50.0, 123.456, 1e3, 1e5]),
        ])
        ours = log_gamma(xs)
        ref = np.array([math.lgamma(v) for v in xs])
        scale = np.maximum(1.0, np.abs(ref))
        assert np.max(np.abs(ours - ref) / scale) < 1e-12

    def test_scalar_and_domain(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-3.0)


class TestLogBeta:
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


class TestNormalQuantile:
    def test_fixtures(self):
        assert normal_quantile(0.5) == 0.0
        assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-9)
        assert normal_quantile(0.25) == pytest.approx(-0.6744897501960817, abs=1e-9)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                normal_quantile(bad)

    @given(st.floats(1e-12, 1.0 - 1e-12))
    @settings(max_examples=300)
    def test_round_trip(self, q):
        z = normal_quantile(q)
        assert abs(normal_cdf(z) - q) <= 1e-10

    def test_symmetry(self):
        for q in (0.01, 0.2, 0.4):
            assert normal_quantile(q) == pytest.approx(-normal_quantile(1.0 - q), abs=1e-12)


class TestNormalCdfArrays:
    """The array path (fdlibm's erfc in numpy) against math.erfc and scipy."""

    # glibc's erfc branch points in t = -z / sqrt 2 (the 1/0.35 cut is the
    # double whose high word is 0x4006DB6D)
    BRANCHES = (0.84375, 1.25, float(np.array(0x4006DB6D << 32, dtype=np.uint64).view(np.float64)),
                6.0, 28.0)

    @staticmethod
    def reference(z):
        return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z.tolist()])

    def check(self, z):
        ours = normal_cdf(z)
        ref = self.reference(z)
        assert np.all(np.abs(ours - ref) <= 4 * np.spacing(ref))
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

    def test_python_float_uses_math_erfc(self):
        for z in (0.3, -2.0, 7.5):
            assert normal_cdf(z) == 0.5 * math.erfc(-z / math.sqrt(2.0))
        assert isinstance(normal_cdf(0.3), float)

    @pytest.mark.parametrize("shape", [(), (0,), (0, 3), (2, 3), (17000,)])
    def test_shape_kept(self, shape):
        z = np.linspace(-3.0, 3.0, int(np.prod(shape))).reshape(shape)
        out = normal_cdf(z)
        assert isinstance(out, np.ndarray) and out.shape == shape
        assert np.array_equal(out.ravel(), normal_cdf(z.ravel()))


class TestExpit:
    def test_values(self):
        assert expit(0.0) == 0.5
        assert expit(710.0) == 1.0  # saturates without overflow
        assert expit(-710.0) == pytest.approx(0.0, abs=1e-300)
        assert expit(np.array([0.0, 100.0]))[0] == 0.5

    @given(st.floats(-500.0, 500.0))
    def test_reflection(self, z):
        assert abs(expit(-z) - (1.0 - expit(z))) <= 1e-15


class TestShapiroWilk:
    # fixtures recorded from scipy.stats.shapiro
    def test_equally_spaced_five(self):
        r = shapiro_wilk([1.0, 2.0, 3.0, 4.0, 5.0])
        assert r.statistic == pytest.approx(0.986762155211559, abs=1e-4)
        assert r.p_value == pytest.approx(0.9671739349728582, abs=1e-4)

    def test_three_point_exact(self):
        r = shapiro_wilk([1.0, 2.0, 4.0])
        assert r.statistic == pytest.approx(0.9642857142857142, abs=1e-10)
        assert r.p_value == pytest.approx(0.6368868450289689, abs=1e-6)

    def test_skewed_sample(self):
        x = [0.139, 0.157, 0.175, 0.256, 0.344, 0.413, 0.503, 0.577, 0.614, 0.655,
             0.954, 1.392, 1.557, 1.648, 1.690, 1.994, 2.174, 2.206, 3.245, 3.510,
             3.571, 4.354, 4.980, 6.084, 8.351]
        r = shapiro_wilk(x)
        assert r.statistic == pytest.approx(0.8346662753381485, abs=1e-4)
        assert r.p_value == pytest.approx(0.0009134904825887374, abs=1e-4)

    def test_normal_sample_n12(self):
        x = [0.483983, -0.053693, 0.466786, 0.202275, -0.688645, -1.477785,
             1.19257, -0.148911, -1.615774, -1.209327, 0.149468, 0.57923]
        r = shapiro_wilk(x)
        assert r.statistic == pytest.approx(0.9324446302306686, abs=1e-4)
        assert r.p_value == pytest.approx(0.40674575045894407, abs=1e-4)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            shapiro_wilk([1.0, 2.0])
        with pytest.raises(DomainError):
            shapiro_wilk([3.0] * 10)
        with pytest.raises(DomainError):
            shapiro_wilk(np.zeros(5001))

    def test_location_scale_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=40)
        base = shapiro_wilk(x)
        moved = shapiro_wilk(2.5 * x + 7.0)
        assert moved.statistic == pytest.approx(base.statistic, abs=1e-10)

    def test_cauchy_rejection_rate(self):
        # statistical fixture: heavy tails must be flagged nearly always
        rng = np.random.default_rng(7)
        hits = sum(shapiro_wilk(rng.standard_cauchy(100)).p_value < 0.01 for _ in range(200))
        assert hits >= 198


class TestKsTwoSample:
    def test_identical(self):
        r = ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert r.statistic == 0.0
        assert r.p_value == 1.0

    def test_disjoint(self):
        r = ks_two_sample([0.0, 0.1, 0.2], [5.0, 6.0])
        assert r.statistic == 1.0

    def test_small_fixture(self):
        # reference p from the asymptotic Kolmogorov series (scipy.special.kolmogorov)
        r = ks_two_sample([1.0, 2.0, 3.0, 4.0], [2.0, 3.0, 4.0, 5.0])
        assert r.statistic == pytest.approx(0.25, abs=1e-12)
        assert r.p_value == pytest.approx(0.9996332921577278, abs=1e-4)

    def test_gaussian_fixture(self):
        rng = np.random.default_rng(20240817)
        rng.normal(size=12)
        rng.normal(size=50)
        a = np.round(rng.normal(size=30), 6)
        b = np.round(rng.normal(loc=0.5, size=40), 6)
        r = ks_two_sample(a, b)
        assert r.statistic == pytest.approx(0.19166666666666665, abs=1e-12)
        assert r.p_value == pytest.approx(0.5546299561090957, abs=1e-4)

    def test_empty_errors(self):
        with pytest.raises(InputError):
            ks_two_sample([], [1.0])

    @given(
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=12),
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=12),
    )
    @settings(max_examples=150)
    def test_matches_brute_force(self, a, b):
        assert ks_two_sample(a, b).statistic == pytest.approx(
            brute_force_ks_distance(a, b), abs=1e-12)

    def test_null_pvalues_roughly_uniform(self):
        # 1000 seeded replicate pairs from one distribution; the p-values'
        # ECDF must stay close to uniform.  Unequal sizes keep the
        # statistic off a coarse lattice, which would otherwise dominate
        # the distance at this replicate count.
        rng = np.random.default_rng(99)
        pvals = np.sort([
            ks_two_sample(rng.normal(size=1000), rng.normal(size=1033)).p_value
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
            ours = shapiro_wilk(x)
            ref = scipy_stats.shapiro(x)
            assert ours.statistic == pytest.approx(ref.statistic, abs=1e-6)
            assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-4)

    def test_kolmogorov_series(self):
        special = pytest.importorskip("scipy.special")
        from ptda.stats import _kolmogorov_sf

        for lam in np.linspace(0.01, 4.0, 80):
            assert _kolmogorov_sf(float(lam)) == pytest.approx(
                float(special.kolmogorov(lam)), abs=1e-12)
