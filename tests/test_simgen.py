"""Seeded simulation generators: determinism, layout, and distributional checks."""

import numpy as np
import pytest

from ptda.errors import DomainError, InputError
from ptda.rng import substream
from ptda.simgen import (
    NOISE_FAMILIES,
    SETTINGS,
    Cauchy,
    Exponential,
    Mixture,
    Normal,
    SimulationSpec,
    generate,
)
from ptda.stats import ks_two_sample


class TestSpecValidation:
    def test_unknown_setting(self):
        with pytest.raises(InputError):
            SimulationSpec(7)

    def test_too_many_discriminative(self):
        with pytest.raises(InputError):
            SimulationSpec(1, p=10, n_discriminative=20)

    @pytest.mark.parametrize("p,n_discriminative", [(10, -1), (0, 0)])
    def test_negative_counts_refused(self, p, n_discriminative):
        with pytest.raises(InputError):
            SimulationSpec(1, 10, 5, p, n_discriminative, 3)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a_train, a_test, a_truth = generate(SimulationSpec(3, n_train=24, n_test=20, p=30, n_discriminative=5, seed=9))
        b_train, b_test, b_truth = generate(SimulationSpec(3, n_train=24, n_test=20, p=30, n_discriminative=5, seed=9))
        assert np.array_equal(a_train.matrix, b_train.matrix)
        assert np.array_equal(a_test.matrix, b_test.matrix)
        assert np.array_equal(a_train.labels, b_train.labels)
        assert np.array_equal(a_truth, b_truth)

    def test_columns_stable_when_p_grows(self):
        small, _, _ = generate(SimulationSpec(2, n_train=20, n_test=4, p=20, n_discriminative=5, seed=4))
        large, _, _ = generate(SimulationSpec(2, n_train=20, n_test=4, p=40, n_discriminative=5, seed=4))
        np.testing.assert_array_equal(small.matrix[:, :5], large.matrix[:, :5])

    def test_different_seeds_differ(self):
        a, _, _ = generate(SimulationSpec(1, n_train=20, n_test=4, p=10, n_discriminative=2, seed=0))
        b, _, _ = generate(SimulationSpec(1, n_train=20, n_test=4, p=10, n_discriminative=2, seed=1))
        assert not np.array_equal(a.matrix, b.matrix)


class TestLayout:
    def test_truth_marks_leading_indices(self):
        _, _, truth = generate(SimulationSpec(1, n_train=12, n_test=4, p=25, n_discriminative=7, seed=0))
        assert truth[:7].all() and not truth[7:].any()
        assert truth.sum() == 7

    def test_both_groups_populated(self):
        train, test, _ = generate(SimulationSpec(1, n_train=20, n_test=10, p=5, n_discriminative=2, seed=3))
        assert 2 <= train.labels.sum() <= 18
        assert 1 <= test.labels.sum() <= 9


class TestDistributions:
    def test_setting_two_group_means(self):
        spec = SimulationSpec(2, n_train=4000, n_test=4, p=1, n_discriminative=1, seed=5)
        train, _, _ = generate(spec)
        g1 = train.matrix[train.labels == 1, 0]
        assert abs(g1.mean() - 0.7) < 3.0 / np.sqrt(g1.size)

    def test_setting_six_rates(self):
        spec = SimulationSpec(6, n_train=4000, n_test=4, p=1, n_discriminative=1, seed=6)
        train, _, _ = generate(spec)
        g0 = train.matrix[train.labels == 0, 0]
        g1 = train.matrix[train.labels == 1, 0]
        assert g0.mean() == pytest.approx(0.5, abs=3 * 0.5 / np.sqrt(g0.size))
        assert g1.mean() == pytest.approx(1 / 6, abs=3 * (1 / 6) / np.sqrt(g1.size))

    def test_trimodal_mixture_moments(self):
        # analytic variance composed from component moments
        mix = SETTINGS[1][0]
        assert mix.mean() == pytest.approx(0.0, abs=1e-15)
        analytic = mix.variance()
        rng = substream(123, 0)
        draws = mix.sample(rng, 1_000_000)
        assert draws.var() == pytest.approx(analytic, rel=0.01)

    def test_noise_family_split_even(self):
        spec = SimulationSpec(1)  # p=500, 450 noise over 9 families
        train, _, _ = generate(SimulationSpec(1, n_train=8, n_test=4, p=500, n_discriminative=50, seed=1))
        # family blocks of 50: columns 50..99 are t(1), heavy tailed
        block = train.matrix[:, 50:100]
        assert np.isfinite(block).all()

    def test_ks_self_consistency(self):
        for i, dist in enumerate(NOISE_FAMILIES):
            a = dist.sample(substream(1000 + i, 0), 600)
            b = dist.sample(substream(2000 + i, 0), 600)
            assert ks_two_sample(a, b).p_value > 0.01


class TestMixtureSample:
    def test_weight_validation(self):
        with pytest.raises(DomainError):
            Mixture((0.5, 0.6), (Normal(0, 1), Normal(1, 1))).sample(substream(0, 0), 1)
        with pytest.raises(DomainError):
            Mixture((-0.5, 1.5), (Normal(0, 1), Normal(1, 1)))

    def test_single_component_passthrough(self):
        rng = substream(3, 0)
        [value] = Mixture((1.0,), (Normal(5.0, 1e-12),)).sample(rng, 1)
        assert value == pytest.approx(5.0, abs=1e-9)

    def test_symmetric_spikes_average_to_zero(self):
        mix = Mixture((0.5, 0.5), (Normal(-1.0, 1e-9), Normal(1.0, 1e-9)))
        draws = mix.sample(substream(9, 0), 40_000)
        assert abs(draws.mean()) < 0.02
        assert mix.mean() == 0.0

    def test_cauchy_moments_undefined(self):
        with pytest.raises(DomainError):
            Cauchy(0.0, 2.0).mean()
        with pytest.raises(DomainError):
            Mixture((0.5, 0.5), (Cauchy(0, 1), Normal(0, 1))).variance()

    def test_exponential_moments(self):
        assert Exponential(4.0).mean() == 0.25
        assert Exponential(4.0).variance() == 0.0625
