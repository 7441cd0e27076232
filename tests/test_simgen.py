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
    Gamma,
    Mixture,
    Normal,
    SimulationSpec,
    StudentT,
    generate,
)

import oracles


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
        # 9/20 N(-6/5, (3/5)^2) + 9/20 N(6/5, (3/5)^2) + 1/10 N(0, 1/4^2): mean 0,
        # variance 9/10 (9/25 + 36/25) + 1/10 (1/16)
        mix = SETTINGS[1][0]
        rng = substream(123, 0)
        draws = mix.sample(rng, 1_000_000)
        assert abs(draws.mean()) < 3.0 * np.sqrt(1.62625 / draws.size)
        assert draws.var() == pytest.approx(1.62625, rel=0.01)

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
            assert oracles.ks_two_sample(a, b)[1] > 0.01


NAN, INF = float("nan"), float("inf")

# each distribution's parameters, one bad value at a time
NOT_NUMBERS = [
    (Normal, ("0", 1.0)), (Normal, (0.0, None)), (Cauchy, (True, 1.0)), (Cauchy, (0.0, [2.0])),
    (StudentT, ("3",)), (Gamma, (None, 1.0)), (Gamma, (1.0, "2")), (Exponential, (False,)),
    (Mixture, (("0.5", 0.5), (Normal(0, 1), Normal(1, 1)))),
]
OUT_OF_DOMAIN = [
    (Normal, (NAN, 1.0)), (Normal, (-INF, 1.0)), (Normal, (0, -1)), (Normal, (0, 0)),
    (Normal, (0, NAN)), (Normal, (0, INF)), (Cauchy, (INF, 1.0)), (Cauchy, (0, -2)),
    (Cauchy, (0, NAN)), (StudentT, (-1,)), (StudentT, (0.0,)), (StudentT, (INF,)),
    (Gamma, (-1, 1)), (Gamma, (1, 0)), (Gamma, (NAN, 1)), (Gamma, (1, INF)),
    (Exponential, (0,)), (Exponential, (-1.0,)), (Exponential, (NAN,)),
    (Exponential, (np.float64(INF),)), (Normal, (10**400, 1.0)), (Gamma, (1.0, -(10**400))),
]


def _case_id(case):
    cls, args = case
    return f"{cls.__name__}{args!r}"


class TestDistributionParameters:
    @pytest.mark.parametrize("case", NOT_NUMBERS, ids=_case_id)
    def test_non_numbers_refused(self, case):
        cls, args = case
        with pytest.raises(InputError):
            cls(*args)

    @pytest.mark.parametrize("case", OUT_OF_DOMAIN, ids=_case_id)
    def test_bad_values_refused(self, case):
        cls, args = case
        with pytest.raises(DomainError):
            cls(*args)

    @pytest.mark.parametrize("dist", [Normal(np.float64(-1.0), 2), Cauchy(3, np.float32(0.5)),
                                      StudentT(np.int64(4)), Gamma(0.5, 1e-3), Exponential(1e6)])
    def test_numpy_and_int_parameters_accepted(self, dist):
        assert np.isfinite(dist.sample(substream(0, 0), 5)).all()


# every distinct mixture of the six settings and the noise families
MIXTURES = list(dict.fromkeys(d for d in (*(d for pair in SETTINGS.values() for d in pair),
                                          *NOISE_FAMILIES) if isinstance(d, Mixture)))


class TestMixtureSample:
    def test_weight_validation(self):
        with pytest.raises(DomainError):
            Mixture((0.5, 0.6), (Normal(0, 1), Normal(1, 1))).sample(substream(0, 0), 1)
        with pytest.raises(DomainError):
            Mixture((-0.5, 1.5), (Normal(0, 1), Normal(1, 1)))

    @pytest.mark.parametrize("weights", [(NAN, 1.0), (1.0, NAN), (INF, 1.0), (0.5, -INF)])
    def test_non_finite_weights_refused(self, weights):
        with pytest.raises(DomainError):
            Mixture(weights, (Normal(0, 1), Normal(1, 1)))

    def test_components_must_be_normal(self):
        with pytest.raises(InputError):
            Mixture((0.5, 0.5), (Normal(0, 1), Cauchy(0, 1)))

    def test_package_mixtures_have_two_three_and_eight_components(self):
        assert sorted({len(m.components) for m in MIXTURES}) == [2, 3, 8]

    @pytest.mark.parametrize("size", [1, 7, 1000])
    @pytest.mark.parametrize("mixture", MIXTURES,
                             ids=[f"{i}-{len(m.components)}-components" for i, m in enumerate(MIXTURES)])
    def test_package_mixtures_equal_the_choice_reference(self, mixture, size):
        self._assert_equals_reference(mixture, size)

    @pytest.mark.parametrize("weights", [(0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0)])
    def test_zero_weight_equals_the_choice_reference(self, weights):
        mixture = Mixture(weights, (Normal(-3.0, 1.0), Normal(0.0, 0.5), Normal(3.0, 2.0)))
        self._assert_equals_reference(mixture, 1000)

    def test_wide_labels_equal_the_choice_reference(self):
        # 300 components: labels run past 255, out of uint8
        mixture = Mixture(tuple(1 / 300 for _ in range(300)),
                          tuple(Normal(float(k), 1.0 + k / 300) for k in range(300)))
        assert substream(8, 0).choice(300, size=1000, p=list(mixture.weights)).max() > 255
        self._assert_equals_reference(mixture, 1000)

    @staticmethod
    def _assert_equals_reference(mixture, size):
        # the same values bit for bit, and the stream left at the same place
        rng, ref = substream(8, 0), substream(8, 0)
        assert np.array_equal(mixture.sample(rng, size),
                              oracles.choice_mixture_sample(mixture, ref, size))
        assert rng.random() == ref.random()

    def test_single_component_passthrough(self):
        rng = substream(3, 0)
        [value] = Mixture((1.0,), (Normal(5.0, 1e-12),)).sample(rng, 1)
        assert value == pytest.approx(5.0, abs=1e-9)

    def test_symmetric_spikes_average_to_zero(self):
        mix = Mixture((0.5, 0.5), (Normal(-1.0, 1e-9), Normal(1.0, 1e-9)))
        draws = mix.sample(substream(9, 0), 40_000)
        assert abs(draws.mean()) < 0.02

    def test_exponential_moments(self):
        # rate 4: mean 1/4, variance 1/16
        draws = Exponential(4.0).sample(substream(10, 0), 200_000)
        assert draws.mean() == pytest.approx(0.25, abs=3.0 * 0.25 / np.sqrt(draws.size))
        assert draws.var() == pytest.approx(0.0625, rel=0.02)
