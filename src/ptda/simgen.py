"""Seeded generators for the six benchmark settings and nine noise families.

Every column draws from its own Philox substream keyed by (seed, column
index), so datasets are bit-reproducible and shared columns are unchanged
when p varies.  Labels are Bernoulli(1/2) from reserved substreams, with
rejection of draws that leave a group below two members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import Dataset
from .errors import DomainError, InputError
from .rng import LABEL_TEST_STREAM, LABEL_TRAIN_STREAM, substream

__all__ = [
    "Normal",
    "Cauchy",
    "StudentT",
    "Gamma",
    "Exponential",
    "Mixture",
    "SimulationSpec",
    "SETTINGS",
    "NOISE_FAMILIES",
    "generate",
]


@dataclass(frozen=True)
class Normal:
    mu: float
    sigma: float

    def sample(self, rng, size):
        return rng.normal(self.mu, self.sigma, size)

    def mean(self):
        return self.mu

    def variance(self):
        return self.sigma ** 2


@dataclass(frozen=True)
class Cauchy:
    loc: float
    scale: float

    def sample(self, rng, size):
        return self.loc + self.scale * rng.standard_cauchy(size)

    def mean(self):
        raise DomainError("a Cauchy distribution has no mean")

    def variance(self):
        raise DomainError("a Cauchy distribution has no variance")


@dataclass(frozen=True)
class StudentT:
    df: float

    def sample(self, rng, size):
        return rng.standard_t(self.df, size)

    def mean(self):
        if self.df <= 1:
            raise DomainError("t mean undefined for df <= 1")
        return 0.0

    def variance(self):
        if self.df <= 2:
            raise DomainError("t variance undefined for df <= 2")
        return self.df / (self.df - 2.0)


@dataclass(frozen=True)
class Gamma:
    """Shape-rate parameterisation (mean = shape / rate)."""

    shape: float
    rate: float

    def sample(self, rng, size):
        return rng.gamma(self.shape, 1.0 / self.rate, size)

    def mean(self):
        return self.shape / self.rate

    def variance(self):
        return self.shape / self.rate ** 2


@dataclass(frozen=True)
class Exponential:
    rate: float

    def sample(self, rng, size):
        return rng.exponential(1.0 / self.rate, size)

    def mean(self):
        return 1.0 / self.rate

    def variance(self):
        return 1.0 / self.rate ** 2


@dataclass(frozen=True)
class Mixture:
    weights: tuple
    components: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < 0.0):
            raise DomainError("mixture weights must be non-negative")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise DomainError(f"mixture weights must sum to 1, got {float(w.sum())!r}")
        if len(self.weights) != len(self.components):
            raise DomainError("one weight per component is required")

    def sample(self, rng, size):
        which = rng.choice(len(self.components), size=size, p=list(self.weights))
        out = np.empty(size, dtype=float)
        for i, comp in enumerate(self.components):
            mask = which == i
            count = int(mask.sum())
            if count:
                out[mask] = comp.sample(rng, count)
        return out

    def mean(self):
        return sum(w * comp.mean() for w, comp in zip(self.weights, self.components))

    def variance(self):
        m = self.mean()
        second = sum(w * (comp.variance() + comp.mean() ** 2)
                     for w, comp in zip(self.weights, self.components))
        return second - m * m


_TRIMODAL = Mixture(
    (9 / 20, 9 / 20, 1 / 10),
    (Normal(-6 / 5, 3 / 5), Normal(6 / 5, 3 / 5), Normal(0.0, 0.25)),
)

# group-1 / group-0 distribution pairs for the six settings
SETTINGS: dict[int, tuple] = {
    1: (_TRIMODAL, Mixture((2 / 3, 1 / 3), (Normal(0.0, 1.0), Normal(0.0, 0.1)))),
    2: (Normal(0.7, 1.0), Normal(0.0, 1.0)),
    3: (Mixture((0.5, 0.5), (Normal(0.0, 1.0), Normal(0.5, 0.001))), Normal(0.0, 1.0)),
    4: (Normal(0.0, 1.0), Cauchy(0.0, 3.0)),
    5: (_TRIMODAL, Mixture((0.5, 0.5), (Normal(-1.0, 2 / 3), Normal(1.0, 2 / 3)))),
    6: (Exponential(6.0), Exponential(2.0)),
}

NOISE_FAMILIES: tuple = (
    StudentT(1.0),
    Cauchy(0.0, 2.0),
    Gamma(2.0, 2.0),
    Exponential(1.0),
    Normal(0.0, 5.0),
    Normal(0.0, 1.0),
    Mixture((0.1, 0.9), (Normal(0.0, 1.0), Normal(0.0, 0.1))),  # zero-inflated
    Mixture(
        tuple(1 / 8 for _ in range(8)),
        tuple(Normal(3.0 * ((2 / 3) ** l - 1.0), (2 / 3) ** l) for l in range(8)),
    ),  # multiple modes
    Mixture((0.5, 0.5), (Normal(-1.5, 0.5), Normal(1.5, 0.5))),  # bi-normal
)


@dataclass(frozen=True)
class SimulationSpec:
    setting: int
    n_train: int = 100
    n_test: int = 1000
    p: int = 500
    n_discriminative: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.setting not in SETTINGS:
            raise InputError(f"unknown simulation setting {self.setting!r}")
        if self.p < 1:
            raise InputError(f"p must be at least 1, got {self.p}")
        if not 0 <= self.n_discriminative <= self.p:
            raise InputError(f"n_discriminative must lie in 0..p={self.p}, got {self.n_discriminative}")
        if self.n_train < 4 or self.n_test < 1:
            raise InputError("n_train must be >= 4 and n_test >= 1")


def _noise_family_index(spec: SimulationSpec) -> np.ndarray:
    """Family index per noise column, block sizes as even as possible."""
    n_noise = spec.p - spec.n_discriminative
    blocks = np.array_split(np.arange(n_noise), len(NOISE_FAMILIES))
    family = np.empty(n_noise, dtype=np.int64)
    for f, block in enumerate(blocks):
        family[block] = f
    return family


def _draw_labels(rng, size: int) -> np.ndarray:
    """Bernoulli(1/2) labels, rejecting draws that leave a group too small.

    Requires two members per group when size permits (fitting and the
    Gaussian baseline need that), one when only that is feasible.
    """
    floor = 2 if size >= 4 else (1 if size >= 2 else 0)
    while True:
        y = (rng.random(size) < 0.5).astype(np.int8)
        ones = int(y.sum())
        if min(ones, size - ones) >= floor:
            return y


def generate(spec: SimulationSpec) -> tuple[Dataset, Dataset, np.ndarray]:
    """(train, test, truth): raw datasets plus the discriminative-index mask."""
    y_train = _draw_labels(substream(spec.seed, LABEL_TRAIN_STREAM), spec.n_train)
    y_test = _draw_labels(substream(spec.seed, LABEL_TEST_STREAM), spec.n_test)
    family = _noise_family_index(spec)
    train = np.empty((spec.n_train, spec.p))
    test = np.empty((spec.n_test, spec.p))
    f1, f0 = SETTINGS[spec.setting]
    for j in range(spec.p):
        rng = substream(spec.seed, j)
        if j < spec.n_discriminative:
            # draw both group variants from the same stream, select by label
            a1 = f1.sample(rng, spec.n_train)
            a0 = f0.sample(rng, spec.n_train)
            train[:, j] = np.where(y_train == 1, a1, a0)
            b1 = f1.sample(rng, spec.n_test)
            b0 = f0.sample(rng, spec.n_test)
            test[:, j] = np.where(y_test == 1, b1, b0)
        else:
            dist = NOISE_FAMILIES[family[j - spec.n_discriminative]]
            train[:, j] = dist.sample(rng, spec.n_train)
            test[:, j] = dist.sample(rng, spec.n_test)
    names = [f"V{j + 1}" for j in range(spec.p)]
    truth = np.zeros(spec.p, dtype=bool)
    truth[: spec.n_discriminative] = True
    return (
        Dataset(train, y_train, names),
        Dataset(test, y_test, list(names)),
        truth,
    )
