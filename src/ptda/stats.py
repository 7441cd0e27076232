"""Self-contained statistical kernels.

The statistics the model needs and numpy and the standard library lack,
so the package carries no dependency beyond numpy: a stable expit of
arrays, the Shapiro-Wilk normality test (Royston's AS R94 recipe) and the
two-sample Kolmogorov-Smirnov test with the asymptotic p-value.  Accuracy
fixtures for all of them are recorded in the test suite.

Log-gamma is the standard library's `math.lgamma` and the normal CDF its
`math.erfc`, each mapped over an array's values, and the normal quantile
behind the Shapiro-Wilk weights is its `statistics.NormalDist().inv_cdf`
(Wichura's AS 241).

Both tests are column kernels: `shapiro_wilk_sorted` and
`ks_two_sample_sorted` score a block of equal-length samples, one per row
of a (b, n) array sorted along each row, so that one sort serves both
tests and the per-sample work is a few whole-array operations.  A single
sample is a one-row block."""

from __future__ import annotations

import math
from functools import cache
from statistics import NormalDist

import numpy as np

from .errors import DomainError

__all__ = [
    "log_gamma",
    "normal_cdf",
    "normal_pdf",
    "expit",
    "shapiro_wilk_sorted",
    "ks_two_sample_sorted",
    "square_safe_shift",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def square_safe_shift(values, axis=None):
    """Power-of-two exponent s that brings max |values| into [2**-257, 2**256).

    ldexp(values, -s) is exact, and squares of values of that size, and
    sums of millions of them, are finite normal doubles.  s is 0 for values
    already in that range, so ordinary data is left exactly as it is.
    `axis` gives one exponent per slice, as `np.max` would.
    """
    top = np.maximum(np.max(values, axis=axis), -np.min(values, axis=axis))  # max |values|
    exponent = np.frexp(top)[1]
    return exponent - np.clip(exponent, -256, 256)


def log_gamma(x):
    """Natural log of the gamma function of a finite positive scalar, or of
    each value of an array of them: one `math.lgamma` call per value."""
    arr = np.asarray(x, dtype=float)
    if not np.all((arr > 0.0) & (arr < math.inf)):  # also refuses NaN
        raise DomainError("log_gamma requires finite positive arguments")
    if arr.ndim == 0:
        return math.lgamma(float(arr))
    return np.fromiter(map(math.lgamma, arr.ravel().tolist()), float, arr.size).reshape(arr.shape)


# ---------------------------------------------------------------------------
# standard normal CDF
# ---------------------------------------------------------------------------

def normal_cdf(z) -> np.ndarray:
    """Standard normal CDF, Phi(z) = erfc(-z / sqrt 2) / 2, of each value of
    an array-like, as an ndarray of its shape: one `math.erfc` call per
    value, for the Shapiro-Wilk tail's one value per sample."""
    z = np.asarray(z, dtype=float)
    return np.array([0.5 * math.erfc(-v / _SQRT2) for v in z.ravel().tolist()]).reshape(z.shape)


def normal_pdf(z) -> np.ndarray:
    """Standard normal density at each value of an array-like; 0 where z * z
    passes the double range, without an overflow warning."""
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * z * z) / _SQRT_2PI


def expit(z: np.ndarray) -> np.ndarray:
    """Logistic function 1 / (1 + exp(-z)) of an array, stable for large |z|."""
    out = np.empty(z.shape, dtype=float)
    pos = z >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# ---------------------------------------------------------------------------
# Shapiro-Wilk (Royston's AS R94 recipe, uncensored samples, 3 <= n <= 5000)
# ---------------------------------------------------------------------------

# polynomial coefficients from Royston (1995), highest degree first
_SW_C1 = (-2.706056, 4.434685, -2.071190, -0.147981, 0.221157, 0.0)
_SW_C2 = (-3.582633, 5.682633, -1.752461, -0.293762, 0.042981, 0.0)
_SW_C3 = (-0.0006714, 0.025054, -0.39978, 0.5440)
_SW_C4 = (-0.0020322, 0.062767, -0.77857, 1.3822)
_SW_C5 = (0.0038915, -0.083751, -0.31082, -1.5861)
_SW_C6 = (0.0030302, -0.082676, -0.4803)
_SW_G = (0.459, -2.273)

_STD_NORMAL = NormalDist()  # its inv_cdf gives the Blom scores


@cache
def _royston_weights(n: int) -> np.ndarray:
    """Royston's Shapiro-Wilk weight vector for samples of size n >= 3, cached per n.

    Normalised expected normal order statistics (Blom scores), with the
    outer one or two pairs replaced by Royston's polynomial approximations,
    and at n = 3 AS R94's sqrt(1/2).  As in AS R94, the lower half is the
    negated upper half: exactly antisymmetric weights give W = 1 on equally
    spaced points, where the n = 3 p-value turns one ulp of W into ~3e-8.
    """
    m = np.array([_STD_NORMAL.inv_cdf((i - 0.375) / (n + 0.25)) for i in range(1, n + 1)])
    ss_m = float(np.dot(m, m))
    rsn = 1.0 / math.sqrt(n)
    w_vec = m / math.sqrt(ss_m)
    if n == 3:
        w_vec[-1] = math.sqrt(0.5)
    else:
        a_n = w_vec[-1] + np.polyval(_SW_C1, rsn)
        if n > 5:
            a_n1 = w_vec[-2] + np.polyval(_SW_C2, rsn)
            phi = (ss_m - 2.0 * m[-1] ** 2 - 2.0 * m[-2] ** 2) / \
                  (1.0 - 2.0 * a_n ** 2 - 2.0 * a_n1 ** 2)
            w_vec = m / math.sqrt(phi)
            w_vec[-2] = a_n1
        else:
            phi = (ss_m - 2.0 * m[-1] ** 2) / (1.0 - 2.0 * a_n ** 2)
            w_vec = m / math.sqrt(phi)
        w_vec[-1] = a_n
    w_vec[:n // 2] = -w_vec[::-1][:n // 2]
    return w_vec


def _shapiro_pvalue(w_stat: np.ndarray, n: int) -> np.ndarray:
    """Royston's upper-tail p-value of each W statistic of a size-n sample."""
    with np.errstate(divide="ignore", invalid="ignore"):
        if n == 3:
            p = (6.0 / math.pi) * (np.arcsin(np.sqrt(w_stat)) - math.asin(math.sqrt(0.75)))
        elif n <= 11:
            arg = np.polyval(_SW_G, float(n)) - np.log(1.0 - w_stat)
            y = -np.log(arg)
            mu = np.polyval(_SW_C3, float(n))
            sigma = math.exp(np.polyval(_SW_C4, float(n)))
            p = np.where(arg > 0.0, 1.0 - normal_cdf((y - mu) / sigma), 0.0)
        else:
            ln_n = math.log(float(n))
            y = np.log(1.0 - w_stat)
            mu = np.polyval(_SW_C5, ln_n)
            sigma = math.exp(np.polyval(_SW_C6, ln_n))
            p = 1.0 - normal_cdf((y - mu) / sigma)
    return np.clip(p, 0.0, 1.0)


def shapiro_wilk_sorted(rows) -> tuple[np.ndarray, np.ndarray]:
    """(W, p) of each row of a (b, n) array holding b samples sorted ascending.

    The rows share one Royston weight vector; each row's numerator is summed
    in one fixed order (einsum, not BLAS), so its W depends on that row
    alone, and the AS R94 p-value transform runs on all of them at once.
    Rows must be finite, and 3 <= n <= 5000.  A constant row gets W = NaN
    and p = 0.  A row whose max |x| lies outside [2**-257, 2**256) is first
    scaled by a power of two (`square_safe_shift`); W is scale-free, and the
    squares then stay finite.
    """
    s = np.asarray(rows, dtype=float)
    n = s.shape[1]
    constant = s[:, -1] <= s[:, 0]  # the rows are sorted; their max - min can overflow
    shift = square_safe_shift(s[:, [0, -1]], axis=1)
    big = np.flatnonzero(shift)
    if big.size:
        s = s.copy()
        s[big] = np.ldexp(s[big], -shift[big, None])
    # the weights sum to zero, so centring first leaves the numerator as it
    # is but keeps a large common offset from cancelling in it
    xc = s - s.mean(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        w_stat = np.minimum(np.einsum("ij,j->i", xc, _royston_weights(n)) ** 2
                            / np.einsum("ij,ij->i", xc, xc), 1.0)
    w_stat[constant] = np.nan
    p = _shapiro_pvalue(w_stat, n)
    p[constant] = 0.0
    return w_stat, p


# ---------------------------------------------------------------------------
# two-sample Kolmogorov-Smirnov
# ---------------------------------------------------------------------------


def _kolmogorov_sf(lam: float) -> float:
    """Survival function of the Kolmogorov distribution."""
    if lam <= 0.0:
        return 1.0
    if lam < 1.0:
        # theta-function form, rapidly convergent for small arguments
        total = 0.0
        f = -math.pi * math.pi / (8.0 * lam * lam)
        for k in range(1, 20):
            t = math.exp(f * (2 * k - 1) ** 2)
            total += t
            if t < 1e-18:
                break
        return min(max(1.0 - _SQRT_2PI / lam * total, 0.0), 1.0)
    total, sign = 0.0, 1.0
    for k in range(1, 101):
        t = math.exp(-2.0 * k * k * lam * lam)
        total += sign * t
        sign = -sign
        if t < 1e-18:
            break
    return min(max(2.0 * total, 0.0), 1.0)


def ks_two_sample_sorted(rows, in_a) -> tuple[np.ndarray, np.ndarray]:
    """(D, p) of each row of a (b, n) array holding b pooled samples sorted ascending.

    `in_a` is the (b, n) boolean mask of the first sample's members in each
    row's sorted order; both samples must be non-empty in every row.  With
    c_a and c_b the integer counts of each sample's members up to a
    position, the empirical CDFs differ there by c_a/n_a - c_b/n_b, and D
    is the largest |difference| at the last of each run of tied values.
    The p-value is the asymptotic one at effective size n_a n_b / n, one
    `_kolmogorov_sf` call per distinct argument.
    """
    s = np.asarray(rows, dtype=float)
    c_a = np.cumsum(in_a, axis=1)
    n_a = c_a[:, -1:].copy()
    n = s.shape[1]
    n_b = n - n_a
    gap = c_a / n_a
    np.subtract(np.arange(1, n + 1), c_a, out=c_a)  # now c_b
    gap -= c_a / n_b
    np.abs(gap, out=gap)
    gap[:, :-1][s[:, 1:] == s[:, :-1]] = 0.0  # a tied value's CDFs step at its last copy
    d = gap.max(axis=1)
    lam, inverse = np.unique(np.sqrt(n_a[:, 0] * n_b[:, 0] / n) * d, return_inverse=True)
    return d, np.array([_kolmogorov_sf(v) for v in lam.tolist()])[inverse]
