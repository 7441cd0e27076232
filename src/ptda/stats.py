"""Self-contained statistical kernels.

Everything the model needs from "a stats library" lives here so the
package carries no dependency beyond numpy: log-gamma/log-beta, the
standard normal CDF/quantile pair, a stable expit, the Shapiro-Wilk
normality test (Royston's AS R94 recipe) and the two-sample
Kolmogorov-Smirnov test with the asymptotic p-value.  Accuracy fixtures
for all of them are recorded in the test suite.

The normal CDF of an array runs on a numpy port of fdlibm's erfc (the
Sun Microsystems s_erf.c that glibc's erfc is derived from), so that
locating millions of points costs no Python per value.  It agrees with
`math.erfc` to within 4 ulp; Python numbers still go through `math.erfc`.

Both tests are column kernels: `shapiro_wilk_sorted` and
`ks_two_sample_sorted` score a block of equal-length samples, one per row
of a (b, n) array sorted along each row, so that one sort serves both
tests and the per-sample work is a few whole-array operations.
`shapiro_wilk` and `ks_two_sample` score a single sample as a one-row block."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError

__all__ = [
    "TestResult",
    "log_gamma",
    "log_beta",
    "normal_cdf",
    "normal_pdf",
    "normal_quantile",
    "expit",
    "shapiro_wilk",
    "shapiro_wilk_sorted",
    "ks_two_sample",
    "ks_two_sample_sorted",
    "square_safe_shift",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float


# ---------------------------------------------------------------------------
# log-gamma / log-beta
# ---------------------------------------------------------------------------

# Lanczos approximation, g = 7, 9 coefficients.  Relative accuracy is about
# 1e-14 over the positive axis, comfortably inside the 1e-12 budget the
# Bayes-factor arithmetic assumes.
_LANCZOS_G = 7.0
_LANCZOS_COEF = np.array(
    [
        0.99999999999980993,
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ]
)


def _log_gamma_positive(x: np.ndarray) -> np.ndarray:
    # valid for x >= 0.5
    series = np.full_like(x, _LANCZOS_COEF[0])
    for k in range(1, 9):
        series = series + _LANCZOS_COEF[k] / (x + (k - 1.0))
    t = x + _LANCZOS_G - 0.5
    return _LN_SQRT_2PI + (x - 0.5) * np.log(t) - t + np.log(series)


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
    """Natural log of the gamma function for positive arguments.

    Accepts scalars or arrays; arguments in (0, 0.5) are handled through
    the reflection formula.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size and (np.any(~np.isfinite(arr)) or np.any(arr <= 0.0)):
        raise DomainError("log_gamma requires finite positive arguments")
    small = arr < 0.5
    if not small.any():
        out = _log_gamma_positive(arr)
    else:
        out = np.empty_like(arr)
        big = ~small
        out[big] = _log_gamma_positive(arr[big])
        xs = arr[small]
        out[small] = (
            math.log(math.pi)
            - np.log(np.sin(math.pi * xs))
            - _log_gamma_positive(1.0 - xs)
        )
    return float(out) if np.isscalar(x) or out.ndim == 0 else out


def log_beta(a, b):
    """ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a + b), for a, b > 0."""
    return log_gamma(a) + log_gamma(b) - log_gamma(np.asarray(a) + np.asarray(b))


# ---------------------------------------------------------------------------
# standard normal CDF / quantile
# ---------------------------------------------------------------------------

# erfc for arrays: fdlibm's s_erf.c (Sun Microsystems, 1993), the source of
# glibc's erfc, with glibc's split polynomial evaluation order and branch
# points.  Each branch is evaluated only on the values that fall in it.
_ERX = 8.45062911510467529297e-01
# |x| < 0.84375: erf(x) = x + x * P(x**2) / Q(x**2)
_PP = (1.28379167095512558561e-01, -3.25042107247001499370e-01, -2.84817495755985104766e-02,
       -5.77027029648944159157e-03, -2.37630166566501626084e-05)
_QQ = (3.97917223959155352819e-01, 6.50222499887672944485e-02, 5.08130628187576562776e-03,
       1.32494738004321644526e-04, -3.96022827877536812320e-06)
# 0.84375 <= |x| < 1.25: erf(|x|) = erx + P(s) / Q(s), s = |x| - 1
_PA = (-2.36211856075265944077e-03, 4.14856118683748331666e-01, -3.72207876035701323847e-01,
       3.18346619901161753674e-01, -1.10894694282396677476e-01, 3.54783043256182359371e-02,
       -2.16637559486879084300e-03)
_QA = (1.06420880400844228286e-01, 5.40397917702171048937e-01, 7.18286544141962662868e-02,
       1.26171219808761642112e-01, 1.36370839120290507362e-02, 1.19844998467991074170e-02)
# 1.25 <= |x| < 1/0.35: erfc(|x|) = exp(-x**2 - 0.5625 + R(s) / S(s)) / |x|, s = 1 / x**2
_RA = (-9.86494403484714822705e-03, -6.93858572707181764372e-01, -1.05586262253232909814e+01,
       -6.23753324503260060396e+01, -1.62396669462573470355e+02, -1.84605092906711035994e+02,
       -8.12874355063065934246e+01, -9.81432934416914548592e+00)
_SA = (1.96512716674392571292e+01, 1.37657754143519042600e+02, 4.34565877475229228821e+02,
       6.45387271733267880336e+02, 4.29008140027567833386e+02, 1.08635005541779435134e+02,
       6.57024977031928170135e+00, -6.04244152148580987438e-02)
# 1/0.35 <= |x| < 28: the same form with other coefficients
_RB = (-9.86494292470009928597e-03, -7.99283237680523006574e-01, -1.77579549177547519889e+01,
       -1.60636384855821916062e+02, -6.37566443368389627722e+02, -1.02509513161107724954e+03,
       -4.83519191608651397019e+02)
_SB = (3.03380607434824582924e+01, 3.25792512996573918826e+02, 1.53672958608443695994e+03,
       3.19985821950859553908e+03, 2.55305040643316442583e+03, 4.74528541206955367215e+02,
       -2.24409524465858183362e+01)
# fdlibm tests the high word against 0x4006DB6D, so the exact cut is this double
_ERFC_CUT = float(np.array(0x4006DB6D << 32, dtype=np.uint64).view(np.float64))
_HIGH_WORD = np.uint64(0xFFFFFFFF00000000)
# values per block of the array path: a block's dozen or so temporaries
# (128 KiB each) fit in a core's L2 cache
_ERFC_BLOCK = 1 << 14


def _erfc_near_zero(x):
    """|x| < 0.84375.  glibc returns 1 - x below 2**-56; this rounds to the same 1.0."""
    p0, p1, p2, p3, p4 = _PP
    q1, q2, q3, q4, q5 = _QQ
    z = x * x
    z2 = z * z
    z4 = z2 * z2
    r = (p0 + z * p1) + z2 * (p2 + z * p3) + z4 * p4
    s = (1.0 + z * q1) + z2 * (q2 + z * q3) + z4 * (q4 + z * q5)
    xy = x * (r / s)
    return np.where(x < 0.25, 1.0 - (x + xy), 0.5 - (xy + (x - 0.5)))


def _erfc_near_one(x, ax):
    """0.84375 <= |x| < 1.25."""
    p0, p1, p2, p3, p4, p5, p6 = _PA
    q1, q2, q3, q4, q5, q6 = _QA
    s = ax - 1.0
    s2 = s * s
    s4 = s2 * s2
    s6 = s4 * s2
    pq = (((p0 + s * p1) + s2 * (p2 + s * p3) + s4 * (p4 + s * p5) + s6 * p6)
          / ((1.0 + s * q1) + s2 * (q2 + s * q3) + s4 * (q4 + s * q5) + s6 * q6))
    return np.where(x >= 0.0, (1.0 - _ERX) - pq, 1.0 + (_ERX + pq))


def _tail_ratio_near(s):
    """R(s) / S(s) for 1.25 <= |x| < 1/0.35."""
    r0, r1, r2, r3, r4, r5, r6, r7 = _RA
    q1, q2, q3, q4, q5, q6, q7, q8 = _SA
    s2 = s * s
    s4 = s2 * s2
    s6 = s4 * s2
    return (((r0 + s * r1) + s2 * (r2 + s * r3) + s4 * (r4 + s * r5) + s6 * (r6 + s * r7))
            / ((1.0 + s * q1) + s2 * (q2 + s * q3) + s4 * (q4 + s * q5) + s6 * (q6 + s * q7)
               + (s4 * s4) * q8))


def _tail_ratio_far(s):
    """R(s) / S(s) for 1/0.35 <= |x| < 28."""
    r0, r1, r2, r3, r4, r5, r6 = _RB
    q1, q2, q3, q4, q5, q6, q7 = _SB
    s2 = s * s
    s4 = s2 * s2
    s6 = s4 * s2
    return (((r0 + s * r1) + s2 * (r2 + s * r3) + s4 * (r4 + s * r5) + s6 * r6)
            / ((1.0 + s * q1) + s2 * (q2 + s * q3) + s4 * (q4 + s * q5) + s6 * (q6 + s * q7)))


def _erfc_tail(x, ax):
    """1.25 <= |x| < 28 and x > -6: exp(-x**2 - 0.5625 + R/S) / |x|, with x**2
    split at |x| cut to its high 32 bits so that the first exponent is exact."""
    s = 1.0 / (ax * ax)
    near = ax < _ERFC_CUT
    rs = np.empty_like(s)
    rs[near] = _tail_ratio_near(s[near])
    rs[~near] = _tail_ratio_far(s[~near])
    z = (ax.view(np.uint64) & _HIGH_WORD).view(np.float64)
    r = np.exp(-z * z - 0.5625) * np.exp((z - ax) * (z + ax) + rs)
    return np.where(x > 0.0, r / ax, 2.0 - r / ax)


def _erfc_block(x: np.ndarray, out: np.ndarray) -> None:
    """out[:] = erfc(x) for a 1-d float64 block."""
    ax = np.abs(x)
    i = np.flatnonzero(ax < 0.84375)
    if i.size:
        out[i] = _erfc_near_zero(x[i])
    i = np.flatnonzero((ax >= 0.84375) & (ax < 1.25))
    if i.size:
        out[i] = _erfc_near_one(x[i], ax[i])
    i = np.flatnonzero((ax >= 1.25) & (ax < 28.0) & (x > -6.0))
    if i.size:
        out[i] = _erfc_tail(x[i], ax[i])
    i = np.flatnonzero(~(ax < 28.0) | (x <= -6.0))  # both infinities and NaN too
    if i.size:
        xi = x[i]
        out[i] = np.where(xi > 0.0, 0.0, np.where(xi < 0.0, 2.0, np.nan))


def normal_cdf(z):
    """Standard normal CDF, Phi(z) = erfc(-z / sqrt 2) / 2.

    A Python number goes through `math.erfc`.  An array goes through a
    numpy port of fdlibm's erfc (the rational approximation glibc's erfc
    derives from), block by block, and comes back with the input's shape.
    Where |z| / sqrt 2 < 1.25 the port repeats glibc's arithmetic exactly;
    beyond that it calls numpy's exp where glibc calls its own, and stays
    within 4 ulp of `math.erfc` (largest relative difference 6.2e-16 in a
    sweep of 4M values).
    """
    if not isinstance(z, np.ndarray):
        return 0.5 * math.erfc(-float(z) / _SQRT2)
    flat = np.asarray(z, dtype=float).ravel()
    out = np.empty_like(flat)
    for start in range(0, flat.size, _ERFC_BLOCK):
        block = out[start:start + _ERFC_BLOCK]
        _erfc_block(-flat[start:start + _ERFC_BLOCK] / _SQRT2, block)
        block *= 0.5
    return out.reshape(z.shape)


def normal_pdf(z):
    """Standard normal density."""
    if isinstance(z, np.ndarray):
        return np.exp(-0.5 * z * z) / _SQRT_2PI
    z = float(z)
    return math.exp(-0.5 * z * z) / _SQRT_2PI


# Acklam's rational approximation for the inverse normal CDF; one Newton
# step against the exact CDF below pushes the absolute error from ~1e-9
# to machine precision.
_ACK_A = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
          1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
_ACK_B = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
          6.680131188771972e01, -1.328068155288572e01)
_ACK_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
          -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
_ACK_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
          3.754408661907416e00)
_ACK_LOW = 0.02425


def normal_quantile(q: float) -> float:
    """Inverse standard normal CDF for q in (0, 1)."""
    q = float(q)
    if not 0.0 < q < 1.0:
        raise DomainError(f"normal_quantile requires q in (0, 1), got {q!r}")
    a, b, c, d = _ACK_A, _ACK_B, _ACK_C, _ACK_D
    if q < _ACK_LOW:
        r = math.sqrt(-2.0 * math.log(q))
        x = (((((c[0] * r + c[1]) * r + c[2]) * r + c[3]) * r + c[4]) * r + c[5]) / \
            ((((d[0] * r + d[1]) * r + d[2]) * r + d[3]) * r + 1.0)
    elif q <= 1.0 - _ACK_LOW:
        r = q - 0.5
        s = r * r
        x = (((((a[0] * s + a[1]) * s + a[2]) * s + a[3]) * s + a[4]) * s + a[5]) * r / \
            (((((b[0] * s + b[1]) * s + b[2]) * s + b[3]) * s + b[4]) * s + 1.0)
    else:
        r = math.sqrt(-2.0 * math.log(1.0 - q))
        x = -(((((c[0] * r + c[1]) * r + c[2]) * r + c[3]) * r + c[4]) * r + c[5]) / \
            ((((d[0] * r + d[1]) * r + d[2]) * r + d[3]) * r + 1.0)
    # Newton polish; skipped in the extreme tails where exp(x^2/2) overflows
    # and the raw approximation is already adequate in absolute terms.
    if abs(x) < 37.0:
        err = normal_cdf(x) - q
        x -= err * _SQRT_2PI * math.exp(0.5 * x * x)
    return x


def expit(z):
    """Logistic function 1 / (1 + exp(-z)), stable for large |z|."""
    if isinstance(z, np.ndarray):
        out = np.empty(z.shape, dtype=float)
        pos = z >= 0.0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out
    z = float(z)
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


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


def _polyval(coefs, x):
    acc = 0.0
    for c in coefs:
        acc = acc * x + c
    return acc


_WEIGHT_CACHE: dict[int, np.ndarray] = {}


def _royston_weights(n: int) -> np.ndarray:
    """Royston's Shapiro-Wilk weight vector for samples of size n, cached per n.

    Normalised expected normal order statistics (Blom scores), with the
    outer one or two pairs replaced by Royston's polynomial approximations.
    """
    w_vec = _WEIGHT_CACHE.get(n)
    if w_vec is not None:
        return w_vec
    m = np.array([normal_quantile((i - 0.375) / (n + 0.25)) for i in range(1, n + 1)])
    ss_m = float(np.dot(m, m))
    rsn = 1.0 / math.sqrt(n)
    w_vec = m / math.sqrt(ss_m)
    if n > 3:
        a_n = w_vec[-1] + _polyval(_SW_C1, rsn)
        if n > 5:
            a_n1 = w_vec[-2] + _polyval(_SW_C2, rsn)
            phi = (ss_m - 2.0 * m[-1] ** 2 - 2.0 * m[-2] ** 2) / \
                  (1.0 - 2.0 * a_n ** 2 - 2.0 * a_n1 ** 2)
            w_vec = m / math.sqrt(phi)
            w_vec[-2], w_vec[1] = a_n1, -a_n1
        else:
            phi = (ss_m - 2.0 * m[-1] ** 2) / (1.0 - 2.0 * a_n ** 2)
            w_vec = m / math.sqrt(phi)
        w_vec[-1], w_vec[0] = a_n, -a_n
    _WEIGHT_CACHE[n] = w_vec
    return w_vec


def _shapiro_pvalue(w_stat: np.ndarray, n: int) -> np.ndarray:
    """Royston's upper-tail p-value of each W statistic of a size-n sample."""
    with np.errstate(divide="ignore", invalid="ignore"):
        if n == 3:
            p = (6.0 / math.pi) * (np.arcsin(np.sqrt(w_stat)) - math.asin(math.sqrt(0.75)))
        elif n <= 11:
            arg = _polyval(_SW_G, float(n)) - np.log(1.0 - w_stat)
            y = -np.log(arg)
            mu = _polyval(_SW_C3, float(n))
            sigma = math.exp(_polyval(_SW_C4, float(n)))
            p = np.where(arg > 0.0, 1.0 - normal_cdf((y - mu) / sigma), 0.0)
        else:
            ln_n = math.log(float(n))
            y = np.log(1.0 - w_stat)
            mu = _polyval(_SW_C5, ln_n)
            sigma = math.exp(_polyval(_SW_C6, ln_n))
            p = 1.0 - normal_cdf((y - mu) / sigma)
    return np.clip(p, 0.0, 1.0)


def shapiro_wilk_sorted(rows) -> tuple[np.ndarray, np.ndarray]:
    """(W, p) of each row of a (b, n) array holding b samples sorted ascending.

    The rows share one Royston weight vector, so every W comes from one
    matrix-vector product, and the AS R94 p-value transform runs on all of
    them at once.  Rows must be finite, and 3 <= n <= 5000.  A constant
    row gets W = NaN and p = 0.  A row whose max |x| lies outside
    [2**-257, 2**256) is first scaled by a power of two (`square_safe_shift`);
    W is scale-free, and the squares then stay finite.
    """
    s = np.asarray(rows, dtype=float)
    n = s.shape[1]
    constant = s[:, -1] - s[:, 0] <= 0.0
    shift = square_safe_shift(s[:, [0, -1]], axis=1)
    big = np.flatnonzero(shift)
    if big.size:
        s = s.copy()
        s[big] = np.ldexp(s[big], -shift[big, None])
    # the weights sum to zero, so centring first leaves the numerator as it
    # is but keeps a large common offset from cancelling in it
    xc = s - s.mean(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        w_stat = np.minimum((xc @ _royston_weights(n)) ** 2 / np.einsum("ij,ij->i", xc, xc), 1.0)
    w_stat[constant] = np.nan
    p = _shapiro_pvalue(w_stat, n)
    p[constant] = 0.0
    return w_stat, p


def shapiro_wilk(sample) -> TestResult:
    """Shapiro-Wilk W test of normality.

    Returns the W statistic and its upper-tail p-value.  Requires
    3 <= n <= 5000 and a non-constant sample; a constant sample raises
    DomainError (callers that rank p-values map it to 0).  The sample is
    scored as a one-row block of `shapiro_wilk_sorted`.
    """
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    if n < 3 or n > 5000:
        raise DomainError(f"shapiro_wilk requires 3 <= n <= 5000, got n={n}")
    if not np.all(np.isfinite(x)):
        raise InputError("shapiro_wilk requires finite values")
    if x[-1] - x[0] <= 0.0:
        raise DomainError("shapiro_wilk is undefined for a constant sample")
    w_stat, p = shapiro_wilk_sorted(x[None, :])
    return TestResult(float(w_stat[0]), float(p[0]))


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


def ks_two_sample(a, b) -> TestResult:
    """Two-sample Kolmogorov-Smirnov test.

    D is the exact sup-distance between the two empirical CDFs; the
    p-value is the asymptotic one at effective size n_a n_b / (n_a + n_b).
    The pair is scored as a one-row block of `ks_two_sample_sorted`.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size == 0 or b.size == 0:
        raise InputError("ks_two_sample requires two non-empty samples")
    pooled = np.concatenate([a, b])
    order = np.argsort(pooled)
    d, p = ks_two_sample_sorted(pooled[order][None, :], (order < a.size)[None, :])
    return TestResult(float(d[0]), float(p[0]))
