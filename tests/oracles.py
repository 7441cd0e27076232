"""Independent oracle implementations the tests check the package against.

Everything here deliberately avoids the package's own computational paths:
enumeration of every cell of a tree, math.lgamma instead of the
vectorized log-gamma, Jacobi fixed-point iteration instead of sweeps, and
brute-force double loops for distances.  Cell edges come from the scalar
quantile function, not from the array CDF that locates points.  Two
references keep the earlier, plainer forms of rewritten kernels: the
digit-by-digit binary expansion of a CDF value and the omega sweep that
calls expit and min/max.  Two more keep the direct forms of the forest
kernels: the log-Bayes-factor layer walk calling `log_beta` on every live
node, which now gathers from count-indexed tables, and the leaf log-path
walk repeating each parent, which now broadcasts it by reshape.  The
Shapiro-Wilk and Kolmogorov-Smirnov references score one sample at a time,
the way the package did before its column kernels: W from `np.dot` and
the p-value through `math.erfc`, and D from `searchsorted` on each sorted
sample.
"""

from __future__ import annotations

import math

import numpy as np

from ptda.polya_tree import alpha_for_layer
from ptda.errors import DomainError
from ptda.stats import _kolmogorov_sf, log_beta, normal_quantile, square_safe_shift


def lgamma(v):
    return math.lgamma(v)


def lbeta(a, b):
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def dense_log_bayes_factor(counts_map: dict, depth: int, c: float) -> float:
    """Enumerate every node at layers 0..depth-1, empty or not."""

    def count(code):
        return counts_map.get(code, (0, 0))

    def alpha_of(parent_len):
        return 1.0 if parent_len == 0 else c * parent_len ** 2

    total = 0.0
    for level in range(depth):
        a = alpha_of(level)
        for k in range(2 ** level):
            code = format(k, f"0{level}b") if level else ""
            c1l, c0l = count(code + "0")
            c1r, c0r = count(code + "1")
            total += (
                lbeta(a + c1l, a + c1r)
                + lbeta(a + c0l, a + c0r)
                - lbeta(a + c1l + c0l, a + c1r + c0r)
                - lbeta(a, a)
            )
    return total


def exact_log_bayes_factor_with_point(counts_map: dict, depth: int, c: float,
                                      new_path: str, new_group: int) -> float:
    """Dense evidence including a new observation's indicator terms.

    The new point adds one to its own group's term and to the pooled term
    along its path prefixes; the implemented evidence drops those bumps.
    """

    def alpha_of(parent_len):
        return 1.0 if parent_len == 0 else c * parent_len ** 2

    total = 0.0
    for level in range(depth):
        a = alpha_of(level)
        for k in range(2 ** level):
            code = format(k, f"0{level}b") if level else ""
            (c1l, c0l) = counts_map.get(code + "0", (0, 0))
            (c1r, c0r) = counts_map.get(code + "1", (0, 0))
            bump_l = 1 if new_path.startswith(code + "0") else 0
            bump_r = 1 if new_path.startswith(code + "1") else 0
            g1l, g1r = (bump_l, bump_r) if new_group == 1 else (0, 0)
            g0l, g0r = (bump_l, bump_r) if new_group == 0 else (0, 0)
            total += (
                lbeta(a + c1l + g1l, a + c1r + g1r)
                + lbeta(a + c0l + g0l, a + c0r + g0r)
                - lbeta(a + c1l + c0l + bump_l, a + c1r + c0r + bump_r)
                - lbeta(a, a)
            )
    return total


def direct_log_bayes_factors(forest, c) -> np.ndarray:
    """Per-variable ln BF with `log_beta` evaluated on every live node's counts."""
    c = np.broadcast_to(np.asarray(c, dtype=float), (forest.p,))
    k1, k0 = forest.count1, forest.count0
    out = np.zeros(forest.p)
    for level in range(forest.depth):
        lo = 1 << level
        live = (k1[:, lo:2 * lo] > 0) & (k0[:, lo:2 * lo] > 0)
        var = np.nonzero(live)[0]
        if var.size == 0:
            continue
        a = alpha_for_layer(level + 1, c[var])
        left, right = slice(2 * lo, 4 * lo, 2), slice(2 * lo + 1, 4 * lo, 2)
        c1l, c1r = k1[:, left][live], k1[:, right][live]
        c0l, c0r = k0[:, left][live], k0[:, right][live]
        terms = (log_beta(a + c1l, a + c1r) + log_beta(a + c0l, a + c0r)
                 - log_beta(a + (c1l + c0l), a + (c1r + c0r)) - log_beta(a, a))
        out += np.bincount(var, weights=terms, minlength=forest.p)
    return out


def direct_leaf_log_path_tables(forest, c) -> tuple[np.ndarray, np.ndarray]:
    """(p, 2**depth) leaf log path probabilities per group, one log per cell
    and the parent sums repeated over their children."""
    c = np.broadcast_to(np.asarray(c, dtype=float), (forest.p,))
    tables = []
    for counts in (forest.count1, forest.count0):
        lp = np.zeros((forest.p, 1))
        for level in range(1, forest.depth + 1):
            a = alpha_for_layer(level, c)[:, None]
            lo = 1 << level
            parent = np.repeat(counts[:, lo // 2:lo], 2, axis=1).astype(float)
            lp = np.repeat(lp, 2, axis=1) + (np.log(a + counts[:, lo:2 * lo])
                                             - np.log(2.0 * a + parent))
        tables.append(lp)
    return tables[0], tables[1]


def expit(z):
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def binary_expansion_leaves(u, depth: int) -> np.ndarray:
    """First `depth` binary digits of each value in [0, 1], one halving at a
    time; a digit is 1 only when the doubled value exceeds 1, so a dyadic
    boundary goes left."""
    t = np.array(u, dtype=float)
    k = np.zeros(t.shape, dtype=np.int64)
    for _ in range(depth):
        t *= 2.0
        d = t > 1.0
        t -= d  # exact: t in (1, 2] stays representable after subtracting 1
        k = 2 * k + d
    return k


def sweep_omega(log_bf, u: float, tol: float = 1e-6, max_iter: int = 1000,
                clamp: float = 700.0, lo: float = 1e-300,
                hi: float = float(np.nextafter(1.0, 0.0))) -> tuple[list, int, bool]:
    """(omega, sweeps, converged) of in-order coordinate sweeps from omega =
    0.5, written with expit and min/max; stops when the squared step is at
    most tol."""
    bf = [float(v) for v in log_bf]
    p = len(bf)
    om = [0.5] * p
    base = float(p) ** u + p - 1.0
    s = sum(om)
    for sweep in range(1, max_iter + 1):
        delta = 0.0
        for j in range(p):
            s_minus = s - om[j]
            eta = bf[j] + math.log1p(s_minus) - math.log(base - s_minus)
            w = min(max(expit(max(-clamp, min(clamp, eta))), lo), hi)
            d = w - om[j]
            delta += d * d
            s += d
            om[j] = w
        if delta <= tol:
            return om, sweep, True
    return om, max_iter, False


def jacobi_omega(log_bf, p: int, u: float, omega0, tol: float = 1e-30,
                 max_iter: int = 1_000_000) -> list:
    """Fixed point of the penalised-evidence equations by Jacobi iteration."""
    om = list(omega0)
    for _ in range(max_iter):
        s = sum(om)
        new = []
        for j in range(p):
            sm = s - om[j]
            eta = log_bf[j] + math.log(1.0 + sm) - math.log(p ** u + p - sm - 1.0)
            new.append(expit(eta))
        delta = sum((a - b) ** 2 for a, b in zip(new, om))
        om = new
        if delta <= tol:
            return om
    raise RuntimeError("Jacobi iteration did not converge")


def brute_force_ks_distance(a, b) -> float:
    """sup |F_a - F_b| by a double loop over every pooled point."""
    a = list(a)
    b = list(b)
    best = 0.0
    for x in a + b:
        fa = sum(1 for v in a if v <= x) / len(a)
        fb = sum(1 for v in b if v <= x) / len(b)
        best = max(best, abs(fa - fb))
    return best


def cell_bounds(mean: float, sd: float, level: int, k: int) -> tuple[float, float]:
    """Half-open interval (lower, upper] of cell k of layer `level`: the
    centring quantiles mean + sd * q(k / 2**level), with infinite ends."""
    scale = 1 << level
    lower = -math.inf if k == 0 else mean + sd * normal_quantile(k / scale)
    upper = math.inf if k + 1 == scale else mean + sd * normal_quantile((k + 1) / scale)
    return lower, upper


def integrate_predictive_density(counts, spec, group, fn, tail_q=1e-9, points_per_cell=64) -> float:
    """Quadrature of a density over the deepest-layer cells.

    Simpson's rule inside each cell (the density is smooth there); the
    two infinite tails are clipped at extreme centring quantiles.
    """
    depth = spec.depth
    total = 0.0
    for k in range(2 ** depth):
        lo, hi = cell_bounds(spec.mean, spec.sd, depth, k)
        if math.isinf(lo):
            lo = spec.mean + spec.sd * normal_quantile(tail_q)
        if math.isinf(hi):
            hi = spec.mean + spec.sd * normal_quantile(1.0 - tail_q)
        if hi <= lo:
            continue
        xs = np.linspace(lo, hi, 2 * points_per_cell + 1)
        ys = np.array([fn(float(x), counts, spec, group) for x in xs])
        h = (hi - lo) / (2 * points_per_cell)
        total += h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-2:2].sum())
    return total


# Royston (1995) polynomial coefficients, highest degree first
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


def shapiro_wilk(sample) -> tuple[float, float]:
    """(W, p) of one finite sample, 3 <= n <= 5000; a constant sample raises DomainError."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    if n < 3 or x[-1] - x[0] <= 0.0:
        raise DomainError("shapiro_wilk needs n >= 3 and a non-constant sample")
    x = np.ldexp(x, -square_safe_shift(x))
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
    xc = x - x.mean()
    w_stat = min(float(np.dot(w_vec, x)) ** 2 / float(np.dot(xc, xc)), 1.0)
    if n == 3:
        p = (6.0 / math.pi) * (math.asin(math.sqrt(w_stat)) - math.asin(math.sqrt(0.75)))
        return w_stat, min(max(p, 0.0), 1.0)
    if n <= 11:
        arg = _polyval(_SW_G, float(n)) - math.log(1.0 - w_stat)
        if arg <= 0.0:
            return w_stat, 0.0
        y = -math.log(arg)
        mu = _polyval(_SW_C3, float(n))
        sigma = math.exp(_polyval(_SW_C4, float(n)))
    else:
        ln_n = math.log(float(n))
        y = math.log(1.0 - w_stat)
        mu = _polyval(_SW_C5, ln_n)
        sigma = math.exp(_polyval(_SW_C6, ln_n))
    p = 1.0 - 0.5 * math.erfc(-((y - mu) / sigma) / math.sqrt(2.0))  # 1 - Phi
    return w_stat, min(max(p, 0.0), 1.0)


def ks_two_sample(a, b) -> tuple[float, float]:
    """(D, p) with each empirical CDF evaluated at every pooled point by `searchsorted`."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    pooled = np.concatenate([a, b])
    fa = np.searchsorted(a, pooled, side="right") / a.size
    fb = np.searchsorted(b, pooled, side="right") / b.size
    d = float(np.max(np.abs(fa - fb)))
    n_eff = a.size * b.size / (a.size + b.size)
    return d, _kolmogorov_sf(math.sqrt(n_eff) * d)


def column_pvalues(matrix, labels, rows=None) -> tuple[np.ndarray, np.ndarray]:
    """(v0, v1) one column at a time; Shapiro-Wilk on `rows` only when given,
    and v0 = 0 where it raises DomainError (a constant column, n < 3)."""
    x = np.asarray(matrix, dtype=float)
    y = np.asarray(labels).astype(bool)
    v0, v1 = np.empty(x.shape[1]), np.empty(x.shape[1])
    for j in range(x.shape[1]):
        col = x[:, j]
        try:
            v0[j] = shapiro_wilk(col if rows is None else col[rows])[1]
        except DomainError:
            v0[j] = 0.0
        v1[j] = ks_two_sample(col[y], col[~y])[1]
    return v0, v1
