"""Reference values computed apart from bslab, and the checks that compare
bslab's outputs against them.

Nothing here imports bslab. The references come from mpmath at 50 digits
(closed-form prices, tail integrals), scipy.stats (exact binomial and
Poisson laws) and the benchmark's own algebra. Each check returns a bool;
test_oracles.py feeds every check a deliberately wrong answer and expects
False.
"""

from __future__ import annotations

import json
import math

import mpmath as mp
import numpy as np
from scipy import stats

mp.mp.dps = 50

CLOSED_FORM_TOL = 1e-12
# |tree - closed form| <= TREE_ENVELOPE * spot / steps on the ladder; the
# largest ratio seen over 300 random contracts drawn from the closed-form
# grid's (wider) ranges, at 10 to 10^4 steps, was 0.10
TREE_ENVELOPE = 0.5
TREE_TOL_AT_10K = 1e-3
SIGMAS = 4.0
# false-alarm probability of each distribution-free (DKW/Massart) check
MASSART_ALPHA = 1e-6
LINDEBERG_SERIES_TOL = 1e-9


# -- pricing ----------------------------------------------------------------

def mp_call_price(spot, strike, rate, expiry, vol) -> float:
    """Black-Scholes call price evaluated in 50-digit arithmetic."""
    s, k, r, t, v = (mp.mpf(x) for x in (spot, strike, rate, expiry, vol))
    sd = v * mp.sqrt(t)
    d1 = (mp.log(s / k) + (r + v * v / 2) * t) / sd
    return float(s * mp.ncdf(d1) - k * mp.exp(-r * t) * mp.ncdf(d1 - sd))


def closed_form_ok(price: float, ref: float) -> bool:
    return abs(price - ref) <= CLOSED_FORM_TOL * max(1.0, abs(ref))


def no_arbitrage_ok(price, spot, strike, rate, expiry) -> bool:
    """max(S - K e^{-rt}, 0) <= C <= S for every entry, to rounding."""
    price, spot = np.asarray(price), np.asarray(spot)
    lower = np.maximum(spot - np.asarray(strike) * np.exp(-np.asarray(rate) * expiry), 0.0)
    slack = CLOSED_FORM_TOL * spot
    return bool(np.all(price >= lower - slack) and np.all(price <= spot + slack))


def tree_ok(price: float, ref: float, steps: int, spot: float) -> bool:
    err = abs(price - ref)
    return err <= TREE_ENVELOPE * spot / steps and (steps != 10_000 or err <= TREE_TOL_AT_10K)


def within_sigmas(value: float, ref: float, std_error: float) -> bool:
    return abs(value - ref) <= SIGMAS * std_error


def forward_std_error(vol: float, expiry: float, paths: int) -> float:
    """Standard error of the mean of e^{Y - rt}, whose variance is e^{vol^2 t} - 1."""
    return math.sqrt(math.expm1(vol * vol * expiry) / paths)


# -- streams ----------------------------------------------------------------

def split_ok(whole: np.ndarray, head: np.ndarray, tail: np.ndarray) -> bool:
    """Draws over [0, N) are bit-identical to [0, a) followed by [a, N)."""
    return np.concatenate([head, tail]).tobytes() == np.asarray(whole).tobytes()


# -- CLT laws ---------------------------------------------------------------

def massart_margin(m: int) -> float:
    """eps with P(sup |F_m - F| > eps) <= MASSART_ALPHA for m samples."""
    return math.sqrt(math.log(2.0 / MASSART_ALPHA) / (2.0 * m))


def _two_point_counts(sums: np.ndarray, n: int, step: float):
    """Number of up-moves behind each row sum s*(2K - n), or None off the lattice."""
    k = (np.asarray(sums) / step + n) / 2.0
    ki = np.rint(k)
    if not np.all(np.abs(k - ki) <= 1e-6) or ki.min() < 0 or ki.max() > n:
        return None
    return ki


def two_point_law_ok(sums: np.ndarray, n: int, step: float) -> bool:
    """Row sums of n two-point cells of size +-step lie on the lattice
    step*(2K - n) and their ECDF is within the Massart margin of
    K ~ Binomial(n, 1/2)."""
    ki = _two_point_counts(sums, n, step)
    if ki is None:
        return False
    j = np.arange(n + 1)
    ecdf = np.searchsorted(np.sort(ki), j, side="right") / ki.size
    return float(np.max(np.abs(ecdf - stats.binom.cdf(j, n, 0.5)))) <= massart_margin(ki.size)


def _atoms_sup_distance(z: np.ndarray, cdf: np.ndarray) -> float:
    """sup_x |F(x) - Phi(x)| for a law whose atoms sit at the increasing
    standardized points z, with CDF values cdf there."""
    phi = stats.norm.cdf(z)
    below = np.concatenate([[0.0], cdf[:-1]])
    return float(max(np.max(np.abs(cdf - phi)), np.max(np.abs(phi - below))))


def two_point_ks_floor(n: int) -> float:
    """Exact sup distance between s*(2K - n), K ~ Binomial(n, 1/2), and
    the normal law with the same variance n*s^2."""
    j = np.arange(n + 1)
    return _atoms_sup_distance((2.0 * j - n) / math.sqrt(n), stats.binom.cdf(j, n, 0.5))


def poisson_ks_floor(mu: float) -> float:
    """Exact sup distance between a*(K - mu), K ~ Poisson(mu), and the
    normal law with the same variance a^2*mu (any jump size a). Row sums of
    compensated Poisson cells have this law at every row size."""
    k = np.arange(int(mu + 50.0 * math.sqrt(mu) + 60.0))
    return _atoms_sup_distance((k - mu) / math.sqrt(mu), stats.poisson.cdf(k, mu))


def ks_near_floor(ks: float, floor: float, m: int) -> bool:
    """A KS statistic of m samples from a law at sup distance `floor` from
    the target lies within the Massart margin of that distance."""
    return abs(ks - floor) <= massart_margin(m)


def normal_verdict_ok(verdict: str, ks_last: float, threshold: float, m: int) -> bool:
    """Exactly normal row sums: the KS statistic is within sampling noise
    of 0, and the verdict follows bslab's 1% threshold (so about 1 seed in
    100 honestly reads non_normal_limit)."""
    if ks_last > massart_margin(m):
        return False
    return verdict == "normal_limit" or (verdict == "non_normal_limit" and ks_last >= threshold)


def poisson_tail_moment(jump: float, mu: float, epsilon: float, power: int) -> float:
    """E[Z^power; |Z| > eps] for Z = jump * (Poisson(mu) - mu), summed over
    the Poisson pmf."""
    k = np.arange(int(mu + 50.0 * math.sqrt(mu) + 60.0))
    z = jump * (k - mu)
    return math.fsum(np.where(np.abs(z) > epsilon, z ** power * stats.poisson.pmf(k, mu), 0.0))


def series_ok(value: float, ref: float) -> bool:
    return abs(value - ref) <= LINDEBERG_SERIES_TOL


def tail_moment(kind: str, cell_variance: float, epsilon: float, power: int) -> float:
    """E[Z^power; |Z| > epsilon] for one mean-zero cell of the given
    variance, integrated from the density (power even)."""
    s = math.sqrt(cell_variance)
    if kind == "uniform":
        a = math.sqrt(3.0) * s
        return (a ** (power + 1) - epsilon ** (power + 1)) / ((power + 1) * a) \
            if epsilon < a else 0.0
    eps = mp.mpf(epsilon)
    if kind == "normal":
        sm = mp.mpf(s)
        val = 2 * mp.quad(lambda z: (sm * z) ** power * mp.npdf(z), [eps / sm, mp.inf])
    elif kind == "centered_exponential":
        # Z = s*(X - 1), X ~ Exp(1)
        sm = mp.mpf(s)
        val = mp.quad(lambda x: (sm * (x - 1)) ** power * mp.exp(-x), [1 + eps / sm, mp.inf])
        if 1 - eps / sm > 0:
            val += mp.quad(lambda x: (sm * (x - 1)) ** power * mp.exp(-x), [0, 1 - eps / sm])
    else:
        raise ValueError(f"no density integral for {kind}")
    return float(val)


def _lindeberg(n: int, second: float, fourth: float, samples: int) -> tuple[float, float]:
    return n * second, n * math.sqrt(max(fourth - second * second, 0.0) / samples)


def lindeberg_reference(kind: str, variance: float, n: int, horizon: float,
                        epsilon: float, samples: int) -> tuple[float, float]:
    """(n * E[Z^2; |Z| > eps], standard error of its m-sample Monte Carlo
    estimate) for a cell Z of a size-n row, from the cell's density."""
    cell = variance * horizon / n
    return _lindeberg(n, tail_moment(kind, cell, epsilon, 2),
                      tail_moment(kind, cell, epsilon, 4), samples)


def poisson_lindeberg_reference(jump: float, intensity: float, n: int, horizon: float,
                                epsilon: float, samples: int) -> tuple[float, float]:
    """lindeberg_reference for compensated Poisson jumps, from the pmf."""
    mu = intensity * horizon / n
    return _lindeberg(n, poisson_tail_moment(jump, mu, epsilon, 2),
                      poisson_tail_moment(jump, mu, epsilon, 4), samples)


def variance_fit_ok(slope, slope_se, intercept, intercept_se, per_unit_variance) -> bool:
    return within_sigmas(slope, per_unit_variance, slope_se) and \
        within_sigmas(intercept, 0.0, intercept_se)


# -- CLI reports ------------------------------------------------------------

def reemit_ok(text: str) -> bool:
    """A JSON report parses and re-emits (sorted keys, indent 2) to the same bytes."""
    try:
        return json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == text
    except ValueError:
        return False
