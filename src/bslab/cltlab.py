"""Triangular-array experiments: row sums, the Lindeberg statistic,
normality testing, and variance linearity in the horizon.

A row at size n splits the horizon t into n cells of length t/n; every cell
is an independent draw from the increment model, so row sums play the role
of the total log-return over [0, t]. The machinery measures, at desk scale,
whether row sums approach the normal law with variance per_unit_variance*t
and whether the Lindeberg tail sum vanishes.

Row sums fill rng.map_blocks pieces of whole rows. The Lindeberg
statistic is exact for every increment kind; its Monte Carlo cross-check is
reduced by rng.block_mean_m2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .increments import IncrementModel
from .normal import norm_cdf
from .pricing import require_count, require_positive
from .rng import BLOCK, block_mean_m2, check_seed, map_blocks, substream

# 1% asymptotic critical value for sqrt(m) * KS statistic
KS_ONE_PERCENT = 1.628
# verdict cutoffs for "lindeberg values decrease toward 0": the last ladder
# value must drop below half the first and below this fraction of the row
# variance
LINDEBERG_DECREASE_RATIO = 0.5
LINDEBERG_SMALL_FRACTION = 0.1
# fewest samples an estimator takes: two for a sample variance (the
# Lindeberg estimate's standard error included), and 100 for the KS test,
# whose asymptotic threshold is unreliable below that
VARIANCE_MIN_SAMPLES = 2
KS_MIN_SAMPLES = 100

# increments per row in the sums whose variance estimate_variance takes
VARIANCE_ROWS = 16


def check_ladder(n_ladder, horizon: float, epsilon: float) -> tuple[int, ...]:
    """Validate a row-size ladder (increasing integers >= 1: numpy integers,
    not bools or fractions) with its horizon and Lindeberg truncation level,
    both positive and finite; returns the ladder as a tuple of Python ints."""
    ladder = tuple(require_count("n_ladder entries", n, 1) for n in n_ladder)
    if not ladder:
        raise ValueError("n_ladder must not be empty")
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError(f"n_ladder must be strictly increasing, got {list(ladder)}")
    require_positive("horizon", horizon)
    require_positive("epsilon", epsilon)
    return ladder


def check_horizons(horizons) -> tuple[float, ...]:
    """Validate the horizons of a variance-linearity fit; returns them as a
    tuple of floats."""
    ts = tuple(require_positive("horizons", t) for t in horizons)
    if len(set(ts)) < 3:
        raise ValueError("need at least 3 distinct horizons")
    return ts


@dataclass(frozen=True)
class ArraySpec:
    """One triangular-array sampling configuration: rows and samples are
    integers >= 1, kept as Python ints; the horizon is positive and finite."""

    model: IncrementModel
    horizon: float
    rows: int
    samples: int
    seed: int

    def __post_init__(self) -> None:
        require_positive("horizon", self.horizon)
        for name in ("rows", "samples"):
            object.__setattr__(self, name, require_count(name, getattr(self, name), 1))
        check_seed(self.seed)


@dataclass(frozen=True)
class LindebergResult:
    """The Lindeberg statistic in closed form (analytic), and its Monte Carlo
    estimate and standard error as an independent cross-check."""

    estimate: float
    std_error: float
    analytic: float


@dataclass(frozen=True)
class VarianceLinearityResult:
    slope: float
    intercept: float
    max_residual: float
    slope_std_error: float
    intercept_std_error: float
    horizons: tuple[float, ...]
    variances: tuple[float, ...]
    variance_std_errors: tuple[float, ...]


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-ladder-entry statistics plus the overall verdict."""

    n_ladder: tuple[int, ...]
    ks_statistics: tuple[float, ...]
    lindeberg_values: tuple[float, ...]
    max_cell_variance: tuple[float, ...]
    verdict: str
    ks_threshold: float


def sample_row_sum(spec: ArraySpec) -> np.ndarray:
    """Sums of spec.rows independent increments over [0, horizon/rows].

    Sample j consumes stream indices [j*rows, (j+1)*rows), so the output is
    a pure function of spec (seed included) no matter how sampling is
    chunked internally. Chunks of whole rows are handed out on demand to
    the calling thread and one helper thread when a second CPU is
    available (rng.map_blocks); each chunk writes its own slice of the
    output, so the bits are the same either way.
    """
    h = spec.horizon / spec.rows
    out = np.empty(spec.samples)
    # BLOCK draws per chunk, at least one whole row: rows are never split
    # across chunks, so each row sum is one whole-row reduction
    rows_per_chunk = max(1, BLOCK // spec.rows)

    def fill(j0: int, j1: int) -> None:
        draws = spec.model.sample(h, spec.seed, j0 * spec.rows, (j1 - j0) * spec.rows)
        out[j0:j1] = draws.reshape(j1 - j0, spec.rows).sum(axis=1)

    for _ in map_blocks(fill, spec.samples, step=rows_per_chunk):
        pass
    return out


def lindeberg_statistic(model: IncrementModel, n: int, horizon: float, epsilon: float,
                        samples: int, seed: int) -> LindebergResult:
    """n * E[Z^2; |Z| > epsilon] for one cell Z of a size-n row.

    Under stationarity this single-cell form equals the full row sum of
    truncated second moments. The analytic value is the model's closed-form
    tail, checked by a Monte Carlo estimate reduced by rng.block_mean_m2 (as
    in mc_price) on the calling thread and one helper: memory does not grow
    with samples, and the bits never depend on one thread or two. A row
    variance, estimate or standard error not finite in doubles is a ValueError.
    """
    (n,) = check_ladder((n,), horizon, epsilon)
    require_count("samples", samples, VARIANCE_MIN_SAMPLES)
    model.variance(horizon)  # the row variance, checked as run_convergence_experiment does
    h = horizon / n

    def tail_squares(lo: int, hi: int) -> np.ndarray:
        z = model.sample(h, seed, lo, hi - lo)
        z *= np.abs(z) > epsilon  # zeroed before squaring: no inf * 0 where z^2 overflows
        return np.multiply(z, z, out=z)

    with np.errstate(over="ignore", invalid="ignore"):  # past ~1e154 M2 overflows: refused below
        mean, m2 = block_mean_m2(tail_squares, samples)
    estimate = n * mean
    std_error = n * math.sqrt(m2 / (samples - 1)) / math.sqrt(samples)
    if not (estimate < math.inf and std_error < math.inf):
        raise ValueError(f"the Lindeberg estimate {estimate} +- {std_error} at n={n} is not finite")
    return LindebergResult(estimate=estimate, std_error=std_error,
                           analytic=n * model.lindeberg_tail(h, epsilon))


def ks_normal_test(samples, mean: float, std_dev: float) -> tuple[float, float]:
    """Kolmogorov-Smirnov statistic of samples against Normal(mean, std_dev^2).

    Returns (statistic, threshold) where threshold is the asymptotic 1%
    critical value 1.628/sqrt(m). Requires at least KS_MIN_SAMPLES samples.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    m = require_count("samples", x.size, KS_MIN_SAMPLES)
    require_positive("std_dev", std_dev)

    z = np.sort((x - mean) / std_dev)
    ref = norm_cdf(z)
    i = np.arange(1, m + 1, dtype=np.float64)
    d_plus = float(np.max(i / m - ref))
    d_minus = float(np.max(ref - (i - 1.0) / m))
    return max(d_plus, d_minus), KS_ONE_PERCENT / math.sqrt(m)


def estimate_variance(model: IncrementModel, horizon: float, samples: int,
                      seed: int) -> tuple[float, float]:
    """Sample variance of simulated VARIANCE_ROWS-increment sums over
    [0, horizon], with a model-free standard error from the empirical
    fourth central moment."""
    require_count("samples", samples, VARIANCE_MIN_SAMPLES)
    sums = sample_row_sum(ArraySpec(model, horizon, VARIANCE_ROWS, samples, seed))
    v = float(sums.var(ddof=1))
    centered = sums - sums.mean()
    # x**4 as two in-place squares: a tenth of the cost of np.power
    np.square(centered, out=centered)
    m4 = float(np.mean(np.square(centered, out=centered)))
    return v, math.sqrt(max(m4 - v * v, 0.0) / samples)


def variance_linearity_check(model: IncrementModel, horizons, samples: int,
                             seed: int) -> VarianceLinearityResult:
    """Least-squares fit of estimated Var[Y_t] against t.

    For a law with stationary independent increments the fit must give
    slope per_unit_variance and intercept 0; standard errors propagate the
    per-horizon variance estimator noise through the fit weights.
    """
    ts = check_horizons(horizons)
    # an overflow or a zero sxx leaves a non-finite number, rejected below
    with np.errstate(all="ignore"):
        est = [estimate_variance(model, t, samples, substream(seed, k))
               for k, t in enumerate(ts)]
        v = np.array([e[0] for e in est])
        se = np.array([e[1] for e in est])
        t_arr = np.array(ts)
        t_bar = t_arr.mean()
        sxx = float(np.sum((t_arr - t_bar) ** 2))
        c = (t_arr - t_bar) / sxx
        slope = float(np.sum(c * v))
        intercept = float(v.mean() - slope * t_bar)
        slope_se = math.sqrt(float(np.sum((c * se) ** 2)))
        intercept_se = math.sqrt(float(np.sum(((1.0 / len(ts) - t_bar * c) * se) ** 2)))
        residuals = v - (slope * t_arr + intercept)
    res = VarianceLinearityResult(
        slope=slope, intercept=intercept, max_residual=float(np.max(np.abs(residuals))),
        slope_std_error=slope_se, intercept_std_error=intercept_se,
        horizons=ts, variances=tuple(float(x) for x in v),
        variance_std_errors=tuple(float(x) for x in se))
    if not all(map(math.isfinite, (*res.variances, *res.variance_std_errors, slope, intercept,
                                   slope_se, intercept_se, res.max_residual))):
        raise ValueError(f"the variance fit over horizons {list(ts)} is not finite in doubles")
    return res


def _lindeberg_decreasing(values: tuple[float, ...], row_variance: float) -> bool:
    first, last = values[0], values[-1]
    return last <= LINDEBERG_DECREASE_RATIO * first and \
        last <= LINDEBERG_SMALL_FRACTION * row_variance


def run_convergence_experiment(spec: ArraySpec, n_ladder, epsilon: float) -> ConvergenceReport:
    """Sample row sums at every ladder size and test them against the
    normal law with the row variance.

    Verdict: normal_limit when the largest-n KS statistic is below the 1%
    threshold and the Lindeberg values decrease toward 0 (last value below
    half the first and below 0.1 * row variance); non_normal_limit when the
    KS statistic is still at or above the threshold at the largest n;
    inconclusive otherwise. The Lindeberg values are the closed-form
    n * E[Z^2; |Z| > epsilon], so only the row sums are sampled. Each ladder
    entry samples from its own derived stream, so the report is a pure
    function of (spec, n_ladder, epsilon).
    """
    ladder = check_ladder(n_ladder, spec.horizon, epsilon)
    require_count("samples", spec.samples, KS_MIN_SAMPLES)
    row_variance = spec.model.variance(spec.horizon)
    row_std = math.sqrt(row_variance)

    ks_stats: list[float] = []
    lindeberg_vals: list[float] = []
    cell_vars: list[float] = []
    threshold = math.nan
    for k, n in enumerate(ladder):
        sums = sample_row_sum(replace(spec, rows=n, seed=substream(spec.seed, k)))
        stat, threshold = ks_normal_test(sums, 0.0, row_std)
        ks_stats.append(stat)
        h = spec.horizon / n
        lindeberg_vals.append(n * spec.model.lindeberg_tail(h, epsilon))
        # identical cells: the largest cell variance is any one cell's
        cell_vars.append(spec.model.variance(h))

    if ks_stats[-1] < threshold and _lindeberg_decreasing(tuple(lindeberg_vals), row_variance):
        verdict = "normal_limit"
    elif ks_stats[-1] >= threshold:
        verdict = "non_normal_limit"
    else:
        verdict = "inconclusive"

    return ConvergenceReport(
        n_ladder=ladder, ks_statistics=tuple(ks_stats),
        lindeberg_values=tuple(lindeberg_vals), max_cell_variance=tuple(cell_vars),
        verdict=verdict, ks_threshold=threshold)
