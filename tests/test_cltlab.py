import hashlib
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import bslab.cltlab as cltlab
import bslab.rng as rng
from bslab.cltlab import (ArraySpec, ConvergenceReport, check_ladder, estimate_variance,
                          ks_normal_test, lindeberg_statistic, run_convergence_experiment,
                          sample_row_sum, variance_linearity_check)
from bslab.increments import IncrementModel
from bslab.montecarlo import McConfig, mc_price
from bslab.pricing import OptionSpec
from bslab.rng import BLOCK, substream, uniform_stream
from bslab.tree import TreeConfig, crr_tree_price

TWO_POINT = IncrementModel.two_point(0.0225)
NORMAL = IncrementModel.normal(0.0225)
POISSON = IncrementModel.poisson_jump(1.0, 2.0)

KIND_MODELS = [IncrementModel.two_point(0.0225), IncrementModel.uniform(0.0225),
               IncrementModel.centered_exponential(0.0225), NORMAL, POISSON]


def pooled_and_serial(monkeypatch, run):
    """run() with the helper thread in use (as on two CPUs), then forced serial."""
    monkeypatch.setattr(rng, "_usable_cpus", lambda: 2)
    pooled = run()
    monkeypatch.setattr(rng, "_usable_cpus", lambda: 1)
    return pooled, run()


# frozen from the analytic jump-tail series (confirmed against scipy's pmf):
# n * E[Z^2; |Z| > 0.01] for cells of a poisson_jump(1, 2) row over t = 1
POISSON_LINDEBERG = {16: 2.0, 256: 1.984496594714684, 4096: 1.999023914220762}


class TestSampleRowSum:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ArraySpec(TWO_POINT, 0.0, 4, 10, 1)
        with pytest.raises(ValueError):
            ArraySpec(TWO_POINT, 1.0, 0, 10, 1)
        with pytest.raises(ValueError):
            ArraySpec(TWO_POINT, 1.0, 4, 0, 1)
        with pytest.raises(ValueError):
            ArraySpec(TWO_POINT, 1.0, 4, 10, -1)

    def test_seed_must_be_an_integer(self):
        with pytest.raises(ValueError):
            ArraySpec(TWO_POINT, 1.0, 4, 10, 1.5)
        with pytest.raises(ValueError):
            ArraySpec(TWO_POINT, 1.0, 4, 10, 2 ** 64)

    def test_single_row_two_point_support(self):
        sums = sample_row_sum(ArraySpec(TWO_POINT, 1.0, 1, 2000, 5))
        s = math.sqrt(0.0225)
        assert set(np.unique(sums)) == {-s, s}

    def test_row_variance_concentration(self):
        # chi-square concentration: sample variance within 3*sqrt(2/m)*sigma^2*t
        sums = sample_row_sum(ArraySpec(TWO_POINT, 1.0, 4096, 100_000, 11))
        assert abs(sums.var(ddof=1) - 0.0225) <= 3.0 * math.sqrt(2.0 / 100_000) * 0.0225

    def test_normal_rows_have_exact_law(self):
        # positive control: sums of normal increments are normal at any n
        sums = sample_row_sum(ArraySpec(NORMAL, 1.0, 7, 10_000, 21))
        stat, thr = ks_normal_test(sums, 0.0, math.sqrt(0.0225))
        assert stat < thr

    def test_deterministic_and_chunking_invariant(self, monkeypatch):
        spec = ArraySpec(TWO_POINT, 1.0, 64, 3000, 9)
        base = sample_row_sum(spec)
        assert np.array_equal(base, sample_row_sum(spec))
        monkeypatch.setattr(cltlab, "BLOCK", 1000)
        assert np.array_equal(base, sample_row_sum(spec))

    def test_memory_stays_within_a_few_blocks(self):
        tracemalloc.start()
        try:
            sample_row_sum(ArraySpec(NORMAL, 1.0, 4096, 5000, 13))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_cells_share_one_distribution(self):
        # two-sample KS between the first and last cell of each row
        h = 1.0 / 8
        draws = IncrementModel.uniform(0.0225).sample(h, 2024, 0, 5000 * 8).reshape(5000, 8)
        result = stats.ks_2samp(draws[:, 0], draws[:, 7])
        assert result.pvalue > 0.01


class TestHelperThread:
    """Blocks split between the calling thread and the helper give the
    serial path's bits."""

    @pytest.mark.parametrize("model", KIND_MODELS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("samples", [50, 60], ids=["odd_chunks", "even_chunks"])
    def test_row_sums_match_serial(self, monkeypatch, model, samples):
        # 10 rows of 64 per chunk: 5 or 6 chunks
        monkeypatch.setattr(cltlab, "BLOCK", 640)
        spec = ArraySpec(model, 1.0, 64, samples, 17)
        pooled, serial = pooled_and_serial(monkeypatch, lambda: sample_row_sum(spec))
        assert pooled.tobytes() == serial.tobytes()

    def test_rows_wider_than_a_block_match_serial(self, monkeypatch):
        # one row per chunk, each row longer than a block
        spec = ArraySpec(IncrementModel.uniform(0.0225), 1.0, BLOCK + 5, 3, 19)
        pooled, serial = pooled_and_serial(monkeypatch, lambda: sample_row_sum(spec))
        assert pooled.tobytes() == serial.tobytes()

    @pytest.mark.parametrize("samples", [BLOCK, 2 * BLOCK, 3 * BLOCK, 3 * BLOCK + 17])
    def test_lindeberg_matches_serial(self, monkeypatch, samples):
        uniform = IncrementModel.uniform(0.0225)
        pooled, serial = pooled_and_serial(
            monkeypatch, lambda: lindeberg_statistic(uniform, 16, 1.0, 0.01, samples, 23))
        assert repr(pooled) == repr(serial)

    def test_helper_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(rng, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(cltlab, "BLOCK", 64)
        sample = IncrementModel.sample
        raised_on = []

        def failing_second_chunk(self, h, seed, start, count):
            if start == 64:
                raised_on.append(threading.current_thread())
                raise RuntimeError(f"chunk at {start} failed")
            return sample(self, h, seed, start, count)

        monkeypatch.setattr(IncrementModel, "sample", failing_second_chunk)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="chunk at 64 failed"):
            sample_row_sum(ArraySpec(NORMAL, 1.0, 8, 16, 29))
        assert len(raised_on) == 1 and raised_on[0] is not threading.current_thread()
        for thread in set(threading.enumerate()) - before:
            thread.join(timeout=10.0)
            assert not thread.is_alive()

    def test_many_small_chunks_under_frequent_switching(self, monkeypatch):
        # 500 chunks of 4 rows; switch threads as often as the interpreter can
        monkeypatch.setattr(cltlab, "BLOCK", 16)
        spec = ArraySpec(IncrementModel.centered_exponential(0.0225), 1.0, 4, 2000, 31)
        monkeypatch.setattr(rng, "_usable_cpus", lambda: 1)
        serial = sample_row_sum(spec)
        monkeypatch.setattr(rng, "_usable_cpus", lambda: 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 1.0
            runs = 0
            while runs == 0 or time.monotonic() < deadline:
                assert sample_row_sum(spec).tobytes() == serial.tobytes()
                runs += 1
        finally:
            sys.setswitchinterval(interval)


# warm up, then count minor page faults over one row-sum call in a process
# that has not imported scipy.stats (as in a CLI run)
_FAULTS_PER_BLOCK = """
import resource, sys
import bslab.rng as rng
from bslab.cltlab import ArraySpec, sample_row_sum
from bslab.increments import IncrementModel
rng._usable_cpus = lambda: {cpus}
spec = ArraySpec(IncrementModel.{model}, 1.0, 4096, 5000, 7)
blocks = -(-spec.samples // (rng.BLOCK // spec.rows))
sample_row_sum(spec)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
sample_row_sum(spec)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
assert "scipy.stats" not in sys.modules
print(faults / blocks)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor faults")
@pytest.mark.parametrize("model, cpus", [
    ("two_point(0.0225)", 1), ("two_point(0.0225)", 2),
    ("poisson_jump(1.0, 2.0)", 1), ("poisson_jump(1.0, 2.0)", 2),
], ids=["serial", "pooled", "poisson_jump-serial", "poisson_jump-pooled"])
def test_row_sums_reuse_their_scratch_instead_of_faulting(model, cpus):
    # a block allocated afresh and handed back to the kernel costs 223
    # minor faults (poisson_jump's counts and masks cost about 300); reused
    # scratch costs none
    done = subprocess.run([sys.executable, "-c",
                           _FAULTS_PER_BLOCK.format(model=model, cpus=cpus)],
                          check=True, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert float(done.stdout) < 8.0


# a size-n row over [0, 1] has identical cells of variance model.variance(1/n)
class TestMaxCellVariance:
    def test_direct_division(self):
        assert NORMAL.variance(1.0 / 9) == pytest.approx(0.0025, rel=1e-15)

    def test_exact_scaling_by_ten(self):
        v1 = NORMAL.variance(1.0 / 4)
        v2 = NORMAL.variance(1.0 / 40)
        assert v1 == pytest.approx(10.0 * v2, rel=1e-14)

    def test_row_total_recovers_variance(self):
        for n in (16, 256, 4096):
            assert n * TWO_POINT.variance(1.0 / n) == 0.0225

    def test_sample_second_moment_cross_check(self):
        n = 64
        z = NORMAL.sample(1.0 / n, 31, 0, 100_000)
        second = float(np.mean(z * z))
        se = float(np.std(z * z, ddof=1)) / math.sqrt(z.size)
        assert abs(second - NORMAL.variance(1.0 / n)) <= 4.0 * se


class TestLindebergStatistic:
    def test_two_point_vanishes_once_support_is_inside(self):
        # sqrt(0.0225/n) < 0.01 from n = 226 up
        res = lindeberg_statistic(TWO_POINT, 256, 1.0, 0.01, 10_000, 1)
        assert res.estimate == 0.0 and res.analytic == 0.0
        res_wide = lindeberg_statistic(TWO_POINT, 16, 1.0, 0.01, 10_000, 1)
        assert res_wide.analytic == pytest.approx(0.0225, rel=1e-12)
        assert abs(res_wide.estimate - res_wide.analytic) <= 1e-12

    def test_normal_ladder_decreases_to_zero(self):
        values = [lindeberg_statistic(NORMAL, n, 1.0, 0.01, 200, 1).analytic
                  for n in (100, 1000, 10_000)]
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-9

    def test_estimate_agrees_with_analytic_within_four_standard_errors(self):
        for model, n in ((NORMAL, 100), (POISSON, 256), (TWO_POINT, 16),
                         (IncrementModel.uniform(0.0225), 16),
                         (IncrementModel.centered_exponential(0.0225), 256)):
            res = lindeberg_statistic(model, n, 1.0, 0.01, 100_000, 5)
            assert abs(res.estimate - res.analytic) <= 4.0 * res.std_error + 1e-12

    def test_poisson_stays_bounded_away_from_zero(self):
        for n, frozen in POISSON_LINDEBERG.items():
            res = lindeberg_statistic(POISSON, n, 1.0, 0.01, 200, 1)
            assert res.analytic == pytest.approx(frozen, abs=1e-9)
            assert res.analytic > 1.9

    def test_uniform_support_shrinks_under_epsilon(self):
        # uniform half-width sqrt(3*0.0225/n) falls below 0.01 past n = 675
        uniform = IncrementModel.uniform(0.0225)
        below = lindeberg_statistic(uniform, 1024, 1.0, 0.01, 5000, 3)
        assert below.analytic == 0.0 and below.estimate == 0.0
        above = lindeberg_statistic(uniform, 512, 1.0, 0.01, 5000, 3)
        assert above.estimate > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            lindeberg_statistic(NORMAL, 0, 1.0, 0.01, 100, 1)
        with pytest.raises(ValueError):
            lindeberg_statistic(NORMAL, 4, 1.0, 0.0, 100, 1)
        with pytest.raises(ValueError):
            lindeberg_statistic(NORMAL, 4, 1.0, 0.01, 1, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_horizon_and_epsilon_are_rejected(self, bad):
        uniform = IncrementModel.uniform(0.0225)
        with pytest.raises(ValueError, match="horizon"):
            lindeberg_statistic(uniform, 16, bad, 0.01, 1000, 5)
        with pytest.raises(ValueError, match="epsilon"):
            lindeberg_statistic(uniform, 16, 1.0, bad, 1000, 5)

    def test_block_moments_match_one_piece_reduction(self):
        # the same draws reduced in one piece, across several block boundaries
        uniform = IncrementModel.uniform(0.0225)
        samples = 3 * BLOCK + 17
        z = uniform.sample(1.0 / 16, 5, 0, samples)
        w = np.where(np.abs(z) > 0.01, z * z, 0.0)
        res = lindeberg_statistic(uniform, 16, 1.0, 0.01, samples, 5)
        assert res.estimate == pytest.approx(16 * math.fsum(w) / samples, rel=1e-13)
        assert res.std_error == pytest.approx(16 * w.std(ddof=1) / math.sqrt(samples), rel=1e-12)

    @pytest.mark.parametrize("epsilon", [0.002, 0.01])
    @pytest.mark.parametrize("n", [16, 256, 4096])
    @pytest.mark.parametrize("model", KIND_MODELS, ids=lambda m: m.kind)
    def test_tail_squares_keep_the_bits_of_the_where_form(self, model, n, epsilon, monkeypatch):
        # z^2 where |z| > epsilon, else +0.0, in the bits of
        # np.where(np.abs(z) > epsilon, z * z, 0.0), block by block
        same = []

        def spy(fn, count):
            def checked(lo, hi):
                tail = fn(lo, hi)
                z = model.sample(1.0 / n, 5, lo, hi - lo)
                where = np.where(np.abs(z) > epsilon, z * z, 0.0)
                same.append(np.array_equal(tail.view(np.uint64), where.view(np.uint64)))
                return tail
            return rng.block_mean_m2(checked, count)

        monkeypatch.setattr(cltlab, "block_mean_m2", spy)
        lindeberg_statistic(model, n, 1.0, epsilon, BLOCK + 17, 5)
        assert same == [True, True]

    def test_masked_out_draws_whose_squares_overflow_weigh_zero(self):
        # cells of sd 1e154 pass 1.34e154, whose square is inf, under epsilon 1e300:
        # squared before the mask, inf * 0 would leave nan estimates
        res = lindeberg_statistic(IncrementModel.normal(1e308), 1, 1.0, 1e300, 1000, 5)
        assert res.estimate == 0.0 and res.std_error == 0.0

    def test_memory_does_not_grow_with_samples(self):
        tracemalloc.start()
        try:
            lindeberg_statistic(IncrementModel.uniform(0.0225), 16, 1.0, 0.01, 4_000_000, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


class TestKsNormalTest:
    def test_constant_sample_scores_half(self):
        stat, thr = ks_normal_test(np.full(500, 3.7), 3.7, 1.0)
        assert stat == 0.5
        assert thr == pytest.approx(1.628 / math.sqrt(500), rel=1e-12)

    def test_positive_control_acceptance_rate(self):
        from bslab.rng import normal_stream
        below = 0
        for rep in range(100):
            z = normal_stream(substream(1234, rep), 0, 100_000)
            stat, thr = ks_normal_test(z, 0.0, 1.0)
            below += stat < thr
        assert below >= 95

    def test_jump_row_sums_fail_normality(self):
        sums = sample_row_sum(ArraySpec(POISSON, 1.0, 16, 20_000, 2))
        stat, thr = ks_normal_test(sums, 0.0, math.sqrt(2.0))
        assert stat > thr
        assert stat > 0.05

    def test_affine_invariance_is_exact(self):
        x = np.random.default_rng(3).normal(2.0, 5.0, size=1000)
        stat_raw, _ = ks_normal_test(x, 2.0, 5.0)
        stat_std, _ = ks_normal_test((x - 2.0) / 5.0, 0.0, 1.0)
        assert stat_raw == stat_std

    def test_matches_scipy_statistic(self):
        x = np.random.default_rng(4).normal(0.0, 1.0, size=2000)
        stat, _ = ks_normal_test(x, 0.0, 1.0)
        assert stat == pytest.approx(stats.kstest(x, "norm").statistic, abs=1e-12)

    def test_statistics_keep_their_bits_over_seeded_samples(self):
        # normal, heavy-tailed, uniform and exponential samples, some standardized far
        # into the tails where N(z) is subnormal or 1; sha256 of statistic and threshold hex
        gen = np.random.default_rng(3102)
        draws = [lambda m: gen.normal(size=m), lambda m: gen.standard_t(3, size=m),
                 lambda m: gen.uniform(-2.0, 2.0, size=m), lambda m: gen.exponential(size=m)]
        results = []
        for i in range(60):
            m = int(gen.integers(100, 5000))
            mean, std_dev = gen.uniform(-3.0, 3.0), 10 ** gen.uniform(-2.0, 1.0)
            x = draws[i % 4](m) * 10 ** gen.uniform(-1.0, 2.0) + mean
            results += [v.hex() for v in ks_normal_test(x, mean, std_dev)]
        digest = hashlib.sha256(",".join(results).encode()).hexdigest()
        assert digest == "b801a7fb83314fcf4faf28b36ece91de91e64095eff0ee5273274659b03aba5c"

    def test_validation(self):
        with pytest.raises(ValueError):
            ks_normal_test(np.zeros(99), 0.0, 1.0)
        with pytest.raises(ValueError):
            ks_normal_test(np.zeros(500), 0.0, 0.0)

    @pytest.mark.parametrize("x, mean, std_dev", [
        (np.r_[np.zeros(200), np.inf], 0.0, 1.0),
        (np.r_[np.zeros(200), np.nan], 0.0, 1.0),
        (np.r_[np.zeros(200), 1e308], -1e308, 1.0),  # x - mean overflows
        (np.r_[np.zeros(200), 1e300], 0.0, 1e-10),  # the division overflows
    ], ids=["inf", "nan", "difference_overflows", "quotient_overflows"])
    def test_non_finite_standardized_sample_is_refused(self, x, mean, std_dev):
        # warnings are errors here, so an overflow warning would fail this before the check
        with pytest.raises(ValueError, match="^ks_normal_test requires finite input"):
            ks_normal_test(x, mean, std_dev)

    def test_rows_of_samples_are_named(self):
        with pytest.raises(ValueError, match="samples must be one-dimensional"):
            ks_normal_test(np.zeros((10, 10)), 0.0, 1.0)


class TestVarianceLinearity:
    @pytest.mark.parametrize("model", [NORMAL, TWO_POINT], ids=["normal", "two_point"])
    def test_slope_and_intercept(self, model):
        res = variance_linearity_check(model, [0.25, 0.5, 1.0, 2.0], 50_000, 7)
        assert abs(res.slope - 0.0225) <= 3.0 * res.slope_std_error
        assert abs(res.intercept) <= 3.0 * res.intercept_std_error
        fitted = [res.slope * t + res.intercept for t in res.horizons]
        assert res.max_residual == pytest.approx(
            max(abs(v - f) for v, f in zip(res.variances, fitted)), rel=1e-12)

    def test_additivity_of_independent_half_horizons(self):
        v_full, se_full = estimate_variance(NORMAL, 1.0, 100_000, substream(99, 0))
        v_a, se_a = estimate_variance(NORMAL, 0.5, 100_000, substream(99, 1))
        v_b, se_b = estimate_variance(NORMAL, 0.5, 100_000, substream(99, 2))
        tol = 3.0 * math.sqrt(se_full ** 2 + se_a ** 2 + se_b ** 2)
        assert abs(v_full - (v_a + v_b)) <= tol

    def test_one_sample_has_no_variance(self):
        # var(ddof=1) of one row sum is NaN; the estimator refuses it up front
        with pytest.raises(ValueError, match="samples must be >= 2"):
            estimate_variance(NORMAL, 1.0, 1, 7)
        with pytest.raises(ValueError, match="samples must be >= 2"):
            variance_linearity_check(NORMAL, [0.25, 0.5, 1.0], 1, 7)
        assert all(math.isfinite(v) for v in estimate_variance(NORMAL, 1.0, 2, 7))

    def test_validation(self):
        with pytest.raises(ValueError):
            variance_linearity_check(NORMAL, [1.0, 2.0], 100, 1)
        with pytest.raises(ValueError):
            variance_linearity_check(NORMAL, [1.0, 1.0, 1.0], 100, 1)
        with pytest.raises(ValueError):
            variance_linearity_check(NORMAL, [-1.0, 1.0, 2.0], 100, 1)


class TestConvergenceExperiment:
    def test_two_point_reaches_normal_verdict(self):
        # at 5000 samples the KS threshold 0.023 sits well above the
        # lattice-induced floor ~0.0062 of the n=4096 binomial row sum
        spec = ArraySpec(TWO_POINT, 1.0, 1, 5000, 2024)
        report = run_convergence_experiment(spec, [16, 256, 4096], 0.01)
        assert report.verdict == "normal_limit"
        assert report.ks_statistics[-1] < report.ks_threshold
        assert report.lindeberg_values[0] == pytest.approx(0.0225, rel=1e-12)
        assert report.lindeberg_values[1] == 0.0 and report.lindeberg_values[2] == 0.0

    def test_normal_positive_control_all_below_threshold(self):
        spec = ArraySpec(NORMAL, 1.0, 1, 10_000, 42)
        report = run_convergence_experiment(spec, [16, 256, 4096], 0.01)
        assert report.verdict == "normal_limit"
        assert all(stat < report.ks_threshold for stat in report.ks_statistics)

    def test_poisson_jump_counterexample(self):
        spec = ArraySpec(POISSON, 1.0, 1, 10_000, 42)
        report = run_convergence_experiment(spec, [16, 256, 4096], 0.01)
        assert report.verdict == "non_normal_limit"
        assert report.ks_statistics[-1] > max(report.ks_threshold, 0.05)
        for value, (n, frozen) in zip(report.lindeberg_values, sorted(POISSON_LINDEBERG.items())):
            assert value == pytest.approx(frozen, abs=1e-9)

    def test_inconclusive_when_lindeberg_does_not_decay(self):
        # normal rows pass the KS test at any n, but with a tiny epsilon the
        # truncated second moment keeps the whole cell variance at both rungs
        report = run_convergence_experiment(ArraySpec(NORMAL, 1.0, 1, 2000, 3), [16, 17], 1e-9)
        assert report.verdict == "inconclusive"

    def test_lindeberg_values_are_closed_form_and_draw_nothing(self, monkeypatch):
        original = cltlab.lindeberg_statistic

        def no_sampling(*args):
            raise AssertionError("clt-demo sampled Lindeberg draws")

        monkeypatch.setattr(cltlab, "lindeberg_statistic", no_sampling)
        for model in KIND_MODELS:
            report = run_convergence_experiment(ArraySpec(model, 1.0, 1, 200, 4), [16, 256], 0.01)
            # the values the per-rung Monte Carlo call used to report for the
            # kinds that already had a closed form, bit for bit
            if model.kind in ("two_point", "normal", "poisson_jump"):
                assert repr(report.lindeberg_values) == repr(tuple(
                    original(model, n, 1.0, 0.01, 200, 4).analytic for n in (16, 256)))

    def test_report_is_deterministic(self):
        spec = ArraySpec(POISSON, 1.0, 1, 1000, 8)
        a = run_convergence_experiment(spec, [4, 16], 0.01)
        b = run_convergence_experiment(spec, [4, 16], 0.01)
        assert a == b
        assert isinstance(a, ConvergenceReport)

    def test_too_few_samples_fail_before_sampling(self, monkeypatch):
        def no_sampling(spec):
            raise AssertionError("sampled before checking the sample count")

        monkeypatch.setattr(cltlab, "sample_row_sum", no_sampling)
        spec = ArraySpec(NORMAL, 1.0, 1, cltlab.KS_MIN_SAMPLES - 1, 1)
        with pytest.raises(ValueError, match="samples must be >= 100"):
            run_convergence_experiment(spec, [16, 256], 0.01)

    def test_ladder_validation(self):
        spec = ArraySpec(NORMAL, 1.0, 1, 200, 1)
        with pytest.raises(ValueError):
            run_convergence_experiment(spec, [16, 16], 0.01)
        with pytest.raises(ValueError):
            run_convergence_experiment(spec, [256, 16], 0.01)
        with pytest.raises(ValueError):
            run_convergence_experiment(spec, [], 0.01)


# each of these once returned a number for a fractional or bool count, a bool
# or string real, or a NaN or infinite truncation level, or raised something
# other than ValueError for an int past the double range, instead of
# rejecting it with a ValueError
@pytest.mark.parametrize("call", [
    lambda: lindeberg_statistic(NORMAL, 16.7, 1.0, 0.01, 1000, 5),
    lambda: lindeberg_statistic(NORMAL, True, 1.0, 0.01, 1000, 5),
    lambda: check_ladder([16.7], 1.0, 0.01),
    lambda: TWO_POINT.lindeberg_tail(1.0 / 16, math.nan),
    lambda: TWO_POINT.lindeberg_tail(1.0 / 16, math.inf),
    lambda: uniform_stream(0, 1.5, 3),
    lambda: substream(1, 2.5),
    lambda: substream(1, True),
    lambda: ArraySpec(NORMAL, 1.0, True, 100, 1),
    lambda: ArraySpec(NORMAL, 1.0, 16, 10.5, 1),
    lambda: ArraySpec(NORMAL, 10**400, 4, 10, 1),
    lambda: ArraySpec(NORMAL, "1.0", 4, 10, 1),
    lambda: ArraySpec(NORMAL, True, 4, 10, 1),
    lambda: OptionSpec("50", True, 0.04, 1, 0.15),
    lambda: OptionSpec(50.0, True, 0.04, 1.0, 0.15),
    lambda: OptionSpec(10**400, 52.0, 0.04, 1.0, 0.15),
], ids=["lindeberg_n_fraction", "lindeberg_n_bool", "ladder_fraction",
        "tail_epsilon_nan", "tail_epsilon_inf", "stream_start_fraction",
        "substream_fraction", "substream_bool", "spec_rows_bool", "spec_samples_fraction",
        "spec_horizon_past_double", "spec_horizon_string", "spec_horizon_bool",
        "option_string_spot_bool_strike", "option_bool_strike", "option_spot_past_double"])
def test_fractional_bool_and_non_finite_inputs_are_value_errors(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("np_int", [np.int64, np.uint64, np.int32])
def test_numpy_integer_counts_draw_the_bits_of_python_ints(np_int):
    assert np.array_equal(uniform_stream(np_int(3), np_int(5), np_int(9)),
                          uniform_stream(3, 5, 9))
    assert substream(np_int(3), np_int(2)) == substream(3, 2)
    assert check_ladder([np_int(4), np_int(16)], 1.0, 0.01) == (4, 16)
    spec = ArraySpec(TWO_POINT, 1.0, np_int(4), np_int(10), np_int(1))
    assert np.array_equal(sample_row_sum(spec), sample_row_sum(ArraySpec(TWO_POINT, 1.0, 4, 10, 1)))
    option = OptionSpec(50.0, 52.0, 0.04, 1.0, 0.15)
    assert mc_price(option, McConfig(np_int(1000), np_int(42))) == \
        mc_price(option, McConfig(1000, 42))
    assert crr_tree_price(option, TreeConfig(np_int(100))) == \
        crr_tree_price(option, TreeConfig(100))
    # the largest seed still draws
    top = 2 ** 64 - 1
    assert np.array_equal(uniform_stream(np.uint64(top), 0, 4), uniform_stream(top, 0, 4))
