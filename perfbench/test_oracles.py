"""The benchmark's checks accept bslab's answers and reject wrong ones.

    python3 -m pytest perfbench/test_oracles.py
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bslab  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402

SPEC = dict(spot=50.0, strike=52.0, rate=0.04, expiry=1.0, volatility=0.15)


def test_closed_form_rejects_price_off_by_1e6():
    ref = oracles.mp_call_price(*SPEC.values())
    price = bslab.bs_call_price(bslab.OptionSpec(**SPEC)).price
    assert oracles.closed_form_ok(price, ref)
    assert not oracles.closed_form_ok(price + 1e-6, ref)
    assert not oracles.closed_form_ok(price - 1e-6, ref)


def test_no_arbitrage_rejects_price_above_spot_or_below_intrinsic():
    spot, strike, rate, expiry = 50.0, 30.0, 0.04, 1.0
    intrinsic = spot - strike * math.exp(-rate * expiry)
    assert oracles.no_arbitrage_ok(intrinsic + 1.0, spot, strike, rate, expiry)
    assert not oracles.no_arbitrage_ok(intrinsic - 1e-6, spot, strike, rate, expiry)
    assert not oracles.no_arbitrage_ok(spot + 1e-6, spot, strike, rate, expiry)


def test_tree_and_monte_carlo_checks_reject_wrong_prices():
    ref = oracles.mp_call_price(*SPEC.values())
    lattice = bslab.crr_tree_price(bslab.OptionSpec(**SPEC), bslab.TreeConfig(steps=10_000))
    assert oracles.tree_ok(lattice.price, ref, 10_000, SPEC["spot"])
    assert not oracles.tree_ok(ref + 2e-3, ref, 10_000, SPEC["spot"])
    assert not oracles.tree_ok(ref + 1e-4, ref, 1_000_000, SPEC["spot"])
    assert oracles.within_sigmas(ref + 0.039, ref, 0.01)
    assert not oracles.within_sigmas(ref + 0.041, ref, 0.01)


@pytest.mark.parametrize("stream", [bslab.uniform_stream, bslab.normal_stream])
def test_split_check_rejects_split_off_by_one(stream):
    seed, total, cut = 12345, 4096, 1000
    whole = stream(seed, 0, total)
    assert oracles.split_ok(whole, stream(seed, 0, cut), stream(seed, cut, total - cut))
    assert not oracles.split_ok(whole, stream(seed, 0, cut), stream(seed, cut + 1, total - cut))
    assert not oracles.split_ok(whole, stream(seed, 0, cut + 1), stream(seed, cut, total - cut))


@pytest.mark.parametrize("n", [16, 256, 4096])
def test_two_point_law_rejects_shifted_lattice(n):
    variance, m = 0.0225, 5000
    step = math.sqrt(variance / n)
    model = bslab.IncrementModel.two_point(variance)
    sums = bslab.sample_row_sum(bslab.ArraySpec(model, 1.0, n, m, 99))
    assert oracles.two_point_law_ok(sums, n, step)
    # half a lattice spacing: off the lattice at every n
    assert not oracles.two_point_law_ok(sums + step, n, step)
    # a whole spacing keeps the lattice; the ECDF check sees the shifted atoms
    if n == 16:
        assert not oracles.two_point_law_ok(sums + 2 * step, n, step)


def test_two_point_law_rejects_wrong_success_probability():
    n, m = 256, 5000
    step = math.sqrt(0.0225 / n)
    k = np.random.default_rng(5).binomial(n, 0.53, m)
    assert not oracles.two_point_law_ok(step * (2 * k - n), n, step)


def test_ks_floor_matches_known_lattice_distances():
    # exact sup distances of the two_point row-sum law to the normal target
    assert oracles.two_point_ks_floor(16) == pytest.approx(0.0982, abs=5e-4)
    assert oracles.two_point_ks_floor(4096) == pytest.approx(0.00623, abs=5e-5)
    assert not oracles.ks_near_floor(0.0982 + 0.05, oracles.two_point_ks_floor(16), 5000)
    # compensated Poisson(2) against the normal with variance 2
    assert oracles.poisson_ks_floor(2.0) == pytest.approx(0.177, abs=5e-4)
    assert not oracles.ks_near_floor(0.177 - 0.05, oracles.poisson_ks_floor(2.0), 5000)


def test_lindeberg_series_rejects_wrong_intensity():
    model = bslab.IncrementModel.poisson_jump(1.0, 2.0)
    for n in (16, 256, 4096):
        analytic = bslab.lindeberg_statistic(model, n, 1.0, 0.01, 100, 7).analytic
        ref, _ = oracles.poisson_lindeberg_reference(1.0, 2.0, n, 1.0, 0.01, 100)
        wrong, _ = oracles.poisson_lindeberg_reference(1.0, 2.0 * (1 + 1e-6), n, 1.0, 0.01, 100)
        assert oracles.series_ok(analytic, ref)
        assert not oracles.series_ok(analytic, wrong)


def test_tail_integrals_match_bslab_and_reject_wrong_variance():
    normal = bslab.IncrementModel.normal(0.0225)
    for n in (16, 256, 4096):
        ref, _ = oracles.lindeberg_reference("normal", 0.0225, n, 1.0, 0.01, 5000)
        value = n * normal.lindeberg_tail(1.0 / n, 0.01)
        assert oracles.closed_form_ok(value, ref)
        wrong, _ = oracles.lindeberg_reference("normal", 0.0226, n, 1.0, 0.01, 5000)
        assert not oracles.closed_form_ok(value, wrong)
    # uniform on [-a, a]: E[Z^2; |Z| > eps] = (a^3 - eps^3) / (3a)
    a = math.sqrt(3 * 0.0225 / 16)
    assert oracles.tail_moment("uniform", 0.0225 / 16, 0.01, 2) == \
        pytest.approx((a ** 3 - 0.01 ** 3) / (3 * a), rel=1e-15)
    est = bslab.lindeberg_statistic(bslab.IncrementModel.uniform(0.0225), 16, 1.0, 0.01,
                                    5000, 3)
    ref, se = oracles.lindeberg_reference("uniform", 0.0225, 16, 1.0, 0.01, 5000)
    assert oracles.within_sigmas(est.estimate, ref, se)
    assert not oracles.within_sigmas(est.estimate, ref * 1.05, se)


def test_normal_verdict_check():
    m = 5000
    threshold = 1.628 / math.sqrt(m)
    assert oracles.normal_verdict_ok("normal_limit", 0.01, threshold, m)
    assert oracles.normal_verdict_ok("non_normal_limit", threshold + 1e-4, threshold, m)
    assert not oracles.normal_verdict_ok("non_normal_limit", 0.01, threshold, m)
    assert not oracles.normal_verdict_ok("normal_limit", 0.05, threshold, m)


def test_reemit_rejects_non_canonical_json():
    report = {"command": "price", "results": {"price": 3.0076}}
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert oracles.reemit_ok(text)
    assert not oracles.reemit_ok(text.rstrip("\n"))
    assert not oracles.reemit_ok(json.dumps(report) + "\n")
    assert not oracles.reemit_ok("not json")


def test_benchmark_json_lists_the_metrics_run_py_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
