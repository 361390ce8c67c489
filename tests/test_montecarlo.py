import math
import tracemalloc

import numpy as np
import pytest

from bslab.montecarlo import McConfig, mc_forward_check, mc_price
from bslab.pricing import OptionSpec, bs_call_price, intrinsic_forward_value
from bslab.rng import BLOCK, normal_stream
from test_cltlab import pooled_and_serial
from test_pricing import risk_neutral_params

EXAMPLE = OptionSpec(spot=50.0, strike=52.0, rate=0.04, expiry=1.0, volatility=0.15)


def forward_ratio_std_error(spec: OptionSpec, paths: int) -> float:
    # Var[e^{Y - rt}] = e^{vol^2 t} - 1 under the risk-neutral law
    return math.sqrt((math.exp(spec.vol_sqrt_t ** 2) - 1.0) / paths)


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(paths=1, seed=0)
    with pytest.raises(ValueError):
        McConfig(paths=100, seed=-1)


def test_zero_volatility_is_exact():
    spec = OptionSpec(spot=60.0, strike=52.0, rate=0.04, expiry=1.0, volatility=0.0)
    result = mc_price(spec, McConfig(paths=1000, seed=1))
    assert result.price == intrinsic_forward_value(spec)
    assert result.std_error == 0.0
    assert mc_forward_check(spec, McConfig(paths=1000, seed=1)) == 1.0


def test_hopeless_strike_prices_to_zero():
    spec = OptionSpec(spot=50.0, strike=1e6, rate=0.04, expiry=1.0, volatility=0.15)
    result = mc_price(spec, McConfig(paths=10_000, seed=4))
    assert result.price == 0.0
    assert result.std_error == 0.0


def test_estimate_within_three_standard_errors():
    closed = bs_call_price(EXAMPLE).price
    result = mc_price(EXAMPLE, McConfig(paths=1_000_000, seed=42))
    assert result.std_error > 0.0
    assert abs(result.price - closed) <= 3.0 * result.std_error
    assert result.method == "monte_carlo"


def test_forward_check_within_three_standard_errors():
    ratio = mc_forward_check(EXAMPLE, McConfig(paths=1_000_000, seed=42))
    assert abs(ratio - 1.0) <= 3.0 * forward_ratio_std_error(EXAMPLE, 1_000_000)


def test_forward_check_skewed_stress_case():
    spec = OptionSpec(spot=100.0, strike=100.0, rate=0.0, expiry=2.0, volatility=0.5)
    ratio = mc_forward_check(spec, McConfig(paths=1_000_000, seed=42))
    assert abs(ratio - 1.0) <= 3.0 * forward_ratio_std_error(spec, 1_000_000)


def test_same_seed_reproduces_identical_results():
    a = mc_price(EXAMPLE, McConfig(paths=50_000, seed=7))
    b = mc_price(EXAMPLE, McConfig(paths=50_000, seed=7))
    assert a == b


def test_different_seeds_give_different_estimates():
    a = mc_price(EXAMPLE, McConfig(paths=10_000, seed=1))
    b = mc_price(EXAMPLE, McConfig(paths=10_000, seed=2))
    assert a.price != b.price


def test_block_merge_matches_whole_array_moments():
    # the same draws reduced in one piece, independently of the block merge
    paths = 3 * BLOCK + 17
    params = risk_neutral_params(EXAMPLE)
    y = params.mean + params.std_dev * normal_stream(3, 0, paths)
    payoff = math.exp(-EXAMPLE.rate * EXAMPLE.expiry) * \
        np.maximum(EXAMPLE.spot * np.exp(y) - EXAMPLE.strike, 0.0)
    result = mc_price(EXAMPLE, McConfig(paths=paths, seed=3))
    assert result.price == pytest.approx(math.fsum(payoff) / paths, rel=1e-14)
    assert result.std_error == pytest.approx(payoff.std(ddof=1) / math.sqrt(paths), rel=1e-12)
    ratio = mc_forward_check(EXAMPLE, McConfig(paths=paths, seed=3))
    assert ratio == pytest.approx(math.fsum(np.exp(y - EXAMPLE.rate * EXAMPLE.expiry)) / paths,
                                  rel=1e-15)


@pytest.mark.parametrize("paths", [BLOCK, 2 * BLOCK, 3 * BLOCK, 3 * BLOCK + 17])
def test_helper_thread_changes_no_bits(monkeypatch, paths):
    # blocks split between the calling thread and the helper (as on two
    # CPUs) against the forced-serial path
    cfg = McConfig(paths=paths, seed=11)
    pooled, serial = pooled_and_serial(
        monkeypatch, lambda: repr((mc_price(EXAMPLE, cfg), mc_forward_check(EXAMPLE, cfg))))
    assert pooled == serial


def test_memory_stays_bounded_in_paths():
    tracemalloc.start()
    try:
        mc_price(EXAMPLE, McConfig(paths=2 ** 22, seed=9))
        mc_forward_check(EXAMPLE, McConfig(paths=2 ** 22, seed=9))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
