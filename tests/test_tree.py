import hashlib
import math
import random
import sys
import tracemalloc

import mpmath
import pytest

from bslab.pricing import OptionSpec, bs_call_price, intrinsic_forward_value
from bslab.tree import (MAX_STEP_VOL, TreeConfig, TreeParameterizationError, binomial_weights,
                        crr_tree_price)
from full_window_tree import full_window_price

EXAMPLE = OptionSpec(spot=50.0, strike=52.0, rate=0.04, expiry=1.0, volatility=0.15)
DEEP_OTM = OptionSpec(spot=50.0, strike=500.0, rate=0.04, expiry=1.0, volatility=0.15)
DEEP_ITM = OptionSpec(spot=500.0, strike=5.0, rate=0.04, expiry=1.0, volatility=0.15)


def test_config_validation():
    for bad in (0, -3, 1.5, True):
        with pytest.raises(ValueError):
            TreeConfig(steps=bad)
    with pytest.raises(ValueError, match=r"at most 10\*\*9, got 1000000001"):
        TreeConfig(steps=10 ** 9 + 1)
    assert TreeConfig(steps=10 ** 9).steps == 10 ** 9


def test_one_step_martingale_identity():
    result = crr_tree_price(EXAMPLE, TreeConfig(steps=64))
    d = result.detail
    growth = math.exp(0.04 * 1.0 / 64)
    lhs = d["prob_up"] * d["up_factor"] + (1.0 - d["prob_up"]) * d["down_factor"]
    assert lhs == pytest.approx(growth, rel=1e-14)
    assert 0.0 < d["prob_up"] < 1.0
    assert d["terminal_nodes"] == 65


def test_tiny_strike_prices_the_discounted_forward():
    spec = OptionSpec(spot=100.0, strike=1e-12, rate=0.04, expiry=1.0, volatility=0.15)
    result = crr_tree_price(spec, TreeConfig(steps=1))
    assert result.price == pytest.approx(100.0, abs=1e-9)


def test_errors_shrink_with_steps():
    closed = bs_call_price(EXAMPLE).price
    errors = [abs(crr_tree_price(EXAMPLE, TreeConfig(steps=n)).price - closed)
              for n in (16, 64, 256, 1024)]
    assert errors[0] > errors[1] > errors[2] > errors[3]


def test_decade_ladder_decays_like_one_over_n():
    import numpy as np
    closed = bs_call_price(EXAMPLE).price
    ladder = [10, 100, 1000]
    errors = [abs(crr_tree_price(EXAMPLE, TreeConfig(steps=n)).price - closed)
              for n in ladder]
    assert errors[0] > errors[1] > errors[2]
    slope = np.polyfit(np.log(ladder), np.log(errors), 1)[0]
    # CRR oscillation makes the fitted decay exponent wander around -1
    assert -1.6 <= slope <= -0.7


def test_ten_thousand_steps_close_to_closed_form():
    closed = bs_call_price(EXAMPLE).price
    gap = abs(crr_tree_price(EXAMPLE, TreeConfig(steps=10_000)).price - closed)
    assert gap <= 1e-3


def test_probability_out_of_range_suggests_more_steps():
    crazy_rate = OptionSpec(spot=50.0, strike=52.0, rate=5.0, expiry=1.0, volatility=0.15)
    # the drift per step 5/n is under the vol per step 0.15/sqrt(n) from
    # n = floor(5^2/0.15^2) + 1 = 1112
    for n in (1, 1111):
        with pytest.raises(TreeParameterizationError, match="increase steps to at least 1112$"):
            crr_tree_price(crazy_rate, TreeConfig(steps=n))
    assert 0.0 < crr_tree_price(crazy_rate, TreeConfig(steps=1112)).price < crazy_rate.spot


def test_too_coarse_lattice_names_the_fewest_steps():
    spec = OptionSpec(spot=50.0, strike=52.0, rate=0.04, expiry=4.0, volatility=20.0)
    # vol*sqrt(expiry/steps) stays at most MAX_STEP_VOL from 20^2*4/8^2 = 25 steps
    with pytest.raises(ValueError, match=r"steps=24; increase steps to at least 25$"):
        crr_tree_price(spec, TreeConfig(24))
    assert crr_tree_price(spec, TreeConfig(25)).price > 0.0
    with pytest.raises(ValueError, match="no step count up to 10\\*\\*9 fits"):
        crr_tree_price(OptionSpec(50.0, 52.0, 0.04, 1e4, 1e4), TreeConfig(10 ** 9))


def test_underflowing_step_vol_takes_the_deterministic_limit():
    # vol*sqrt(expiry) is 1e-320, a subnormal; over 10^8 steps it rounds to 0
    spec = OptionSpec(spot=60.0, strike=52.0, rate=0.04, expiry=1.0, volatility=1e-320)
    result = crr_tree_price(spec, TreeConfig(steps=10 ** 8))
    assert result.price == intrinsic_forward_value(spec) and result.detail["degenerate"] is True


def test_zero_volatility_delegates_to_deterministic_limit():
    spec = OptionSpec(spot=60.0, strike=52.0, rate=0.04, expiry=1.0, volatility=0.0)
    result = crr_tree_price(spec, TreeConfig(steps=50))
    assert result.price == intrinsic_forward_value(spec)
    assert result.method == "tree"
    assert result.detail["degenerate"] is True


def test_deterministic_reruns():
    a = crr_tree_price(EXAMPLE, TreeConfig(steps=512))
    b = crr_tree_price(EXAMPLE, TreeConfig(steps=512))
    assert a == b


def test_d_diagnostics_match_closed_form():
    tree = crr_tree_price(EXAMPLE, TreeConfig(steps=32))
    closed = bs_call_price(EXAMPLE)
    assert tree.d_plus == closed.d_plus and tree.d_minus == closed.d_minus


def test_numpy_integer_steps_are_accepted():
    import numpy as np
    assert crr_tree_price(EXAMPLE, TreeConfig(np.int64(64))) == crr_tree_price(
        EXAMPLE, TreeConfig(64))


def exact_lattice_price(spec, n):
    """40-digit sum over all n+1 nodes of the lattice that crr_tree_price
    builds on the same float step_vol x, with the step probability
    p = (e^{r*t/n} - e^{-x}) / (e^x - e^{-x}) taken at 40 digits too. Weights
    and nodes advance by their one-step ratios, which keeps the sum O(n) at
    40 digits."""
    with mpmath.workdps(40):
        step_vol = mpmath.mpf(spec.volatility * math.sqrt(spec.expiry / n))
        growth = mpmath.exp(mpmath.mpf(spec.rate) * spec.expiry / n)
        p = (growth - mpmath.exp(-step_vol)) / (2 * mpmath.sinh(step_vol))
        odds = p / (1 - p)
        up_twice = mpmath.exp(2 * step_vol)
        weight = (1 - p) ** n
        node = spec.spot * mpmath.exp(-n * step_vol)
        strike = mpmath.mpf(spec.strike)
        total = payoff = mpmath.mpf(0)
        for k in range(n + 1):
            total += weight
            if node > strike:
                payoff += weight * (node - strike)
            weight = weight * odds * (n - k) / (k + 1)
            node *= up_twice
        return mpmath.exp(-mpmath.mpf(spec.rate) * spec.expiry) * payoff / total


# vol*sqrt(t) of 9, 12 and 20 at moneyness e^{+-3}: the payoff terms peak vol*sqrt(t)
# binomial standard deviations above the mode and reach on past where the weights
# fall under 2^-64 of the mode's, so a walk cut on the weights alone prices them low
WIDE = {f"vol{vst}_{side}": OptionSpec(spot=50.0, strike=50.0 * math.exp(m), rate=0.04,
                                       expiry=t, volatility=vst / math.sqrt(t))
        for vst, t in ((9, 1.0), (12, 4.0), (20, 0.25))
        for side, m in (("otm", 3.0), ("itm", -3.0))}
# the 40-digit sum takes about a second at 10^5 steps, so the wide contracts stop at 10^4
EXACT_CASES = (
    [pytest.param(spec, n, id=f"{name}-{n}")
     for name, spec in (("atm", EXAMPLE), ("deep_otm", DEEP_OTM), ("deep_itm", DEEP_ITM))
     for n in (10, 1000, 10_000, 100_000)]
    + [pytest.param(spec, n, id=f"{name}-{n}") for name, spec in WIDE.items()
       for n in (10, 1000, 10_000)]
    # past the smallest normal float: the terms of vol*sqrt(t) = 36 and 40 peak
    # where the weights are below it, the in-the-money nodes of floor_otm begin
    # there, and at vol 40 the nodes that carry the price pass the largest double
    + [pytest.param(OptionSpec(spot=1e-250, strike=1e-250, rate=0.04, expiry=1.0,
                               volatility=vol), 10_000, id=f"vol{vol}_tiny-10000")
       for vol in (36, 40)]
    + [pytest.param(OptionSpec(spot=100.0, strike=100.0, rate=0.05, expiry=1.0, volatility=40.0),
                    1000, id="vol40_huge_nodes-1000"),
       pytest.param(OptionSpec(spot=100.0, strike=100.0 * math.exp(1.88), rate=0.04, expiry=1.0,
                               volatility=0.05), 10_000, id="floor_otm-10000")])


@pytest.mark.parametrize("spec, n", EXACT_CASES)
def test_matches_exact_lattice_sum(spec, n):
    price = crr_tree_price(spec, TreeConfig(n)).price
    exact = exact_lattice_price(spec, n)
    if exact == 0:  # no node of a short lattice reaches strike 500
        assert price == 0.0
    else:
        assert abs(price - exact) <= 1e-12 * exact


def test_weights_match_the_binomial_pmf():
    for n, p in ((1, 0.3), (7, 0.5), (40, 0.9), (200, 0.013)):
        lo, weights = binomial_weights(n, p)
        pmf = [math.comb(n, k) * p ** k * (1 - p) ** (n - k) for k in range(n + 1)]
        scale = math.fsum(weights)
        for k, w in enumerate(weights, lo):
            assert w / scale == pytest.approx(pmf[k], rel=1e-12)
        # only nodes below the normal-float floor relative to the mode are left out
        dropped = pmf[:lo] + pmf[lo + len(weights):]
        assert all(q < sys.float_info.min * max(pmf) for q in dropped)
    assert len(binomial_weights(200, 0.013)[1]) < 201


def test_mode_at_either_end_of_the_lattice():
    lo, weights = binomial_weights(1, 1e-9)
    assert lo == 0 and list(weights) == [1.0, pytest.approx(1e-9)]
    lo, weights = binomial_weights(1, 1 - 1e-9)
    assert lo == 0 and list(weights) == [pytest.approx(1e-9), 1.0]
    lo, weights = binomial_weights(1000, 1e-6)
    assert lo == 0 and weights[0] == 1.0 and 1 < len(weights) < 100
    lo, weights = binomial_weights(1000, 1 - 1e-6)
    assert lo + len(weights) == 1001 and weights[-1] == 1.0 and 1 < len(weights) < 100


def test_one_step_tree_is_one_discounted_expectation():
    result = crr_tree_price(EXAMPLE, TreeConfig(1))
    d = result.detail
    up = max(EXAMPLE.spot * d["up_factor"] - EXAMPLE.strike, 0.0)
    down = max(EXAMPLE.spot * d["down_factor"] - EXAMPLE.strike, 0.0)
    expected = math.exp(-0.04) * (d["prob_up"] * up + (1 - d["prob_up"]) * down)
    assert result.price == pytest.approx(expected, rel=1e-14)


def test_deep_out_of_the_money_price_stays_positive():
    assert 0.0 < crr_tree_price(DEEP_OTM, TreeConfig(1_000_000)).price < 1e-40


def test_a_million_steps_weigh_a_window_of_order_sqrt_n():
    lo, weights = binomial_weights(1_000_000, 0.5)
    # the walk stops at the normal-float floor, ~19 standard deviations out,
    # instead of crawling on through a third of the row in subnormals
    assert len(weights) < 50_000
    assert lo > 0 and lo + len(weights) < 1_000_001


def test_a_million_steps_stay_small_in_memory():
    tracemalloc.start()
    try:
        crr_tree_price(EXAMPLE, TreeConfig(1_000_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_a_million_steps_walk_only_the_nodes_a_double_sum_can_see():
    tracemalloc.start()
    try:
        crr_tree_price(EXAMPLE, TreeConfig(1_000_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the full window down to 2.3e-308 of the mode's weight peaks at 0.73 MiB
    assert peak < 2 ** 19


# bench-range contracts: spot 40-60, moneyness e^{+-0.2}, vol 0.1-0.4, expiry 0.5-2
BENCH_RANGE = [OptionSpec(spot=44.0, strike=48.5, rate=0.01, expiry=0.6, volatility=0.12),
               OptionSpec(spot=51.3, strike=46.0, rate=0.055, expiry=1.9, volatility=0.38),
               OptionSpec(spot=58.7, strike=60.2, rate=0.03, expiry=1.2, volatility=0.25)]


@pytest.mark.parametrize("n", [10, 100, 1000, 10_000, 100_000, 1_000_000])
@pytest.mark.parametrize("spec", [EXAMPLE] + BENCH_RANGE, ids=["readme", "bench0", "bench1",
                                                                "bench2"])
def test_cut_walk_matches_the_full_window_to_the_bit(spec, n):
    assert crr_tree_price(spec, TreeConfig(n)).price == full_window_price(spec, n)


def test_cut_walk_matches_the_full_window_over_a_sweep():
    # moneyness e^{+-3}, vol*sqrt(t) 0.01-30, steps 1-10^5; the sums differ only
    # when one lies within about 2^-64 of a rounding boundary
    rnd = random.Random(20181)
    compared = 0
    while compared < 2000:
        spot = 10 ** rnd.uniform(-2.0, 4.0)
        expiry = 10 ** rnd.uniform(-2.0, 1.0)
        spec = OptionSpec(spot=spot, strike=spot * math.exp(rnd.uniform(-3.0, 3.0)),
                          rate=rnd.uniform(0.0, 0.1), expiry=expiry,
                          volatility=10 ** rnd.uniform(-2.0, math.log10(30.0)) / math.sqrt(expiry))
        n = int(10 ** rnd.uniform(0.0, 5.0))
        if spec.volatility * math.sqrt(spec.expiry / n) > MAX_STEP_VOL:  # too coarse to price
            with pytest.raises(ValueError, match="increase steps"):
                crr_tree_price(spec, TreeConfig(n))
            continue
        try:
            reference = full_window_price(spec, n)
        except TreeParameterizationError:  # exp(r*t/n) above u: both refuse
            with pytest.raises(TreeParameterizationError):
                crr_tree_price(spec, TreeConfig(n))
            continue
        price = crr_tree_price(spec, TreeConfig(n)).price
        assert abs(price - reference) <= 2 * math.ulp(reference), (spec, n)
        compared += 1


def lattice_sweep():
    """(spec, steps) for 2,000 seeded contracts over the lattice's regimes."""
    rnd = random.Random(20211)

    def spec(log_spot, log_moneyness, rate, expiry, vol_sqrt_t):
        spot = math.exp(log_spot)
        return OptionSpec(spot=spot, strike=spot * math.exp(log_moneyness), rate=rate,
                          expiry=expiry, volatility=vol_sqrt_t / math.sqrt(expiry))

    def fitting_steps(s, top):  # log-uniform in 1..10^top, but no coarser than MAX_STEP_VOL
        fewest = math.ceil(s.volatility ** 2 * s.expiry / MAX_STEP_VOL ** 2)
        return max(int(10 ** rnd.uniform(0.0, top)), fewest)

    for i in range(600):  # bench-like, steps 1-10^6
        expiry = rnd.uniform(0.5, 2.0)
        s = spec(math.log(rnd.uniform(40.0, 60.0)), rnd.uniform(-0.2, 0.2), rnd.uniform(0.0, 0.06),
                 expiry, rnd.uniform(0.1, 0.4) * math.sqrt(expiry))
        yield s, 10 ** 6 if i % 100 == 0 else int(10 ** rnd.uniform(0.0, 6.0))
    for _ in range(700):  # spot across e^+-40, strike e^+-40 from it, vol*sqrt(t) 0.01-100
        s = spec(rnd.uniform(-40.0, 40.0), rnd.uniform(-40.0, 40.0), rnd.uniform(-0.05, 0.1),
                 10 ** rnd.uniform(-1.0, 1.0), 10 ** rnd.uniform(-2.0, 2.0))
        yield s, fitting_steps(s, 5.5)
    for _ in range(200):  # terms that peak, or begin, where the weights are below the float floor
        if rnd.random() < 0.5:
            s = spec(math.log(1e-250), rnd.uniform(-5.0, 5.0), rnd.uniform(0.0, 0.1), 1.0,
                     rnd.uniform(30.0, 45.0))
        else:
            vst = 10 ** rnd.uniform(-2.0, 0.0)
            s = spec(rnd.uniform(-5.0, 5.0), vst * rnd.uniform(30.0, 45.0), rnd.uniform(0.0, 0.05),
                     1.0, vst)
        yield s, fitting_steps(s, 5.0)
    for _ in range(200):  # nodes past the largest double, their terms in logs
        s = spec(rnd.uniform(600.0, 700.0), rnd.uniform(-3.0, 3.0), rnd.uniform(0.0, 0.1), 1.0,
                 rnd.uniform(3.0, 40.0))
        yield s, fitting_steps(s, 4.0)
    for _ in range(200):  # drift within 1e-12..1e-1 of a step: the mode at 0 or at n
        n = int(10 ** rnd.uniform(0.0, 2.0))
        step_vol = 10 ** rnd.uniform(-3.0, 0.5)
        drift = rnd.choice((-1.0, 1.0)) * step_vol * (1.0 - 10 ** rnd.uniform(-12.0, -1.0))
        log_spot = rnd.choice((math.log(50.0), rnd.uniform(-700.0, 700.0),
                               rnd.uniform(680.0, 705.0)))
        yield spec(log_spot, rnd.uniform(-1.0, 1.0), drift * n, 1.0, step_vol * math.sqrt(n)), n
    for _ in range(100):  # the mode at n, and nodes below it past the largest double
        n = rnd.randint(2, 12)
        step_vol = rnd.uniform(0.01, 0.5)
        drift = step_vol * (1.0 - 10 ** rnd.uniform(-12.0, -1.0))
        log_spot = math.log(sys.float_info.max * rnd.uniform(0.3, 1.0))
        yield spec(log_spot, math.log(rnd.uniform(0.5, 1.0)), drift * n, 1.0,
                   step_vol * math.sqrt(n)), n


def test_lattice_prices_keep_their_bits_over_a_seeded_sweep():
    # 2,000 contracts: bench-like ones at steps 1-10^6, lifted weights, nodes
    # past the largest double (above the mode and below it), the mode at 0 and
    # at n, and inputs the lattice refuses or whose sums overflow. The digest is frozen: a price moves
    # it when the walk weighs another set of nodes or a term changes its bits
    outcomes = []
    for spec, n in lattice_sweep():
        try:
            outcomes.append(repr(crr_tree_price(spec, TreeConfig(n)).price))
        except ValueError as exc:
            outcomes.append(type(exc).__name__)
    assert len(outcomes) == 2000
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "d13c947f2451973865f27a3c6d6fc2d595ec224a24f4a33c477a1a8f146e7468"
