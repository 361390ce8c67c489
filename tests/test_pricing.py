import contextlib
import copy
import dataclasses
import functools
import io
import math
import pickle
import random
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bslab.cli import main
from bslab.normal import norm_cdf
from bslab.pricing import (NormalParams, OptionSpec, PriceResult, bs_call_price, d_plus_minus,
                           finite_d_pair, forward_strike, intrinsic_forward_value,
                           lognormal_call_expectation, lognormal_h_plus_minus)
from bslab.tree import TreeConfig, crr_tree_price
from quadrature import QuadratureSettings, integrate, normal_pdf

EXAMPLE = OptionSpec(spot=50.0, strike=52.0, rate=0.04, expiry=1.0, volatility=0.15)

# frozen from a 50-digit evaluation of the closed form, confirmed by the
# quadrature oracle below to 4e-50
EXAMPLE_D_PLUS = 0.08019524564479136
EXAMPLE_D_MINUS = -0.06980475435520864
EXAMPLE_PRICE = 3.0076149434583624

# frozen 50-digit re-evaluations of the d+- formula for an unrelated spec
SECOND_D_PLUS = 0.6498807031968213
SECOND_D_MINUS = 0.4377486688408570

# frozen quadrature values of E[max(e^Y - M, 0)]
PAYOFF_EXPECTATION_0_1_1 = 0.8871429788350048
PAYOFF_EXPECTATION_002_015_104 = 0.057888841437092745


def risk_neutral_params(spec: OptionSpec) -> NormalParams:
    """The unique normal log-return law with variance vol^2*t and
    E[e^Y] = e^{rate*t}: mean (rate - vol^2/2)*t, std vol*sqrt(t)."""
    return NormalParams(mean=(spec.rate - 0.5 * spec.volatility ** 2) * spec.expiry,
                        std_dev=spec.vol_sqrt_t)


def quadrature_call_expectation(mean: float, std_dev: float, threshold: float) -> float:
    """Independent oracle: integral of (e^y - M) against the normal density.

    The e^y factor is folded into the exponent so the integrand underflows
    to 0 (instead of overflowing) where the density has already vanished.
    """
    norm = std_dev * math.sqrt(2.0 * math.pi)

    def integrand(y: float) -> float:
        z = (y - mean) / std_dev
        return math.exp(y - 0.5 * z * z) / norm - threshold * normal_pdf(z) / std_dev

    return integrate(integrand, math.log(threshold), math.inf,
                     QuadratureSettings(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=2000))


def assert_near_mpmath(spec: OptionSpec, price: float) -> None:
    """The closed form at 50 digits, from the float inputs exactly, against price.

    Each N(d) is off by about d^2 ulps (rounding d/sqrt(2) moves erfc that much),
    and a deep out-of-the-money price is the difference of two terms that agree
    to about s/|d-|, so the price may be off by a few d^2 ulps of the larger
    term, spot*N(d+), on top of 1e-12 of itself: over the two seeded sweeps
    below the error is at most 2.5 of those units. Measured there, prices above
    1e-12*spot are within 2.6e-12 relative (two contracts pass 1e-12, each with
    terms that cancel 240-fold or more), and prices from 2^-1022 to 1e-12*spot
    within 1.1e-8.
    """
    with mpmath.workdps(50):
        spot, strike, rate, expiry, vol = (mpmath.mpf(v) for v in dataclasses.astuple(spec))
        s = vol * mpmath.sqrt(expiry)
        m = mpmath.log(spot / strike) + rate * expiry
        spot_term = spot * mpmath.ncdf(m / s + s / 2)
        ref = spot_term - strike * mpmath.exp(-rate * expiry) * mpmath.ncdf(m / s - s / 2)
    dp, dm = d_plus_minus(spec)
    allowed = 1e-12 * ref + 4 * (1 + max(dp * dp, dm * dm)) * 2.0 ** -53 * spot_term
    assert abs(price - ref) <= allowed + 2.0 ** -1074, (spec, price, float(ref))


def underflowing_factor(spec: OptionSpec) -> bool:
    """Whether N(d+), N(d-) or exp(-rate*expiry) is subnormal or 0: the closed
    form then takes that term in logs."""
    return min(*map(norm_cdf, d_plus_minus(spec)),
               math.exp(-spec.rate * spec.expiry)) < sys.float_info.min


def random_specs(count: int, seed: int) -> list[OptionSpec]:
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(count):
        specs.append(OptionSpec(
            spot=float(np.exp(rng.uniform(math.log(1.0), math.log(200.0)))),
            strike=float(np.exp(rng.uniform(math.log(1.0), math.log(200.0)))),
            rate=float(rng.uniform(-0.05, 0.15)),
            expiry=float(rng.uniform(0.05, 3.0)),
            volatility=float(rng.uniform(0.01, 0.8)),
        ))
    return specs


class TestDPlusMinus:
    def test_worked_example(self):
        dp, dm = d_plus_minus(EXAMPLE)
        assert dp == pytest.approx(0.0802, abs=5e-4)
        assert dm == pytest.approx(-0.0698, abs=5e-4)
        assert dp == pytest.approx(EXAMPLE_D_PLUS, abs=1e-12)
        assert dm == pytest.approx(EXAMPLE_D_MINUS, abs=1e-12)

    def test_at_the_forward_strike(self):
        spec = OptionSpec(50.0, 50.0 * math.exp(0.04), 0.04, 1.0, 0.15)
        dp, dm = d_plus_minus(spec)
        assert dp == pytest.approx(0.075, abs=1e-12)
        assert dm == pytest.approx(-0.075, abs=1e-12)

    def test_second_spec_against_recorded_evaluation(self):
        dp, dm = d_plus_minus(OptionSpec(100.0, 90.0, 0.02, 0.5, 0.3))
        assert dp == pytest.approx(SECOND_D_PLUS, abs=1e-12)
        assert dm == pytest.approx(SECOND_D_MINUS, abs=1e-12)

    def test_spread_is_vol_sqrt_t(self):
        for spec in random_specs(200, 21):
            dp, dm = d_plus_minus(spec)
            assert abs((dp - dm) - spec.vol_sqrt_t) <= 1e-12

    def test_zero_vol_sqrt_t_gives_the_limits(self):
        # log forward moneyness log(50/52) + 0.04 > 0 at zero vol, log(50/52) < 0 at
        # zero expiry, and 0 at the money: d+ and d- share the limit
        for spec, limit in ((OptionSpec(50.0, 52.0, 0.04, 1.0, 0.0), math.inf),
                            (OptionSpec(50.0, 52.0, 0.04, 0.0, 0.15), -math.inf),
                            (OptionSpec(50.0, 50.0, 0.04, 0.0, 0.15), 0.0)):
            assert d_plus_minus(spec) == (limit, limit)
        # the limit the finite formula tends to as vol shrinks
        dp, dm = d_plus_minus(OptionSpec(50.0, 52.0, 0.04, 1.0, 1e-12))
        assert dp > 1e8 and dm > 1e8

    @pytest.mark.parametrize("spot, strike", [(1e308, 1e-308), (1e-308, 1e308),
                                              (8.879616580963038e-294, 1.5650753709270025e+28)],
                             ids=["overflow", "underflow", "subnormal"])
    def test_moneyness_outside_the_normal_doubles_matches_mpmath(self, spot, strike):
        # spot/strike overflows, underflows to 0, or is subnormal (5.7e-322, 13
        # significant bits), so the log moneyness comes from the two logs
        spec = OptionSpec(spot, strike, 0.04, 2.0, 0.15)
        with mpmath.workdps(40):
            s = mpmath.mpf(0.15) * mpmath.sqrt(2)
            m = mpmath.log(mpmath.mpf(spot) / mpmath.mpf(strike)) + mpmath.mpf(0.04) * 2
            exact = (m / s + s / 2, m / s - s / 2)
        for d, ref in zip(d_plus_minus(spec), exact):
            assert abs(d - ref) <= 1e-15 * abs(ref)

    def test_subnormal_vol_sqrt_t_gives_the_limits(self):
        # m/s overflows for s = 1e-320: the same limit as s = 0
        for spot, limit in ((100.0, math.inf), (25.0, -math.inf)):
            spec = OptionSpec(spot, 50.0, 0.0, 1.0, 1e-320)
            assert d_plus_minus(spec) == (limit, limit)
            assert bs_call_price(spec).price == max(spot - 50.0, 0.0)


class TestCallPrice:
    def test_golden_example(self):
        result = bs_call_price(EXAMPLE)
        assert result.price == pytest.approx(3.04, abs=0.05)
        assert result.price == pytest.approx(EXAMPLE_PRICE, abs=1e-8)
        assert result.std_error is None

    def test_example_against_live_quadrature_oracle(self):
        params = risk_neutral_params(EXAMPLE)
        expectation = quadrature_call_expectation(params.mean, params.std_dev,
                                                  EXAMPLE.strike / EXAMPLE.spot)
        oracle = math.exp(-0.04) * 50.0 * expectation
        assert bs_call_price(EXAMPLE).price == pytest.approx(oracle, abs=1e-8)

    def test_vanishing_strike_tends_to_spot(self):
        spec = OptionSpec(50.0, 1e-12, 0.04, 1.0, 0.15)
        assert bs_call_price(spec).price == pytest.approx(50.0, abs=1e-9)

    def test_zero_volatility_limit(self):
        spec = OptionSpec(50.0, 52.0, 0.04, 1.0, 0.0)
        result = bs_call_price(spec)
        assert result.price == max(50.0 - 52.0 * math.exp(-0.04), 0.0)
        assert result.price == intrinsic_forward_value(spec)
        itm = OptionSpec(60.0, 52.0, 0.04, 1.0, 0.0)
        assert bs_call_price(itm).price == 60.0 - 52.0 * math.exp(-0.04)
        assert d_plus_minus(itm) == (math.inf, math.inf)

    def test_zero_expiry_is_payoff(self):
        assert bs_call_price(OptionSpec(60.0, 52.0, 0.04, 0.0, 0.15)).price == 8.0
        assert bs_call_price(OptionSpec(40.0, 52.0, 0.04, 0.0, 0.15)).price == 0.0

    @pytest.mark.parametrize("field,kwargs", [
        ("spot", dict(spot=-5.0)),
        ("spot", dict(spot=math.nan)),
        ("strike", dict(strike=0.0)),
        ("expiry", dict(expiry=-1.0)),
        ("volatility", dict(volatility=-0.1)),
        ("rate", dict(rate=math.inf)),
    ])
    def test_validation_names_offending_field(self, field, kwargs):
        values = dict(spot=50.0, strike=52.0, rate=0.04, expiry=1.0, volatility=0.15)
        values.update(kwargs)
        with pytest.raises(ValueError, match=field):
            OptionSpec(**values)

    def test_forward_strike_carries_the_ratio_to_twice_the_precision(self):
        # kappa is strike*e^{-rt}/spot rounded, and kappa_lo the rounded rest of
        # the exact ratio (0 once kappa overflows, as in the last case)
        for spec in random_specs(200, 29) + [OptionSpec(50.0, 48.0, 0.04, 1e-300, 0.15),
                                             OptionSpec(1e-300, 1e300, -0.5, 2.0, 0.2),
                                             OptionSpec(1e-308, 1e308, 0.0, 1.0, 0.2)]:
            kappa, kappa_lo = forward_strike(spec)
            strike = spec.strike * math.exp(-spec.rate * spec.expiry)
            assert kappa == strike / spec.spot, spec
            exact = Fraction(strike) / Fraction(spec.spot)
            assert kappa_lo == (float(exact - Fraction(kappa)) if kappa < math.inf else 0.0), spec
        assert kappa == math.inf and forward_strike(EXAMPLE)[1] != 0.0

    def test_an_underflowing_discount_keeps_the_strike(self):
        # exp(-rate*expiry) = e^-947 rounds to 0, but strike*e^-947 = 1.3e-130 is far above spot:
        # the deterministic limit is 0 (it was spot), and the lattice's and Monte Carlo's
        # kappa is 2.2e84 (it was 0)
        spec = OptionSpec(5.96034602007817e-215, 3.2764216790810356e+281, 28.191840746613025,
                          33.601621243615156, 0.0)
        assert intrinsic_forward_value(spec) == 0.0
        with mpmath.workdps(40):
            exact = mpmath.mpf(spec.strike) * mpmath.exp(-mpmath.mpf(spec.rate) * spec.expiry)
        assert math.isclose(forward_strike(spec)[0], exact / spec.spot, rel_tol=1e-12)

    def test_no_arbitrage_bounds(self):
        for spec in random_specs(300, 77):
            price = bs_call_price(spec).price
            lower = intrinsic_forward_value(spec)
            assert lower - 1e-12 <= price <= spec.spot + 1e-12

    def test_bits_match_the_closed_form_over_a_sweep(self):
        # every contract whose formula below returns a finite price: spot/strike a
        # normal double, strike*exp(-rate*expiry) finite, vol*sqrt(t) above 0. A
        # contract whose bits differ has an N factor under the smallest normal double,
        # which the formula below drops or rounds, and meets mpmath instead
        rnd = random.Random(1919)
        compared = changed = 0
        for _ in range(20_000):
            spot, strike = 10 ** rnd.uniform(-150, 150), 10 ** rnd.uniform(-150, 150)
            if rnd.random() < 0.5:
                strike = spot * math.exp(rnd.uniform(-3.0, 3.0))
            rate, expiry = rnd.uniform(-1.0, 1.0), 10 ** rnd.uniform(-6.0, 2.0)
            vol = 10 ** rnd.uniform(-6.0, 1.0)
            spec = OptionSpec(spot, strike, rate, expiry, vol)
            m = math.log(spot / strike) + rate * expiry
            s = vol * math.sqrt(expiry)
            dp, dm = m / s + 0.5 * s, m / s - 0.5 * s
            strike_pv = strike * math.exp(-rate * expiry)
            if not (sys.float_info.min <= spot / strike and strike_pv < math.inf
                    and math.isfinite(dp) and math.isfinite(dm)):
                continue
            price = bs_call_price(spec).price
            if price != max(spot * norm_cdf(dp) - strike_pv * norm_cdf(dm), 0.0):
                assert underflowing_factor(spec), spec
                assert_near_mpmath(spec, price)
                changed += 1
            assert d_plus_minus(spec) == (dp, dm)
            compared += 1
        assert compared > 15_000 and 0 < changed < 50, changed

    @pytest.mark.parametrize("domain", ["bit_sweep", "hypothesis_sweep"])
    def test_prices_match_50_digit_mpmath_over_a_sweep(self, domain):
        # the domains of the bit sweep above and of the hypothesis bounds sweep
        # below (there vol and expiry log-uniform over 1e-9..1e3)
        rnd = random.Random(1973)
        priced = in_logs = 0
        for _ in range(5_000):
            if domain == "bit_sweep":
                spot, strike = 10 ** rnd.uniform(-150, 150), 10 ** rnd.uniform(-150, 150)
                if rnd.random() < 0.5:
                    strike = spot * math.exp(rnd.uniform(-3.0, 3.0))
                rate, expiry = rnd.uniform(-1.0, 1.0), 10 ** rnd.uniform(-6.0, 2.0)
                vol = 10 ** rnd.uniform(-6.0, 1.0)
            else:
                spot, strike = 10 ** rnd.uniform(-300, 300), 10 ** rnd.uniform(-300, 300)
                rate, expiry = rnd.uniform(-50.0, 50.0), 10 ** rnd.uniform(-9.0, 3.0)
                vol = 10 ** rnd.uniform(-9.0, 3.0)
            spec = OptionSpec(spot, strike, rate, expiry, vol)
            try:
                if finite_d_pair(spec) is None:
                    continue
                price = bs_call_price(spec).price
            except ValueError:  # the discounted strike overflows
                continue
            assert_near_mpmath(spec, price)
            priced += 1
            in_logs += underflowing_factor(spec)
        assert priced > 4_000 and in_logs > 100

    @pytest.mark.parametrize("spec, exact", [
        # N(d-) = N(-40.6) underflows to 0, and the strike term it multiplies is 0.35 of the spot
        # term (this priced 9.400111774296401e-214)
        (OptionSpec(spot=1.2457048250021197e-169, strike=5.401169592438719e+146,
                    rate=-4.254419911138044, expiry=0.000994055240920448,
                    volatility=844.1025525077345),
         "6.1450226486856216901736392848292048920345075574753e-214"),
        # exp(-rate*expiry) = e^-947 underflows to 0, and the strike term is 0.25 of the spot
        # term (this priced 2.9016029935805324e-221)
        (OptionSpec(spot=5.96034602007817e-215, strike=3.2764216790810356e+281,
                    rate=28.191840746613025, expiry=33.601621243615156,
                    volatility=2.6583887605044283),
         "2.1765033899638706502493202412637020883426350966245e-221")],
        ids=["normal_factor_underflows", "discount_underflows"])
    def test_a_term_with_an_underflowing_factor_is_kept(self, spec, exact):
        price = bs_call_price(spec).price
        assert abs(price - float(exact)) <= 1e-12 * float(exact)
        assert_near_mpmath(spec, price)

    @pytest.mark.parametrize("pricer", ["bs_call_price", "crr_tree_price"])
    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(log_spot=st.floats(-300.0, 300.0), log_strike=st.floats(-300.0, 300.0),
           rate=st.floats(-50.0, 50.0), expiry=st.floats(0.0, 1e3), vol=st.floats(0.0, 1e3),
           steps=st.integers(1, 64))
    def test_every_contract_prices_inside_the_bounds_or_names_an_input(
            self, pricer, log_spot, log_strike, rate, expiry, vol, steps):
        spot, strike = 10.0 ** log_spot, 10.0 ** log_strike
        argv = [f"--spot={spot!r}", f"--strike={strike!r}", "--rate", repr(rate),
                f"--expiry={expiry!r}", f"--vol={vol!r}", "--format", "json"]
        if pricer == "bs_call_price":
            argv, price_of, slack = ["price", *argv], bs_call_price, 1e-12
        else:
            # a lattice as coarse as vol*sqrt(t/n) = 8 at moneyness e^{+-100}
            # rounds under the lower bound by up to 2e-12 relative; it is capped at spot
            argv, slack = ["tree", *argv, "--steps", str(steps)], 1e-9
            price_of = functools.partial(crr_tree_price, cfg=TreeConfig(steps))
        spec = OptionSpec(spot, strike, rate, expiry, vol)
        try:
            price = price_of(spec).price
        except ValueError as exc:
            assert any(name in str(exc) for name in ("strike", "rate", "expiry", "vol", "steps"))
        else:
            try:
                lower = max(spot - strike * math.exp(-rate * expiry), 0.0)
            except OverflowError:
                lower = 0.0
            assert lower - slack * spot <= price <= spot, spec
        # through the CLI: an exit code, and a one-line message on failure
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        message = err.getvalue()
        assert code in (0, 1, 2) and message.count("\n") == (code != 0), (argv, message)
        assert "Traceback" not in message and "numerical failure" not in message, argv

    def test_monotone_in_strike_and_volatility(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            spot = float(rng.uniform(10.0, 150.0))
            rate = float(rng.uniform(-0.02, 0.1))
            expiry = float(rng.uniform(0.1, 2.0))
            vol = float(rng.uniform(0.05, 0.6))
            strikes = np.sort(rng.uniform(0.3 * spot, 2.5 * spot, size=6))
            prices = [bs_call_price(OptionSpec(spot, float(k), rate, expiry, vol)).price
                      for k in strikes]
            assert all(a >= b - 1e-12 for a, b in zip(prices, prices[1:]))
            vols = np.sort(rng.uniform(0.01, 0.9, size=6))
            vprices = [bs_call_price(OptionSpec(spot, spot, rate, expiry, float(v))).price
                       for v in vols]
            assert all(b >= a - 1e-12 for a, b in zip(vprices, vprices[1:]))


class TestPayoffExpectation:
    def test_vanishing_threshold_gives_lognormal_mean(self):
        value = lognormal_call_expectation(NormalParams(0.0, 1.0), 1e-15)
        assert value == pytest.approx(math.sqrt(math.e), rel=1e-12)

    def test_standard_case_frozen_and_live(self):
        value = lognormal_call_expectation(NormalParams(0.0, 1.0), 1.0)
        assert value == pytest.approx(PAYOFF_EXPECTATION_0_1_1, abs=1e-12)
        assert value == pytest.approx(quadrature_call_expectation(0.0, 1.0, 1.0), abs=1e-8)

    def test_market_like_case_matches_pricer(self):
        value = lognormal_call_expectation(NormalParams(0.02, 0.15), 1.04)
        assert value == pytest.approx(PAYOFF_EXPECTATION_002_015_104, abs=1e-12)
        assert value == pytest.approx(quadrature_call_expectation(0.02, 0.15, 1.04), abs=1e-8)
        # the matching contract: mean 0.02 = (r - vol^2/2)*t with vol 0.15, t 1
        rate = 0.02 + 0.5 * 0.15 ** 2
        spec = OptionSpec(1.0, 1.04, rate, 1.0, 0.15)
        assert bs_call_price(spec).price == pytest.approx(math.exp(-rate) * value, abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            lognormal_call_expectation(NormalParams(0.0, 1.0), 0.0)
        with pytest.raises(ValueError):
            lognormal_call_expectation(NormalParams(0.0, 1.0), -2.0)
        with pytest.raises(ValueError):
            lognormal_call_expectation(NormalParams(0.0, 0.0), 1.0)

    def test_negative_std_dev_is_named(self):
        with pytest.raises(ValueError, match="std_dev must be nonnegative, got -1.0"):
            NormalParams(0.0, -1.0)


class TestRiskNeutralParams:
    def test_example_values(self):
        params = risk_neutral_params(EXAMPLE)
        assert params.mean == pytest.approx(0.02875, abs=1e-15)
        assert params.std_dev == pytest.approx(0.15, abs=1e-15)

    def test_zero_volatility(self):
        params = risk_neutral_params(OptionSpec(50.0, 52.0, 0.04, 2.0, 0.0))
        assert params.mean == 0.08 and params.std_dev == 0.0

    def test_growth_identity_moment_and_quadrature(self):
        for spec in random_specs(50, 31):
            params = risk_neutral_params(spec)
            growth = math.exp(params.mean + 0.5 * params.std_dev ** 2)
            assert growth == pytest.approx(math.exp(spec.rate * spec.expiry), rel=1e-10)
        params = risk_neutral_params(EXAMPLE)
        norm = params.std_dev * math.sqrt(2.0 * math.pi)
        quad = integrate(
            lambda y: math.exp(y - 0.5 * ((y - params.mean) / params.std_dev) ** 2) / norm,
            -math.inf, math.inf)
        assert quad == pytest.approx(math.exp(0.04), rel=1e-8)


class TestPipelineIdentity:
    def test_price_decomposes_through_payoff_expectation(self):
        for spec in random_specs(1000, 2718):
            params = risk_neutral_params(spec)
            expectation = lognormal_call_expectation(params, spec.strike / spec.spot)
            pipeline = spec.spot * expectation * math.exp(-spec.rate * spec.expiry)
            assert abs(bs_call_price(spec).price - pipeline) <= 1e-10

    def test_h_equals_d(self):
        for spec in random_specs(1000, 3141):
            hp, hm = lognormal_h_plus_minus(risk_neutral_params(spec), spec.strike / spec.spot)
            dp, dm = d_plus_minus(spec)
            assert abs(hp - dp) <= 1e-12 and abs(hm - dm) <= 1e-12


class TestPriceResult:
    def test_is_a_frozen_dataclass_with_the_same_fields(self):
        result = PriceResult(1.5, detail={"terminal_nodes": 5})
        assert dataclasses.is_dataclass(result)
        assert [(f.name, f.default) for f in dataclasses.fields(PriceResult)] == [
            ("price", dataclasses.MISSING), ("std_error", None), ("detail", None)]
        assert vars(result) == {"price": 1.5, "std_error": None, "detail": {"terminal_nodes": 5}}
        for name in ("price", "std_error", "detail"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(result, name, 2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del result.price
        assert result.price == 1.5

    def test_repr_eq_hash_replace_pickle_and_copy(self):
        result = PriceResult(price=3.0, std_error=0.01)
        assert repr(result) == "PriceResult(price=3.0, std_error=0.01, detail=None)"
        same = PriceResult(3.0, 0.01)
        assert result == same and hash(result) == hash(same)
        assert result != PriceResult(3.0)
        moved = dataclasses.replace(result, price=4.0)
        assert moved.price == 4.0 and moved.std_error == 0.01 and result.price == 3.0
        with pytest.raises(ValueError, match="price must be nonnegative"):
            dataclasses.replace(result, price=-1.0)
        for twin in (pickle.loads(pickle.dumps(result)), copy.copy(result),
                     copy.deepcopy(result)):
            assert twin == result and twin is not result
        with pytest.raises(TypeError):  # a dict detail is unhashable, as before
            hash(PriceResult(1.0, detail={}))

    def test_rejects_negative_price_and_std_error(self):
        with pytest.raises(ValueError, match="price must be nonnegative"):
            PriceResult(price=-1.0)
        with pytest.raises(ValueError, match="std_error must be nonnegative"):
            PriceResult(price=1.0, std_error=-0.1)
