"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured quantities at the criterion's tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import io
import json
import math

import numpy as np
import pytest

import bslab.cltlab as cltlab
from bslab.cli import execute, parse_args
from bslab.cltlab import ArraySpec, run_convergence_experiment, variance_linearity_check
from bslab.increments import IncrementModel
from bslab.montecarlo import McConfig, mc_forward_check, mc_price
from bslab.pricing import (OptionSpec, bs_call_price, d_plus_minus,
                           lognormal_call_expectation, lognormal_h_plus_minus, NormalParams)
from quadrature import QuadratureSettings, integrate
from bslab.rng import substream
from bslab.tree import TreeConfig, crr_tree_price
from test_pricing import quadrature_call_expectation, random_specs, risk_neutral_params

EXAMPLE = OptionSpec(spot=50.0, strike=52.0, rate=0.04, expiry=1.0, volatility=0.15)

# fixed beforehand by the quadrature oracle (50-digit run agreed to 4e-50)
FULL_PRECISION_PRICE = 3.0076149434583624

# analytic jump-tail values of the Lindeberg statistic for
# poisson_jump(jump_size=1, intensity=2) over t=1 at epsilon=0.01,
# computed from the compensated-Poisson series before the build
POISSON_LINDEBERG = {16: 2.0, 256: 1.984496594714684, 4096: 1.999023914220762}
POISSON_LINDEBERG_FLOOR = 1.98


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def test_example_reproduction():
    dp, dm = d_plus_minus(EXAMPLE)
    result = bs_call_price(EXAMPLE)
    params = risk_neutral_params(EXAMPLE)
    expectation = quadrature_call_expectation(params.mean, params.std_dev,
                                              EXAMPLE.strike / EXAMPLE.spot)
    oracle = EXAMPLE.spot * expectation * math.exp(-EXAMPLE.rate * EXAMPLE.expiry)
    ok = (abs(dp - 0.0802) <= 5e-4 and abs(dm - (-0.0698)) <= 5e-4
          and abs(result.price - 3.04) <= 0.05
          and abs(result.price - FULL_PRECISION_PRICE) <= 1e-8
          and abs(oracle - FULL_PRECISION_PRICE) <= 1e-8)
    report("example reproduction", ok,
           f"d+={dp:.6f} d-={dm:.6f} price={result.price:.10f} "
           f"(3.04 +- 0.05, oracle {oracle:.10f})")


def test_payoff_expectation_oracle_grid():
    worst = 0.0
    for mean in (-0.1, 0.0, 0.1, 0.2, 0.3):
        for std_dev in (0.05, 0.1, 0.2, 0.4, 0.8):
            for threshold in (0.5, 0.8, 1.0, 1.25, 2.0):
                closed = lognormal_call_expectation(NormalParams(mean, std_dev), threshold)
                quad = quadrature_call_expectation(mean, std_dev, threshold)
                gap = abs(closed - quad)
                worst = max(worst, gap / max(1.0, abs(closed)))
                assert gap <= max(1e-8, 1e-8 * abs(closed)), \
                    f"mu={mean} sd={std_dev} M={threshold}: gap {gap:.3e}"
    report("payoff expectation vs quadrature on 125-point grid", True,
           f"worst normalized gap {worst:.3e} <= 1e-8")


def test_pricing_pipeline_identity():
    worst_price = 0.0
    worst_h = 0.0
    for spec in random_specs(1000, 2024):
        params = risk_neutral_params(spec)
        expectation = lognormal_call_expectation(params, spec.strike / spec.spot)
        pipeline = spec.spot * expectation * math.exp(-spec.rate * spec.expiry)
        worst_price = max(worst_price, abs(bs_call_price(spec).price - pipeline))
        hp, hm = lognormal_h_plus_minus(params, spec.strike / spec.spot)
        dp, dm = d_plus_minus(spec)
        worst_h = max(worst_h, abs(hp - dp), abs(hm - dm))
    ok = worst_price <= 1e-10 and worst_h <= 1e-12
    report("pipeline identity on 1000 random specs", ok,
           f"max price gap {worst_price:.3e} <= 1e-10, max h-d gap {worst_h:.3e} <= 1e-12")


def test_tree_convergence():
    closed = bs_call_price(EXAMPLE).price
    ladder = [2 ** k for k in range(4, 15)]
    errors = {n: abs(crr_tree_price(EXAMPLE, TreeConfig(n)).price - closed) for n in ladder}
    envelope_c = max(errors[16] * 16, errors[32] * 32)
    envelope_ok = all(errors[n] <= 2.0 * envelope_c / n for n in ladder)

    accept = [16, 64, 256, 1024, 4096]
    c_accept = max(errors[16] * 16, errors[64] * 64)
    accept_envelope_ok = all(errors[n] <= 2.0 * c_accept / n for n in accept)
    # CRR errors oscillate under the 1/n envelope, so decrease is checked
    # along the 16x-spaced subsequences of the acceptance ladder
    decreasing_ok = (errors[16] > errors[64] > errors[256] > errors[1024]
                     and errors[4096] < errors[256])
    gap_1e4 = abs(crr_tree_price(EXAMPLE, TreeConfig(10_000)).price - closed)
    ok = envelope_ok and accept_envelope_ok and decreasing_ok and gap_1e4 <= 1e-3
    report("tree convergence", ok,
           f"errors {['%.2e' % errors[n] for n in accept]}, envelope c={envelope_c:.3f}, "
           f"gap(1e4)={gap_1e4:.2e} <= 1e-3")


def test_monte_carlo_consistency():
    closed = bs_call_price(EXAMPLE).price
    result = mc_price(EXAMPLE, McConfig(paths=1_000_000, seed=42))
    price_ok = abs(result.price - closed) <= 3.0 * result.std_error

    ratio = mc_forward_check(EXAMPLE, McConfig(paths=1_000_000, seed=42))
    ratio_se = math.sqrt((math.exp(EXAMPLE.vol_sqrt_t ** 2) - 1.0) / 1_000_000)
    forward_ok = abs(ratio - 1.0) <= 3.0 * ratio_se

    covered = 0
    for seed in range(50):
        r = mc_price(EXAMPLE, McConfig(paths=10_000, seed=seed))
        covered += abs(r.price - closed) <= 3.0 * r.std_error
    coverage_ok = covered >= 47

    ok = price_ok and forward_ok and coverage_ok
    report("monte carlo consistency", ok,
           f"|mc-closed|/se={abs(result.price - closed) / result.std_error:.2f} <= 3, "
           f"forward ratio {ratio:.6f} (3se={3 * ratio_se:.1e}), coverage {covered}/50 >= 47")


def test_clt_positive_two_point():
    spec = ArraySpec(IncrementModel.two_point(0.0225), 1.0, 1, 100_000, 42)
    rep = run_convergence_experiment(spec, [16, 256, 4096], 0.01)
    threshold = 1.628 / math.sqrt(100_000)

    verdict_ok = rep.verdict == "normal_limit"
    ks_ok = rep.ks_statistics[-1] < threshold
    # bounded support: the statistic is identically 0 once sqrt(0.0225/n) < 0.01
    lindeberg_ok = all(
        value == 0.0 if math.sqrt(0.0225 / n) < 0.01 else value > 0.0
        for n, value in zip(rep.n_ladder, rep.lindeberg_values))

    ok = verdict_ok and ks_ok and lindeberg_ok
    report("clt positive result (two_point, 1e5 samples)", ok,
           f"verdict={rep.verdict}, KS(4096)={rep.ks_statistics[-1]:.6f} "
           f"(needs < {threshold:.6f}; distributional floor ~0.0062 from the "
           f"n=4096 lattice, see README 'Known-red acceptance criterion'), "
           f"lindeberg={rep.lindeberg_values}")


def test_clt_negative_poisson_jump():
    spec = ArraySpec(IncrementModel.poisson_jump(1.0, 2.0), 1.0, 1, 100_000, 42)
    rep = run_convergence_experiment(spec, [16, 256, 4096], 0.01)

    verdict_ok = rep.verdict == "non_normal_limit"
    floor_ok = all(value >= POISSON_LINDEBERG_FLOOR for value in rep.lindeberg_values)
    frozen_ok = all(abs(value - POISSON_LINDEBERG[n]) <= 1e-9
                    for n, value in zip(rep.n_ladder, rep.lindeberg_values))

    ok = verdict_ok and floor_ok and frozen_ok
    report("clt negative result (poisson_jump, 1e5 samples)", ok,
           f"verdict={rep.verdict}, KS={['%.4f' % s for s in rep.ks_statistics]}, "
           f"lindeberg={['%.6f' % v for v in rep.lindeberg_values]} all >= "
           f"{POISSON_LINDEBERG_FLOOR}")


def test_variance_linearity():
    lines = []
    ok = True
    for model, name in ((IncrementModel.two_point(0.0225), "two_point"),
                        (IncrementModel.normal(0.0225), "normal")):
        res = variance_linearity_check(model, [0.25, 0.5, 1.0, 2.0], 200_000, 7)
        slope_ok = abs(res.slope - 0.0225) <= 3.0 * res.slope_std_error
        intercept_ok = abs(res.intercept) <= 3.0 * res.intercept_std_error
        ok = ok and slope_ok and intercept_ok
        lines.append(f"{name}: slope={res.slope:.6f}+-{res.slope_std_error:.1e} "
                     f"intercept={res.intercept:.2e}+-{res.intercept_std_error:.1e}")

        from bslab.cltlab import estimate_variance
        v_full, se_full = estimate_variance(model, 1.0, 200_000, substream(99, 0))
        v_a, se_a = estimate_variance(model, 0.5, 200_000, substream(99, 1))
        v_b, se_b = estimate_variance(model, 0.5, 200_000, substream(99, 2))
        tol = 3.0 * math.sqrt(se_full ** 2 + se_a ** 2 + se_b ** 2)
        additive_ok = abs(v_full - (v_a + v_b)) <= tol
        ok = ok and additive_ok
        lines.append(f"{name} additivity gap {abs(v_full - (v_a + v_b)):.2e} <= {tol:.2e}")
    report("variance linearity", ok, "; ".join(lines))


def _emit(argv) -> str:
    buf = io.StringIO()
    code = execute(parse_args(argv), out=buf)
    assert code == 0
    return buf.getvalue()


def test_determinism(monkeypatch):
    mc_args = ["mc", "--spot", "50", "--strike", "52", "--rate", "0.04", "--expiry", "1",
               "--vol", "0.15", "--paths", "200000", "--seed", "42", "--format", "json"]
    first = _emit(mc_args)
    second = _emit(mc_args)
    mc_ok = first == second

    stochastic = [
        ["clt-demo", "--model", "two_point", "--variance", "0.0225", "--samples", "2000",
         "--seed", "5", "--n-ladder", "16,64", "--format", "json"],
        ["lindeberg", "--model", "poisson_jump", "--jump-size", "1", "--intensity", "2",
         "--samples", "2000", "--seed", "5", "--format", "json"],
        ["var-linearity", "--model", "uniform", "--variance", "0.0225", "--samples",
         "2000", "--seed", "5", "--format", "json"],
    ]
    others_ok = True
    chunk_ok = True
    for argv in stochastic:
        base = _emit(argv)
        others_ok = others_ok and base == _emit(argv)
        # different internal chunking emulates a different parallel split
        with monkeypatch.context() as patch:
            patch.setattr(cltlab, "BLOCK", 512)
            chunk_ok = chunk_ok and base == _emit(argv)

    csv_ok = _emit(mc_args[:-2] + ["--format", "csv"]) == \
        _emit(mc_args[:-2] + ["--format", "csv"])

    ok = mc_ok and others_ok and chunk_ok and csv_ok
    report("determinism", ok,
           f"mc bytes identical across reruns: {mc_ok}; "
           f"experiment reruns identical: {others_ok}; chunking invariant: {chunk_ok}; "
           f"csv reruns identical: {csv_ok}")
