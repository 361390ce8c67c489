import math

import numpy as np
import pytest
from scipy import stats

from bslab.increments import KINDS, IncrementModel
from bslab.normal import norm_pdf
from quadrature import QuadratureSettings, integrate

ALL_MODELS = [
    IncrementModel.two_point(0.0225),
    IncrementModel.uniform(0.0225),
    IncrementModel.centered_exponential(0.0225),
    IncrementModel.normal(0.0225),
    IncrementModel.poisson_jump(1.0, 2.0),
]


def test_factory_validation():
    with pytest.raises(ValueError):
        IncrementModel("weibull", 1.0)
    with pytest.raises(ValueError):
        IncrementModel.normal(0.0)
    with pytest.raises(ValueError):
        IncrementModel.normal(-1.0)
    with pytest.raises(ValueError):
        IncrementModel.poisson_jump(0.0, 2.0)
    with pytest.raises(ValueError):
        IncrementModel("poisson_jump", 5.0, jump_size=1.0, intensity=2.0)
    with pytest.raises(ValueError):
        IncrementModel("normal", 1.0, jump_size=1.0)
    with pytest.raises(ValueError):
        IncrementModel("poisson_jump", 2.0)
    # jump_size^2 * intensity overflowing in the power, underflowing, or
    # overflowing in the product is named in one message
    for jump_size, intensity in ((1e200, 2.0), (1e-200, 2.0), (1e10, 1e300)):
        with pytest.raises(ValueError, match=r"jump_size\^2 \* intensity"):
            IncrementModel.poisson_jump(jump_size, intensity)
        with pytest.raises(ValueError, match=r"jump_size\^2 \* intensity"):
            IncrementModel("poisson_jump", 1.0, jump_size=jump_size, intensity=intensity)


def test_poisson_per_unit_variance_is_jump_squared_times_intensity():
    model = IncrementModel.poisson_jump(0.5, 3.0)
    assert model.per_unit_variance == 0.5 ** 2 * 3.0


def test_variance_scales_linearly_in_h():
    for model in ALL_MODELS:
        for h in (0.01, 0.25, 1.0, 3.0):
            assert model.variance(h) == model.per_unit_variance * h
        with pytest.raises(ValueError):
            model.variance(0.0)


def _fourth_moment_ratio(model: IncrementModel, h: float) -> float:
    """Analytic mu_4 / sigma^4 for one increment, for variance-of-variance."""
    if model.kind == "two_point":
        return 1.0
    if model.kind == "uniform":
        return 9.0 / 5.0
    if model.kind == "normal":
        return 3.0
    if model.kind == "centered_exponential":
        return 9.0
    return 3.0 + 1.0 / (model.intensity * h)  # compensated Poisson


@pytest.mark.parametrize("model", ALL_MODELS, ids=[m.kind for m in ALL_MODELS])
def test_sample_moments_match_analytic(model):
    h = 0.25
    m = 200_000
    z = model.sample(h, 99, 0, m)
    target_var = model.variance(h)
    # pre-centered analytically: mean must vanish within sampling noise
    assert abs(z.mean()) <= 5.0 * math.sqrt(target_var / m)
    # Var(sample variance) ~ (mu4 - sigma^4)/m + 2 sigma^4/m^2; the second
    # term keeps the bound meaningful for the flat two_point law
    ratio = _fourth_moment_ratio(model, h)
    sd = target_var * math.sqrt(max(ratio - 1.0, 0.0) / m + 2.0 / m ** 2)
    assert abs(z.var(ddof=1) - target_var) <= 5.0 * sd + 1e-12


@pytest.mark.parametrize("model", ALL_MODELS, ids=[m.kind for m in ALL_MODELS])
def test_sampling_is_a_pure_function_of_seed_and_index(model):
    whole = model.sample(0.5, 11, 0, 500)
    parts = np.concatenate([model.sample(0.5, 11, 0, 123), model.sample(0.5, 11, 123, 377)])
    assert np.array_equal(whole, parts)


def test_two_point_support_is_exactly_two_values():
    model = IncrementModel.two_point(0.0225)
    z = model.sample(1.0, 3, 0, 10_000)
    s = math.sqrt(0.0225)
    assert set(np.unique(z)) == {-s, s}


def test_two_point_signs_follow_the_uniform_halves(monkeypatch):
    # -s strictly below 1/2 and +s from 1/2 up, the uniform 1/2 included
    import bslab.increments as increments
    u = np.array([2.0 ** -53, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), 1 - 2.0 ** -53])
    monkeypatch.setattr(increments, "uniform_stream", lambda seed, start, count: u.copy())
    s = math.sqrt(0.0225 * 0.5)
    z = IncrementModel.two_point(0.0225).sample(0.5, 8, 0, u.size)
    assert np.array_equal(z, np.where(u < 0.5, -s, s))
    assert list(np.signbit(z)) == [True, True, False, False, False]


def test_poisson_sampler_matches_reference_pmf():
    model = IncrementModel.poisson_jump(1.0, 2.0)
    h = 1.0 / 16
    mu = 2.0 * h
    z = model.sample(h, 17, 0, 100_000)
    counts = z / 1.0 + mu  # invert the compensation
    for k in range(3):
        expected = stats.poisson.pmf(k, mu)
        observed = float(np.mean(np.abs(counts - k) < 1e-9))
        assert abs(observed - expected) <= 5.0 * math.sqrt(expected * (1 - expected) / z.size)


class TestLindebergTail:
    def test_two_point_is_all_or_nothing(self):
        model = IncrementModel.two_point(0.0225)
        h = 1.0 / 16
        s = math.sqrt(model.variance(h))
        assert model.lindeberg_tail(h, s * 1.001) == 0.0
        assert model.lindeberg_tail(h, s * 0.999) == model.variance(h)

    def test_normal_matches_quadrature(self):
        model = IncrementModel.normal(0.0225)
        tight = QuadratureSettings(abs_tol=1e-14, rel_tol=1e-13, max_subdivisions=2000)
        for n in (16, 256, 4096):
            h = 1.0 / n
            s = math.sqrt(model.variance(h))
            for eps in (0.005, 0.01, 0.05):
                quad = 2.0 * integrate(
                    lambda z: z * z * norm_pdf(z / s) / s, eps, math.inf, tight)
                tail = model.lindeberg_tail(h, eps)
                assert tail == pytest.approx(quad, rel=1e-10, abs=1e-18)

    def test_poisson_matches_reference_series(self):
        model = IncrementModel.poisson_jump(1.0, 2.0)
        for n in (16, 256, 4096):
            h = 1.0 / n
            mu = 2.0 * h
            ks = np.arange(0, 200)
            z = 1.0 * (ks - mu)
            pmf = stats.poisson.pmf(ks, mu)
            mask = np.abs(z) > 0.01
            reference = float(np.sum(z[mask] ** 2 * pmf[mask]))
            assert model.lindeberg_tail(h, 0.01) == pytest.approx(reference, rel=1e-12)

    def test_kinds_without_closed_form_return_none(self):
        assert IncrementModel.uniform(1.0).lindeberg_tail(0.5, 0.1) is None
        assert IncrementModel.centered_exponential(1.0).lindeberg_tail(0.5, 0.1) is None

    def test_epsilon_domain(self):
        with pytest.raises(ValueError):
            IncrementModel.normal(1.0).lindeberg_tail(0.5, 0.0)


def test_kind_list_is_stable():
    assert set(m.kind for m in ALL_MODELS) == set(KINDS)
