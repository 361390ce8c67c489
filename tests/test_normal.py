import math

import mpmath
import numpy as np
import pytest
from scipy.special import ndtri

from bslab.normal import norm_cdf, norm_cdf_inv, norm_pdf
from quadrature import QuadratureSettings, integrate

TIGHT = QuadratureSettings(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=2000)

# reference value from a 50-digit evaluation of the normal CDF
N_AT_FIVE = 0.9999997133484281


def test_cdf_at_zero_is_half():
    assert norm_cdf(0.0) == 0.5


def test_cdf_matches_three_digit_tables():
    # the worked example rounds N(0.0802) and N(-0.0698) to three digits
    assert norm_cdf(0.0802) == pytest.approx(0.532, abs=5e-4)
    assert norm_cdf(-0.0698) == pytest.approx(0.472, abs=5e-4)


def test_cdf_at_five_vs_quadrature():
    # independent route: adaptive quadrature of the density, split at 0
    quad = integrate(norm_pdf, -math.inf, 0.0, TIGHT) + integrate(norm_pdf, 0.0, 5.0, TIGHT)
    assert abs(quad - norm_cdf(5.0)) <= 1e-12
    assert norm_cdf(5.0) == pytest.approx(N_AT_FIVE, abs=1e-12)


def test_cdf_reflection_identity():
    rng = np.random.default_rng(7)
    for x in rng.uniform(-6.0, 6.0, size=100):
        assert abs(norm_cdf(x) + norm_cdf(-x) - 1.0) <= 1e-12


def test_cdf_nondecreasing():
    xs = np.sort(np.random.default_rng(8).uniform(-10.0, 10.0, size=500))
    values = norm_cdf(xs)
    assert np.all(np.diff(values) >= 0.0)
    assert np.all((values >= 0.0) & (values <= 1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cdf_and_pdf_reject_nonfinite(bad):
    with pytest.raises(ValueError):
        norm_cdf(bad)
    with pytest.raises(ValueError):
        norm_pdf(bad)


def test_pdf_at_mode():
    assert norm_pdf(0.0) == pytest.approx(0.3989422804014327, abs=1e-15)


def test_pdf_even_and_positive():
    xs = np.linspace(-10.0, 10.0, 201)
    assert np.array_equal(norm_pdf(xs), norm_pdf(-xs))
    assert np.all(norm_pdf(xs) > 0.0)


@pytest.mark.parametrize("h", [1e-4, 1e-5])
def test_pdf_matches_central_difference_of_cdf(h):
    for x in (-3.0, -1.0, 0.0, 0.5, 1.0, 2.5):
        fd = (norm_cdf(x + h) - norm_cdf(x - h)) / (2.0 * h)
        assert abs(fd - norm_pdf(x)) <= 1e-8


def test_quadrature_reproduces_cdf_on_random_points():
    rng = np.random.default_rng(12345)
    for x in rng.uniform(-6.0, 6.0, size=100):
        assert abs(integrate(norm_pdf, -math.inf, float(x)) - norm_cdf(x)) <= 1e-10


def test_inverse_matches_scipy_reference():
    p = np.concatenate([np.geomspace(1e-300, 0.5, 200),
                        1.0 - np.geomspace(1e-16, 0.5, 200)])
    assert np.max(np.abs(norm_cdf_inv(p) - ndtri(p))) <= 1e-9


def _exact_quantile(p: float) -> mpmath.mpf:
    """Root of ncdf(z) = p at 50 digits, by Newton steps from z0."""
    with mpmath.workdps(50):
        target = mpmath.mpf(p)
        z = mpmath.mpf(float(norm_cdf_inv(p)))
        for _ in range(50):
            step = (mpmath.ncdf(z) - target) / mpmath.npdf(z)
            z -= step
            if abs(step) <= mpmath.mpf(10) ** -40 * max(1, abs(z)):
                return z
    raise AssertionError(f"Newton iteration did not converge for p={p!r}")


def test_inverse_matches_mpmath_oracle():
    p = np.concatenate([np.random.default_rng(31).uniform(0.0, 1.0, 200),
                        np.geomspace(1e-300, 0.5, 200),
                        1.0 - np.geomspace(1e-16, 0.5, 200)])
    z = norm_cdf_inv(p)
    for pi, zi in zip(p, z):
        exact = _exact_quantile(float(pi))
        assert abs(zi - exact) <= 2e-15 * max(1.0, abs(exact)), pi


def test_inverse_round_trip():
    xs = np.linspace(-5.0, 5.0, 401)
    assert np.max(np.abs(norm_cdf_inv(norm_cdf(xs)) - xs)) <= 1e-9


def test_inverse_scalar_in_scalar_out():
    assert norm_cdf_inv(0.5) == 0.0
    assert isinstance(norm_cdf_inv(0.975), float)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.2, math.nan])
def test_inverse_rejects_out_of_domain(bad):
    with pytest.raises(ValueError):
        norm_cdf_inv(bad)
