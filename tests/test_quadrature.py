import math

import numpy as np
import pytest

from quadrature import QuadratureConvergenceError, QuadratureSettings, integrate, normal_pdf


def test_density_normalizes_to_one():
    assert integrate(normal_pdf, -math.inf, math.inf) == pytest.approx(1.0, abs=1e-10)


def test_half_line_gives_half():
    assert integrate(normal_pdf, -math.inf, 0.0) == pytest.approx(0.5, abs=1e-10)


def test_lognormal_mean_over_whole_line():
    # E[e^Y] for standard normal Y is e^{1/2}; the exponents are combined so
    # the integrand stays finite where the density has already vanished
    value = integrate(lambda y: math.exp(y - 0.5 * y * y) / math.sqrt(2.0 * math.pi),
                      -math.inf, math.inf)
    assert value == pytest.approx(math.sqrt(math.e), rel=1e-9)


def test_finite_interval():
    assert integrate(lambda x: x * x, 0.0, 3.0) == pytest.approx(9.0, rel=1e-12)


def test_settings_validation():
    with pytest.raises(ValueError):
        QuadratureSettings(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSettings(rel_tol=-1e-10)
    with pytest.raises(ValueError):
        QuadratureSettings(max_subdivisions=0)


def test_bad_bounds_rejected():
    with pytest.raises(ValueError):
        integrate(normal_pdf, 1.0, 1.0)
    with pytest.raises(ValueError):
        integrate(normal_pdf, math.nan, 1.0)


def test_convergence_failure_carries_best_estimate():
    # heavily oscillatory integrand with almost no subdivision budget
    settings = QuadratureSettings(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=2)
    with pytest.raises(QuadratureConvergenceError) as exc_info:
        integrate(lambda x: math.sin(x * x), 0.0, 50.0, settings)
    err = exc_info.value
    assert math.isfinite(err.best_estimate)
    assert err.error_estimate >= 0.0
