"""Adaptive quadrature used as an independent cross-check for closed forms.

Backed by QUADPACK (scipy.integrate.quad), which subdivides adaptively and
maps infinite endpoints onto finite intervals internally. Default
tolerances are two orders of magnitude tighter than anything this oracle
is asked to certify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from scipy import integrate as _sci


@dataclass(frozen=True)
class QuadratureSettings:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0):
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol}")
        if not (self.rel_tol > 0.0):
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.max_subdivisions < 1:
            raise ValueError(f"max_subdivisions must be >= 1, got {self.max_subdivisions}")


DEFAULT_SETTINGS = QuadratureSettings()

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def normal_pdf(x: float) -> float:
    """Standard normal density exp(-x^2/2)/sqrt(2*pi), the integrand of the
    oracles that check a normal CDF or tail; 0 once exp underflows."""
    return math.exp(-0.5 * x * x) * _INV_SQRT_2PI


class QuadratureConvergenceError(RuntimeError):
    """Raised when adaptive subdivision cannot reach the requested tolerance.

    Carries the best available estimate so callers can still inspect it.
    """

    def __init__(self, message: str, best_estimate: float, error_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


def integrate(f: Callable[[float], float], lower: float, upper: float,
              settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """Integrate f over [lower, upper]; endpoints may be +-inf.

    The result satisfies reported_error <= max(abs_tol, rel_tol * |result|),
    otherwise QuadratureConvergenceError is raised with the best estimate.
    """
    if math.isnan(lower) or math.isnan(upper):
        raise ValueError("integration bounds must not be NaN")
    if not lower < upper:
        raise ValueError(f"lower bound {lower} must be below upper bound {upper}")

    out = _sci.quad(f, lower, upper,
                    epsabs=settings.abs_tol, epsrel=settings.rel_tol,
                    limit=settings.max_subdivisions, full_output=1)
    value, abserr = out[0], out[1]
    if len(out) > 3:
        raise QuadratureConvergenceError(
            f"quadrature did not converge within {settings.max_subdivisions} "
            f"subdivisions: {out[3].splitlines()[0]}",
            best_estimate=value, error_estimate=abserr)
    if abserr > max(settings.abs_tol, settings.rel_tol * abs(value)):
        raise QuadratureConvergenceError(
            f"quadrature error estimate {abserr:.3e} exceeds the requested tolerance",
            best_estimate=value, error_estimate=abserr)
    return value
