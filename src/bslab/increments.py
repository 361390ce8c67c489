"""Mean-zero increment families whose variance grows linearly in the
interval length.

Each model describes the distribution of one increment over an interval
[0, h]: analytic mean 0, analytic variance per_unit_variance * h. Models
are centered analytically (not empirically re-centered), so any deviation
a test sees is convergence error, not centering error.

The poisson_jump model is the counterexample family: compensated jumps of
fixed size, whose Lindeberg tail does not vanish as intervals shrink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .normal import norm_cdf, norm_pdf
from .rng import normal_stream, poisson_law, poisson_stream, uniform_stream

KINDS = ("two_point", "uniform", "centered_exponential", "normal", "poisson_jump")


def _jump_variance(jump_size: float, intensity: float) -> float:
    """jump_size^2 * intensity; ValueError unless both are positive and the
    product is a positive finite float (overflow and underflow both fail)."""
    for name, value in (("jump_size", jump_size), ("intensity", intensity)):
        if not value > 0.0:
            raise ValueError(f"{name} must be positive, got {value}")
    try:
        v = jump_size ** 2 * intensity
    except OverflowError:  # a float power past the largest double raises
        v = math.inf
    if not (v > 0.0 and math.isfinite(v)):
        raise ValueError(f"jump_size^2 * intensity = {jump_size}^2 * {intensity} must be "
                         f"positive and finite, got {v}")
    return v


@dataclass(frozen=True)
class IncrementModel:
    """A distribution family for triangular-array entries.

    Use the factory classmethods; the constructor checks cross-field
    consistency (poisson_jump carries jump_size/intensity and must satisfy
    per_unit_variance = jump_size^2 * intensity).
    """

    kind: str
    per_unit_variance: float
    jump_size: float | None = None
    intensity: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown increment model kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == "poisson_jump":
            if self.jump_size is None or self.intensity is None:
                raise ValueError("poisson_jump requires jump_size and intensity")
            expected = _jump_variance(self.jump_size, self.intensity)
            if not math.isclose(self.per_unit_variance, expected, rel_tol=1e-12):
                raise ValueError(
                    f"per_unit_variance {self.per_unit_variance} must equal "
                    f"jump_size^2 * intensity = {expected}")
        elif self.jump_size is not None or self.intensity is not None:
            raise ValueError(f"jump parameters only apply to poisson_jump, not {self.kind}")
        if not (self.per_unit_variance > 0.0 and math.isfinite(self.per_unit_variance)):
            raise ValueError(f"per_unit_variance must be positive, got {self.per_unit_variance}")

    # -- factories ---------------------------------------------------------

    @classmethod
    def two_point(cls, variance: float) -> "IncrementModel":
        """+-sqrt(variance*h) with probability 1/2 each."""
        return cls("two_point", variance)

    @classmethod
    def uniform(cls, variance: float) -> "IncrementModel":
        """Uniform on [-a, a] with a = sqrt(3*variance*h)."""
        return cls("uniform", variance)

    @classmethod
    def centered_exponential(cls, variance: float) -> "IncrementModel":
        """sqrt(variance*h) * (Exp(1) - 1): skewed, unbounded to the right."""
        return cls("centered_exponential", variance)

    @classmethod
    def normal(cls, variance: float) -> "IncrementModel":
        """Gaussian increments; the positive control, normal at every scale."""
        return cls("normal", variance)

    @classmethod
    def poisson_jump(cls, jump_size: float, intensity: float) -> "IncrementModel":
        """jump_size * (Poisson(intensity*h) - intensity*h): compensated jumps."""
        return cls("poisson_jump", _jump_variance(jump_size, intensity),
                   jump_size=jump_size, intensity=intensity)

    # -- analytic moments ---------------------------------------------------

    def variance(self, h: float) -> float:
        """Analytic variance of one increment over [0, h]; ValueError unless it
        is a positive finite float (h <= 0, underflow and overflow all fail)."""
        v = self.per_unit_variance * h
        if not (v > 0.0 and math.isfinite(v)):
            raise ValueError(f"one increment's variance {self.per_unit_variance} * {h} = {v} "
                             "must be positive and finite")
        return v

    def lindeberg_tail(self, h: float, epsilon: float) -> float | None:
        """E[Z^2; |Z| > epsilon] for one increment Z over [0, h].

        Closed forms exist for two_point, normal and poisson_jump; the other
        kinds return None and callers fall back to Monte Carlo.
        """
        if epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        v = self.variance(h)
        s = math.sqrt(v)
        if self.kind == "two_point":
            return v if s > epsilon else 0.0
        if self.kind == "normal":
            c = epsilon / s
            # 2*integral_c^inf z^2 phi(z) dz = 2*(c*phi(c) + 1 - N(c))
            return v * 2.0 * (c * norm_pdf(c) + norm_cdf(-c))
        if self.kind == "poisson_jump":
            return self._poisson_tail(h, epsilon)
        return None

    def _poisson_tail(self, h: float, epsilon: float) -> float:
        a = self.jump_size
        mu = self.intensity * h
        total = 0.0
        for k, p in enumerate(poisson_law(mu)[0]):
            z = a * (k - mu)
            if abs(z) > epsilon:
                total += z * z * p
        return total

    # -- sampling -----------------------------------------------------------

    def sample(self, h: float, seed: int, start: int, count: int) -> np.ndarray:
        """Draw increments over [0, h] for stream indices start..start+count-1.

        Pure function of (seed, index): batch decomposition cannot change
        the values.
        """
        s = math.sqrt(self.variance(h))
        if self.kind == "poisson_jump":
            mu = self.intensity * h
            counts = poisson_stream(seed, start, count, mu)
            counts -= mu
            counts *= self.jump_size
            return counts

        # in place, in the order of the formula beside each kind
        if self.kind == "normal":
            z = normal_stream(seed, start, count)
            z *= s  # s * z
            return z
        u = uniform_stream(seed, start, count)
        if self.kind == "two_point":
            # -s below 1/2, +s from 1/2 up (u - 0.5 is +0.0 at exactly 1/2)
            u -= 0.5
            return np.copysign(s, u, out=u)
        if self.kind == "uniform":
            # sqrt(3) * s * (2u - 1)
            u *= 2.0
            u -= 1.0
            u *= math.sqrt(3.0) * s
            return u
        # centered_exponential: s * (-log1p(-u) - 1)
        np.negative(u, out=u)
        np.log1p(u, out=u)
        np.negative(u, out=u)
        u -= 1.0
        u *= s
        return u
