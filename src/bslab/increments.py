"""Mean-zero increment families whose variance grows linearly in the
interval length.

Each model describes the distribution of one increment over an interval
[0, h]: analytic mean 0, analytic variance per_unit_variance * h. Models
are centered analytically (not empirically re-centered), so any deviation
a test sees is convergence error, not centering error.

Every kind has its Lindeberg tail E[Z^2; |Z| > epsilon] in closed form.
The poisson_jump model is the counterexample family: compensated jumps of
fixed size, whose Lindeberg tail does not vanish as intervals shrink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .normal import norm_cdf
from .pricing import require_positive
from .rng import normal_stream, poisson_law, poisson_stream, uniform_stream

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
KINDS = ("two_point", "uniform", "centered_exponential", "normal", "poisson_jump")


@dataclass(frozen=True)
class IncrementModel:
    """A distribution family for triangular-array entries.

    The four scale kinds take per_unit_variance alone; poisson_jump takes
    jump_size and intensity alone and derives per_unit_variance =
    jump_size^2 * intensity. Each field is stored as a float.
    """

    kind: str
    per_unit_variance: float | None = None
    jump_size: float | None = None
    intensity: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown increment model kind {self.kind!r}; expected one of {KINDS}")
        jump = self.kind == "poisson_jump"
        takes = ["jump_size", "intensity"] if jump else ["per_unit_variance"]
        given = [name for name in ("per_unit_variance", "jump_size", "intensity")
                 if getattr(self, name) is not None]
        if given != takes:
            raise ValueError(f"{self.kind} takes {' and '.join(takes)} alone"
                             + (", and derives per_unit_variance" if jump else ""))
        for name in takes:  # each kept as the float its check returns
            object.__setattr__(self, name, require_positive(name, getattr(self, name)))
        if jump:
            a, lam = self.jump_size, self.intensity
            object.__setattr__(self, "per_unit_variance", require_positive(
                f"jump_size^2 * intensity = {a}^2 * {lam}", a * a * lam))  # overflows to inf

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
        return cls("poisson_jump", jump_size=jump_size, intensity=intensity)

    # -- analytic moments ---------------------------------------------------

    def variance(self, h: float) -> float:
        """Analytic variance of one increment over [0, h]; ValueError unless it
        is a positive finite float (h <= 0, underflow and overflow all fail)."""
        return require_positive(f"one increment's variance {self.per_unit_variance} * {h}",
                                self.per_unit_variance * h)

    def lindeberg_tail(self, h: float, epsilon: float) -> float:
        """E[Z^2; |Z| > epsilon] for one increment Z over [0, h], in closed
        form for every kind."""
        require_positive("epsilon", epsilon)
        v = self.variance(h)
        s = math.sqrt(v)
        if self.kind == "two_point":
            return v if s > epsilon else 0.0
        if self.kind == "uniform":
            # (a^3 - eps^3)/(3a) on [-a, a], a = sqrt(3)*s: v*(1 - r^3) with r = eps/a
            r = epsilon / (math.sqrt(3.0) * s)
            return v * (1.0 - r) * (1.0 + r + r * r) if r < 1.0 else 0.0
        c = epsilon / s
        if self.kind == "normal":
            # 2*integral_c^inf z^2 phi(z) dz = 2*(c*phi(c) + 1 - N(c)), empty once c overflows
            # (2 is exact on the bracket, where v*2 overflows past 9e307); phi(c) takes np.exp,
            # whose bits math.exp does not always give, and c*c past 1.3e154 is inf: exp(-inf) = 0
            phi = float(np.exp(-0.5 * c * c)) * _INV_SQRT_2PI
            return v * (2.0 * (c * phi + norm_cdf(-c))) if c < math.inf else 0.0
        if self.kind == "centered_exponential":
            # Z/s + 1 ~ Exp(1), and -e^{-x}(x^2 + 1) is an antiderivative of
            # (x - 1)^2 e^{-x}: the tail above 1 + c, plus the one below 1 - c
            # while c < 1; past c ~ 745 the upper factor is 0 and c^2 is not formed
            upper = math.exp(-1.0 - c)
            tail = upper * (c * c + 2.0 * c + 2.0) if upper else 0.0
            if c < 1.0:
                tail += -math.expm1(c - 1.0) - math.exp(c - 1.0) * (1.0 - c) ** 2
            return v * tail
        return self._poisson_tail(h, epsilon)

    def _poisson_tail(self, h: float, epsilon: float) -> float:
        a = self.jump_size
        mu = self.intensity * h
        total = 0.0
        for k, p in enumerate(poisson_law(self.intensity, h)[0]):
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
            counts = poisson_stream(seed, start, count, self.intensity, h)
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
