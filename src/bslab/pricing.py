"""European call pricing: closed form, lognormal payoff expectation, and the
no-arbitrage identities tying them together.

The closed form is C = spot*N(d+) - strike*exp(-rate*expiry)*N(d-). When
volatility*sqrt(expiry) is zero the formula degenerates (it divides by that
quantity), and the price is defined by its continuous limit
max(spot - strike*exp(-rate*expiry), 0).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .normal import norm_cdf

_METHODS = ("closed_form", "tree", "monte_carlo")


def _require_finite(name: str, value, positive: bool = False) -> float:
    """value as a float; ValueError unless it is a real number (not a bool or
    a string) that is finite and, if positive is set, above 0."""
    if type(value) is not float:  # floats, the common case, skip the conversion
        if isinstance(value, bool) or not hasattr(value, "__float__"):
            raise ValueError(f"{name} must be a real number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an int past the largest double
            value = math.inf
    if not (math.isfinite(value) and (value > 0.0 or not positive)):
        raise ValueError(f"{name} must be {'positive and ' * positive}finite, got {value}")
    return value


# bslab's two input rules; this module loads no numpy, so every module can import them
def require_count(name: str, value, minimum: int) -> int:
    """value as a Python int; ValueError unless it is an integer of at least
    minimum (numpy integers included, bools not)."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    count = operator.index(value)
    if count < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {count}")
    return count


def require_positive(name: str, value) -> float:
    """value as a float if it is a positive finite real, else ValueError."""
    return _require_finite(name, value, positive=True)


@dataclass(frozen=True)
class OptionSpec:
    """Market and contract parameters for one European call.

    spot and strike are in currency units; rate is the continuously
    compounded annual risk-free rate; expiry is in years; volatility is the
    annualized standard deviation of the log-return.
    """

    spot: float
    strike: float
    rate: float
    expiry: float
    volatility: float

    def __post_init__(self) -> None:
        for name in ("spot", "strike"):
            object.__setattr__(self, name, require_positive(name, getattr(self, name)))
        for name in ("rate", "expiry", "volatility"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        if self.expiry < 0.0:
            raise ValueError(f"expiry must be nonnegative, got {self.expiry}")
        if self.volatility < 0.0:
            raise ValueError(f"volatility must be nonnegative, got {self.volatility}")

    @property
    def vol_sqrt_t(self) -> float:
        return self.volatility * math.sqrt(self.expiry)


@dataclass(frozen=True)
class NormalParams:
    """Mean and standard deviation of the log-return law."""

    mean: float
    std_dev: float

    def __post_init__(self) -> None:
        _require_finite("mean", self.mean)
        _require_finite("std_dev", self.std_dev)
        if self.std_dev < 0.0:
            raise ValueError(f"std_dev must be nonnegative, got {self.std_dev}")


@dataclass(frozen=True)
class PriceResult:
    """A price plus diagnostics; std_error only for stochastic methods."""

    price: float
    d_plus: float
    d_minus: float
    method: str
    std_error: float | None = None
    detail: dict | None = None

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if self.price < 0.0:
            raise ValueError(f"price must be nonnegative, got {self.price}")
        if self.std_error is not None and self.std_error < 0.0:
            raise ValueError(f"std_error must be nonnegative, got {self.std_error}")


def d_plus_minus(spec: OptionSpec) -> tuple[float, float]:
    """d+- = log(e^{rt}*spot/strike)/(vol*sqrt(t)) +- vol*sqrt(t)/2. When
    volatility*sqrt(expiry) is zero both are at their limit: infinite, with
    the sign of the log forward moneyness, or 0 at the money."""
    # log(e^{rt} * spot / strike), written to avoid the exp/log round trip
    m = math.log(spec.spot / spec.strike) + spec.rate * spec.expiry
    s = spec.vol_sqrt_t
    if s == 0.0:
        d = math.copysign(math.inf, m) if m else 0.0
        return d, d
    return m / s + 0.5 * s, m / s - 0.5 * s


def intrinsic_forward_value(spec: OptionSpec) -> float:
    """Deterministic-limit price max(spot - strike*e^{-rt}, 0)."""
    return max(spec.spot - spec.strike * math.exp(-spec.rate * spec.expiry), 0.0)


def degenerate_result(spec: OptionSpec, method: str, **fields) -> PriceResult:
    """Every pricer's result when volatility*sqrt(expiry) is zero: the
    deterministic-limit price, with d+- at their limit (d_plus_minus)."""
    dp, dm = d_plus_minus(spec)
    return PriceResult(price=intrinsic_forward_value(spec), d_plus=dp, d_minus=dm, method=method,
                       **fields)


def bs_call_price(spec: OptionSpec) -> PriceResult:
    """Closed-form call price; degenerates to the deterministic limit when
    volatility*sqrt(expiry) is zero."""
    if spec.vol_sqrt_t == 0.0:
        return degenerate_result(spec, "closed_form")
    dp, dm = d_plus_minus(spec)
    raw = (spec.spot * norm_cdf(dp)
           - spec.strike * math.exp(-spec.rate * spec.expiry) * norm_cdf(dm))
    # deep out-of-the-money rounding can leave a tiny negative difference
    return PriceResult(price=max(raw, 0.0), d_plus=dp, d_minus=dm, method="closed_form")


def risk_neutral_params(spec: OptionSpec) -> NormalParams:
    """The unique normal log-return law with variance vol^2*t and
    E[e^Y] = e^{rate*t}: mean (rate - vol^2/2)*t, std vol*sqrt(t)."""
    return NormalParams(mean=(spec.rate - 0.5 * spec.volatility ** 2) * spec.expiry,
                        std_dev=spec.vol_sqrt_t)


def lognormal_h_plus_minus(params: NormalParams, threshold: float) -> tuple[float, float]:
    """h+- = [log(E[e^Y]/M) +- std^2/2]/std for threshold M, in the
    algebraically reduced form (mean + std^2 - log M)/std, (mean - log M)/std."""
    require_positive("threshold", threshold)
    sd = params.std_dev
    if sd == 0.0:
        raise ValueError("std_dev must be positive; handle the deterministic case in the caller")
    log_m = math.log(threshold)
    return (params.mean + sd * sd - log_m) / sd, (params.mean - log_m) / sd


def lognormal_call_expectation(params: NormalParams, threshold: float) -> float:
    """E[max(e^Y - M, 0)] = E[e^Y]*N(h+) - M*N(h-) for normal Y.

    E[e^Y] = exp(mean + std^2/2) is the lognormal moment identity.
    """
    hp, hm = lognormal_h_plus_minus(params, threshold)
    growth = math.exp(params.mean + 0.5 * params.std_dev ** 2)
    return growth * norm_cdf(hp) - threshold * norm_cdf(hm)
