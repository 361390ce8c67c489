"""European call pricing: closed form, lognormal payoff expectation, and the
no-arbitrage identities tying them together.

The closed form is C = spot*N(d+) - strike*exp(-rate*expiry)*N(d-). A term whose
N factor (or exp(-rate*expiry)) is subnormal or 0 is formed in logs, with log N(d)
from its asymptotic series, so a huge factor in front of it keeps the term. When
volatility*sqrt(expiry) is zero the formula degenerates (it divides by that quantity),
and the price is defined by its continuous limit max(spot - strike*exp(-rate*expiry), 0);
so it is when volatility*sqrt(expiry) is so small that d+- overflow. finite_d_pair holds
that rule for the closed form, the lattice and Monte Carlo alike. A discounted strike
past the largest double fails in one line that names strike, rate and expiry.

A PriceResult holds only what its pricer computed; d+- belong to the
contract's limit law, and a report takes them from d_plus_minus(spec).
bs_call_price is the hot path (a PriceResult per contract), so
PriceResult's __init__ writes its checked fields straight into the instance
dict: the __init__ a frozen dataclass generates makes one object.__setattr__
call per field, which was two thirds of a closed-form price's cost.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .normal import norm_cdf

_NORMAL_MIN = 2.0 ** -1022  # the smallest normal double
_INF = math.inf  # one global lookup on the closed-form path, where math.inf takes two


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

    spot and strike are in currency units; rate is the continuously compounded annual
    risk-free rate; expiry is in years; volatility is the annualized standard deviation of
    the log-return. vol_sqrt_t = volatility*sqrt(expiry) is an attribute, not a field.
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
        object.__setattr__(self, "vol_sqrt_t", self.volatility * math.sqrt(self.expiry))
        if self.vol_sqrt_t == math.inf:
            raise ValueError(f"volatility*sqrt(expiry) must be finite, got volatility "
                             f"{self.volatility} and expiry {self.expiry}")


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


@dataclass(frozen=True, init=False)
class PriceResult:
    """A price, with std_error from Monte Carlo and detail from the lattice.

    A frozen dataclass with a written-out __init__ (see the module docstring).
    """

    price: float
    std_error: float | None = None
    detail: dict | None = None

    def __init__(self, price: float, std_error: float | None = None,
                 detail: dict | None = None) -> None:
        if price < 0.0:
            raise ValueError(f"price must be nonnegative, got {price}")
        if std_error is not None and std_error < 0.0:
            raise ValueError(f"std_error must be nonnegative, got {std_error}")
        # item stores into the instance's own dict skip the frozen __setattr__
        fields = self.__dict__
        fields["price"] = price
        fields["std_error"] = std_error
        fields["detail"] = detail


def d_plus_minus(spec: OptionSpec) -> tuple[float, float]:
    """d+- = m/s +- s/2 for s = volatility*sqrt(expiry), where m is the log
    forward moneyness log(e^{rt}*spot/strike). When s is zero both are at
    their limit: infinite with the sign of m, or 0 at the money; a subnormal
    s whose m/s overflows gives the same infinite limit."""
    s = spec.vol_sqrt_t
    ratio = spec.spot / spec.strike
    # log(e^{rt} * spot / strike), written to avoid the exp/log round trip; a
    # ratio that overflows, underflows or is subnormal (and so has lost bits)
    # takes the logs one by one
    m = (math.log(ratio) if _NORMAL_MIN <= ratio < _INF
         else math.log(spec.spot) - math.log(spec.strike)) + spec.rate * spec.expiry
    if s:
        return m / s + 0.5 * s, m / s - 0.5 * s
    d = math.copysign(_INF, m) if m else 0.0
    return d, d


def finite_d_pair(spec: OptionSpec) -> tuple[float, float] | None:
    """d+- while they are finite; None once they are at their limit (volatility*sqrt(expiry)
    zero, or so small that m/s is not), where every pricer takes the deterministic limit."""
    dp, dm = d_plus_minus(spec)
    return (dp, dm) if spec.vol_sqrt_t and -_INF < dm and dp < _INF else None


def discounted_strike(spec: OptionSpec) -> float:
    """strike*exp(-rate*expiry), taken in logs where exp(-rate*expiry) is subnormal or 0;
    ValueError naming strike, rate and expiry when it overflows a double."""
    try:
        disc = math.exp(-spec.rate * spec.expiry)
    except OverflowError:  # exp itself passed the largest double
        disc = math.inf
    strike = (spec.strike * disc if disc >= _NORMAL_MIN
              else math.exp(math.log(spec.strike) - spec.rate * spec.expiry))
    if strike == _INF:
        raise ValueError(f"the discounted strike strike*exp(-rate*expiry) overflows a double at "
                         f"strike={spec.strike}, rate={spec.rate}, expiry={spec.expiry}")
    return strike


def forward_strike(spec: OptionSpec) -> tuple[float, float]:
    """(kappa, kappa_lo): the strike in forward units, strike*e^{-rt}/spot, rounded,
    and the rest that the rounding leaves out, exact in integers (0 if kappa
    overflows), so that a node or path within rounding of it weighs its true excess."""
    strike = discounted_strike(spec)
    kappa = strike / spec.spot
    (a, b), (c, d) = strike.as_integer_ratio(), spec.spot.as_integer_ratio()
    g, h = kappa.as_integer_ratio() if kappa < _INF else (a * d, b * c)
    return kappa, (a * d * h - g * b * c) / (b * c * h)


def intrinsic_forward_value(spec: OptionSpec) -> float:
    """Deterministic-limit price max(spot - strike*e^{-rt}, 0)."""
    return max(spec.spot - discounted_strike(spec), 0.0)


# (-1)^k (2k-1)!! for k = 8 down to 1: the asymptotic series of N(x)*(-x)*sqrt(2*pi)*e^{x^2/2}
_TAIL_SERIES = (2027025.0, -135135.0, 10395.0, -945.0, 105.0, -15.0, 3.0, -1.0)


def _log_norm_cdf_tail(x: float) -> float:
    """log N(x) for x below about -37, where N(x) is subnormal or 0:
    -x^2/2 - log(-x) - log(2*pi)/2 + log1p(sum_{k=1..8} (-1)^k (2k-1)!!/x^{2k})."""
    y, series = 1.0 / (x * x), 0.0
    for c in _TAIL_SERIES:
        series = (series + c) * y
    return -0.5 * x * x - math.log(-x) - 0.5 * math.log(2.0 * math.pi) + math.log1p(series)


def bs_call_price(spec: OptionSpec) -> PriceResult:
    """Closed-form call price; the deterministic limit when d+- are at theirs. A term
    whose N factor is subnormal or 0 is formed as exp(log prefactor + log N(d))."""
    d = finite_d_pair(spec)
    if d is None:
        return PriceResult(intrinsic_forward_value(spec))
    (dp, dm), strike_pv = d, discounted_strike(spec)
    n_plus, n_minus = norm_cdf(dp), norm_cdf(dm)
    spot_term = (spec.spot * n_plus if n_plus >= _NORMAL_MIN
                 else math.exp(math.log(spec.spot) + _log_norm_cdf_tail(dp)))
    raw = spot_term - (strike_pv * n_minus if n_minus >= _NORMAL_MIN else math.exp(
        math.log(spec.strike) - spec.rate * spec.expiry + _log_norm_cdf_tail(dm)))
    # deep out-of-the-money rounding can leave a tiny negative difference
    return PriceResult(raw if raw > 0.0 else 0.0)


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
