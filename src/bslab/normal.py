"""Standard normal CDF, PDF and inverse CDF.

The CDF is evaluated through the complementary error function, which keeps
the absolute error at machine precision (well below 1e-12) over the whole
real line; a raw series expansion would lose accuracy in the tails. Scalars
take math.erfc, arrays scipy.special.erfc. The inverse is
scipy.special.ndtri, within a few ulps of the exact quantile (about 1e-15
relative error; the contract only needs 1e-9 absolute).

All three functions accept a float or a numpy array and return the same
shape; scalars come back as plain floats. numpy and scipy.special are
imported by the paths that use them, so the scalar norm_cdf, which the
closed-form pricer calls, loads neither.
"""

from __future__ import annotations

import math

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _as_array(x, name: str) -> np.ndarray:
    import numpy as np

    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        shown = repr(x) if arr.ndim == 0 else "a non-finite array entry"
        raise ValueError(f"{name} requires finite input, got {shown}")
    return arr


def norm_cdf(x):
    """N(x) = P(Z <= x) for standard normal Z, as 0.5*erfc(-x/sqrt(2)).

    Raises ValueError on non-finite input. The result is guaranteed to lie
    in [0, 1] because erfc maps into [0, 2].
    """
    if type(x) is float or isinstance(x, (int, float)):  # a float skips the tuple check
        if not math.isfinite(x):
            raise ValueError(f"norm_cdf requires finite input, got {x!r}")
        return 0.5 * math.erfc(-x / _SQRT2)
    from scipy import special

    arr = _as_array(x, "norm_cdf")
    out = 0.5 * special.erfc(-arr / _SQRT2)
    return float(out) if arr.ndim == 0 else out


def norm_pdf(x):
    """Standard normal density exp(-x^2/2)/sqrt(2*pi); 0 once exp underflows."""
    import numpy as np

    arr = _as_array(x, "norm_pdf")
    with np.errstate(over="ignore"):  # x*x is inf past |x| ~ 1.3e154: exp(-inf) = 0 is exact
        out = np.exp(-0.5 * arr * arr) * _INV_SQRT_2PI
    return float(out) if arr.ndim == 0 else out


def norm_cdf_inv(p):
    """Inverse of norm_cdf on the open interval (0, 1)."""
    import numpy as np
    from scipy import special

    arr = np.asarray(p, dtype=np.float64)
    # NaN fails both comparisons, so this also rejects non-finite input
    if arr.size and not (arr.min() > 0.0 and arr.max() < 1.0):
        shown = repr(p) if arr.ndim == 0 else "an out-of-range array entry"
        raise ValueError(f"norm_cdf_inv requires probabilities strictly inside (0, 1), got {shown}")
    z = special.ndtri(arr)
    return float(z) if arr.ndim == 0 else z
