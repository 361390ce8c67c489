"""Standard normal CDF and inverse CDF.

norm_cdf is the closed form's N(d+-) on one float, 0.5*math.erfc(-x/sqrt(2)):
machine-precision absolute error over the whole line (a series would lose the
tails), with neither numpy nor scipy loaded. norm_cdf_inv is scipy.special.ndtri
on a float or an array, within a few ulps of the exact quantile (about 1e-15
relative; the contract needs 1e-9 absolute).
"""

from __future__ import annotations

import math

_SQRT2 = math.sqrt(2.0)


def norm_cdf(x: float) -> float:
    """N(x) = P(Z <= x) for standard normal Z, as 0.5*erfc(-x/sqrt(2)).

    Raises ValueError on non-finite input. The result is guaranteed to lie
    in [0, 1] because erfc maps into [0, 2].
    """
    if not math.isfinite(x):
        raise ValueError(f"norm_cdf requires finite input, got {x!r}")
    return 0.5 * math.erfc(-x / _SQRT2)


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
