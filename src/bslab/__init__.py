"""Black-Scholes call pricing with independent discrete pricers and
central-limit-theorem convergence experiments.

Submodules load on first use: `bslab.bs_call_price` and
`bslab.crr_tree_price` need nothing beyond the standard library, while the
Monte Carlo and CLT names bring in numpy and scipy.special when first asked
for.
The adaptive-quadrature oracle that cross-checks the closed forms lives with
the tests (tests/quadrature.py), so the package never needs scipy.integrate."""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "cltlab": ("ArraySpec", "ConvergenceReport", "LindebergResult", "VarianceLinearityResult",
               "estimate_variance", "ks_normal_test", "lindeberg_statistic",
               "run_convergence_experiment", "sample_row_sum", "variance_linearity_check"),
    "increments": ("IncrementModel",),
    "montecarlo": ("McConfig", "mc_forward_check", "mc_price"),
    "normal": ("norm_cdf", "norm_cdf_inv"),
    "pricing": ("NormalParams", "OptionSpec", "PriceResult", "bs_call_price", "d_plus_minus",
                "intrinsic_forward_value", "lognormal_call_expectation", "lognormal_h_plus_minus"),
    "rng": ("normal_stream", "poisson_stream", "substream", "uniform_stream"),
    "tree": ("TreeConfig", "crr_tree_price"),
}
# exported name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import an export's submodule on first access and keep the name, so
    later lookups are plain attribute reads. The submodules themselves are
    reachable as attributes too, as when the package imported them all."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
