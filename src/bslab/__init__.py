"""Black-Scholes call pricing with independent discrete pricers and
central-limit-theorem convergence experiments.

bslab.quadrature, the tests' independent oracle, is not imported here: it
pulls in scipy.integrate, which no pricer or experiment needs."""

from .cltlab import (ArraySpec, ConvergenceReport, LindebergResult,
                     VarianceLinearityResult, estimate_variance, ks_normal_test,
                     lindeberg_statistic, max_cell_variance, run_convergence_experiment,
                     sample_row_sum, variance_linearity_check)
from .increments import IncrementModel
from .montecarlo import McConfig, mc_forward_check, mc_price
from .normal import norm_cdf, norm_cdf_inv, norm_pdf
from .pricing import (DegenerateVolatilityError, NormalParams, OptionSpec, PriceResult,
                      bs_call_price, d_plus_minus, discount, intrinsic_forward_value,
                      lognormal_call_expectation, lognormal_h_plus_minus,
                      risk_neutral_params)
from .rng import normal_stream, poisson_stream, substream, uniform_stream
from .tree import TreeConfig, TreeParameterizationError, crr_tree_price

__version__ = "0.1.0"

__all__ = [
    "ArraySpec", "ConvergenceReport", "DegenerateVolatilityError", "IncrementModel",
    "LindebergResult", "McConfig", "NormalParams", "OptionSpec", "PriceResult", "TreeConfig",
    "TreeParameterizationError", "VarianceLinearityResult", "bs_call_price",
    "crr_tree_price", "d_plus_minus", "discount", "estimate_variance",
    "intrinsic_forward_value", "ks_normal_test", "lindeberg_statistic",
    "lognormal_call_expectation", "lognormal_h_plus_minus", "max_cell_variance",
    "mc_forward_check", "mc_price", "norm_cdf", "norm_cdf_inv", "norm_pdf",
    "normal_stream", "poisson_stream", "risk_neutral_params", "run_convergence_experiment",
    "sample_row_sum", "substream", "uniform_stream", "variance_linearity_check",
]
