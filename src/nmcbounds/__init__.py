"""Convergence bounds for finite-state nonlinear Markov chains via the
coupling-matrix spectral radius, with a TV-volatility indicator built on
wavelet denoising and Gaussian-HMM hidden chains."""

from .chain import (
    Distribution,
    PolynomialKernel,
    StationaryResult,
    StochasticMatrix,
    evaluate_batch,
    evaluate_kernel,
    flow_batch,
    load_model,
    stationary,
    tv_distance,
    validate_kernel,
)
from .coupling import (
    CouplingMatrix,
    build_coupling_matrix,
    coupling_matrices,
    coupling_radii,
    lemma_check,
    sample_coupled_pair,
    simulate_coupled_chain,
    spectral_radius,
    split_densities,
)
from .bounds import (
    BoundReport,
    delta_estimate,
    full_report,
    gamma_estimate,
    kstep_bound_curve,
    lipschitz_lambda,
    md_alpha,
    md_bound_curve,
    likelihood_ratio_moments,
    initial_distance_bound,
    initial_distance_bruteforce,
    perturbation_bound,
    combined_bound,
    spectral_bound,
)
from .experiments import (
    builtin_example,
    compare_bounds,
    export_report,
    tv_envelope,
)
from .signal import (
    PriceSeries,
    ReturnSeries,
    denoise,
    descriptive_stats,
    dwt,
    idwt,
    ks_test,
    ljung_box,
    load_prices,
    log_returns,
)
from .ghmm import (
    GhmmModel,
    fit_baum_welch,
    sample_ghmm,
)
from .volatility import (
    GarchModel,
    VolatilityConfig,
    comparison_table,
    fit_garch11,
    garch_conditional_vol,
    tv_volatility,
)

__version__ = "0.1.0"
