"""Invariant Gaussian waves on regular trees.

Simulation and analysis of the unique invariant Gaussian process attached to
each adjacency eigenvalue of the d-regular tree: exact covariance evaluation,
exact sampling on balls and geodesics, Gibbs sampling conditioned on staying
above a level, and estimation of the level-set percolation threshold.
"""

__version__ = "0.1.0"

from .conditioned import (
    GibbsPlan,
    RepulsionTail,
    TailPoint,
    batch_means_ess,
    build_gibbs_plan,
    gibbs_run,
    repulsion_tail,
    retained_sweeps,
)
from .errors import NumericalError, ValidationError
from .gaussian import (
    PsdFactor,
    assemble_covariance,
    factor_psd,
    orthant_edge_probability,
    truncated_standard,
)
from .levelset import (
    Component,
    ComponentSummary,
    RatioBoundsReport,
    RatioEntry,
    SurvivalCurve,
    SurvivalEstimate,
    critical_threshold,
    expdec_alpha,
    extract_components,
    haggstrom_alpha,
    site_alpha,
    survival_curve_smc,
    survival_direct,
    survival_ratio_bounds,
    transfer_rate,
    union_alpha,
)
from .sampler import (
    BallSample,
    path_step_table,
    sample_ball_dense,
    sample_ball_dense_many,
    sample_ball_recursive,
    sample_ball_recursive_many,
    sample_path_many,
    sample_scale,
    verify_eigen_residual,
    verify_residuals,
    verify_sphere_sums,
)
from .spectral import (
    CovarianceProfile,
    RepulsionCoefficients,
    SpectralPoint,
    build_profile,
    kesten_mckay_cdf,
    repulsion_coefficients,
    sample_lambda,
    sample_lambda_many,
    spectral_density,
    spectral_edge,
)
from .tree import (
    Ball,
    ball_vertex_count,
    enumerate_ball,
    pairwise_distances,
    sphere_size,
)

from types import ModuleType as _Module

# The public names above; the submodules the imports also bind are left out.
__all__ = [n for n, v in globals().items() if not (n.startswith("_") or isinstance(v, _Module))]
