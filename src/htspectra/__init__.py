"""Limiting spectral densities of heavy-tailed random matrices.

Theory side: the entire functions g/h on their cones, fixed-point solvers
for the Wigner, band, covariance and diagonally perturbed limiting systems,
and densities via Plemelj boundary values.  Empirical side: heavy-tailed
sampling, matrix assembly, eigendecomposition and Monte Carlo campaigns
with distance reports against the theory curves.
"""

from .special import (
    AlphaParam,
    QuadratureError,
    QuadratureRule,
    c_alpha,
    c_alpha_bar,
    cone_bound,
    cone_contains,
    g_alpha,
    g_alpha_pair,
    g_alpha_prime,
    h_alpha,
    principal_power,
)
from .sampling import (
    RngStreamSpec,
    StableTailLaw,
    normalizer_a_N,
    sample_entries,
)
from .matrices import (
    DiagonalLaw,
    EnsembleSpec,
    SigmaProfile,
    alpha_kernel,
    assemble_band_matrix,
    band_alpha_integral,
    build_band_matrix,
    build_covariance_matrix,
    covariance_profile,
)
from .eig import (
    DistanceReport,
    EmpiricalSpectrum,
    distance_grid,
    distribution_distance,
    eigenvalues_symmetric,
    spectra_from_csv,
    spectra_to_csv,
)
from .solver import (
    FixedPointSolution,
    SolverError,
    band_system,
    continue_to_real_axis,
    find_critical_set,
    perturbed_system,
    polish_on_axis,
    solve,
    solve_band,
    solve_perturbed,
    solve_wigner,
    solve_wishart_pair,
    wigner_system,
    wishart_system,
)
from .density import (
    DensityCurve,
    PointRecord,
    atom_at_zero_wishart,
    build_density_curve,
    density_band,
    density_point,
    density_wigner_formula,
    density_wishart,
    semicircle_cdf,
    semicircle_density,
    stieltjes_band,
    stieltjes_perturbed,
    tail_constant,
)
from .montecarlo import (
    CampaignAborted,
    CampaignResult,
    CampaignSpec,
    CovarianceParams,
    atom_fraction,
    run_campaign,
    truncated_moment_experiment,
)

__version__ = "0.1.0"
