"""Barycentric subdivision schemes with nonnegative masks on Hadamard spaces.

Backends: euclidean vectors, SPD matrices with the affine-invariant metric,
the hyperboloid model of hyperbolic space, and the tripod tree.  On top of
the metric layer sit mask validation, linear cascade analysis, contractivity
certificates, the nonlinear refinement operator, the characteristic Markov
chain, and approximation-error checks; `npcsubdiv.cli` exposes all of it as
a command-line tool.
"""

__version__ = "0.1.0"

from .errors import (DomainError, NumericError, ResourceError, SolverError,
                     StructuralError)
from .grid import GridData, grid_from_function, grid_from_points, random_grid
from .linear import (ContractivityCertificate, RefinableSamples, cascade,
                     contractivity_certificate, fit_gamma,
                     partition_of_unity_residual)
from .markov import (BallConfinement, KernelRow, StationaryReport,
                     ball_confinement, dispersion_gap, kernel_row, lp_curve,
                     lp_moment, nonassociativity_gap, simulate_chain,
                     stationary_from_refinable)
from .masks import (BoxGauge, Mask, MaskReport, bspline_mask, chaikin_mask,
                    default_gauge, gauge_value, iterated_mask, make_mask,
                    tensor_power, tensor_product, validate_mask)
from .spaces import (BarycenterProblem, SpaceDescriptor, SpacePoint, distance,
                     euclidean_point, exp_map, geodesic_point,
                     hyperboloid_point, log_map, npc_residual, random_point,
                     spd_point, tripod_point, weighted_barycenter)
from .subdivision import (ApproximationCheck, ConvergenceDiagnostic,
                          GammaEstimate, IterateTrace, approximation_error,
                          bspline_comparison, contractivity_D,
                          convergence_diagnostic, d_inf, empirical_gamma,
                          geodesic_sampler, iterate, subdivide)

__all__ = [
    "__version__",
    "DomainError", "NumericError", "ResourceError", "SolverError",
    "StructuralError",
    "GridData", "grid_from_function", "grid_from_points", "random_grid",
    "ContractivityCertificate", "RefinableSamples", "cascade",
    "contractivity_certificate", "fit_gamma", "partition_of_unity_residual",
    "BallConfinement", "KernelRow", "StationaryReport", "ball_confinement",
    "dispersion_gap", "kernel_row", "lp_curve", "lp_moment", "nonassociativity_gap",
    "simulate_chain", "stationary_from_refinable",
    "BoxGauge", "Mask", "MaskReport", "bspline_mask", "chaikin_mask",
    "default_gauge", "gauge_value", "iterated_mask", "make_mask",
    "tensor_power", "tensor_product", "validate_mask",
    "BarycenterProblem", "SpaceDescriptor", "SpacePoint", "distance",
    "euclidean_point", "exp_map", "geodesic_point", "hyperboloid_point",
    "log_map", "npc_residual", "random_point", "spd_point", "tripod_point",
    "weighted_barycenter",
    "ApproximationCheck", "ConvergenceDiagnostic", "GammaEstimate",
    "IterateTrace", "approximation_error", "bspline_comparison",
    "contractivity_D", "convergence_diagnostic", "d_inf", "empirical_gamma",
    "geodesic_sampler", "iterate", "subdivide",
]
