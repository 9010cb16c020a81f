"""Truncated non-Gaussian chaos calculus.

Reference space: L^2([0,1]) with the uniform measure and the shifted,
normalized Legendre basis (e_1 = 1).  Coordinates X_j are i.i.d. centered
reduced draws from a chosen law.  The subpackage provides the first-order
map and its quadratic companions, the stochastic integral with its product
and integration-by-parts identities, the order decomposition of a squared
second-order chaos with annihilation operators, exact norm/isometry checks,
and the Monte Carlo convergence experiments.
"""

from .basis import (
    ChaosVector,
    LegendreBasis,
    PiecewisePoly,
    SymmetricKernel2,
    coeffs_of,
    triangle_kernel,
)
from .tensors import GammaTables, SymTensor
from .identities import (
    fourth_moment_check,
    fourth_moment_grid,
    integral_eval,
    ito_bracket,
    norm_identity,
    order_decomposition,
    order_tensors,
    phi,
    phi2,
    phi11,
    product_identity_residual,
    isometry_check,
)
from .experiments import (
    qv_experiment,
    qv_joint_refinement,
    riemann_experiment,
)

__all__ = [
    "ChaosVector",
    "LegendreBasis",
    "PiecewisePoly",
    "SymmetricKernel2",
    "coeffs_of",
    "triangle_kernel",
    "GammaTables",
    "SymTensor",
    "phi",
    "phi2",
    "phi11",
    "product_identity_residual",
    "integral_eval",
    "ito_bracket",
    "norm_identity",
    "isometry_check",
    "order_decomposition",
    "order_tensors",
    "fourth_moment_check",
    "riemann_experiment",
    "qv_experiment",
    "qv_joint_refinement",
    "fourth_moment_grid",
]
