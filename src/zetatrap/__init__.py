"""Zeta-corrected trapezoidal quadrature and Nystrom BIE solvers.

Correction weights for logarithmic and power-law singularities are built
from Riemann zeta values; the resulting locally corrected trapezoidal
rules drive Laplace, Helmholtz, and Stokes boundary integral equation
solvers on smooth closed planar curves, with a Kress spectral baseline
for comparison.
"""

from .geometry import (
    CurveSamples,
    ParametricCurve,
    circle_curve,
    curve_from_descriptor,
    sample,
    star_curve,
)
from .harness import (
    ProblemConfig,
    default_helmholtz_config,
    default_stokes_config,
    ingest_stencil_table,
    known_solution,
    load_config,
    run_convergence,
    run_field,
    run_table1,
)
from .kernels import HelmholtzConstants, helmholtz_constants
from .nystrom import (
    DiscretizedBIE,
    SolveReport,
    assemble_helmholtz,
    assemble_stokes,
    cond_2norm,
    eval_helmholtz_potential,
    eval_stokes_velocity,
    resample_density,
    solve_direct,
    solve_gmres,
)
from .quadrature import (
    TrapezoidGrid,
    kress_helmholtz_operator,
    kress_log_matrix,
    make_grid,
    ptr,
)
from .zetaweights import (
    CorrectionStencil,
    build_log_stencil,
    build_pow_stencil,
)

__version__ = "0.1.0"

__all__ = [
    "CurveSamples",
    "ParametricCurve",
    "circle_curve",
    "curve_from_descriptor",
    "sample",
    "star_curve",
    "ProblemConfig",
    "default_helmholtz_config",
    "default_stokes_config",
    "ingest_stencil_table",
    "known_solution",
    "load_config",
    "run_convergence",
    "run_field",
    "run_table1",
    "HelmholtzConstants",
    "helmholtz_constants",
    "DiscretizedBIE",
    "SolveReport",
    "assemble_helmholtz",
    "assemble_stokes",
    "cond_2norm",
    "eval_helmholtz_potential",
    "eval_stokes_velocity",
    "resample_density",
    "solve_direct",
    "solve_gmres",
    "TrapezoidGrid",
    "kress_helmholtz_operator",
    "kress_log_matrix",
    "make_grid",
    "ptr",
    "CorrectionStencil",
    "build_log_stencil",
    "build_pow_stencil",
    "__version__",
]
