"""Numerical laboratory for the prescribed-scalar-curvature conformal flow.

Periodic n-dimensional grids (n >= 3), negative background curvature.
Simulates the negative-gradient flow of the curvature-prescription energy
and verifies its computable properties: energy dissipation, comparison
envelopes, Dirichlet-eigenvalue admissibility conditions, supersolution
trapping, residual decay, and blow-up growth rates.
"""

from .diagnostics import (
    GrowthFit,
    curvature_evolution_error,
    decay_check,
    dissipation_identity_error,
    envelope_check,
    growth_fit,
    lemma_p_balance_error,
    weighted_mass,
)
from .flow import (
    DiagnosticsRecord,
    FlowConfig,
    FlowState,
    Trajectory,
    run,
    stable_dt,
    step,
    velocity,
)
from .grid import GridSpec, ScalarField, SubdomainMask, dilate, integrate, lp_norm
from .hypotheses import (
    HypothesisReport,
    SupersolutionCertificate,
    build_supersolution,
    check_h1,
    evaluate_hypotheses,
    superlevel_mask,
    verify_supersolution,
)
from .operators import (
    Background,
    conformal_op,
    energy,
    laplacian,
    laplacian_g,
    scalar_curvature,
    stationary_residual,
)
from .scenario import Scenario, load_scenario
from .spectral import EigenResult, dirichlet_eigen, rayleigh_quotient

__version__ = "0.1.0"
