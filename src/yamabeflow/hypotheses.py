"""Spectral admissibility conditions and supersolution certificates.

The two conditions on the target curvature ``f`` are decided on an open set
``Omega``.  H1 is positivity of the first Dirichlet eigenvalue of the
conformal Laplacian on ``Omega`` with ``f < 0`` outside.  H2 is a non-empty
scaling window ``delta_lo <= delta_hi`` for the supersolution construction
below, built from the eigenfunction of a larger domain ``D``: it is empty when
``lambda_D <= 0 <= sup_Omega f``, and ``lambda_D < 0`` bounds ``delta`` below on Omega.
``C_Omega = lambda_D * m0^N / m1`` is reported for information: for
``lambda_D > 0`` the window test is ``sup_Omega f <= C_Omega * inf_outside |f|``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ComputationFailure, DeltaWindowEmptyError, EigenvalueConditionError
from .grid import ScalarField, SubdomainMask, chebyshev_distance, require_same_grid
from .operators import Background, _conformal_values, _stationary_defect, require_positive
from .spectral import dirichlet_eigen

__all__ = [
    "HypothesisReport",
    "SupersolutionCertificate",
    "superlevel_mask",
    "check_h1",
    "evaluate_hypotheses",
    "build_supersolution",
    "verify_supersolution",
]

_MIN_L_TOL = 1e-9  # how far below 0 the verified min L(ubar) may round
DEFAULT_DILATION = DEFAULT_BAND = 2  # cells that D adds around omega; cells of the blend band


@dataclass(frozen=True)
class HypothesisReport:
    lambda_omega: float
    h1_holds: bool
    sup_f_omega: float
    inf_absf_complement: float
    max_f_complement: float
    c_omega: float | None = None
    h2_holds: bool | None = None


@dataclass(frozen=True)
class SupersolutionCertificate:
    """Verified positive supersolution ``ubar = delta * (chi*phi0 + 1 - chi)``."""

    ubar: ScalarField
    delta: float
    m0: float
    m1: float
    lambda_d: float
    min_l_ubar: float
    delta_lo: float
    delta_hi: float


def superlevel_mask(bg: Background, eps: float) -> SubdomainMask:
    """Mask of points where ``f > -eps``, nudging ``eps`` off grid values of ``f``.

    The nudge is the numerical stand-in for picking a regular value of
    ``f``: a threshold that collides with a grid value (within 1e-12) is
    moved up by ulp-scale steps until it is clear of every grid value.
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    f = bg.f.values
    while bool(np.any(np.abs(f + eps) <= 1e-12)):
        eps += 16.0 * np.spacing(max(1.0, eps))
    return SubdomainMask(bg.grid, f > -eps)


def check_h1(bg: Background, omega: SubdomainMask, tol: float = 1e-8) -> HypothesisReport:
    """Decide the eigenvalue condition; the size-condition fields stay unset."""
    lam = dirichlet_eigen(bg, omega, tol=tol).lam
    f, inside = bg.f.values, omega.inside
    sup_f = float(f[inside].max()) if inside.any() else -math.inf
    comp = f[~inside]
    max_f_comp = float(comp.max()) if comp.size else -math.inf
    inf_absf = float(np.abs(comp).min()) if comp.size else math.inf
    holds = lam > 0.0 and max_f_comp < 0.0
    return HypothesisReport(lam, holds, sup_f, inf_absf, max_f_comp)


def _smoothstep(s: np.ndarray) -> np.ndarray:
    # Quintic smoothstep: C^2 at both ends, monotone on [0, 1].
    s = np.clip(s, 0.0, 1.0)
    return s * s * s * (s * (6.0 * s - 15.0) + 10.0)


def _check_blend(dilation: int, band: int) -> None:
    # chebyshev_distance stores dilation + 1 in an int64 array.
    if not 1 <= band <= dilation < 2**63 - 1:
        raise ValueError(
            "supersolution needs 1 <= band <= dilation < 2**63 - 1, "
            f"got band {band}, dilation {dilation}"
        )


def _assess(
    bg: Background, omega: SubdomainMask, h1: HypothesisReport, dilation: int, band: int, tol: float
) -> tuple[HypothesisReport, np.ndarray, dict[str, float]]:
    """H2 decided once from ``h1``: the full report, the blend and the certificate fields.

    The blend is ``b = chi*phi0 + 1 - chi``, with ``phi0`` the eigenfunction of ``D``.
    ``chi`` is 1 on the one-cell dilation of omega (so the stencil at omega
    points only sees the pure eigenfunction), 0 outside ``D``, and a quintic
    smoothstep of the scaled grid distance over the ``band`` cells between.
    An empty omega gives ``chi = 0``, so ``b = 1`` and ``lambda_D = inf``.
    The fields are the certificate's ``m0``, ``m1``, ``lambda_d``, ``delta_lo`` and ``delta_hi``.
    """
    _check_blend(dilation, band)
    dist = chebyshev_distance(omega, dilation)
    eig = dirichlet_eigen(bg, SubdomainMask(bg.grid, dist <= dilation), tol=tol)
    chi = _smoothstep((dilation + 1.0 - dist) / band)
    b = chi * eig.phi.values + 1.0 - chi
    m0, m1, lambda_d = float(b.min()), float(np.abs(_conformal_values(bg, b)).max()), eig.lam
    exp = 1.0 / (bg.big_n - 1.0)
    sup_f, absf = h1.sup_f_omega, h1.inf_absf_complement
    if lambda_d < 0.0 and sup_f < 0.0:  # L(delta*phi_D) >= 0 on Omega then needs f < 0 there
        absf = min(absf, -sup_f)
    # absf = 0 (f vanishes off Omega, so H1 fails) admits no finite delta; absf = inf gives 0
    delta_lo = (m1 * m0 ** (-bg.big_n) / absf) ** exp if absf > 0.0 else math.inf
    if sup_f < 0.0 or (sup_f == 0.0 and lambda_d >= 0.0):
        delta_hi = math.inf
    elif lambda_d > 0.0:
        delta_hi = (lambda_d / sup_f) ** exp
    else:
        delta_hi = 0.0
    c_omega = math.inf if math.isinf(lambda_d) else lambda_d * m0**bg.big_n / m1
    h2 = 0.0 < delta_hi and delta_lo <= delta_hi and delta_lo < math.inf  # [0, 0], [inf, inf]
    fields = dict(m0=m0, m1=m1, lambda_d=lambda_d, delta_lo=delta_lo, delta_hi=delta_hi)
    return replace(h1, c_omega=c_omega, h2_holds=h2), b, fields


def evaluate_hypotheses(
    bg: Background,
    omega: SubdomainMask,
    dilation: int = DEFAULT_DILATION,
    band: int = DEFAULT_BAND,
    tol: float = 1e-8,
) -> HypothesisReport:
    """Full report: the eigenvalue condition and the size condition as a non-empty window."""
    return _assess(bg, omega, check_h1(bg, omega, tol=tol), dilation, band, tol)[0]


def build_supersolution(
    bg: Background,
    omega: SubdomainMask,
    dilation: int = DEFAULT_DILATION,
    band: int = DEFAULT_BAND,
    tol: float = 1e-8,
) -> SupersolutionCertificate:
    """Construct and pointwise-verify a supersolution trapped above the flow.

    The admissible scaling window is ``[delta_lo, delta_hi]`` with
    ``delta_lo^(N-1) = m1 * m0^(-N) / inf_outside |f|`` (``/ min(inf_outside |f|,
    -sup_omega f)`` when ``lambda_D < 0``), and
    ``delta_hi^(N-1) = lambda_D / sup_omega f``, unbounded when ``sup_omega f < 0``
    or ``sup_omega f = 0 <= lambda_D``, and 0 (an empty window) when
    ``lambda_D <= 0 <= sup_omega f``.  H2 is exactly a non-empty window;
    ``C_Omega`` is reported for information.  ``delta`` is the geometric mean
    when the window is bounded, twice ``delta_lo`` otherwise.
    """
    h1 = check_h1(bg, omega, tol=tol)
    if not h1.h1_holds:
        raise EigenvalueConditionError(
            "eigenvalue condition fails for omega "
            f"(lambda={h1.lambda_omega:g}, max f outside={h1.max_f_complement:g})"
        )
    report, b, fields = _assess(bg, omega, h1, dilation, band, tol)
    delta_lo, delta_hi = fields["delta_lo"], fields["delta_hi"]
    if not report.h2_holds:
        raise DeltaWindowEmptyError(delta_lo, delta_hi, report.c_omega)
    if math.isinf(delta_hi):
        delta = 2.0 * delta_lo if delta_lo > 0.0 else 1.0
    else:
        delta = math.sqrt(delta_lo * delta_hi) if delta_lo > 0.0 else 0.5 * delta_hi
    ubar = ScalarField(bg.grid, delta * b)
    min_l = verify_supersolution(bg, ubar)
    if min_l < -_MIN_L_TOL:
        raise ComputationFailure(
            f"supersolution verification failed: min L(ubar) = {min_l:g} < -{_MIN_L_TOL:g}"
        )
    return SupersolutionCertificate(ubar, delta, min_l_ubar=min_l, **fields)


def verify_supersolution(bg: Background, ubar: ScalarField) -> float:
    """Pointwise minimum of ``-c_n Lap(ubar) + R0 ubar - f ubar^N``.

    Nonnegative (within tolerance) certifies that the curvature of the
    conformal metric built from ``ubar`` dominates ``f`` everywhere.
    """
    require_same_grid(bg, ubar)
    require_positive(ubar, "ubar")
    return float(_stationary_defect(bg, ubar.values).min())
