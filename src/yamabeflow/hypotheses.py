"""Spectral admissibility conditions and supersolution certificates.

The two conditions on the target curvature ``f`` are decided on an open set
``Omega``: positivity of the first Dirichlet eigenvalue of the conformal
Laplacian on ``Omega`` with ``f < 0`` outside, and a size condition
``sup_Omega f <= C_Omega * inf_outside |f|`` with the explicit constant
``C_Omega = lambda_D * m0^N / m1`` coming from the supersolution
construction below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DeltaWindowEmptyError
from .grid import (
    ScalarField,
    SubdomainMask,
    chebyshev_distance,
    dilate,
    require_same_grid,
)
from .operators import Background, _conformal_values, require_positive
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


@dataclass(frozen=True)
class HypothesisReport:
    lambda_omega: float
    h1_holds: bool
    sup_f_omega: float
    inf_absf_complement: float
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
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    f = bg.f.values
    while bool(np.any(np.abs(f + eps) <= 1e-12)):
        eps += 16.0 * np.spacing(max(1.0, eps))
    return SubdomainMask(bg.grid, f > -eps)


def check_h1(bg: Background, omega: SubdomainMask, tol: float = 1e-8) -> HypothesisReport:
    """Decide the eigenvalue condition; the size-condition fields stay unset."""
    require_same_grid(bg, omega)
    lam = dirichlet_eigen(bg, omega, tol=tol).lam
    f = bg.f.values
    inside = omega.inside
    sup_f = float(f[inside].max()) if inside.any() else -math.inf
    comp = ~inside
    max_f_comp = float(f[comp].max()) if comp.any() else -math.inf
    inf_absf = float(np.abs(f[comp]).min()) if comp.any() else math.inf
    holds = lam > 0.0 and max_f_comp < 0.0
    return HypothesisReport(lam, holds, sup_f, inf_absf)


def _smoothstep(s: np.ndarray) -> np.ndarray:
    # Quintic smoothstep: C^2 at both ends, monotone on [0, 1].
    s = np.clip(s, 0.0, 1.0)
    return s * s * s * (s * (6.0 * s - 15.0) + 10.0)


def _construction(
    bg: Background,
    omega: SubdomainMask,
    dilation: int,
    band: int,
    tol: float,
) -> tuple[ScalarField, float, float, float]:
    """Cutoff blend ``b = chi*phi0 + 1 - chi`` with its bounds and ``lambda_D``.

    ``chi`` is 1 on the one-cell dilation of omega (so the stencil at omega
    points only sees the pure eigenfunction), 0 outside ``D``, and a quintic
    smoothstep of the scaled grid distance over the ``band`` cells between.
    """
    if dilation < 1:
        raise ValueError(f"dilation must be >= 1, got {dilation}")
    if not 1 <= band <= dilation:
        raise ValueError(f"band must satisfy 1 <= band <= dilation, got {band}")
    grid = bg.grid
    if omega.is_empty:
        b = ScalarField.constant(grid, 1.0)
        m0 = 1.0
        m1 = float(np.abs(_conformal_values(bg, b.values)).max())
        return b, m0, m1, math.inf

    dmask = dilate(omega, dilation)
    eig = dirichlet_eigen(bg, dmask, tol=tol)
    dist = chebyshev_distance(omega, dilation).astype(np.float64)
    chi = _smoothstep((dilation + 1.0 - dist) / band)
    b_vals = chi * eig.phi.values + 1.0 - chi
    b = ScalarField(grid, b_vals)
    m0 = b.min()
    m1 = float(np.abs(_conformal_values(bg, b_vals)).max())
    return b, m0, m1, eig.lam


def _delta_window(
    bg: Background, sup_f: float, inf_absf: float, m0: float, m1: float, lambda_d: float
) -> tuple[float, float]:
    exp = 1.0 / (bg.big_n - 1.0)
    if math.isinf(inf_absf):
        delta_lo = 0.0
    else:
        delta_lo = (m1 * m0 ** (-bg.big_n) / inf_absf) ** exp
    if sup_f > 0.0:
        delta_hi = math.inf if math.isinf(lambda_d) else (lambda_d / sup_f) ** exp
    else:
        delta_hi = math.inf
    return delta_lo, delta_hi


def _c_omega(bg: Background, m0: float, m1: float, lambda_d: float) -> float:
    return math.inf if math.isinf(lambda_d) else lambda_d * m0**bg.big_n / m1


def evaluate_hypotheses(
    bg: Background,
    omega: SubdomainMask,
    dilation: int = 2,
    band: int = 2,
    tol: float = 1e-8,
) -> HypothesisReport:
    """Full report: eigenvalue condition plus the size condition via ``C_Omega``."""
    partial = check_h1(bg, omega, tol=tol)
    _b, m0, m1, lambda_d = _construction(bg, omega, dilation, band, tol)
    c_omega = _c_omega(bg, m0, m1, lambda_d)
    h2 = bool(partial.sup_f_omega <= c_omega * partial.inf_absf_complement)
    return replace(partial, c_omega=c_omega, h2_holds=h2)


def build_supersolution(
    bg: Background,
    omega: SubdomainMask,
    dilation: int = 2,
    band: int = 2,
    tol: float = 1e-8,
) -> SupersolutionCertificate:
    """Construct and pointwise-verify a supersolution trapped above the flow.

    The admissible scaling window is ``[delta_lo, delta_hi]`` with
    ``delta_lo^(N-1) = m1 * m0^(-N) / inf_outside |f|`` and
    ``delta_hi^(N-1) = lambda_D / sup_omega f`` (no upper constraint when
    ``sup_omega f <= 0``); ``delta`` is the geometric mean when the window
    is bounded, twice ``delta_lo`` otherwise.
    """
    report = check_h1(bg, omega, tol=tol)
    if not report.h1_holds:
        raise ValueError(
            "eigenvalue condition fails for omega "
            f"(lambda={report.lambda_omega:g}, max f outside={-report.inf_absf_complement:g})"
        )
    b, m0, m1, lambda_d = _construction(bg, omega, dilation, band, tol)
    delta_lo, delta_hi = _delta_window(
        bg, report.sup_f_omega, report.inf_absf_complement, m0, m1, lambda_d
    )
    if delta_lo > delta_hi:
        raise DeltaWindowEmptyError(delta_lo, delta_hi, _c_omega(bg, m0, m1, lambda_d))
    if math.isinf(delta_hi):
        delta = 2.0 * delta_lo if delta_lo > 0.0 else 1.0
    else:
        delta = math.sqrt(delta_lo * delta_hi) if delta_lo > 0.0 else 0.5 * delta_hi
    ubar = ScalarField(bg.grid, delta * b.values)
    min_l = verify_supersolution(bg, ubar)
    if min_l < -_MIN_L_TOL:
        raise RuntimeError(
            f"supersolution verification failed: min L(ubar) = {min_l:g} < -{_MIN_L_TOL:g}"
        )
    return SupersolutionCertificate(ubar, delta, m0, m1, lambda_d, min_l, delta_lo, delta_hi)


def verify_supersolution(bg: Background, ubar: ScalarField) -> float:
    """Pointwise minimum of ``-c_n Lap(ubar) + R0 ubar - f ubar^N``.

    Nonnegative (within tolerance) certifies that the curvature of the
    conformal metric built from ``ubar`` dominates ``f`` everywhere.
    """
    require_same_grid(bg, ubar)
    require_positive(ubar, "ubar")
    l_vals = _conformal_values(bg, ubar.values) - bg.f.values * ubar.values**bg.big_n
    return float(l_vals.min())
