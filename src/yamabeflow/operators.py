"""Discrete conformal-geometry operators on a periodic grid.

The background metric is flat; its scalar curvature ``R0`` is treated as
free negative data, since every statement under test only uses the PDE
structure of ``-c_n * Laplacian + R0`` with ``R0 < 0``.

All stencils are second-order central differences written as a backward
divergence of forward differences, so that summation by parts (and hence
the discrete Green identity and the dissipation identity) holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PositivityError
from .grid import GridSpec, ScalarField, _first_bad_index, _fsum, require_same_grid

__all__ = [
    "Background",
    "laplacian",
    "conformal_op",
    "scalar_curvature",
    "laplacian_g",
    "energy",
    "stationary_residual",
]


@dataclass(frozen=True)
class Background:
    """Grid plus curvature data: background ``R0 < 0`` and target ``f``."""

    grid: GridSpec
    r0: ScalarField
    f: ScalarField

    def __post_init__(self):
        require_same_grid(self, self.r0)
        require_same_grid(self, self.f)
        if self.r0.max() >= 0.0:
            flat, multi = _first_bad_index(self.r0.values >= 0.0)
            raise ValueError(
                f"R0 must be negative everywhere; R0={self.r0.values.reshape(-1)[flat]:g} "
                f"at flat index {flat} {multi}"
            )

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def c_n(self) -> float:
        return 4.0 * (self.n - 1) / (self.n - 2)

    @property
    def big_n(self) -> float:
        """Critical exponent (n+2)/(n-2)."""
        return (self.n + 2.0) / (self.n - 2.0)


def require_positive(u: ScalarField, what: str = "u"):
    if u.values.min() <= 0.0:
        flat, multi = _first_bad_index(u.values <= 0.0)
        raise PositivityError(
            f"{what} must be positive everywhere; {what}="
            f"{u.values.reshape(-1)[flat]:g} at flat index {flat} {multi}"
        )


def _laplacian_values(v: np.ndarray, spacings) -> np.ndarray:
    out = np.zeros_like(v)
    for axis, h in enumerate(spacings):
        dp = np.roll(v, -1, axis=axis) - v
        out += (dp - np.roll(dp, 1, axis=axis)) / (h * h)
    return out


def _conformal_values(bg: Background, v: np.ndarray) -> np.ndarray:
    return -bg.c_n * _laplacian_values(v, bg.grid.spacings) + bg.r0.values * v


def _curvature_values(bg: Background, uv: np.ndarray) -> np.ndarray:
    return uv ** (-bg.big_n) * _conformal_values(bg, uv)


def laplacian(w: ScalarField) -> ScalarField:
    """Second-order periodic Laplacian of the background metric."""
    return ScalarField(w.grid, _laplacian_values(w.values, w.grid.spacings))


def conformal_op(bg: Background, w: ScalarField) -> ScalarField:
    """Conformal Laplacian ``-c_n * Laplacian(w) + R0 * w``."""
    require_same_grid(bg, w)
    return ScalarField(w.grid, _conformal_values(bg, w.values))


def scalar_curvature(bg: Background, u: ScalarField) -> ScalarField:
    """Scalar curvature of the metric with conformal factor ``u > 0``."""
    require_same_grid(bg, u)
    require_positive(u)
    return ScalarField(u.grid, _curvature_values(bg, u.values))


def _laplacian_g_values(bg: Background, uv: np.ndarray, wv: np.ndarray) -> np.ndarray:
    # Divergence form with face-averaged u^2; reduces bitwise to the flat
    # Laplacian for u == 1 because the face coefficients are exactly 1.0.
    # The backward flux is the forward one rolled by one cell.
    u2 = uv * uv
    out = np.zeros_like(wv)
    for axis, h in enumerate(bg.grid.spacings):
        flux = 0.5 * (u2 + np.roll(u2, -1, axis=axis)) * (np.roll(wv, -1, axis=axis) - wv)
        out += (flux - np.roll(flux, 1, axis=axis)) / (h * h)
    return uv ** (-(bg.big_n + 1.0)) * out


def laplacian_g(bg: Background, u: ScalarField, w: ScalarField) -> ScalarField:
    """Laplacian of the conformal metric, in divergence form."""
    require_same_grid(bg, u)
    require_same_grid(bg, w)
    require_positive(u)
    return ScalarField(w.grid, _laplacian_g_values(bg, u.values, w.values))


def gradient_squared(w: ScalarField) -> np.ndarray:
    """Per-cell sum over axes of squared forward differences."""
    out = np.zeros_like(w.values)
    for axis, h in enumerate(w.grid.spacings):
        d = (np.roll(w.values, -1, axis=axis) - w.values) / h
        out += d * d
    return out


def energy(bg: Background, u: ScalarField) -> float:
    """Curvature-prescription energy of the conformal factor ``u``.

    ``integral(c_n |grad u|^2 + R0 u^2 - ((n-2)/n) f u^(2n/(n-2)))`` against
    the background volume element; nonincreasing along the flow.
    """
    require_same_grid(bg, u)
    require_positive(u)
    uv = u.values
    density = (
        bg.c_n * gradient_squared(u)
        + bg.r0.values * uv * uv
        - ((bg.n - 2.0) / bg.n) * bg.f.values * uv ** (bg.big_n + 1.0)
    )
    return _fsum(density) * bg.grid.cell_volume


def stationary_residual(bg: Background, u: ScalarField) -> float:
    """Max-norm defect of the stationary curvature equation at ``u``.

    Zero exactly when ``u`` solves the discrete prescribed-curvature
    equation ``-c_n Lap(u) + R0 u = f u^N``.
    """
    require_same_grid(bg, u)
    require_positive(u)
    defect = _conformal_values(bg, u.values) - bg.f.values * u.values ** bg.big_n
    return float(np.abs(defect).max())
