"""Discrete conformal-geometry operators on a periodic grid.

The background metric is flat; its scalar curvature ``R0`` is treated as
free negative data, since every statement under test only uses the PDE
structure of ``-c_n * Laplacian + R0`` with ``R0 < 0``.

All stencils are second-order central differences written as a backward
divergence of forward differences, so that summation by parts (and hence
the discrete Green identity and the dissipation identity) holds exactly.
"""

from __future__ import annotations

import math
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


def _periodic_diff(v: np.ndarray, axis: int, backward: bool = False, op=np.subtract) -> np.ndarray:
    """``op(v[i+1], v[i])`` at each i of the periodic ``axis``, or at i+1 when ``backward``.

    So the forward difference by default, the backward one ``v[i] - v[i-1]``
    with ``backward``, and the face sum with ``op=np.add``.  One contiguous
    ``op`` over the flat array pairs each point with the one a stride ahead;
    then the wrap face, where that pairing runs into the next row, is redone.
    Every entry is the one IEEE operation of the ``np.roll`` form, bit for bit.
    """
    v = np.ascontiguousarray(v)
    out = np.empty_like(v)
    s = math.prod(v.shape[axis + 1 :])
    flat, flat_out = v.ravel(), out.ravel()
    op(flat[s:], flat[:-s], out=flat_out[s:] if backward else flat_out[:-s])
    face = (slice(None),) * axis
    op(v[face + (0,)], v[face + (-1,)], out=out[face + (0 if backward else -1,)])
    return out


def _laplacian_values(v: np.ndarray, spacings, diffs=None) -> np.ndarray:
    # ``diffs``: the forward differences of ``v``, when the caller holds them.
    out = np.zeros_like(v)
    for axis, h in enumerate(spacings):
        dp = diffs[axis] if diffs is not None else _periodic_diff(v, axis)
        out += _periodic_diff(dp, axis, backward=True) / (h * h)
    return out


def _conformal_values(bg: Background, v: np.ndarray, diffs=None) -> np.ndarray:
    return -bg.c_n * _laplacian_values(v, bg.grid.spacings, diffs) + bg.r0.values * v


def _curvature_values(bg: Background, uv: np.ndarray, diffs=None) -> np.ndarray:
    return uv ** (-bg.big_n) * _conformal_values(bg, uv, diffs)


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
    # The backward flux is the forward one a cell back.
    u2 = uv * uv
    out = np.zeros_like(wv)
    for axis, h in enumerate(bg.grid.spacings):
        flux = 0.5 * _periodic_diff(u2, axis, op=np.add) * _periodic_diff(wv, axis)
        out += _periodic_diff(flux, axis, backward=True) / (h * h)
    return uv ** (-(bg.big_n + 1.0)) * out


def laplacian_g(bg: Background, u: ScalarField, w: ScalarField) -> ScalarField:
    """Laplacian of the conformal metric, in divergence form."""
    require_same_grid(bg, u)
    require_same_grid(bg, w)
    require_positive(u)
    return ScalarField(w.grid, _laplacian_g_values(bg, u.values, w.values))


def gradient_squared(w: ScalarField, diffs=None) -> np.ndarray:
    """Per-cell sum over axes of squared forward differences.

    ``diffs`` are the forward differences of ``w``, when the caller holds them.
    """
    out = np.zeros_like(w.values)
    for axis, h in enumerate(w.grid.spacings):
        d = (diffs[axis] if diffs is not None else _periodic_diff(w.values, axis)) / h
        out += d * d
    return out


def energy(bg: Background, u: ScalarField, diffs=None, weight=None) -> float:
    """Curvature-prescription energy of the conformal factor ``u``.

    ``integral(c_n |grad u|^2 + R0 u^2 - ((n-2)/n) f u^(2n/(n-2)))`` against
    the background volume element; nonincreasing along the flow.  A caller
    that holds the forward differences of ``u`` or its weight ``u^(N+1)``
    passes them as ``diffs`` and ``weight``.
    """
    require_same_grid(bg, u)
    require_positive(u)
    uv = u.values
    if weight is None:
        weight = uv ** (bg.big_n + 1.0)
    density = (
        bg.c_n * gradient_squared(u, diffs)
        + bg.r0.values * uv * uv
        - ((bg.n - 2.0) / bg.n) * bg.f.values * weight
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
