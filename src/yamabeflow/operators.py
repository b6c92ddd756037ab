"""Discrete conformal-geometry operators on a periodic grid.

The background metric is flat; its scalar curvature ``R0`` is treated as
free negative data, since every statement under test only uses the PDE
structure of ``-c_n * Laplacian + R0`` with ``R0 < 0``.

All stencils are second-order central differences written as a backward
divergence of forward differences, so that summation by parts (and hence
the discrete Green identity and the dissipation identity) holds exactly.
So the Dirichlet form ``int(c_n |grad w|^2 + R0 w^2)`` is read through the
conformal Laplacian ``L0`` alone, as ``int(w L0 w)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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

    # Read on every stage of every step, so each is computed once per background.
    @cached_property
    def n(self) -> int:
        return self.grid.n

    @cached_property
    def c_n(self) -> float:
        return 4.0 * (self.n - 1) / (self.n - 2)

    @cached_property
    def big_n(self) -> float:
        """Critical exponent (n+2)/(n-2)."""
        return (self.n + 2.0) / (self.n - 2.0)


def require_positive(u: ScalarField, what: str = "u"):
    if np.minimum.reduce(u.values, None) <= 0.0:
        flat, multi = _first_bad_index(u.values <= 0.0)
        raise PositivityError(
            f"{what} must be positive everywhere; {what}="
            f"{u.values.reshape(-1)[flat]:g} at flat index {flat} {multi}"
        )


def _periodic_diff(v: np.ndarray, axis: int, backward=False, op=np.subtract) -> np.ndarray:
    """``op(v[i+1], v[i])`` at each i of the periodic ``axis``, or at i+1 when ``backward``.

    So the forward difference by default, the backward one ``v[i] - v[i-1]`` with ``backward``,
    and the face sum with ``op=np.add``.  One contiguous ``op`` over the flat array pairs each
    point with the one a stride ahead; then the wrap face, where that pairing runs into the next
    row, is redone.  Every entry is the one IEEE operation of the ``np.roll`` form, bit for bit.
    """
    v = np.ascontiguousarray(v)
    out = np.empty_like(v)
    s = math.prod(v.shape[axis + 1 :])
    flat, flat_out = v.ravel(), out.ravel()
    op(flat[s:], flat[:-s], out=flat_out[s:] if backward else flat_out[:-s])
    face = (slice(None),) * axis
    op(v[face + (0,)], v[face + (-1,)], out=out[face + (0 if backward else -1,)])
    return out


class _StencilPlan:
    """A grid's views for ``_laplacian_values``, built once: the scratch pair ``fwd``, ``bwd``
    (C-contiguous, of the grid's shape, fresh when not given; it holds nothing a caller keeps)
    and, per axis, the flat stride ``s``, the wrap faces' indices, ``h*h`` and the views of the
    pair that the axis's two differences write and read."""

    __slots__ = ("scratch", "axes")

    def __init__(self, grid: GridSpec, scratch=None):
        shape = grid.shape
        fwd, bwd = scratch if scratch is not None else (np.empty(shape) for _ in range(2))
        self.scratch = fwd, bwd
        flat_fwd, flat_bwd = fwd.reshape(-1), bwd.reshape(-1)
        self.axes = []
        for axis, h in enumerate(grid.spacings):
            s = math.prod(shape[axis + 1 :])
            lo, hi = (slice(None),) * axis + (0,), (slice(None),) * axis + (-1,)
            self.axes.append((s, lo, hi, h * h, flat_fwd[s:], flat_fwd[:-s], flat_bwd[s:],
                              fwd[lo], fwd[hi], bwd[lo]))


def _laplacian_values(v: np.ndarray, plan: _StencilPlan, out=None) -> np.ndarray:
    """Flat Laplacian of ``v`` into ``out`` (fresh when not given).  Per axis, the plan's views
    take ``_periodic_diff``'s forward difference of ``v`` into ``fwd`` and its backward
    difference of ``fwd`` into ``bwd``: the same IEEE operations, bit for bit.  The first axis's
    term is written straight into ``out``, so a zero whose every term is -0.0 keeps that sign."""
    flat = v.reshape(-1)  # a view when v is C-contiguous, else a C-order copy
    bwd = plan.scratch[1]
    for axis, views in enumerate(plan.axes):
        s, lo, hi, hh, fwd_ahead, fwd_behind, bwd_ahead, fwd_lo, fwd_hi, bwd_lo = views
        np.subtract(flat[s:], flat[:-s], out=fwd_behind)
        np.subtract(v[lo], v[hi], out=fwd_hi)
        np.subtract(fwd_ahead, fwd_behind, out=bwd_ahead)
        np.subtract(fwd_lo, fwd_hi, out=bwd_lo)
        if axis == 0:
            out = np.divide(bwd, hh, out=out)
        else:
            out += np.divide(bwd, hh, out=bwd)
    return out


def _conformal_values(bg: Background, v: np.ndarray, out=None, plan=None) -> np.ndarray:
    plan = plan if plan is not None else _StencilPlan(bg.grid)
    out = _laplacian_values(v, plan, out)
    out *= -bg.c_n
    out += np.multiply(bg.r0.values, v, out=plan.scratch[0])
    return out


def _power(x: np.ndarray, p: float, out=None) -> np.ndarray:
    """``x**p`` into ``out`` (fresh when not given, never ``x``) for ``x >= 0``: by products and,
    for a half power, one ``np.sqrt`` when ``2p`` is a whole number from 3 to 13, within a few
    ulp of ``np.power`` and a few times faster; otherwise by ``np.power`` itself, bit for bit."""
    twice = 2.0 * p
    if not (3.0 <= twice <= 13.0 and twice.is_integer()):
        return np.power(x, p, out=out)
    k, half = divmod(int(twice), 2)
    acc = x
    for bit in bin(k)[3:]:  # left-to-right binary powering: square, and times x on a set bit
        acc = out = np.multiply(acc, acc, out=out)
        if bit == "1":
            acc *= x
    return np.multiply(acc, np.sqrt(x), out=out) if half else acc


def _curvature_values(bg: Background, uv: np.ndarray, conf=None, out=None, un=None) -> np.ndarray:
    # ``R_g = L0 u / u^N`` into ``out``, or over ``un`` when the caller holds ``u^N`` there;
    # ``conf``: ``L0 u``, when the caller holds it.
    out = _power(uv, bg.big_n, out) if un is None else un
    return np.divide(conf if conf is not None else _conformal_values(bg, uv), out, out=out)


def laplacian(w: ScalarField) -> ScalarField:
    """Second-order periodic Laplacian of the background metric."""
    return ScalarField(w.grid, _laplacian_values(w.values, _StencilPlan(w.grid)))


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
    return _power(uv, -(bg.big_n + 1.0)) * out


def laplacian_g(bg: Background, u: ScalarField, w: ScalarField) -> ScalarField:
    """Laplacian of the conformal metric, in divergence form."""
    require_same_grid(bg, u)
    require_same_grid(bg, w)
    require_positive(u)
    return ScalarField(w.grid, _laplacian_g_values(bg, u.values, w.values))


def energy(bg: Background, u: ScalarField, conf=None, weight=None) -> float:
    """Curvature-prescription energy of the conformal factor ``u``.

    ``integral(c_n |grad u|^2 + R0 u^2 - ((n-2)/n) f u^(2n/(n-2)))`` against
    the background volume element; nonincreasing along the flow.  Its Dirichlet
    form is read as ``u L0 u``, by summation by parts.  A caller that holds
    ``L0 u`` or the weight ``u^(N+1)`` passes them as ``conf`` and ``weight``.
    """
    require_same_grid(bg, u)
    require_positive(u)
    uv = u.values
    if conf is None:
        conf = _conformal_values(bg, uv)
    if weight is None:
        weight = _power(uv, bg.big_n) * uv
    density = uv * conf - ((bg.n - 2.0) / bg.n) * bg.f.values * weight
    return _fsum(density) * bg.grid.cell_volume


def stationary_residual(bg: Background, u: ScalarField) -> float:
    """Max-norm defect of the stationary curvature equation at ``u``.

    Zero exactly when ``u`` solves the discrete prescribed-curvature
    equation ``-c_n Lap(u) + R0 u = f u^N``.
    """
    require_same_grid(bg, u)
    require_positive(u)
    return float(np.abs(_stationary_defect(bg, u.values)).max())


def _stationary_defect(bg: Background, uv: np.ndarray) -> np.ndarray:
    """``L0 u - f u^N``, zero where ``u`` solves the stationary curvature equation."""
    return _conformal_values(bg, uv) - bg.f.values * _power(uv, bg.big_n)
