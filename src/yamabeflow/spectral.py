"""Principal Dirichlet eigenpairs of the conformal Laplacian on masked subdomains.

Shifted inverse iteration, with CG on the operator assembled over the mask
points.  The operator is shifted below its spectrum (any shift under
``min R0 - 1`` works because the masked Laplacian part is positive
semidefinite), which makes it an SPD M-matrix; the M-matrix structure also
keeps the iterates nonnegative, so the returned eigenfunction is the
principal (nonnegative) one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import cg

from .errors import EigenConvergenceError
from .grid import ScalarField, SubdomainMask, _fsum, require_same_grid
from .operators import Background, _conformal_values, gradient_squared

__all__ = ["EigenResult", "dirichlet_eigen", "rayleigh_quotient"]

_MAX_OUTER = 500  # outer inverse iterations before EigenConvergenceError


@dataclass(frozen=True)
class EigenResult:
    """Smallest Dirichlet eigenvalue with its max-normalized eigenfunction."""

    lam: float
    phi: ScalarField
    residual: float
    iterations: int


def _masked_operator(bg: Background, mask: SubdomainMask) -> sparse.csr_array:
    """``-c_n Lap + R0`` on the mask points in row-major order, couplings to outside dropped."""
    k = int(np.count_nonzero(mask.inside))
    index = np.full(bg.grid.shape, -1)
    index[mask.inside] = np.arange(k)
    rows, cols, vals = [np.arange(k)], [np.arange(k)], [bg.r0.values[mask.inside]]
    for axis, h in enumerate(bg.grid.spacings):
        vals[0] = vals[0] + bg.c_n * 2.0 / (h * h)
        for shift in (-1, 1):
            nb = np.roll(index, shift, axis=axis)[mask.inside]
            rows.append(np.flatnonzero(nb >= 0))
            cols.append(nb[nb >= 0])
            vals.append(np.full(rows[-1].size, -bg.c_n / (h * h)))
    coords = (np.concatenate(rows), np.concatenate(cols))
    return sparse.csr_array((np.concatenate(vals), coords), shape=(k, k))


def dirichlet_eigen(bg: Background, mask: SubdomainMask, tol: float = 1e-8) -> EigenResult:
    """Smallest eigenpair of ``-c_n Lap + R0`` with zero values outside the mask.

    The empty mask returns ``lam = +inf`` by convention (infimum over an
    empty admissible set).  Non-convergence, of the inverse iteration or of
    an inner CG solve, raises, carrying the best residual reached.
    """
    require_same_grid(bg, mask)
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if mask.is_empty:
        return EigenResult(math.inf, ScalarField.zeros(bg.grid), 0.0, 0)

    lmat = _masked_operator(bg, mask)
    k = lmat.shape[0]
    shifted = lmat - (bg.r0.min() - 1.0) * sparse.eye_array(k, format="csr")

    x = np.full(k, 1.0 / math.sqrt(k))
    best_residual = math.inf
    for it in range(1, _MAX_OUTER + 1):
        y, info = cg(shifted, x, x0=x, rtol=1e-12, atol=0.0, maxiter=10 * k)
        if info != 0:
            raise EigenConvergenceError(f"inner CG solve failed (info {info}) at iteration {it}")
        norm = np.linalg.norm(y)
        if norm == 0.0:
            raise EigenConvergenceError("inverse iteration collapsed to zero")
        x = y / norm
        lx = lmat @ x
        lam = float(np.dot(x, lx))
        residual = float(np.abs(lx - lam * x).max() / np.abs(x).max())
        best_residual = min(best_residual, residual)
        # Scale the target by the eigenvalue size: the roundoff floor of the
        # operator application grows with |lam|.
        if residual <= tol * max(1.0, abs(lam)):
            break
    else:
        raise EigenConvergenceError(
            f"no convergence after {_MAX_OUTER} iterations "
            f"(best residual {best_residual:g}, tol {tol:g})"
        )

    x = -x if float(x.sum()) < 0.0 else x
    phi_vals = np.zeros(bg.grid.shape)
    phi_vals[mask.inside] = x / float(x.max())
    lphi = np.where(mask.inside, _conformal_values(bg, phi_vals) - lam * phi_vals, 0.0)
    residual = float(np.abs(lphi).max())
    return EigenResult(lam, ScalarField(bg.grid, phi_vals), residual, it)


def rayleigh_quotient(bg: Background, w: ScalarField, mask: SubdomainMask) -> float:
    """Quotient ``int(c_n |grad w|^2 + R0 w^2) / int(w^2)`` for ``w`` vanishing outside the mask.

    Uses the forward-difference gradient matched to the stencil, so the
    quotient of a computed eigenfunction reproduces its eigenvalue up to
    roundoff, and any admissible ``w`` gives a variational upper bound.
    """
    require_same_grid(bg, w)
    require_same_grid(bg, mask)
    outside = w.values[~mask.inside]
    if outside.size and float(np.abs(outside).max()) != 0.0:
        raise ValueError("w must vanish identically outside the mask")
    wsq = _fsum(w.values * w.values)
    if wsq == 0.0:
        raise ValueError("w must not be identically zero")
    num = _fsum(bg.c_n * gradient_squared(w) + bg.r0.values * w.values * w.values)
    return num / wsq
