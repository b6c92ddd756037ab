"""Principal Dirichlet eigenpairs of the conformal Laplacian on masked subdomains.

Matrix-free shifted inverse iteration: the operator is shifted below its
spectrum (any shift under ``min R0 - 1`` works because the masked Laplacian
part is positive semidefinite), which makes it an SPD M-matrix; each inverse
application is a conjugate-gradient solve restricted to the mask.  The
M-matrix structure also keeps the iterates nonnegative, so the returned
eigenfunction is the principal (nonnegative) one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg

from .errors import EigenConvergenceError
from .grid import ScalarField, SubdomainMask
from .operators import Background, _conformal_values, gradient_squared
from .grid import _fsum, require_same_grid

__all__ = ["EigenResult", "dirichlet_eigen", "rayleigh_quotient"]


@dataclass(frozen=True)
class EigenResult:
    """Smallest Dirichlet eigenvalue with its max-normalized eigenfunction."""

    lam: float
    phi: ScalarField
    residual: float
    iterations: int


def dirichlet_eigen(
    bg: Background,
    mask: SubdomainMask,
    tol: float = 1e-8,
    max_iter: int = 500,
) -> EigenResult:
    """Smallest eigenpair of ``-c_n Lap + R0`` with zero values outside the mask.

    The empty mask returns ``lam = +inf`` by convention (infimum over an
    empty admissible set).  Non-convergence, of the inverse iteration or of
    an inner CG solve, raises, carrying the best residual reached.
    """
    require_same_grid(bg, mask)
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if mask.is_empty:
        return EigenResult(math.inf, ScalarField.zeros(bg.grid), 0.0, 0)

    inside = mask.inside
    shape = bg.grid.shape
    npts = bg.grid.num_points
    sigma = bg.r0.min() - 1.0

    def apply_masked(flat: np.ndarray, shift: float = 0.0) -> np.ndarray:
        # L - shift on the mask, with values outside it taken as zero.
        v = flat.reshape(shape).copy()
        v[~inside] = 0.0
        out = _conformal_values(bg, v) - shift * v
        out[~inside] = 0.0
        return out.reshape(-1)

    op = LinearOperator((npts, npts), matvec=lambda x: apply_masked(x, sigma), dtype=np.float64)

    x = inside.astype(np.float64).reshape(-1)
    x /= np.linalg.norm(x)
    best_residual = math.inf
    lam = 0.0
    for it in range(1, max_iter + 1):
        y, info = cg(op, x, x0=x, rtol=1e-12, atol=0.0, maxiter=10 * npts)
        if info != 0:
            raise EigenConvergenceError(
                f"inner CG solve failed (info {info}) at iteration {it}", best_residual
            )
        y = y.reshape(shape)
        y[~inside] = 0.0
        y = y.reshape(-1)
        norm = np.linalg.norm(y)
        if norm == 0.0:
            raise EigenConvergenceError("inverse iteration collapsed to zero", best_residual)
        x = y / norm
        lx = apply_masked(x)
        lam = float(np.dot(x, lx))
        scale = float(np.abs(x).max())
        residual = float(np.abs(lx - lam * x).max()) / scale
        best_residual = min(best_residual, residual)
        # Scale the target by the eigenvalue size: the roundoff floor of the
        # stencil application grows with |lam|.
        if residual <= tol * max(1.0, abs(lam)):
            break
    else:
        raise EigenConvergenceError(
            f"no convergence after {max_iter} iterations "
            f"(best residual {best_residual:g}, tol {tol:g})",
            best_residual,
        )

    if float(x.sum()) < 0.0:
        x = -x
    phi_vals = (x / float(x.max())).reshape(shape)
    lphi = apply_masked(phi_vals.reshape(-1)).reshape(shape)
    residual = float(np.abs(lphi - lam * phi_vals).max())
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
