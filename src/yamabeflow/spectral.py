"""Principal Dirichlet eigenpairs of the conformal Laplacian on masked subdomains.

Noda-shifted inexact inverse iteration, with CG on the operator ``L`` assembled over the mask
points.  ``L`` is a symmetric Z-matrix (off-diagonal entries <= 0), and every solve runs on
``L - sigma`` with ``sigma`` strictly below its least eigenvalue ``lambda_1``, which makes the
solved operator an SPD M-matrix with a nonnegative inverse.  Inexact solves leave roundoff of
either sign where the principal eigenvector vanishes, off one component, so phi is clipped at 0.

The first shift is ``sigma_0 = min R0 - 1``, below the spectrum because the masked Laplacian part
is positive semidefinite.  After each iteration whose iterate ``x`` is strictly positive, the
Collatz--Wielandt quotient ``lo = min_i (L x)_i / x_i`` is a lower bound on ``lambda_1`` (pair
``L x`` with the nonnegative principal eigenvector) however accurate the solve that made ``x``,
and the next shift moves up to ``lo`` minus a margin of at least the gap to the Rayleigh quotient
``lambda``, and at least a relative ``_NODA_MARGIN`` of ``lambda - sigma_0`` (far above the
roundoff of ``lo``), so it stays strictly below ``lambda_1`` (Noda, Numer. Math. 17 (1971)).
Each iteration then cuts the error by ``(lambda_1 - sigma) / (lambda_2 - sigma)``, which shrinks
as ``sigma`` nears ``lambda_1``: two components with nearly equal eigenvalues separate quickly.

A solve need only be accurate relative to the iterate's own error (Golub and Ye, BIT 40 (2000)).
The first runs to a relative tolerance of ``_RTOL_LOOSE``; one after a positive iterate to
``_RTOL_FACTOR`` times its relative residual, clamped to ``[_RTOL_TIGHT, _RTOL_LOOSE]``; one after
an iterate that gives no bound to ``_RTOL_TIGHT``, so that the shift is not starved.  The stopping
rule reads each iterate's own residual, so the pair returned is as accurate as with exact solves.
Each solve sets the stored diagonal of one copy of ``L``, found once, to ``diag(L) - sigma`` in
place, then runs the module's ``cg`` from zero: scipy 1.17's plain CG operation for operation,
less the ``LinearOperator`` layers that cost a third of each iteration.  Called through the
module, a replaced ``spectral.cg`` sees every solve.  Only ``scipy.sparse`` loads, on the first
solve, so ``run``, ``resume`` and ``verify`` never import scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EigenConvergenceError
from .grid import ScalarField, SubdomainMask, _fsum, require_same_grid
from .operators import Background, _conformal_values

__all__ = ["EigenResult", "dirichlet_eigen", "rayleigh_quotient"]

_MAX_OUTER = 500  # outer inverse iterations before EigenConvergenceError
_NODA_MARGIN = 1e-6  # least gap from a Noda shift to its lower bound, relative to lambda - sigma_0
_RTOL_LOOSE = 1e-4  # inner CG tolerance of the first solve, and the loosest of any
_RTOL_FACTOR = 1e-2  # inner tolerance after a positive iterate, times its relative residual
_RTOL_TIGHT = 1e-12  # the tightest inner tolerance, and the one after a non-positive iterate


@dataclass(frozen=True)
class EigenResult:
    """Smallest Dirichlet eigenvalue with its max-normalized eigenfunction."""

    lam: float
    phi: ScalarField
    residual: float
    iterations: int


def cg(a, b, *, rtol, atol, maxiter, callback=None):
    """scipy 1.17's ``cg`` with no preconditioner, from ``x = 0``, operation for operation."""
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return b, 0
    stop = max(atol, rtol * bnorm)
    x, r, p, s = np.zeros_like(b), b.copy(), b.copy(), np.empty_like(b)
    for i in range(maxiter):
        rho = np.dot(r, r)
        if math.sqrt(rho) < stop:  # np.linalg.norm(r), bit for bit
            return x, 0
        if i > 0:
            p *= rho / rho_prev
            p += r
        q = a @ p
        alpha = rho / np.dot(p, q)
        x += np.multiply(p, alpha, out=s)
        r -= np.multiply(q, alpha, out=s)
        rho_prev = rho
        if callback is not None:
            callback(x)
    return x, maxiter


def _masked_operator(bg: Background, mask: SubdomainMask):
    """``-c_n Lap + R0`` on the mask points in row-major order, couplings to outside dropped."""
    from scipy import sparse
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
    empty admissible set).  Each solve after the first is Noda-shifted to
    just below the Collatz--Wielandt bound of the last iterate (module
    docstring); an iterate with a zero or negative entry gives no bound and
    keeps the shift it was solved with.  Non-convergence, of the inverse
    iteration or of an inner CG solve, raises, carrying the best residual
    reached.
    """
    require_same_grid(bg, mask)
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if mask.is_empty:
        return EigenResult(math.inf, ScalarField.zeros(bg.grid), 0.0, 0)

    lmat = _masked_operator(bg, mask)
    k = lmat.shape[0]
    dpos = np.flatnonzero(lmat.indices == np.repeat(np.arange(k), np.diff(lmat.indptr)))
    shifted, diag = lmat.copy(), lmat.data[dpos]
    sigma0 = shift = bg.r0.min() - 1.0

    x = np.full(k, 1.0 / math.sqrt(k))
    best_residual, rtol = math.inf, _RTOL_LOOSE
    for it in range(1, _MAX_OUTER + 1):
        shifted.data[dpos] = diag - shift
        y, info = cg(shifted, x, rtol=rtol, atol=0.0, maxiter=10 * k)
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
        rtol = _RTOL_TIGHT
        if x.min() > 0.0:
            lo = float((lx / x).min())
            shift = max(sigma0, lo - max(lam - lo, _NODA_MARGIN * (lam - sigma0)))
            rtol = min(max(_RTOL_FACTOR * residual / max(1.0, abs(lam)), _RTOL_TIGHT), _RTOL_LOOSE)
    else:
        raise EigenConvergenceError(
            f"no convergence after {_MAX_OUTER} iterations "
            f"(best residual {best_residual:g}, tol {tol:g})"
        )

    x = np.maximum(-x if float(x.sum()) < 0.0 else x, 0.0)
    phi_vals = np.zeros(bg.grid.shape)
    phi_vals[mask.inside] = x / float(x.max())
    lphi = np.where(mask.inside, _conformal_values(bg, phi_vals) - lam * phi_vals, 0.0)
    residual = float(np.abs(lphi).max())
    return EigenResult(lam, ScalarField(bg.grid, phi_vals), residual, it)


def rayleigh_quotient(bg: Background, w: ScalarField, mask: SubdomainMask) -> float:
    """Quotient ``int(c_n |grad w|^2 + R0 w^2) / int(w^2)`` for ``w`` vanishing outside the mask.

    The Dirichlet form is read through the stencil as ``int(w L0 w)``, by
    summation by parts, so the quotient of a computed eigenfunction
    reproduces its eigenvalue up to roundoff, and any admissible ``w`` gives
    a variational upper bound.
    """
    require_same_grid(bg, w)
    require_same_grid(bg, mask)
    outside = w.values[~mask.inside]
    if outside.size and float(np.abs(outside).max()) != 0.0:
        raise ValueError("w must vanish identically outside the mask")
    wsq = _fsum(w.values * w.values)
    if wsq == 0.0:
        raise ValueError("w must not be identically zero")
    return _fsum(w.values * _conformal_values(bg, w.values)) / wsq
