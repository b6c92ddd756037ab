import math

import numpy as np
import pytest
import scipy.linalg

import yamabeflow as yf
from yamabeflow import spectral
from yamabeflow.errors import EigenConvergenceError
from yamabeflow.grid import SubdomainMask

from conftest import constant_background, unit_grid


def dense_masked_eigenpair(bg, mask):
    """Independent oracle: assemble the masked operator densely and call eigh.

    Rows/columns are restricted to mask points; couplings to outside points
    are dropped, which is exactly the Dirichlet (extend-by-zero) condition.
    """
    grid = bg.grid
    shape = grid.shape
    flat_idx = np.flatnonzero(mask.inside.ravel())
    pos = {int(fi): j for j, fi in enumerate(flat_idx)}
    k = len(flat_idx)
    mat = np.zeros((k, k))
    r0 = bg.r0.values.ravel()
    for j, fi in enumerate(flat_idx):
        idx = np.unravel_index(fi, shape)
        diag = r0[fi]
        for axis, h in enumerate(grid.spacings):
            diag += bg.c_n * 2.0 / (h * h)
            for shift in (-1, 1):
                nb = list(idx)
                nb[axis] = (nb[axis] + shift) % shape[axis]
                nb_flat = int(np.ravel_multi_index(nb, shape))
                if nb_flat in pos:
                    mat[j, pos[nb_flat]] -= bg.c_n / (h * h)
        mat[j, j] = diag
    vals, vecs = scipy.linalg.eigh(mat)
    phi = np.zeros(grid.num_points)
    phi[flat_idx] = vecs[:, 0]
    return float(vals[0]), phi.reshape(shape)


def ball_mask(grid, center, radius):
    coords = grid.meshgrid()
    d2 = np.zeros(grid.shape)
    for x, c, length in zip(coords, center, grid.lengths):
        d = np.abs(x - c)
        d = np.minimum(d, length - d)
        d2 += d * d
    return SubdomainMask(grid, d2 < radius * radius)


class TestAgainstDenseOracle:
    def test_ball_mask_8(self, bg8):
        mask = ball_mask(bg8.grid, (0.5, 0.5, 0.5), 0.3)
        result = yf.dirichlet_eigen(bg8, mask)
        lam_ref, phi_ref = dense_masked_eigenpair(bg8, mask)
        assert result.lam == pytest.approx(lam_ref, rel=1e-8)
        # Eigenfunction agrees up to scale: compare max-normalized copies.
        ref = np.abs(phi_ref) / np.abs(phi_ref).max()
        assert np.allclose(np.abs(result.phi.values), ref, atol=1e-6)

    def test_random_mask_8(self, grid8):
        bg = constant_background(grid8, r0=-3.0)
        rng = np.random.default_rng(42)
        inside = rng.random(grid8.shape) < 0.3
        inside[4, 4, 4] = True
        mask = SubdomainMask(grid8, inside)
        result = yf.dirichlet_eigen(bg, mask)
        lam_ref, _ = dense_masked_eigenpair(bg, mask)
        assert result.lam == pytest.approx(lam_ref, rel=1e-8)

    def test_variable_r0(self, grid8):
        rng = np.random.default_rng(9)
        r0 = yf.ScalarField(grid8, -1.0 - rng.random(grid8.shape))
        bg = yf.Background(grid8, r0, yf.ScalarField.constant(grid8, -1.0))
        mask = ball_mask(grid8, (0.25, 0.5, 0.75), 0.3)
        result = yf.dirichlet_eigen(bg, mask)
        lam_ref, _ = dense_masked_eigenpair(bg, mask)
        assert result.lam == pytest.approx(lam_ref, rel=1e-8)


class TestStructure:
    def test_empty_mask_convention(self, bg8):
        result = yf.dirichlet_eigen(bg8, SubdomainMask.empty(bg8.grid))
        assert math.isinf(result.lam)
        assert result.phi.max() == 0.0

    def test_full_mask_ground_state_is_constant_mode(self, grid8):
        bg = constant_background(grid8, r0=-2.0)
        result = yf.dirichlet_eigen(bg, SubdomainMask.full(grid8))
        assert result.lam == pytest.approx(-2.0, abs=1e-10)
        assert np.allclose(result.phi.values, 1.0, atol=1e-8)

    def test_eigenfunction_nonnegative_and_max_normalized(self, bg8):
        mask = ball_mask(bg8.grid, (0.5, 0.5, 0.5), 0.35)
        result = yf.dirichlet_eigen(bg8, mask)
        assert result.phi.values.min() >= -1e-12
        assert result.phi.max() == 1.0
        assert np.all(result.phi.values[~mask.inside] == 0.0)

    def test_residual_reported(self, bg8):
        mask = ball_mask(bg8.grid, (0.5, 0.5, 0.5), 0.3)
        result = yf.dirichlet_eigen(bg8, mask, tol=1e-8)
        lphi = yf.conformal_op(bg8, result.phi).values.copy()
        lphi[~mask.inside] = 0.0
        direct = float(np.abs(lphi - result.lam * result.phi.values).max())
        assert result.residual == pytest.approx(direct, rel=1e-12, abs=1e-15)

    def test_rejects_nonpositive_tol(self, bg8):
        with pytest.raises(ValueError):
            yf.dirichlet_eigen(bg8, SubdomainMask.full(bg8.grid), tol=0.0)

    def test_failed_inner_solve_raises(self, bg8, monkeypatch):
        def failing_cg(op, b, **kwargs):
            return b.copy(), 1

        monkeypatch.setattr(spectral, "cg", failing_cg)
        with pytest.raises(EigenConvergenceError, match="inner CG"):
            yf.dirichlet_eigen(bg8, ball_mask(bg8.grid, (0.5, 0.5, 0.5), 0.3))


class TestSlabAnalytic:
    def test_discrete_closed_form(self):
        # A slab of m interior planes is a 1-D Dirichlet chain; its lowest
        # discrete eigenvalue is c_n (2/h^2)(1 - cos(pi/(m+1))) + R0.
        g = unit_grid(8)
        bg = constant_background(g, r0=-1.0)
        x = g.meshgrid()[0]
        mask = SubdomainMask(g, (x > 0.25) & (x < 0.75))
        m = 3  # interior planes at 3/8, 4/8, 5/8
        h = g.spacings[0]
        expected = 8.0 * (2.0 / h**2) * (1.0 - math.cos(math.pi / (m + 1))) - 1.0
        result = yf.dirichlet_eigen(bg, mask)
        assert result.lam == pytest.approx(expected, rel=1e-9)

    def test_second_order_continuum_convergence(self):
        cont = 8.0 * math.pi**2 / 0.25 - 1.0
        errors = []
        for size in (8, 16, 32):
            g = unit_grid(size)
            bg = constant_background(g, r0=-1.0)
            x = g.meshgrid()[0]
            mask = SubdomainMask(g, (x > 0.25) & (x < 0.75))
            errors.append(abs(yf.dirichlet_eigen(bg, mask).lam - cont))
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 <= coarse / fine <= 4.5


class TestRayleigh:
    def test_reproduces_eigenvalue(self, bg8):
        mask = ball_mask(bg8.grid, (0.5, 0.5, 0.5), 0.3)
        result = yf.dirichlet_eigen(bg8, mask)
        q = yf.rayleigh_quotient(bg8, result.phi, mask)
        assert q == pytest.approx(result.lam, rel=1e-10)

    def test_upper_bound_for_admissible_test_function(self, bg8):
        mask = ball_mask(bg8.grid, (0.5, 0.5, 0.5), 0.35)
        lam = yf.dirichlet_eigen(bg8, mask).lam
        rng = np.random.default_rng(17)
        w_vals = np.where(mask.inside, rng.random(bg8.grid.shape) + 0.1, 0.0)
        q = yf.rayleigh_quotient(bg8, yf.ScalarField(bg8.grid, w_vals), mask)
        assert q >= lam - 1e-9

    def test_rejects_support_outside_mask(self, bg8):
        mask = ball_mask(bg8.grid, (0.5, 0.5, 0.5), 0.3)
        w = yf.ScalarField.constant(bg8.grid, 1.0)
        with pytest.raises(ValueError):
            yf.rayleigh_quotient(bg8, w, mask)

    def test_rejects_zero_function(self, bg8):
        mask = ball_mask(bg8.grid, (0.5, 0.5, 0.5), 0.3)
        with pytest.raises(ValueError):
            yf.rayleigh_quotient(bg8, yf.ScalarField.zeros(bg8.grid), mask)


def test_domain_monotonicity_sample(grid8):
    # Enlarging the domain can only lower the infimum of the quotient.
    bg = constant_background(grid8)
    rng = np.random.default_rng(23)
    for _ in range(5):
        center = tuple(rng.random(3))
        small = ball_mask(grid8, center, 0.2 + 0.1 * rng.random())
        if small.is_empty:
            continue
        big = yf.dilate(small, 1)
        lam_small = yf.dirichlet_eigen(bg, small).lam
        lam_big = yf.dirichlet_eigen(bg, big).lam
        assert lam_big <= lam_small + 1e-8
