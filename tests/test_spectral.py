import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

import yamabeflow as yf
from yamabeflow import spectral
from yamabeflow.errors import EigenConvergenceError
from yamabeflow.grid import SubdomainMask

from conftest import constant_background, slab_background, two_bump_background, unit_grid


def dense_masked_operator(bg, mask):
    """Independent oracle: assemble the masked operator densely, point by point.

    Rows/columns are restricted to mask points; couplings to outside points
    are dropped, which is exactly the Dirichlet (extend-by-zero) condition.
    Returns the matrix and the flat grid indices of its rows.
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
    return mat, flat_idx


def dense_masked_eigenpair(bg, mask):
    """Oracle eigenpair: ``eigh`` on the dense masked operator."""
    mat, flat_idx = dense_masked_operator(bg, mask)
    vals, vecs = scipy.linalg.eigh(mat)
    phi = np.zeros(bg.grid.num_points)
    phi[flat_idx] = vecs[:, 0]
    return float(vals[0]), phi.reshape(bg.grid.shape)


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

    @pytest.mark.parametrize("n, size", [(3, 8), (3, 12), (4, 6)], ids=["8^3", "12^3", "6^4"])
    def test_random_masks_phi_is_nonnegative(self, n, size):
        """Random masks, nearly all of several components, filled U(0.1, 0.6) on R0 = -1 - U(0, 1).

        The principal eigenvector vanishes off one component, where the iterates leave roundoff
        of either sign; before phi was clipped at zero, seeds 1 and 17 (8^3), 3, 4 and 11 (12^3)
        and 0 (6^4) returned negative entries.
        """
        g = unit_grid(size, n)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            r0 = yf.ScalarField(g, -1.0 - rng.random(g.shape))
            bg = yf.Background(g, r0, yf.ScalarField.constant(g, -1.0))
            mask = SubdomainMask(g, rng.random(g.shape) < rng.uniform(0.1, 0.6))
            result = yf.dirichlet_eigen(bg, mask)
            lam_ref = scipy.linalg.eigvalsh(dense_masked_operator(bg, mask)[0])[0]
            assert result.phi.values.min() >= 0.0, seed
            assert result.lam == pytest.approx(lam_ref, rel=1e-10), seed


class TestAssembledOperator:
    """The sparse operator the eigen solve runs on equals the dense oracle's matrix."""

    @staticmethod
    def assert_matches_oracle(bg, mask):
        mat, _ = dense_masked_operator(bg, mask)
        assembled = spectral._masked_operator(bg, mask)
        assert assembled.shape == mat.shape
        assert np.array_equal(assembled.toarray(), mat)

    def test_ball_mask_8(self, bg8):
        self.assert_matches_oracle(bg8, ball_mask(bg8.grid, (0.5, 0.5, 0.5), 0.3))

    def test_random_mask_8(self, grid8):
        rng = np.random.default_rng(42)
        mask = SubdomainMask(grid8, rng.random(grid8.shape) < 0.3)
        self.assert_matches_oracle(constant_background(grid8, r0=-3.0), mask)

    def test_variable_r0(self, grid8):
        rng = np.random.default_rng(9)
        r0 = yf.ScalarField(grid8, -1.0 - rng.random(grid8.shape))
        bg = yf.Background(grid8, r0, yf.ScalarField.constant(grid8, -1.0))
        self.assert_matches_oracle(bg, ball_mask(grid8, (0.25, 0.5, 0.75), 0.3))


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

    def test_full_mask_24_is_cheap_and_constant(self):
        # The constant mode is an exact eigenvector, so CG on the assembled
        # operator finishes at once; a direct factorization of this 13824-point
        # operator would take seconds.
        g = unit_grid(24)
        bg = constant_background(g, r0=-2.0)
        result = yf.dirichlet_eigen(bg, SubdomainMask.full(g))
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

    def test_rejects_nan_tol(self, bg8):
        with pytest.raises(ValueError, match="tol must be positive"):
            yf.dirichlet_eigen(bg8, SubdomainMask.full(bg8.grid), tol=math.nan)

    def test_failed_inner_solve_raises(self, bg8, monkeypatch):
        """A solve that reports failure, and one that reports success with a zero iterate."""
        cases = ((lambda op, b, **kwargs: (b.copy(), 1), "inner CG solve failed"),
                 (lambda op, b, **kwargs: (np.zeros_like(b), 0), "collapsed to zero"))
        for failing_cg, message in cases:
            monkeypatch.setattr(spectral, "cg", failing_cg)
            with pytest.raises(EigenConvergenceError, match=message):
                yf.dirichlet_eigen(bg8, ball_mask(bg8.grid, (0.5, 0.5, 0.5), 0.3))

    def test_unreachable_tol_raises_after_max_iterations(self, bg8):
        """No residual reaches 1e-300: the outer loop runs out, naming its best residual."""
        mask = ball_mask(bg8.grid, (0.5, 0.5, 0.5), 0.3)
        assert mask.count == 57
        with pytest.raises(EigenConvergenceError, match="no convergence after 500 iterations"):
            yf.dirichlet_eigen(bg8, mask, tol=1e-300)


def ball_57():
    bg = constant_background(unit_grid(8))
    return bg, ball_mask(bg.grid, (0.5, 0.5, 0.5), 0.3)


def ball_1045():
    """The ``certify-ball`` benchmark's ball: radius 0.2 on the 32^3 unit grid."""
    bg = constant_background(unit_grid(32))
    return bg, ball_mask(bg.grid, (0.5, 0.5, 0.5), 0.2)


class TestNodaShift:
    """Each solve is shifted up to just below lambda_1, never across it."""

    @pytest.mark.parametrize(
        "case", [ball_57, two_bump_background, lambda: slab_background(-0.5)],
        ids=["ball_57", "two_bump", "slab_384"],
    )
    def test_every_solved_operator_is_positive_definite(self, case, monkeypatch):
        bg, mask = case()
        solved, cg = [], spectral.cg

        def recording_cg(op, b, **kwargs):
            solved.append(op.toarray())
            return cg(op, b, **kwargs)

        monkeypatch.setattr(spectral, "cg", recording_cg)
        result = yf.dirichlet_eigen(bg, mask)
        assert len(solved) == result.iterations
        for op in solved:
            assert np.linalg.eigvalsh(op).min() > 0.0

    @pytest.mark.parametrize(
        "case, inner, outer, lam",
        [(ball_57, 36, 6, 680.5598404208876), (two_bump_background, 34, 8, 1816.00791897896),
         (lambda: slab_background(-0.5), 12, 4, 0.5844981135612947),
         (ball_1045, 76, 5, 1838.8972113490313)],
        ids=["ball_57", "two_bump", "slab_384", "ball_1045"],
    )
    def test_deterministic_work_is_pinned(self, case, inner, outer, lam, monkeypatch):
        """The inner CG iterations, summed over one solve, the outer iterations and lambda.

        Each inner solve starts from zero.  With every inner tolerance at 1e-12 they took 40, 42,
        18 and 148, and lambda was the pinned value; from the last iterate they took 62, 40 and 32.
        """
        bg, mask = case()
        iterations, cg = [], spectral.cg

        def counting_cg(op, b, **kwargs):
            return cg(op, b, callback=iterations.append, **kwargs)

        monkeypatch.setattr(spectral, "cg", counting_cg)
        result = yf.dirichlet_eigen(bg, mask)
        assert result.iterations == outer
        assert len(iterations) <= inner
        assert result.lam == pytest.approx(lam, rel=1e-12)

    def test_ball_converges_in_few_iterations(self):
        # At the fixed shift min R0 - 1 this ball takes 17 outer iterations.
        bg, mask = ball_57()
        assert mask.count == 57
        assert yf.dirichlet_eigen(bg, mask).iterations <= 8

    def test_two_bump_omega_converges(self):
        """Two components 5e-4 apart in eigenvalue ratio: the fixed shift stalled at 500 iterations."""
        bg, mask = two_bump_background()
        assert mask.count == 14
        lam_ref = np.linalg.eigvalsh(dense_masked_operator(bg, mask)[0]).min()
        assert lam_ref == pytest.approx(1816.00791898, rel=1e-10)
        assert yf.dirichlet_eigen(bg, mask).lam == pytest.approx(lam_ref, rel=1e-10)


class TestCG:
    """``spectral.cg`` is scipy's unpreconditioned CG from a zero start, bit for bit."""

    @staticmethod
    def solve(cg, op, b, maxiter):
        iterates = []
        x, info = cg(op, b, rtol=1e-12, atol=0.0, maxiter=maxiter, callback=iterates.append)
        return x, info, len(iterates)

    @pytest.mark.parametrize(
        "case, points",
        [(ball_57, 57), (two_bump_background, 14), (lambda: slab_background(-0.5), 384),
         (ball_1045, 1045)],
        ids=["ball_57", "two_bump", "slab_384", "ball_1045"],
    )
    @pytest.mark.parametrize("near", [False, True], ids=["sigma0", "below_lambda1"])
    def test_matches_scipy(self, case, points, near):
        """The operator shifted by sigma_0, or just below lambda_1, and a fixed right-hand side."""
        bg, mask = case()
        lmat = spectral._masked_operator(bg, mask)
        k = lmat.shape[0]
        assert k == points
        shift = sigma0 = bg.r0.min() - 1.0
        if near:
            lam = yf.dirichlet_eigen(bg, mask).lam
            shift = lam - 1e-3 * (lam - sigma0)
        op = lmat - shift * scipy.sparse.eye_array(k, format="csr")
        b = np.random.default_rng(5).random(k)
        x, info, calls = self.solve(spectral.cg, op, b, 10 * k)
        x_ref, info_ref, calls_ref = self.solve(scipy.sparse.linalg.cg, op, b, 10 * k)
        assert (info, calls) == (info_ref, calls_ref) and info == 0 and calls > 0
        assert x.tobytes() == x_ref.tobytes()

    def test_iteration_limit_returns_the_count(self):
        bg, mask = ball_57()
        op = spectral._masked_operator(bg, mask)
        b = np.random.default_rng(5).random(op.shape[0])
        x, info, calls = self.solve(spectral.cg, op, b, 3)
        x_ref, info_ref, _ = self.solve(scipy.sparse.linalg.cg, op, b, 3)
        assert info == info_ref == calls == 3
        assert x.tobytes() == x_ref.tobytes()

    def test_zero_right_hand_side_is_solved_at_once(self):
        bg, mask = ball_57()
        op = spectral._masked_operator(bg, mask)
        x, info, calls = self.solve(spectral.cg, op, np.zeros(op.shape[0]), 10)
        assert (info, calls) == (0, 0)
        assert np.array_equal(x, np.zeros(op.shape[0]))


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
