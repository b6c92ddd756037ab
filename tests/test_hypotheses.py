import math

import numpy as np
import pytest

import yamabeflow as yf
from yamabeflow import hypotheses, spectral
from yamabeflow.errors import DeltaWindowEmptyError, GridMismatchError
from yamabeflow.grid import SubdomainMask

from conftest import (
    constant_background,
    periodic_gaussian,
    slab_background,
    trapped_bump_background,
    unit_grid,
)


class TestSuperlevelMask:
    def test_basic_threshold(self, grid8):
        f = yf.ScalarField(grid8, -1.0 + periodic_gaussian(grid8, (0.5, 0.5, 0.5), 0.15, 1.5))
        bg = yf.Background(grid8, yf.ScalarField.constant(grid8, -1.0), f)
        mask = yf.superlevel_mask(bg, 0.5)
        assert np.array_equal(mask.inside, f.values > -0.5)

    def test_threshold_nudged_off_grid_values(self, grid8):
        # A grid point sitting exactly at -eps must end up inside after the
        # threshold is nudged to a regular value.
        vals = np.full(grid8.shape, -1.0)
        vals[2, 2, 2] = -0.5
        bg = yf.Background(
            grid8,
            yf.ScalarField.constant(grid8, -1.0),
            yf.ScalarField(grid8, vals),
        )
        mask = yf.superlevel_mask(bg, 0.5)
        assert mask.inside[2, 2, 2]

    def test_rejects_nonpositive_eps(self, bg8):
        with pytest.raises(ValueError):
            yf.superlevel_mask(bg8, 0.0)

    def test_rejects_nan_eps(self, bg8):
        with pytest.raises(ValueError):
            yf.superlevel_mask(bg8, float("nan"))

    def test_negative_f_gives_empty_mask(self, bg8):
        assert yf.superlevel_mask(bg8, 0.5).is_empty


class TestCheckH1:
    def test_holds_for_small_positive_bump(self):
        bg = trapped_bump_background()
        report = yf.check_h1(bg, yf.superlevel_mask(bg, 0.5))
        assert report.h1_holds
        assert report.lambda_omega > 0.0
        assert report.sup_f_omega == pytest.approx(0.005, abs=1e-12)
        assert report.inf_absf_complement > 0.5
        assert report.c_omega is None and report.h2_holds is None

    def test_fails_when_f_positive_outside_omega(self, grid8):
        f = yf.ScalarField(grid8, -1.0 + periodic_gaussian(grid8, (0.5, 0.5, 0.5), 0.2, 2.0))
        bg = yf.Background(grid8, yf.ScalarField.constant(grid8, -1.0), f)
        tight = SubdomainMask(grid8, f.values > 0.5)  # leaves f > 0 points outside
        assert not yf.check_h1(bg, tight).h1_holds

    def test_fails_for_negative_eigenvalue(self):
        # Big omega on a long-period torus with strongly negative R0.
        g = yf.GridSpec(3, (16, 16, 16), (4.0, 4.0, 4.0))
        f = yf.ScalarField(g, -1.0 + periodic_gaussian(g, (2.0, 2.0, 2.0), 1.0, 3.0))
        bg = yf.Background(g, yf.ScalarField.constant(g, -40.0), f)
        report = yf.check_h1(bg, yf.superlevel_mask(bg, 0.5))
        assert report.lambda_omega < 0.0
        assert not report.h1_holds

    def test_h1_error_names_largest_f_outside(self, grid8):
        """The H1 error prints the max of f outside Omega, not -inf |f| there."""
        x = grid8.meshgrid()[0]
        f = yf.ScalarField(grid8, np.where(x < 0.3, 0.5, np.where(x > 0.7, 0.2, -1.0)))
        bg = yf.Background(grid8, yf.ScalarField.constant(grid8, -1.0), f)
        omega = SubdomainMask(grid8, x < 0.3)
        assert yf.check_h1(bg, omega).max_f_complement == 0.2
        with pytest.raises(ValueError, match=r"max f outside=0\.2\)"):
            yf.build_supersolution(bg, omega)

    def test_empty_omega_with_negative_f_holds(self, bg8):
        report = yf.check_h1(bg8, SubdomainMask.empty(bg8.grid))
        assert report.h1_holds
        assert math.isinf(report.lambda_omega)


class TestEvaluateHypotheses:
    def test_trapped_scenario_passes_both(self):
        bg = trapped_bump_background()
        report = yf.evaluate_hypotheses(bg, yf.superlevel_mask(bg, 0.5))
        assert report.h1_holds and report.h2_holds
        assert report.c_omega * report.inf_absf_complement >= report.sup_f_omega

    def test_large_bump_fails_size_condition(self):
        grid = unit_grid(16)
        f = yf.ScalarField(grid, -1.0 + periodic_gaussian(grid, (0.5, 0.5, 0.5), 0.08, 1.2))
        bg = yf.Background(grid, yf.ScalarField.constant(grid, -1.0), f)
        report = yf.evaluate_hypotheses(bg, yf.superlevel_mask(bg, 0.5))
        assert report.h1_holds
        assert not report.h2_holds

    def test_window_zero_wide_is_not_h2(self, grid8):
        """Omega = the whole torus: lambda_D < 0 < sup f leaves [0, 0], which holds no delta > 0."""
        f = yf.ScalarField(grid8, -1.0 + periodic_gaussian(grid8, (0.5, 0.5, 0.5), 0.15, 1.5))
        bg = yf.Background(grid8, yf.ScalarField.constant(grid8, -1.0), f)
        report = yf.evaluate_hypotheses(bg, SubdomainMask.full(grid8))
        assert report.lambda_omega < 0.0 and report.sup_f_omega > 0.0
        assert not report.h2_holds


    def test_f_zero_outside_omega_fails_both(self, grid8):
        """inf_outside |f| = 0: H1 fails, and no finite delta satisfies the complement side."""
        bg = constant_background(grid8, r0=-1.0, f=0.0)
        omega = SubdomainMask(grid8, np.linalg.norm(np.stack(grid8.meshgrid()) - 0.5, axis=0) < 0.3)
        report = yf.evaluate_hypotheses(bg, omega)
        assert report.inf_absf_complement == 0.0
        assert not report.h1_holds and not report.h2_holds


class TestEmptyOmegaCertificate:
    def test_reference_constants(self, grid8):
        # R0 = f = -1: window starts at 1, delta = 2, and
        # min L(ubar) = -R0*2 ... -f*2^5 - 2 = 30.
        bg = constant_background(grid8, r0=-1.0, f=-1.0)
        cert = yf.build_supersolution(bg, SubdomainMask.empty(grid8))
        assert cert.delta_lo == 1.0
        assert math.isinf(cert.delta_hi)
        assert cert.delta == 2.0
        assert cert.min_l_ubar == 30.0
        assert cert.m0 == 1.0 and cert.m1 == 1.0
        assert math.isinf(cert.lambda_d)

    def test_constant_supersolution_verifies(self, grid8):
        bg = constant_background(grid8, r0=-2.0, f=-1.0)
        cert = yf.build_supersolution(bg, SubdomainMask.empty(grid8))
        direct = yf.verify_supersolution(bg, cert.ubar)
        assert direct == cert.min_l_ubar
        assert direct >= 0.0


class TestBumpCertificate:
    def test_window_and_verification(self):
        bg = trapped_bump_background()
        omega = yf.superlevel_mask(bg, 0.5)
        cert = yf.build_supersolution(bg, omega)
        assert cert.delta_lo <= cert.delta <= cert.delta_hi
        assert cert.min_l_ubar >= -1e-9
        assert cert.ubar.min() > 0.0
        # Window endpoints follow the stated formulas.
        report = yf.check_h1(bg, omega)
        lo = (cert.m1 * cert.m0**-5.0 / report.inf_absf_complement) ** 0.25
        hi = (cert.lambda_d / report.sup_f_omega) ** 0.25
        assert cert.delta_lo == pytest.approx(lo, rel=1e-12)
        assert cert.delta_hi == pytest.approx(hi, rel=1e-12)

    def test_certificate_consistent_with_report(self):
        bg = trapped_bump_background()
        omega = yf.superlevel_mask(bg, 0.5)
        cert = yf.build_supersolution(bg, omega)
        report = yf.evaluate_hypotheses(bg, omega)
        c_from_cert = cert.lambda_d * cert.m0**5.0 / cert.m1
        assert report.c_omega == pytest.approx(c_from_cert, rel=1e-12)

    def test_empty_window_raises_with_constant(self):
        grid = unit_grid(16)
        f = yf.ScalarField(grid, -1.0 + periodic_gaussian(grid, (0.5, 0.5, 0.5), 0.08, 1.2))
        bg = yf.Background(grid, yf.ScalarField.constant(grid, -1.0), f)
        with pytest.raises(DeltaWindowEmptyError) as exc:
            yf.build_supersolution(bg, yf.superlevel_mask(bg, 0.5))
        assert exc.value.delta_lo > exc.value.delta_hi
        assert exc.value.c_omega > 0.0

    def test_rejects_omega_failing_h1(self):
        g = yf.GridSpec(3, (16, 16, 16), (4.0, 4.0, 4.0))
        f = yf.ScalarField(g, -1.0 + periodic_gaussian(g, (2.0, 2.0, 2.0), 1.0, 3.0))
        bg = yf.Background(g, yf.ScalarField.constant(g, -40.0), f)
        with pytest.raises(ValueError):
            yf.build_supersolution(bg, yf.superlevel_mask(bg, 0.5))

    def test_h1_failure_reported_before_the_solve_on_d(self, monkeypatch):
        """Only the solve on Omega runs, so a failing solve on D cannot hide the H1 verdict."""
        g = yf.GridSpec(3, (16, 16, 16), (4.0, 4.0, 4.0))
        f = yf.ScalarField(g, -1.0 + periodic_gaussian(g, (2.0, 2.0, 2.0), 1.0, 3.0))
        bg = yf.Background(g, yf.ScalarField.constant(g, -40.0), f)
        solves = []
        solve = hypotheses.dirichlet_eigen

        def counted(*args, **kwargs):
            solves.append(args[1])
            return solve(*args, **kwargs)

        monkeypatch.setattr(hypotheses, "dirichlet_eigen", counted)
        with pytest.raises(ValueError, match="eigenvalue condition fails"):
            yf.build_supersolution(bg, yf.superlevel_mask(bg, 0.5))
        assert len(solves) == 1

    @pytest.mark.parametrize(
        "assess", [yf.evaluate_hypotheses, yf.build_supersolution],
        ids=["evaluate_hypotheses", "build_supersolution"],
    )
    def test_two_eigen_solves_omega_then_d(self, monkeypatch, assess):
        """The report and the certificate each take one solve on Omega, then one on D."""
        bg = trapped_bump_background()
        omega = yf.superlevel_mask(bg, 0.5)
        solves = []
        solve = hypotheses.dirichlet_eigen

        def counted(*args, **kwargs):
            solves.append(args[1].inside)
            return solve(*args, **kwargs)

        monkeypatch.setattr(hypotheses, "dirichlet_eigen", counted)
        assess(bg, omega)
        d = yf.dilate(omega, hypotheses.DEFAULT_DILATION)
        assert len(solves) == 2
        assert np.array_equal(solves[0], omega.inside)
        assert np.array_equal(solves[1], d.inside)

    def test_band_bounded_by_dilation(self):
        bg = trapped_bump_background()
        omega = yf.superlevel_mask(bg, 0.5)
        with pytest.raises(ValueError):
            yf.build_supersolution(bg, omega, dilation=2, band=3)

    def test_ubar_equals_blend_times_delta(self):
        bg = trapped_bump_background()
        omega = yf.superlevel_mask(bg, 0.5)
        cert = yf.build_supersolution(bg, omega)
        # Far from omega the blend is 1, so ubar is the constant delta there.
        far = yf.dilate(omega, 4).complement()
        assert np.allclose(cert.ubar.values[far.inside], cert.delta, rtol=1e-12)


class TestSlabWithNegativeLambdaD:
    """``check`` and ``supersolution`` decide H2 from the same window."""

    @pytest.mark.parametrize("f_omega", [0.05, 0.0], ids=["positive", "zero"])
    def test_window_empty_when_lambda_d_negative(self, f_omega):
        bg, omega = slab_background(f_omega)
        report = yf.evaluate_hypotheses(bg, omega)
        assert report.h1_holds and not report.h2_holds
        with pytest.raises(DeltaWindowEmptyError) as exc:
            yf.build_supersolution(bg, omega)
        assert exc.value.delta_lo > exc.value.delta_hi

    @pytest.mark.parametrize("f_omega", [-0.5, -0.001], ids=["negative", "slightly_negative"])
    def test_negative_f_on_omega_certifies(self, f_omega):
        """lambda_D < 0: f must be negative enough on Omega, so -sup_Omega f bounds delta below."""
        bg, omega = slab_background(f_omega)
        assert yf.evaluate_hypotheses(bg, omega).h2_holds
        cert = yf.build_supersolution(bg, omega)
        assert cert.lambda_d < 0.0
        assert cert.min_l_ubar >= -1e-9


def test_verify_supersolution_signs(grid8):
    bg = constant_background(grid8, r0=-1.0, f=-1.0)
    # Constants c: L(c) = -c + c^5; negative below 1, positive above.
    assert yf.verify_supersolution(bg, yf.ScalarField.constant(grid8, 2.0)) > 0.0
    assert yf.verify_supersolution(bg, yf.ScalarField.constant(grid8, 0.5)) < 0.0


# Each spectral-layer call that takes a mask, given only the background and the mask.
MASK_CALLS = {
    "dirichlet_eigen": yf.dirichlet_eigen,
    "check_h1": yf.check_h1,
    "evaluate_hypotheses": yf.evaluate_hypotheses,
    "build_supersolution": yf.build_supersolution,
    "rayleigh_quotient": lambda bg, mask: yf.rayleigh_quotient(
        bg, yf.ScalarField.zeros(bg.grid), mask),
}


@pytest.mark.parametrize("size, length", [(6, 1.0), (8, 2.0)], ids=["6^3", "doubled_lengths"])
@pytest.mark.parametrize("call", MASK_CALLS)
def test_mask_from_another_grid_refused_before_any_solve(call, size, length, monkeypatch):
    """A mask on a grid other than the background's raises ``GridMismatchError`` with
    ``require_same_grid``'s message, and no CG solve runs."""
    def no_cg(*args, **kwargs):
        raise AssertionError("a CG solve ran on a mask from another grid")

    monkeypatch.setattr(spectral, "cg", no_cg)
    bg = constant_background(unit_grid(8))
    foreign = unit_grid(size, length=length)
    mask = SubdomainMask(foreign, np.ones(foreign.shape, dtype=bool))
    with pytest.raises(GridMismatchError) as info:
        MASK_CALLS[call](bg, mask)
    assert str(info.value) == f"grid mismatch: {bg.grid} vs {foreign}"
