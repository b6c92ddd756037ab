import numpy as np
import pytest

import yamabeflow as yf
from yamabeflow.errors import NonFiniteFieldError, PositivityError
from yamabeflow.flow import _residual, _Workspace
from yamabeflow.grid import _fsum, _power
from yamabeflow.operators import (
    _conformal_values,
    _laplacian_g_values,
    _laplacian_values,
    _StencilPlan,
    require_positive,
)

from conftest import constant_background, unit_grid

# The powers of u the flow forms for n = 3..6: N, N + 1 and the Lp ladder's orders.
FLOW_POWERS = sorted({p for n in range(3, 7) for p in (
    (n + 2.0) / (n - 2.0), 2.0 * n / (n - 2.0), *yf.FlowConfig.resolve_orders(n))})


NON_DYADIC = yf.GridSpec(3, (5, 6, 7), (1.0, 1.3, 0.7))
FOUR_D = yf.GridSpec(4, (4, 5, 4, 6), (1.0, 1.3, 0.7, 0.9))
FIVE_D = yf.GridSpec(5, (4,) * 5, (1.0, 1.3, 0.7, 0.9, 1.1))
STENCIL_GRIDS = pytest.mark.parametrize(
    "grid",
    [NON_DYADIC, FOUR_D, FIVE_D, unit_grid(16), unit_grid(24)],
    ids=["non_dyadic", "four_d", "five_d", "16", "24"],
)


def dense_laplacian_matrix(grid):
    """Independent dense assembly of the periodic second-difference stencil."""
    npts = grid.num_points
    mat = np.zeros((npts, npts))
    shape = grid.shape
    for flat in range(npts):
        idx = np.unravel_index(flat, shape)
        for axis, h in enumerate(grid.spacings):
            for shift in (-1, 1):
                nb = list(idx)
                nb[axis] = (nb[axis] + shift) % shape[axis]
                mat[flat, np.ravel_multi_index(nb, shape)] += 1.0 / (h * h)
            mat[flat, flat] -= 2.0 / (h * h)
    return mat


class TestBackground:
    def test_exposes_dimension_constants(self, bg8):
        assert bg8.n == 3
        assert bg8.c_n == 8.0
        assert bg8.big_n == 5.0

    def test_rejects_nonnegative_r0(self, grid8):
        vals = np.full(grid8.shape, -1.0)
        vals[3, 3, 3] = 0.0
        with pytest.raises(ValueError) as exc:
            yf.Background(grid8, yf.ScalarField(grid8, vals), yf.ScalarField.constant(grid8, -1.0))
        assert "(3, 3, 3)" in str(exc.value)

    def test_four_dimensional_constants(self):
        g = yf.GridSpec(4, (4, 4, 4, 4), (1.0,) * 4)
        bg = constant_background(g)
        assert bg.c_n == 6.0
        assert bg.big_n == 3.0


class TestLaplacian:
    @STENCIL_GRIDS
    def test_constant_is_exactly_zero(self, grid):
        out = yf.laplacian(yf.ScalarField.constant(grid, 4.2))
        assert np.all(out.values == 0.0)

    def test_fourier_mode_eigenvalue(self, grid8):
        # Discrete symbol: -(2/h^2)(1 - cos(2 pi k h)) per axis.
        x = grid8.meshgrid()[0]
        k = 2
        w = yf.ScalarField(grid8, np.cos(2 * np.pi * k * x))
        h = grid8.spacings[0]
        lam = -(2.0 / h**2) * (1.0 - np.cos(2 * np.pi * k * h))
        assert np.allclose(yf.laplacian(w).values, lam * w.values, atol=1e-10)

    def test_matches_dense_assembly(self):
        g = unit_grid(4)
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(g.shape)
        w = yf.ScalarField(g, vals)
        dense = dense_laplacian_matrix(g) @ vals.reshape(-1)
        assert np.allclose(yf.laplacian(w).values.reshape(-1), dense, atol=1e-9)

    def test_summation_by_parts(self, grid8):
        # int v Lap(w) = -int grad v . grad w with forward differences,
        # the discrete Green identity behind exact energy dissipation.
        rng = np.random.default_rng(1)
        v = rng.standard_normal(grid8.shape)
        w = rng.standard_normal(grid8.shape)
        lhs = _fsum(v * yf.laplacian(yf.ScalarField(grid8, w)).values)
        rhs = 0.0
        for axis, h in enumerate(grid8.spacings):
            dv = (np.roll(v, -1, axis=axis) - v) / h
            dw = (np.roll(w, -1, axis=axis) - w) / h
            rhs -= _fsum(dv * dw)
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestConformalOperator:
    def test_linear_combination(self, bg8):
        rng = np.random.default_rng(2)
        a = rng.standard_normal(bg8.grid.shape)
        b = rng.standard_normal(bg8.grid.shape)
        la = yf.conformal_op(bg8, yf.ScalarField(bg8.grid, a)).values
        lb = yf.conformal_op(bg8, yf.ScalarField(bg8.grid, b)).values
        lab = yf.conformal_op(bg8, yf.ScalarField(bg8.grid, 2.0 * a - 3.0 * b)).values
        assert np.allclose(lab, 2.0 * la - 3.0 * lb, atol=1e-9)

    @STENCIL_GRIDS
    def test_constant_reduces_to_r0(self, grid):
        bg = constant_background(grid)
        out = yf.conformal_op(bg, yf.ScalarField.constant(grid, 1.0))
        assert np.all(out.values == bg.r0.values)


class TestScalarCurvature:
    def test_unit_factor_gives_background(self, bg8):
        rg = yf.scalar_curvature(bg8, yf.ScalarField.constant(bg8.grid, 1.0))
        assert np.all(rg.values == bg8.r0.values)

    def test_constant_factor_scaling(self, grid8):
        # For constant u the curvature is R0 * u^(1-N).
        bg = constant_background(grid8, r0=-2.0)
        u = yf.ScalarField.constant(grid8, 1.5)
        rg = yf.scalar_curvature(bg, u)
        assert np.allclose(rg.values, -2.0 * 1.5 ** (-4.0), rtol=1e-14)

    def test_requires_positive_factor(self, bg8):
        vals = np.ones(bg8.grid.shape)
        vals[0, 0, 0] = 0.0
        with pytest.raises(PositivityError):
            yf.scalar_curvature(bg8, yf.ScalarField(bg8.grid, vals))


class TestPower:
    """``_power`` forms small half-whole powers by products and one square root."""

    def test_products_within_4_ulp_of_np_power(self):
        """Against libm ``pow`` on u in [1e-3, 1e3], at every power of the flow for n = 3..6."""
        x = np.logspace(-3.0, 3.0, 20001)
        for p in FLOW_POWERS:
            ref = np.power(x, p)
            rel = np.abs(_power(x, p) - ref) / ref
            assert rel.max() <= 4.0 * np.finfo(float).eps, p

    @pytest.mark.parametrize("p", [7.0 / 3.0, 10.0 / 3.0, 25.0 / 6.0, 0.5, 1.0, 7.0, -5.0, -6.0])
    def test_other_powers_are_np_power_bit_for_bit(self, p):
        x = np.logspace(-3.0, 3.0, 2001)
        assert _power(x, p).tobytes() == np.power(x, p).tobytes()

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.5, 5.0, 6.0, 7.0 / 3.0])
    def test_writes_into_out(self, p):
        x = np.logspace(-3.0, 3.0, 2001)
        out = np.full_like(x, np.nan)
        assert _power(x, p, out) is out
        assert out.tobytes() == _power(x, p).tobytes()

    @pytest.mark.parametrize("scale", [1e-100, 1e80])
    def test_curvature_keeps_its_finite_class_at_extreme_u(self, grid8, scale):
        """``L0 u / u^N`` is finite exactly where ``u^-N L0 u`` was: non-finite at 1e-100,
        where u^N underflows as u^-N overflowed, and 0 at 1e80, where the reverse happens."""
        bg = constant_background(grid8)
        uv = scale * (1.0 + 0.1 * np.random.default_rng(8).random(grid8.shape))
        with np.errstate(all="ignore"):
            got = _residual(bg, uv, _Workspace(grid8))
            was = np.power(uv, -bg.big_n) * _conformal_values(bg, uv)
            un = _power(uv, bg.big_n)
            assert _residual(bg, uv, _Workspace(grid8), un) is un  # a given u^N is written over
        assert un.tobytes() == got.tobytes()
        assert np.array_equal(np.isfinite(got), np.isfinite(was))
        assert np.isfinite(got).all() == (scale > 1.0)


class TestMetricLaplacian:
    def test_unit_factor_is_bitwise_flat(self, bg8):
        rng = np.random.default_rng(3)
        w = yf.ScalarField(bg8.grid, rng.standard_normal(bg8.grid.shape))
        one = yf.ScalarField.constant(bg8.grid, 1.0)
        flat = yf.laplacian(w).values
        conf = yf.laplacian_g(bg8, one, w).values
        assert np.array_equal(flat, conf)

    def test_self_adjoint_in_metric_volume(self, bg8):
        # int (Lap_g w) v dV_g is symmetric in (v, w) because the
        # divergence-form face coefficients are shared.
        rng = np.random.default_rng(4)
        grid = bg8.grid
        u = yf.ScalarField(grid, 1.0 + 0.5 * rng.random(grid.shape))
        v = rng.standard_normal(grid.shape)
        w = rng.standard_normal(grid.shape)
        weight = u.values ** (bg8.big_n + 1.0)
        lw = yf.laplacian_g(bg8, u, yf.ScalarField(grid, w)).values
        lv = yf.laplacian_g(bg8, u, yf.ScalarField(grid, v)).values
        assert _fsum(lw * v * weight) == pytest.approx(_fsum(lv * w * weight), abs=1e-9)

    def test_annihilates_constants(self, bg8):
        rng = np.random.default_rng(5)
        u = yf.ScalarField(bg8.grid, 1.0 + 0.5 * rng.random(bg8.grid.shape))
        out = yf.laplacian_g(bg8, u, yf.ScalarField.constant(bg8.grid, 7.0))
        assert np.allclose(out.values, 0.0, atol=1e-12)


class TestEnergy:
    def test_constant_field_closed_form(self, grid8):
        bg = constant_background(grid8, r0=-1.0, f=-1.0)
        c = 1.3
        expected = -(c**2) + (1.0 / 3.0) * c**6  # R0 c^2 - ((n-2)/n) f c^(2n/(n-2))
        assert yf.energy(bg, yf.ScalarField.constant(grid8, c)) == pytest.approx(
            expected, rel=1e-13
        )

    def test_directional_derivative_matches_gradient(self, grid8):
        # dE/de at u + e*v equals 2 int (L(u) - f u^N) v, by the same
        # summation-by-parts identity the dissipation law relies on.
        rng = np.random.default_rng(6)
        bg = constant_background(grid8)
        u = yf.ScalarField(grid8, 1.0 + 0.3 * rng.random(grid8.shape))
        v = rng.standard_normal(grid8.shape)
        grad = (
            yf.conformal_op(bg, u).values
            - bg.f.values * u.values**bg.big_n
        )
        expected = 2.0 * _fsum(grad * v) * grid8.cell_volume
        eps = 1e-6
        up = yf.energy(bg, yf.ScalarField(grid8, u.values + eps * v))
        dn = yf.energy(bg, yf.ScalarField(grid8, u.values - eps * v))
        assert (up - dn) / (2 * eps) == pytest.approx(expected, rel=1e-7)


class TestStationaryResidual:
    def test_flat_stationary_is_exactly_zero(self, grid8):
        bg = constant_background(grid8, r0=-1.0, f=-1.0)
        assert yf.stationary_residual(bg, yf.ScalarField.constant(grid8, 1.0)) == 0.0

    def test_constant_solution_near_zero(self, grid8):
        bg = constant_background(grid8, r0=-2.0, f=-1.0)
        u = yf.ScalarField.constant(grid8, 2.0**0.25)
        assert yf.stationary_residual(bg, u) < 1e-14

    def test_nonstationary_is_positive(self, grid8):
        bg = constant_background(grid8, r0=-2.0, f=-1.0)
        assert yf.stationary_residual(bg, yf.ScalarField.constant(grid8, 1.0)) == 1.0


def test_require_positive_names_argument(grid8):
    vals = np.ones(grid8.shape)
    vals[1, 1, 1] = -1.0
    with pytest.raises(PositivityError) as exc:
        require_positive(yf.ScalarField(grid8, vals), "u0")
    assert "u0" in str(exc.value)


def test_operators_follow_numpy_out_of_the_float_range():
    """The public operators keep numpy's rules on a state whose powers leave the float range, as
    README says; only the flow's entry points refuse it with ``ComputationFailure``."""
    grid = unit_grid(6)
    bg = constant_background(grid)
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        with pytest.raises(NonFiniteFieldError) as exc:
            yf.scalar_curvature(bg, yf.ScalarField.constant(grid, 1e-100))
    assert str(exc.value) == "non-finite value -inf at flat index 0 (0, 0, 0)"
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert yf.energy(bg, yf.ScalarField.constant(grid, 1e60)) == np.inf


def _reference_laplacian(v, spacings, scale=1.0):
    out = np.zeros_like(v)
    for axis, h in enumerate(spacings):
        dp = np.roll(v, -1, axis=axis) - v
        dm = v - np.roll(v, 1, axis=axis)
        out += (dp - dm) * (scale * (1.0 / (h * h)))
    return out


def _divide_form_conformal(bg, v):
    """``L0 v`` in the order the stencil took before it stored ``1/h^2``: each axis's difference
    divided by ``h^2``, the axes summed in order, the sum times ``-c_n``, then ``+ R0 v``."""
    for axis, h in enumerate(bg.grid.spacings):
        term = ((np.roll(v, -1, axis=axis) - v) - (v - np.roll(v, 1, axis=axis))) / (h * h)
        lap = term if axis == 0 else lap + term
    return lap * -bg.c_n + bg.r0.values * v


def _reference_laplacian_g(bg, uv, wv):
    u2 = uv * uv
    out = np.zeros_like(wv)
    for axis, h in enumerate(bg.grid.spacings):
        ap = 0.5 * (u2 + np.roll(u2, -1, axis=axis))
        am = 0.5 * (u2 + np.roll(u2, 1, axis=axis))
        dp = np.roll(wv, -1, axis=axis) - wv
        dm = wv - np.roll(wv, 1, axis=axis)
        out += (ap * dp - am * dm) / (h * h)
    return uv ** (-(bg.big_n + 1.0)) * out


def _reference_gradient_squared(v, spacings):
    out = np.zeros_like(v)
    for axis, h in enumerate(spacings):
        d = (np.roll(v, -1, axis=axis) - v) / h
        out += d * d
    return out


def _reference_weighted_gradient_sq_integral(bg, w, uv):
    u2 = uv * uv
    total = 0.0
    for axis, h in enumerate(bg.grid.spacings):
        face = 0.5 * (u2 + np.roll(u2, -1, axis=axis))
        d = (np.roll(w, -1, axis=axis) - w) / h
        total += _fsum(face * d * d)
    return total * bg.grid.cell_volume


@STENCIL_GRIDS
def test_stencils_bitwise_equal_reference_forms(grid):
    # The flat Laplacian takes its differences from one flat-array subtraction
    # per axis, and Laplacian_g its face sums and backward fluxes from the
    # np.roll forms; the reference forms above, which take every one from its
    # own np.roll, must agree bit for bit, on a C- and a Fortran-ordered w.
    rng = np.random.default_rng(11)
    bg = constant_background(grid)
    w = rng.standard_normal(grid.shape)
    u = 1.0 + 0.5 * rng.random(grid.shape)
    for v in (w, np.asfortranarray(w)):
        lap = _laplacian_values(v, _StencilPlan(grid))
        assert np.array_equal(lap, _reference_laplacian(v, grid.spacings))
        conf = _reference_laplacian(v, grid.spacings, -bg.c_n) + bg.r0.values * v
        assert np.array_equal(_conformal_values(bg, v), conf)
        assert np.array_equal(_laplacian_g_values(bg, u, v), _reference_laplacian_g(bg, u, v))


@pytest.mark.parametrize("size", [8, 16, 32])
def test_conformal_keeps_the_divide_form_bits_where_scales_are_dyadic(size):
    """With n = 3 on a unit grid of 2^k points a side, ``1/h^2`` and ``c_n = 8`` are powers of
    two, so folding ``-c_n`` into the stored ``1/h^2`` moves no bit of ``L0 v`` against dividing
    by ``h^2`` and then multiplying by ``-c_n``: the ``trapped-flow`` (16^3) and ``certify-ball``
    (32^3) grids keep their bits.  Every mantissa bit of ``v`` is used."""
    rng = np.random.default_rng(size)
    grid = unit_grid(size)
    bg = yf.Background(grid, yf.ScalarField(grid, -1.0 - rng.random(grid.shape)),
                       yf.ScalarField.constant(grid, -1.0))
    assert bg.c_n == 8.0 and grid.spacings[0] == 1.0 / size
    for v in (rng.standard_normal(grid.shape), rng.standard_normal(grid.shape) * 1e-3):
        assert _conformal_values(bg, v).tobytes() == _divide_form_conformal(bg, v).tobytes()


@STENCIL_GRIDS
def test_reused_buffers_give_the_fresh_bits(grid):
    """Two fields through one ``out`` and a plan over one scratch pair, all first filled with NaN."""
    rng = np.random.default_rng(19)
    bg = constant_background(grid, r0=-1.5)
    out, plan = np.full(grid.shape, np.nan), _StencilPlan(grid, np.full((2, *grid.shape), np.nan))
    for v in (1.0 + 0.5 * rng.random(grid.shape), rng.standard_normal(grid.shape)):
        got = _conformal_values(bg, v, out, plan)
        assert got is out
        assert got.tobytes() == _conformal_values(bg, v).tobytes()


@STENCIL_GRIDS
def test_one_plan_serves_every_input(grid):
    """The plan holds views of its scratch pair only: applied to a fresh array, to a Fortran-ordered
    one and then to the workspace's stage buffer, which it was not built over, it gives the
    reference bits each time."""
    rng = np.random.default_rng(23)
    ws = _Workspace(grid)
    ws.stage[...] = rng.standard_normal(grid.shape)
    fresh, fortran = rng.standard_normal(grid.shape), np.asfortranarray(rng.standard_normal(grid.shape))
    for v in (fresh, fortran, ws.stage):
        got = _laplacian_values(v, ws.plan, ws.c)
        assert got is ws.c
        assert got.tobytes() == _reference_laplacian(v, grid.spacings).tobytes()


@STENCIL_GRIDS
def test_dirichlet_forms_through_l0_equal_gradient_forms(grid):
    # The energy and the Rayleigh quotient read int(c_n |grad w|^2 + R0 w^2)
    # as int(w L0 w), by summation by parts; it must match the sum of squared
    # forward differences to roundoff.
    rng = np.random.default_rng(17)
    bg = yf.Background(
        grid,
        yf.ScalarField(grid, -1.0 - rng.random(grid.shape)),
        yf.ScalarField(grid, rng.standard_normal(grid.shape)),
    )
    r0, f = bg.r0.values, bg.f.values
    mask = yf.SubdomainMask(grid, rng.random(grid.shape) < 0.5)
    for _ in range(5):
        u = 1.0 + 0.5 * rng.random(grid.shape)
        density = (
            bg.c_n * _reference_gradient_squared(u, grid.spacings)
            + r0 * u * u
            - ((bg.n - 2.0) / bg.n) * f * u ** (bg.big_n + 1.0)
        )
        ref = _fsum(density) * grid.cell_volume
        assert abs(yf.energy(bg, yf.ScalarField(grid, u)) - ref) <= 1e-13 * abs(ref)

        w = np.where(mask.inside, rng.standard_normal(grid.shape), 0.0)
        num = _fsum(bg.c_n * _reference_gradient_squared(w, grid.spacings) + r0 * w * w)
        ref = num / _fsum(w * w)
        assert abs(yf.rayleigh_quotient(bg, yf.ScalarField(grid, w), mask) - ref) <= 1e-13 * abs(ref)


@STENCIL_GRIDS
def test_green_form_equals_face_weighted_gradient_integral(grid):
    # The moment balance takes int |grad w|^2 u^2 dV as -int w Lap_g(w) dV_g,
    # i.e. by summation by parts through the divergence form; it must match
    # the face-averaged sum of squared forward differences to roundoff.
    rng = np.random.default_rng(13)
    bg = constant_background(grid)
    for _ in range(5):
        w = rng.standard_normal(grid.shape)
        u = 1.0 + 0.5 * rng.random(grid.shape)
        weight = u ** (bg.big_n + 1.0)
        green = -_fsum(w * _laplacian_g_values(bg, u, w) * weight) * grid.cell_volume
        ref = _reference_weighted_gradient_sq_integral(bg, w, u)
        assert abs(green - ref) <= 1e-13 * ref


def test_constants_map_to_exact_zero_on_non_dyadic_grid():
    rng = np.random.default_rng(12)
    bg = constant_background(NON_DYADIC)
    const = yf.ScalarField.constant(NON_DYADIC, 0.37)
    u = yf.ScalarField(NON_DYADIC, 1.0 + 0.5 * rng.random(NON_DYADIC.shape))
    assert not np.any(yf.laplacian(const).values)
    assert not np.any(yf.laplacian_g(bg, u, const).values)
