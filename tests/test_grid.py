import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import yamabeflow as yf
from yamabeflow import flow as flowmod
from yamabeflow import grid as gridmod
from yamabeflow import snapshots
from yamabeflow.errors import GridMismatchError, NonFiniteFieldError, PositivityError
from yamabeflow.grid import SubdomainMask, _fsum, chebyshev_distance, require_same_grid
from yamabeflow.operators import require_positive

from conftest import periodic_gaussian, trapped_bump_background, unit_grid


class TestGridSpec:
    def test_basic_properties(self):
        g = yf.GridSpec(3, (8, 16, 4), (1.0, 2.0, 0.5))
        assert g.spacings == (1.0 / 8, 2.0 / 16, 0.5 / 4)
        assert g.num_points == 8 * 16 * 4
        assert g.cell_volume == pytest.approx((1 / 8) * (2 / 16) * (0.5 / 4), rel=1e-15)
        assert g.shape == (8, 16, 4)

    def test_axis_coordinates(self):
        g = unit_grid(8)
        x = g.axis_coordinates(0)
        assert x[0] == 0.0
        assert np.allclose(np.diff(x), 1.0 / 8)
        assert x[-1] < 1.0

    def test_dimension_at_least_three(self):
        with pytest.raises(ValueError):
            yf.GridSpec(2, (8, 8), (1.0, 1.0))

    @pytest.mark.parametrize("n", [3.5, math.nan, math.inf])
    def test_dimension_must_be_a_whole_number(self, n):
        with pytest.raises(ValueError, match="dimension must be a whole number"):
            yf.GridSpec(n, (4, 4, 4), (1.0, 1.0, 1.0))

    def test_whole_float_dimension_is_stored_as_int(self, tmp_path):
        """3.0 is the int 3, so the grid builds its mesh and a field on it round-trips a file."""
        g = yf.GridSpec(3.0, (4, 4, 4), (1, 1, 1))
        assert type(g.n) is int and g == yf.GridSpec(3, (4, 4, 4), (1, 1, 1))
        assert len(g.meshgrid()) == 3
        field = yf.ScalarField(g, np.arange(64.0))
        snapshots.write_field(tmp_path / "u.yflo", field)
        back = snapshots.read_field(tmp_path / "u.yflo")
        assert back.grid == g and back.values.tobytes() == field.values.tobytes()

    def test_minimum_size(self):
        for sizes, message in (((8, 8, 3), ">= 4"), ((4.9, 4, 4), "whole numbers"),
                               ((8, math.inf, 8), "whole numbers")):
            with pytest.raises(ValueError, match=message):  # 4.9 was truncated, inf overflowed
                yf.GridSpec(3, sizes, (1.0, 1.0, 1.0))

    def test_positive_lengths(self):
        with pytest.raises(ValueError):
            yf.GridSpec(3, (8, 8, 8), (1.0, -1.0, 1.0))

    @pytest.mark.parametrize("length", [float("nan"), float("inf")])
    def test_finite_lengths(self, length):
        with pytest.raises(ValueError):
            yf.GridSpec(3, (8, 8, 8), (1.0, length, 1.0))

    @pytest.mark.parametrize(
        "length, message",
        [(1e-160, "normal float"), (1e300, "normal float"), (1e-110, "cell volume")],
        ids=["h2_subnormal", "h2_infinite", "cell_volume_underflows"],
    )
    def test_geometry_the_stencils_cannot_represent(self, length, message):
        """h*h subnormal (2/h^2 overflows) or infinite, or h^3 underflowing to 0."""
        with pytest.raises(ValueError, match=message):
            yf.GridSpec(3, (6, 6, 6), (length,) * 3)

    def test_derived_geometry_takes_no_part_in_identity(self):
        a = yf.GridSpec(3, (8, 8, 8), (1, 1, 1))
        b = yf.GridSpec(3, [8, 8, 8], [1.0, 1.0, 1.0])
        assert a == b and hash(a) == hash(b)
        assert repr(a) == "GridSpec(n=3, sizes=(8, 8, 8), lengths=(1.0, 1.0, 1.0))"
        assert a.spacings == (0.125,) * 3 and a.cell_volume == 0.125**3

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            yf.GridSpec(3, (8, 8), (1.0, 1.0, 1.0))

    def test_four_dimensions(self):
        g = yf.GridSpec(4, (4, 4, 4, 4), (1.0, 1.0, 1.0, 1.0))
        assert g.num_points == 256
        assert len(g.meshgrid()) == 4

    @pytest.mark.parametrize("k", [21, 22])
    def test_num_points_is_exact_past_int64(self, k):
        """2^63 and 2^66 points: a product in int64 reads -2^63 and 0."""
        assert yf.GridSpec(3, (2**k,) * 3, (1, 1, 1)).num_points == 2 ** (3 * k)


class TestScalarField:
    def test_constant(self, grid8):
        w = yf.ScalarField.constant(grid8, 2.5)
        assert w.min() == 2.5 and w.max() == 2.5

    def test_rejects_nan_with_location(self, grid8):
        vals = np.zeros(grid8.shape)
        vals[1, 2, 3] = np.nan
        with pytest.raises(NonFiniteFieldError) as exc:
            yf.ScalarField(grid8, vals)
        assert "(1, 2, 3)" in str(exc.value)

    def test_rejects_inf(self, grid8):
        vals = np.zeros(grid8.shape)
        vals[0, 0, 0] = np.inf
        with pytest.raises(NonFiniteFieldError):
            yf.ScalarField(grid8, vals)

    def test_rejects_wrong_size(self, grid8):
        for make, values in ((yf.ScalarField, np.zeros(7)), (SubdomainMask, np.ones(7, dtype=bool))):
            with pytest.raises(ValueError, match="got 7"):
                make(grid8, values)

    def test_grid_mismatch_detected(self, grid8):
        other = yf.ScalarField.constant(unit_grid(4), 1.0)
        mine = yf.ScalarField.constant(grid8, 1.0)
        with pytest.raises(GridMismatchError):
            require_same_grid(mine, other)


class TestIntegrate:
    def test_constant_integrates_to_volume_scale(self, grid8):
        assert yf.integrate(yf.ScalarField.constant(grid8, 3.0)) == pytest.approx(3.0, rel=1e-15)

    def test_matches_naive_sum(self, grid8):
        rng = np.random.default_rng(7)
        vals = rng.standard_normal(grid8.shape)
        w = yf.ScalarField(grid8, vals)
        naive = float(np.sum(vals)) * grid8.cell_volume
        assert yf.integrate(w) == pytest.approx(naive, abs=1e-13)

    def test_permutation_invariant(self, grid8):
        # The reduction is exactly rounded, so any reordering of the data
        # (e.g. a transpose) integrates to the identical float.
        rng = np.random.default_rng(11)
        vals = rng.standard_normal(grid8.shape)
        a = yf.integrate(yf.ScalarField(grid8, vals))
        b = yf.integrate(yf.ScalarField(grid8, vals.transpose(2, 0, 1)))
        assert a == b

    def test_values_made_non_finite_after_construction_rejected(self, grid8):
        w = yf.ScalarField.constant(grid8, 1.0)
        w.values[1, 2, 3] = math.nan
        with pytest.raises(NonFiniteFieldError, match=r"\(1, 2, 3\)"):
            yf.integrate(w)


class TestLpNorm:
    def test_constant_closed_form(self, grid8):
        w = yf.ScalarField.constant(grid8, -2.0)
        one = yf.ScalarField.constant(grid8, 1.0)
        assert yf.lp_norm(w, one, 3.0) == pytest.approx(2.0, rel=1e-14)

    def test_matches_naive(self, grid8):
        rng = np.random.default_rng(3)
        w = yf.ScalarField(grid8, rng.standard_normal(grid8.shape))
        weight = yf.ScalarField(grid8, rng.random(grid8.shape))
        p = 2.5
        naive = (np.sum(np.abs(w.values) ** p * weight.values) * grid8.cell_volume) ** (1 / p)
        assert yf.lp_norm(w, weight, p) == pytest.approx(naive, rel=1e-13)

    def test_rejects_p_below_one(self, grid8):
        w = yf.ScalarField.constant(grid8, 1.0)
        with pytest.raises(ValueError):
            yf.lp_norm(w, w, 0.5)

    def test_rejects_nan_p(self, grid8):
        w = yf.ScalarField.constant(grid8, 1.0)
        with pytest.raises(ValueError, match="p must be >= 1"):
            yf.lp_norm(w, w, math.nan)

    def test_rejects_infinite_p(self, grid8):
        """|w|^inf is inf or 0, so a sup norm would come out as 1.0 or 0.0, never max|w|."""
        w = yf.ScalarField.constant(grid8, 2.0)
        one = yf.ScalarField.constant(grid8, 1.0)
        with pytest.raises(ValueError, match="p must be >= 1"):
            yf.lp_norm(w, one, math.inf)

    def test_rejects_negative_weight(self, grid8):
        w = yf.ScalarField.constant(grid8, 1.0)
        bad = yf.ScalarField.constant(grid8, -1.0)
        with pytest.raises(ValueError):
            yf.lp_norm(w, bad, 2.0)


def _bad_at_1_2_3(value, base=1.0):
    """A 4x5x6 field of ``base`` with ``value`` at (1, 2, 3), flat index 45."""
    vals = np.full((4, 5, 6), base)
    vals[1, 2, 3] = value
    return vals


def _integrate_inf(grid):
    w = yf.ScalarField.constant(grid, 1.0)
    w.values[...] = _bad_at_1_2_3(math.inf)
    yf.integrate(w)


@pytest.mark.parametrize(
    "fail, error, message",
    [
        (lambda g: yf.ScalarField(g, _bad_at_1_2_3(math.nan)), NonFiniteFieldError,
         "non-finite value nan at flat index 45 (1, 2, 3)"),
        (_integrate_inf, NonFiniteFieldError, "non-finite value at flat index 45 (1, 2, 3)"),
        (lambda g: yf.lp_norm(yf.ScalarField.constant(g, 1.0),
                              yf.ScalarField(g, _bad_at_1_2_3(-0.5)), 2.0),
         ValueError, "negative weight at flat index 45 (1, 2, 3)"),
        (lambda g: yf.Background(g, yf.ScalarField(g, _bad_at_1_2_3(0.5, -1.0)),
                                 yf.ScalarField.constant(g, -1.0)),
         ValueError, "R0 must be negative everywhere; R0=0.5 at flat index 45 (1, 2, 3)"),
        (lambda g: require_positive(yf.ScalarField(g, _bad_at_1_2_3(-0.5)), "u0"),
         PositivityError, "u0 must be positive everywhere; u0=-0.5 at flat index 45 (1, 2, 3)"),
    ],
    ids=["scalar_field_nan", "integrate_inf", "lp_norm_weight", "background_r0", "positive_u0"],
)
def test_bad_values_are_located_in_full(fail, error, message):
    """Each message names the first bad value's flat index and its (i, j, k), byte for byte."""
    with pytest.raises(error) as exc:
        fail(yf.GridSpec(3, (4, 5, 6), (1.0, 1.0, 1.0)))
    assert type(exc.value) is error
    assert str(exc.value) == message


class TestMasks:
    def test_point_dilation_is_chebyshev_ball(self, grid8):
        inside = np.zeros(grid8.shape, dtype=bool)
        inside[4, 4, 4] = True
        mask = SubdomainMask(grid8, inside)
        for r in range(3):
            assert yf.dilate(mask, r).count == (2 * r + 1) ** 3

    def test_dilation_wraps_periodically(self, grid8):
        inside = np.zeros(grid8.shape, dtype=bool)
        inside[0, 0, 0] = True
        grown = yf.dilate(SubdomainMask(grid8, inside), 1)
        assert grown.inside[7, 7, 7]

    def test_complement(self, grid8):
        inside = np.zeros(grid8.shape, dtype=bool)
        inside[2:5, 2:5, 2:5] = True
        mask = SubdomainMask(grid8, inside)
        assert mask.complement().count == grid8.num_points - mask.count

    def test_chebyshev_distance_point(self, grid8):
        inside = np.zeros(grid8.shape, dtype=bool)
        inside[0, 0, 0] = True
        dist = chebyshev_distance(SubdomainMask(grid8, inside), 3)
        assert dist[0, 0, 0] == 0
        assert dist[1, 7, 0] == 1
        assert dist[3, 0, 0] == 3
        assert dist[4, 0, 0] == 4  # saturated at cap + 1
        assert dist[4, 4, 4] == 4  # saturated at cap + 1

    def test_negative_radius_rejected(self, grid8):
        inside = np.zeros(grid8.shape, dtype=bool)
        inside[0, 0, 0] = True
        mask = SubdomainMask(grid8, inside)
        with pytest.raises(ValueError, match="dilation radius must be >= 0"):
            yf.dilate(mask, -1)
        with pytest.raises(ValueError, match="dilation radius must be >= 0"):
            chebyshev_distance(mask, -3)

    def test_empty_mask_distance_saturates(self, grid8):
        dist = chebyshev_distance(SubdomainMask.empty(grid8), 2)
        assert np.all(dist == 3)

    def test_distance_stops_when_mask_stops_growing(self, grid8, monkeypatch):
        """A cap far past the grid's diameter costs only the steps that add points."""
        one_step, calls = gridmod._dilate_once, []

        def counted(inside):
            calls.append(None)
            if len(calls) > 10:
                raise AssertionError("dilation kept going after the mask stopped growing")
            return one_step(inside)

        monkeypatch.setattr(gridmod, "_dilate_once", counted)
        inside = np.zeros(grid8.shape, dtype=bool)
        inside[0, 0, 0] = True
        dist = chebyshev_distance(SubdomainMask(grid8, inside), 10**9)
        assert len(calls) <= 5  # four steps reach the whole 8^3 torus, the fifth adds nothing
        assert dist.max() == 4

    def test_empty_and_full(self, grid8):
        assert SubdomainMask.empty(grid8).is_empty
        assert SubdomainMask.full(grid8).count == grid8.num_points


@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=64, max_size=64
    )
)
@settings(max_examples=25, deadline=None)
def test_integrate_is_linear_under_negation(values):
    g = yf.GridSpec(3, (4, 4, 4), (1.0, 1.0, 1.0))
    w = yf.ScalarField(g, np.array(values).reshape(4, 4, 4))
    neg = yf.ScalarField(g, -w.values)
    assert yf.integrate(neg) == -yf.integrate(w)


@given(c=st.floats(min_value=-100, max_value=100, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_integrate_constant_scales(c):
    g = yf.GridSpec(3, (4, 4, 4), (2.0, 1.0, 1.0))
    total = yf.integrate(yf.ScalarField.constant(g, c))
    assert math.isclose(total, 2.0 * c, rel_tol=1e-12, abs_tol=1e-12)


def brute_chebyshev_distance(inside: np.ndarray) -> np.ndarray:
    """Periodic Chebyshev distance from every point to the nearest mask point (inf if none)."""
    sizes = np.array(inside.shape)
    points = np.indices(inside.shape).reshape(inside.ndim, -1).T
    diff = np.abs(points[:, None, :] - points[inside.ravel()][None, :, :])
    per_pair = np.minimum(diff, sizes - diff).max(axis=2)
    if per_pair.shape[1] == 0:
        return np.full(inside.shape, np.inf)
    return per_pair.min(axis=1).reshape(inside.shape).astype(np.float64)


@st.composite
def periodic_masks(draw):
    sizes = tuple(draw(st.lists(st.integers(4, 7), min_size=3, max_size=3)))
    count = int(np.prod(sizes))
    flags = draw(
        st.one_of(
            st.just([False] * count),
            st.just([True] * count),
            st.lists(st.booleans(), min_size=count, max_size=count),
            st.sets(st.integers(0, count - 1), max_size=3).map(
                lambda picked: [i in picked for i in range(count)]
            ),
        )
    )
    grid = yf.GridSpec(3, sizes, tuple(float(s) for s in sizes))
    return SubdomainMask(grid, np.array(flags).reshape(sizes))


@given(mask=periodic_masks())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_chebyshev_distance_matches_brute_force(mask):
    exact = brute_chebyshev_distance(mask.inside)
    for cap in range(max(mask.grid.sizes) // 2 + 3):
        dist = chebyshev_distance(mask, cap)
        assert np.array_equal(dist, np.minimum(exact, cap + 1))
        assert np.array_equal(yf.dilate(mask, cap).inside, dist <= cap)


def fsum_bits(f, values) -> str:
    """``f(values).hex()``, which keeps the sign of zero, or the error that ``f`` raises."""
    try:
        return f(values).hex()
    except OverflowError:
        return "OverflowError"


def assert_same_bits(a):
    assert fsum_bits(_fsum, a) == fsum_bits(math.fsum, a.ravel().tolist())


@st.composite
def float_arrays(draw):
    """float64 arrays of 0 to 20000 values whose exponents span the whole range.

    Hypothesis draws the size, the exponent window, a seed for the bulk, a
    few extreme values (subnormals, the largest finite) placed at random
    and whether a prefix is appended negated, so that whole pairs ``(x, -x)``
    cancel exactly.
    """
    size = draw(st.integers(0, 20000))
    lo = draw(st.integers(-1100, 1000))
    hi = draw(st.integers(lo, 1000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = np.ldexp(rng.standard_normal(size), rng.integers(lo, hi + 1, size))
    extremes = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8))
    if size:
        a[rng.integers(0, size, len(extremes))] = extremes
    if draw(st.booleans()):
        a = np.concatenate([a, -a[: draw(st.integers(0, size))]])
        rng.shuffle(a)
    return a


@given(a=float_arrays())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_fsum_is_math_fsum_bit_for_bit(a):
    assert_same_bits(a)


class TestExactSum:
    @pytest.mark.parametrize(
        "values, expected",
        [
            ([1.0, 2.0**-53], 1.0),
            ([1.0, 2.0**-53, 2.0**-1000], 1.0 + 2.0**-52),
            ([5e-324, 5e-324], 1e-323),
            # The total lies 2**-103 below the midpoint of 1 + 7 * 2**-52 and 1 + 8 * 2**-52,
            # and the rounded remainder sum is 2**-99.8 too large: err = 2**-92 covers that and
            # falls back, an err ten bits smaller (2**(k - 115)) would certify 1 + 8 * 2**-52.
            (
                [float.fromhex(x) for x in (
                    "0x1.0000000000000p+0", "-0x1.a0189fc147a78p-48", "-0x1.10fdc880e180bp-51",
                    "-0x1.ca561e539d34dp-51", "-0x1.0c8c8bc937d7ep-50", "-0x1.99cd240008e26p-50",
                    "-0x1.1181c4d455c71p-51", "0x1.9fa4e0945932dp-47",
                )],
                float.fromhex("0x1.0000000000007p+0"),
            ),
        ],
        ids=["tie_to_even", "tie_broken_by_tiny", "subnormal", "near_tie_within_err"],
    )
    def test_fixed_sums(self, values, expected):
        a = np.array(values)
        assert _fsum(a) == expected
        assert_same_bits(a)

    def test_negative_zeros(self):
        assert_same_bits(np.array([-0.0, -0.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite(self, bad):
        assert_same_bits(np.array([1.0, bad, 2.0]))

    def test_opposite_infinities_sum_to_nan(self):
        """math.fsum raises on +inf beside -inf; the IEEE sum is NaN."""
        assert math.isnan(_fsum(np.array([1.0, math.inf, -math.inf])))

    def test_intermediate_overflow_raises_like_math_fsum(self):
        with pytest.raises(OverflowError):
            _fsum(np.array([1e308, 1e308, -1e308]))

    def test_flow_moment_24(self):
        # |R_g - f|^4.5 u^6, a residual moment of a 24^3 state after 3 steps.
        bg, u = flow_state(24)
        resid = yf.scalar_curvature(bg, u).values - bg.f.values
        assert_same_bits(np.abs(resid) ** 4.5 * u.values**6)

    @pytest.mark.parametrize("size", [16, 24])
    def test_flow_moments_take_the_extraction(self, size):
        """The energy density, (R_g - f)^2 u^6 and |R_g - f|^4.5 u^6 never reach the fallback."""
        bg, u = flow_state(size)
        with recorded_fsum_lengths() as lengths:
            ev = flowmod._StateEval(bg, u)
            _fsum(np.abs(ev.resid) ** 4.5 * ev.weight)
        assert len(lengths) == 6 and max(lengths) <= 3

    def test_tie_broken_by_the_remainder(self):
        """2**53 + 1 is a tie that 4094 * 2**-60 breaks upward, closer than err: the fallback."""
        a = np.array([2.0**53, 1.0] + [2.0**-60] * 4094)
        assert _fsum(a) == 2.0**53 + 2.0
        assert_path(a, fast=False)

    @pytest.mark.parametrize("size", [4096, 13824])
    def test_exact_zero_total(self, size):
        rng = np.random.default_rng(size)
        half = np.ldexp(rng.standard_normal(size // 2), rng.integers(-60, 60, size // 2))
        a = np.concatenate([half, -half])
        rng.shuffle(a)
        assert_path(a, fast=False)

    def test_all_negative_zeros(self):
        assert_path(np.full(4096, -0.0), fast=False)

    @pytest.mark.parametrize("value", [-3.7, 2.0**-1019, 2.0**1019], ids=["plain", "tiny", "huge"])
    def test_single_value(self, value):
        assert_path(np.array([value]), fast=True)

    @pytest.mark.parametrize(
        "scale, fast",
        [(2.0**-1054, False), (2.0**-1000, True)],
        ids=["sigma_subnormal", "err_below_normal"],
    )
    def test_tiny_values(self, scale, fast):
        """4096 values below ``scale``: sigma = 2**k is normal only for the larger; err is not."""
        rng = np.random.default_rng(5)
        a = scale * rng.uniform(-1.0, 1.0, 4096)
        assert_path(a, fast=fast)

    @pytest.mark.parametrize(
        "top, fast",
        [(np.nextafter(2.0**1008, 0.0), True), (2.0**1008, False)],
        ids=["below", "above"],
    )
    def test_overflow_guard(self, top, fast):
        """At 4096 values, k = frexp(max|v|)[1] + 15 reaches 1024 once max|v| = 2**1008."""
        rng = np.random.default_rng(9)
        a = top * rng.uniform(-1.0, 1.0, 4096)
        a[1234] = -top
        assert_path(a, fast=fast)


def flow_state(size):
    """The trapped bump at ``size**3`` and a bumped u after 3 RK4 steps."""
    bg = trapped_bump_background(size)
    u = yf.ScalarField(bg.grid, 1.0 + periodic_gaussian(bg.grid, (0.4, 0.5, 0.6), 0.1, 0.3))
    state = yf.FlowState(u, 0.0, 0, 0.0)
    for _ in range(3):
        state = yf.step(bg, state, yf.stable_dt(bg, state.u, 0.8))
    return bg, state.u


@contextlib.contextmanager
def recorded_fsum_lengths():
    """Within the block, the length of each argument that ``math.fsum`` sees."""
    lengths, fsum = [], math.fsum

    def recorded(xs):
        lengths.append(len(xs))
        return fsum(xs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gridmod.math, "fsum", recorded)
        yield lengths


def assert_path(a, fast):
    """``_fsum(a)`` has ``math.fsum``'s bits, and only rounds its two certified sums when ``fast``.

    The extraction hands ``math.fsum`` exactly two 3-tuples; every fallback ends
    by handing it all ``a.size`` values.
    """
    assert a.size != 3
    with recorded_fsum_lengths() as lengths:
        _fsum(a)
    assert (lengths == [3, 3]) == fast, lengths
    assert_same_bits(a)
