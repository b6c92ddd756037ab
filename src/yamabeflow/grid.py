"""Periodic structured grids and deterministic field algebra.

All integrals are midpoint (cell-sum) quadrature with the cell volume
``prod(h_i)``.  Reductions are exactly rounded in flat row-major order, so
they are bitwise reproducible regardless of grouping: :func:`_fsum` gives
:func:`math.fsum`'s float bit for bit from two numpy sums after an error-free
extraction (Rump, Ogita and Oishi, 2008), certified by a bound ``err``; exact
zeros, totals within ``err`` of a rounding boundary and out-of-range inputs go
to :func:`math.fsum`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError, NonFiniteFieldError

__all__ = [
    "GridSpec",
    "ScalarField",
    "SubdomainMask",
    "integrate",
    "lp_norm",
    "dilate",
    "chebyshev_distance",
]


@dataclass(frozen=True)
class GridSpec:
    """Flat periodic grid: ``sizes[i]`` points on a torus of period ``lengths[i]``."""

    n: int
    sizes: tuple[int, ...]
    lengths: tuple[float, ...]
    # Derived once from sizes and lengths, so they take no part in equality, hash or repr.
    spacings: tuple[float, ...] = field(init=False, repr=False, compare=False)
    cell_volume: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not float(self.n).is_integer():  # int() would truncate 3.5 to 3; NaN fails too
            raise ValueError(f"dimension must be a whole number, got {self.n}")
        if not all(float(s).is_integer() for s in self.sizes):  # int() would truncate 4.9 to 4
            raise ValueError(f"all sizes must be whole numbers, got {tuple(self.sizes)}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        object.__setattr__(self, "lengths", tuple(float(L) for L in self.lengths))
        if self.n < 3:
            raise ValueError(f"dimension must be >= 3, got {self.n}")
        if len(self.sizes) != self.n or len(self.lengths) != self.n:
            raise ValueError("sizes and lengths must have one entry per dimension")
        if any(s < 4 for s in self.sizes):
            raise ValueError(f"all sizes must be >= 4, got {self.sizes}")
        if not all(0.0 < L < np.inf for L in self.lengths):
            raise ValueError(f"all lengths must be positive and finite, got {self.lengths}")
        spacings = tuple(L / s for L, s in zip(self.lengths, self.sizes))
        # The stencils divide by h*h and the integrals multiply by the cell volume, so
        # h*h must be a normal float (then 2/h^2 is finite too) and the volume must
        # neither underflow to 0 nor overflow.
        if not all(sys.float_info.min <= h * h < math.inf for h in spacings):
            raise ValueError(f"every h*h must be a normal float, got spacings {spacings}")
        cell_volume = math.prod(spacings)
        if not 0.0 < cell_volume < math.inf:
            raise ValueError(f"the cell volume must be positive and finite, got {cell_volume}")
        object.__setattr__(self, "spacings", spacings)
        object.__setattr__(self, "cell_volume", cell_volume)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.sizes

    @property
    def num_points(self) -> int:
        return math.prod(self.sizes)

    def axis_coordinates(self, axis: int) -> np.ndarray:
        h = self.spacings[axis]
        return np.arange(self.sizes[axis]) * h

    def meshgrid(self) -> list[np.ndarray]:
        axes = [self.axis_coordinates(i) for i in range(self.n)]
        return list(np.meshgrid(*axes, indexing="ij"))


def _first_bad_index(bad: np.ndarray) -> str:
    flat = int(np.flatnonzero(bad.ravel(order="C"))[0])
    return f"at flat index {flat} {tuple(int(i) for i in np.unravel_index(flat, bad.shape))}"


class ScalarField:
    """One float64 value per grid point, stored row-major in the grid shape."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: GridSpec, values):
        arr = np.asarray(values, dtype=np.float64)
        if arr.size != grid.num_points:
            raise ValueError(
                f"expected {grid.num_points} values for grid {grid.sizes}, got {arr.size}"
            )
        arr = np.ascontiguousarray(arr.reshape(grid.shape))
        finite = np.isfinite(arr)
        if not finite.all():
            bad = ~finite
            raise NonFiniteFieldError(f"non-finite value {arr[bad][0]:g} {_first_bad_index(bad)}")
        self.grid = grid
        self.values = arr

    @classmethod
    def constant(cls, grid: GridSpec, c: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(c)))

    @classmethod
    def zeros(cls, grid: GridSpec) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())

    def __repr__(self):
        return f"ScalarField(grid={self.grid.sizes}, min={self.min():g}, max={self.max():g})"


class SubdomainMask:
    """Boolean field marking the points of an open subdomain."""

    __slots__ = ("grid", "inside")

    def __init__(self, grid: GridSpec, inside):
        arr = np.asarray(inside, dtype=bool)
        if arr.size != grid.num_points:
            raise ValueError(
                f"expected {grid.num_points} flags for grid {grid.sizes}, got {arr.size}"
            )
        self.grid = grid
        self.inside = np.ascontiguousarray(arr.reshape(grid.shape))

    @classmethod
    def empty(cls, grid: GridSpec) -> "SubdomainMask":
        return cls(grid, np.zeros(grid.shape, dtype=bool))

    @classmethod
    def full(cls, grid: GridSpec) -> "SubdomainMask":
        return cls(grid, np.ones(grid.shape, dtype=bool))

    @property
    def count(self) -> int:
        return int(self.inside.sum())

    @property
    def is_empty(self) -> bool:
        return not bool(self.inside.any())

    def complement(self) -> "SubdomainMask":
        return SubdomainMask(self.grid, ~self.inside)

    def __repr__(self):
        return f"SubdomainMask(grid={self.grid.sizes}, count={self.count})"


def require_same_grid(a, b):
    if a.grid != b.grid:
        raise GridMismatchError(f"grid mismatch: {a.grid} vs {b.grid}")


def _fsum(values: np.ndarray) -> float:
    # math.fsum's result, bit for bit (Rump, Ogita and Oishi, "Accurate floating-point
    # summation, part I", SIAM J. Sci. Comput. 31, 2008).  sigma = 2**k > 4 * size * max|v|,
    # so q = (v + sigma) - sigma lies on the grid 2**(k - 53) and q.sum() is exact in any
    # order; r = v - q is exact with |r| <= 2**(k - 53), so r.sum() is within err =
    # size**2 * 2**(k - 105) of its exact sum (below the normal range both are multiples of
    # 2**-1074, which the rounded err still covers).  Rounding is monotone: if s1 + s2 - err
    # and s1 + s2 + err round alike, so does the exact total.  math.fsum itself takes an
    # empty or non-finite input, more than 2**26 values, a sigma that is not a finite normal
    # float, an exact zero (whose sign it decides) and a total within err of a rounding
    # boundary.  +inf beside -inf sums to NaN, as in IEEE addition, where math.fsum raises.
    v = np.asarray(values, dtype=np.float64).ravel(order="C")
    in_range = 0 < v.size <= 1 << 26
    m = max(-np.minimum.reduce(v, None), np.maximum.reduce(v, None)) if in_range else math.nan
    k = math.frexp(m)[1] + v.size.bit_length() + 2 if 0.0 < m < math.inf else 1024
    if -1022 <= k <= 1023:  # sigma is a finite normal float
        sigma = math.ldexp(1.0, k)
        q = v + sigma
        q -= sigma
        s1 = float(np.add.reduce(q, None))
        s2 = float(np.add.reduce(np.subtract(v, q, out=q), None))
        err = math.ldexp(v.size**2, k - 105)
        total = math.fsum((s1, s2, err))
        if total and total == math.fsum((s1, s2, -err)):
            return total
    try:
        return math.fsum(v.tolist())
    except ValueError:  # "-inf + inf in fsum"
        return math.nan


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


def integrate(w: ScalarField) -> float:
    """Cell-sum integral of ``w`` against the background volume element."""
    finite = np.isfinite(w.values)
    if not finite.all():
        raise NonFiniteFieldError(f"non-finite value {_first_bad_index(~finite)}")
    return _fsum(w.values) * w.grid.cell_volume


def lp_norm(w: ScalarField, weight: ScalarField, p: float) -> float:
    """``(integral of |w|^p * weight dV)^(1/p)`` for finite ``p >= 1``."""
    require_same_grid(w, weight)
    if not 1.0 <= p < math.inf:
        raise ValueError(f"p must be >= 1 and finite, got {p}")
    if weight.values.min() < 0.0:
        raise ValueError(f"negative weight {_first_bad_index(weight.values < 0.0)}")
    total = _fsum(_power(np.abs(w.values), p) * weight.values) * w.grid.cell_volume
    return total ** (1.0 / p)


def _dilate_once(inside: np.ndarray) -> np.ndarray:
    # Per-axis 1-step dilation composes to the Chebyshev ball.
    out = inside
    for axis in range(inside.ndim):
        out = out | np.roll(out, 1, axis=axis) | np.roll(out, -1, axis=axis)
    return out


def dilate(mask: SubdomainMask, r: int) -> SubdomainMask:
    """Grow the mask by ``r >= 0`` cells in periodic Chebyshev distance."""
    return SubdomainMask(mask.grid, chebyshev_distance(mask, r) <= r)


def chebyshev_distance(mask: SubdomainMask, cap: int) -> np.ndarray:
    """Periodic Chebyshev grid distance to the mask, saturated at ``cap + 1``.

    Points inside the mask get 0; points not reached within ``cap`` dilation
    steps get ``cap + 1``.  An empty mask gives ``cap + 1`` everywhere.  The
    sweep stops at the first step that adds no point: the mask grows no more.
    """
    if cap < 0:
        raise ValueError(f"dilation radius must be >= 0, got {cap}")
    dist = np.full(mask.grid.shape, cap + 1, dtype=np.int64)
    reached = mask.inside
    dist[reached] = 0
    for r in range(1, cap + 1):
        added = _dilate_once(reached) & ~reached
        if not added.any():
            break
        dist[added] = r
        reached = reached | added
    return dist
