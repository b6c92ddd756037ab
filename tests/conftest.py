"""Shared grid/background builders for the test suite."""

import numpy as np
import pytest

import yamabeflow as yf


def unit_grid(size, n=3, length=1.0):
    return yf.GridSpec(n, (size,) * n, (length,) * n)


def periodic_gaussian(grid, center, width, amplitude=1.0):
    """Gaussian bump in the periodic distance to ``center``."""
    coords = grid.meshgrid()
    d2 = np.zeros(grid.shape)
    for x, c, length in zip(coords, center, grid.lengths):
        d = np.abs(x - c)
        d = np.minimum(d, length - d)
        d2 += d * d
    return amplitude * np.exp(-d2 / (2.0 * width * width))


def constant_background(grid, r0=-1.0, f=-1.0):
    return yf.Background(
        grid, yf.ScalarField.constant(grid, r0), yf.ScalarField.constant(grid, f)
    )


@pytest.fixture
def grid8():
    return unit_grid(8)


@pytest.fixture
def bg8(grid8):
    return constant_background(grid8)


def trapped_bump_background(size=16):
    """The small-positive-bump target with negative background curvature.

    sup f on the superlevel set is small enough that the size condition
    holds with the default cutoff construction at h = 1/16.
    """
    grid = unit_grid(size)
    f = yf.ScalarField(
        grid, -1.0 + periodic_gaussian(grid, (0.5, 0.5, 0.5), 0.06, 1.005)
    )
    return yf.Background(grid, yf.ScalarField.constant(grid, -1.0), f)


def evolution_window(size, dt, nburn):
    """The background and three equally spaced states of acceptance 08's evolution window.

    R0 = -1 and f = -1 + a 0.5 bump of width 0.15 on the unit torus; u0 is 1 plus a 0.1 bump
    of width 0.2; the window is steps ``nburn`` to ``nburn + 2`` of ``dt``.
    """
    grid = unit_grid(size)
    f = yf.ScalarField(grid, -1.0 + periodic_gaussian(grid, (0.5, 0.5, 0.5), 0.15, 0.5))
    bg = yf.Background(grid, yf.ScalarField.constant(grid, -1.0), f)
    u0 = yf.ScalarField(grid, 1.0 + periodic_gaussian(grid, (0.5, 0.5, 0.5), 0.2, 0.1))
    state = yf.flow.FlowState(u0, 0.0, 0, 0.0)
    for _ in range(nburn):
        state = yf.step(bg, state, dt)
    states = [state]
    for _ in range(2):
        states.append(yf.step(bg, states[-1], dt))
    return bg, states


def manufactured_background(n, size):
    """A background whose stationary solution is known in closed form, and that solution u*.

    On the torus of side 4 with ``size`` points per axis, u* = 1 + 0.1 prod_i cos(2 pi x_i / 4),
    R0 = -10 and f* = u*^(-N) (-c_n Lap u* + R0 u*), with Lap u* = -n (pi/2)^2 (u* - 1).  So u*
    solves the continuum stationary equation exactly, and f* < 0 makes it the unique stable limit.
    """
    grid = yf.GridSpec(n, (size,) * n, (4.0,) * n)
    bump = 0.1 * np.prod([np.cos(0.5 * np.pi * x) for x in grid.meshgrid()], axis=0)
    u_star = 1.0 + bump
    r0 = yf.ScalarField.constant(grid, -10.0)
    lap = -n * (0.5 * np.pi) ** 2 * bump
    c_n, big_n = 4.0 * (n - 1) / (n - 2), (n + 2.0) / (n - 2.0)
    f = u_star ** (-big_n) * (-c_n * lap - 10.0 * u_star)
    return yf.Background(grid, r0, yf.ScalarField(grid, f)), yf.ScalarField(grid, u_star)


def slab_background(f_omega):
    """R0 = -1 on a 32 x 8 x 8 grid with h = 1; f = -1 off the 6-cell slab Omega, f_omega on it.

    H1 holds with lambda_Omega = 0.58, but the 2-cell dilation D has lambda_D = -0.35.
    """
    grid = yf.GridSpec(3, (32, 8, 8), (32.0, 8.0, 8.0))
    x = grid.meshgrid()[0]
    omega = yf.SubdomainMask(grid, (x > 12.0) & (x < 19.0))
    f = yf.ScalarField(grid, np.where(omega.inside, f_omega, -1.0))
    return yf.Background(grid, yf.ScalarField.constant(grid, -1.0), f), omega


def two_bump_background():
    """Two 7-point components of Omega whose eigenvalues, 1816.008 and 1816.851, nearly meet.

    8^3 unit grid; R0 = -1 with a -1 bump of width 0.15 at (0.75, 0.5, 0.5),
    f = -1 with 0.9 bumps of width 0.15 at (0.25, 0.5, 0.5) and (0.75, 0.5, 0.5),
    and Omega = {f > -0.5}.
    """
    grid = unit_grid(8)
    r0 = -1.0 - periodic_gaussian(grid, (0.75, 0.5, 0.5), 0.15)
    f = -1.0 + sum(periodic_gaussian(grid, (x, 0.5, 0.5), 0.15, 0.9) for x in (0.25, 0.75))
    bg = yf.Background(grid, yf.ScalarField(grid, r0), yf.ScalarField(grid, f))
    return bg, yf.superlevel_mask(bg, 0.5)
