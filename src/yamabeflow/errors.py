"""Exception types shared across the package."""


class GridMismatchError(ValueError):
    """Two objects live on different grids."""


class NonFiniteFieldError(ValueError):
    """A field contains NaN or Inf."""


class PositivityError(ValueError):
    """A field that must be strictly positive is not."""


class ComputationFailure(RuntimeError):
    """A computation ran on valid input and failed; the CLI reports it as ``FAIL``."""


class EigenConvergenceError(ComputationFailure):
    """Inverse iteration did not reach the requested residual."""


class EigenvalueConditionError(ComputationFailure, ValueError):
    """The subdomain fails the eigenvalue condition, so no certificate is built on it."""


class DeltaWindowEmptyError(ComputationFailure):
    """No admissible scaling delta exists: the H2-type window is empty."""

    def __init__(self, delta_lo, delta_hi, c_omega):
        super().__init__(
            f"empty delta window [{delta_lo!r}, {delta_hi!r}] "
            f"(implied domain constant {c_omega!r}); H2 violated"
        )
        self.delta_lo = delta_lo
        self.delta_hi = delta_hi
        self.c_omega = c_omega


class PositivityCollapseError(ComputationFailure):
    """Explicit step lost positivity even after repeated dt halving."""

    def __init__(self, message, state):
        super().__init__(message)
        self.state = state


class ScenarioError(ValueError):
    """Scenario file failed to parse or validate."""
