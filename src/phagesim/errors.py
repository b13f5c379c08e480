"""Exception hierarchy shared across the package."""


class PhagesimError(Exception):
    """Base class for all package errors."""


class DomainError(PhagesimError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class HypothesisError(PhagesimError, ValueError):
    """A standing hypothesis fails so that a quantity derived from it does not exist."""


class EquilibriumExistenceError(PhagesimError, ValueError):
    """The requested equilibrium point does not exist for these parameters."""


class DivergenceError(PhagesimError, ArithmeticError):
    """A trajectory blew up (some component exceeded the overflow guard)."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class PositivityError(PhagesimError, ArithmeticError):
    """A component went negative beyond the tolerated undershoot."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class WindowError(PhagesimError, ValueError):
    """A fitting or observation window is unusable (empty, or distances underflow)."""


class ConfigurationError(PhagesimError, ValueError):
    """An experiment configuration is inconsistent."""


class ScenarioError(PhagesimError, ValueError):
    """A scenario file failed to parse or validate."""
