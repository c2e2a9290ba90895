"""Exception hierarchy shared across the package.

Each class carries the CLI exit code it maps onto: ConfigError -> 1,
PhysicsError subclasses -> 2, NumericsError (and the base class) -> 3.
"""


class BathcoolError(Exception):
    """Base class for all package errors."""

    kind = "error"
    exit_code = 3


class ConfigError(BathcoolError):
    """Malformed or invalid configuration / usage."""

    kind = "config_error"
    exit_code = 1


class PhysicsError(BathcoolError):
    """A physical precondition is violated (instability, regime, fit)."""

    kind = "physics_error"
    exit_code = 2


class UnstableSystemError(PhysicsError):
    kind = "unstable_system"


class RegimeError(PhysicsError):
    kind = "out_of_regime"


class FitFailureError(PhysicsError):
    kind = "fit_failure"


class CoverageError(PhysicsError):
    """Spectrum grid does not cover enough of the resonance tails."""

    kind = "insufficient_coverage"


class NumericsError(BathcoolError):
    """Numerical failure (singular solve, excess negative spectrum, ...)."""

    kind = "numerical_failure"
