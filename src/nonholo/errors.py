"""Exception hierarchy shared across the package."""


class NonholoError(Exception):
    """Base class for all package errors."""


class ExprSyntaxError(NonholoError):
    """Malformed expression source; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ExprDomainError(NonholoError):
    """Evaluation left the real domain (log of non-positive, 0-division, ...)."""


class RegularityError(NonholoError):
    """Constraint Gram matrix lost regularity (smallest eigenvalue below floor)."""


class NoConvergence(NonholoError):
    """Newton projection onto the constraint manifold failed to converge."""


class VanishingVelocity(NonholoError):
    """Gauge transformation evaluated where the velocity norm is (near) zero."""


class InitialStateError(NonholoError):
    """Initial data violates the constraints beyond the admission tolerance."""


class ConfigError(NonholoError):
    """Invalid run configuration; carries the offending field path."""

    def __init__(self, message: str, field: str = ""):
        super().__init__(f"{field}: {message}" if field else message)
        self.field = field


# the exceptions a run ends as an "error" termination: the package's own, float
# arithmetic (overflow, division by zero) and math domain errors
RUN_ERRORS = (NonholoError, ArithmeticError, ValueError)
