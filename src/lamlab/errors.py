"""Exception types shared across the package."""


class LamlabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(LamlabError):
    """A function was evaluated below its domain floor, or its value overflows."""


class OffManifold(LamlabError):
    """A matrix violates the unit-determinant constraint beyond tolerance."""


class PreconditionError(LamlabError):
    """An input does not have the structure an operation requires."""


class DegenerateTangency(LamlabError):
    """Two construction roots coincide where distinct roots are required."""


class BranchDisagreement(LamlabError):
    """Adjacent closed-form branches disagree near a region boundary."""
