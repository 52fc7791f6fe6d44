"""Semantic exception hierarchy shared across the package."""

__all__ = [
    "PitnearError",
    "DomainError",
    "ConvergenceError",
    "UnsupportedCaseError",
    "UnknownEstimatorError",
    "ConfigError",
]


class PitnearError(Exception):
    """Base error for this package."""


class DomainError(PitnearError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(PitnearError, RuntimeError):
    """An iterative method did not reach the requested tolerance."""

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


class UnsupportedCaseError(PitnearError, ValueError):
    """A model/component/loss combination the catalog does not cover."""


class UnknownEstimatorError(UnsupportedCaseError):
    """An estimator name not present in the catalog for the given model."""

    def __init__(self, name: str, valid: list[str]):
        super().__init__(f"unknown estimator {name!r}; valid names: {', '.join(valid)}")
        self.name = name
        self.valid = valid


class ConfigError(PitnearError, ValueError):
    """A run-config file violates the schema."""
