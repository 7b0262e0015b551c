"""Exception types shared across the package."""

__all__ = [
    "ConfigurationError",
    "DomainError",
    "EvaluationError",
    "ExpressionSyntaxError",
    "ProblemFileError",
    "ScaleMismatchError",
]


class DomainError(ValueError):
    """A point or range lies outside the domain of the requested operation."""


class ScaleMismatchError(ValueError):
    """Two objects built over different time scales were combined."""


class EvaluationError(ArithmeticError):
    """An expression or Lagrangian produced NaN/inf or hit a domain violation."""


class ConfigurationError(RuntimeError):
    """A problem object is missing something the requested operation needs."""


class ExpressionSyntaxError(ValueError):
    """Raised by the expression parser; carries the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ProblemFileError(ValueError):
    """A problem file failed validation; carries the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key
