"""Exception types shared across the package."""


class LagkitError(Exception):
    """Base class for package-specific errors."""


class DimensionMismatchError(LagkitError, ValueError):
    """Operands carry incompatible signatures, sizes, or jet shapes."""


class SingularEvaluationError(LagkitError, ArithmeticError):
    """Evaluation hit a singular operation (division by ~0, sqrt at 0, ...)."""


class DegenerateMetricError(LagkitError, ValueError):
    """Induced metric fell below the nondegeneracy threshold."""


class DomainError(LagkitError, ValueError):
    """A point (or its finite-difference stencil) left the declared domain box."""


class UnknownSpecError(LagkitError, KeyError):
    """Requested catalog entry does not exist."""


class DslError(LagkitError, ValueError):
    """Problem with immersion DSL text; carries the offending position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class DslSyntaxError(DslError):
    pass


class UndeclaredParameterError(DslError):
    pass


class UnknownFunctionError(DslError):
    pass


class ArityError(DslError):
    pass
