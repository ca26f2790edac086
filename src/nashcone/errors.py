"""Exception types shared across the package."""

__all__ = [
    "NashconeError",
    "GraphFormatError",
    "InternalInvariantError",
]


class NashconeError(Exception):
    """Base class for all package-specific errors."""


class GraphFormatError(NashconeError, ValueError):
    """Raised when a graph file cannot be parsed.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InternalInvariantError(NashconeError, RuntimeError):
    """A soundness re-check failed on a value this package itself produced.

    Indicates a bug, never a property of the input. Maps to CLI exit code 2.
    """
