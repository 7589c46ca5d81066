"""Exception types raised across the package.

Every error that can surface through the CLI has its own class so the
command line can map it to a stable exit code.
"""

__all__ = [
    "PacsDivError",
    "MalformedCode",
    "IoFailure",
    "FormatError",
    "DuplicateDoi",
    "EmptyPeriod",
    "EmptyCohort",
    "OverlappingWindows",
    "ConfigError",
]


class PacsDivError(Exception):
    """Base class for all package errors."""


class MalformedCode(PacsDivError):
    """A PACS string does not have four leading digits in AB.CD shape."""


class IoFailure(PacsDivError):
    """Input file could not be read, or an output file could not be written."""


class FormatError(PacsDivError):
    """An input line is not a valid record. Carries the 1-based line number."""

    def __init__(self, lineno: int, reason: str):
        super().__init__(f"line {lineno}: {reason}")
        self.lineno = lineno
        self.reason = reason


class DuplicateDoi(PacsDivError):
    """Two records in one input file share a DOI."""


class EmptyPeriod(PacsDivError):
    """No papers fall inside the requested year range."""


class EmptyCohort(PacsDivError):
    """No analyzable papers in the requested cohort."""


class OverlappingWindows(PacsDivError):
    """Analysis windows overlap or are not in chronological order."""


class ConfigError(PacsDivError):
    """Invalid run configuration (bad ranges, bad group boundaries, ...)."""
