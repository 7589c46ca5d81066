"""Half-open calendar-year ranges used for windows, cohorts and periods."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError

__all__ = ["YearRange", "parse_year_range", "parse_year_ranges"]


@dataclass(frozen=True, order=True, slots=True)
class YearRange:
    """Half-open range of publication years, ``[start, end)``.

    Half-open ranges keep boundary years like 1990 in "1985-1990 /
    1990-1995" from being counted twice.
    """

    start: int
    end: int

    def __post_init__(self):
        if self.start >= self.end:
            raise ConfigError(f"year range must have start < end, got {self.start}-{self.end}")

    def __contains__(self, year: int) -> bool:
        return self.start <= year < self.end

    @property
    def label(self) -> str:
        return f"{self.start}-{self.end}"


def parse_year_range(text: str) -> YearRange:
    """Parse ``"1985-1990"`` or the short form ``"1985-90"``.

    Each year is one or more ASCII digits. An end year of exactly two
    digits is the short form, resolved against the start year's century
    and rolling into the next century when needed ("1995-00" ->
    1995-2000); a one-digit end year is no year range.
    """
    parts = text.strip().split("-")
    if len(parts) != 2:
        raise ConfigError(f"bad year range {text!r}: expected START-END")
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise ConfigError(f"bad year range {text!r}: years must be ASCII digits")
    if len(parts[1]) == 1:
        raise ConfigError(f"bad year range {text!r}: a short-form end year has two digits")
    start = int(parts[0])
    end = int(parts[1])
    if len(parts[1]) == 2:
        end = start - start % 100 + end
        if end <= start:
            end += 100
    elif end <= start:
        # checked here, not by YearRange, so the message quotes the text typed
        raise ConfigError(f"bad year range {text!r}: start must be before end")
    return YearRange(start, end)


def parse_year_ranges(text: str) -> list[YearRange]:
    """Parse a comma-separated list of year ranges."""
    tokens = [t for t in text.split(",") if t.strip()]
    if not tokens:
        raise ConfigError("empty year-range list")
    return [parse_year_range(t) for t in tokens]
