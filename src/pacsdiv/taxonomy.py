"""PACS subject codes, truncated to the third hierarchy level.

PACS codes name physics subfields with up to five hierarchy levels
("04.25.dg": broad field 0, field 04, subfield 04.25, then two
finer letter levels). Everything here works on codes truncated to the
third level -- the first four digits -- because deeper levels are
unstable across scheme revisions. At that depth the hierarchy is purely
positional: two codes' lowest common ancestor is determined by their
shared digit prefix, so no taxonomy file is needed and the tree a code
set spans is computable from the code text alone.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import MalformedCode

__all__ = ["PacsCode", "parse_pacs"]

_DIGITS = frozenset("0123456789")


class PacsCode(namedtuple("PacsCode", ("level1", "level2", "level3"))):
    """A PACS code truncated to hierarchy level 3, canonical form "AB.CD".

    level1: broad-field digit; level2: field digit (level1+level2 form the
    leading two-digit pair); level3: the two-digit subfield pair.

    An immutable tuple, so it orders, compares and hashes as its plain
    ``(level1, level2, level3)`` tuple, and its hash runs in C: every code
    of every paper's frozenset and author union is hashed at least once.
    """

    __slots__ = ()

    def __new__(cls, level1: int, level2: int, level3: str):
        if not (0 <= level1 <= 9 and 0 <= level2 <= 9):
            raise MalformedCode(f"level1/level2 must be single digits, got {level1}, {level2}")
        if len(level3) != 2 or level3[0] not in _DIGITS or level3[1] not in _DIGITS:
            raise MalformedCode(f"level3 must be exactly two digits, got {level3!r}")
        return tuple.__new__(cls, (level1, level2, level3))

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, and so _replace, would skip the checks above
        return cls(*iterable)

    @property
    def text(self) -> str:
        """Canonical "AB.CD" form."""
        return f"{self.level1}{self.level2}.{self.level3}"

    def __str__(self) -> str:
        return self.text


def parse_pacs(raw: str) -> PacsCode:
    """Parse a PACS string, truncating anything beyond the third level.

    Accepts "AB.CD" optionally followed by deeper sub-level characters
    ("04.25.dg" and "04.25.-g" both map to 04.25). Surrounding whitespace
    is trimmed; the discarded tail is never inspected.

    Raises
    ------
    MalformedCode
        If the first four significant positions are not digits in AB.CD
        shape. Legacy codes with letters inside the first four positions
        are rejected rather than coerced.
    """
    s = raw.strip()
    if len(s) < 5 or s[2] != ".":
        raise MalformedCode(f"not in AB.CD shape: {raw!r}")
    a, b, c, d = s[0], s[1], s[3], s[4]
    if a not in _DIGITS or b not in _DIGITS or c not in _DIGITS or d not in _DIGITS:
        raise MalformedCode(f"non-digit in first four positions: {raw!r}")
    return PacsCode(int(a), int(b), c + d)

