"""Weitzman diversity of PACS-code sets: the closed-form kernel.

On an ultrametric, Weitzman diversity is the total branch length of the
tree spanned by the set (Weitzman 1992, "On Diversity", QJE 107:363).
The truncated PACS hierarchy has three levels with unit-length edges.
The subtree joining a non-empty set to the root has one edge per
distinct level-1 digit, per distinct two-digit field and per code; a
singleton has diversity zero, so the diversity is that edge count minus
the 3 edges of one code's path to the root.

This is the sum the greedy route reaches -- seed with one element, add
the rest one at a time, each contributing its minimum distance to the
members already present -- in any insertion order. The test suite
requires the closed form to agree exactly with an unsorted greedy and
with two exhaustive references, the recursive max-form construction and
brute-force enumeration of all insertion orders; those and the pairwise
distance they use are test code, in ``tests/helpers.py``.

A code set is counted as a mask, one Python int with one bit per edge:
bits 0-9 hold the level-1 digits, bits 10-109 the two-digit fields and
the bits from 110 up one code each, numbered in order of first
appearance by one ``_CodeBits`` table. A union is ``|``, the code count
is the popcount of the code bits, and the diversity is the popcount of
the whole mask minus 3, or 0 for at most one code. A popcount does not
depend on bit order, so how a table numbers its codes cannot change a
value. ``weitzman_diversity`` and every table reach the diversity
through ``_diversity``, the one mask-to-diversity step.

Diversity values are always small non-negative integers, at most
3 * (n - 1) for n distinct codes; duplicates contribute nothing.

This module knows code sets only; ``corpus`` applies it to papers and
authors.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .taxonomy import PacsCode

__all__ = ["weitzman_diversity"]

# the lowest code bit: below it, 10 level-1 digits and 100 two-digit fields
_FIRST_CODE_BIT = 110


class _CodeBits(dict):
    """One pass's code-to-mask table: code -> its level-1, field and code bits.

    A code missing from the table gets the next free code bit, so the
    table's keys are the codes in bit order. Masks from two tables do
    not mix.
    """

    __slots__ = ()

    def __missing__(self, code: PacsCode) -> int:
        level1, level2, _ = code
        mask = self[code] = 1 << level1 | 1 << (10 + 10 * level1 + level2) | 1 << (_FIRST_CODE_BIT + len(self))
        return mask

    def mask(self, codes: Iterable[PacsCode]) -> int:
        """The mask of a code collection; repeats add nothing."""
        mask = 0
        for code in codes:
            mask |= self[code]
        return mask

    def decoder(self) -> Callable[[int], set[PacsCode]]:
        """A function from a mask of this table to the set of its codes.

        It knows the codes the table holds now, so take it once every
        mask to decode is built.
        """
        by_bit = list(self)

        def codes(mask: int) -> set[PacsCode]:
            # the code bits as binary digits, lowest first
            digits = bin(mask >> _FIRST_CODE_BIT)[:1:-1]
            return {by_bit[bit] for bit, digit in enumerate(digits) if digit == "1"}

        return codes


def _code_count(mask: int) -> int:
    """The number of distinct codes in a mask."""
    return (mask >> _FIRST_CODE_BIT).bit_count()


def _diversity(mask: int) -> int:
    """The Weitzman diversity of a mask: its tree length, 0 for at most one code."""
    edges = mask.bit_count()
    return edges - 3 if edges > 3 else 0


def weitzman_diversity(codes: Iterable[PacsCode]) -> int:
    """Weitzman diversity of a code set, in closed form.

    Duplicates count once; sets of size <= 1, including the empty set,
    have diversity zero. Otherwise the result is the tree length
    ``|level-1 digits| + |two-digit fields| + |codes| - 3``, which equals
    the greedy insertion sum in every order on this ultrametric -- a
    property pinned by the test suite rather than assumed.
    """
    return _diversity(_CodeBits().mask(codes))
