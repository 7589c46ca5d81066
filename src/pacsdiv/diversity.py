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

Diversity values are always small non-negative integers, at most
3 * (n - 1) for n distinct codes; duplicates contribute nothing.

This module knows code sets only; ``corpus`` applies it to papers and
authors.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from .taxonomy import PacsCode

__all__ = [
    "weitzman_diversity",
    "diversity_histogram",
    "compute_diversities",
]


def weitzman_diversity(codes: Iterable[PacsCode]) -> int:
    """Weitzman diversity of a code set, in closed form.

    Duplicates are removed first (a ``set`` or ``frozenset`` is used as
    it is); sets of size <= 1, including the empty set, have diversity
    zero. Otherwise the result is the tree length
    ``|level-1 digits| + |two-digit fields| + |codes| - 3``, which equals
    the greedy insertion sum in every order on this ultrametric -- a
    property pinned by the test suite rather than assumed.
    """
    members = codes if isinstance(codes, (set, frozenset)) else set(codes)
    n = len(members)
    if n <= 1:
        return 0
    fields = {10 * c.level1 + c.level2 for c in members}
    return len({f // 10 for f in fields}) + len(fields) + n - 3


def diversity_histogram(
    values: Iterable[int], normalize: bool = False
) -> dict[int, int] | dict[int, float]:
    """Integer-keyed histogram of diversity values.

    With ``normalize`` the counts become fractions of the total (the
    empty input stays an empty table).
    """
    counts = Counter(values)
    if not normalize:
        return dict(counts)
    total = sum(counts.values())
    return {k: c / total for k, c in counts.items()}


def compute_diversities(pacs_sets: Sequence[frozenset[PacsCode]]) -> list[int]:
    """Diversity of each code set, in input order.

    The batch form of ``weitzman_diversity`` for per-paper diversities
    of a cohort.
    """
    return [weitzman_diversity(codes) for codes in pacs_sets]
