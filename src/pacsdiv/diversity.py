"""Weitzman diversity of PACS-code sets: the kernel and its oracles.

On an ultrametric, Weitzman diversity is the total branch length of the
tree spanned by the set (Weitzman 1992, "On Diversity", QJE 107:363).
The truncated PACS hierarchy has three levels with unit-length edges.
The subtree joining a non-empty set to the root has one edge per
distinct level-1 digit, per distinct two-digit field and per code; a
singleton has diversity zero, so the diversity is that edge count minus
the 3 edges of one code's path to the root.

This is the sum the greedy route reaches -- seed with one element, add
the rest one at a time, each contributing its minimum distance to the
members already present -- in any insertion order. Two exhaustive
oracles, the recursive max-form construction and brute-force
enumeration of all insertion orders, are kept for cross-checking; the
test suite requires the closed form, both oracles and an unsorted greedy
to agree exactly.

Diversity values are always small non-negative integers, at most
3 * (n - 1) for n distinct codes; duplicates contribute nothing.

This module knows code sets only; ``corpus`` applies it to papers and
authors.
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations
from typing import Iterable, Sequence

from .errors import SetTooLarge
from .taxonomy import PacsCode, distance

__all__ = [
    "weitzman_diversity",
    "weitzman_recursive_oracle",
    "weitzman_permutation_oracle",
    "diversity_histogram",
    "compute_diversities",
]

ORACLE_SIZE_CAP = 10


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


def weitzman_recursive_oracle(codes: Iterable[PacsCode]) -> int:
    """Exact diversity by the recursive max-form construction.

    D(Q) = max over s in Q of [D(Q \\ {s}) + dbar(s, Q \\ {s})], with
    singletons at zero. Exponential in the set size; memoized over
    subsets and capped at ORACLE_SIZE_CAP elements. Test-only oracle.

    Raises
    ------
    SetTooLarge
        If the deduplicated set exceeds the size cap.
    """
    members = sorted(set(codes))
    n = len(members)
    if n > ORACLE_SIZE_CAP:
        raise SetTooLarge(f"oracle capped at {ORACLE_SIZE_CAP} elements, got {n}")
    if n <= 1:
        return 0

    dist = [[distance(a, b) for b in members] for a in members]
    memo: dict[int, int] = {}

    def rec(mask: int) -> int:
        if mask.bit_count() <= 1:
            return 0
        cached = memo.get(mask)
        if cached is not None:
            return cached
        best = 0
        for i in range(n):
            bit = 1 << i
            if not mask & bit:
                continue
            rest = mask & ~bit
            dbar = min(dist[i][j] for j in range(n) if rest & (1 << j))
            val = rec(rest) + dbar
            if val > best:
                best = val
        memo[mask] = best
        return best

    return rec((1 << n) - 1)


def weitzman_permutation_oracle(codes: Iterable[PacsCode]) -> int:
    """Greedy insertion sum enumerated over every insertion order.

    Returns the common value and raises if any two orders disagree,
    which would falsify the order-invariance property the closed form
    relies on. Factorial cost; capped like the recursive oracle.
    """
    members = sorted(set(codes))
    n = len(members)
    if n > ORACLE_SIZE_CAP - 2:
        raise SetTooLarge(f"permutation oracle capped at {ORACLE_SIZE_CAP - 2} elements, got {n}")
    if n <= 1:
        return 0

    dist = [[distance(a, b) for b in members] for a in members]
    reference: int | None = None
    for order in permutations(range(n)):
        total = 0
        for pos in range(1, n):
            u = order[pos]
            row = dist[u]
            best = 4
            for prev in range(pos):
                d = row[order[prev]]
                if d < best:
                    best = d
            total += best
        if reference is None:
            reference = total
        elif total != reference:
            raise AssertionError(
                f"insertion order changed the diversity sum: {reference} vs {total}"
            )
    assert reference is not None
    return reference


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
