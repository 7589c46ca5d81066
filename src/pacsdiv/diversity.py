"""Weitzman diversity of PACS-code sets, plus distribution helpers.

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
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import SetTooLarge, UnknownAuthor
from .taxonomy import PacsCode, distance

if TYPE_CHECKING:
    from .corpus import AuthorId, Corpus, PaperRecord
    from .years import YearRange

__all__ = [
    "weitzman_diversity",
    "weitzman_recursive_oracle",
    "weitzman_permutation_oracle",
    "paper_diversity",
    "author_diversity",
    "diversity_histogram",
    "pacs_count_distributions",
    "compute_diversities",
    "paper_diversity_map",
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


def paper_diversity(paper: "PaperRecord") -> int:
    """Diversity of one paper: the Weitzman diversity of its code set."""
    return weitzman_diversity(paper.pacs)


def author_diversity(author: "AuthorId", corpus: "Corpus", window: "YearRange") -> int:
    """Diversity of an author over a window of publication years.

    Takes the union of the PACS codes of every paper the author
    published with pub_year in ``window`` (half-open), then measures the
    union's diversity. Publishing only zero-code papers in the window
    yields 0; an author absent from the corpus altogether is an error.

    Raises
    ------
    UnknownAuthor
        If the author published nothing anywhere in the corpus.
    """
    from .corpus import normalize_author

    key = normalize_author(author)
    dois = corpus.papers_by_author.get(key)
    if dois is None:
        raise UnknownAuthor(f"no papers by {author!r} in corpus")
    union: set[PacsCode] = set()
    for doi in dois:
        record = corpus.papers[doi]
        if record.pub_year in window:
            union.update(record.pacs)
    return weitzman_diversity(union)


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


def pacs_count_distributions(
    corpus: "Corpus",
    period: "YearRange",
    include_zero_pacs: bool = False,
) -> tuple[dict[int, float], dict[int, float]]:
    """Code-count distributions over a period: (per-author, per-paper).

    Per author the count is the size of the union of codes across the
    author's papers in the period; per paper it is the paper's own code
    count. Both tables are normalized to fractions. Zero-count entries
    (papers without codes, authors whose period papers carry none) are
    excluded unless ``include_zero_pacs`` is set.
    """
    author_union: dict[str, set[PacsCode]] = {}
    paper_counts: list[int] = []
    for record in corpus.papers_in(period):
        paper_counts.append(len(record.pacs))
        for author in record.authors:
            author_union.setdefault(author, set()).update(record.pacs)

    author_counts = [len(u) for u in author_union.values()]
    if not include_zero_pacs:
        author_counts = [c for c in author_counts if c > 0]
        paper_counts = [c for c in paper_counts if c > 0]
    return (
        diversity_histogram(author_counts, normalize=True),
        diversity_histogram(paper_counts, normalize=True),
    )


def compute_diversities(pacs_sets: Sequence[frozenset[PacsCode]], jobs: int = 1) -> list[int]:
    """Diversity of each code set, in input order.

    ``jobs`` is accepted for compatibility and ignored: the closed-form
    kernel is cheap enough that a worker pool would cost more than it
    saves, so every call runs in-process.
    """
    return [weitzman_diversity(codes) for codes in pacs_sets]


def paper_diversity_map(corpus: "Corpus", jobs: int = 1) -> Mapping[str, int]:
    """Diversity of every paper in the corpus, keyed by DOI."""
    dois = list(corpus.papers.keys())
    values = compute_diversities([corpus.papers[d].pacs for d in dois], jobs)
    return dict(zip(dois, values))
