"""Cohort analyses: diversity groups, transition flows, citation curves.

Authors are binned into diversity groups per time window and tracked as
they move between groups across consecutive windows (entrants and
leavers included, so every flow matrix satisfies exact row/column
conservation). Papers are grouped by their diversity and followed for a
fixed citation horizon, yielding per-age and cumulative citation
averages plus citation-count distributions.

Every table takes its settings explicitly; the library holds no
default of its own. Group membership rests on WINDOWED author diversity
-- the union of codes within that window only -- unless ``cumulative``
is set, which takes codes from the start of the corpus through the
window's end. Cumulative unions only grow, so they can never flow
toward lower groups.

Papers without any PACS code are excluded from diversity-keyed tables
unless ``include_zero_pacs`` is set, which admits them as diversity 0.
Age 0 means citations in the publication calendar year; negative ages
(data errors) are never counted here.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .corpus import AuthorId, Corpus, PaperRecord
from .diversity import weitzman_diversity
from .errors import ConfigError, EmptyCohort, EmptyPeriod, OverlappingWindows
from .taxonomy import PacsCode
from .years import YearRange

__all__ = [
    "DiversityGroupScheme",
    "assign_group",
    "group_scheme_from_spec",
    "band_scheme_from_spec",
    "CITATION_KEY_SCHEME",
    "SHARE_KEY_SCHEME",
    "FlowMatrix",
    "group_fraction_table",
    "transition_flows",
    "SeriesEntry",
    "citations_by_age",
    "citations_by_diversity",
    "diversity_share_table",
    "citation_distribution_by_diversity",
]

@dataclass(frozen=True, slots=True)
class DiversityGroupScheme:
    """Contiguous inclusive integer intervals covering [0, infinity).

    ``bounds[i]`` is (lo, hi) inclusive; the last interval has hi None
    for open-ended. Every non-negative integer maps to exactly one
    label.
    """

    labels: tuple[str, ...]
    bounds: tuple[tuple[int, int | None], ...]

    def __post_init__(self):
        if len(self.labels) != len(self.bounds) or not self.bounds:
            raise ConfigError("scheme needs one label per interval")
        if len(set(self.labels)) != len(self.labels):
            raise ConfigError("scheme labels must be distinct")
        if self.bounds[0][0] != 0:
            raise ConfigError("first interval must start at 0")
        for i, (lo, hi) in enumerate(self.bounds):
            last = i == len(self.bounds) - 1
            if last:
                if hi is not None:
                    raise ConfigError("last interval must be open-ended")
            else:
                if hi is None or hi < lo:
                    raise ConfigError(f"bad interval [{lo},{hi}]")
                if self.bounds[i + 1][0] != hi + 1:
                    raise ConfigError("intervals must be contiguous and ascending")


def assign_group(diversity: int, scheme: DiversityGroupScheme) -> str:
    """Label of the unique interval containing a diversity value."""
    if diversity < 0:
        raise ValueError(f"diversity must be >= 0, got {diversity}")
    for label, (lo, hi) in zip(scheme.labels, scheme.bounds):
        if diversity >= lo and (hi is None or diversity <= hi):
            return label
    raise AssertionError("scheme invariants guarantee coverage")


def _parse_bounds(text: str) -> tuple[tuple[int, int | None], ...]:
    bounds: list[tuple[int, int | None]] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            if token.endswith("+"):
                bounds.append((int(token[:-1]), None))
            elif "-" in token:
                lo, hi = token.split("-", 1)
                bounds.append((int(lo), int(hi)))
            else:
                value = int(token)
                bounds.append((value, value))
        except ValueError:
            raise ConfigError(f"bad interval {token!r}") from None
    if not bounds:
        raise ConfigError("empty interval list")
    return tuple(bounds)


def group_scheme_from_spec(text: str) -> DiversityGroupScheme:
    """Build a G1..Gn scheme from a boundary string like "0-3,4-9,10-27,28+"."""
    bounds = _parse_bounds(text)
    labels = tuple(f"G{i}" for i in range(1, len(bounds) + 1))
    return DiversityGroupScheme(labels, bounds)


def band_scheme_from_spec(text: str) -> DiversityGroupScheme:
    """Build a band scheme from a boundary string like "0-2,3-5,6+".

    Three intervals get the conventional low/medium/high labels; any
    other count falls back to band1..bandN.
    """
    bounds = _parse_bounds(text)
    if len(bounds) == 3:
        labels: tuple[str, ...] = ("low", "medium", "high")
    else:
        labels = tuple(f"band{i}" for i in range(1, len(bounds) + 1))
    return DiversityGroupScheme(labels, bounds)


def _integer_key_scheme(pooled_label: str) -> DiversityGroupScheme:
    """Per-integer keys 0..8 plus one open-ended bin pooling 9 and up as ``pooled_label``."""
    labels = tuple(str(i) for i in range(9)) + (pooled_label,)
    bounds = tuple((i, i) for i in range(9)) + ((9, None),)
    return DiversityGroupScheme(labels, bounds)


# Integer keying labels the pooled >8 bin "8+" to sit alongside key 8 in
# citation tables; the share table pools the same population as "9+".
CITATION_KEY_SCHEME = _integer_key_scheme("8+")
SHARE_KEY_SCHEME = _integer_key_scheme("9+")


def _active_author_unions(
    corpus: Corpus, window: YearRange, cumulative: bool
) -> dict[AuthorId, set[PacsCode]]:
    """Union of codes per author active in the window (>= 1 paper).

    The union holds the window's papers' codes; ``cumulative`` widens it
    to everything from the corpus start through window.end.
    """
    unions = corpus.author_unions(window)
    if cumulative and unions:
        for record in corpus.papers.values():
            if record.pub_year < window.start:
                for author in record.authors:
                    if author in unions:
                        unions[author].update(record.pacs)
    return unions


def _author_groups(
    corpus: Corpus,
    window: YearRange,
    scheme: DiversityGroupScheme,
    cumulative: bool,
    include_zero_pacs: bool,
) -> dict[AuthorId, str]:
    unions = _active_author_unions(corpus, window, cumulative)
    divs = {
        author: weitzman_diversity(union)
        for author, union in unions.items()
        if union or include_zero_pacs
    }
    # authors share few distinct diversities: look each one's label up once
    labels = {diversity: assign_group(diversity, scheme) for diversity in set(divs.values())}
    return {author: labels[diversity] for author, diversity in divs.items()}


def group_fraction_table(
    corpus: Corpus,
    windows: Sequence[YearRange],
    scheme: DiversityGroupScheme,
    *,
    cumulative: bool,
    include_zero_pacs: bool,
) -> dict[str, dict[str, float]]:
    """Fraction of active authors per diversity group, per window.

    Rows are keyed by window label and sum to 1 over the scheme's
    groups. Windows without any groupable author are omitted.
    ``cumulative`` groups authors by their codes from the corpus start
    through the window's end; ``include_zero_pacs`` admits authors
    without codes as diversity 0.
    """
    table: dict[str, dict[str, float]] = {}
    for window in windows:
        groups = _author_groups(corpus, window, scheme, cumulative, include_zero_pacs)
        if not groups:
            continue
        counts = {label: 0 for label in scheme.labels}
        for label in groups.values():
            counts[label] += 1
        total = len(groups)
        table[window.label] = {label: counts[label] / total for label in scheme.labels}
    return table


@dataclass(frozen=True, slots=True)
class FlowMatrix:
    """Author movement between groups across one pair of windows.

    flow[from_label][to_label] counts authors grouped in both windows;
    entrants are absent from the earlier window, leavers from the later
    one. Row sums plus leavers give the earlier window's group counts;
    column sums plus entrants give the later window's. Every mapping is
    keyed by the scheme's labels, in the scheme's order.
    """

    from_window: YearRange
    to_window: YearRange
    flow: Mapping[str, Mapping[str, int]]
    entrants: Mapping[str, int]
    leavers: Mapping[str, int]


def transition_flows(
    corpus: Corpus,
    windows: Sequence[YearRange],
    scheme: DiversityGroupScheme,
    *,
    cumulative: bool,
    include_zero_pacs: bool,
) -> list[FlowMatrix]:
    """One FlowMatrix per adjacent pair of chronological windows.

    Authors are grouped per window as in ``group_fraction_table``, with
    the same two flags. A window without any groupable author is not an
    error: every author of the window beside it is a leaver or an
    entrant, and a matrix between two such windows counts only zeros.

    Raises
    ------
    OverlappingWindows
        If the windows overlap or are out of chronological order.
    """
    if len(windows) < 2:
        raise ConfigError("transition flows need at least two windows")
    for earlier, later in zip(windows, windows[1:]):
        if later.start < earlier.end:
            raise OverlappingWindows(
                f"windows {earlier.label} and {later.label} overlap or are out of order"
            )

    per_window = [
        _author_groups(corpus, w, scheme, cumulative, include_zero_pacs) for w in windows
    ]
    matrices: list[FlowMatrix] = []
    for i in range(len(windows) - 1):
        from_groups, to_groups = per_window[i], per_window[i + 1]
        flow = {fl: {tl: 0 for tl in scheme.labels} for fl in scheme.labels}
        entrants = {label: 0 for label in scheme.labels}
        leavers = {label: 0 for label in scheme.labels}
        for author, from_label in from_groups.items():
            to_label = to_groups.get(author)
            if to_label is None:
                leavers[from_label] += 1
            else:
                flow[from_label][to_label] += 1
        for author, to_label in to_groups.items():
            if author not in from_groups:
                entrants[to_label] += 1
        matrices.append(
            FlowMatrix(
                from_window=windows[i],
                to_window=windows[i + 1],
                flow=flow,
                entrants=entrants,
                leavers=leavers,
            )
        )
    return matrices


@dataclass(frozen=True, slots=True)
class SeriesEntry:
    """Citation trajectory of one paper group over ages 0..horizon."""

    paper_count: int
    citations_per_age: tuple[int, ...]
    mean_per_age: tuple[float, ...]
    cumulative_mean: tuple[float, ...]


def _series_entry(paper_count: int, counts: list[int]) -> SeriesEntry:
    means = [c / paper_count for c in counts]
    cumulative: list[float] = []
    running = 0.0
    for m in means:
        running += m
        cumulative.append(running)
    return SeriesEntry(
        paper_count=paper_count,
        citations_per_age=tuple(counts),
        mean_per_age=tuple(means),
        cumulative_mean=tuple(cumulative),
    )


def _age_counts(corpus: Corpus, records: Iterable[PaperRecord], horizon: int) -> list[int]:
    counts = [0] * (horizon + 1)
    for record in records:
        for age in corpus.citations_in.get(record.doi, ()):
            if 0 <= age <= horizon:
                counts[age] += 1
    return counts


def citations_by_age(corpus: Corpus, period: YearRange, horizon: int) -> SeriesEntry:
    """Average in-corpus citations per paper at each age 0..horizon over a period.

    Raises
    ------
    EmptyPeriod
        If no paper falls inside the period.
    """
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    records = list(corpus.papers_in(period))
    if not records:
        raise EmptyPeriod(f"no papers in {period.label}")
    return _series_entry(len(records), _age_counts(corpus, records, horizon))


def _cohort_diversity_keys(
    corpus: Corpus,
    cohort: YearRange,
    keying: DiversityGroupScheme,
    include_zero_pacs: bool,
) -> dict[str, list[PaperRecord]]:
    """The cohort's keyed papers per key label, keys in the scheme's order.

    Raises
    ------
    EmptyCohort
        If the cohort holds no keyed papers.
    """
    records = [
        r for r in corpus.papers_in(cohort) if r.pacs or include_zero_pacs
    ]
    divs = [weitzman_diversity(r.pacs) for r in records]
    # a cohort holds few distinct diversities: look each one's label up once
    labels = {diversity: assign_group(diversity, keying) for diversity in set(divs)}
    by_key: dict[str, list[PaperRecord]] = {}
    for record, diversity in zip(records, divs):
        by_key.setdefault(labels[diversity], []).append(record)
    if not by_key:
        raise EmptyCohort(f"no diversity-keyed papers in {cohort.label}")
    # deterministic key order: the scheme's own
    return {label: by_key[label] for label in keying.labels if label in by_key}


def citations_by_diversity(
    corpus: Corpus,
    cohort: YearRange,
    horizon: int,
    keying: DiversityGroupScheme,
    *,
    include_zero_pacs: bool,
) -> dict[str, SeriesEntry]:
    """Citation trajectories over ages 0..horizon of cohort papers, per diversity key.

    ``keying`` is either the per-integer ``CITATION_KEY_SCHEME`` (keys
    "0".."8" plus the pooled "8+") or a band scheme (low/medium/high).
    Keys come in the scheme's order; keys without papers are omitted, as
    an average over zero papers is undefined. ``include_zero_pacs``
    admits papers without codes as diversity 0.

    Raises
    ------
    EmptyCohort
        If the cohort holds no keyed papers (the rule of every
        diversity-keyed table).
    """
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    by_key = _cohort_diversity_keys(corpus, cohort, keying, include_zero_pacs)
    return {
        label: _series_entry(len(records), _age_counts(corpus, records, horizon))
        for label, records in by_key.items()
    }


def diversity_share_table(
    corpus: Corpus,
    cohorts: Sequence[YearRange],
    *,
    include_zero_pacs: bool,
) -> dict[str, dict[str, float]]:
    """Percentage of cohort papers at each diversity 0..8, 9+ pooled.

    Keyed cohort label -> key label -> percentage; every key appears,
    zeros included, and each column sums to 100 up to rounding.
    ``include_zero_pacs`` admits papers without codes as diversity 0.

    Raises
    ------
    EmptyCohort
        If a cohort holds no keyed papers (the rule of every
        diversity-keyed table).
    """
    table: dict[str, dict[str, float]] = {}
    for cohort in cohorts:
        by_key = _cohort_diversity_keys(corpus, cohort, SHARE_KEY_SCHEME, include_zero_pacs)
        total = sum(len(records) for records in by_key.values())
        table[cohort.label] = {
            label: 100.0 * len(by_key.get(label, ())) / total
            for label in SHARE_KEY_SCHEME.labels
        }
    return table


def citation_distribution_by_diversity(
    corpus: Corpus,
    cohort: YearRange,
    horizon: int,
    *,
    include_zero_pacs: bool,
) -> dict[str, dict[int, float]]:
    """Distribution of citation counts per diversity key.

    For each key, the fraction of its papers that received exactly c
    in-corpus citations within ages 0..horizon, for c from 0 through the
    key's maximum observed count (interior zeros included). Each
    histogram sums to 1. ``include_zero_pacs`` admits papers without
    codes as diversity 0.

    Raises
    ------
    EmptyCohort
        If the cohort holds no keyed papers (the rule of every
        diversity-keyed table).
    """
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    by_key = _cohort_diversity_keys(corpus, cohort, CITATION_KEY_SCHEME, include_zero_pacs)

    result: dict[str, dict[int, float]] = {}
    for label, records in by_key.items():
        per_paper: list[int] = []
        for record in records:
            c = 0
            for age in corpus.citations_in.get(record.doi, ()):
                if 0 <= age <= horizon:
                    c += 1
            per_paper.append(c)
        counts = Counter(per_paper)
        total = len(per_paper)
        result[label] = {c: counts[c] / total for c in range(max(counts) + 1)}
    return result
