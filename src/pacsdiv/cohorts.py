"""Cohort analyses: diversity groups, transition flows, citation curves.

Authors are binned into diversity groups per time window and tracked as
they move between groups across consecutive windows (entrants and
leavers included, so every flow matrix satisfies exact row/column
conservation). Papers are grouped by their diversity and followed for a
fixed citation horizon, yielding per-age and cumulative citation
averages plus citation-count distributions.

Group membership defaults to WINDOWED author diversity -- the union of
codes within that window only. A cumulative mode (codes from the start
of the corpus through the window's end) is available; cumulative unions
only grow, so they can never flow toward lower groups.

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
from .diversity import compute_diversities, weitzman_diversity
from .errors import ConfigError, EmptyCohort, OverlappingWindows
from .taxonomy import PacsCode
from .years import YearRange

__all__ = [
    "DiversityGroupScheme",
    "assign_group",
    "group_scheme_from_spec",
    "band_scheme_from_spec",
    "integer_key_scheme",
    "DEFAULT_GROUP_SCHEME",
    "DEFAULT_BAND_SCHEME",
    "CITATION_KEY_SCHEME",
    "SHARE_KEY_SCHEME",
    "FlowMatrix",
    "group_fraction_table",
    "transition_flows",
    "SeriesEntry",
    "CitationSeries",
    "citations_by_age",
    "citations_by_diversity",
    "diversity_share_table",
    "citation_distribution_by_diversity",
]

AUTHOR_MODES = ("windowed", "cumulative")


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


def integer_key_scheme(max_int: int = 8, pooled_label: str = "8+") -> DiversityGroupScheme:
    """Per-integer keys 0..max_int plus one pooled open-ended top bin."""
    labels = tuple(str(i) for i in range(max_int + 1)) + (pooled_label,)
    bounds = tuple((i, i) for i in range(max_int + 1)) + ((max_int + 1, None),)
    return DiversityGroupScheme(labels, bounds)


DEFAULT_GROUP_SCHEME = group_scheme_from_spec("0-3,4-9,10-27,28+")
DEFAULT_BAND_SCHEME = band_scheme_from_spec("0-2,3-5,6+")
# Integer keying labels the pooled >8 bin "8+" to sit alongside key 8 in
# citation tables; the share table pools the same population as "9+".
CITATION_KEY_SCHEME = integer_key_scheme(8, "8+")
SHARE_KEY_SCHEME = integer_key_scheme(8, "9+")


def _active_author_unions(
    corpus: Corpus, window: YearRange, mode: str = "windowed"
) -> dict[AuthorId, set[PacsCode]]:
    """Union of codes per author active in the window (>= 1 paper).

    Windowed mode restricts the union to window papers; cumulative mode
    widens it to everything from the corpus start through window.end.
    """
    if mode not in AUTHOR_MODES:
        raise ConfigError(f"author mode must be one of {AUTHOR_MODES}, got {mode!r}")
    unions = corpus.author_unions(window)
    if mode == "cumulative" and unions:
        span = corpus.year_span()
        if span.start < window.start:
            earlier = YearRange(span.start, window.start)
            for record in corpus.papers_in(earlier):
                for author in record.authors:
                    if author in unions:
                        unions[author].update(record.pacs)
    return unions


def _author_groups(
    corpus: Corpus,
    window: YearRange,
    scheme: DiversityGroupScheme,
    mode: str,
    include_zero_pacs: bool,
) -> dict[AuthorId, str]:
    groups: dict[AuthorId, str] = {}
    for author, union in _active_author_unions(corpus, window, mode).items():
        if not union and not include_zero_pacs:
            continue
        groups[author] = assign_group(weitzman_diversity(union), scheme)
    return groups


def group_fraction_table(
    corpus: Corpus,
    windows: Sequence[YearRange],
    scheme: DiversityGroupScheme = DEFAULT_GROUP_SCHEME,
    mode: str = "windowed",
    include_zero_pacs: bool = False,
) -> dict[str, dict[str, float]]:
    """Fraction of active authors per diversity group, per window.

    Rows are keyed by window label and sum to 1 over the scheme's
    groups. Windows without any groupable author are omitted.
    """
    table: dict[str, dict[str, float]] = {}
    for window in windows:
        groups = _author_groups(corpus, window, scheme, mode, include_zero_pacs)
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
    column sums plus entrants give the later window's.
    """

    from_window: YearRange
    to_window: YearRange
    labels: tuple[str, ...]
    flow: Mapping[str, Mapping[str, int]]
    entrants: Mapping[str, int]
    leavers: Mapping[str, int]


def transition_flows(
    corpus: Corpus,
    windows: Sequence[YearRange],
    scheme: DiversityGroupScheme = DEFAULT_GROUP_SCHEME,
    mode: str = "windowed",
    include_zero_pacs: bool = False,
) -> list[FlowMatrix]:
    """One FlowMatrix per adjacent pair of chronological windows.

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
        _author_groups(corpus, w, scheme, mode, include_zero_pacs) for w in windows
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
                labels=scheme.labels,
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


@dataclass(frozen=True, slots=True)
class CitationSeries:
    """Per-key citation trajectories for one cohort."""

    cohort: YearRange
    horizon: int
    per_key: Mapping[str, SeriesEntry]


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
        for _, citing_year in corpus.citations_in.get(record.doi, ()):
            age = citing_year - record.pub_year
            if 0 <= age <= horizon:
                counts[age] += 1
    return counts


def citations_by_age(corpus: Corpus, cohort: YearRange, horizon: int) -> CitationSeries:
    """Average in-corpus citations per paper at each age, whole cohort.

    Raises
    ------
    EmptyCohort
        If no papers were published in the cohort.
    """
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    records = list(corpus.papers_in(cohort))
    if not records:
        raise EmptyCohort(f"no papers in {cohort.label}")
    entry = _series_entry(len(records), _age_counts(corpus, records, horizon))
    return CitationSeries(cohort=cohort, horizon=horizon, per_key={"all": entry})


def _cohort_diversity_keys(
    corpus: Corpus,
    cohort: YearRange,
    keying: DiversityGroupScheme,
    include_zero_pacs: bool,
) -> dict[str, list[PaperRecord]]:
    records = [
        r for r in corpus.papers_in(cohort) if r.pacs or include_zero_pacs
    ]
    divs = compute_diversities([r.pacs for r in records])
    by_key: dict[str, list[PaperRecord]] = {}
    for record, diversity in zip(records, divs):
        by_key.setdefault(assign_group(diversity, keying), []).append(record)
    # deterministic key order: the scheme's own
    return {label: by_key[label] for label in keying.labels if label in by_key}


def citations_by_diversity(
    corpus: Corpus,
    cohort: YearRange,
    horizon: int,
    keying: DiversityGroupScheme = CITATION_KEY_SCHEME,
    include_zero_pacs: bool = False,
) -> CitationSeries:
    """Citation trajectories of cohort papers grouped by diversity.

    ``keying`` is either the per-integer scheme (keys "0".."8" plus the
    pooled "8+") or a band scheme (low/medium/high). Keys without papers
    are omitted; an average over zero papers is undefined.

    Raises
    ------
    EmptyCohort
        If the cohort holds no keyed papers.
    """
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    by_key = _cohort_diversity_keys(corpus, cohort, keying, include_zero_pacs)
    if not by_key:
        raise EmptyCohort(f"no diversity-keyed papers in {cohort.label}")
    per_key = {
        label: _series_entry(len(records), _age_counts(corpus, records, horizon))
        for label, records in by_key.items()
    }
    return CitationSeries(cohort=cohort, horizon=horizon, per_key=per_key)


def diversity_share_table(
    corpus: Corpus,
    cohorts: Sequence[YearRange],
    include_zero_pacs: bool = False,
) -> dict[str, dict[str, float]]:
    """Percentage of cohort papers at each diversity 0..8, 9+ pooled.

    Keyed cohort label -> key label -> percentage; every key appears,
    zeros included, and each column sums to 100 up to rounding. Cohorts
    without keyed papers are omitted.
    """
    table: dict[str, dict[str, float]] = {}
    for cohort in cohorts:
        by_key = _cohort_diversity_keys(
            corpus, cohort, SHARE_KEY_SCHEME, include_zero_pacs
        )
        total = sum(len(records) for records in by_key.values())
        if total == 0:
            continue
        table[cohort.label] = {
            label: 100.0 * len(by_key.get(label, ())) / total
            for label in SHARE_KEY_SCHEME.labels
        }
    return table


def citation_distribution_by_diversity(
    corpus: Corpus,
    cohort: YearRange,
    horizon: int,
    include_zero_pacs: bool = False,
) -> dict[str, dict[int, float]]:
    """Distribution of citation counts per diversity key.

    For each key, the fraction of its papers that received exactly c
    in-corpus citations within ages 0..horizon, for c from 0 through the
    key's maximum observed count (interior zeros included). Each
    histogram sums to 1.

    Raises
    ------
    EmptyCohort
        If the cohort holds no keyed papers.
    """
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    by_key = _cohort_diversity_keys(
        corpus, cohort, CITATION_KEY_SCHEME, include_zero_pacs
    )
    if not by_key:
        raise EmptyCohort(f"no diversity-keyed papers in {cohort.label}")

    result: dict[str, dict[int, float]] = {}
    for label, records in by_key.items():
        per_paper: list[int] = []
        for record in records:
            c = 0
            for _, citing_year in corpus.citations_in.get(record.doi, ()):
                if 0 <= citing_year - record.pub_year <= horizon:
                    c += 1
            per_paper.append(c)
        counts = Counter(per_paper)
        total = len(per_paper)
        result[label] = {c: counts[c] / total for c in range(max(counts) + 1)}
    return result
