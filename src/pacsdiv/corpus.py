"""Corpus loading: article metadata, author identities, citation index.

Input is JSON Lines: one UTF-8 JSON object per line, LF or CRLF line
endings, with fields doi, title, authors, date (strictly YYYY-MM-DD),
pacs, refs; unknown fields are ignored. A line that is not valid UTF-8
is a malformed line like any other. A loaded corpus is immutable: every
analysis in the package is a pure read over it, and loading the same
file twice yields identical contents.

Loading is one pass over the file plus one over the accepted records to
build the indexes. Each distinct raw author, date, PACS and reference
string is checked and converted once per load, so equal values share
one object in the corpus. Only the publication year of a date is kept.

Citations are derived strictly in-corpus: a reference counts only when
the target DOI is also present in the file. References to anything else
are tallied as dangling. Citation age is the calendar-year difference
between the citing and cited papers; negative ages are kept in the index
(they are reference pairs) but counted at load time so age-based
analyses can skip them as data errors.
"""

from __future__ import annotations

import gc
import json
import re
from dataclasses import dataclass, field
from datetime import date
from operator import itemgetter
from typing import Any, Iterator, Mapping, NewType

from . import diversity
from .errors import DuplicateDoi, EmptyPeriod, FormatError, IoFailure, MalformedCode
from .taxonomy import PacsCode, parse_pacs
from .years import YearRange

__all__ = [
    "AuthorId",
    "normalize_author",
    "PaperRecord",
    "IngestConfig",
    "IngestStats",
    "Corpus",
    "load_corpus",
    "papers_with_pacs_fraction_by_year",
    "SummaryStats",
    "corpus_summary",
]

AuthorId = NewType("AuthorId", str)


def normalize_author(raw: str) -> AuthorId:
    """Normalize an author name: collapse whitespace, case-fold.

    Diacritics are preserved; no transliteration. Idempotent, so already
    normalized identifiers pass through unchanged. Name-string identity
    is the only disambiguation the metadata supports.
    """
    return AuthorId(" ".join(raw.split()).casefold())


@dataclass(frozen=True, slots=True)
class PaperRecord:
    """One article as loaded: identity, authorship, codes, references."""

    doi: str
    title: str
    authors: tuple[AuthorId, ...]
    pub_year: int
    pacs: frozenset[PacsCode]
    refs: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class IngestConfig:
    """Knobs for load_corpus.

    strict: a malformed line aborts the load with FormatError; when off,
    bad lines are counted, recorded and skipped.
    known_codes: optional list of canonical "AB.CD" strings; well-formed
    codes outside it are counted as unknown but kept (validation warning
    only, never a distance change).
    """

    strict: bool = True
    known_codes: frozenset[str] | None = None


@dataclass(frozen=True, slots=True)
class IngestStats:
    """Counters accumulated while loading one file."""

    records_accepted: int = 0
    lines_rejected: int = 0
    malformed_pacs_dropped: int = 0
    unknown_codes: int = 0
    dangling_refs: int = 0
    negative_age_citations_skipped: int = 0
    rejected_lines: tuple[tuple[int, str], ...] = ()

    def as_dict(self) -> dict[str, int]:
        return {
            "records_accepted": self.records_accepted,
            "lines_rejected": self.lines_rejected,
            "malformed_pacs_dropped": self.malformed_pacs_dropped,
            "unknown_codes": self.unknown_codes,
            "dangling_refs": self.dangling_refs,
            "negative_age_citations_skipped": self.negative_age_citations_skipped,
        }


@dataclass(frozen=True, slots=True)
class Corpus:
    """Loaded collection of papers plus derived read-only indexes.

    citations_in maps a cited DOI to the (citing DOI, citing pub_year)
    pairs whose citing paper is also in the corpus; DOIs nobody cites
    have no entry. papers_by_author maps normalized names to the DOIs
    they appear on, in file order. Treat every container as frozen.
    """

    papers: Mapping[str, PaperRecord]
    citations_in: Mapping[str, tuple[tuple[str, int], ...]]
    papers_by_author: Mapping[AuthorId, tuple[str, ...]]
    ingest_stats: IngestStats

    def year_span(self) -> YearRange:
        """Half-open range covering every publication year present."""
        years = [p.pub_year for p in self.papers.values()]
        if not years:
            raise EmptyPeriod("corpus has no papers")
        return YearRange(min(years), max(years) + 1)

    def papers_in(self, period: YearRange) -> Iterator[PaperRecord]:
        for record in self.papers.values():
            if record.pub_year in period:
                yield record


_REQUIRED_FIELDS = ("doi", "title", "authors", "date", "pacs", "refs")
_get_fields = itemgetter(*_REQUIRED_FIELDS)
# ASCII digits only: date.fromisoformat also takes "20200101" and ISO
# week dates on Python 3.11+, which would make the year version-dependent
_DATE_SHAPE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


class _Memo(dict):
    """Per-load memo table: raw string -> ``convert(raw)``, once per string.

    Only strings are ever converted: looking up anything else raises
    TypeError (an unhashable value already in the lookup itself), so a
    lookup doubles as the item type check. A conversion that raises
    stores nothing.
    """

    __slots__ = ("convert",)

    def __init__(self, convert):
        super().__init__()
        self.convert = convert

    def __missing__(self, raw):
        if not isinstance(raw, str):
            raise TypeError(raw)
        value = self[raw] = self.convert(raw)
        return value


def _code_or_none(raw: str) -> PacsCode | None:
    try:
        return parse_pacs(raw)
    except MalformedCode:
        return None


def _year_of(raw_date: str) -> int:
    """Year of a strict YYYY-MM-DD date; ValueError for anything else."""
    if _DATE_SHAPE.fullmatch(raw_date) is None:
        raise ValueError(raw_date)
    return date.fromisoformat(raw_date).year


def _lookup_all(memo: _Memo, items: object, container: type) -> Any:
    """``container(memo[item] for item in items)`` for a list of strings.

    Returns None when ``items`` is not a list or holds a non-string.
    """
    if not isinstance(items, list):
        return None
    try:
        return container(map(memo.__getitem__, items))
    except TypeError:
        return None


class _Caches:
    """The memo tables of one load."""

    __slots__ = ("strings", "authors", "codes", "years")

    def __init__(self):
        # strings maps a string to the first equal one seen, so equal
        # author names and refs share one object across the corpus
        strings = self.strings = _Memo(str)
        self.authors = _Memo(lambda raw: strings[normalize_author(raw)])
        self.codes = _Memo(_code_or_none)
        self.years = _Memo(_year_of)


def _parse_record(
    obj: object,
    lineno: int,
    caches: _Caches,
    known: frozenset[str] | None,
    counters: dict[str, int],
) -> PaperRecord:
    if not isinstance(obj, dict):
        raise FormatError(lineno, "record is not a JSON object")
    try:
        doi, title, authors, raw_date, pacs, refs = _get_fields(obj)
    except KeyError as exc:
        raise FormatError(lineno, f"missing field {exc.args[0]!r}") from None
    if not isinstance(doi, str) or not doi:
        raise FormatError(lineno, "doi must be a non-empty string")
    if not isinstance(title, str):
        raise FormatError(lineno, "title must be a string")
    names = _lookup_all(caches.authors, authors, tuple)
    if names is None:
        raise FormatError(lineno, "authors must be a list of strings")
    codes = _lookup_all(caches.codes, pacs, frozenset)
    if codes is None:
        raise FormatError(lineno, "pacs must be a list of strings")
    targets = _lookup_all(caches.strings, refs, tuple)
    if targets is None:
        raise FormatError(lineno, "refs must be a list of strings")
    if not isinstance(raw_date, str):
        raise FormatError(lineno, "date must be a YYYY-MM-DD string")
    try:
        year = caches.years[raw_date]
    except ValueError:
        raise FormatError(lineno, f"bad date {raw_date!r}") from None

    if None in codes or known is not None:
        # both counters go per listed string, repeats included, so they
        # come from the list; only records with a malformed code, or a
        # known-code list to check, pay for this second pass
        listed = [caches.codes[raw] for raw in pacs]
        counters["malformed"] += listed.count(None)
        codes = codes - {None}
        if known is not None:
            counters["unknown"] += sum(code is not None and code.text not in known for code in listed)

    return PaperRecord(
        doi=doi,
        title=title,
        authors=names,
        pub_year=year,
        pacs=codes,
        refs=targets,
    )


def load_corpus(path, config: IngestConfig | None = None) -> Corpus:
    """Load a JSON Lines metadata file into an immutable Corpus.

    PACS codes are truncated to level 3 and deduplicated per record;
    malformed codes are dropped and counted. Blank lines are skipped.

    Raises
    ------
    IoFailure
        If the file cannot be read.
    FormatError
        On the first malformed line, unless ``config.strict`` is off.
    DuplicateDoi
        If two records share a DOI (fatal in both modes: downstream
        indexes assume DOI uniqueness).
    """
    cfg = config or IngestConfig()
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise IoFailure(f"cannot open {path}: {exc}") from exc

    # Decoded lines die by refcount and records form no cycles, so the
    # cyclic collector would only re-traverse the growing corpus.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        with handle:
            papers, rejected, counters = _read_records(handle, path, cfg)
        return _build_corpus(papers, rejected, counters)
    finally:
        if gc_was_enabled:
            gc.enable()


def _read_records(
    handle, path, cfg: IngestConfig
) -> tuple[dict[str, PaperRecord], list[tuple[int, str]], dict[str, int]]:
    papers: dict[str, PaperRecord] = {}
    rejected: list[tuple[int, str]] = []
    counters = {"malformed": 0, "unknown": 0}
    caches = _Caches()
    known = cfg.known_codes
    try:
        for lineno, raw in enumerate(handle, start=1):
            try:
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError:
                    raise FormatError(lineno, "not valid UTF-8") from None
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    if not line.strip():
                        continue
                    raise FormatError(lineno, f"invalid JSON: {exc.msg}") from None
                record = _parse_record(obj, lineno, caches, known, counters)
            except FormatError as exc:
                if cfg.strict:
                    raise
                rejected.append((exc.lineno, exc.reason))
                continue
            if record.doi in papers:
                raise DuplicateDoi(f"line {lineno}: duplicate doi {record.doi!r}")
            papers[record.doi] = record
    except OSError as exc:
        raise IoFailure(f"error reading {path}: {exc}") from exc
    return papers, rejected, counters


def _build_corpus(
    papers: dict[str, PaperRecord],
    rejected: list[tuple[int, str]],
    counters: dict[str, int],
) -> Corpus:
    citations: dict[str, list[tuple[str, int]]] = {}
    by_author: dict[AuthorId, list[str]] = {}
    dangling = 0
    negative_age = 0
    for doi, record in papers.items():
        for author in record.authors:
            dois = by_author.get(author)
            if dois is None:
                by_author[author] = [doi]
            elif dois[-1] != doi:
                dois.append(doi)
        if not record.refs:
            continue
        year = record.pub_year
        pair = (doi, year)
        for target in record.refs:
            cited = papers.get(target)
            if cited is None:
                dangling += 1
                continue
            pairs = citations.get(target)
            if pairs is None:
                citations[target] = [pair]
            else:
                pairs.append(pair)
            if year < cited.pub_year:
                negative_age += 1

    stats = IngestStats(
        records_accepted=len(papers),
        lines_rejected=len(rejected),
        malformed_pacs_dropped=counters["malformed"],
        unknown_codes=counters["unknown"],
        dangling_refs=dangling,
        negative_age_citations_skipped=negative_age,
        rejected_lines=tuple(rejected),
    )
    return Corpus(
        papers=papers,
        citations_in={doi: tuple(pairs) for doi, pairs in citations.items()},
        papers_by_author={a: tuple(d) for a, d in by_author.items()},
        ingest_stats=stats,
    )


def papers_with_pacs_fraction_by_year(corpus: Corpus) -> dict[int, float]:
    """Per publication year, the fraction of papers carrying any code.

    Years with no papers at all are omitted rather than reported as
    zero-division artifacts.
    """
    totals: dict[int, int] = {}
    with_codes: dict[int, int] = {}
    for record in corpus.papers.values():
        year = record.pub_year
        totals[year] = totals.get(year, 0) + 1
        if record.pacs:
            with_codes[year] = with_codes.get(year, 0) + 1
    return {year: with_codes.get(year, 0) / n for year, n in sorted(totals.items())}


@dataclass(frozen=True, slots=True)
class SummaryStats:
    """Corpus-level averages over one period (whole-unit counting)."""

    period: YearRange
    papers: int
    authors: int
    papers_per_author: float
    authors_per_paper: float
    codes_per_author: float
    codes_per_paper: float
    author_diversity_mean: float
    paper_diversity_mean: float
    citations_per_paper: float


def corpus_summary(corpus: Corpus, period: YearRange) -> SummaryStats:
    """Descriptive statistics over the papers published in ``period``.

    Authors are whoever appears on at least one in-period paper; their
    code unions and diversities are taken over in-period papers only.
    Papers without codes stay in every average here (zero codes, zero
    diversity). Citations per paper counts non-negative-age in-corpus
    citations received by in-period papers from citing papers of any
    year.

    Raises
    ------
    EmptyPeriod
        If no paper falls inside the period.
    """
    in_period = list(corpus.papers_in(period))
    if not in_period:
        raise EmptyPeriod(f"no papers in {period.label}")

    author_union: dict[AuthorId, set[PacsCode]] = {}
    author_papers: dict[AuthorId, int] = {}
    total_authors_listed = 0
    total_codes = 0
    total_paper_div = 0
    total_citations = 0
    for record in in_period:
        total_authors_listed += len(record.authors)
        total_codes += len(record.pacs)
        total_paper_div += diversity.weitzman_diversity(record.pacs)
        for author in record.authors:
            author_papers[author] = author_papers.get(author, 0) + 1
            author_union.setdefault(author, set()).update(record.pacs)
        for _, citing_year in corpus.citations_in.get(record.doi, ()):
            if citing_year >= record.pub_year:
                total_citations += 1

    n_papers = len(in_period)
    n_authors = len(author_papers)
    total_author_div = sum(
        diversity.weitzman_diversity(union) for union in author_union.values()
    )
    return SummaryStats(
        period=period,
        papers=n_papers,
        authors=n_authors,
        papers_per_author=sum(author_papers.values()) / n_authors if n_authors else 0.0,
        authors_per_paper=total_authors_listed / n_papers,
        codes_per_author=sum(len(u) for u in author_union.values()) / n_authors if n_authors else 0.0,
        codes_per_paper=total_codes / n_papers,
        author_diversity_mean=total_author_div / n_authors if n_authors else 0.0,
        paper_diversity_mean=total_paper_div / n_papers,
        citations_per_paper=total_citations / n_papers,
    )
