"""Corpus loading: article metadata and the in-corpus citation index.

Input is JSON Lines: one UTF-8 JSON object per line, LF or CRLF line
endings, with fields doi, title, authors, date (strictly YYYY-MM-DD),
pacs, refs; unknown fields are ignored. A line that is not valid UTF-8
is a malformed line like any other, as is one nesting arrays and objects
more than 100 levels deep (a fixed cap well under the interpreter's
recursion limit, so the caller's stack depth does not matter) or one
holding an integer literal of more than 4300 digits, whatever the
interpreter's own int/str limit. A loaded corpus is immutable: every
analysis in the package is a pure read over it, and loading the same file
twice yields identical contents.

Loading is one read of the file plus one pass over the accepted records
to build the citation index, whose lists become tuples in place. Each
distinct raw DOI, author, date, PACS and reference string is checked and
converted once per load, so equal values share one object in the corpus,
and so do equal code sets: every record with the same codes holds one
frozenset. A record is an immutable tuple of only what a table reads:
its DOI, authors, publication year and codes.

Citations are derived strictly in-corpus: a reference counts only when
the target DOI is also present in the file. References to anything else
are tallied as dangling. Citation age is the calendar-year difference
between the citing and cited papers; negative ages are kept in the index
(they are reference pairs) but counted at load time so age-based
analyses can skip them as data errors.

The per-paper, per-author and per-period measures live here too: they
apply the code-set kernel of ``diversity`` to a loaded corpus.
"""

from __future__ import annotations

import gc
import json
import re
from collections import namedtuple
from dataclasses import dataclass, field
from datetime import date
from json.scanner import make_scanner
from operator import itemgetter
from typing import AbstractSet, Any, Callable, Iterator, Mapping, NewType

from .diversity import diversity_histogram, weitzman_diversity
from .errors import DuplicateDoi, EmptyPeriod, FormatError, IoFailure, MalformedCode, UnknownAuthor
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
    "paper_diversity",
    "author_diversity",
    "pacs_count_distributions",
    "diversity_distributions",
    "SummaryStats",
    "corpus_summary",
]

AuthorId = NewType("AuthorId", str)
# a (per-author, per-paper) pair of normalized histograms
_Histograms = tuple[dict[int, float], dict[int, float]]


def normalize_author(raw: str) -> AuthorId:
    """Normalize an author name: collapse whitespace, case-fold.

    Diacritics are preserved; no transliteration. Idempotent, so already
    normalized identifiers pass through unchanged. Name-string identity
    is the only disambiguation the metadata supports.
    """
    return AuthorId(" ".join(raw.split()).casefold())


class PaperRecord(namedtuple("PaperRecord", ("doi", "authors", "pub_year", "pacs"))):
    """One article as loaded; its references live on only in ``Corpus.citations_in``.

    doi: the paper's DOI; authors: its normalised names, each once, in
    listed order; pub_year: the year of its date; pacs: a frozenset of
    its level-3 codes, one object shared by every paper of the load with
    an equal set.

    An immutable tuple, like ``PacsCode``: it compares and hashes as its
    plain ``(doi, authors, pub_year, pacs)`` tuple, and is built as one.
    """

    __slots__ = ()


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
    """Counters of one load, plus the lines it rejected and the bytes it read."""

    records_accepted: int = 0
    lines_rejected: int = 0
    malformed_pacs_dropped: int = 0
    unknown_codes: int = 0
    dangling_refs: int = 0
    negative_age_citations_skipped: int = 0
    duplicate_authors_collapsed: int = 0
    rejected_lines: tuple[tuple[int, str], ...] = ()
    bytes_read: int = field(default=0, compare=False)  # a size, not a count of what was loaded

    def as_dict(self) -> dict[str, int]:
        return {
            "records_accepted": self.records_accepted,
            "lines_rejected": self.lines_rejected,
            "malformed_pacs_dropped": self.malformed_pacs_dropped,
            "unknown_codes": self.unknown_codes,
            "dangling_refs": self.dangling_refs,
            "negative_age_citations_skipped": self.negative_age_citations_skipped,
            "duplicate_authors_collapsed": self.duplicate_authors_collapsed,
        }


@dataclass(frozen=True, slots=True)
class Corpus:
    """A loaded corpus: its papers, its citation index and its load counters.

    papers maps each DOI to its record, in file order. citations_in maps
    a cited DOI to the (citing DOI, citing pub_year) pairs whose citing
    paper is also in the corpus; DOIs nobody cites have no entry. Nothing
    per author is stored: ``author_unions`` derives it from the records.
    Treat every container as frozen.
    """

    papers: Mapping[str, PaperRecord]
    citations_in: Mapping[str, tuple[tuple[str, int], ...]]
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

    def author_unions(self, period: YearRange) -> dict[AuthorId, set[PacsCode]]:
        """Union of PACS codes per author over the papers published in ``period``.

        Every author on at least one in-period paper has an entry, in
        order of first appearance; one whose in-period papers carry no
        code maps to an empty set. The sets are fresh, so callers may
        widen them.
        """
        unions: dict[AuthorId, set[PacsCode]] = {}
        for record in self.papers_in(period):
            for author in record.authors:
                unions.setdefault(author, set()).update(record.pacs)
        return unions


_REQUIRED_FIELDS = ("doi", "title", "authors", "date", "pacs", "refs")
_get_fields = itemgetter(*_REQUIRED_FIELDS)
# ASCII digits only: date.fromisoformat also takes "20200101" and ISO
# week dates on Python 3.11+, which would make the year version-dependent
_DATE_SHAPE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
# CPython's default int/str conversion limit (3.11+; 3.10.0-3.10.6 have
# none): a longer integer literal is a malformed line on every version
_MAX_INT_DIGITS = 4300


def _json_int(literal: str) -> int:
    """A JSON integer literal as an int; ValueError above ``_MAX_INT_DIGITS`` digits."""
    if len(literal) - literal.startswith("-") > _MAX_INT_DIGITS:
        raise ValueError(f"integer literal longer than {_MAX_INT_DIGITS} digits")
    return int(literal)


# the whitespace JSON allows around a value
_JSON_SPACE = " \t\n\r"
# the deepest a line may nest arrays and objects, the record itself being
# level 1: far below the interpreter's recursion limit, so whether a line
# decodes does not depend on the caller's stack or the Python version
_MAX_DEPTH = 100
# a JSON string (or the unterminated rest of a line), or one bracket
_STRING_OR_BRACKET = re.compile(r'"(?:[^"\\]|\\.)*"?|[\[\]{}]')


def _check_depth(line: str, lineno: int) -> None:
    """FormatError if ``line`` nests deeper than ``_MAX_DEPTH``, brackets in strings aside."""
    if line.count("[") + line.count("{") <= _MAX_DEPTH:
        return
    depth = 0
    for token in _STRING_OR_BRACKET.findall(line):
        if token == "[" or token == "{":
            depth += 1
            if depth > _MAX_DEPTH:
                raise FormatError(lineno, "invalid JSON: nested too deeply")
        elif token == "]" or token == "}":
            depth -= 1


def _loads(line: str, lineno: int) -> object:
    """``json.loads(line)``, with every way decoding can fail a FormatError."""
    _check_depth(line, lineno)
    try:
        return json.loads(line, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise FormatError(lineno, f"invalid JSON: {exc.msg}") from None
    except RecursionError:  # a caller within _MAX_DEPTH frames of the limit
        raise FormatError(lineno, "invalid JSON: nested too deeply") from None
    except ValueError as exc:  # an integer literal too long to convert
        raise FormatError(lineno, f"invalid JSON: {exc}") from None


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

    __slots__ = ("strings", "authors", "codes", "years", "code_sets")

    def __init__(self):
        # strings maps a string to the first equal one seen, so equal
        # DOIs, refs and author names share one object across the corpus
        strings = self.strings = _Memo(str)
        self.authors = _Memo(lambda raw: strings[normalize_author(raw)])
        self.codes = _Memo(_code_or_none)
        self.years = _Memo(_year_of)
        # the first frozenset seen per distinct code set, shared by every
        # record with an equal one
        self.code_sets: dict[frozenset[PacsCode], frozenset[PacsCode]] = {}


def _parse_record(
    obj: object,
    lineno: int,
    caches: _Caches,
    known: frozenset[str] | None,
    counters: dict[str, int],
) -> tuple[PaperRecord, tuple[str, ...]]:
    if not isinstance(obj, dict):
        raise FormatError(lineno, "record is not a JSON object")
    try:
        doi, title, authors, raw_date, pacs, refs = _get_fields(obj)
    except KeyError as exc:
        raise FormatError(lineno, f"missing field {exc.args[0]!r}") from None
    if not isinstance(doi, str) or not doi:
        raise FormatError(lineno, "doi must be a non-empty string")
    doi = caches.strings.setdefault(doi, doi)
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

    # counters only count accepted records, so they come after every check
    if len(names) > 1 and len(set(names)) < len(names):
        unique = tuple(dict.fromkeys(names))
        counters["duplicate_authors"] += len(names) - len(unique)
        names = unique
    if None in codes or known is not None:
        # both counters go per listed string, repeats included, so they
        # come from the list; only records with a malformed code, or a
        # known-code list to check, pay for this second pass
        listed = [caches.codes[raw] for raw in pacs]
        counters["malformed"] += listed.count(None)
        codes = codes - {None}
        if known is not None:
            counters["unknown"] += sum(code is not None and code.text not in known for code in listed)
    codes = caches.code_sets.setdefault(codes, codes)

    return PaperRecord(doi, names, year, codes), targets


def load_corpus(path, config: IngestConfig | None = None, digest=None) -> Corpus:
    """Load a JSON Lines metadata file into an immutable Corpus.

    PACS codes are truncated to level 3 and deduplicated per record;
    malformed codes are dropped and counted. Author names are normalized
    and deduplicated per record in first-seen order, each dropped repeat
    counted. Blank lines, empty or holding only the whitespace JSON
    allows (space, tab, CR, LF), are skipped; a line of any other
    whitespace is malformed.

    A ``digest`` (``hashlib.sha256()``, say) is updated with every raw
    line read, blank and rejected ones included: the bytes loaded.

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
            papers, refs, rejected, counters = _read_records(handle, path, cfg, digest)
            return _build_corpus(papers, refs, rejected, counters, handle.tell())
    finally:
        if gc_was_enabled:
            gc.enable()


def _read_records(
    handle, path, cfg: IngestConfig, digest
) -> tuple[dict[str, PaperRecord], list[tuple[str, ...]], list[tuple[int, str]], dict[str, int]]:
    papers: dict[str, PaperRecord] = {}
    refs: list[tuple[str, ...]] = []
    rejected: list[tuple[int, str]] = []
    counters = {"malformed": 0, "unknown": 0, "duplicate_authors": 0}
    caches = _Caches()
    known = cfg.known_codes
    # the C scanner behind json.loads, called without its per-call wrapper;
    # _loads decodes again whatever it does not accept, for the reject reason
    scan = make_scanner(json.JSONDecoder(parse_int=_json_int))
    try:
        for lineno, raw in enumerate(handle, start=1):
            if digest is not None:
                digest.update(raw)
            try:
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError:
                    raise FormatError(lineno, "not valid UTF-8") from None
                try:
                    obj, end = scan(line, 0)
                    decoded = end == len(line) or not line[end:].strip(_JSON_SPACE)
                except (StopIteration, ValueError, RecursionError):
                    decoded = False
                if not decoded:
                    # leading whitespace, trailing data or no valid value
                    if not line.strip(_JSON_SPACE):
                        continue
                    obj = _loads(line, lineno)
                elif type(obj) is dict and len(obj) > len(_REQUIRED_FIELDS):
                    # an accepted record nests deeper than its lists only
                    # through an unknown field, so a plain record, the
                    # common line, never pays for counting brackets
                    _check_depth(line, lineno)
                try:
                    record, targets = _parse_record(obj, lineno, caches, known, counters)
                except FormatError:
                    # too deep outranks every other reason, as when decoding fails
                    _check_depth(line, lineno)
                    raise
            except FormatError as exc:
                if cfg.strict:
                    raise
                rejected.append((exc.lineno, exc.reason))
                continue
            if record.doi in papers:
                raise DuplicateDoi(f"line {lineno}: duplicate doi {record.doi!r}")
            papers[record.doi] = record
            refs.append(targets)
    except OSError as exc:
        raise IoFailure(f"error reading {path}: {exc}") from exc
    return papers, refs, rejected, counters


def _build_corpus(
    papers: dict[str, PaperRecord],
    refs: list[tuple[str, ...]],
    rejected: list[tuple[int, str]],
    counters: dict[str, int],
    size: int,
) -> Corpus:
    # each list becomes its tuple in place, so no second dict is built
    # while every list is still alive
    citations: dict[str, Any] = {}
    dangling = 0
    negative_age = 0
    for (doi, record), targets in zip(papers.items(), refs):
        if not targets:
            continue
        year = record.pub_year
        pair = (doi, year)
        for target in targets:
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
    for doi, pairs in citations.items():
        citations[doi] = tuple(pairs)

    stats = IngestStats(
        records_accepted=len(papers),
        lines_rejected=len(rejected),
        malformed_pacs_dropped=counters["malformed"],
        unknown_codes=counters["unknown"],
        dangling_refs=dangling,
        negative_age_citations_skipped=negative_age,
        duplicate_authors_collapsed=counters["duplicate_authors"],
        rejected_lines=tuple(rejected),
        bytes_read=size,
    )
    return Corpus(
        papers=papers,
        citations_in=citations,
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


def paper_diversity(paper: PaperRecord) -> int:
    """Diversity of one paper: the Weitzman diversity of its code set."""
    return weitzman_diversity(paper.pacs)


def author_diversity(author: AuthorId, corpus: Corpus, window: YearRange) -> int:
    """Diversity of an author over a window of publication years.

    Takes the union of the PACS codes of every paper the author
    published with pub_year in ``window`` (half-open), then measures the
    union's diversity. Publishing only zero-code papers in the window
    yields 0; an author absent from the corpus altogether is an error.
    Each call scans the whole corpus: for many authors, take
    ``corpus.author_unions(window)`` once instead.

    Raises
    ------
    UnknownAuthor
        If the author published nothing anywhere in the corpus.
    """
    name = normalize_author(author)
    union = corpus.author_unions(window).get(name)
    if union is not None:
        return weitzman_diversity(union)
    if any(name in record.authors for record in corpus.papers.values()):
        return 0
    raise UnknownAuthor(f"no papers by {author!r} in corpus")


def _distributions(
    corpus: Corpus, period: YearRange, measure: Callable[[AbstractSet[PacsCode]], int], include_zero_pacs: bool
) -> _Histograms:
    """Normalized histograms of ``measure`` over a period: (per-author, per-paper).

    ``measure`` sees each author's code union over the period and each
    in-period paper's own codes; empty sets count only with ``include_zero_pacs``.
    """
    unions = corpus.author_unions(period).values()
    papers = (record.pacs for record in corpus.papers_in(period))
    return tuple(
        diversity_histogram((measure(codes) for codes in sets if codes or include_zero_pacs), normalize=True)
        for sets in (unions, papers)
    )


def pacs_count_distributions(corpus: Corpus, period: YearRange, include_zero_pacs: bool = False) -> _Histograms:
    """Code-count distributions over a period: (per-author, per-paper).

    Per author the count is the size of the union of codes across the
    author's papers in the period; per paper it is the paper's own code
    count. Both tables are normalized to fractions. Zero-count entries
    (papers without codes, authors whose period papers carry none) are
    excluded unless ``include_zero_pacs`` is set.
    """
    return _distributions(corpus, period, len, include_zero_pacs)


def diversity_distributions(corpus: Corpus, period: YearRange, include_zero_pacs: bool = False) -> _Histograms:
    """Diversity distributions over a period: (per-author, per-paper).

    As ``pacs_count_distributions``, with the Weitzman diversity of each
    code set in place of its size; ``include_zero_pacs`` admits the
    entries without codes as diversity 0.
    """
    return _distributions(corpus, period, weitzman_diversity, include_zero_pacs)


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

    unions = corpus.author_unions(period)
    total_authors_listed = 0
    total_codes = 0
    total_paper_div = 0
    total_citations = 0
    for record in in_period:
        total_authors_listed += len(record.authors)
        total_codes += len(record.pacs)
        total_paper_div += weitzman_diversity(record.pacs)
        for _, citing_year in corpus.citations_in.get(record.doi, ()):
            if citing_year >= record.pub_year:
                total_citations += 1

    n_papers = len(in_period)
    n_authors = len(unions)
    total_author_div = sum(weitzman_diversity(union) for union in unions.values())
    return SummaryStats(
        period=period,
        papers=n_papers,
        authors=n_authors,
        papers_per_author=total_authors_listed / n_authors if n_authors else 0.0,
        authors_per_paper=total_authors_listed / n_papers,
        codes_per_author=sum(len(u) for u in unions.values()) / n_authors if n_authors else 0.0,
        codes_per_paper=total_codes / n_papers,
        author_diversity_mean=total_author_div / n_authors if n_authors else 0.0,
        paper_diversity_mean=total_paper_div / n_papers,
        citations_per_paper=total_citations / n_papers,
    )
