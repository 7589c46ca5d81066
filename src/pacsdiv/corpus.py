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

Loading is one read of the file plus one pass over the accepted records'
refs, one flat list, to build the citation index, whose lists become
tuples in place. Each distinct raw DOI, date, PACS and reference string
is checked and converted once per load, and each distinct normalised
author name is stored once, a spelling not yet normalised being normalised
at each occurrence. So equal values share one object in the corpus: every
spelling of one code maps to one ``PacsCode``, and every record with the
same codes holds one tuple of them in ascending order. A record is an
immutable tuple of only what a table reads: DOI, authors, year and codes.

Citations are derived strictly in-corpus: a reference counts only when
the target DOI is that of an accepted paper. References to anything else
are tallied as dangling. The citation index holds each citation as its
age, the citing paper's publication year minus the cited paper's,
computed here and nowhere else. Negative ages are kept in the index (each
is still one reference) but counted at load time, so age-based analyses
can skip them as data errors.

The per-period measures live here too. They count code sets as the bit
masks of ``diversity``: a paper's mask is the OR of its codes' masks, an
author's the OR of their papers' masks over one window or, cumulatively,
from the corpus start through its end, and every count and diversity is
a popcount of one. ``Corpus._author_masks`` is the one per-author index
of the package, for every table in both modes and for
``Corpus.author_unions``, which decodes each author's mask into a set.
The index holds one int per author, built with one code-to-bit table
and dropped after it; nothing is stored on the corpus. Every table takes
its papers from ``Corpus._file_by_year``, one pass for all the windows,
periods or cohorts it is given and the one test of a year against a range.
"""

from __future__ import annotations

import gc
import json
import re
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from datetime import date
from itertools import islice
from json.scanner import make_scanner
from operator import attrgetter, itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .diversity import _code_count, _CodeBits, _diversity
from .errors import DuplicateDoi, EmptyPeriod, FormatError, IoFailure, MalformedCode
from .taxonomy import PacsCode, parse_pacs
from .years import YearRange

__all__ = [
    "normalize_author",
    "PaperRecord",
    "IngestConfig",
    "IngestStats",
    "Corpus",
    "load_corpus",
    "papers_with_pacs_fraction_by_year",
    "pacs_count_distributions",
    "diversity_distributions",
    "corpus_summary",
]

# a (per-author, per-paper) pair of normalized histograms
_Histograms = tuple[dict[int, float], dict[int, float]]


def normalize_author(raw: str) -> str:
    """Normalize an author name: collapse whitespace, case-fold.

    Diacritics are preserved; no transliteration. Idempotent, so already
    normalized identifiers pass through unchanged. Name-string identity
    is the only disambiguation the metadata supports.
    """
    return " ".join(raw.split()).casefold()


class PaperRecord(namedtuple("PaperRecord", ("doi", "authors", "pub_year", "pacs"))):
    """One article as loaded; its references live on only as ages in ``Corpus.citations_in``.

    doi: the paper's DOI; authors: its normalised names, each once, in
    listed order; pub_year: the year of its date; pacs: a tuple of its
    distinct level-3 codes in ascending order, one object shared by
    every paper of the load with equal codes.

    An immutable tuple, like ``PacsCode``: it compares and hashes as its
    plain ``(doi, authors, pub_year, pacs)`` tuple, and is built as one.
    """

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class IngestConfig:
    """The one setting of load_corpus.

    strict: a malformed line aborts the load with FormatError; when off,
    bad lines are counted, recorded and skipped.
    """

    strict: bool = True


@dataclass(frozen=True, slots=True)
class IngestStats:
    """Counters of one load, plus the lines it rejected and the bytes it read."""

    records_accepted: int = 0
    lines_rejected: int = 0
    malformed_pacs_dropped: int = 0
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
            "dangling_refs": self.dangling_refs,
            "negative_age_citations_skipped": self.negative_age_citations_skipped,
            "duplicate_authors_collapsed": self.duplicate_authors_collapsed,
        }


@dataclass(frozen=True, slots=True)
class Corpus:
    """A loaded corpus: its papers, its citation index and its load counters.

    papers maps each DOI to its record, in file order. citations_in maps
    a cited DOI to the ages of its citations from papers in the corpus:
    each citing pub_year minus the cited one, one per reference, in file
    order of the citing papers, negative ages included. DOIs nobody cites
    have no entry. Nothing per author is stored: ``_author_masks`` derives
    each author's codes from the records when asked. Treat every
    container as frozen.
    """

    papers: Mapping[str, PaperRecord]
    citations_in: Mapping[str, tuple[int, ...]]
    ingest_stats: IngestStats

    def year_span(self) -> YearRange:
        """Half-open range covering every publication year present."""
        years = [p.pub_year for p in self.papers.values()]
        if not years:
            raise EmptyPeriod("corpus has no papers")
        return YearRange(min(years), max(years) + 1)

    def author_unions(
        self, period: YearRange, *, cumulative: bool
    ) -> Iterator[tuple[str, set[PacsCode]]]:
        """Each author on a paper published in ``period``, with the union of its codes.

        Pairs come in order of first appearance in ``period``; an author
        whose papers carry no code gets an empty set. The union holds the
        codes of the author's papers in ``period`` and, with
        ``cumulative``, of their papers from every year before it, so it
        covers the corpus start through ``period.end``. In both modes one
        pass over the corpus files the papers, and the index behind the
        pairs holds one int per author, the mask of its codes that
        ``_author_masks`` builds from them. Each union is a fresh set
        decoded from its mask as its pair is yielded, so no more than the
        caller keeps is alive.
        """
        bits = _CodeBits()
        ((_, _, masks),) = self._author_masks([period], cumulative=cumulative, bits=bits)
        codes = bits.decoder()
        for author, mask in masks.items():
            yield author, codes(mask)

    def _file_by_year(self, ranges: Sequence[YearRange], *, cumulative: bool = False) -> list[list[PaperRecord]]:
        """Each range's papers in file order, ranges in the given order, from one pass.

        Each distinct year is tested once against every range. With
        ``cumulative`` one more list per range follows, filing each paper
        also under the first range ending after its year: for ranges by
        ascending end, those published since the previous range's end.
        """
        filed: list[list[PaperRecord]] = [[] for _ in range(len(ranges) * (2 if cumulative else 1))]
        # per year, the lists that file its papers
        holders: dict[int, list[list[PaperRecord]]] = {}
        for record in self.papers.values():
            lists = holders.get(record.pub_year)
            if lists is None:
                year = record.pub_year
                lists = holders[year] = [papers for period, papers in zip(ranges, filed) if year in period]
                if cumulative:
                    lists += [papers for period, papers in zip(ranges, filed[len(ranges):]) if year < period.end][:1]
            for papers in lists:
                papers.append(record)
        return filed

    def _author_masks(
        self, windows: Sequence[YearRange], *, cumulative: bool, bits: _CodeBits
    ) -> Iterator[tuple[YearRange, list[PaperRecord], dict[str, int]]]:
        """Each window with its papers and its authors' code masks from ``bits``.

        Windows come by ascending end, those with equal ends in the given
        order, each with its papers from ``_file_by_year`` and its authors
        in order of first appearance on them. An author's mask is the OR of
        their papers' masks in the window or, with ``cumulative``, of every
        paper of theirs published before the window's end, kept as one
        running mask per author.
        """
        in_end_order = sorted(windows, key=attrgetter("end"))
        in_window = self._file_by_year(in_end_order, cumulative=cumulative)
        # the papers each window ORs in: its own, or cumulatively those
        # published from the previous window's end up to its own
        added = in_window[len(windows):] if cumulative else list(in_window)
        del in_window[len(windows):]
        running: dict[str, int] = {}
        for window in in_end_order:
            # each window's lists are dropped once its masks are taken
            papers = in_window.pop(0)
            masks = running if cumulative else {}
            for record in added.pop(0):
                mask = bits.mask(record.pacs)
                for author in record.authors:
                    masks[author] = masks.get(author, 0) | mask
            if cumulative:
                # the running masks of the window's own authors
                masks = {author: running[author] for record in papers for author in record.authors}
            yield window, papers, masks


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

    Looking up a non-string raises TypeError (an unhashable one in the
    lookup itself), so a lookup doubles as the item type check. A
    conversion that raises stores nothing.
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


class _Names(dict):
    """Per-load table of normalised names, each its own key; other spellings are normalised per lookup."""

    def __missing__(self, raw):
        if not isinstance(raw, str):
            raise TypeError(raw)  # the item type check, as in ``_Memo``
        name = normalize_author(raw)
        return self.setdefault(name, name)


def _code_or_none(raw: str, seen: dict[PacsCode, PacsCode]) -> PacsCode | None:
    """The code ``raw`` spells, as the first equal one in ``seen``; None if malformed."""
    try:
        code = parse_pacs(raw)
    except MalformedCode:
        return None
    return seen.setdefault(code, code)


def _year_of(raw_date: str) -> int:
    """Year of a strict YYYY-MM-DD date; ValueError for anything else."""
    if _DATE_SHAPE.fullmatch(raw_date) is None:
        raise ValueError(raw_date)
    return date.fromisoformat(raw_date).year


def _lookup_all(memo: dict, items: object) -> tuple | None:
    """``tuple(memo[item] for item in items)`` for a list of strings, else None."""
    if not isinstance(items, list):
        return None
    try:
        return tuple(map(memo.__getitem__, items))
    except TypeError:
        return None


class _Caches:
    """The memo tables of one load."""

    __slots__ = ("strings", "authors", "codes", "years", "code_sets")

    def __init__(self):
        # strings maps a string to the first equal one seen, so equal DOIs
        # and refs share one object across the corpus; authors holds each
        # normalised name once, and no other spelling of it
        self.strings = _Memo(str)
        self.authors = _Names()
        # every spelling of one code ("04.25.dg", "04.25") maps to one object
        distinct_codes: dict[PacsCode, PacsCode] = {}
        self.codes = _Memo(lambda raw: _code_or_none(raw, distinct_codes))
        self.years = _Memo(_year_of)
        # the first sorted tuple seen per distinct code set, shared by every
        # record with an equal one
        self.code_sets: dict[tuple[PacsCode, ...], tuple[PacsCode, ...]] = {}


def _parse_record(
    obj: object,
    lineno: int,
    caches: _Caches,
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
    names = _lookup_all(caches.authors, authors)
    if names is None:
        raise FormatError(lineno, "authors must be a list of strings")
    codes = _lookup_all(caches.codes, pacs)
    if codes is None:
        raise FormatError(lineno, "pacs must be a list of strings")
    targets = _lookup_all(caches.strings, refs)
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
    if None in codes:
        # one entry per listed string, so repeats count each time
        counters["malformed"] += codes.count(None)
        codes = tuple(code for code in codes if code is not None)
    if len(codes) > 1:
        # ascending order is canonical: equal sets give equal tuples
        codes = tuple(sorted(set(codes)))
    codes = caches.code_sets.setdefault(codes, codes)

    return PaperRecord(doi, names, year, codes), targets


def load_corpus(path, config: IngestConfig | None = None, digest=None) -> Corpus:
    """Load a JSON Lines metadata file into an immutable Corpus.

    PACS codes are truncated to level 3, deduplicated and sorted per
    record; malformed codes are dropped and counted. Author names are
    normalized and deduplicated per record in first-seen order, each
    dropped repeat counted. Blank lines, empty or holding only the
    whitespace JSON allows (space, tab, CR, LF), are skipped; a line of
    any other whitespace is malformed.

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
            return _build_corpus(*_read_records(handle, path, cfg, digest), handle.tell())
    finally:
        if gc_was_enabled:
            gc.enable()


def _read_records(
    handle, path, cfg: IngestConfig, digest
) -> tuple[dict[str, PaperRecord], list[str], list[int], list[tuple[int, str]], dict[str, int]]:
    papers: dict[str, PaperRecord] = {}
    targets: list[str] = []  # every accepted record's refs in file order
    ref_counts: list[int] = []  # and how many each record has
    rejected: list[tuple[int, str]] = []
    counters = {"malformed": 0, "duplicate_authors": 0}
    caches = _Caches()
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
                    record, refs = _parse_record(obj, lineno, caches, counters)
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
            targets += refs
            ref_counts.append(len(refs))
    except OSError as exc:
        raise IoFailure(f"error reading {path}: {exc}") from exc
    return papers, targets, ref_counts, rejected, counters


def _build_corpus(
    papers: dict[str, PaperRecord],
    targets: list[str],
    ref_counts: list[int],
    rejected: list[tuple[int, str]],
    counters: dict[str, int],
    size: int,
) -> Corpus:
    citations: dict[str, Any] = {}
    dangling = 0
    negative_age = 0
    # each citing paper takes its count of refs off the one flat list
    cited = iter(targets)
    for record, count in zip(papers.values(), ref_counts):
        for target in islice(cited, count):
            paper = papers.get(target)
            if paper is None:
                dangling += 1
                continue
            age = record.pub_year - paper.pub_year
            ages = citations.get(target)
            if ages is None:
                citations[target] = [age]
            else:
                ages.append(age)
            if age < 0:
                negative_age += 1
    # the refs die first, then each list becomes its tuple in place: no second dict
    del targets[:], ref_counts[:]
    for doi, ages in citations.items():
        citations[doi] = tuple(ages)

    stats = IngestStats(
        records_accepted=len(papers),
        lines_rejected=len(rejected),
        malformed_pacs_dropped=counters["malformed"],
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


def _histogram(values: Iterable[int]) -> dict[int, float]:
    """Integer-keyed histogram of values as fractions of the total.

    The empty input gives an empty table.
    """
    counts = Counter(values)
    total = sum(counts.values())
    return {k: c / total for k, c in counts.items()}


def _distributions(
    corpus: Corpus, period: YearRange, measure: Callable[[int], int], include_zero_pacs: bool
) -> _Histograms:
    """Normalized histograms of ``measure`` over a period: (per-author, per-paper).

    ``measure`` sees the mask of each author's code union over the period
    and of each in-period paper's own codes; empty sets count only with
    ``include_zero_pacs``.
    """
    bits = _CodeBits()
    ((_, papers, authors),) = corpus._author_masks([period], cumulative=False, bits=bits)
    if not papers:
        raise EmptyPeriod(f"no papers in {period.label}")
    # each paper's mask is built as it is measured, so no more than one is alive
    return tuple(
        _histogram(measure(mask) for mask in masks if mask or include_zero_pacs)
        for masks in (authors.values(), (bits.mask(record.pacs) for record in papers))
    )


def pacs_count_distributions(corpus: Corpus, period: YearRange, *, include_zero_pacs: bool) -> _Histograms:
    """Code-count distributions over a period: (per-author, per-paper).

    Per author the count is the size of the union of codes across the
    author's papers in the period; per paper it is the paper's own code
    count. Both tables are normalized to fractions. Zero-count entries
    (papers without codes, authors whose period papers carry none) are
    excluded unless ``include_zero_pacs`` is set.

    Raises
    ------
    EmptyPeriod
        If no paper falls inside the period.
    """
    return _distributions(corpus, period, _code_count, include_zero_pacs)


def diversity_distributions(corpus: Corpus, period: YearRange, *, include_zero_pacs: bool) -> _Histograms:
    """Diversity distributions over a period: (per-author, per-paper).

    As ``pacs_count_distributions``, with the Weitzman diversity of each
    code set in place of its size; ``include_zero_pacs`` admits the
    entries without codes as diversity 0.

    Raises
    ------
    EmptyPeriod
        If no paper falls inside the period.
    """
    return _distributions(corpus, period, _diversity, include_zero_pacs)


def corpus_summary(corpus: Corpus, period: YearRange) -> dict[str, int | float]:
    """Descriptive statistics over the papers published in ``period``.

    The nine statistics of the ``summary`` table, keyed by its row names
    in its row order: the paper and author counts are ints, the
    averages floats (whole-unit counting).

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
    bits = _CodeBits()
    ((_, in_period, masks),) = corpus._author_masks([period], cumulative=False, bits=bits)
    if not in_period:
        raise EmptyPeriod(f"no papers in {period.label}")

    total_authors_listed = 0
    total_codes = 0
    total_paper_div = 0
    total_citations = 0
    for record in in_period:
        total_authors_listed += len(record.authors)
        total_codes += len(record.pacs)
        total_paper_div += _diversity(bits.mask(record.pacs))
        for age in corpus.citations_in.get(record.doi, ()):
            if age >= 0:
                total_citations += 1

    n_authors = len(masks)
    total_author_codes = sum(map(_code_count, masks.values()))
    total_author_div = sum(map(_diversity, masks.values()))

    n_papers = len(in_period)
    return {
        "papers": n_papers,
        "authors": n_authors,
        "papers_per_author": total_authors_listed / n_authors if n_authors else 0.0,
        "authors_per_paper": total_authors_listed / n_papers,
        "pacs_codes_per_author": total_author_codes / n_authors if n_authors else 0.0,
        "pacs_codes_per_paper": total_codes / n_papers,
        "author_diversity_mean": total_author_div / n_authors if n_authors else 0.0,
        "paper_diversity_mean": total_paper_div / n_papers,
        "citations_per_paper": total_citations / n_papers,
    }
