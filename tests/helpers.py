"""Shared test utilities: independent oracles, corpus generators and one
harness that counts the passes a command makes over the papers.

Everything here recomputes results through a different route than the
library (explicit tree nodes instead of prefix arithmetic, pairwise
distances and exhaustive search instead of the closed-form tree length,
block counting instead of greedy insertion, raw JSON scans instead of
the loader) so that agreement between the two is meaningful. The
library itself never calls the pairwise distance or the exhaustive
Weitzman oracles; they live here as the reference its closed form is
tested against.

The loader-free reference for the tables has three parts.
``raw_ingest_recount`` reads the raw bytes once and gives each accepted
paper's year, names and codes, the citation ages, the rejected lines,
the ingest counters and the corpus facts. ``raw_author_unions`` builds
author code unions from it. ``raw_tables`` builds every command's exit
code and CSV rows from the two. Each table, union and ingest count is
recounted once, here.
"""

import datetime
import json
import random
import re
from bisect import bisect_right
from dataclasses import replace
from itertools import accumulate, permutations
from typing import Iterable

from pacsdiv import PacsCode


class _Node:
    __slots__ = ("children",)

    def __init__(self):
        self.children = {}


def build_tree_lca(codes):
    """Explicit 3-level tree; returns an LCA-depth function on the codes.

    Codes are inserted as root -> level1 -> pair -> code paths and the
    LCA depth of two codes is the length of the shared prefix of their
    ancestor chains, compared by node identity.
    """
    root = _Node()
    chains = {}
    for code in codes:
        node = root
        chain = []
        for part in (str(code.level1), f"{code.level1}{code.level2}", code.text):
            node = node.children.setdefault(part, _Node())
            chain.append(node)
        chains[code] = chain

    def lca_depth(u, v):
        depth = 0
        for a, b in zip(chains[u], chains[v]):
            if a is not b:
                break
            depth += 1
        return depth

    return lca_depth


def lca_level(u: PacsCode, v: PacsCode) -> int:
    """Hierarchy level of the lowest common ancestor of two codes.

    3 = identical codes, 2 = same leading two-digit pair, 1 = same broad
    field digit only, 0 = nothing shared below the root.
    """
    if u.level1 != v.level1:
        return 0
    if u.level2 != v.level2:
        return 1
    if u.level3 != v.level3:
        return 2
    return 3


def distance(u: PacsCode, v: PacsCode) -> int:
    """Ultrametric distance between two level-3 codes: 3 - lca_level.

    The number of upward steps from either code to the lowest common
    ancestor. Symmetric, zero exactly for equal codes, and bounded by 3.
    """
    return 3 - lca_level(u, v)


ORACLE_SIZE_CAP = 10


class SetTooLarge(Exception):
    """Exhaustive diversity oracle called above its size cap."""


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


def block_count_diversity(codes):
    """Closed form for the greedy sum on this 3-level ultrametric.

    Joining the b1 level-1 blocks costs 3 each, the extra level-2 blocks
    inside them 2 each, and the remaining codes 1 each:
    3*(b1-1) + 2*(b2-b1) + (n-b2). Independent of any insertion order.
    """
    codes = set(codes)
    if not codes:
        return 0
    b1 = len({c.level1 for c in codes})
    b2 = len({(c.level1, c.level2) for c in codes})
    n = len(codes)
    return 3 * (b1 - 1) + 2 * (b2 - b1) + (n - b2)


def greedy_insertion_sum(seq):
    """Greedy Weitzman sum taking codes exactly in the order given.

    The library's closed form has no insertion order, so order
    invariance is probed through this greedy: every input order must
    land on the same sum.
    """
    seen = []
    total = 0
    for code in seq:
        if code in seen:
            continue
        if seen:
            total += min(distance(code, v) for v in seen)
        seen.append(code)
    return total


def random_code(rng):
    # tight digit pools so small sets still collide at every level
    return PacsCode(rng.randint(0, 3), rng.randint(0, 2), f"{rng.randint(0, 9)}{rng.randint(0, 4)}")


def random_code_set(rng, size):
    out = set()
    while len(out) < size:
        out.add(random_code(rng))
    return out


def raw_citation_ages(path):
    """Citation ages recounted straight from the JSONL file.

    Bypasses the loader entirely: maps doi -> year from the raw records
    and tallies citing-year minus cited-year for every in-file ref.
    Returns {cited_doi: sorted list of ages} (negative ages included).
    """
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                records.append(json.loads(line))
    year = {r["doi"]: int(r["date"][:4]) for r in records}
    ages = {}
    for r in records:
        for target in r["refs"]:
            if target in year:
                ages.setdefault(target, []).append(int(r["date"][:4]) - year[target])
    return {doi: sorted(v) for doi, v in ages.items()}


_RAW_FIELDS = ("doi", "title", "authors", "date", "pacs", "refs")
_RAW_PACS = re.compile(r"[0-9][0-9]\.[0-9][0-9]")


def _raw_year(value):
    """Year of a strict YYYY-MM-DD string with a real calendar day, else None."""
    if not isinstance(value, str) or len(value) != 10 or value[4] != "-" or value[7] != "-":
        return None
    digits = value[:4] + value[5:7] + value[8:]
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return datetime.date(int(value[:4]), int(value[5:7]), int(value[8:])).year
    except ValueError:
        return None


def _raw_record_ok(obj):
    if type(obj) is not dict or any(name not in obj for name in _RAW_FIELDS):
        return False
    if type(obj["doi"]) is not str or obj["doi"] == "" or type(obj["title"]) is not str:
        return False
    for name in ("authors", "pacs", "refs"):
        items = obj[name]
        if type(items) is not list or not all(type(item) is str for item in items):
            return False
    return _raw_year(obj["date"]) is not None


def _raw_name(raw):
    return re.sub(r"\s+", " ", raw).strip().casefold()


def _raw_codes(obj):
    """The "AB.CD" strings of a raw record's well-formed PACS entries."""
    return {m.group() for m in (_RAW_PACS.match(raw.strip()) for raw in obj["pacs"]) if m}


def _raw_accepted(path):
    """(accepted record dicts, rejected line numbers) of a lenient read.

    Splits the bytes on LF and rejects lines that are not UTF-8, not
    JSON or not a well-typed record; blank lines, empty or holding only
    JSON whitespace, are neither.
    """
    with open(path, "rb") as handle:
        chunks = handle.read().split(b"\n")
    accepted = []
    rejected = []
    for lineno, chunk in enumerate(chunks, start=1):
        try:
            text = chunk.decode("utf-8")
        except UnicodeDecodeError:
            rejected.append(lineno)
            continue
        if text.strip(" \t\n\r") == "":
            continue
        try:
            obj = json.loads(text)
        except ValueError:
            rejected.append(lineno)
            continue
        if not _raw_record_ok(obj):
            rejected.append(lineno)
            continue
        accepted.append(obj)
    return accepted, rejected


def raw_ingest_recount(path):
    """What a lenient load should find, recounted from the raw bytes.

    Bypasses the loader and recounts from the accepted records of
    ``_raw_accepted`` alone. Returns a dict, everything in file order:
    ``papers`` ({DOI: (year, tuple of distinct normalised names, set of
    "AB.CD" strings)}), ``papers_by_author`` ({name: tuple of DOIs}),
    ``citations_in`` ({cited DOI: tuple of ages, citing year minus cited
    year}), ``rejected_linenos``, ``ingest`` (every ``IngestStats``
    counter) and ``corpus`` (the sidecar's corpus facts).
    """
    accepted, rejected = _raw_accepted(path)
    papers = {}
    repeated_authors = 0
    for obj in accepted:
        assert obj["doi"] not in papers, "recount expects unique accepted DOIs"
        names = tuple(dict.fromkeys(map(_raw_name, obj["authors"])))
        repeated_authors += len(obj["authors"]) - len(names)
        papers[obj["doi"]] = (_raw_year(obj["date"]), names, _raw_codes(obj))
    by_author = {}
    citations = {}
    malformed = dangling = negative = 0
    for obj in accepted:
        doi = obj["doi"]
        for name in papers[doi][1]:
            by_author.setdefault(name, []).append(doi)
        malformed += sum(_RAW_PACS.match(raw.strip()) is None for raw in obj["pacs"])
        for target in obj["refs"]:
            if target not in papers:
                dangling += 1
                continue
            age = papers[doi][0] - papers[target][0]
            citations.setdefault(target, []).append(age)
            if age < 0:
                negative += 1
    years = [year for year, _, _ in papers.values()]
    return {
        "papers": papers,
        "papers_by_author": {name: tuple(dois) for name, dois in by_author.items()},
        "citations_in": {doi: tuple(ages) for doi, ages in citations.items()},
        "rejected_linenos": rejected,
        "ingest": {
            "records_accepted": len(accepted),
            "lines_rejected": len(rejected),
            "malformed_pacs_dropped": malformed,
            "dangling_refs": dangling,
            "negative_age_citations_skipped": negative,
            "duplicate_authors_collapsed": repeated_authors,
        },
        "corpus": {
            "papers": len(papers),
            "authors": len(by_author),
            "citation_pairs": sum(map(len, citations.values())),
            "year_min": min(years, default=None),
            "year_max": max(years, default=None),
        },
    }


def raw_author_unions(source, window, cumulative=False):
    """Per-author PACS code unions of a lenient load, from the raw bytes.

    ``source`` is a path or its ``raw_ingest_recount``, and ``window`` a
    half-open (start, end) pair of years. The authors are those of the
    accepted records published in it, in order of first appearance; each
    maps to the set of "AB.CD" strings on their records in the window
    or, with ``cumulative``, in any year before its end.
    """
    papers = (source if isinstance(source, dict) else raw_ingest_recount(source))["papers"]
    start, end = window
    unions = {name: set() for year, names, _ in papers.values() if start <= year < end for name in names}
    for year, names, codes in papers.values():
        if year < end and (cumulative or year >= start):
            for name in names:
                if name in unions:
                    unions[name] |= codes
    return unions


def _raw_diversity(texts):
    return block_count_diversity(PacsCode(int(t[0]), int(t[1]), t[3:]) for t in texts)


def _raw_label(value, starts, labels):
    """The label of the interval holding ``value``, given the intervals' ascending lower bounds."""
    return labels[bisect_right(starts, value) - 1]


# the integer keyings' intervals: 0..8 one value each, 9 and above pooled
_RAW_INTEGER_STARTS = range(10)
_RAW_INTEGER_LABELS = [str(i) for i in range(9)] + ["8+"]
_RAW_SHARE_LABELS = [str(i) for i in range(9)] + ["9+"]
_RAW_PERIOD_COMMANDS = ("summary", "pacs-counts", "diversity-dist", "citation-age")
_RAW_COHORT_COMMANDS = ("diversity-citations", "citation-dist", "share")


def raw_tables(path, settings):
    """Every command's exit code and CSV rows, recounted from the raw bytes.

    Bypasses the loader: years, names, codes, ages and counters come
    from ``raw_ingest_recount``, author unions from ``raw_author_unions``
    and diversities from ``block_count_diversity``. ``settings`` holds
    ``period``, a half-open (start, end) pair of years or None for the
    corpus's full span; ``cohorts`` and ``windows``, lists of distinct
    such pairs in flag order; ``groups`` and ``bands``, the ascending
    lower bounds of the G1..Gn groups and of the bands (low, medium and
    high for three, band1..bandN otherwise), the first 0 and the last
    open-ended; ``horizon``; and the booleans ``include_zero_pacs``,
    ``cumulative`` for the author mode and ``lenient``.

    Returns {command: (exit code, header, rows)} for all 11 commands, the
    header and rows as written; both are None exactly when the code is
    not 0. The codes follow the CLI's precedence: configuration errors
    first (the settings are taken as valid), then the load, then the
    table. A
    strict load that meets a rejected line exits 4 for every command
    but ``validate``, which always loads leniently; that holds even for
    ``flows`` with one window, which would otherwise exit 2. After the
    load, an empty period exits 6, a cohort without a diversity-keyed
    paper 7, and windows that overlap or are out of order 8.
    """
    recount = raw_ingest_recount(path)
    papers, ages = recount["papers"], recount["citations_in"]
    horizon, zero = settings["horizon"], settings["include_zero_pacs"]

    def series(dois):
        counts = [0] * (horizon + 1)
        for doi in dois:
            for age in ages.get(doi, ()):
                if 0 <= age <= horizon:
                    counts[age] += 1
        rows = []
        running = 0.0
        for age, c in enumerate(counts):
            running += c / len(dois)
            rows.append([str(age), str(len(dois)), str(c), f"{c / len(dois):.6f}", f"{running:.6f}"])
        return rows

    by_year = {}
    for year, _, codes in papers.values():
        by_year.setdefault(year, []).append(bool(codes))
    coverage = [[str(year), f"{sum(coded) / len(coded):.6f}"] for year, coded in sorted(by_year.items())]
    facts = recount["corpus"]
    tables = {
        "pacs-coverage": (0, coverage),
        "validate": (
            0,
            [["papers", str(facts["papers"])], ["authors", str(facts["authors"])]]
            + [[name, str(count)] for name, count in sorted(recount["ingest"].items())]
            + [["citation_pairs_in_corpus", str(facts["citation_pairs"])]]
            + [[name, str(facts[name] or 0)] for name in ("year_min", "year_max")],
        ),
    }

    period = settings["period"]
    if period is None and papers:
        period = (facts["year_min"], facts["year_max"] + 1)
    in_period = [doi for doi, (year, _, _) in papers.items() if period and period[0] <= year < period[1]]
    if in_period:
        unions = raw_author_unions(recount, period)
        listed = sum(len(papers[doi][1]) for doi in in_period)

        def per_author(total):
            return f"{total / len(unions) if unions else 0.0:.6f}"

        def per_paper(total):
            return f"{total / len(in_period):.6f}"

        def distribution(measure):
            rows = []
            for entity, sets in (("author", unions.values()), ("paper", [papers[doi][2] for doi in in_period])):
                values = [measure(codes) for codes in sets if codes or zero]
                rows += [[entity, str(v), f"{values.count(v) / len(values):.6f}"] for v in sorted(set(values))]
            return rows

        tables["summary"] = (0, [
            ["papers", str(len(in_period))],
            ["authors", str(len(unions))],
            ["papers_per_author", per_author(listed)],
            ["authors_per_paper", per_paper(listed)],
            ["pacs_codes_per_author", per_author(sum(map(len, unions.values())))],
            ["pacs_codes_per_paper", per_paper(sum(len(papers[doi][2]) for doi in in_period))],
            ["author_diversity_mean", per_author(sum(map(_raw_diversity, unions.values())))],
            ["paper_diversity_mean", per_paper(sum(_raw_diversity(papers[doi][2]) for doi in in_period))],
            ["citations_per_paper", per_paper(sum(age >= 0 for doi in in_period for age in ages.get(doi, ())))],
        ])
        tables["pacs-counts"] = (0, distribution(len))
        tables["diversity-dist"] = (0, distribution(_raw_diversity))
        tables["citation-age"] = (0, series(in_period))
    else:
        tables.update(dict.fromkeys(_RAW_PERIOD_COMMANDS, (6, None)))

    windows, starts = settings["windows"], settings["groups"]
    labels = [f"G{i}" for i in range(1, len(starts) + 1)]
    labelled = []
    for start, end in windows:
        unions = raw_author_unions(recount, (start, end), cumulative=settings["cumulative"])
        groups = {
            name: _raw_label(_raw_diversity(codes), starts, labels)
            for name, codes in unions.items()
            if codes or zero
        }
        labelled.append((f"{start}-{end}", groups))
    tables["groups"] = (0, [
        [label] + [f"{list(groups.values()).count(g) / len(groups):.6f}" for g in labels]
        for label, groups in labelled
        if groups
    ])
    if len(windows) < 2:
        tables["flows"] = (2, None)
    elif any(later[0] < earlier[1] for earlier, later in zip(windows, windows[1:])):
        tables["flows"] = (8, None)
    else:
        rows = []
        for (from_label, before), (to_label, after) in zip(labelled, labelled[1:]):
            pair = [from_label, to_label]
            moved = [(before[name], after[name]) for name in before if name in after]
            for g in labels:
                rows += [pair + ["flow", g, h, str(moved.count((g, h)))] for h in labels]
            entrants = [after[name] for name in after if name not in before]
            rows += [pair + ["entrants", "", h, str(entrants.count(h))] for h in labels]
            leavers = [before[name] for name in before if name not in after]
            rows += [pair + ["leavers", g, "", str(leavers.count(g))] for g in labels]
        tables["flows"] = (0, rows)

    band_starts = settings["bands"]
    if len(band_starts) == 3:
        band_labels = ["low", "medium", "high"]
    else:
        band_labels = [f"band{i}" for i in range(1, len(band_starts) + 1)]
    diversity = {doi: _raw_diversity(codes) for doi, (_, _, codes) in papers.items() if codes or zero}
    keyed = {
        f"{start}-{end}": [doi for doi in diversity if start <= papers[doi][0] < end]
        for start, end in settings["cohorts"]
    }

    def by_key(dois, starts, labels):
        """The papers under each label that holds any, in label order."""
        bins = {label: [] for label in labels}
        for doi in dois:
            bins[_raw_label(diversity[doi], starts, labels)].append(doi)
        return {label: members for label, members in bins.items() if members}

    if not all(keyed.values()):
        tables.update(dict.fromkeys(_RAW_COHORT_COMMANDS, (7, None)))
    else:
        citations, distributions = [], []
        share = [[label] for label in _RAW_SHARE_LABELS]
        for cohort, dois in keyed.items():
            integer = by_key(dois, _RAW_INTEGER_STARTS, _RAW_INTEGER_LABELS)
            for keying, members_by_key in (("integer", integer), ("band", by_key(dois, band_starts, band_labels))):
                for key, members in members_by_key.items():
                    citations += [[cohort, keying, key, *row] for row in series(members)]
            for key, members in integer.items():
                cited = [sum(0 <= age <= horizon for age in ages.get(doi, ())) for doi in members]
                for c in range(max(cited) + 1):
                    distributions.append([cohort, key, str(c), f"{cited.count(c) / len(cited):.6f}"])
            shares = by_key(dois, _RAW_INTEGER_STARTS, _RAW_SHARE_LABELS)
            for row in share:
                row.append(f"{100.0 * len(shares.get(row[0], ())) / len(dois):.6f}")
        tables["diversity-citations"] = (0, citations)
        tables["citation-dist"] = (0, distributions)
        tables["share"] = (0, share)

    if recount["rejected_linenos"] and not settings["lenient"]:
        tables.update({command: (4, None) for command in tables if command != "validate"})
    series_columns = ["age", "papers", "citations", "mean_citations", "cumulative_mean"]
    headers = {
        "summary": ["statistic", "value"],
        "pacs-coverage": ["year", "fraction"],
        "pacs-counts": ["entity", "code_count", "fraction"],
        "diversity-dist": ["entity", "diversity", "fraction"],
        "groups": ["window", *labels],
        "flows": ["from_window", "to_window", "kind", "from_group", "to_group", "count"],
        "citation-age": series_columns,
        "diversity-citations": ["cohort", "keying", "key", *series_columns],
        "citation-dist": ["cohort", "key", "citations", "fraction"],
        "share": ["diversity", *keyed],
        "validate": ["metric", "value"],
    }
    return {
        command: (code, None if rows is None else headers[command], rows)
        for command, (code, rows) in tables.items()
    }


class _CountingPapers(dict):
    """A corpus's papers, counting each pass made over them."""

    passes = 0

    def values(self):
        self.passes += 1
        return super().values()


def count_table_passes(monkeypatch):
    """Count the passes ``cli.main`` makes over a loaded corpus's papers.

    Patches ``cli.load_corpus`` to hand out a corpus whose papers count
    each ``.values()`` call, and ``cli._corpus_facts`` to note the passes
    it makes itself. Returns a function that, after one run, gives the
    passes the run made beyond those of the corpus facts.
    """
    # imported here, so perfbench/checks.py, which loads this module,
    # never imports the command line
    from pacsdiv import cli

    corpora, facts_passes = [], []
    load_corpus, corpus_facts = cli.load_corpus, cli._corpus_facts

    def counting_load(*args):
        corpus = load_corpus(*args)
        corpora.append(replace(corpus, papers=_CountingPapers(corpus.papers)))
        return corpora[-1]

    def counted_facts(corpus):
        before = corpus.papers.passes
        facts = corpus_facts(corpus)
        facts_passes.append(corpus.papers.passes - before)
        return facts

    monkeypatch.setattr(cli, "load_corpus", counting_load)
    monkeypatch.setattr(cli, "_corpus_facts", counted_facts)

    def passes_beyond_facts():
        (corpus,), (facts,) = corpora, facts_passes
        return corpus.papers.passes - facts

    return passes_beyond_facts


_NAMES = ("alice adams", "bob brown", "carol chen", "david müller", "erin evans", "frank fox")


def _name_variant(rng, name):
    """The same author as written by a careless typist: case and spacing."""
    parts = [rng.choice((part, part.upper(), part.title())) for part in name.split()]
    return rng.choice(("", " ", "\t")) + rng.choice((" ", "  ", "\t ")).join(parts) + rng.choice(("", " \n"))


# Each breaks one field of an otherwise good record; the loader must reject the line.
_BREAKAGES = (
    {"authors": "x"},
    {"authors": [["nested"]]},
    {"authors": [None]},
    {"pacs": "04.25"},
    {"pacs": [{"code": "04.25"}]},
    {"pacs": [True]},
    {"refs": None},
    {"refs": [1]},
    {"title": 5},
    {"doi": ""},
    {"date": "1990-13-01"},
    {"date": "19900101"},
    {"date": "1990-W01-1"},
    {"date": "1990W011"},
    {"date": 19900101},
    {"date": "\uff11\uff19\uff19\uff10-01-01"},
)


def messy_corpus(path, n_records, seed):
    """Write a deterministic corpus full of the mess a lenient load absorbs.

    Author case and whitespace variants (sometimes twice on one paper),
    an author whose papers list no code, malformed and repeated PACS
    strings, repeated, dangling and negative-age refs, blank lines, LF
    and CRLF endings, and malformed lines of every kind: broken JSON,
    non-objects, missing fields, wrong types, bad dates, invalid UTF-8
    and rejected lines that reuse an accepted DOI.
    """
    rng = random.Random(seed)
    # well-formed codes in seven broad fields, three of them with two
    # fields each, so a paper's up to four codes reach every diversity
    # 0..9 and the pooled keys are not always empty
    pacs_pool = [
        "04.25.dg", "04.30.-w", " 07.05.Fb ", "11.15", "98.80.Es", "4.25", "ab.cd", "", "04-25",
        "24.10.Cn", "42.50.Dv", "47.27.-i", "68.35.Rh", "71.15.Mb", "75.10.Jm",
    ]
    lines = []
    for i in range(n_records):
        doi = f"10.m/{i}"
        authors = [_name_variant(rng, rng.choice(_NAMES)) for _ in range(rng.randint(0, 3))]
        if authors and rng.random() < 0.2:
            authors.append(_name_variant(rng, authors[0].strip().lower()))
        refs = [f"10.m/{rng.randrange(n_records)}" for _ in range(rng.randint(0, 4))]
        if refs and rng.random() < 0.3:
            refs.append(refs[0])
        if rng.random() < 0.2:
            refs.append(f"10.ext/{rng.randrange(5)}")
        record = {
            "doi": doi,
            "title": f"Messy record {i}",
            "authors": authors,
            "date": f"{1990 + rng.randrange(12)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
            "pacs": [rng.choice(pacs_pool) for _ in range(rng.randint(0, 4))],
            "refs": refs,
        }
        if not record["pacs"]:
            # one author lists no code on any paper
            authors.append(_name_variant(rng, "grace gray"))
        if rng.random() < 0.1:
            record["journal"] = "Phys. Rev. E"
        roll = rng.random()
        if roll < 0.05:
            line = json.dumps(record)[:-3].encode()
        elif roll < 0.07:
            line = json.dumps(list(record)).encode()
        elif roll < 0.1:
            del record[rng.choice(_RAW_FIELDS)]
            line = json.dumps(record).encode()
        elif roll < 0.2:
            record.update(rng.choice(_BREAKAGES))
            line = json.dumps(record, ensure_ascii=False).encode()
        elif roll < 0.23:
            line = json.dumps(record).encode().replace(b"Messy", b"M\xffssy")
        elif roll < 0.25 and i:
            record["doi"] = f"10.m/{rng.randrange(i)}"
            record["authors"] = "not a list"
            line = json.dumps(record).encode()
        else:
            line = json.dumps(record, ensure_ascii=rng.random() < 0.5).encode()
        lines.append(line)
        if rng.random() < 0.05:
            lines.append(rng.choice((b"", b"   ", b"\t")))
    with open(path, "wb") as handle:
        for line in lines:
            handle.write(line + rng.choice((b"\n", b"\r\n")))
    return path


# ~490 codes over all ten top-level digits, for synthetic corpora
CODE_POOL = [
    PacsCode(a, b, f"{c}{d}")
    for a in range(10)
    for b in range(7)
    for c, d in ((1, 0), (2, 5), (3, 0), (4, 5), (6, 0), (7, 5), (8, 0))
]

# code-count weights for 0..8 codes per paper; mean 2.92
_CODE_COUNT_WEIGHTS = [5, 19, 25, 20, 12, 8, 5, 3, 3]


def _json_strings(items):
    """``json.dumps`` of a list of strings that need no escaping."""
    return '["' + '", "'.join(items) + '"]' if items else "[]"


def synth_corpus(path, n_records, seed=7, dangling_every=997, heavy_tailed=False):
    """Write a deterministic synthetic corpus of n_records JSON lines.

    Years climb from 1985 across 25 calendar years, refs point at
    earlier records only (plus a sprinkle of dangling targets), authors
    come from a pool sized to give a few papers per author. With
    ``heavy_tailed``, author productivity follows a Pareto(0.8) curve
    capped at 250 papers' weight instead: most authors write one paper
    and a few write hundreds, whose code unions grow large.

    Each line is what ``json.dumps`` gives for the record, written
    directly. ``below(n)`` draws what ``rng.randrange(n)`` does, and
    ``a + below(b - a + 1)`` what ``rng.randint(a, b)`` does, without
    their argument checks.
    """
    rng = random.Random(seed)
    below = rng._randbelow
    n_authors = max(10, n_records // 3)
    counts = rng.choices(range(9), weights=_CODE_COUNT_WEIGHTS, k=n_records)
    texts = [code.text for code in CODE_POOL]
    pareto = None
    if heavy_tailed:
        weights = (min(250.0, ((i + 0.5) / n_authors) ** (-1 / 0.8)) for i in range(n_authors))
        pareto = (range(n_authors), list(accumulate(weights)))
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(n_records):
            year = 1985 + (i * 25) // n_records
            codes = rng.sample(texts, counts[i])
            refs = [f"10.s/{below(i)}" for _ in range(below(6))] if i else []
            if i % dangling_every == 1:
                refs.append("10.s/nowhere")
            if pareto is None:
                authors = [f"author {below(n_authors)}" for _ in range(1 + below(4))]
            else:
                authors = [f"author {a}" for a in rng.choices(pareto[0], cum_weights=pareto[1], k=1 + below(4))]
            date = f"{year}-{1 + below(12):02d}-{1 + below(28):02d}"
            pacs = [f"{text}.{'abcdefgh'[below(8)]}x" for text in codes]
            handle.write(
                f'{{"doi": "10.s/{i}", "title": "Synthetic record {i}", "authors": {_json_strings(authors)}, '
                f'"date": "{date}", "pacs": {_json_strings(pacs)}, "refs": {_json_strings(refs)}}}\n'
            )
    return path
