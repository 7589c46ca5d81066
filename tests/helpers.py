"""Shared test utilities: independent oracles and corpus generators.

Everything here recomputes results through a different route than the
library (explicit tree nodes instead of prefix arithmetic, pairwise
distances and exhaustive search instead of the closed-form tree length,
block counting instead of greedy insertion, raw JSON scans instead of
the loader) so that agreement between the two is meaningful. The
library itself never calls the pairwise distance or the exhaustive
Weitzman oracles; they live here as the reference its closed form is
tested against.
"""

import datetime
import json
import random
import re
from itertools import permutations
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
    ``_raw_accepted`` alone. Returns a dict with ``papers_by_author``
    ({name: tuple of DOIs}), ``citations_in`` ({cited DOI: tuple of
    ages, citing year minus cited year}), ``rejected_linenos`` and
    every ``IngestStats`` counter, all in file order.
    """
    accepted, rejected = _raw_accepted(path)
    year = {}
    for obj in accepted:
        assert obj["doi"] not in year, "recount expects unique accepted DOIs"
        year[obj["doi"]] = int(obj["date"][:4])
    by_author = {}
    citations = {}
    malformed = dangling = negative = repeated_authors = 0
    for obj in accepted:
        doi = obj["doi"]
        for raw in obj["authors"]:
            dois = by_author.setdefault(_raw_name(raw), [])
            if doi in dois:
                repeated_authors += 1
            else:
                dois.append(doi)
        for raw in obj["pacs"]:
            if _RAW_PACS.match(raw.strip()) is None:
                malformed += 1
        for target in obj["refs"]:
            if target not in year:
                dangling += 1
                continue
            age = year[doi] - year[target]
            citations.setdefault(target, []).append(age)
            if age < 0:
                negative += 1
    return {
        "papers_by_author": {name: tuple(dois) for name, dois in by_author.items()},
        "citations_in": {doi: tuple(ages) for doi, ages in citations.items()},
        "rejected_linenos": rejected,
        "records_accepted": len(accepted),
        "lines_rejected": len(rejected),
        "malformed_pacs_dropped": malformed,
        "dangling_refs": dangling,
        "negative_age_citations_skipped": negative,
        "duplicate_authors_collapsed": repeated_authors,
    }


def _raw_key(diversity):
    """Integer keying: "0".."8", everything above pooled as "8+"."""
    return str(diversity) if diversity <= 8 else "8+"


def _raw_band(diversity):
    """The default bands 0-2, 3-5 and 6+."""
    return "low" if diversity <= 2 else "medium" if diversity <= 5 else "high"


_RAW_KEY_ORDER = {
    "integer": [str(i) for i in range(9)] + ["8+"],
    "band": ["low", "medium", "high"],
}


def _raw_diversity(texts):
    return block_count_diversity(PacsCode(int(t[0]), int(t[1]), t[3:]) for t in texts)


def raw_citation_tables(path, cohorts, horizon, include_zero_pacs=False, period=None):
    """Summary and citation rows of a lenient load with the default bands, from the raw bytes.

    Bypasses the loader: years, names, codes and ages come from the
    accepted records of ``_raw_accepted``, diversities from
    ``block_count_diversity``. ``cohorts`` is a list of half-open
    (start, end) pairs and ``period`` one such pair, or None for the
    corpus's full year span. Returns the CSV cells, as written, of every
    row of ``summary``, ``citation-age``, ``diversity-citations`` and
    ``citation-dist``; the first two are None when the period holds no
    paper, the last two when a cohort holds no keyed paper.
    """
    accepted, _ = _raw_accepted(path)
    year = {obj["doi"]: _raw_year(obj["date"]) for obj in accepted}
    codes = {obj["doi"]: _raw_codes(obj) for obj in accepted}
    diversity = {doi: _raw_diversity(texts) for doi, texts in codes.items() if texts or include_zero_pacs}
    ages = {doi: [] for doi in year}
    for obj in accepted:
        for target in obj["refs"]:
            if target in year:
                ages[target].append(year[obj["doi"]] - year[target])
    cited = {doi: sum(0 <= age <= horizon for age in doi_ages) for doi, doi_ages in ages.items()}

    def series(dois):
        counts = [0] * (horizon + 1)
        for doi in dois:
            for age in ages[doi]:
                if 0 <= age <= horizon:
                    counts[age] += 1
        rows = []
        running = 0.0
        for age, c in enumerate(counts):
            running += c / len(dois)
            rows.append([str(age), str(len(dois)), str(c), f"{c / len(dois):.6f}", f"{running:.6f}"])
        return rows

    if period is None and year:
        period = (min(year.values()), max(year.values()) + 1)
    in_period = [obj for obj in accepted if period and period[0] <= year[obj["doi"]] < period[1]]
    tables = {
        "summary": _raw_summary(in_period, codes, ages) if in_period else None,
        "citation-age": series([obj["doi"] for obj in in_period]) if in_period else None,
        "diversity-citations": [],
        "citation-dist": [],
    }
    for start, end in cohorts:
        label = f"{start}-{end}"
        keyed = [doi for doi in diversity if start <= year[doi] < end]
        if not keyed:
            tables["diversity-citations"] = tables["citation-dist"] = None
            break
        for keying, key_of in (("integer", _raw_key), ("band", _raw_band)):
            by_key = {}
            for doi in keyed:
                by_key.setdefault(key_of(diversity[doi]), []).append(doi)
            for key in _RAW_KEY_ORDER[keying]:
                if key in by_key:
                    tables["diversity-citations"] += [[label, keying, key, *row] for row in series(by_key[key])]
        by_key = {}
        for doi in keyed:
            by_key.setdefault(_raw_key(diversity[doi]), []).append(cited[doi])
        for key in _RAW_KEY_ORDER["integer"]:
            if key in by_key:
                counts = by_key[key]
                for c in range(max(counts) + 1):
                    tables["citation-dist"].append([label, key, str(c), f"{counts.count(c) / len(counts):.6f}"])
    return tables


def _raw_summary(in_period, codes, ages):
    """The nine ``summary`` rows over the accepted records ``in_period``.

    A paper's authors are its distinct normalised names; an author's
    codes are the union over their in-period papers, so an author whose
    papers carry no code counts with zero codes and diversity 0.
    """
    unions = {}
    listed = 0
    for obj in in_period:
        names = dict.fromkeys(_raw_name(raw) for raw in obj["authors"])
        listed += len(names)
        for name in names:
            unions.setdefault(name, set()).update(codes[obj["doi"]])
    papers = len(in_period)
    authors = len(unions)

    def per_author(total):
        return f"{total / authors if authors else 0.0:.6f}"

    return [
        ["papers", str(papers)],
        ["authors", str(authors)],
        ["papers_per_author", per_author(listed)],
        ["authors_per_paper", f"{listed / papers:.6f}"],
        ["pacs_codes_per_author", per_author(sum(map(len, unions.values())))],
        ["pacs_codes_per_paper", f"{sum(len(codes[obj['doi']]) for obj in in_period) / papers:.6f}"],
        ["author_diversity_mean", per_author(sum(map(_raw_diversity, unions.values())))],
        ["paper_diversity_mean", f"{sum(_raw_diversity(codes[obj['doi']]) for obj in in_period) / papers:.6f}"],
        ["citations_per_paper", f"{sum(age >= 0 for obj in in_period for age in ages[obj['doi']]) / papers:.6f}"],
    ]


def raw_author_unions(path, window, cumulative=False):
    """Per-author PACS code unions of a lenient load, from the raw bytes.

    ``window`` is a half-open (start, end) pair of years. The authors
    are those of the accepted records published in it, in order of first
    appearance; each maps to the set of "AB.CD" strings on their records
    in the window or, with ``cumulative``, in any year before its end.
    """
    start, end = window
    accepted, _ = _raw_accepted(path)
    unions = {}
    for obj in accepted:
        if start <= _raw_year(obj["date"]) < end:
            for raw in obj["authors"]:
                unions.setdefault(_raw_name(raw), set())
    for obj in accepted:
        year = _raw_year(obj["date"])
        if year < end and (cumulative or year >= start):
            codes = _raw_codes(obj)
            for raw in obj["authors"]:
                name = _raw_name(raw)
                if name in unions:
                    unions[name] |= codes
    return unions


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
    malformed and repeated PACS strings, repeated, dangling and
    negative-age refs, blank lines, LF and CRLF endings, and malformed
    lines of every kind: broken JSON, non-objects, missing fields, wrong
    types, bad dates, invalid UTF-8 and rejected lines that reuse an
    accepted DOI.
    """
    rng = random.Random(seed)
    pacs_pool = ["04.25.dg", "04.30.-w", " 07.05.Fb ", "11.15", "98.80.Es", "4.25", "ab.cd", "", "04-25"]
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


def synth_corpus(path, n_records, seed=7, dangling_every=997):
    """Write a deterministic synthetic corpus of n_records JSON lines.

    Years climb from 1985 across 25 calendar years, refs point at
    earlier records only (plus a sprinkle of dangling targets), authors
    come from a pool sized to give a few papers per author.

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
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(n_records):
            year = 1985 + (i * 25) // n_records
            codes = rng.sample(texts, counts[i])
            refs = [f"10.s/{below(i)}" for _ in range(below(6))] if i else []
            if i % dangling_every == 1:
                refs.append("10.s/nowhere")
            authors = [f"author {below(n_authors)}" for _ in range(1 + below(4))]
            date = f"{year}-{1 + below(12):02d}-{1 + below(28):02d}"
            pacs = [f"{text}.{'abcdefgh'[below(8)]}x" for text in codes]
            handle.write(
                f'{{"doi": "10.s/{i}", "title": "Synthetic record {i}", "authors": {_json_strings(authors)}, '
                f'"date": "{date}", "pacs": {_json_strings(pacs)}, "refs": {_json_strings(refs)}}}\n'
            )
    return path
