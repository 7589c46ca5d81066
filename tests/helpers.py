"""Shared test utilities: independent oracles and corpus generators.

Everything here recomputes results through a different route than the
library (explicit tree nodes instead of prefix arithmetic, block
counting instead of greedy insertion, raw JSON scans instead of the
loader) so that agreement between the two is meaningful.
"""

import datetime
import json
import random
import re

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

    The library function canonicalizes by sorting, so order invariance
    has to be probed through this unsorted variant: every input order
    must land on the same sum.
    """
    from pacsdiv import distance

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


def raw_ingest_recount(path, known_codes=None):
    """What a lenient load should find, recounted from the raw bytes.

    Bypasses the loader: splits the bytes on LF, rejects lines that are
    not UTF-8, not JSON or not a well-typed record, and recounts from
    the accepted records alone. Returns a dict with ``papers_by_author``
    ({name: tuple of DOIs}), ``citations_in`` ({cited DOI: tuple of
    (citing DOI, citing year)}), ``rejected_linenos`` and every
    ``IngestStats`` counter, all in file order.
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
        if text.strip() == "":
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

    year = {}
    for obj in accepted:
        assert obj["doi"] not in year, "recount expects unique accepted DOIs"
        year[obj["doi"]] = int(obj["date"][:4])
    by_author = {}
    citations = {}
    malformed = unknown = dangling = negative = 0
    for obj in accepted:
        doi = obj["doi"]
        for raw in obj["authors"]:
            name = re.sub(r"\s+", " ", raw).strip().casefold()
            dois = by_author.setdefault(name, [])
            if doi not in dois:
                dois.append(doi)
        for raw in obj["pacs"]:
            match = _RAW_PACS.match(raw.strip())
            if match is None:
                malformed += 1
            elif known_codes is not None and match.group() not in known_codes:
                unknown += 1
        for target in obj["refs"]:
            if target not in year:
                dangling += 1
                continue
            citations.setdefault(target, []).append((doi, year[doi]))
            if year[doi] < year[target]:
                negative += 1
    return {
        "papers_by_author": {name: tuple(dois) for name, dois in by_author.items()},
        "citations_in": {doi: tuple(pairs) for doi, pairs in citations.items()},
        "rejected_linenos": rejected,
        "records_accepted": len(accepted),
        "lines_rejected": len(rejected),
        "malformed_pacs_dropped": malformed,
        "unknown_codes": unknown,
        "dangling_refs": dangling,
        "negative_age_citations_skipped": negative,
    }


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


def synth_corpus(path, n_records, seed=7, dangling_every=997):
    """Write a deterministic synthetic corpus of n_records JSON lines.

    Years climb from 1985 across 25 calendar years, refs point at
    earlier records only (plus a sprinkle of dangling targets), authors
    come from a pool sized to give a few papers per author.
    """
    rng = random.Random(seed)
    n_authors = max(10, n_records // 3)
    counts = rng.choices(range(9), weights=_CODE_COUNT_WEIGHTS, k=n_records)
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(n_records):
            year = 1985 + (i * 25) // n_records
            codes = rng.sample(CODE_POOL, counts[i])
            refs = []
            if i:
                for _ in range(rng.randint(0, 5)):
                    refs.append(f"10.s/{rng.randrange(i)}")
            if i % dangling_every == 1:
                refs.append("10.s/nowhere")
            record = {
                "doi": f"10.s/{i}",
                "title": f"Synthetic record {i}",
                "authors": [
                    f"author {rng.randrange(n_authors)}"
                    for _ in range(rng.randint(1, 4))
                ],
                "date": f"{year}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
                "pacs": [f"{c.text}.{'abcdefgh'[rng.randrange(8)]}x" for c in codes],
                "refs": refs,
            }
            handle.write(json.dumps(record) + "\n")
    return path
