"""Seeded synthetic corpora for the three benchmark workloads.

Every workload gets its own generator. Each writes a JSON Lines file in
the input format the pacsdiv README documents and returns the ground
truth the output checks need. All randomness comes from one
``random.Random`` seeded with the workload name and ``--seed``: no wall
clock, no global random state, so one seed always gives byte-identical
files. Dates are always canonical ``YYYY-MM-DD``, which every supported
Python version parses the same way.

    python3 perfbench/gen.py --workload citations --seed 3 --out corpus.jsonl
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
from pathlib import Path

# Records per workload. Sized so that one benchmark run fits five or more
# rounds of fresh-process samples into about 40 s on a 2-core machine.
SIZES = {"ingest": 40_000, "authors": 10_000, "citations": 20_000}

FIRST_YEAR, N_YEARS = 1985, 25

# 800 level-3 codes spread over all ten broad fields.
CODE_POOL = [
    f"{a}{b}.{c}" for a in range(10) for b in range(10) for c in ("10", "20", "25", "30", "40", "50", "60", "70")
]
# Deeper-level tails the loader truncates away.
_TAILS = ("", ".dg", ".-w", ".Fb", ".Jk", ".+a", ".Qx")
# Code-count weights for 0..8 codes per paper (mean about 2.9).
_CODE_COUNT_WEIGHTS = (5, 19, 25, 20, 12, 8, 5, 3, 3)
# Strings that never parse as AB.CD, whatever is stripped.
_MALFORMED_PACS = ("4.25.dg", "ab.cd", "04-25.xx", "", "04.2", "O4.25.Gb", "04.2x.-q", "--")
HOME_SHARE = 0.75
_EXTRA_FIELDS = ("journal", "volume", "abstract", "keywords")


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds hash with SHA-512 and never depend on PYTHONHASHSEED
    return random.Random(f"pacsdiv-bench:{workload}:{seed}")


def _year(i: int, n: int) -> int:
    return FIRST_YEAR + (i * N_YEARS) // n


def _date(rng: random.Random, year: int) -> str:
    return f"{year:04d}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"


def _pacs_string(rng: random.Random, code: str) -> str:
    return code + rng.choice(_TAILS)


def _code_count(rng: random.Random) -> int:
    return rng.choices(range(9), weights=_CODE_COUNT_WEIGHTS)[0]


def _record(doi, year, rng, authors, pacs, refs) -> dict:
    return {
        "doi": doi,
        "title": f"Synthetic paper {doi}",
        "authors": authors,
        "date": _date(rng, year),
        "pacs": pacs,
        "refs": refs,
    }


def _name_variant(rng: random.Random, idx: int) -> str:
    """One author written in one of several case and whitespace forms."""
    form = rng.randrange(10)
    if form == 0:
        return f"AUTHOR {idx}"
    if form == 1:
        return f"  Author   {idx} "
    if form == 2:
        return f"author\t{idx}"
    return f"author {idx}"


def gen_ingest(rng: random.Random, n: int, handle) -> dict:
    """Messy records: only the kinds of mess whose handling the README fixes.

    Malformed PACS strings, malformed JSON lines, dangling and
    negative-age references, author case/whitespace variants and unknown
    extra fields. Repeated refs and repeated authors on one paper occur
    as chance makes them; the ground truth counts both ways where a
    policy for them is still open.
    """
    n_authors = max(10, n // 3)
    lines: list[str] = []
    rejected = [False] * n
    years = [_year(i, n) for i in range(n)]
    refs_of: list[list[str]] = []
    malformed_of = [0] * n
    for i in range(n):
        year = years[i]
        authors = [_name_variant(rng, rng.randrange(n_authors)) for _ in range(rng.randint(1, 4))]
        pacs = []
        for code in rng.sample(CODE_POOL, _code_count(rng)):
            if rng.random() < 0.04:
                pacs.append(rng.choice(_MALFORMED_PACS))
                malformed_of[i] += 1
            else:
                pacs.append(_pacs_string(rng, code))
        refs = []
        for _ in range(rng.randint(0, 6)):
            roll = rng.random()
            if roll < 0.03:
                refs.append(f"10.ext/{rng.randrange(10 * n)}")
            elif roll < 0.08 and i + 1 < n:
                refs.append(f"10.ing/{rng.randrange(i + 1, n)}")
            elif i:
                refs.append(f"10.ing/{rng.randrange(i)}")
        refs_of.append(refs)
        record = _record(f"10.ing/{i}", year, rng, authors, pacs, refs)
        if rng.random() < 0.3:
            for name in rng.sample(_EXTRA_FIELDS, rng.randint(1, 3)):
                record[name] = {"journal": "Phys. Rev. B", "volume": rng.randint(1, 99),
                                "abstract": "We study " + "x" * rng.randint(0, 200),
                                "keywords": {"free": ["spin", "lattice"]}}[name]
        line = json.dumps(record)
        roll = rng.random()
        if roll < 0.004:
            rejected[i] = True
            line = line[: rng.randint(1, len(line) - 2)]
        elif roll < 0.005:
            rejected[i] = True
            line = json.dumps([record["doi"], record["date"]])
        lines.append(line)
    for line in lines:
        handle.write(line + "\n")

    accepted_year = {f"10.ing/{i}": years[i] for i in range(n) if not rejected[i]}
    truth = {
        "records_accepted": len(accepted_year),
        "lines_rejected": sum(rejected),
        "malformed_pacs_dropped": sum(m for m, r in zip(malformed_of, rejected) if not r),
        "dangling_refs": [0, 0],
        "negative_age_citations_skipped": [0, 0],
    }
    for i in range(n):
        if rejected[i]:
            continue
        for counted, refs in ((0, refs_of[i]), (1, set(refs_of[i]))):
            for target in refs:
                target_year = accepted_year.get(target)
                if target_year is None:
                    truth["dangling_refs"][counted] += 1
                elif target_year > years[i]:
                    truth["negative_age_citations_skipped"][counted] += 1
    return truth


def gen_authors(rng: random.Random, n: int, handle) -> dict:
    """Clean records with heavy-tailed (Pareto) author productivity.

    At 10k records about 60 authors write 100+ papers. Each paper
    draws most of its codes from its lead author's home field and the
    rest from the whole pool, so prolific authors' code unions reach
    about 300 codes.
    """
    n_authors = max(10, n // 2)
    # Pareto(0.8) quantiles capped at 250: the same productivity curve for
    # every seed, so seeds vary who writes what, not how much work there is.
    cum, total = [], 0.0
    for i in range(n_authors):
        total += min(250.0, ((i + 0.5) / n_authors) ** (-1 / 0.8))
        cum.append(total)
    home = [rng.randrange(10) for _ in range(n_authors)]
    for i in range(n):
        slots = rng.choices(range(n_authors), cum_weights=cum, k=rng.randint(1, 4))
        lead = home[slots[0]]
        codes = set()
        for _ in range(_code_count(rng)):
            if rng.random() < HOME_SHARE:
                codes.add(f"{lead}{rng.randrange(10)}.{rng.choice(CODE_POOL)[3:5]}")
            else:
                codes.add(rng.choice(CODE_POOL))
        refs = [f"10.aut/{rng.randrange(i)}" for _ in range(rng.randint(0, 3))] if i else []
        record = _record(
            f"10.aut/{i}", _year(i, n), rng, [f"author {a}" for a in slots],
            [_pacs_string(rng, c) for c in sorted(codes)], refs,
        )
        handle.write(json.dumps(record) + "\n")
    return {}


def gen_citations(rng: random.Random, n: int, handle) -> dict:
    """Clean records with dense, heavy-tailed in-corpus citations.

    Reference counts are Pareto-distributed. Each reference picks a cited
    year a geometric number of years back (mostly the last few), then a
    paper of that year by preferential attachment: every paper sits in
    its year's urn once, plus once per citation it has received.
    """
    n_authors = max(10, n // 3)
    by_year: dict[int, list[int]] = {}
    urns: dict[int, list[int]] = {}
    for i in range(n):
        year = _year(i, n)
        refs = []
        for _ in range(min(60, int(rng.paretovariate(1.8) * 4) - 2)):
            back = 0
            while rng.random() < 0.6 and back < year - FIRST_YEAR:
                back += 1
            pool = by_year.get(year - back)
            if pool:
                urn = urns[year - back]
                cited = rng.choice(urn if rng.random() < 0.5 else pool)
                refs.append(f"10.cit/{cited}")
                urn.append(cited)
        by_year.setdefault(year, []).append(i)
        urns.setdefault(year, []).append(i)
        record = _record(
            f"10.cit/{i}", year, rng,
            [f"author {rng.randrange(n_authors)}" for _ in range(rng.randint(1, 4))],
            [_pacs_string(rng, c) for c in rng.sample(CODE_POOL, _code_count(rng))], refs,
        )
        handle.write(json.dumps(record) + "\n")
    return {}


GENERATORS = {"ingest": gen_ingest, "authors": gen_authors, "citations": gen_citations}


def generate(workload: str, seed: int, path: Path) -> tuple[str, dict]:
    """Write the workload's corpus to ``path``; return (sha256, ground truth)."""
    rng = _rng(workload, seed)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        truth = GENERATORS[workload](rng, SIZES[workload], handle)
    return hashlib.sha256(path.read_bytes()).hexdigest(), truth


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    sha, truth = generate(args.workload, args.seed, args.out)
    print(f"{args.out} sha256 {sha}")
    if truth:
        print(json.dumps(truth, sort_keys=True))


if __name__ == "__main__":
    main()
