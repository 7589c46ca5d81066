"""Output checks for the benchmark: named values and identities, not whole tables.

Expected values come from the generator's ground truth or from a raw
JSON recount of the corpus through the test suite's own oracles
(``tests/helpers.py``), never from the loader. Only named values are
compared, so a counter or column added later is not a failure. Where the
README leaves a policy open (repeated refs on one paper) either reading
is accepted.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import json
import re
from collections import Counter, defaultdict
from pathlib import Path

HORIZON = 10  # the CLI default the workloads run with
# Cells are printed with six decimals, so each carries up to 5e-7 of rounding.
CELL = 5e-7
_CODE = re.compile(r"([0-9])([0-9])\.([0-9]{2})")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _helpers(root: Path):
    spec = importlib.util.spec_from_file_location("pacsdiv_test_helpers", root / "tests" / "helpers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _records(corpus: Path):
    with open(corpus, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                yield json.loads(line)


def _age_counts(age_lists) -> list[int]:
    counts = [0] * (HORIZON + 1)
    for ages in age_lists:
        for age in ages:
            if 0 <= age <= HORIZON:
                counts[age] += 1
    return counts


def _distinct_ref_ages(corpus: Path) -> list[int]:
    """Citation-age counts if a ref repeated on one paper counted once."""
    year = {r["doi"]: int(r["date"][:4]) for r in _records(corpus)}
    ages = []
    for r in _records(corpus):
        cited = set(r["refs"])
        ages.append([int(r["date"][:4]) - year[t] for t in cited if t in year])
    return _age_counts(ages)


def expectations(workload: str, corpus: Path, sha: str, truth: dict, root: Path) -> dict:
    """Everything the checks compare against, computed once per corpus."""
    if workload == "ingest":
        return {"corpus_sha256": sha, "validate": truth}
    helpers = _helpers(root)
    expected: dict = {"corpus_sha256": sha, "papers": 0}
    diversities: Counter[int] = Counter()
    for record in _records(corpus):
        expected["papers"] += 1
        codes = set()
        for raw in record["pacs"]:
            match = _CODE.match(raw.strip())
            if match:
                a, b, cd = match.groups()
                codes.add(helpers.PacsCode(int(a), int(b), cd))
        if codes:
            diversities[helpers.block_count_diversity(codes)] += 1
    keyed = sum(diversities.values())
    expected["paper_diversity"] = {d: n / keyed for d, n in diversities.items()}
    if workload == "citations":
        expected["citation_age"] = [
            _age_counts(helpers.raw_citation_ages(corpus).values()),
            _distinct_ref_ages(corpus),
        ]
    return expected


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _close(value: float, expected: float, cells: int = 1) -> bool:
    return abs(value - expected) <= cells * CELL + 1e-9


def check_validate(rows, argv, expected) -> list[str]:
    values = {row["metric"]: int(row["value"]) for row in rows}
    truth = expected["validate"]
    problems = []
    for name in ("records_accepted", "lines_rejected", "malformed_pacs_dropped"):
        if values.get(name) != truth[name]:
            problems.append(f"{name} = {values.get(name)}, generator says {truth[name]}")
    # [counting every listed ref, counting a ref repeated on one paper once]
    for name in ("dangling_refs", "negative_age_citations_skipped"):
        if values.get(name) not in truth[name]:
            problems.append(f"{name} = {values.get(name)}, generator says one of {truth[name]}")
    return problems


def check_summary(rows, argv, expected) -> list[str]:
    papers = {row["statistic"]: row["value"] for row in rows}.get("papers")
    if papers != str(expected["papers"]):
        return [f"summary papers = {papers}, corpus has {expected['papers']}"]
    return []


def check_diversity_dist(rows, argv, expected) -> list[str]:
    got = {int(r["diversity"]): float(r["fraction"]) for r in rows if r["entity"] == "paper"}
    want = expected["paper_diversity"]
    if set(got) != set(want):
        return [f"paper diversities {sorted(got)} != block-count oracle {sorted(want)}"]
    return [
        f"paper diversity {d}: fraction {got[d]} != oracle {want[d]:.6f}"
        for d in sorted(want)
        if not _close(got[d], want[d])
    ]


def check_groups(rows, argv, expected) -> list[str]:
    if not rows:
        return ["groups table has no windows"]
    problems = []
    for row in rows:
        fractions = [float(v) for k, v in row.items() if k != "window"]
        if not _close(sum(fractions), 1.0, len(fractions)):
            problems.append(f"groups row {row['window']} sums to {sum(fractions)}")
    return problems


def _group_rank(label: str) -> int:
    """Rank of a diversity group label from its first integer.

    That is the index of the default ``G1``..``Gn`` labels, or the lower
    bound of a range label such as ``0-3`` or ``28+``; either grows with
    diversity, whatever order the rows come in.
    """
    match = re.search(r"\d+", label)
    if match is None:
        raise ValueError(f"group label {label!r} has no rank")
    return int(match.group())


def check_flows(rows, argv, expected) -> list[str]:
    """Conservation across adjacent pairs; cumulative unions never shrink."""
    pairs: dict[tuple, dict] = {}
    for row in rows:
        pair = pairs.setdefault(
            (row["from_window"], row["to_window"]), {"before": Counter(), "after": Counter(), "down": 0}
        )
        count = int(row["count"])
        if row["kind"] in ("flow", "leavers"):
            pair["before"][row["from_group"]] += count
        if row["kind"] in ("flow", "entrants"):
            pair["after"][row["to_group"]] += count
        if row["kind"] == "flow" and _group_rank(row["to_group"]) < _group_rank(row["from_group"]):
            pair["down"] += count
    if not pairs:
        return ["flows table has no window pairs"]
    problems = []
    ordered = list(pairs.items())
    for (key, pair), (next_key, next_pair) in zip(ordered, ordered[1:]):
        if key[1] == next_key[0] and pair["after"] != next_pair["before"]:
            problems.append(f"window {key[1]}: group counts {dict(pair['after'])} != {dict(next_pair['before'])}")
    if "cumulative" in argv:
        problems += [f"{key}: {p['down']} authors flow to a lower group" for key, p in ordered if p["down"]]
    return problems


def check_citation_age(rows, argv, expected) -> list[str]:
    citations = [int(r["citations"]) for r in rows]
    problems = []
    if citations not in expected["citation_age"]:
        problems.append(f"citations per age {citations} != raw recount {expected['citation_age'][0]}")
    running = 0.0
    for row in rows:
        papers = int(row["papers"])
        if papers != expected["papers"]:
            problems.append(f"age {row['age']}: papers {papers} != {expected['papers']}")
            break
        mean = int(row["citations"]) / papers
        running += mean
        if not _close(float(row["mean_citations"]), mean) or not _close(float(row["cumulative_mean"]), running):
            problems.append(f"age {row['age']}: means do not follow from the counts")
    return problems


def check_diversity_citations(rows, argv, expected) -> list[str]:
    """Integer keys and bands partition the same keyed papers of a cohort."""
    papers: dict[str, dict[str, dict[str, int]]] = defaultdict(lambda: defaultdict(dict))
    problems = []
    for row in rows:
        papers[row["cohort"]][row["keying"]][row["key"]] = int(row["papers"])
        if not _close(float(row["mean_citations"]), int(row["citations"]) / int(row["papers"])):
            problems.append(f"{row['cohort']} {row['key']} age {row['age']}: mean does not follow")
    if not papers:
        problems.append("diversity-citations table is empty")
    for cohort, keyings in papers.items():
        totals = {keying: sum(keys.values()) for keying, keys in keyings.items()}
        if len(set(totals.values())) != 1:
            problems.append(f"cohort {cohort}: keyings cover different papers {totals}")
    return problems


def check_citation_dist(rows, argv, expected) -> list[str]:
    sums: dict[tuple, list[float]] = defaultdict(list)
    for row in rows:
        sums[(row["cohort"], row["key"])].append(float(row["fraction"]))
    if not sums:
        return ["citation-dist table is empty"]
    return [f"{key}: histogram sums to {sum(v)}" for key, v in sums.items() if not _close(sum(v), 1.0, len(v))]


def check_share(rows, argv, expected) -> list[str]:
    cohorts = [name for name in (rows[0] if rows else {}) if name != "diversity"]
    if not cohorts:
        return ["share table has no cohorts"]
    problems = []
    for cohort in cohorts:
        total = sum(float(row[cohort]) for row in rows)
        if not _close(total, 100.0, len(rows)):
            problems.append(f"share column {cohort} sums to {total}")
    return problems


CHECKS = {
    "validate": check_validate,
    "summary": check_summary,
    "diversity-dist": check_diversity_dist,
    "groups": check_groups,
    "flows": check_flows,
    "citation-age": check_citation_age,
    "diversity-citations": check_diversity_citations,
    "citation-dist": check_citation_dist,
    "share": check_share,
}


def check_command(argv: list[str], exit_code, out_dir: Path, expected: dict) -> list[str]:
    """Every problem with one command's outputs; empty when it passed."""
    command = argv[0]
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    table, meta_path = out_dir / f"{command}.csv", out_dir / f"{command}.meta.json"
    missing = [p.name for p in (table, meta_path) if not p.is_file()]
    if missing:
        return [f"missing {', '.join(missing)}"]
    try:
        with open(meta_path, encoding="utf-8") as handle:
            meta = json.load(handle)
        input_sha = meta["input"]["sha256"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable {meta_path.name}: {exc!r}"]
    problems = []
    if meta.get("command") != command:
        problems.append(f"{meta_path.name} names command {meta.get('command')!r}")
    if input_sha != expected["corpus_sha256"]:
        problems.append(f"{meta_path.name} input sha256 {input_sha} is not the corpus's")
    try:
        problems += CHECKS[command](_read_csv(table), argv, expected)
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        problems.append(f"{table.name} does not have the expected shape: {exc!r}")
    return problems
