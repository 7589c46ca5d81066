"""Acceptance gate: one test per criterion, each printing one PASS line.

Run ``pytest tests/test_acceptance.py -v -s`` to see the line per
criterion with measured runtimes; timed criteria assert their bound.
The real-dataset criterion is skipped unless PACSDIV_APS_DATA points at
the converted APS metadata file.
"""

import contextlib
import hashlib
import io
import itertools
import os
import random
import time
from pathlib import Path

import pytest

from pacsdiv import (
    CITATION_KEY_SCHEME,
    IngestConfig,
    YearRange,
    assign_group,
    citations_by_age,
    citations_by_diversity,
    corpus_summary,
    diversity_share_table,
    group_fraction_table,
    group_scheme_from_spec,
    load_corpus,
    papers_with_pacs_fraction_by_year,
    parse_pacs,
    parse_year_ranges,
    transition_flows,
    weitzman_diversity,
)
from pacsdiv.cli import main
from conftest import ALL_COMMANDS, GOLDEN_ARGS, GOLDEN_DIR
from helpers import (
    build_tree_lca,
    distance,
    lca_level,
    random_code,
    random_code_set,
    synth_corpus,
    weitzman_permutation_oracle,
    weitzman_recursive_oracle,
)

REAL_DATA_ENV = "PACSDIV_APS_DATA"
GROUPS = group_scheme_from_spec("0-3,4-9,10-27,28+")
# the CLI's default windows and cohorts, which the paper's tables use
REFERENCE_WINDOWS = "1985-90,1990-95,1995-00,2000-05,2005-10"
REFERENCE_COHORTS = "1985-1994,1994-2003"

# sha256 of each synthetic corpus the criteria run on, by (n_records, seed):
# a faster generator must write the same bytes
_SYNTH_SHA256 = {
    (2000, 6): "79247c15246c49f2a0a62aa0ec3ec43a5a9f1d2db8e942574c0e641afa890d9d",
    (100_000, 13): "768b57672b079c40e435e69a33b9827912dc024d8c5851e19ea870d76728b6cc",
    (400_000, 17): "4a366b6ff501fe704cd27f29bdffe0778a478d317d399ffabf66de10c2e64248",
}


def _pinned_synth(path, n_records, seed):
    """``synth_corpus(path, n_records, seed)``, checked against its pinned sha256."""
    digest = hashlib.sha256()
    with open(synth_corpus(path, n_records, seed=seed), "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    assert digest.hexdigest() == _SYNTH_SHA256[n_records, seed]
    return path


def _report(name, detail):
    print(f"PASS {name}: {detail}")


def test_criterion_worked_example():
    codes = [parse_pacs(t) for t in ("04.25.dg", "07.05.Fb", "04.30.-w")]
    assert weitzman_diversity(codes) == 3  # warm-up call
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        result = weitzman_diversity(codes)
        best = min(best, time.perf_counter() - t0)
        assert result == 3
    assert best < 0.001
    _report("worked example", f"diversity 3 in {best * 1e6:.1f} us")


def test_criterion_order_invariance():
    # the permutation oracle enumerates every insertion order and raises
    # if any order disagrees; equality pins the canonical greedy to them
    rng = random.Random(20407)
    sets = [random_code_set(rng, rng.randint(2, 7)) for _ in range(200)]
    t0 = time.perf_counter()
    for codes in sets:
        assert weitzman_permutation_oracle(codes) == weitzman_diversity(codes)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report("order invariance", f"200 sets, sizes 2-7, all permutations in {elapsed:.2f} s")


def test_criterion_oracle_equivalence():
    rng = random.Random(30317)
    sets = [random_code_set(rng, rng.randint(2, 6)) for _ in range(200)]
    t0 = time.perf_counter()
    for codes in sets:
        greedy = weitzman_diversity(codes)
        assert greedy == weitzman_recursive_oracle(codes)
        assert greedy == weitzman_permutation_oracle(codes)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report("oracle equivalence", f"200 sets, three routes each, in {elapsed:.2f} s")


def test_criterion_ultrametric():
    rng = random.Random(40429)
    t0 = time.perf_counter()
    for _ in range(10_000):
        u, v, w = random_code(rng), random_code(rng), random_code(rng)
        assert distance(u, w) <= max(distance(u, v), distance(v, w))
    sample = sorted(random_code_set(rng, 200))
    tree_depth = build_tree_lca(sample)
    pairs = 0
    for u, v in itertools.combinations(sample, 2):
        assert lca_level(u, v) == tree_depth(u, v)
        assert distance(u, v) == 3 - tree_depth(u, v)
        pairs += 1
    elapsed = time.perf_counter() - t0
    _report("ultrametric", f"10000 triples + {pairs} prefix-vs-tree pairs in {elapsed:.2f} s")


def test_criterion_golden_fixture(fixture_path, tmp_path):
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        for command in ALL_COMMANDS:
            code = main(
                [command, "--input", str(fixture_path), "--out-dir", str(tmp_path), *GOLDEN_ARGS]
            )
            assert code == 0
    elapsed = time.perf_counter() - t0
    for command in ALL_COMMANDS:
        produced = (tmp_path / f"{command}.csv").read_bytes()
        expected = (GOLDEN_DIR / f"{command}.csv").read_bytes()
        assert produced == expected, f"{command} output deviates from golden"
    assert elapsed < 1.0
    _report("golden fixture", f"{len(ALL_COMMANDS)} commands byte-identical in {elapsed:.2f} s")


def _window_group_counts(corpus, window, scheme):
    # independent recount: scan, union, classify; no cohorts-module calls
    unions = {}
    for record in corpus.papers.values():
        if record.pub_year in window:
            for author in record.authors:
                unions.setdefault(author, set()).update(record.pacs)
    counts = {label: 0 for label in scheme.labels}
    for union in unions.values():
        if union:
            counts[assign_group(weitzman_diversity(union), scheme)] += 1
    return counts


def _distribution_identities(entry):
    """The two identities of a citation-count distribution; returns how many held."""
    distribution = entry.citation_distribution
    assert abs(sum(distribution) - 1.0) <= 1e-9
    # papers times the mean count gives back every citation counted per age
    mean = sum(c * fraction for c, fraction in enumerate(distribution))
    assert round(entry.paper_count * mean) == sum(entry.citations_per_age)
    return 2


def test_criterion_conservation(fixture_corpus, tmp_path):
    synth = load_corpus(_pinned_synth(tmp_path / "synth2k.jsonl", 2000, 6))
    cases = [
        (
            fixture_corpus,
            parse_year_ranges("1990-95,1995-00,2000-05"),
            parse_year_ranges("1990-1997,1997-2004"),
        ),
        (
            synth,
            parse_year_ranges("1985-90,1990-95,1995-00,2000-05,2005-10"),
            parse_year_ranges("1985-1994,1994-2003"),
        ),
    ]
    checks = 0
    for corpus, windows, cohorts in cases:
        flows = transition_flows(corpus, windows, GROUPS, cumulative=False, include_zero_pacs=False)
        for matrix in flows:
            from_counts = _window_group_counts(corpus, matrix.from_window, GROUPS)
            to_counts = _window_group_counts(corpus, matrix.to_window, GROUPS)
            for label in GROUPS.labels:
                row = sum(matrix.flow[label].values()) + matrix.leavers[label]
                col = sum(matrix.flow[fl][label] for fl in GROUPS.labels) + matrix.entrants[label]
                assert row == from_counts[label]
                assert col == to_counts[label]
                checks += 2
        table = group_fraction_table(corpus, windows, GROUPS, cumulative=False, include_zero_pacs=False)
        for fractions in table.values():
            assert abs(sum(fractions.values()) - 1.0) <= 1e-9
            checks += 1
        for column in diversity_share_table(corpus, cohorts, include_zero_pacs=False).values():
            assert abs(sum(column.values()) - 100.0) <= 0.1
            checks += 1
        for cohort in cohorts:
            per_key = citations_by_diversity(corpus, cohort, 10, CITATION_KEY_SCHEME, include_zero_pacs=False)
            for entry in per_key.values():
                checks += _distribution_identities(entry)
        span = corpus.year_span()
        entry = citations_by_age(corpus, span, horizon=span.end - span.start + 1)
        total = sum(entry.citations_per_age)
        pairs = sum(len(v) for v in corpus.citations_in.values())
        assert total == pairs - corpus.ingest_stats.negative_age_citations_skipped
        checks += 1 + _distribution_identities(entry)
    _report("conservation", f"{checks} exact identities over fixture + 2000-record corpus")


def _cumulative_group_counts(corpus, window, scheme):
    # independent recount: an author on a window paper is grouped by the
    # codes of all their papers published before the window ends
    active = {author for record in corpus.papers.values() if record.pub_year in window for author in record.authors}
    unions = {author: set() for author in active}
    for record in corpus.papers.values():
        if record.pub_year < window.end:
            for author in active.intersection(record.authors):
                unions[author].update(record.pacs)
    counts = {label: 0 for label in scheme.labels}
    for union in unions.values():
        if union:
            counts[assign_group(weitzman_diversity(union), scheme)] += 1
    return counts


def _moves(matrix):
    """(downward, upward) author counts: flows toward a lower or a higher group."""
    rank = {label: i for i, label in enumerate(GROUPS.labels)}
    down = up = 0
    for fl, row in matrix.flow.items():
        for tl, count in row.items():
            down += count if rank[tl] < rank[fl] else 0
            up += count if rank[tl] > rank[fl] else 0
    return down, up


def test_cumulative_flows_never_move_down(fixture_corpus, tmp_path):
    # cumulative unions only grow, so no author can move to a lower group;
    # windowed mode on the same corpora does, so the check can fail
    synth = load_corpus(_pinned_synth(tmp_path / "synth2k.jsonl", 2000, 6))
    windows = parse_year_ranges(REFERENCE_WINDOWS)
    for corpus in (fixture_corpus, synth):
        cumulative = transition_flows(corpus, windows, GROUPS, cumulative=True, include_zero_pacs=False)
        windowed = transition_flows(corpus, windows, GROUPS, cumulative=False, include_zero_pacs=False)
        assert sum(_moves(m)[0] for m in cumulative) == 0
        assert sum(_moves(m)[1] for m in cumulative) > 0
        assert sum(_moves(m)[0] for m in windowed) > 0
        for matrix in cumulative:
            from_counts = _cumulative_group_counts(corpus, matrix.from_window, GROUPS)
            to_counts = _cumulative_group_counts(corpus, matrix.to_window, GROUPS)
            for label in GROUPS.labels:
                row = sum(matrix.flow[label].values()) + matrix.leavers[label]
                col = sum(matrix.flow[fl][label] for fl in GROUPS.labels) + matrix.entrants[label]
                assert (row, col) == (from_counts[label], to_counts[label])


def test_criterion_determinism(tmp_path):
    path = _pinned_synth(tmp_path / "synth100k.jsonl", 100_000, 13)
    tables = []
    metas = []
    for name in ("a", "b", "c"):
        out = tmp_path / name
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["diversity-citations", "--input", str(path), "--out-dir", str(out)])
        assert code == 0
        tables.append((out / "diversity-citations.csv").read_bytes())
        metas.append((out / "diversity-citations.meta.json").read_bytes())
    assert tables[0] == tables[1] == tables[2]
    assert metas[0] == metas[1] == metas[2]
    _report("determinism", "100k records byte-identical over 3 runs")


def test_criterion_throughput(tmp_path):
    path = _pinned_synth(tmp_path / "synth400k.jsonl", 400_000, 17)
    t0 = time.perf_counter()
    corpus = load_corpus(path)
    diversities = [weitzman_diversity(record.pacs) for record in corpus.papers.values()]
    elapsed = time.perf_counter() - t0
    assert len(diversities) == 400_000
    assert elapsed < 60.0
    _report("throughput", f"400k records ingested + diversities in {elapsed:.1f} s")


def _reference_values(corpus):
    """The values the real-dataset criterion checks, under the CLI's default settings:
    the full-span summary, group fractions per window, shares per cohort and coverage."""
    stats = corpus_summary(corpus, corpus.year_span())
    table = group_fraction_table(
        corpus, parse_year_ranges(REFERENCE_WINDOWS), GROUPS, cumulative=False, include_zero_pacs=False
    )
    shares = diversity_share_table(corpus, parse_year_ranges(REFERENCE_COHORTS), include_zero_pacs=False)
    return stats, table, shares, papers_with_pacs_fraction_by_year(corpus)


def _csv_rows(path):
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]


def test_reference_values_match_cli_tables(tmp_path):
    # keeps the gated real-dataset criterion runnable: its library calls
    # must give what the CLI reports on the pinned 2000-record corpus
    path = _pinned_synth(tmp_path / "synth2k.jsonl", 2000, 6)
    stats, table, shares, coverage = _reference_values(load_corpus(path))
    with contextlib.redirect_stdout(io.StringIO()):
        for command in ("summary", "groups", "share", "pacs-coverage"):
            assert main([command, "--input", str(path), "--out-dir", str(tmp_path)]) == 0
    summary = dict(_csv_rows(tmp_path / "summary.csv"))
    # corpus_summary's items are the table's rows, in order
    assert list(summary) == list(stats)
    assert {name: float(value) for name, value in summary.items()} == pytest.approx(stats, abs=5e-7)
    groups = {row[0]: [float(v) for v in row[1:]] for row in _csv_rows(tmp_path / "groups.csv")}
    assert list(groups) == list(table) == [w.label for w in parse_year_ranges(REFERENCE_WINDOWS)]
    for window, fractions in table.items():
        assert groups[window] == pytest.approx([fractions[label] for label in GROUPS.labels], abs=5e-7)
    share_rows = _csv_rows(tmp_path / "share.csv")
    assert list(shares) == [c.label for c in parse_year_ranges(REFERENCE_COHORTS)]
    for i, cohort in enumerate(shares):
        assert {row[0]: float(row[i + 1]) for row in share_rows} == pytest.approx(shares[cohort], abs=5e-7)
    assert {int(y): float(f) for y, f in _csv_rows(tmp_path / "pacs-coverage.csv")} == pytest.approx(
        coverage, abs=5e-7
    )


def test_criterion_real_dataset():
    """Reference values for the complete APS corpus, when available."""
    path = os.environ.get(REAL_DATA_ENV)
    if not path:
        pytest.skip(f"real APS dataset not provided; set {REAL_DATA_ENV} to run")
    stats, table, shares, coverage = _reference_values(load_corpus(Path(path), IngestConfig(strict=False)))

    assert abs(stats["paper_diversity_mean"] - 3.59) <= 0.05
    assert abs(stats["author_diversity_mean"] - 13.16) <= 0.05
    assert abs(stats["citations_per_paper"] - 10.22) <= 0.05

    expected_groups = {
        "1985-1990": (0.30, 0.37, 0.29, 0.03),
        "1990-1995": (0.27, 0.39, 0.29, 0.05),
        "1995-2000": (0.23, 0.38, 0.32, 0.06),
        "2000-2005": (0.19, 0.37, 0.34, 0.09),
        "2005-2010": (0.16, 0.36, 0.35, 0.13),
    }
    for window, expected in expected_groups.items():
        for label, value in zip(("G1", "G2", "G3", "G4"), expected):
            assert abs(table[window][label] - value) <= 0.01

    expected_share = {
        "1985-1994": {"0": 13.9, "1": 10.2, "2": 15.5, "3": 19.8, "4": 14.6,
                      "5": 12.5, "6": 8.0, "7": 3.3, "8": 1.7, "9+": 0.5},
        "1994-2003": {"0": 9.7, "1": 9.0, "2": 13.6, "3": 19.0, "4": 16.3,
                      "5": 14.5, "6": 9.8, "7": 4.7, "8": 2.5, "9+": 0.9},
    }
    for cohort, expected in expected_share.items():
        for key, value in expected.items():
            assert abs(shares[cohort][key] - value) <= 0.5

    for year, fraction in coverage.items():
        if year >= 1985:
            assert fraction > 0.9
    _report("real dataset", "summary, group, share and coverage values within tolerance")
