"""Acceptance gate: one test per criterion, each printing one PASS line.

Run ``pytest tests/test_acceptance.py -v -s`` to see the line per
criterion with measured runtimes; timed criteria assert their bound.
The real-dataset criterion is skipped unless PACSDIV_APS_DATA points at
the converted APS metadata file.
"""

import contextlib
import io
import itertools
import os
import random
import time
from pathlib import Path

import pytest

from pacsdiv import (
    DEFAULT_GROUP_SCHEME,
    IngestConfig,
    YearRange,
    assign_group,
    citations_by_age,
    compute_diversities,
    corpus_summary,
    diversity_share_table,
    group_fraction_table,
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
    for record in corpus.papers_in(window):
        for author in record.authors:
            unions.setdefault(author, set()).update(record.pacs)
    counts = {label: 0 for label in scheme.labels}
    for union in unions.values():
        if union:
            counts[assign_group(weitzman_diversity(union), scheme)] += 1
    return counts


def test_criterion_conservation(fixture_corpus, tmp_path):
    synth = load_corpus(synth_corpus(tmp_path / "synth2k.jsonl", 2000, seed=6))
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
        scheme = DEFAULT_GROUP_SCHEME
        for matrix in transition_flows(corpus, windows):
            from_counts = _window_group_counts(corpus, matrix.from_window, scheme)
            to_counts = _window_group_counts(corpus, matrix.to_window, scheme)
            for label in scheme.labels:
                row = sum(matrix.flow[label].values()) + matrix.leavers[label]
                col = sum(matrix.flow[fl][label] for fl in scheme.labels) + matrix.entrants[label]
                assert row == from_counts[label]
                assert col == to_counts[label]
                checks += 2
        for fractions in group_fraction_table(corpus, windows).values():
            assert abs(sum(fractions.values()) - 1.0) <= 1e-9
            checks += 1
        for column in diversity_share_table(corpus, cohorts).values():
            assert abs(sum(column.values()) - 100.0) <= 0.1
            checks += 1
        span = corpus.year_span()
        series = citations_by_age(corpus, span, horizon=span.end - span.start + 1)
        total = sum(series.per_key["all"].citations_per_age)
        pairs = sum(len(v) for v in corpus.citations_in.values())
        assert total == pairs - corpus.ingest_stats.negative_age_citations_skipped
        checks += 1
    _report("conservation", f"{checks} exact identities over fixture + 2000-record corpus")


def test_criterion_determinism(tmp_path):
    path = synth_corpus(tmp_path / "synth100k.jsonl", 100_000, seed=13)
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
    path = synth_corpus(tmp_path / "synth400k.jsonl", 400_000, seed=17)
    t0 = time.perf_counter()
    corpus = load_corpus(path)
    diversities = compute_diversities([record.pacs for record in corpus.papers.values()])
    elapsed = time.perf_counter() - t0
    assert len(diversities) == 400_000
    assert elapsed < 60.0
    _report("throughput", f"400k records ingested + diversities in {elapsed:.1f} s")


def test_criterion_real_dataset():
    """Reference values for the complete APS corpus, when available."""
    path = os.environ.get(REAL_DATA_ENV)
    if not path:
        pytest.skip(f"real APS dataset not provided; set {REAL_DATA_ENV} to run")
    corpus = load_corpus(Path(path), IngestConfig(strict=False))

    stats = corpus_summary(corpus, corpus.year_span())
    assert abs(stats.paper_diversity_mean - 3.59) <= 0.05
    assert abs(stats.author_diversity_mean - 13.16) <= 0.05
    assert abs(stats.citations_per_paper - 10.22) <= 0.05

    expected_groups = {
        "1985-1990": (0.30, 0.37, 0.29, 0.03),
        "1990-1995": (0.27, 0.39, 0.29, 0.05),
        "1995-2000": (0.23, 0.38, 0.32, 0.06),
        "2000-2005": (0.19, 0.37, 0.34, 0.09),
        "2005-2010": (0.16, 0.36, 0.35, 0.13),
    }
    table = group_fraction_table(
        corpus, parse_year_ranges("1985-90,1990-95,1995-00,2000-05,2005-10")
    )
    for window, expected in expected_groups.items():
        for label, value in zip(("G1", "G2", "G3", "G4"), expected):
            assert abs(table[window][label] - value) <= 0.01

    expected_share = {
        "1985-1994": {"0": 13.9, "1": 10.2, "2": 15.5, "3": 19.8, "4": 14.6,
                      "5": 12.5, "6": 8.0, "7": 3.3, "8": 1.7, "9+": 0.5},
        "1994-2003": {"0": 9.7, "1": 9.0, "2": 13.6, "3": 19.0, "4": 16.3,
                      "5": 14.5, "6": 9.8, "7": 4.7, "8": 2.5, "9+": 0.9},
    }
    shares = diversity_share_table(corpus, parse_year_ranges("1985-1994,1994-2003"))
    for cohort, expected in expected_share.items():
        for key, value in expected.items():
            assert abs(shares[cohort][key] - value) <= 0.5

    coverage = papers_with_pacs_fraction_by_year(corpus)
    for year, fraction in coverage.items():
        if year >= 1985:
            assert fraction > 0.9
    _report("real dataset", "summary, group, share and coverage values within tolerance")
