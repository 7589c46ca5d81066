import gc
import inspect
import tracemalloc

import pytest

from pacsdiv import (
    CITATION_KEY_SCHEME,
    SHARE_KEY_SCHEME,
    ConfigError,
    Corpus,
    DiversityGroupScheme,
    EmptyCohort,
    EmptyPeriod,
    IngestConfig,
    OverlappingWindows,
    YearRange,
    assign_group,
    band_scheme_from_spec,
    citations_by_age,
    citations_by_diversity,
    corpus_summary,
    diversity_distributions,
    diversity_share_table,
    group_fraction_table,
    group_scheme_from_spec,
    load_corpus,
    pacs_count_distributions,
    parse_year_ranges,
    transition_flows,
)
from conftest import paper
from helpers import messy_corpus, raw_author_unions, synth_corpus

W1, W2, W3 = YearRange(1990, 1995), YearRange(1995, 2000), YearRange(2000, 2005)
COHORT1, COHORT2 = YearRange(1990, 1997), YearRange(1997, 2004)
GROUPS = group_scheme_from_spec("0-3,4-9,10-27,28+")
BANDS = band_scheme_from_spec("0-2,3-5,6+")
# the CLI's defaults, which every table now takes explicitly
WINDOWED = {"cumulative": False, "include_zero_pacs": False}


def test_assign_group_defaults():
    assert assign_group(0, GROUPS) == "G1"
    assert assign_group(3, GROUPS) == "G1"
    assert assign_group(4, GROUPS) == "G2"
    assert assign_group(9, GROUPS) == "G2"
    assert assign_group(10, GROUPS) == "G3"
    assert assign_group(27, GROUPS) == "G3"
    assert assign_group(28, GROUPS) == "G4"
    assert assign_group(1000, GROUPS) == "G4"


def test_assign_band_defaults():
    assert assign_group(2, BANDS) == "low"
    assert assign_group(3, BANDS) == "medium"
    assert assign_group(5, BANDS) == "medium"
    assert assign_group(6, BANDS) == "high"
    assert assign_group(7, BANDS) == "high"


def test_assign_group_rejects_negative():
    with pytest.raises(ValueError):
        assign_group(-1, GROUPS)


def test_scheme_parsing():
    scheme = group_scheme_from_spec("0-3,4-9,10-27,28+")
    assert scheme.labels == ("G1", "G2", "G3", "G4")
    assert scheme.bounds == ((0, 3), (4, 9), (10, 27), (28, None))
    bands = band_scheme_from_spec("0-2,3-5,6+")
    assert bands.labels == ("low", "medium", "high")


def test_integer_key_scheme():
    scheme = CITATION_KEY_SCHEME
    assert scheme.labels == ("0", "1", "2", "3", "4", "5", "6", "7", "8", "8+")
    assert assign_group(8, scheme) == "8"
    assert assign_group(9, scheme) == "8+"
    assert assign_group(40, scheme) == "8+"
    assert SHARE_KEY_SCHEME.labels[-1] == "9+"
    assert CITATION_KEY_SCHEME.bounds == SHARE_KEY_SCHEME.bounds


@pytest.mark.parametrize(
    "labels, bounds",
    [
        (("a",), ((1, None),)),          # must start at 0
        (("a", "b"), ((0, 3), (5, None))),  # gap
        (("a", "b"), ((0, 3), (2, None))),  # overlap
        (("a", "b"), ((0, 3), (4, 9))),  # bounded last interval
        (("a", "a"), ((0, 3), (4, None))),  # duplicate labels
        (("a", "b", "c"), ((0, 3), (4, None))),  # label/bound count mismatch
    ],
)
def test_scheme_validation(labels, bounds):
    with pytest.raises(ConfigError):
        DiversityGroupScheme(labels, bounds)


def test_bad_interval_spec():
    with pytest.raises(ConfigError):
        group_scheme_from_spec("0-x,4+")
    with pytest.raises(ConfigError):
        group_scheme_from_spec(",")
    # a bound is ASCII digits only
    with pytest.raises(ConfigError):
        group_scheme_from_spec("0-3,4-9,10-2_7,28+")
    with pytest.raises(ConfigError):
        group_scheme_from_spec("0-\u0663,4+")


def test_group_fractions_fixture(fixture_corpus):
    table = group_fraction_table(fixture_corpus, [W1, W2, W3], GROUPS, **WINDOWED)
    assert table["1990-1995"] == {"G1": 0.5, "G2": 0.5, "G3": 0.0, "G4": 0.0}
    assert table["1995-2000"] == {"G1": 0.75, "G2": 0.0, "G3": 0.25, "G4": 0.0}
    assert table["2000-2005"] == pytest.approx(
        {"G1": 1 / 3, "G2": 1 / 3, "G3": 1 / 3, "G4": 0.0}
    )


def test_group_fractions_sum_to_one(fixture_corpus):
    table = group_fraction_table(fixture_corpus, [W1, W2, W3], GROUPS, **WINDOWED)
    for fractions in table.values():
        assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-9)


def test_group_fractions_cumulative_mode(fixture_corpus):
    table = group_fraction_table(
        fixture_corpus, [W1, W2, W3], GROUPS, cumulative=True, include_zero_pacs=False
    )
    # 1995-2000 actives with all codes since 1990: alice G1, bob G2,
    # carol G3, david G2, erin G3
    assert table["1995-2000"] == {"G1": 0.2, "G2": 0.4, "G3": 0.4, "G4": 0.0}


def test_group_fractions_cumulative_windows_in_any_order(fixture_corpus):
    # the running masks walk the windows by ascending end; the rows come
    # in the caller's order
    table = group_fraction_table(
        fixture_corpus, [W3, W1, W2], GROUPS, cumulative=True, include_zero_pacs=False
    )
    in_order = group_fraction_table(
        fixture_corpus, [W1, W2, W3], GROUPS, cumulative=True, include_zero_pacs=False
    )
    assert list(table) == ["2000-2005", "1990-1995", "1995-2000"]
    assert table == in_order


def test_group_fractions_include_zero_pacs(fixture_corpus):
    table = group_fraction_table(
        fixture_corpus, [W2], GROUPS, cumulative=False, include_zero_pacs=True
    )
    # alice's only 1995-2000 paper has no codes; the flag admits her at 0
    assert table["1995-2000"] == {"G1": 0.8, "G2": 0.0, "G3": 0.2, "G4": 0.0}


def test_empty_window_omitted(fixture_corpus):
    table = group_fraction_table(fixture_corpus, [YearRange(1950, 1960), W1], GROUPS, **WINDOWED)
    assert list(table) == ["1990-1995"]


def test_flows_fixture(fixture_corpus):
    first, second = transition_flows(fixture_corpus, [W1, W2, W3], GROUPS, **WINDOWED)

    assert first.flow["G1"]["G1"] == 1  # bob
    assert first.flow["G2"]["G1"] == 2  # carol, david
    assert first.leavers["G1"] == 1  # alice's window has no coded papers
    assert first.entrants["G3"] == 1  # erin
    assert sum(first.entrants.values()) == 1
    assert sum(first.leavers.values()) == 1

    assert second.flow["G1"]["G1"] == 1  # david
    assert second.leavers["G1"] == 2  # bob, carol
    assert second.leavers["G3"] == 1  # erin
    assert second.entrants["G2"] == 1  # alice
    assert second.entrants["G3"] == 1  # frank


def test_flow_conservation(fixture_corpus):
    windows = [W1, W2, W3]
    matrices = transition_flows(fixture_corpus, windows, GROUPS, **WINDOWED)
    counts = {}
    for matrix in matrices:
        for label in GROUPS.labels:
            row = sum(matrix.flow[label].values()) + matrix.leavers[label]
            col = (
                sum(matrix.flow[fl][label] for fl in GROUPS.labels)
                + matrix.entrants[label]
            )
            counts.setdefault(matrix.from_window.label, {})[label] = row
            counts.setdefault(matrix.to_window.label, {})[label] = col
    # row/column sums must reproduce each window's group populations
    assert counts["1990-1995"] == {"G1": 2, "G2": 2, "G3": 0, "G4": 0}
    assert counts["1995-2000"] == {"G1": 3, "G2": 0, "G3": 1, "G4": 0}
    assert counts["2000-2005"] == {"G1": 1, "G2": 1, "G3": 1, "G4": 0}


@pytest.mark.parametrize(
    "table",
    [
        group_fraction_table,
        transition_flows,
        citations_by_diversity,
        diversity_share_table,
        pacs_count_distributions,
        diversity_distributions,
        Corpus.author_unions,
    ],
)
def test_table_flags_are_required_keywords(table):
    # a flag passed by position, such as the truthy string "windowed",
    # must fail instead of setting the flag
    flags = [
        parameter
        for parameter in inspect.signature(table).parameters.values()
        if parameter.name in ("cumulative", "include_zero_pacs")
    ]
    assert flags
    assert all(p.kind is p.KEYWORD_ONLY and p.default is p.empty for p in flags)


def _code_texts(unions):
    return [(name, {code.text for code in codes}) for name, codes in unions.items()]


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_author_unions_match_raw_recount(tmp_path, seed):
    # few records per year, so single-year windows miss some of the six names
    path = messy_corpus(tmp_path / "messy.jsonl", 60, seed)
    corpus = load_corpus(path, IngestConfig(strict=False))
    for window in [YearRange(y, y + 1) for y in range(1990, 2002)] + [YearRange(1990, 2002)]:
        years = (window.start, window.end)
        windowed = list(raw_author_unions(path, years).items())
        assert _code_texts(dict(corpus.author_unions(window, cumulative=False))) == windowed
        cumulative = list(raw_author_unions(path, years, cumulative=True).items())
        assert _code_texts(dict(corpus.author_unions(window, cumulative=True))) == cumulative


def _traced(build):
    """(current, peak) bytes traced while ``build()`` runs, its result still alive."""
    gc.collect()
    tracemalloc.start()
    try:
        kept = build()  # alive while current is read, so it counts
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def heavy_corpus(tmp_path_factory):
    # a few prolific authors own most codes, so holding every author's
    # union at once costs far more than one union and the shared tuples
    path = tmp_path_factory.mktemp("heavy") / "heavy.jsonl"
    return load_corpus(synth_corpus(path, 4000, seed=5, heavy_tailed=True))


_MEASURED_AT_A_TIME = {
    "corpus_summary": corpus_summary,
    "diversity_distributions": lambda corpus, span: diversity_distributions(corpus, span, include_zero_pacs=False),
    "cumulative_transition_flows": lambda corpus, span: transition_flows(
        corpus, parse_year_ranges("1985-90,1990-95,1995-00,2000-05,2005-10"), GROUPS,
        cumulative=True, include_zero_pacs=False,
    ),
}


@pytest.mark.parametrize("table", sorted(_MEASURED_AT_A_TIME))
def test_tables_hold_one_author_union_at_a_time(heavy_corpus, table):
    span = heavy_corpus.year_span()
    all_unions, _ = _traced(lambda: dict(heavy_corpus.author_unions(span, cumulative=False)))
    _, peak = _traced(lambda: _MEASURED_AT_A_TIME[table](heavy_corpus, span))
    assert peak < all_unions / 2, (peak, all_unions)


def test_flows_need_two_windows(fixture_corpus):
    with pytest.raises(ConfigError):
        transition_flows(fixture_corpus, [W1], GROUPS, **WINDOWED)


def test_flows_reject_overlapping_windows(fixture_corpus):
    with pytest.raises(OverlappingWindows):
        transition_flows(fixture_corpus, [W1, YearRange(1993, 1998)], GROUPS, **WINDOWED)
    with pytest.raises(OverlappingWindows):
        transition_flows(fixture_corpus, [W2, W1], GROUPS, **WINDOWED)


def test_citations_by_age_two_citation_example(corpus_file):
    path = corpus_file(
        [
            paper("p1", 1990, ["a"], ["04.25.dg"]),
            paper("p2", 1991, ["b"], ["04.30.-w"], refs=["p1"]),
            paper("p3", 1993, ["c"], ["04.30.-w"], refs=["p1"]),
        ]
    )
    entry = citations_by_age(load_corpus(path), YearRange(1990, 1991), horizon=3)
    assert entry.paper_count == 1
    assert entry.citations_per_age == (0, 1, 0, 1)
    assert entry.mean_per_age == (0.0, 1.0, 0.0, 1.0)
    assert entry.cumulative_mean == (0.0, 1.0, 1.0, 2.0)
    assert entry.citation_distribution == (0.0, 0.0, 1.0)


def test_citations_by_age_fixture(fixture_corpus):
    entry = citations_by_age(fixture_corpus, YearRange(1990, 2004), horizon=5)
    assert entry.paper_count == 12
    assert entry.citations_per_age == (0, 5, 3, 4, 3, 1)
    assert entry.cumulative_mean[5] == pytest.approx(16 / 12)


def test_citations_by_age_empty_cohort(fixture_corpus):
    with pytest.raises(EmptyPeriod, match="no papers in 1950-1960"):
        citations_by_age(fixture_corpus, YearRange(1950, 1960), horizon=5)


def test_citations_by_age_rejects_bad_horizon(fixture_corpus):
    with pytest.raises(ConfigError):
        citations_by_age(fixture_corpus, COHORT1, horizon=0)


def test_citations_by_diversity_fixture_integer(fixture_corpus):
    series = citations_by_diversity(
        fixture_corpus, COHORT1, 5, CITATION_KEY_SCHEME, include_zero_pacs=False
    )
    assert list(series) == ["0", "1", "2", "3", "6"]
    key1 = series["1"]
    assert key1.paper_count == 2
    assert key1.citations_per_age == (0, 2, 0, 1, 0, 0)
    assert key1.cumulative_mean == (0.0, 1.0, 1.0, 1.5, 1.5, 1.5)

    series2 = citations_by_diversity(
        fixture_corpus, COHORT2, 5, CITATION_KEY_SCHEME, include_zero_pacs=False
    )
    assert list(series2) == ["0", "3", "6", "7"]
    key6 = series2["6"]
    assert key6.paper_count == 2
    assert key6.cumulative_mean == (0.0, 0.5, 0.5, 0.5, 1.0, 1.0)


def test_citations_by_diversity_fixture_bands(fixture_corpus):
    series = citations_by_diversity(
        fixture_corpus, COHORT2, horizon=5, keying=BANDS, include_zero_pacs=False
    )
    high = series["high"]
    assert high.paper_count == 3
    assert high.cumulative_mean == pytest.approx((0.0, 2 / 3, 2 / 3, 2 / 3, 1.0, 1.0))


def test_cumulative_mean_never_decreases(fixture_corpus):
    for cohort in (COHORT1, COHORT2):
        series = citations_by_diversity(
            fixture_corpus, cohort, 8, CITATION_KEY_SCHEME, include_zero_pacs=False
        )
        for entry in series.values():
            assert list(entry.cumulative_mean) == sorted(entry.cumulative_mean)


def test_zero_pacs_papers_excluded_from_keys(fixture_corpus):
    # P06 has no codes; with the flag it shows up under key "0"
    default = citations_by_diversity(
        fixture_corpus, COHORT1, 5, CITATION_KEY_SCHEME, include_zero_pacs=False
    )
    flagged = citations_by_diversity(
        fixture_corpus, COHORT1, 5, CITATION_KEY_SCHEME, include_zero_pacs=True
    )
    assert default["0"].paper_count == 1
    assert flagged["0"].paper_count == 2


def test_share_table_fixture(fixture_corpus):
    table = diversity_share_table(fixture_corpus, [COHORT1, COHORT2], include_zero_pacs=False)
    c1 = table["1990-1997"]
    assert c1["0"] == pytest.approx(100 / 6)
    assert c1["1"] == pytest.approx(200 / 6)
    assert c1["9+"] == 0.0
    c2 = table["1997-2004"]
    assert c2["6"] == pytest.approx(40.0)
    assert sum(c1.values()) == pytest.approx(100.0, abs=0.1)
    assert sum(c2.values()) == pytest.approx(100.0, abs=0.1)


def test_share_table_hand_example(corpus_file):
    # diversities 0, 0, 3 and 9: the 9 pools into "9+"
    path = corpus_file(
        [
            paper("p1", 1990, ["a"], ["04.25.dg"]),
            paper("p2", 1990, ["b"], ["05.45.-a"]),
            paper("p3", 1990, ["c"], ["04.25.dg", "07.05.Fb", "04.30.-w"]),
            paper("p4", 1990, ["d"], ["01.10.Fv", "11.15.Ha", "21.10.-k", "31.15.xv"]),
        ]
    )
    table = diversity_share_table(load_corpus(path), [YearRange(1990, 1991)], include_zero_pacs=False)
    shares = table["1990-1991"]
    assert shares["0"] == 50.0
    assert shares["3"] == 25.0
    assert shares["9+"] == 25.0
    assert shares["1"] == 0.0


def test_share_table_rejects_empty_cohort(fixture_corpus):
    with pytest.raises(EmptyCohort, match="no diversity-keyed papers in 1950-1960"):
        diversity_share_table(
            fixture_corpus, [COHORT1, YearRange(1950, 1960)], include_zero_pacs=False
        )


@pytest.mark.parametrize("table", [citations_by_diversity])
def test_citation_tables_reject_empty_cohort(table, fixture_corpus):
    with pytest.raises(EmptyCohort, match="no diversity-keyed papers in 1950-1960"):
        table(fixture_corpus, YearRange(1950, 1960), 5, CITATION_KEY_SCHEME, include_zero_pacs=False)


def test_citation_distribution_fixture(fixture_corpus):
    series = citations_by_diversity(
        fixture_corpus, COHORT1, 5, CITATION_KEY_SCHEME, include_zero_pacs=False
    )
    assert series["0"].citation_distribution == (0.0, 0.0, 0.0, 1.0)
    assert series["1"].citation_distribution == (0.0, 0.5, 0.5)
    series2 = citations_by_diversity(
        fixture_corpus, COHORT2, 5, CITATION_KEY_SCHEME, include_zero_pacs=False
    )
    assert series2["0"].citation_distribution == (1.0,)
    for entry in list(series.values()) + list(series2.values()):
        assert sum(entry.citation_distribution) == pytest.approx(1.0)


def test_unbounded_horizon_totals_match_pair_count(fixture_corpus):
    # with a horizon beyond the corpus span, every non-negative-age pair lands in some bucket
    span = fixture_corpus.year_span()
    horizon = span.end - span.start + 1
    entry = citations_by_age(fixture_corpus, span, horizon=horizon)
    total = sum(entry.citations_per_age)
    pairs = sum(len(v) for v in fixture_corpus.citations_in.values())
    assert total == pairs - fixture_corpus.ingest_stats.negative_age_citations_skipped
