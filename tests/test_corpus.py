import gc

import pytest

from pacsdiv import (
    DuplicateDoi,
    EmptyPeriod,
    FormatError,
    IngestConfig,
    IoFailure,
    YearRange,
    corpus_summary,
    load_corpus,
    normalize_author,
    papers_with_pacs_fraction_by_year,
)
from conftest import paper
from helpers import messy_corpus, raw_citation_ages, raw_ingest_recount


def test_normalize_author():
    assert normalize_author("Alice  ADAMS") == "alice adams"
    assert normalize_author(" bob\tbrown \n") == "bob brown"
    assert normalize_author("alice adams") == "alice adams"


def test_normalize_preserves_diacritics():
    assert normalize_author("David Müller") == "david müller"
    assert normalize_author("David Müller") != normalize_author("David Muller")


def test_fixture_counts(fixture_corpus):
    assert len(fixture_corpus.papers) == 12
    assert len(fixture_corpus.papers_by_author) == 6
    stats = fixture_corpus.ingest_stats
    assert stats.records_accepted == 12
    assert stats.lines_rejected == 0
    assert stats.malformed_pacs_dropped == 1
    assert stats.dangling_refs == 1
    assert stats.negative_age_citations_skipped == 0


def test_fixture_merges_author_spellings(fixture_corpus):
    by_author = fixture_corpus.papers_by_author
    assert set(by_author) == {
        "alice adams", "bob brown", "carol chen", "david müller", "erin evans", "frank fox",
    }
    assert by_author["alice adams"] == ("10.1103/P01", "10.1103/P02", "10.1103/P06", "10.1103/P11")


def test_codes_truncated_and_deduplicated(fixture_corpus):
    p11 = fixture_corpus.papers["10.1103/P11"]
    assert {c.text for c in p11.pacs} == {"04.25", "04.30", "07.05", "11.15"}
    p06 = fixture_corpus.papers["10.1103/P06"]
    assert p06.pacs == frozenset()


def test_citations_in(fixture_corpus):
    ages = {
        doi: sorted(year - fixture_corpus.papers[doi].pub_year for _, year in pairs)
        for doi, pairs in fixture_corpus.citations_in.items()
    }
    assert ages["10.1103/P01"] == [1, 2, 3, 13]
    assert ages["10.1103/P10"] == [1]
    assert "10.1103/P12" not in ages
    assert "10.1103/PX99" not in fixture_corpus.citations_in


def test_citation_conservation_against_raw_scan(fixture_path, fixture_corpus):
    raw = raw_citation_ages(fixture_path)
    lib = {
        doi: sorted(year - fixture_corpus.papers[doi].pub_year for _, year in pairs)
        for doi, pairs in fixture_corpus.citations_in.items()
    }
    assert lib == raw
    assert sum(len(v) for v in lib.values()) == 19


def test_duplicate_doi_always_fatal(corpus_file):
    path = corpus_file([paper("a", 1990, ["x"], []), paper("a", 1991, ["y"], [])])
    with pytest.raises(DuplicateDoi):
        load_corpus(path)
    with pytest.raises(DuplicateDoi):
        load_corpus(path, IngestConfig(strict=False))


def test_strict_format_error_carries_lineno(corpus_file, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"doi": "a", "title": "t", "authors": ["x"], "date": "1990-01-01", "pacs": [], "refs": []}\nnot json\n')
    with pytest.raises(FormatError) as err:
        load_corpus(path)
    assert err.value.lineno == 2


@pytest.mark.parametrize(
    "mutation, reason_part",
    [
        ({"authors": "x"}, "authors"),
        ({"date": "1990-13-45"}, "date"),
        ({"pacs": "04.25"}, "pacs"),
        ({"refs": None}, "refs"),
        ({"doi": 7}, "doi"),
        # shapes date.fromisoformat takes on Python 3.11+ but not 3.10
        ({"date": "19900101"}, "date"),
        ({"date": "1990-W01-1"}, "date"),
        ({"date": "1990W011"}, "date"),
        # non-string items, hashable or not, anywhere in a list field
        ({"authors": [["x"]]}, "authors"),
        ({"authors": ["x", None]}, "authors"),
        ({"pacs": [{"code": "04.25"}]}, "pacs"),
        ({"pacs": ["04.25.dg", 4.25]}, "pacs"),
        ({"refs": [True]}, "refs"),
        ({"refs": [["b"]]}, "refs"),
    ],
)
def test_strict_rejects_bad_fields(corpus_file, mutation, reason_part):
    record = paper("a", 1990, ["x"], ["04.25.dg"])
    record.update(mutation)
    with pytest.raises(FormatError) as err:
        load_corpus(corpus_file([record]))
    assert reason_part in err.value.reason


def test_bad_field_rejects_line_without_counting_its_codes(corpus_file):
    bad = paper("b", 1991, ["y"], ["junk", "07.05.Fb"], refs=["a"], date="1991-02-30")
    corpus = load_corpus(
        corpus_file([paper("a", 1990, ["x"], ["04.25.dg"]), bad]),
        IngestConfig(strict=False, known_codes=frozenset(["04.25"])),
    )
    stats = corpus.ingest_stats
    assert stats.rejected_lines == ((2, "bad date '1991-02-30'"),)
    assert stats.malformed_pacs_dropped == 0
    assert stats.unknown_codes == 0
    assert corpus.citations_in == {}


def test_invalid_utf8_line(tmp_path):
    good = '{"doi": "a", "title": "t", "authors": ["x"], "date": "1990-01-01", "pacs": [], "refs": []}\n'
    path = tmp_path / "latin1.jsonl"
    path.write_bytes(good.encode() + b'{"doi": "b", "title": "caf\xe9"}\n')
    with pytest.raises(FormatError) as err:
        load_corpus(path)
    assert (err.value.lineno, err.value.reason) == (2, "not valid UTF-8")
    corpus = load_corpus(path, IngestConfig(strict=False))
    assert list(corpus.papers) == ["a"]
    assert corpus.ingest_stats.rejected_lines == ((2, "not valid UTF-8"),)


def test_crlf_line_endings(corpus_file, tmp_path):
    lf = corpus_file(
        [paper("a", 1990, ["Alice Adams"], ["04.25.dg"]), paper("b", 1991, ["alice adams"], [], refs=["a"])]
    )
    crlf = tmp_path / "crlf.jsonl"
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n") + b"\r\n")
    left, right = load_corpus(lf), load_corpus(crlf)
    assert left.papers == right.papers
    assert left.citations_in == right.citations_in
    assert left.papers_by_author == right.papers_by_author
    assert left.ingest_stats == right.ingest_stats


def test_equal_author_names_share_one_string(corpus_file):
    corpus = load_corpus(
        corpus_file([paper("a", 1990, ["Alice Adams"], []), paper("b", 1991, ["alice  ADAMS"], [])])
    )
    assert corpus.papers["a"].authors[0] is corpus.papers["b"].authors[0]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("known", [None, frozenset(["04.25", "11.15"])])
def test_lenient_load_matches_raw_recount(tmp_path, seed, known):
    path = messy_corpus(tmp_path / "messy.jsonl", 300, seed)
    corpus = load_corpus(path, IngestConfig(strict=False, known_codes=known))
    expected = raw_ingest_recount(path, known)
    stats = corpus.ingest_stats
    assert stats.as_dict() == {name: expected[name] for name in stats.as_dict()}
    assert [lineno for lineno, _ in stats.rejected_lines] == expected["rejected_linenos"]
    assert dict(corpus.papers_by_author) == expected["papers_by_author"]
    assert dict(corpus.citations_in) == expected["citations_in"]
    # the corpus exercises every kind of mess it promises
    assert stats.lines_rejected and stats.malformed_pacs_dropped
    assert stats.dangling_refs and stats.negative_age_citations_skipped
    assert b"\r\n" in path.read_bytes()


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def gc_state(request):
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("outcome", ["ok", "format-error", "duplicate-doi", "io-failure"])
def test_load_restores_gc_state(gc_state, outcome, corpus_file, tmp_path):
    records = {
        "ok": [paper("a", 1990, ["x"], [])],
        "format-error": [paper("a", 1990, ["x"], []), paper("b", 1990, ["x"], [], date="1990-02-30")],
        "duplicate-doi": [paper("a", 1990, ["x"], []), paper("a", 1991, ["y"], [])],
    }
    expected_error = {"format-error": FormatError, "duplicate-doi": DuplicateDoi, "io-failure": IoFailure}
    path = corpus_file(records[outcome]) if outcome in records else tmp_path / "absent.jsonl"
    if outcome == "ok":
        load_corpus(path)
    else:
        with pytest.raises(expected_error[outcome]):
            load_corpus(path)
    assert gc.isenabled() is gc_state


def test_missing_field_rejected(corpus_file):
    record = paper("a", 1990, ["x"], [])
    del record["title"]
    with pytest.raises(FormatError):
        load_corpus(corpus_file([record]))


def test_lenient_collects_rejects(corpus_file, tmp_path):
    path = tmp_path / "mixed.jsonl"
    good = paper("a", 1990, ["x"], ["04.25.dg"])
    import json

    path.write_text(json.dumps(good) + "\nbroken line\n" + '{"doi": "b"}\n')
    corpus = load_corpus(path, IngestConfig(strict=False))
    assert list(corpus.papers) == ["a"]
    stats = corpus.ingest_stats
    assert stats.lines_rejected == 2
    assert [lineno for lineno, _ in stats.rejected_lines] == [2, 3]


def test_blank_lines_skipped(corpus_file, tmp_path):
    import json

    path = tmp_path / "gaps.jsonl"
    path.write_text(
        json.dumps(paper("a", 1990, ["x"], [])) + "\n\n  \n" + json.dumps(paper("b", 1991, ["y"], [])) + "\n"
    )
    corpus = load_corpus(path)
    assert set(corpus.papers) == {"a", "b"}


def test_unknown_fields_ignored(corpus_file):
    corpus = load_corpus(corpus_file([paper("a", 1990, ["x"], [], journal="PRX", volume=3)]))
    assert corpus.papers["a"].title == "Paper a"


def test_missing_file_raises_io_failure(tmp_path):
    with pytest.raises(IoFailure):
        load_corpus(tmp_path / "absent.jsonl")


def test_negative_age_kept_but_counted(corpus_file):
    path = corpus_file(
        [
            paper("new", 1995, ["x"], []),
            paper("old", 1990, ["y"], [], refs=["new"]),  # cites a later paper
        ]
    )
    corpus = load_corpus(path)
    assert corpus.ingest_stats.negative_age_citations_skipped == 1
    assert corpus.citations_in["new"] == (("old", 1990),)


def test_repeated_author_on_one_paper(corpus_file):
    corpus = load_corpus(corpus_file([paper("a", 1990, ["Same Name", "same  NAME"], [])]))
    record = corpus.papers["a"]
    assert record.authors == ("same name", "same name")
    assert corpus.papers_by_author["same name"] == ("a",)


def test_malformed_codes_dropped_not_fatal(corpus_file):
    corpus = load_corpus(corpus_file([paper("a", 1990, ["x"], ["04.25.dg", "junk", "9x.55"])]))
    assert {c.text for c in corpus.papers["a"].pacs} == {"04.25"}
    assert corpus.ingest_stats.malformed_pacs_dropped == 2


def test_known_codes_counter(corpus_file):
    # codes outside the known set are counted, not dropped
    corpus = load_corpus(
        corpus_file([paper("a", 1990, ["x"], ["04.25.dg", "07.05.Fb"])]),
        IngestConfig(known_codes=frozenset(["04.25"])),
    )
    assert {c.text for c in corpus.papers["a"].pacs} == {"04.25", "07.05"}
    assert corpus.ingest_stats.unknown_codes == 1


def test_year_span(fixture_corpus):
    assert fixture_corpus.year_span() == YearRange(1990, 2004)


def test_papers_in_half_open(fixture_corpus):
    dois = [r.doi for r in fixture_corpus.papers_in(YearRange(1996, 1998))]
    assert dois == ["10.1103/P06", "10.1103/P07", "10.1103/P08"]


def test_pacs_coverage_by_year(fixture_corpus):
    coverage = papers_with_pacs_fraction_by_year(fixture_corpus)
    assert coverage[1990] == 1.0
    assert coverage[1996] == 0.5
    assert 1995 not in coverage
    assert 2000 not in coverage
    assert list(coverage) == sorted(coverage)


def test_summary_two_paper_example(corpus_file):
    path = corpus_file(
        [
            paper("p1", 1990, ["A"], ["04.25.dg"]),
            paper("p2", 1991, ["A", "B"], ["04.25.dg", "07.05.Fb"]),
        ]
    )
    stats = corpus_summary(load_corpus(path), YearRange(1990, 1992))
    assert stats.papers == 2
    assert stats.authors == 2
    assert stats.authors_per_paper == 1.5
    assert stats.codes_per_paper == 1.5
    assert stats.papers_per_author == 1.5


def test_summary_single_paper(corpus_file):
    stats = corpus_summary(
        load_corpus(corpus_file([paper("p1", 1990, ["A"], ["04.25.dg"])])),
        YearRange(1990, 1991),
    )
    assert stats.papers_per_author == 1.0
    assert stats.paper_diversity_mean == 0.0
    assert stats.citations_per_paper == 0.0


def test_summary_fixture_values(fixture_corpus):
    stats = corpus_summary(fixture_corpus, YearRange(1990, 2004))
    assert stats.papers == 12
    assert stats.authors == 6
    assert stats.papers_per_author == pytest.approx(17 / 6)
    assert stats.authors_per_paper == pytest.approx(17 / 12)
    assert stats.codes_per_author == pytest.approx(33 / 6)
    assert stats.codes_per_paper == pytest.approx(29 / 12)
    assert stats.author_diversity_mean == pytest.approx(58 / 6)
    assert stats.paper_diversity_mean == pytest.approx(35 / 12)
    assert stats.citations_per_paper == pytest.approx(19 / 12)


def test_summary_excludes_negative_age_citations(corpus_file):
    path = corpus_file(
        [
            paper("new", 1995, ["x"], ["04.25.dg"]),
            paper("old", 1990, ["y"], ["07.05.Fb"], refs=["new"]),
        ]
    )
    stats = corpus_summary(load_corpus(path), YearRange(1990, 1996))
    assert stats.citations_per_paper == 0.0


def test_summary_empty_period(fixture_corpus):
    with pytest.raises(EmptyPeriod):
        corpus_summary(fixture_corpus, YearRange(1950, 1960))


def test_double_load_identical(fixture_path):
    first = load_corpus(fixture_path)
    second = load_corpus(fixture_path)
    assert list(first.papers) == list(second.papers)
    assert first.citations_in == second.citations_in
    assert first.papers_by_author == second.papers_by_author
