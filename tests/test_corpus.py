import gc
import hashlib
import json
import sys
import tempfile
import tracemalloc
from collections import Counter
from json.scanner import py_make_scanner
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pacsdiv import corpus as corpus_module
from pacsdiv import (
    DuplicateDoi,
    EmptyPeriod,
    FormatError,
    IngestConfig,
    IoFailure,
    PacsCode,
    PaperRecord,
    YearRange,
    corpus_summary,
    diversity_distributions,
    load_corpus,
    normalize_author,
    pacs_count_distributions,
    papers_with_pacs_fraction_by_year,
    weitzman_diversity,
)
from conftest import paper
from helpers import (
    _raw_accepted,
    _raw_codes,
    _raw_year,
    block_count_diversity,
    messy_corpus,
    raw_author_unions,
    raw_citation_ages,
    raw_ingest_recount,
)


def test_normalize_author():
    assert normalize_author("Alice  ADAMS") == "alice adams"
    assert normalize_author(" bob\tbrown \n") == "bob brown"
    assert normalize_author("alice adams") == "alice adams"
    # full case folding and any Unicode space, as the interpreter's
    # Unicode database has them (14.0.0 on Python 3.11)
    assert normalize_author("Straße") == "strasse"
    assert normalize_author("ΣΊΣΥΦΟΣ") == "σίσυφοσ"
    assert normalize_author("José\u00a0Núñez") == "josé núñez"


def test_normalize_preserves_diacritics():
    assert normalize_author("David Müller") == "david müller"
    assert normalize_author("David Müller") != normalize_author("David Muller")


def _papers_by_author(corpus):
    """{normalized name: DOIs it appears on}, both in file order, from the records."""
    by_author = {}
    for record in corpus.papers.values():
        for name in record.authors:
            by_author.setdefault(name, []).append(record.doi)
    return {name: tuple(dois) for name, dois in by_author.items()}


def test_fixture_counts(fixture_corpus):
    assert len(fixture_corpus.papers) == 12
    assert len(_papers_by_author(fixture_corpus)) == 6
    stats = fixture_corpus.ingest_stats
    assert stats.records_accepted == 12
    assert stats.lines_rejected == 0
    assert stats.malformed_pacs_dropped == 1
    assert stats.dangling_refs == 1
    assert stats.negative_age_citations_skipped == 0


def test_fixture_merges_author_spellings(fixture_corpus):
    by_author = _papers_by_author(fixture_corpus)
    assert set(by_author) == {
        "alice adams", "bob brown", "carol chen", "david müller", "erin evans", "frank fox",
    }
    assert by_author["alice adams"] == ("10.1103/P01", "10.1103/P02", "10.1103/P06", "10.1103/P11")


def test_codes_truncated_and_deduplicated(fixture_corpus):
    p11 = fixture_corpus.papers["10.1103/P11"]
    assert {c.text for c in p11.pacs} == {"04.25", "04.30", "07.05", "11.15"}
    p06 = fixture_corpus.papers["10.1103/P06"]
    assert p06.pacs == ()


def test_citations_in(fixture_path, fixture_corpus):
    raw = raw_citation_ages(fixture_path)
    ages = {doi: sorted(doi_ages) for doi, doi_ages in fixture_corpus.citations_in.items()}
    assert ages["10.1103/P01"] == raw["10.1103/P01"] == [1, 2, 3, 13]
    assert ages["10.1103/P10"] == raw["10.1103/P10"] == [1]
    assert "10.1103/P12" not in ages
    assert "10.1103/PX99" not in fixture_corpus.citations_in


def test_citation_conservation_against_raw_scan(fixture_path, fixture_corpus):
    raw = raw_citation_ages(fixture_path)
    lib = {doi: sorted(doi_ages) for doi, doi_ages in fixture_corpus.citations_in.items()}
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
    bad = paper("b", 1991, ["y", "Y"], ["junk", "07.05.Fb"], refs=["a"], date="1991-02-30")
    corpus = load_corpus(
        corpus_file([paper("a", 1990, ["x"], ["04.25.dg"]), bad]),
        IngestConfig(strict=False),
    )
    stats = corpus.ingest_stats
    assert stats.rejected_lines == ((2, "bad date '1991-02-30'"),)
    assert stats.malformed_pacs_dropped == 0
    assert stats.duplicate_authors_collapsed == 0
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


@pytest.fixture(params=["interpreter", "unlimited", "lowest"])
def int_digit_limit(request):
    """Run under the interpreter's own int/str digit limit, no limit, and the lowest one allowed."""
    if request.param == "interpreter":
        yield
        return
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int/str digit limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0 if request.param == "unlimited" else sys.int_info.str_digits_check_threshold)
    yield
    sys.set_int_max_str_digits(saved)


_GOOD_LINE = json.dumps(paper("a", 1990, ["x"], ["04.25.dg"]))


def _assert_line_2_malformed(path, line, reason):
    path.write_text(_GOOD_LINE + "\n" + line + "\n")
    with pytest.raises(FormatError) as err:
        load_corpus(path)
    assert (err.value.lineno, err.value.reason) == (2, reason)
    corpus = load_corpus(path, IngestConfig(strict=False))
    assert list(corpus.papers) == ["a"]
    assert corpus.ingest_stats.rejected_lines == ((2, reason),)


def test_deeply_nested_line_is_malformed(tmp_path):
    _assert_line_2_malformed(tmp_path / "deep.jsonl", "[" * 100_000, "invalid JSON: nested too deeply")


def _nested_line(levels, where):
    """A line nesting ``levels`` deep in all, the deepest value an empty array ``where`` says."""
    if where == "bare array":
        return "[" * levels + "]" * levels
    if where == "unclosed array":
        return "[" * levels
    record = paper("b", 1991, ["y"], [])
    record["authors" if where == "required field" else "extra"] = "@"
    return json.dumps(record).replace('"@"', "[" * (levels - 1) + "]" * (levels - 1))


def _frames_deeper(frames, fn):
    """``fn()``, called ``frames`` Python frames below the caller."""
    return fn() if frames == 0 else _frames_deeper(frames - 1, fn)


# how a line nesting exactly _MAX_DEPTH deep loads: accepted, or its reject reason
_AT_THE_CAP = {
    "unknown field": None,
    "required field": "authors must be a list of strings",
    "bare array": "record is not a JSON object",
    "unclosed array": "invalid JSON: Expecting value",
}


@pytest.mark.parametrize("where", list(_AT_THE_CAP))
@pytest.mark.parametrize("deeper", [0, sys.getrecursionlimit() // 2], ids=["shallow", "deep-stack"])
def test_nesting_cap_does_not_depend_on_the_stack(deeper, where, tmp_path):
    cap = corpus_module._MAX_DEPTH
    at_cap, over = _nested_line(cap, where), _nested_line(cap + 1, where)
    if _AT_THE_CAP[where] is None:
        path = tmp_path / "cap.jsonl"
        path.write_text(_GOOD_LINE + "\n" + at_cap + "\n")
        assert list(_frames_deeper(deeper, lambda: load_corpus(path)).papers) == ["a", "b"]
    else:
        _frames_deeper(deeper, lambda: _assert_line_2_malformed(tmp_path / "cap.jsonl", at_cap, _AT_THE_CAP[where]))
    _frames_deeper(
        deeper, lambda: _assert_line_2_malformed(tmp_path / "over.jsonl", over, "invalid JSON: nested too deeply")
    )


def test_brackets_in_strings_do_not_nest(corpus_file):
    brackets = '[{\\"' * 200
    path = corpus_file([paper("a", 1990, ["x"], []), paper("b", 1991, ["y"], [], extra=[brackets, {brackets: [1]}])])
    assert load_corpus(path).papers["b"].authors == ("y",)


def test_long_integer_line_is_malformed(int_digit_limit, tmp_path):
    line = json.dumps(paper("b", 1991, ["y"], [])).replace('"refs"', '"volume": ' + "7" * 5000 + ', "refs"')
    _assert_line_2_malformed(tmp_path / "long.jsonl", line, "invalid JSON: integer literal longer than 4300 digits")


@pytest.mark.parametrize("sign", ["", "-"])
def test_integer_literal_at_the_cap_is_accepted(sign, tmp_path):
    if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 4300:
        pytest.skip("the interpreter itself refuses literals this long")
    path = tmp_path / "long.jsonl"
    path.write_text(_GOOD_LINE[:-1] + ', "volume": ' + sign + "7" * 4300 + "}\n")
    assert list(load_corpus(path).papers) == ["a"]


# lines json.loads decodes, and lines it rejects, that a data file can hold
_CRAFTED_LINES = [
    "\ufeff" + _GOOD_LINE,
    "",
    "  \t ",
    "\u00a0",
    _GOOD_LINE + "\r",
    "  " + _GOOD_LINE + " \t",
    _GOOD_LINE + " x",
    _GOOD_LINE + "\x0c",
    _GOOD_LINE[:-1],
    '{"doi": "a"',
    '{"doi": "a", }',
    '"text"',
    "[1, 2.5, true, null]",
    "null",
    "1e400",
    "-0",
    '{"doi": "a\\u0000"}',
    '{"doi": "a\x01"}',
    "NaN",
]


def _decoded_by_loader(path, monkeypatch):
    """(line number -> the object the loader decoded, rejected lines) of a lenient load."""
    decoded = {}
    parse = corpus_module._parse_record

    def spy(obj, lineno, *args):
        decoded[lineno] = obj
        return parse(obj, lineno, *args)

    monkeypatch.setattr(corpus_module, "_parse_record", spy)
    corpus = load_corpus(path, IngestConfig(strict=False))
    return decoded, dict(corpus.ingest_stats.rejected_lines)


@pytest.mark.parametrize("seed", [1, 2, 3, None], ids=["messy-1", "messy-2", "messy-3", "crafted"])
def test_decode_matches_json_loads(seed, tmp_path, monkeypatch):
    path = tmp_path / "lines.jsonl"
    if seed is None:
        # one record per line, each with its own DOI so no line is a duplicate
        lines = [line.replace('"a"', f'"d{i}"') for i, line in enumerate(_CRAFTED_LINES)]
        path.write_bytes("\n".join(lines).encode() + b"\n")
    else:
        messy_corpus(path, 300, seed)
    decoded, rejected = _decoded_by_loader(path, monkeypatch)
    with open(path, "rb") as handle:
        raw_lines = list(handle)
    kinds = Counter()
    for lineno, raw in enumerate(raw_lines, start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            assert rejected[lineno] == "not valid UTF-8"
            continue
        try:
            expected = json.loads(line)
        except json.JSONDecodeError as exc:
            if line.strip(" \t\n\r"):
                kinds["rejected"] += 1
                assert rejected[lineno] == f"invalid JSON: {exc.msg}"
            else:
                kinds["blank"] += 1
                assert lineno not in rejected
            assert lineno not in decoded
            continue
        kinds["decoded"] += 1
        assert repr(decoded[lineno]) == repr(expected)
    assert kinds["rejected"] and kinds["blank"] and kinds["decoded"]


def _assert_scanners_load_the_same(path):
    """A lenient load of ``path`` gives the same corpus with the pure-Python
    JSON scanner, as interpreters without ``_json`` use, as with the default."""
    made = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus_module, "make_scanner", lambda context: made.append(context) or py_make_scanner(context))
        python_scanned = load_corpus(path, IngestConfig(strict=False))
    assert made, "the load did not build its scanner with make_scanner"
    default = load_corpus(path, IngestConfig(strict=False))
    assert list(python_scanned.papers.items()) == list(default.papers.items())
    assert list(python_scanned.citations_in.items()) == list(default.citations_in.items())
    assert python_scanned.ingest_stats == default.ingest_stats


@pytest.mark.parametrize("seed", [1, 2, 3, None], ids=["messy-1", "messy-2", "messy-3", "crafted"])
def test_pure_python_scanner_loads_the_same(seed, tmp_path):
    # the inputs of test_decode_matches_json_loads
    path = tmp_path / "lines.jsonl"
    if seed is None:
        lines = [line.replace('"a"', f'"d{i}"') for i, line in enumerate(_CRAFTED_LINES)]
        path.write_bytes("\n".join(lines).encode() + b"\n")
    else:
        messy_corpus(path, 300, seed)
    _assert_scanners_load_the_same(path)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_records=st.integers(1, 300))
def test_pure_python_scanner_loads_a_drawn_corpus_the_same(seed, n_records):
    # Hypothesis rejects tmp_path, a function-scoped fixture
    with tempfile.TemporaryDirectory() as tmp:
        _assert_scanners_load_the_same(messy_corpus(Path(tmp) / "messy.jsonl", n_records, seed))


def test_crlf_line_endings(corpus_file, tmp_path):
    lf = corpus_file(
        [paper("a", 1990, ["Alice Adams"], ["04.25.dg"]), paper("b", 1991, ["alice adams"], [], refs=["a"])]
    )
    crlf = tmp_path / "crlf.jsonl"
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n") + b"\r\n")
    left, right = load_corpus(lf), load_corpus(crlf)
    assert left.papers == right.papers
    assert left.citations_in == right.citations_in
    assert left.ingest_stats == right.ingest_stats


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_digest_sees_every_byte_loaded(fixture_path, tmp_path, seed):
    path = fixture_path if seed is None else messy_corpus(tmp_path / "messy.jsonl", 300, seed)
    digest = hashlib.sha256()
    corpus = load_corpus(path, IngestConfig(strict=False), digest)
    data = path.read_bytes()
    assert digest.hexdigest() == hashlib.sha256(data).hexdigest()
    assert corpus.ingest_stats.bytes_read == len(data) == path.stat().st_size
    if seed is not None:
        # CRLF endings, blank lines, invalid UTF-8 and rejected lines all hashed
        assert b"\r\n" in data and b"\n\n" in data and corpus.ingest_stats.lines_rejected
        assert any(reason == "not valid UTF-8" for _, reason in corpus.ingest_stats.rejected_lines)


def test_digest_of_file_without_final_newline(corpus_file):
    path = corpus_file([paper("a", 1990, ["x"], []), paper("b", 1991, ["y"], [], refs=["a"])])
    data = path.read_bytes().rstrip(b"\n")
    path.write_bytes(data)
    digest = hashlib.sha256()
    corpus = load_corpus(path, digest=digest)
    assert list(corpus.papers) == ["a", "b"]
    assert digest.hexdigest() == hashlib.sha256(data).hexdigest()
    assert corpus.ingest_stats.bytes_read == len(data)


def test_record_keeps_only_what_a_table_reads():
    assert PaperRecord._fields == ("doi", "authors", "pub_year", "pacs")


def test_record_is_an_immutable_tuple(fixture_corpus):
    record = fixture_corpus.papers["10.1103/P01"]
    with pytest.raises(AttributeError):
        record.pub_year = 2000
    with pytest.raises(AttributeError):
        record.title = "a field it does not have"
    assert record == (record.doi, record.authors, record.pub_year, record.pacs)
    assert hash(record) == hash(tuple(record))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_equal_code_sets_are_one_object(tmp_path, seed):
    path = messy_corpus(tmp_path / "messy.jsonl", 300, seed)
    corpus = load_corpus(path, IngestConfig(strict=False))
    first = {}
    for record in corpus.papers.values():
        assert first.setdefault(record.pacs, record.pacs) is record.pacs
    accepted, _ = _raw_accepted(path)
    assert len(first) == len({frozenset(_raw_codes(obj)) for obj in accepted})
    assert len(first) < len(corpus.papers)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_record_codes_are_sorted_distinct_tuples(tmp_path, seed):
    path = messy_corpus(tmp_path / "messy.jsonl", 300, seed)
    corpus = load_corpus(path, IngestConfig(strict=False))
    accepted, _ = _raw_accepted(path)
    assert len(accepted) == len(corpus.papers)
    for obj in accepted:
        codes = corpus.papers[obj["doi"]].pacs
        assert type(codes) is tuple
        assert all(a < b for a, b in zip(codes, codes[1:]))
        assert [code.text for code in codes] == sorted(_raw_codes(obj))


def test_equal_codes_are_one_object(corpus_file):
    path = corpus_file([
        paper("a", 1990, ["x"], ["04.25.dg", "07.05.Fb"]),
        paper("b", 1991, ["y"], ["04.25.-g"]),
        paper("c", 1992, ["x"], [" 04.25 ", "07.05.-k", "11.15"]),
    ])
    corpus = load_corpus(path)
    first = {}
    for record in corpus.papers.values():
        for code in record.pacs:
            assert first.setdefault(code, code) is code
    assert sorted(code.text for code in first) == ["04.25", "07.05", "11.15"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_citation_index_values_are_tuples(tmp_path, seed):
    corpus = load_corpus(messy_corpus(tmp_path / "messy.jsonl", 300, seed), IngestConfig(strict=False))
    assert corpus.citations_in
    for ages in corpus.citations_in.values():
        assert type(ages) is tuple and ages
        assert all(type(age) is int for age in ages)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_each_doi_is_one_string(tmp_path, seed):
    corpus = load_corpus(messy_corpus(tmp_path / "messy.jsonl", 300, seed), IngestConfig(strict=False))
    assert corpus.citations_in
    key_ids = {id(doi) for doi in corpus.papers}
    assert key_ids == {id(record.doi) for record in corpus.papers.values()}
    for cited in corpus.citations_in:
        assert cited is corpus.papers[cited].doi


def test_equal_author_names_share_one_string(corpus_file):
    corpus = load_corpus(
        corpus_file([paper("a", 1990, ["Alice Adams"], []), paper("b", 1991, ["alice  ADAMS"], [])])
    )
    assert corpus.papers["a"].authors[0] is corpus.papers["b"].authors[0]


_GIVEN_NAMES = ("alice", "bruno", "chiara", "dmitri", "elena", "farid", "greta", "hiroshi", "ingrid", "jonas")
_FAMILY_NAMES = ("adams", "becker", "castro", "dubois", "eriksen")


def _spelling(name, k):
    """The ``k``-th spelling of a normalised ``name``: its letters cased by
    the bits of ``k``, its words joined by one to three spaces."""
    letters = [char.upper() if k >> bit & 1 else char for bit, char in enumerate(name.replace(" ", ""))]
    given = len(name.split()[0])
    return "".join(letters[:given]) + " " * (1 + k % 3) + "".join(letters[given:])


def _load_peak(path):
    """The tracemalloc peak of one strict load of ``path``, in bytes."""
    tracemalloc.start()
    try:
        load_corpus(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_author_spellings_are_not_kept_by_the_load(corpus_file):
    # two corpora that differ only in how their 10,000 author occurrences,
    # five per paper, are spelled: as the 50 normalised names, or each
    # occurrence its own case and whitespace variant of one of them
    names = [f"{given} {family}" for given in _GIVEN_NAMES for family in _FAMILY_NAMES]
    normalised = [names[k % len(names)] for k in range(10_000)]
    variants = [_spelling(name, k // len(names)) for k, name in enumerate(normalised)]
    assert len(set(variants)) == len(variants)
    assert list(map(normalize_author, variants)) == normalised

    def corpus(authors, name):
        records = [paper(f"10.x/{i}", 1990 + i % 10, authors[5 * i : 5 * i + 5], []) for i in range(2000)]
        return corpus_file(records, name=name)

    plain, variant = corpus(normalised, "plain.jsonl"), corpus(variants, "variant.jsonl")
    assert load_corpus(plain).papers == load_corpus(variant).papers
    # a load that keeps every spelling it meets peaks about 827 kB higher
    # on the variants, 83 bytes an occurrence; one that keeps only the
    # normalised names peaks at most a few hundred bytes higher. The bound,
    # a byte an occurrence, lies between the two by a factor of 50 or more
    assert _load_peak(variant) - _load_peak(plain) < len(variants)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lenient_load_matches_raw_recount(tmp_path, seed):
    path = messy_corpus(tmp_path / "messy.jsonl", 300, seed)
    corpus = load_corpus(path, IngestConfig(strict=False))
    expected = raw_ingest_recount(path)
    stats = corpus.ingest_stats
    assert stats.as_dict() == expected["ingest"]
    assert [lineno for lineno, _ in stats.rejected_lines] == expected["rejected_linenos"]
    assert _papers_by_author(corpus) == expected["papers_by_author"]
    assert dict(corpus.citations_in) == expected["citations_in"]
    # the corpus exercises every kind of mess it promises
    assert stats.lines_rejected and stats.malformed_pacs_dropped
    assert stats.dangling_refs and stats.negative_age_citations_skipped
    assert stats.duplicate_authors_collapsed
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
    assert corpus.papers["a"].authors == ("x",)


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
    assert corpus.citations_in["new"] == (-5,)


def test_repeated_author_on_one_paper(corpus_file):
    corpus = load_corpus(corpus_file([paper("a", 1990, ["Same Name", "Other", "same  NAME"], [])]))
    record = corpus.papers["a"]
    assert record.authors == ("same name", "other")
    assert corpus.ingest_stats.duplicate_authors_collapsed == 1


def test_summary_counts_repeated_author_once(corpus_file):
    path = corpus_file(
        [
            paper("p1", 1990, ["Alice Adams", "alice  adams"], ["04.25.dg"]),
            paper("p2", 1991, ["Bob"], []),
        ]
    )
    stats = corpus_summary(load_corpus(path), YearRange(1990, 1992))
    assert stats["authors"] == 2
    assert stats["papers_per_author"] == 1.0
    assert stats["authors_per_paper"] == 1.0


def test_malformed_codes_dropped_not_fatal(corpus_file):
    corpus = load_corpus(corpus_file([paper("a", 1990, ["x"], ["04.25.dg", "junk", "9x.55"])]))
    assert {c.text for c in corpus.papers["a"].pacs} == {"04.25"}
    assert corpus.ingest_stats.malformed_pacs_dropped == 2


def test_year_span(fixture_corpus):
    assert fixture_corpus.year_span() == YearRange(1990, 2004)


def test_papers_in_half_open(fixture_corpus, corpus_file):
    (papers,) = fixture_corpus._file_by_year([YearRange(1996, 1998)])
    assert [r.doi for r in papers] == ["10.1103/P06", "10.1103/P07", "10.1103/P08"]
    # ranges out of order and overlapping, filed in one call, on papers
    # out of year order: file order within a range, the caller's across
    years = {"a": 1993, "b": 1990, "c": 1995, "d": 1991, "e": 1994, "f": 1992}
    corpus = load_corpus(corpus_file([paper(doi, year, ["x"], []) for doi, year in years.items()]))
    ranges = [YearRange(1993, 1996), YearRange(1990, 1992), YearRange(1991, 1994)]
    filed = [[r.doi for r in papers] for papers in corpus._file_by_year(ranges)]
    assert filed == [["a", "c", "e"], ["b", "d"], ["a", "d", "f"]]


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
    assert stats["papers"] == 2
    assert stats["authors"] == 2
    assert stats["authors_per_paper"] == 1.5
    assert stats["pacs_codes_per_paper"] == 1.5
    assert stats["papers_per_author"] == 1.5


def test_summary_single_paper(corpus_file):
    stats = corpus_summary(
        load_corpus(corpus_file([paper("p1", 1990, ["A"], ["04.25.dg"])])),
        YearRange(1990, 1991),
    )
    assert stats["papers_per_author"] == 1.0
    assert stats["paper_diversity_mean"] == 0.0
    assert stats["citations_per_paper"] == 0.0


def test_summary_fixture_values(fixture_corpus):
    stats = corpus_summary(fixture_corpus, YearRange(1990, 2004))
    assert stats["papers"] == 12
    assert stats["authors"] == 6
    assert stats["papers_per_author"] == pytest.approx(17 / 6)
    assert stats["authors_per_paper"] == pytest.approx(17 / 12)
    assert stats["pacs_codes_per_author"] == pytest.approx(33 / 6)
    assert stats["pacs_codes_per_paper"] == pytest.approx(29 / 12)
    assert stats["author_diversity_mean"] == pytest.approx(58 / 6)
    assert stats["paper_diversity_mean"] == pytest.approx(35 / 12)
    assert stats["citations_per_paper"] == pytest.approx(19 / 12)


def test_summary_excludes_negative_age_citations(corpus_file):
    path = corpus_file(
        [
            paper("new", 1995, ["x"], ["04.25.dg"]),
            paper("old", 1990, ["y"], ["07.05.Fb"], refs=["new"]),
        ]
    )
    stats = corpus_summary(load_corpus(path), YearRange(1990, 1996))
    assert stats["citations_per_paper"] == 0.0


def test_summary_empty_period(fixture_corpus):
    with pytest.raises(EmptyPeriod):
        corpus_summary(fixture_corpus, YearRange(1950, 1960))


@pytest.mark.parametrize("distributions", [pacs_count_distributions, diversity_distributions])
def test_distributions_empty_period(distributions, fixture_corpus):
    with pytest.raises(EmptyPeriod, match="no papers in 1950-1960"):
        distributions(fixture_corpus, YearRange(1950, 1960), include_zero_pacs=False)


def test_distributions_of_a_period_without_authors(corpus_file):
    # a paper in the period is enough, even when no author is on it
    corpus = load_corpus(corpus_file([paper("a", 1990, [], ["04.25.dg", "07.05.Fb"])]))
    period = YearRange(1990, 1991)
    assert pacs_count_distributions(corpus, period, include_zero_pacs=False) == ({}, {2: 1.0})
    assert diversity_distributions(corpus, period, include_zero_pacs=False) == ({}, {2: 1.0})


def test_double_load_identical(fixture_path):
    first = load_corpus(fixture_path)
    second = load_corpus(fixture_path)
    assert list(first.papers) == list(second.papers)
    assert first.papers == second.papers
    assert first.citations_in == second.citations_in


def _code_set(texts):
    return {PacsCode(int(text[0]), int(text[1]), text[3:]) for text in texts}


def _normalized_histogram(values):
    counts = Counter(values)
    return {value: n / sum(counts.values()) for value, n in counts.items()}


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("include_zero_pacs", [False, True])
def test_distributions_match_raw_recount(tmp_path, seed, include_zero_pacs):
    path = messy_corpus(tmp_path / "messy.jsonl", 120, seed)
    corpus = load_corpus(path, IngestConfig(strict=False))
    accepted, _ = _raw_accepted(path)
    empty_authors = empty_papers = 0
    for start, end in [(1990, 2002), (1993, 1997), (1995, 1996), (1999, 2000)]:
        author_sets = [_code_set(texts) for texts in raw_author_unions(path, (start, end)).values()]
        paper_sets = [_code_set(_raw_codes(obj)) for obj in accepted if start <= _raw_year(obj["date"]) < end]
        empty_authors += author_sets.count(set())
        empty_papers += paper_sets.count(set())
        for measure, distributions in [
            (len, pacs_count_distributions),
            (block_count_diversity, diversity_distributions),
        ]:
            expected = tuple(
                _normalized_histogram(measure(codes) for codes in sets if codes or include_zero_pacs)
                for sets in (author_sets, paper_sets)
            )
            assert distributions(corpus, YearRange(start, end), include_zero_pacs=include_zero_pacs) == expected
    # the corpora hold the code-less authors and papers the flag decides on
    assert empty_authors and empty_papers


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_author_diversity_matches_raw_recount(tmp_path, seed):
    path = messy_corpus(tmp_path / "messy.jsonl", 300, seed)
    corpus = load_corpus(path, IngestConfig(strict=False))
    names = raw_ingest_recount(path)["papers_by_author"]
    absent = 0
    # the last window precedes every paper: each author is known but absent from it
    for start, end in [(1990, 2002), (1995, 1996), (1985, 1990)]:
        unions = raw_author_unions(path, (start, end))
        absent += len(names.keys() - unions.keys())
        loaded = dict(corpus.author_unions(YearRange(start, end), cumulative=False))
        for name in names:
            expected = block_count_diversity(_code_set(unions.get(name, ())))
            assert weitzman_diversity(loaded.get(name, set())) == expected, (name, start, end)
    assert absent
