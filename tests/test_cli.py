import builtins
import csv
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pacsdiv import cli
from pacsdiv.cli import _CONFIG_TYPES, DEFAULTS, main
from conftest import ALL_COMMANDS, GOLDEN_ARGS, GOLDEN_DIR, paper, write_jsonl
from helpers import messy_corpus, raw_citation_tables, raw_ingest_recount


def run_cli(command, fixture_path, out_dir, *extra):
    return main(
        [command, "--input", str(fixture_path), "--out-dir", str(out_dir), *GOLDEN_ARGS, *extra]
    )


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_golden_outputs(command, fixture_path, tmp_path, capsys):
    assert run_cli(command, fixture_path, tmp_path) == 0
    produced = (tmp_path / f"{command}.csv").read_bytes()
    expected = (GOLDEN_DIR / f"{command}.csv").read_bytes()
    assert produced == expected


# each table's columns of names and labels; every other column holds numbers
_LABEL_COLUMNS = {
    "summary": {"statistic"},
    "pacs-coverage": set(),
    "pacs-counts": {"entity"},
    "diversity-dist": {"entity"},
    "groups": {"window"},
    "flows": {"from_window", "to_window", "kind", "from_group", "to_group"},
    "citation-age": set(),
    "diversity-citations": {"cohort", "keying", "key"},
    "citation-dist": {"cohort", "key"},
    "share": {"diversity"},
    "validate": {"metric"},
}
# how render_csv writes a float
_FLOAT_CELL = re.compile(r"-?[0-9]+\.[0-9]{6}")


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_json_holds_the_golden_rows(command, fixture_path, tmp_path, capsys):
    assert run_cli(command, fixture_path, tmp_path, "--format", "json") == 0
    rows = json.loads((tmp_path / f"{command}.json").read_text(encoding="utf-8"))
    with open(GOLDEN_DIR / f"{command}.csv", newline="", encoding="utf-8") as handle:
        header, *golden = csv.reader(handle)
    assert len(rows) == len(golden)
    for row, cells in zip(rows, golden):
        assert sorted(row) == sorted(header)
        for name, cell in zip(header, cells):
            value = row[name]
            if name in _LABEL_COLUMNS[command]:
                assert type(value) is str and value == cell, (name, value, cell)
            elif _FLOAT_CELL.fullmatch(cell):
                assert type(value) is float and f"{value:.6f}" == cell, (name, value, cell)
            else:
                assert type(value) is int and str(value) == cell, (name, value, cell)


def test_stdout_lists_written_files(fixture_path, tmp_path, capsys):
    assert run_cli("summary", fixture_path, tmp_path) == 0
    lines = capsys.readouterr().out.splitlines()
    assert str(tmp_path / "summary.csv") in lines
    assert str(tmp_path / "summary.meta.json") in lines


def test_meta_sidecar(fixture_path, tmp_path, capsys):
    run_cli("groups", fixture_path, tmp_path)
    meta = json.loads((tmp_path / "groups.meta.json").read_text())
    assert meta["command"] == "groups"
    assert meta["input"]["sha256"] == hashlib.sha256(fixture_path.read_bytes()).hexdigest()
    assert meta["settings"]["windows"] == ["1990-1995", "1995-2000", "2000-2005"]
    assert meta["settings"]["horizon"] == 5
    assert meta["corpus"]["papers"] == 12
    assert meta["ingest"]["malformed_pacs_dropped"] == 1
    # nothing time-dependent may leak into the sidecar
    flat = json.dumps(meta).lower()
    assert "timestamp" not in flat
    assert "created" not in flat


def test_outputs_deterministic_across_runs(fixture_path, tmp_path, capsys):
    run_cli("diversity-citations", fixture_path, tmp_path / "a")
    run_cli("diversity-citations", fixture_path, tmp_path / "b")
    for name in ("diversity-citations.csv", "diversity-citations.meta.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_json_format(fixture_path, tmp_path, capsys):
    assert run_cli("share", fixture_path, tmp_path, "--format", "json") == 0
    rows = json.loads((tmp_path / "share.json").read_text())
    assert rows[0]["diversity"] == "0"
    assert rows[0]["1990-1997"] == pytest.approx(16.666667)
    assert len(rows) == 10


def test_config_file_layering(fixture_path, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"horizon": 3, "format": "json", "cohorts": "1990-1997"}))
    code = main(
        [
            "citation-age",
            "--input", str(fixture_path),
            "--out-dir", str(tmp_path),
            "--config", str(config),
            "--horizon", "5",  # explicit flag beats the config file
        ]
    )
    assert code == 0
    assert (tmp_path / "citation-age.json").exists()
    meta = json.loads((tmp_path / "citation-age.meta.json").read_text())
    assert meta["settings"]["horizon"] == 5
    assert meta["settings"]["cohorts"] == ["1990-1997"]


def test_config_file_can_supply_input(fixture_path, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"input": str(fixture_path)}))
    assert main(["validate", "--out-dir", str(tmp_path), "--config", str(config)]) == 0


def test_unknown_config_key_rejected(fixture_path, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"horizont": 3}))
    code = main(
        ["summary", "--input", str(fixture_path), "--out-dir", str(tmp_path), "--config", str(config)]
    )
    assert code == 2


@pytest.mark.parametrize(
    "settings",
    [
        {"jobs": 1},
        {"lenient": "false"},
        {"include_zero_pacs": "no"},
        {"horizon": True},
        {"horizon": 10.9},
        {"windows": ["1985-90"]},
        {"period": 1990},
        {"groups": 5},
    ],
    ids=[
        "jobs-key", "lenient-string", "zero-pacs-string", "horizon-bool",
        "horizon-float", "windows-list", "period-int", "groups-int",
    ],
)
def test_bad_config_file_value_rejected(settings, fixture_path, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(settings))
    code = main(
        ["groups", "--input", str(fixture_path), "--out-dir", str(tmp_path), "--config", str(config)]
    )
    assert code == 2
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "groups.csv").exists()


def test_config_file_can_set_every_setting():
    assert set(_CONFIG_TYPES) == set(DEFAULTS) | {"input", "out_dir"}


def test_config_file_null_period_is_full_span(fixture_path, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"period": None, "lenient": True, "horizon": 5}))
    code = main(
        ["summary", "--input", str(fixture_path), "--out-dir", str(tmp_path), "--config", str(config)]
    )
    assert code == 0
    meta = json.loads((tmp_path / "summary.meta.json").read_text())
    assert meta["settings"]["period"] == "1990-2004"
    assert meta["settings"]["lenient"] is True


@pytest.mark.parametrize("source", ["flag", "config"])
def test_empty_period_string_rejected(source, fixture_path, tmp_path, capsys):
    # an empty --period is a bad year range, not a request for the full span
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"period": ""}))
    extra = ["--period", ""] if source == "flag" else ["--config", str(config)]
    out = tmp_path / "out"
    assert main(["summary", "--input", str(fixture_path), "--out-dir", str(out), *extra]) == 2
    assert capsys.readouterr().err == "pacsdiv summary: error: bad year range '': expected START-END\n"
    assert not out.exists()


def test_jobs_flag_removed(fixture_path, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli("summary", fixture_path, tmp_path, "--jobs", "1")
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err


def test_meta_sidecar_settings_keys(fixture_path, tmp_path, capsys):
    run_cli("summary", fixture_path, tmp_path)
    meta = json.loads((tmp_path / "summary.meta.json").read_text())
    assert sorted(meta["settings"]) == [
        "author_mode", "bands", "cohorts", "format", "groups", "horizon",
        "include_zero_pacs", "lenient", "period", "windows",
    ]
    assert meta["ingest"]["duplicate_authors_collapsed"] == 0


def test_out_dir_env_default(fixture_path, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PACSDIV_OUT_DIR", str(tmp_path / "from_env"))
    assert main(["summary", "--input", str(fixture_path)]) == 0
    assert (tmp_path / "from_env" / "summary.csv").exists()


def test_out_dir_flag_beats_env(fixture_path, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PACSDIV_OUT_DIR", str(tmp_path / "from_env"))
    assert run_cli("summary", fixture_path, tmp_path / "flag") == 0
    assert (tmp_path / "flag" / "summary.csv").exists()
    assert not (tmp_path / "from_env").exists()


def test_missing_input_exit_code(tmp_path, capsys):
    assert main(["summary", "--input", str(tmp_path / "nope.jsonl")]) == 3


def test_no_input_exit_code(tmp_path, capsys):
    assert main(["summary", "--out-dir", str(tmp_path)]) == 2


def test_bad_windows_exit_code(fixture_path, tmp_path, capsys):
    code = main(
        ["groups", "--input", str(fixture_path), "--out-dir", str(tmp_path), "--windows", "1995-1990"]
    )
    assert code == 2


def test_bad_horizon_exit_code(fixture_path, tmp_path, capsys):
    code = main(
        ["citation-age", "--input", str(fixture_path), "--out-dir", str(tmp_path), "--horizon", "0"]
    )
    assert code == 2


def test_format_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    assert main(["summary", "--input", str(bad), "--out-dir", str(tmp_path)]) == 4
    assert not (tmp_path / "summary.csv").exists()


def test_duplicate_doi_exit_code(tmp_path, capsys):
    path = write_jsonl(
        tmp_path / "dup.jsonl",
        [paper("a", 1990, ["x"], []), paper("a", 1991, ["y"], [])],
    )
    assert main(["summary", "--input", str(path), "--out-dir", str(tmp_path)]) == 5


def test_empty_period_exit_code(fixture_path, tmp_path, capsys):
    code = main(
        [
            "summary",
            "--input", str(fixture_path),
            "--out-dir", str(tmp_path),
            "--period", "1950-1960",
        ]
    )
    assert code == 6


@pytest.mark.parametrize("command", ["summary", "pacs-counts", "diversity-dist", "citation-age"])
def test_empty_period_exit_code_for_every_period_command(command, fixture_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(command, fixture_path, out, "--period", "1800-1801") == 6
    assert capsys.readouterr().err == f"pacsdiv {command}: error: no papers in 1800-1801\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["summary", "pacs-counts", "diversity-dist", "citation-age"])
def test_corpus_without_papers_exit_code(command, tmp_path, capsys):
    # blank lines only: no year span, so no default period to read
    blank = tmp_path / "blank.jsonl"
    blank.write_text("\n  \n\n")
    out = tmp_path / "out"
    assert run_cli(command, blank, out) == 6
    assert capsys.readouterr().err == f"pacsdiv {command}: error: corpus has no papers\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("cohorts", ["1800-1801", "1800-1801,1990-1997"])
@pytest.mark.parametrize("command", ["diversity-citations", "citation-dist", "share"])
def test_empty_cohort_exit_code(command, cohorts, fixture_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(command, fixture_path, out, "--cohorts", cohorts) == 7
    assert capsys.readouterr().err == f"pacsdiv {command}: error: no diversity-keyed papers in 1800-1801\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "command, flag, ranges, label",
    [
        ("groups", "--windows", "1990-95,1990-95,1995-00", "windows lists 1990-1995"),
        ("flows", "--windows", "1990-95,1990-95,1995-00", "windows lists 1990-1995"),
        ("diversity-citations", "--cohorts", "1990-1997,1990-1997", "cohorts lists 1990-1997"),
        ("citation-dist", "--cohorts", "1990-1997,1990-1997", "cohorts lists 1990-1997"),
        ("share", "--cohorts", "1990-97,1997-04,1990-1997", "cohorts lists 1990-1997"),
    ],
    ids=["groups", "flows", "diversity-citations", "citation-dist", "share"],
)
def test_repeated_range_exit_code(command, flag, ranges, label, fixture_path, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli(command, fixture_path, out, flag, ranges) == 2
    assert capsys.readouterr().err == f"pacsdiv {command}: error: {label} more than once\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("source", ["flag", "config"])
def test_horizon_above_9999_rejected_before_load(source, tmp_path, capsys):
    # the input does not exist: exit 2, not 3, shows nothing was loaded
    args = ["citation-age", "--input", str(tmp_path / "missing.jsonl"), "--out-dir", str(tmp_path)]
    if source == "flag":
        args += ["--horizon", "10000"]
    else:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"horizon": 10000}))
        args += ["--config", str(config)]
    assert main(args) == 2
    assert capsys.readouterr().err == "pacsdiv citation-age: error: horizon must be <= 9999, got 10000\n"


def test_horizon_9999_accepted(fixture_path, tmp_path, capsys):
    assert run_cli("citation-age", fixture_path, tmp_path, "--horizon", "9999") == 0
    rows = (tmp_path / "citation-age.csv").read_text().splitlines()
    assert len(rows) == 1 + 10000
    assert rows[-1].startswith("9999,")


def test_overlapping_windows_exit_code(fixture_path, tmp_path, capsys):
    code = main(
        [
            "flows",
            "--input", str(fixture_path),
            "--out-dir", str(tmp_path),
            "--windows", "1990-96,1995-00",
        ]
    )
    assert code == 8


def test_empty_windows_are_not_an_error(fixture_path, tmp_path, capsys):
    # unlike an empty period (exit 6) or cohort (exit 7): the default
    # windows reach past most corpora, so an empty one is left to the table
    assert run_cli("groups", fixture_path, tmp_path, "--windows", "1800-05,1805-10") == 0
    assert (tmp_path / "groups.csv").read_text() == "window,G1,G2,G3,G4\n"
    assert run_cli("flows", fixture_path, tmp_path, "--windows", "1800-05,1805-10") == 0
    with open(tmp_path / "flows.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 24
    assert {row["count"] for row in rows} == {"0"}


def test_lenient_writes_dropped_report(fixture_path, tmp_path, capsys):
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text(fixture_path.read_text() + "garbage\n")
    code = main(
        ["summary", "--input", str(mixed), "--out-dir", str(tmp_path), "--lenient", *GOLDEN_ARGS]
    )
    assert code == 0
    report = json.loads((tmp_path / "summary.dropped.json").read_text())
    assert report["lines_rejected"] == 1
    assert report["lines"][0]["line"] == 13
    # the valid records still produce the golden table
    assert (tmp_path / "summary.csv").read_bytes() == (GOLDEN_DIR / "summary.csv").read_bytes()


def test_validate_is_always_lenient(fixture_path, tmp_path, capsys):
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text("garbage\n" + fixture_path.read_text())
    assert main(["validate", "--input", str(mixed), "--out-dir", str(tmp_path)]) == 0
    rows = (tmp_path / "validate.csv").read_text().splitlines()
    assert "lines_rejected,1" in rows
    assert (tmp_path / "validate.dropped.json").exists()
    assert json.loads((tmp_path / "validate.meta.json").read_text())["settings"]["lenient"] is True


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_validate_counts_distinct_authors(seed, tmp_path, capsys):
    path = messy_corpus(tmp_path / "messy.jsonl", 300, seed)
    assert main(["validate", "--input", str(path), "--out-dir", str(tmp_path)]) == 0
    expected = len(raw_ingest_recount(path)["papers_by_author"])
    assert f"authors,{expected}" in (tmp_path / "validate.csv").read_text().splitlines()
    assert json.loads((tmp_path / "validate.meta.json").read_text())["corpus"]["authors"] == expected


@pytest.mark.parametrize(
    "command, flags",
    [(command, ()) for command in ALL_COMMANDS] + [("flows", ("--author-mode", "cumulative"))],
    ids=[*ALL_COMMANDS, "flows-cumulative"],
)
def test_corpus_facts_computed_once_per_run(command, flags, fixture_path, tmp_path, monkeypatch, capsys):
    calls = []
    corpus_facts = cli._corpus_facts
    year_span = cli.Corpus.year_span

    def counting_facts(corpus):
        calls.append("facts")
        return corpus_facts(corpus)

    def counting_span(corpus):
        calls.append("year_span")
        return year_span(corpus)

    monkeypatch.setattr(cli, "_corpus_facts", counting_facts)
    monkeypatch.setattr(cli.Corpus, "year_span", counting_span)
    assert run_cli(command, fixture_path, tmp_path, *flags) == 0
    assert sorted(calls) == ["facts", "year_span"]


# a period of 1 to 4 years within 1989-2003, around the messy corpora's 1990-2001
_PERIODS = st.none() | st.builds(
    lambda start, length: (start, min(start + length, 2003)), st.integers(1989, 2002), st.integers(1, 4)
)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_records=st.integers(20, 200),
    horizon=st.integers(1, 12),
    split=st.integers(1991, 2001),
    include_zero_pacs=st.booleans(),
    period=_PERIODS,
)
def test_citation_tables_match_raw_recount(seed, n_records, horizon, split, include_zero_pacs, period):
    cohorts = [(1990, split), (split, 2002)]
    flags = ["--lenient", "--horizon", str(horizon), "--cohorts", ",".join(f"{a}-{b}" for a, b in cohorts)]
    if include_zero_pacs:
        flags.append("--include-zero-pacs")
    if period:
        flags += ["--period", "{}-{}".format(*period)]
    with tempfile.TemporaryDirectory() as tmp:
        path = messy_corpus(Path(tmp) / "messy.jsonl", n_records, seed)
        expected = raw_citation_tables(path, cohorts, horizon, include_zero_pacs, period)
        for command, rows in expected.items():
            code = main([command, "--input", str(path), "--out-dir", tmp, *flags])
            if rows is None:
                assert code == (6 if command in ("summary", "citation-age") else 7), command
                continue
            assert code == 0, command
            with open(Path(tmp) / f"{command}.csv", newline="", encoding="utf-8") as handle:
                written = list(csv.reader(handle))[1:]
            assert written == rows, command


# every command in turn, in one interpreter; prints each exit code
_RUN_ALL_COMMANDS = f"""
import sys
from pacsdiv.cli import main
for command in {ALL_COMMANDS!r}:
    print(command, main([command, "--input", sys.argv[1], "--out-dir", "out", *sys.argv[2:]]))
"""


@pytest.mark.parametrize("lenient", [False, True], ids=["strict", "lenient"])
@pytest.mark.parametrize("corpus", ["golden", "messy"])
def test_outputs_do_not_depend_on_the_hash_seed(corpus, lenient, fixture_path, tmp_path):
    if corpus == "golden":
        path, extra = fixture_path, GOLDEN_ARGS
    else:
        path, extra = messy_corpus(tmp_path / "messy.jsonl", 300, seed=1), []
    extra = [*extra, "--lenient"] if lenient else extra
    package_root = str(Path(cli.__file__).parents[1])
    results = []
    for hash_seed in ("1", "2"):
        cwd = tmp_path / f"hash-seed-{hash_seed}"
        cwd.mkdir()
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": package_root}
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_ALL_COMMANDS, str(path), *extra],
            cwd=cwd, env=env, capture_output=True, timeout=120,
        )
        files = {p.name: p.read_bytes() for p in sorted((cwd / "out").iterdir())}
        results.append((proc.returncode, proc.stdout, proc.stderr, files))
    assert results[0] == results[1]
    returncode, stdout, _, files = results[0]
    assert returncode == 0 and stdout.count(b"\n") > len(ALL_COMMANDS)
    assert "validate.meta.json" in files and ("validate.dropped.json" in files) == (corpus == "messy")


def test_invalid_utf8_line_lenient(fixture_path, tmp_path, capsys):
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_bytes(fixture_path.read_bytes() + b'{"doi": "10.1103/P13", "title": "\xff"}\n')
    code = main(
        ["summary", "--input", str(mixed), "--out-dir", str(tmp_path), "--lenient", *GOLDEN_ARGS]
    )
    assert code == 0
    report = json.loads((tmp_path / "summary.dropped.json").read_text())
    assert report == {"lines_rejected": 1, "lines": [{"line": 13, "reason": "not valid UTF-8"}]}
    assert (tmp_path / "summary.csv").read_bytes() == (GOLDEN_DIR / "summary.csv").read_bytes()
    assert main(["validate", "--input", str(mixed), "--out-dir", str(tmp_path / "v")]) == 0
    assert "lines_rejected,1" in (tmp_path / "v" / "validate.csv").read_text().splitlines()


def test_invalid_utf8_line_strict_exit_code(fixture_path, tmp_path, capsys):
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_bytes(b"\xff\n" + fixture_path.read_bytes())
    assert main(["summary", "--input", str(mixed), "--out-dir", str(tmp_path)]) == 4
    assert "line 1: not valid UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize(
    "line, reason",
    [
        ("[" * 100_000, "invalid JSON: nested too deeply"),
        ('{"volume": ' + "7" * 5000 + "}", "invalid JSON: integer literal longer than 4300 digits"),
        # whitespace JSON does not allow is no blank line
        ("\u00a0", "invalid JSON: Expecting value"),
        ("\x0b", "invalid JSON: Expecting value"),
        ("\x0c\r", "invalid JSON: Expecting value"),
        ("\x1c\x1f", "invalid JSON: Expecting value"),
        (" \u2028\t", "invalid JSON: Expecting value"),
    ],
    ids=["deep-nesting", "long-integer", "nbsp", "vertical-tab", "form-feed", "separators", "line-separator"],
)
def test_undecodable_line_exit_codes(line, reason, fixture_path, tmp_path, capsys):
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text(fixture_path.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
    assert main(["summary", "--input", str(mixed), "--out-dir", str(tmp_path / "strict")]) == 4
    assert capsys.readouterr().err == f"pacsdiv summary: error: line 13: {reason}\n"
    out_dir = tmp_path / "lenient"
    assert main(["summary", "--input", str(mixed), "--out-dir", str(out_dir), "--lenient", *GOLDEN_ARGS]) == 0
    report = json.loads((out_dir / "summary.dropped.json").read_text())
    assert report == {"lines_rejected": 1, "lines": [{"line": 13, "reason": reason}]}
    assert (out_dir / "summary.csv").read_bytes() == (GOLDEN_DIR / "summary.csv").read_bytes()


@pytest.fixture(params=["gc-on", "gc-off", "caller-frozen"])
def caller_gc(request):
    """The caller's collector state; with "caller-frozen", a frozen list of its own."""
    was_enabled = gc.isenabled()
    if request.param == "gc-off":
        gc.disable()
    own = None
    if request.param == "caller-frozen":
        own = ["the caller's own"]
        gc.freeze()
    yield own
    gc.unfreeze()
    (gc.enable if was_enabled else gc.disable)()


def _is_frozen(obj):
    # gc.get_objects() lists the three generations, never the frozen objects
    return gc.is_tracked(obj) and not any(o is obj for o in gc.get_objects())


@pytest.mark.parametrize("exit_code", [0, 3, 4])
def test_run_restores_gc_state(caller_gc, exit_code, fixture_path, tmp_path, monkeypatch, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(fixture_path.read_text() + ("garbage\n" if exit_code == 4 else ""))
    out_dir = tmp_path / "out"
    if exit_code == 3:
        (out_dir / "summary.csv").mkdir(parents=True)  # the table cannot be written
    during_build = []
    build = cli.COMMANDS["summary"]

    def recording_build(loaded, cfg):
        during_build.append((gc.get_freeze_count(), _is_frozen(loaded.papers)))
        return build(loaded, cfg)

    monkeypatch.setitem(cli.COMMANDS, "summary", recording_build)
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    assert main(["summary", "--input", str(corpus), "--out-dir", str(out_dir)]) == exit_code
    assert gc.isenabled() is enabled
    assert len(during_build) == (exit_code != 4)
    if caller_gc is None:
        assert frozen == gc.get_freeze_count() == 0
        # the loaded corpus is frozen while its table is built
        assert all(count > 0 and loaded for count, loaded in during_build)
    else:
        # the caller's objects stay frozen, and nothing else is frozen with them
        assert _is_frozen(caller_gc)
        assert gc.get_freeze_count() <= frozen
        assert all(count <= frozen and not loaded for count, loaded in during_build)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("pacsdiv ")


def test_version_declared_once():
    # the sidecar and --version read pacsdiv.__version__; the package
    # metadata takes it from there
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((Path(__file__).parent.parent / "pyproject.toml").read_text(encoding="utf-8"))
    assert "version" not in pyproject["project"]
    assert "version" in pyproject["project"]["dynamic"]
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "pacsdiv.__version__"}


def test_include_zero_pacs_flag(fixture_path, tmp_path, capsys):
    run_cli("share", fixture_path, tmp_path, "--include-zero-pacs")
    rows = (tmp_path / "share.csv").read_text().splitlines()
    # P06 joins the 1990-1997 cohort at diversity 0: 2 of 7 papers
    assert rows[1].startswith("0,28.571429,")


def test_author_mode_flag(fixture_path, tmp_path, capsys):
    run_cli("groups", fixture_path, tmp_path, "--author-mode", "cumulative")
    rows = (tmp_path / "groups.csv").read_text().splitlines()
    assert rows[2] == "1995-2000,0.200000,0.400000,0.400000,0.000000"


@pytest.mark.parametrize("below", ["", "sub"], ids=["is-a-file", "under-a-file"])
def test_unwritable_out_dir_exit_code(below, fixture_path, tmp_path, capsys):
    (tmp_path / "F").write_text("")
    out_dir = tmp_path / "F" / below
    assert main(["summary", "--input", str(fixture_path), "--out-dir", str(out_dir)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"pacsdiv summary: error: cannot write to {out_dir}: ")
    assert err.count("\n") == 1


def test_clean_rerun_removes_stale_dropped_report(fixture_path, tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    out_dir = tmp_path / "out"
    argv = ["validate", "--input", str(corpus), "--out-dir", str(out_dir)]
    corpus.write_text(fixture_path.read_text() + "garbage\n")
    assert main(argv) == 0
    assert json.loads((out_dir / "validate.dropped.json").read_text())["lines_rejected"] == 1
    corpus.write_text(fixture_path.read_text())
    capsys.readouterr()
    assert main(argv) == 0
    assert "lines_rejected,0" in (out_dir / "validate.csv").read_text().splitlines()
    assert sorted(p.name for p in out_dir.iterdir()) == ["validate.csv", "validate.meta.json"]
    written = [str(out_dir / "validate.csv"), str(out_dir / "validate.meta.json")]
    assert capsys.readouterr().out.splitlines() == written


def test_unwritable_out_dir_fails_before_the_load(tmp_path, capsys):
    corpus = tmp_path / "malformed.jsonl"
    corpus.write_text("not json\n")
    (tmp_path / "F").write_text("")
    out_dir = tmp_path / "F" / "sub"
    assert main(["summary", "--input", str(corpus), "--out-dir", str(out_dir)]) == 3
    assert capsys.readouterr().err.startswith(f"pacsdiv summary: error: cannot write to {out_dir}: ")


def test_sidecar_describes_the_bytes_loaded(fixture_path, tmp_path, monkeypatch, capsys):
    corpus = tmp_path / "corpus.jsonl"
    original = fixture_path.read_bytes()
    corpus.write_bytes(original)
    build = cli.COMMANDS["summary"]

    def build_then_overwrite_input(loaded, cfg):
        corpus.write_bytes(b"changed after the load\n")
        return build(loaded, cfg)

    monkeypatch.setitem(cli.COMMANDS, "summary", build_then_overwrite_input)
    assert main(["summary", "--input", str(corpus), "--out-dir", str(tmp_path / "out")]) == 0
    meta = json.loads((tmp_path / "out" / "summary.meta.json").read_text())
    assert meta["input"]["sha256"] == hashlib.sha256(original).hexdigest()
    assert meta["input"]["size_bytes"] == len(original)


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_input_opened_once(command, fixture_path, tmp_path, monkeypatch, capsys):
    opens = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file) == fixture_path:
            opens.append(file)
        return real_open(file, *args, **kwargs)

    # pathlib opens files through io.open, everything else through builtins.open
    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)
    assert run_cli(command, fixture_path, tmp_path) == 0
    assert len(opens) == 1
