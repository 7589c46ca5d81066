import hashlib
import json

import pytest

from pacsdiv.cli import main
from conftest import ALL_COMMANDS, GOLDEN_ARGS, GOLDEN_DIR, paper, write_jsonl


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
    run_cli("diversity-citations", fixture_path, tmp_path / "b", "--jobs", "2")
    for name in ("diversity-citations.csv", "diversity-citations.meta.json"):
        left = (tmp_path / "a" / name).read_bytes()
        right = (tmp_path / "b" / name).read_bytes()
        assert left.replace(b'"jobs": 1', b'"jobs": 2') == right


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


def test_empty_cohort_exit_code(fixture_path, tmp_path, capsys):
    code = main(
        [
            "diversity-citations",
            "--input", str(fixture_path),
            "--out-dir", str(tmp_path),
            "--cohorts", "2050-2060",
        ]
    )
    assert code == 7


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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("pacsdiv ")


def test_include_zero_pacs_flag(fixture_path, tmp_path, capsys):
    run_cli("share", fixture_path, tmp_path, "--include-zero-pacs")
    rows = (tmp_path / "share.csv").read_text().splitlines()
    # P06 joins the 1990-1997 cohort at diversity 0: 2 of 7 papers
    assert rows[1].startswith("0,28.571429,")


def test_author_mode_flag(fixture_path, tmp_path, capsys):
    run_cli("groups", fixture_path, tmp_path, "--author-mode", "cumulative")
    rows = (tmp_path / "groups.csv").read_text().splitlines()
    assert rows[2] == "1995-2000,0.200000,0.400000,0.400000,0.000000"
