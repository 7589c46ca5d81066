"""Byte-identity matrix: two source trees, the same CLI runs, every output compared.

    python tests/identity_matrix.py OLD_TREE/src NEW_TREE/src [--work DIR]

Generates every corpus once, into one directory both sides read: the
golden fixture (run once plain and once with the golden arguments), the
seed-1 ``ingest``, ``authors`` and ``citations`` corpora of
``perfbench/gen.py``, ``messy_corpus`` seeds 1-3 at 300 records and a
corpus of blank lines only. Each corpus runs under 11 flag sets x 11
commands (1,089 matrix runs). The golden fixture also runs each flag set
as a ``--config`` file instead of flags (121 runs), and ``groups`` once
with each of 8 bad config files (129 config-file runs in all).
``--help``, ``--version`` and the 11 command ``--help`` outputs run
once. Each side runs all of it in its own interpreter, with
``PYTHONHASHSEED=0``, umask 022 and the same output path, and records
each run's exit code, stdout, stderr and every written file's sha256
and mode. Prints the counts and exits 1 on any difference.

pytest does not collect this file; it takes minutes, not seconds.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
sys.path[:0] = [str(TESTS), str(ROOT / "src")]

from conftest import ALL_COMMANDS, GOLDEN_ARGS  # noqa: E402
from helpers import messy_corpus  # noqa: E402

FLAG_SETS = [
    [],
    ["--lenient"],
    ["--lenient", "--format", "json"],
    ["--lenient", "--include-zero-pacs", "--author-mode", "cumulative"],
    ["--lenient", "--period", "1800-1801"],
    ["--lenient", "--cohorts", "1800-1801,1990-1997"],
    # cohorts out of order and overlapping, filed in one pass
    ["--lenient", "--cohorts", "1994-2003,1985-1994,1990-1997"],
    ["--lenient", "--windows", "1990-94,1994-98,1998-02", "--groups", "0-2,3-6,7+", "--bands", "0-1,2-4,5+"],
    ["--lenient", "--horizon", "3"],
    # windows out of end order, overlapping, two sharing an end
    ["--lenient", "--windows", "1995-00,1985-00,1990-95,1992-97"],
    ["--lenient", "--windows", "1995-00,1985-00,1990-95,1992-97", "--author-mode", "cumulative"],
]
# config files rejected with exit 2, one bad key or value each
BAD_CONFIGS = [
    {"jobs": 1},
    {"lenient": "false"},
    {"include_zero_pacs": "no"},
    {"horizon": True},
    {"horizon": 10.9},
    {"windows": ["1985-90"]},
    {"period": 1990},
    {"groups": 5},
]

# Runs one side's argv lists through cli.main in this interpreter and
# writes one result per run to the file named by argv[2].
_CHILD = r"""
import contextlib, hashlib, io, json, os, shutil, sys
from pathlib import Path
from pacsdiv import cli

os.umask(0o022)
runs = json.loads(Path(sys.argv[1]).read_text())
out = Path(sys.argv[3])
results = []
for argv in runs:
    shutil.rmtree(out, ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    files = {}
    if out.is_dir():
        for path in sorted(out.iterdir()):
            files[path.name] = [hashlib.sha256(path.read_bytes()).hexdigest(), oct(path.stat().st_mode & 0o7777)]
    results.append([code, stdout.getvalue(), stderr.getvalue(), files])
shutil.rmtree(out, ignore_errors=True)
Path(sys.argv[2]).write_text(json.dumps(results))
"""


def _generate(work: Path) -> dict[str, tuple[Path, list[str]]]:
    """Write every corpus into ``work``: name -> (path, arguments every run of it gets)."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    golden = work / "golden.jsonl"
    shutil.copyfile(TESTS / "data" / "golden_corpus.jsonl", golden)
    corpora = {"golden": (golden, []), "golden-args": (golden, list(GOLDEN_ARGS))}
    for workload in ("ingest", "authors", "citations"):
        path = work / f"gen-{workload}-1.jsonl"
        gen.generate(workload, 1, path)
        corpora[f"gen-{workload}"] = (path, [])
    for seed in (1, 2, 3):
        corpora[f"messy-{seed}"] = (messy_corpus(work / f"messy-{seed}.jsonl", 300, seed), [])
    blank = work / "blank.jsonl"
    blank.write_bytes(b"\n   \n\t\n\r\n\n")
    corpora["blank"] = (blank, [])
    return corpora


def _config_file(flags: list[str]) -> dict:
    """The config-file object that sets what ``flags`` set."""
    settings, given = {}, iter(flags)
    for flag in given:
        key = flag[2:].replace("-", "_")
        if key in ("lenient", "include_zero_pacs"):
            settings[key] = True
        else:
            value = next(given)
            settings[key] = int(value) if key == "horizon" else value
    return settings


def _runs(corpora, work: Path) -> dict[str, list[tuple[str, list[str]]]]:
    """(label, argv) of every run, by kind: the matrix, the config-file runs, the help and version outputs."""
    out = str(work / "out")
    matrix = [
        (f"{name} {' '.join(flags) or '(defaults)'} {command}",
         [command, "--input", str(path), "--out-dir", out, *extra, *flags])
        for name, (path, extra) in corpora.items()
        for flags in FLAG_SETS
        for command in ALL_COMMANDS
    ]
    golden = str(corpora["golden"][0])
    config_runs = []
    for i, settings in enumerate([_config_file(flags) for flags in FLAG_SETS] + BAD_CONFIGS):
        config = work / f"config-{i}.json"
        config.write_text(json.dumps(settings))
        commands = ALL_COMMANDS if i < len(FLAG_SETS) else ["groups"]
        config_runs += [
            (f"golden --config {json.dumps(settings)} {command}",
             [command, "--input", golden, "--out-dir", out, "--config", str(config)])
            for command in commands
        ]
    help_runs = [("--help", ["--help"]), ("--version", ["--version"])]
    help_runs += [(f"{command} --help", [command, "--help"]) for command in ALL_COMMANDS]
    return {"matrix": matrix, "config-file": config_runs, "help and version": help_runs}


def _side(src: Path, runs_file: Path, work: Path, name: str) -> list:
    results = work / f"results-{name}.json"
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": str(src.resolve())}
    subprocess.run(
        [sys.executable, "-c", _CHILD, str(runs_file), str(results), str(work / "out")],
        cwd=work, env=env, check=True,
    )
    return json.loads(results.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path, help="src directory of the first tree")
    parser.add_argument("new_src", type=Path, help="src directory of the second tree")
    parser.add_argument("--work", type=Path, help="directory for the corpora and outputs (default: a temporary one)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = (args.work or Path(tmp)).resolve()
        work.mkdir(parents=True, exist_ok=True)
        corpora = _generate(work)
        kinds = _runs(corpora, work)
        runs = [run for kind_runs in kinds.values() for run in kind_runs]
        runs_file = work / "runs.json"
        runs_file.write_text(json.dumps([argv for _, argv in runs]))
        old = _side(args.old_src, runs_file, work, "old")
        new = _side(args.new_src, runs_file, work, "new")
    differing = [label for (label, _), a, b in zip(runs, old, new) if a != b]
    counted = len(kinds["matrix"]) + len(kinds["config-file"])
    exits = Counter(code for code, *_ in old[:counted])
    files = sum(len(result[3]) for result in old)
    print(", ".join(f"{len(kind_runs)} {kind} runs" for kind, kind_runs in kinds.items()) + " per side")
    print("matrix and config-file exit codes: " + ", ".join(f"{n} exit {code}" for code, n in sorted(exits.items())))
    print(f"{files} files written per side")
    print(f"{len(differing)} runs differ")
    for label in differing[:20]:
        print(f"  {label}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
