"""The README's library example runs against the golden fixture."""

import ast
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def _library_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under ## Library"
    return match.group(1)


def test_readme_library_example(fixture_path):
    source = _library_block()
    assert '"corpus.jsonl"' in source
    source = source.replace('"corpus.jsonl"', repr(str(fixture_path)))
    namespace = {}
    exec(compile(source, "README.md", "exec"), namespace)
    # lines annotated "expr  # value" must still print that value
    annotated = re.findall(r"^(\S.*?)\s+#\s*(-?\d+)\s*$", source, re.MULTILINE)
    assert annotated
    for expr, expected in annotated:
        assert eval(expr, namespace) == int(expected), expr


def test_readme_library_imports_are_public():
    import pacsdiv

    imported = [
        alias.name
        for node in ast.walk(ast.parse(_library_block()))
        if isinstance(node, ast.ImportFrom) and node.module == "pacsdiv"
        for alias in node.names
    ]
    assert imported
    assert set(imported) <= set(pacsdiv.__all__)


def test_readme_commands_table_is_the_registry():
    from pacsdiv.cli import COMMANDS

    section = README.read_text(encoding="utf-8").split("\n## Commands\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| (.+?) \|$", section, re.MULTILINE)
    assert rows == [(name, builder.__doc__) for name, builder in COMMANDS.items()]


def test_readme_options_table_is_the_parser():
    from pacsdiv.cli import DEFAULTS, OUT_DIR_ENV, _build_parser

    section = README.read_text(encoding="utf-8").split("\n## Options\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(--[^`]+)` \| (.+?) \| .+ \|$", section, re.MULTILINE)
    commands = next(action for action in _build_parser()._actions if action.dest == "command")
    # every command takes the same flags
    flags = [action for action in commands.choices["summary"]._actions if action.dest != "help"]
    # settings DEFAULTS has no value for, or whose None the run resolves
    documented = {"input": "—", "out_dir": f"`${OUT_DIR_ENV}` or `.`", "config": "—", "period": "full corpus span"}

    def default_cell(dest):
        if dest in documented:
            return documented[dest]
        return "off" if DEFAULTS[dest] is False else f"`{DEFAULTS[dest]}`"

    assert flags
    assert rows == [(action.option_strings[0], default_cell(action.dest)) for action in flags]


def test_readme_counter_table_is_ingest_stats():
    from pacsdiv import IngestStats

    section = README.read_text(encoding="utf-8").split("\n## Ingest counters\n", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"^\| `([^`]+)` \|", section, re.MULTILINE)
    assert names == list(IngestStats().as_dict())


def test_readme_corpus_table_is_corpus_facts(fixture_corpus):
    from pacsdiv.cli import _corpus_facts

    section = README.read_text(encoding="utf-8").split("\n## Corpus facts\n", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"^\| `([^`]+)` \|", section, re.MULTILINE)
    assert names == list(_corpus_facts(fixture_corpus))


def test_readme_exit_codes_are_reachable():
    from pacsdiv.cli import EXIT_CODES, EXIT_OTHER

    section = README.read_text(encoding="utf-8").split("\n## Exit codes\n", 1)[1].split("\n## ", 1)[0]
    codes = [int(code) for code in re.findall(r"^\| (\d+) \|", section, re.MULTILINE)]
    assert sorted(codes) == sorted({0, EXIT_OTHER} | set(EXIT_CODES.values()))


def test_readme_states_the_nesting_cap():
    from pacsdiv.corpus import _MAX_DEPTH

    section = README.read_text(encoding="utf-8").split("\n## Input format\n", 1)[1].split("\n## ", 1)[0]
    assert f"more than {_MAX_DEPTH} levels deep" in " ".join(section.split())
