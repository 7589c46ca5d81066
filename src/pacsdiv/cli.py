"""Command-line front end: analysis commands with CSV/JSON export.

Every command loads the corpus, computes one table, and writes it to
``<command>.<format>`` plus a ``<command>.meta.json`` sidecar recording
the resolved configuration, the sha256 and size of the input bytes that
were loaded and the tool version. Writes are atomic: each file is
created exclusively by ``open()`` under a random hidden name beside its
target and renamed into place, so it has the mode a plain ``open()``
gives (0644 under a file-creation mask of 022, or what a directory's
default ACL sets). All orderings are explicitly sorted, so identical
input and configuration produce byte-identical outputs on every run.

Once loaded, the corpus is moved to the collector's frozen generation
(``gc.freeze``) until the command's files are written: it holds no
reference cycles, and frozen it is never re-walked by the collections
that building the table triggers. A caller that already holds frozen
objects keeps them frozen, and no freeze is made for it.

Configuration comes from flags, optionally layered over a JSON config
file (flags win; each file value must have its key's JSON type), over
built-in defaults. ``_FLAGS`` declares every setting once: its default,
its JSON types and its help text.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import hashlib
import io
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Sequence

from . import __version__
from . import cohorts as co
from .corpus import (
    Corpus,
    IngestConfig,
    corpus_summary,
    diversity_distributions,
    load_corpus,
    pacs_count_distributions,
    papers_with_pacs_fraction_by_year,
)
from .errors import (
    ConfigError,
    DuplicateDoi,
    EmptyCohort,
    EmptyPeriod,
    FormatError,
    IoFailure,
    OverlappingWindows,
    PacsDivError,
)
from .years import YearRange, parse_year_range, parse_year_ranges

OUT_DIR_ENV = "PACSDIV_OUT_DIR"
FORMATS = ("csv", "json")
AUTHOR_MODES = ("windowed", "cumulative")
# dates are four-digit years, so no citation age exceeds 9998: a longer
# horizon would only add rows of zeros
MAX_HORIZON = 9999

# One row per flag, in --help order: name -> (default, the JSON types a
# config file may give it, help text, other argparse options). A help
# text's %(default)s is the row's default. No config file sets --config.
_FLAGS: dict[str, tuple[Any, tuple[type, ...], str, dict[str, Any]]] = {
    "input": (None, (str,), "JSON Lines metadata file", {}),
    "out_dir": (None, (str,), f"output directory (default ${OUT_DIR_ENV} or .)", {}),
    "format": ("csv", (str,), "table format (default %(default)s)", {"choices": FORMATS}),
    "config": (None, (), "JSON config file; explicit flags win", {}),
    "windows": (
        "1985-90,1990-95,1995-00,2000-05,2005-10", (str,), "comma-separated year windows, e.g. 1985-90,1990-95", {}
    ),
    "cohorts": ("1985-1994,1994-2003", (str,), "comma-separated cohort year ranges", {}),
    "period": (
        None,
        (str, type(None)),
        "year range for summary, pacs-counts, diversity-dist and citation-age (default: full corpus span)",
        {},
    ),
    "horizon": (10, (int,), "citation horizon in years (default %(default)s)", {"type": int}),
    "groups": ("0-3,4-9,10-27,28+", (str,), "diversity group boundaries, e.g. %(default)s", {}),
    "bands": ("0-2,3-5,6+", (str,), "diversity band boundaries, e.g. %(default)s", {}),
    "include_zero_pacs": (
        False,
        (bool,),
        "admit papers without codes into diversity-keyed tables as diversity 0",
        {"action": "store_true"},
    ),
    "author_mode": (
        "windowed",
        (str,),
        "author diversity from window-only codes or cumulative-to-window codes",
        {"choices": AUTHOR_MODES},
    ),
    "lenient": (False, (bool,), "skip and count malformed lines instead of aborting", {"action": "store_true"}),
}
# The keys a config file may set, with their JSON types and defaults.
_CONFIG_TYPES: dict[str, tuple[type, ...]] = {name: row[1] for name, row in _FLAGS.items() if row[1]}
DEFAULTS: dict[str, Any] = {name: _FLAGS[name][0] for name in _CONFIG_TYPES}
_JSON_TYPE_NAMES = {str: "string", int: "integer", bool: "boolean", type(None): "null"}

EXIT_CODES: dict[type, int] = {
    ConfigError: 2,
    IoFailure: 3,
    FormatError: 4,
    DuplicateDoi: 5,
    EmptyPeriod: 6,
    EmptyCohort: 7,
    OverlappingWindows: 8,
}
EXIT_OTHER = 1


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one command invocation."""

    input: Path
    out_dir: Path
    format: str
    windows: tuple[YearRange, ...]
    cohorts: tuple[YearRange, ...]
    period: YearRange | None
    horizon: int
    groups: co.DiversityGroupScheme
    bands: co.DiversityGroupScheme
    include_zero_pacs: bool
    author_mode: str
    lenient: bool


# ---------------------------------------------------------------------------
# tables

@dataclass(frozen=True)
class Table:
    """Column names and rows; every fraction or mean cell is a ``float``."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


def render_csv(table: Table) -> bytes:
    """CSV with floats to 6 decimals and every other cell as ``str`` gives it."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([f"{v:.6f}" if isinstance(v, float) else str(v) for v in row])
    return buf.getvalue().encode("utf-8")


def render_json(table: Table) -> bytes:
    """A JSON list of row objects, floats rounded to 6 decimals."""
    rows = [
        {name: round(v, 6) if isinstance(v, float) else v for name, v in zip(table.columns, row)}
        for row in table.rows
    ]
    return _json_bytes(rows)


def _json_bytes(value) -> bytes:
    return (json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def _atomic_write(path: Path, payload: bytes) -> None:
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}")
    handle = open(tmp, "xb")  # outside the try: a name it did not create is not removed
    try:
        with handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# command builders


def _period(cfg: RunConfig) -> YearRange:
    """The resolved ``--period``; None there means the corpus has no papers."""
    if cfg.period is None:
        raise EmptyPeriod("corpus has no papers")
    return cfg.period


def build_summary(corpus: Corpus, cfg: RunConfig) -> Table:
    """corpus-level averages over a period"""
    return Table(("statistic", "value"), tuple(corpus_summary(corpus, _period(cfg)).items()))


def build_pacs_coverage(corpus: Corpus, cfg: RunConfig) -> Table:
    """fraction of papers with codes, per year"""
    fractions = papers_with_pacs_fraction_by_year(corpus)
    rows = tuple((year, frac) for year, frac in sorted(fractions.items()))
    return Table(("year", "fraction"), rows)


def _distribution_table(
    corpus: Corpus, cfg: RunConfig, distributions: Callable[..., tuple[dict, dict]], value_column: str
) -> Table:
    authors, papers = distributions(corpus, _period(cfg), include_zero_pacs=cfg.include_zero_pacs)
    rows = [("author", v, f) for v, f in sorted(authors.items())]
    rows += [("paper", v, f) for v, f in sorted(papers.items())]
    return Table(("entity", value_column, "fraction"), tuple(rows))


def build_pacs_counts(corpus: Corpus, cfg: RunConfig) -> Table:
    """code-count distributions for authors and papers"""
    return _distribution_table(corpus, cfg, pacs_count_distributions, "code_count")


def build_diversity_dist(corpus: Corpus, cfg: RunConfig) -> Table:
    """diversity distributions for authors and papers"""
    return _distribution_table(corpus, cfg, diversity_distributions, "diversity")


def build_groups(corpus: Corpus, cfg: RunConfig) -> Table:
    """fraction of authors per diversity group, per window"""
    table = co.group_fraction_table(
        corpus,
        cfg.windows,
        cfg.groups,
        cumulative=cfg.author_mode == "cumulative",
        include_zero_pacs=cfg.include_zero_pacs,
    )
    rows = tuple(
        (window,) + tuple(fractions[label] for label in cfg.groups.labels)
        for window, fractions in table.items()
    )
    return Table(("window", *cfg.groups.labels), rows)


def build_flows(corpus: Corpus, cfg: RunConfig) -> Table:
    """author transition flows between groups across windows"""
    matrices = co.transition_flows(
        corpus,
        cfg.windows,
        cfg.groups,
        cumulative=cfg.author_mode == "cumulative",
        include_zero_pacs=cfg.include_zero_pacs,
    )
    labels = cfg.groups.labels
    rows: list[tuple] = []
    for m in matrices:
        pair = (m.from_window.label, m.to_window.label)
        for fl in labels:
            for tl in labels:
                rows.append(pair + ("flow", fl, tl, m.flow[fl][tl]))
        for tl in labels:
            rows.append(pair + ("entrants", "", tl, m.entrants[tl]))
        for fl in labels:
            rows.append(pair + ("leavers", fl, "", m.leavers[fl]))
    columns = ("from_window", "to_window", "kind", "from_group", "to_group", "count")
    return Table(columns, tuple(rows))


def _series_rows(label_prefix: tuple, entry: co.SeriesEntry) -> list[tuple]:
    """One row per age 0..horizon: papers, citations, mean and cumulative mean."""
    values = zip(entry.citations_per_age, entry.mean_per_age, entry.cumulative_mean)
    return [label_prefix + (age, entry.paper_count, *v) for age, v in enumerate(values)]


def build_citation_age(corpus: Corpus, cfg: RunConfig) -> Table:
    """average citations per paper at each age"""
    entry = co.citations_by_age(corpus, _period(cfg), cfg.horizon)
    rows = tuple(_series_rows((), entry))
    return Table(("age", "papers", "citations", "mean_citations", "cumulative_mean"), rows)


def build_diversity_citations(corpus: Corpus, cfg: RunConfig) -> Table:
    """citation trajectories grouped by paper diversity"""
    rows: list[tuple] = []
    for cohort in cfg.cohorts:
        for keying_name, scheme in (("integer", co.CITATION_KEY_SCHEME), ("band", cfg.bands)):
            per_key = co.citations_by_diversity(
                corpus, cohort, cfg.horizon, scheme, include_zero_pacs=cfg.include_zero_pacs
            )
            for key, entry in per_key.items():
                rows += _series_rows((cohort.label, keying_name, key), entry)
    columns = ("cohort", "keying", "key", "age", "papers", "citations", "mean_citations", "cumulative_mean")
    return Table(columns, tuple(rows))


def build_citation_dist(corpus: Corpus, cfg: RunConfig) -> Table:
    """citation-count distribution per diversity key"""
    rows: list[tuple] = []
    for cohort in cfg.cohorts:
        dists = co.citation_distribution_by_diversity(
            corpus, cohort, cfg.horizon, include_zero_pacs=cfg.include_zero_pacs
        )
        for key, hist in dists.items():
            for citations in sorted(hist):
                rows.append((cohort.label, key, citations, hist[citations]))
    return Table(("cohort", "key", "citations", "fraction"), tuple(rows))


def build_share(corpus: Corpus, cfg: RunConfig) -> Table:
    """percentage of papers per diversity value, per cohort"""
    table = co.diversity_share_table(corpus, cfg.cohorts, include_zero_pacs=cfg.include_zero_pacs)
    cohort_labels = list(table.keys())
    rows = tuple(
        (key,) + tuple(table[cohort][key] for cohort in cohort_labels)
        for key in co.SHARE_KEY_SCHEME.labels
    )
    return Table(("diversity", *cohort_labels), rows)


def _corpus_facts(corpus: Corpus) -> dict[str, int | None]:
    """Papers, authors, citation pairs and year bounds (None when empty)."""
    try:
        span = corpus.year_span()
    except EmptyPeriod:
        span = None
    return {
        "papers": len(corpus.papers),
        "authors": len({name for record in corpus.papers.values() for name in record.authors}),
        "citation_pairs": sum(map(len, corpus.citations_in.values())),
        "year_min": span and span.start,
        "year_max": span and span.end - 1,
    }


def build_validate(corpus: Corpus, cfg: RunConfig, facts: dict[str, int | None]) -> Table:
    """ingest report only (always lenient)"""
    rows = tuple(
        [("papers", facts["papers"]), ("authors", facts["authors"])]
        + sorted(corpus.ingest_stats.as_dict().items())
        + [("citation_pairs_in_corpus", facts["citation_pairs"])]
        + [(name, facts[name] or 0) for name in ("year_min", "year_max")]
    )
    return Table(("metric", "value"), rows)


# Each builder's docstring is its command's help text. Each takes the
# corpus and the settings; validate also takes the run's corpus facts.
COMMANDS: dict[str, Callable[..., Table]] = {
    "summary": build_summary,
    "pacs-coverage": build_pacs_coverage,
    "pacs-counts": build_pacs_counts,
    "diversity-dist": build_diversity_dist,
    "groups": build_groups,
    "flows": build_flows,
    "citation-age": build_citation_age,
    "diversity-citations": build_diversity_citations,
    "citation-dist": build_citation_dist,
    "share": build_share,
    "validate": build_validate,
}


# ---------------------------------------------------------------------------
# configuration


# built on the first call and shared by every later one in the process;
# a parse keeps no state in the parser, and dispatch reads COMMANDS anew
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    for name, (default, _, help_text, options) in _FLAGS.items():
        # default None: a flag that was not given does not override
        flag = "--" + name.replace("_", "-")
        common.add_argument(flag, default=None, help=help_text % {"default": default}, **options)

    parser = argparse.ArgumentParser(
        prog="pacsdiv",
        description="Weitzman diversity and citation analysis over PACS-coded paper metadata",
    )
    parser.add_argument("--version", action="version", version=f"pacsdiv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, builder in COMMANDS.items():
        sub.add_parser(name, parents=[common], help=builder.__doc__)
    return parser


def _load_config_file(path: str) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise IoFailure(f"cannot open config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    unknown = set(data) - set(_CONFIG_TYPES)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key, value in sorted(data.items()):
        types = _CONFIG_TYPES[key]
        # exact types: a JSON true must not pass as the integer 1
        if type(value) not in types:
            expected = " or ".join(_JSON_TYPE_NAMES[t] for t in types)
            raise ConfigError(f"config key {key!r} must be a JSON {expected}, got {json.dumps(value)}")
    return data


def _distinct_ranges(settings: dict[str, Any], key: str) -> tuple[YearRange, ...]:
    """The year ranges of ``settings[key]``; ConfigError if one is listed twice."""
    ranges = tuple(parse_year_ranges(settings[key]))
    for i, year_range in enumerate(ranges):
        if year_range in ranges[:i]:
            raise ConfigError(f"{key} lists {year_range.label} more than once")
    return ranges


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Layer defaults, config file and explicit flags into a RunConfig."""
    settings: dict[str, Any] = dict(DEFAULTS, out_dir=os.environ.get(OUT_DIR_ENV, "."))
    if args.config:
        settings.update(_load_config_file(args.config))
    for key in settings:
        value = getattr(args, key)
        if value is not None:
            settings[key] = value

    if not settings["input"]:
        raise ConfigError("no input file given (--input or config)")
    if settings["format"] not in FORMATS:
        raise ConfigError(f"format must be {' or '.join(FORMATS)}, got {settings['format']!r}")
    if settings["author_mode"] not in AUTHOR_MODES:
        raise ConfigError(f"author-mode must be one of {AUTHOR_MODES}")
    horizon = settings["horizon"]
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    if horizon > MAX_HORIZON:
        raise ConfigError(f"horizon must be <= {MAX_HORIZON}, got {horizon}")

    period = settings["period"]
    return RunConfig(
        input=Path(settings["input"]),
        out_dir=Path(settings["out_dir"]),
        format=settings["format"],
        windows=_distinct_ranges(settings, "windows"),
        cohorts=_distinct_ranges(settings, "cohorts"),
        period=None if period is None else parse_year_range(period),
        horizon=horizon,
        groups=co.group_scheme_from_spec(settings["groups"]),
        bands=co.band_scheme_from_spec(settings["bands"]),
        include_zero_pacs=settings["include_zero_pacs"],
        author_mode=settings["author_mode"],
        lenient=settings["lenient"],
    )


# ---------------------------------------------------------------------------
# run


def _meta_payload(command: str, corpus: Corpus, cfg: RunConfig, sha256: str, facts: dict[str, int | None]) -> bytes:
    meta = {
        "command": command,
        "tool": "pacsdiv",
        "version": __version__,
        "input": {"path": str(cfg.input), "sha256": sha256, "size_bytes": corpus.ingest_stats.bytes_read},
        "settings": {
            "format": cfg.format,
            "windows": [w.label for w in cfg.windows],
            "cohorts": [c.label for c in cfg.cohorts],
            "period": cfg.period and cfg.period.label,
            "horizon": cfg.horizon,
            "groups": {label: list(b) for label, b in zip(cfg.groups.labels, cfg.groups.bounds)},
            "bands": {label: list(b) for label, b in zip(cfg.bands.labels, cfg.bands.bounds)},
            "include_zero_pacs": cfg.include_zero_pacs,
            "author_mode": cfg.author_mode,
            "lenient": cfg.lenient,
        },
        "corpus": facts,
        "ingest": corpus.ingest_stats.as_dict(),
    }
    return _json_bytes(meta)


def run(command: str, cfg: RunConfig) -> list[Path]:
    """Execute one command and write its output files atomically.

    Returns the paths written: the table, its meta sidecar, and a
    dropped-records report when any input line was rejected. A clean
    load removes the report an earlier run may have left. The output
    directory is created before the load, so it fails fast.

    Raises
    ------
    IoFailure
        If the output directory or a file in it cannot be written.
    """
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot write to {cfg.out_dir}: {exc}") from exc
    if command == "validate":
        cfg = replace(cfg, lenient=True)
    digest = hashlib.sha256()
    corpus = load_corpus(cfg.input, IngestConfig(strict=not cfg.lenient), digest)
    # frozen for the rest of the run (module docstring); a caller's own
    # frozen objects, if any, are left as they are
    freeze = gc.get_freeze_count() == 0
    if freeze:
        gc.freeze()
    try:
        return _build_and_write(command, corpus, cfg, digest.hexdigest())
    finally:
        if freeze:
            gc.unfreeze()


def _build_and_write(command: str, corpus: Corpus, cfg: RunConfig, sha256: str) -> list[Path]:
    # computed once: the sidecar records them, the validate table shows
    # them and their year bounds are the default period
    facts = _corpus_facts(corpus)
    if cfg.period is None and facts["year_min"] is not None:
        cfg = replace(cfg, period=YearRange(facts["year_min"], facts["year_max"] + 1))
    build = COMMANDS[command]
    table = build(corpus, cfg, facts) if command == "validate" else build(corpus, cfg)
    outputs = {
        cfg.out_dir / f"{command}.{cfg.format}": render_csv(table) if cfg.format == "csv" else render_json(table),
        cfg.out_dir / f"{command}.meta.json": _meta_payload(command, corpus, cfg, sha256, facts),
    }
    stats = corpus.ingest_stats
    dropped_path = cfg.out_dir / f"{command}.dropped.json"
    if stats.lines_rejected:
        outputs[dropped_path] = _json_bytes(
            {
                "lines_rejected": stats.lines_rejected,
                "lines": [{"line": lineno, "reason": reason} for lineno, reason in stats.rejected_lines],
            }
        )
    try:
        for path, payload in outputs.items():
            _atomic_write(path, payload)
        if not stats.lines_rejected:
            # a report left by an earlier run names lines this input no longer has
            dropped_path.unlink(missing_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot write to {cfg.out_dir}: {exc}") from exc
    return list(outputs)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        written = run(args.command, cfg)
    except PacsDivError as exc:
        code = EXIT_CODES.get(type(exc), EXIT_OTHER)
        print(f"pacsdiv {args.command}: error: {exc}", file=sys.stderr)
        return code
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
