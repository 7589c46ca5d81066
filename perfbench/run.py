"""pacsdiv benchmark: one workload and seed, end to end or traced.

    python3 perfbench/run.py --workload authors --seed 1 --seconds 20 --trace 0

Run it from the root of a pacsdiv checkout; it imports the program from
``./src`` and nothing else of the repository except the test oracles in
``tests/helpers.py``. It generates the workload's corpus from the seed,
then drives pacsdiv only through its public entry points, each sample in
a fresh interpreter:

* ``--trace 0``: rounds for ``--seconds`` (at least ``MIN_ROUNDS``). A
  round is one set-up sample, a process that times one
  ``pacsdiv.load_corpus`` and reads ``ru_maxrss`` right after it, then
  one pass, a process that runs every command of the workload through
  ``pacsdiv.cli.main`` in sequence. This is a closed loop with one client.
* ``--trace 1``: pairs of one untraced and one traced pass; the traced
  one wraps public functions from ``tracer.py`` for the per-layer metrics.

Every command's outputs are checked (``checks.py``). The report lists each
metric with its unit and sample count, and the sha256 of every output
table; the last line of stdout is the JSON result. ``--details FILE``
also writes everything as JSON. The metrics reported are the ones that
``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402

MIN_ROUNDS = 3
# A run must end within 180 s: start no round after DEADLINE_S, and kill
# any sample still running at HARD_LIMIT_S.
DEADLINE_S = 120
HARD_LIMIT_S = 170

# Commands of each workload, with flags beyond --input/--out-dir. The
# benchmark never passes --jobs, so it survives that flag's removal.
WORKLOADS = {
    "ingest": [["validate"]],
    "authors": [["summary"], ["diversity-dist"], ["groups"], ["flows", "--author-mode", "cumulative"]],
    "citations": [["citation-age"], ["diversity-citations"], ["citation-dist"], ["share"]],
}
ALL_COMMANDS = [argv[0] for commands in WORKLOADS.values() for argv in commands]
SELF_TIMES = {
    "corpus.corpus_summary_s": "pacsdiv.corpus.corpus_summary",
    "diversity.weitzman_s": "pacsdiv.diversity.weitzman_diversity",
    "diversity.compute_diversities_s": "pacsdiv.diversity.compute_diversities",
    "cohorts.group_fraction_table_s": "pacsdiv.cohorts.group_fraction_table",
    "cohorts.transition_flows_s": "pacsdiv.cohorts.transition_flows",
    "cohorts.citations_by_age_s": "pacsdiv.cohorts.citations_by_age",
    "cohorts.citations_by_diversity_s": "pacsdiv.cohorts.citations_by_diversity",
    "cohorts.diversity_share_table_s": "pacsdiv.cohorts.diversity_share_table",
    "cohorts.citation_distribution_by_diversity_s": "pacsdiv.cohorts.citation_distribution_by_diversity",
    # main's own time: argument parsing, input re-hash, meta file, atomic writes
    "cli.write_s": "pacsdiv.cli.main",
}
COUNTS = (
    "corpus.records", "corpus.input_bytes", "corpus.lines_rejected", "corpus.citation_pairs",
    "corpus.papers_in_calls", "corpus.papers_in_yielded", "corpus.year_span_calls",
)


class Bench:
    """One benchmark run: a corpus, its expectations and the samples taken."""

    def __init__(self, root: Path, work: Path, workload: str, seed: int, started: float):
        self.root, self.work, self.workload, self.started = root, work, workload, started
        # a fixed hash seed takes set and dict layout out of the run-to-run noise
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.corpus = work / "corpus.jsonl"
        self.corpus_sha, truth = gen.generate(workload, seed, self.corpus)
        self.expected = checks.expectations(workload, self.corpus, self.corpus_sha, truth, root)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tables: dict[str, str] = {}
        self.absent: list[str] = []
        self.spans: list = []
        self._passes = 0

    def _child(self, *args: str) -> dict | None:
        result = self.work / "child-result.json"
        result.unlink(missing_ok=True)
        timeout = max(1.0, HARD_LIMIT_S - (perf_counter() - self.started))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), *args[:2], str(result), *args[2:]],
                cwd=self.root, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            self.problems.append(f"child {args[0]} killed after {timeout:.0f} s")
            return None
        if proc.returncode != 0 or not result.is_file():
            self.problems.append(f"child {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            return None
        with open(result, encoding="utf-8") as handle:
            return json.load(handle)

    def setup(self) -> dict | None:
        return self._child("setup", str(self.corpus))

    def run_pass(self, trace: bool = False) -> tuple[dict | None, dict | None]:
        """One pass over every command; returns (sample, trace dump)."""
        self._passes += 1
        out_dir = self.work / f"out-{self._passes}"
        commands = WORKLOADS[self.workload]
        argvs = [[c[0], "--input", str(self.corpus), "--out-dir", str(out_dir), *c[1:]] for c in commands]
        spec = self.work / "argv.json"
        spec.write_text(json.dumps(argvs), encoding="utf-8")
        trace_file = self.work / f"trace-{self._passes}.json"
        sample = self._child("run", str(spec), *([str(trace_file)] if trace else []))
        self.attempted += len(argvs)
        if sample is None:
            self.failed += len(argvs)
            return None, None
        for argv, outcome in zip(argvs, sample["commands"]):
            problems = checks.check_command(argv, outcome["exit"], out_dir, self.expected)
            table = out_dir / f"{argv[0]}.csv"
            if table.is_file():
                digest = checks.sha256_file(table)
                if self.tables.setdefault(table.name, digest) != digest:
                    problems.append(f"{table.name} differs from the first pass")
            if problems:
                self.failed += 1
                self.problems += [f"pass {self._passes} {argv[0]}: {p}" for p in problems]
        written = out_dir.iterdir() if out_dir.is_dir() else ()
        sample["bytes_written"] = sum(p.stat().st_size for p in written if p.is_file())
        shutil.rmtree(out_dir, ignore_errors=True)
        dump = None
        if trace and trace_file.is_file():
            with open(trace_file, encoding="utf-8") as handle:
                dump = json.load(handle)
        return sample, dump


def per_layer(untraced: dict, traced: dict, dump: dict) -> dict[str, float]:
    """Per-layer metrics of one untraced/traced pair of passes."""
    total, self_s, calls, counts = dump["total_s"], dump["self_s"], dump["calls"], dump["counts"]
    metrics: dict[str, float] = {}
    for command in ALL_COMMANDS:
        metrics[f"cli.main.{command}_s"] = 0.0
        metrics[f"cli.build.{command}_s"] = total.get(f"cli.build.{command}", 0.0)
    for outcome in untraced["commands"]:
        metrics[f"cli.main.{outcome['command']}_s"] += outcome["seconds"]
    metrics["cli.render_s"] = total.get("pacsdiv.cli.render_csv", 0.0)
    metrics["cli.bytes_written"] = traced["bytes_written"]
    metrics["corpus.load_s"] = total.get("pacsdiv.corpus.load_corpus", 0.0)
    metrics["corpus.load_calls"] = calls.get("pacsdiv.corpus.load_corpus", 0)
    for name in COUNTS:
        metrics[name] = counts.get(name, 0)
    metrics["taxonomy.parse_pacs_calls"] = calls.get("pacsdiv.corpus.parse_pacs", 0)
    for metric, traced_name in SELF_TIMES.items():
        metrics[metric] = self_s.get(traced_name, 0.0)
    sizes = sorted((int(n), c) for n, c in dump["set_sizes"].items())
    kernel_calls = sum(c for _, c in sizes)
    metrics["diversity.weitzman_calls"] = kernel_calls
    metrics["diversity.pair_evals"] = sum(n * (n - 1) // 2 * c for n, c in sizes)
    metrics["diversity.set_size_max"] = sizes[-1][0] if sizes else 0
    seen, p50 = 0, 0
    for n, c in sizes:
        seen += c
        if 2 * seen >= kernel_calls:
            p50 = n
            break
    metrics["diversity.set_size_p50"] = p50
    metrics["trace.run_s"] = traced["run_s"]
    metrics["trace.untraced_run_s"] = untraced["run_s"]
    metrics["trace.overhead_s"] = traced["run_s"] - untraced["run_s"]
    metrics["trace.absent_functions"] = len(dump["absent"])
    return metrics


def measure(bench: Bench, seconds: int, trace: bool) -> dict[str, list[float]]:
    """Samples per metric name, taken for about ``seconds`` seconds."""
    samples: dict[str, list[float]] = {}

    def add(name, value):
        samples.setdefault(name, []).append(value)

    t0 = perf_counter()
    rounds = 0
    while True:
        begun = perf_counter()
        if trace:
            untraced, _ = bench.run_pass()
            traced, dump = bench.run_pass(trace=True)
            if untraced and traced and dump:
                for name, value in per_layer(untraced, traced, dump).items():
                    add(name, value)
                bench.absent, bench.spans = dump["absent"], dump["spans"]
        else:
            # set-up samples interleave with passes, so both see the same
            # spells of a noisy host rather than one spell each
            setup = bench.setup()
            if setup is not None:
                add("setup_s", setup["setup_s"])
                add("setup_rss_mb", setup["setup_rss_mb"])
            sample, _ = bench.run_pass()
            if sample is not None:
                add("run_s", sample["run_s"])
                add("peak_rss_mb", sample["peak_rss_mb"])
        rounds += 1
        now = perf_counter()
        last = now - begun
        if rounds >= (1 if trace else MIN_ROUNDS) and now - t0 + last > seconds:
            break
        if now - bench.started + last > DEADLINE_S:
            break
    return samples


def _report(bench: Bench, args, declared: list[dict], samples: dict) -> dict:
    metrics, lines = {}, []
    for spec in declared:
        values = samples.get(spec["name"], [])
        value = statistics.median(values) if values else None
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        shown = "missing" if value is None else f"{value:.6g}"
        lines.append(f"{spec['name']:<48} {shown:>14} {spec['unit']:<16} n={len(values)}")
    fail_frac = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"# pacsdiv benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"corpus {bench.corpus.name} sha256 {bench.corpus_sha}")
    print("\n".join(lines))
    print(f"{'fail_frac':<48} {fail_frac:>14.6g} {'ratio':<16} n={bench.attempted}")
    for name, digest in sorted(bench.tables.items()):
        print(f"table {name} sha256 {digest}")
    for name in bench.absent:
        print(f"absent: {name} (not traced)")
    for problem in bench.problems:
        print(f"FAIL {problem}")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "corpus_sha256": bench.corpus_sha,
        "metrics": {
            name: dict(m, samples=samples.get(name, [])) for name, m in metrics.items()
        },
        "fail_frac": fail_frac,
        "tables": bench.tables,
        "absent": bench.absent,
        "problems": bench.problems,
        "spans": bench.spans,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pacsdiv benchmark, one workload")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--details", type=Path, help="also write the full results as JSON here")
    args = parser.parse_args(argv)
    started = perf_counter()

    root = Path.cwd()
    if not (root / "src" / "pacsdiv" / "__init__.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("run.py: run from the root of a pacsdiv checkout (needs src/pacsdiv and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(root / "src"))

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(root, work, args.workload, args.seed, started)
        samples = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    details = _report(bench, args, declared, samples)
    if args.details:
        args.details.write_text(json.dumps(details, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if any(m["value"] is None for m in details["metrics"].values()):
        print("run.py: no valid sample for some metric; see FAIL lines", file=sys.stderr)
        return 1
    result = {
        "correct": bench.failed == 0 and not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in details["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
