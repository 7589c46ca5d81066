"""Every benchmark metric of every workload, in one command.

    python3 perfbench/report.py --seeds 1-10 [--out perfbench/baseline.json]

Run from the root of a pacsdiv checkout. For each workload of
``BENCHMARK.json`` it runs ``run.py --trace 0`` once per seed, for
``run_seconds`` each, and prints each end-to-end metric's
median, quartiles and spread (interquartile range over median) across
the seeds; then ``run.py --trace 1`` on the first seed and prints every
per-layer metric. Each line carries the unit and the sample count. It
also prints the sha256 of every output table, the failure fraction, and
checks the role each workload was chosen for (``_role``). ``--out``
writes all of it as JSON, with each seed's end-to-end values. It exits
with code 1 when any command failed, any role check failed, or the
traced run's tables differ from the untraced run's.
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

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def _run(workload: str, seed: int, seconds: int, trace: int, scratch: Path) -> dict:
    details = scratch / f"{workload}-{seed}-{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--details", str(details)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    if not details.is_file():
        sys.exit(f"run.py {workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    with open(details, encoding="utf-8") as handle:
        result = json.load(handle)
    result["last_line"] = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
    return result


def _spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def _role(workload: str, layers: dict[str, dict]) -> tuple[bool, str]:
    """The traced run's evidence that a workload stresses what it was chosen for."""
    value = {name: m["value"] for name, m in layers[workload].items()}
    if workload == "ingest":
        calls = value["diversity.weitzman_calls"]
        return calls == 0, f"diversity.weitzman_calls = {calls} (must be 0)"
    if workload == "authors":
        builds = sum(v for k, v in value.items() if k.startswith("cli.build."))
        kernel = value["diversity.weitzman_s"]
        return kernel > builds / 2, f"diversity.weitzman_s {kernel:.3f} s vs half of cli.build.* {builds / 2:.3f} s"
    authors = {name: m["value"] for name, m in layers["authors"].items()}
    ours = value["diversity.pair_evals"] / max(1, value["diversity.weitzman_calls"])
    theirs = authors["diversity.pair_evals"] / max(1, authors["diversity.weitzman_calls"])
    return ours < theirs / 10, f"pair_evals per kernel call {ours:.2f} vs authors {theirs:.2f} / 10"


def main() -> int:
    parser = argparse.ArgumentParser(description="pacsdiv benchmark report over seeds")
    parser.add_argument("--seeds", default="1", help="seeds, e.g. 1-10 or 1,4,7 (default 1)")
    parser.add_argument("--out", type=Path, help="write the report as JSON here")
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = bench["run_seconds"]
    seeds = _seeds(args.seeds)
    workloads = [w["name"] for w in bench["workloads"]]
    scratch = HERE / ".work" / f"report-{os.getpid()}"
    scratch.mkdir(parents=True)
    report: dict = {"seeds": seeds, "seconds": seconds, "python": sys.version.split()[0], "workloads": {}}
    layers: dict[str, dict] = {}
    ok = True
    try:
        for workload in workloads:
            runs = [_run(workload, seed, seconds, 0, scratch) for seed in seeds]
            traced = _run(workload, seeds[0], seconds, 1, scratch)
            entry = {"end_to_end": {}, "tables": runs[0]["tables"], "runs": runs}
            print(f"== {workload}: seeds {args.seeds}, {seconds} s per run")
            for spec in bench["end_to_end"]:
                name = spec["name"]
                values = [r["metrics"][name]["value"] for r in runs]
                stats = _spread(values)
                samples = sum(len(r["metrics"][name]["samples"]) for r in runs)
                entry["end_to_end"][name] = dict(stats, unit=spec["unit"], runs=len(values), samples=samples)
                print(f"{name:<48} median {stats['median']:<12.6g} q1 {stats['q1']:<12.6g} q3 {stats['q3']:<12.6g}"
                      f" spread {stats['spread']:.4f} (bound {spec['bound']}) {spec['unit']}"
                      f" runs={len(values)} samples={samples}")
            attempted = sum(r["last_line"]["attempted"] for r in runs if r["last_line"])
            failed = sum(r["last_line"]["failed"] for r in runs if r["last_line"])
            entry["fail_frac"] = failed / attempted if attempted else 1.0
            print(f"{'fail_frac':<48} {entry['fail_frac']:.6g} ({failed} of {attempted} commands)")
            for name, digest in sorted(runs[0]["tables"].items()):
                print(f"table {name} sha256 {digest} (seed {seeds[0]})")
            layers[workload] = traced["metrics"]
            entry["per_layer"] = traced["metrics"]
            entry["absent"] = traced["absent"]
            entry["traced_tables_agree"] = traced["tables"] == runs[0]["tables"]
            print(f"tables of the traced run identical to the untraced: {entry['traced_tables_agree']}")
            for spec in bench["per_layer"]:
                m = traced["metrics"][spec["name"]]
                print(f"{spec['name']:<48} {m['value']:<14.6g} {spec['unit']:<16} n={len(m['samples'])}")
            for name in traced["absent"]:
                print(f"absent: {name}")
            problems = [p for r in runs + [traced] for p in r["problems"]]
            for problem in problems:
                print(f"FAIL {problem}")
            ok = ok and entry["fail_frac"] == 0 and not problems and entry["traced_tables_agree"]
            report["workloads"][workload] = entry
        for workload in workloads:
            passed, evidence = _role(workload, layers)
            report["workloads"][workload]["role"] = {"pass": passed, "evidence": evidence}
            print(f"role {workload}: {'PASS' if passed else 'FAIL'} {evidence}")
            ok = ok and passed
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    if args.out:
        for entry in report["workloads"].values():
            entry["per_seed"] = {
                r["seed"]: {name: m["value"] for name, m in r["metrics"].items()} for r in entry.pop("runs")
            }
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
