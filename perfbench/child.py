"""One benchmark sample, run in a fresh interpreter by ``run.py``.

    child.py setup CORPUS RESULT          one load_corpus, timed, plus ru_maxrss
    child.py run SPEC RESULT [TRACE]      every command of a workload via cli.main

``SPEC`` is a JSON list of argv lists. With ``TRACE`` the public
functions are wrapped by ``tracer.Tracer`` first and its spans and
counters are written to that file at the end. Results go to ``RESULT``
as JSON, never to stdout, which ``cli.main`` prints to.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
from time import perf_counter


def _max_rss_mb() -> float:
    """Peak resident set of this process's own address space, in MiB.

    ``ru_maxrss`` survives exec, so in a child it can report the parent's
    size at fork time. ``VmHWM`` belongs to the address space exec made,
    so it is preferred where the kernel provides it.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def setup(corpus_path: str) -> dict:
    import pacsdiv

    config = pacsdiv.IngestConfig(strict=False)
    start = perf_counter()
    pacsdiv.load_corpus(corpus_path, config)
    elapsed = perf_counter() - start
    return {"setup_s": elapsed, "setup_rss_mb": _max_rss_mb()}


def run(argvs: list[list[str]], trace_path: str | None) -> dict:
    tracer = None
    if trace_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from pacsdiv import cli

    commands = []
    start = perf_counter()
    for argv in argvs:
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = "exception"
        commands.append({"command": argv[0], "exit": code, "seconds": perf_counter() - t0})
    run_s = perf_counter() - start
    if tracer is not None:
        tracer.dump(trace_path)
    return {"run_s": run_s, "peak_rss_mb": _max_rss_mb(), "commands": commands}


def main() -> None:
    mode, source, result_path = sys.argv[1:4]
    if mode == "setup":
        result = setup(source)
    else:
        with open(source, encoding="utf-8") as handle:
            argvs = json.load(handle)
        result = run(argvs, sys.argv[4] if len(sys.argv) > 4 else None)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
