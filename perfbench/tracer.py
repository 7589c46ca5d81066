"""In-memory span tracer that wraps pacsdiv's public functions from outside.

Nothing here touches ``src/``: ``install`` replaces each traced function
in every ``pacsdiv`` module namespace that holds it (so names imported
with ``from .x import f`` are caught too) and methods on their class.
A function that no longer exists is listed in ``absent`` and skipped, so
a renamed or deleted function never fails a run.

A span is (id, name, start, end, parent id). Self time is a span's
duration minus the time its traced children took. The diversity kernel
and the PACS parser run hundreds of thousands of times, so they are
aggregated (count, time, set sizes) instead of kept as spans; their time
is still subtracted from their caller's self time. So is the time of the
wrapper itself and of its hooks (the kernel's input sizes, the loaded
corpus's counts). The per-item counting of ``Corpus.papers_in`` is not:
it stays in the self time of the function that iterates. ``taxonomy.distance``
is never wrapped: it runs millions of times and a wrapper would swamp it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
from collections import Counter, defaultdict
from collections.abc import Iterator
from time import perf_counter

# (module, attribute, kind). kind "span" keeps spans; "leaf" aggregates.
FUNCTIONS = (
    ("pacsdiv.cli", "main", "span"),
    ("pacsdiv.cli", "render_csv", "span"),
    ("pacsdiv.corpus", "load_corpus", "span"),
    ("pacsdiv.corpus", "corpus_summary", "span"),
    ("pacsdiv.corpus", "parse_pacs", "leaf"),
    ("pacsdiv.diversity", "weitzman_diversity", "leaf"),
    ("pacsdiv.diversity", "compute_diversities", "span"),
    ("pacsdiv.cohorts", "group_fraction_table", "span"),
    ("pacsdiv.cohorts", "transition_flows", "span"),
    ("pacsdiv.cohorts", "citations_by_age", "span"),
    ("pacsdiv.cohorts", "citations_by_diversity", "span"),
    ("pacsdiv.cohorts", "diversity_share_table", "span"),
    ("pacsdiv.cohorts", "citation_distribution_by_diversity", "span"),
)
# (module, class, method): counted calls and yielded items, no spans.
SCANS = (
    ("pacsdiv.corpus", "Corpus", "papers_in"),
    ("pacsdiv.corpus", "Corpus", "year_span"),
)
KERNEL = "pacsdiv.diversity.weitzman_diversity"
LOADER = "pacsdiv.corpus.load_corpus"


class Tracer:
    """Collects spans, per-name totals and work counters for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.calls: Counter[str] = Counter()
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.set_sizes: Counter[int] = Counter()
        self.absent: list[str] = []
        self._stack: list[list] = []  # [span id, time of traced children]
        self._ids = itertools.count()

    def wrap(self, name: str, fn, keep: bool, before=None, after=None):
        """Return ``fn`` timed under ``name``; ``keep`` also records a span.

        ``before`` may replace the first argument (to measure it without
        consuming an iterator); ``after`` sees the arguments and result.
        """
        stack, spans, ids = self._stack, self.spans, self._ids
        calls, total_s, self_s = self.calls, self.total_s, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = perf_counter()
            parent = stack[-1] if stack else None
            try:
                if before is not None and args:
                    args = (before(args[0]),) + args[1:]
                frame = [next(ids), 0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    duration = end - start
                    calls[name] += 1
                    total_s[name] += duration
                    self_s[name] += duration - frame[1]
                    if keep:
                        spans.append((frame[0], name, start, end, parent[0] if parent else None))
                if after is not None:
                    after(args, result)
                return result
            finally:
                # the parent is charged the hooks and this wrapper as well as
                # the call, so its self time holds none of the tracer's work
                if parent is not None:
                    parent[1] += perf_counter() - entered

        return traced

    def _kernel_input(self, codes):
        if not isinstance(codes, (set, frozenset)):
            codes = list(codes)
        self.set_sizes[len(set(codes))] += 1
        return codes

    def _loaded(self, args, corpus) -> None:
        self.counts["corpus.records"] = len(getattr(corpus, "papers", ()))
        citations = getattr(corpus, "citations_in", {})
        self.counts["corpus.citation_pairs"] = sum(len(v) for v in citations.values())
        stats = getattr(corpus, "ingest_stats", None)
        self.counts["corpus.lines_rejected"] = getattr(stats, "lines_rejected", 0)
        if args and isinstance(args[0], (str, os.PathLike)):
            self.counts["corpus.input_bytes"] = os.path.getsize(args[0])

    def _scan(self, name: str, method):
        @functools.wraps(method)
        def counted(*args, **kwargs):
            self.counts[f"{name}_calls"] += 1
            result = method(*args, **kwargs)
            if isinstance(result, Iterator):
                return self._count_items(name, result)
            if isinstance(result, (list, tuple)):
                self.counts[f"{name}_yielded"] += len(result)
            return result

        return counted

    def _count_items(self, name: str, iterator):
        key = f"{name}_yielded"
        for item in iterator:
            self.counts[key] += 1
            yield item

    def install(self) -> None:
        """Patch every traced function that exists; record those that do not."""
        modules = {}
        for module_name in {m for m, _, _ in FUNCTIONS + SCANS}:
            try:
                modules[module_name] = importlib.import_module(module_name)
            except ImportError:
                modules[module_name] = None
        for module_name, attr, kind in FUNCTIONS:
            name = f"{module_name}.{attr}"
            original = getattr(modules[module_name], attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            before = self._kernel_input if name == KERNEL else None
            after = self._loaded if name == LOADER else None
            _rebind(original, self.wrap(name, original, kind == "span", before, after))
        for module_name, cls_name, method_name in SCANS:
            cls = getattr(modules[module_name], cls_name, None)
            method = getattr(cls, method_name, None)
            name = f"{module_name}.{cls_name}.{method_name}"
            if not callable(method):
                self.absent.append(name)
                continue
            setattr(cls, method_name, self._scan(f"corpus.{method_name}", method))
        registry = getattr(modules["pacsdiv.cli"], "COMMANDS", None)
        if not isinstance(registry, dict):
            self.absent.append("pacsdiv.cli.COMMANDS")
            return
        for command, builder in list(registry.items()):
            registry[command] = self.wrap(f"cli.build.{command}", builder, True)

    def dump(self, path) -> None:
        payload = {
            "spans": self.spans,
            "calls": self.calls,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "counts": self.counts,
            "set_sizes": {str(k): v for k, v in sorted(self.set_sizes.items())},
            "absent": self.absent,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _rebind(original, wrapper) -> None:
    """Point every pacsdiv namespace binding of ``original`` at ``wrapper``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "pacsdiv" or module_name.startswith("pacsdiv.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
