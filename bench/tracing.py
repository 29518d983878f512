"""Spans and counts around the public functions each makan module is called through.

The wrapping lives here, not in the program: `install()` rebinds each
function wherever a loaded makan module holds it, `uninstall()` puts the
originals back. A span's self time is its duration minus the spans it
encloses. Spans are folded into per-name totals as they close, not kept one
by one, because a chapter round closes millions of semmap spans.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager

# span name -> (module, attribute); a dotted attribute names a method.
SPANS = {
    "textnorm.normalize": ("makan.textnorm", "normalize"),
    "textnorm.tokenize": ("makan.textnorm", "tokenize"),
    "lexicon.lookup": ("makan.lexicon", "Lexicon.lookup"),
    "lexicon.load": ("makan.lexicon", "load"),
    "engine.apply": ("makan.engine", "apply"),
    "engine.compile": ("makan.engine", "compile"),
    "guards.run_guards": ("makan.guards", "run_guards"),
    "semmap.subsumes": ("makan.semmap", "subsumes"),
    "semmap.resolve": ("makan.semmap", "resolve"),
    "semmap.top_level": ("makan.semmap", "top_level"),
    "annotator.annotate": ("makan.annotator", "annotate"),
    "annotator.document_to_json": ("makan.annotator", "document_to_json"),
    "annotator.read_annotations": ("makan.annotator", "read_annotations"),
    "evaluate.score": ("makan.evaluate", "score"),
    "rulepack.load_default_resources": ("makan.rulepack", "load_default_resources"),
    "cli.main": ("makan.cli", "main"),
}

# Counted without a span, so their time stays in the caller's self time.
COUNTED = {"cli.atomic_write": ("makan.cli", "_atomic_write")}

# Counts taken from results: span name -> (count name, value of one result).
RESULT_COUNTS = {
    "lexicon.lookup": ("lexicon.lookup_hits", lambda r: 1 if r else 0),
    "engine.apply": ("engine.raw_matches", len),
    "guards.run_guards": ("guards.vetoes", lambda r: 1 if r[0] else 0),
    "annotator.annotate": ("annotator.annotations", lambda r: len(r.annotations)),
    "annotator.document_to_json": ("annotator.json_bytes", lambda r: len(r.encode("utf-8"))),
}


class Tracer:
    def __init__(self):
        # name -> [calls, inclusive seconds, self seconds]
        self.stats: dict[str, list] = {name: [0, 0.0, 0.0] for name in SPANS}
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def _span(self, name, fn):
        stat, stack, clock = self.stats[name], self._stack, time.perf_counter
        count = RESULT_COUNTS.get(name)
        counts = self.counts

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
            if count is not None:
                counts[count[0]] += count[1](result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, _ in (*SPANS.values(), *COUNTED.values()):
            importlib.import_module(module_name)
        modules = [m for n, m in list(sys.modules.items()) if n == "makan" or n.startswith("makan.")]
        targets = [(n, t, self._span) for n, t in SPANS.items()]
        targets += [(n, t, self._counter) for n, t in COUNTED.items()]
        for name, (module_name, attr), make in targets:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original, make(name, original)))
                continue
            original = getattr(module, attr)
            wrapper = make(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original, wrapper))
        self._apply(wrapped=True)

    def uninstall(self) -> None:
        self._apply(wrapped=False)
        self._patches.clear()

    def _apply(self, wrapped: bool) -> None:
        for owner, key, original, wrapper in self._patches:
            setattr(owner, key, wrapper if wrapped else original)

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks with the originals in place."""
        self._apply(wrapped=False)
        try:
            yield
        finally:
            self._apply(wrapped=True)

    def reset(self) -> None:
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        self.counts.clear()

    def snapshot(self) -> tuple[dict, Counter]:
        return {name: list(stat) for name, stat in self.stats.items()}, Counter(self.counts)


def layer_metrics(loop: tuple[dict, Counter], setup: tuple[dict, Counter], rounds: int) -> dict:
    """Per-layer metrics: loop figures per round, set-up figures per load."""
    stats, counts = loop
    setup_stats = setup[0]

    def ms(name, field):
        return 1000.0 * stats[name][field] / rounds

    def calls(name):
        return stats[name][0] / rounds

    def ratio(part, whole):
        return part / whole if whole else 0.0

    def per_load(name):
        n, total, _ = setup_stats[name]
        return 1000.0 * total / n if n else 0.0

    return {
        "textnorm.normalize_ms": (ms("textnorm.normalize", 1), "ms"),
        "textnorm.tokenize_self_ms": (ms("textnorm.tokenize", 2), "ms"),
        "lexicon.lookup_ms": (ms("lexicon.lookup", 1), "ms"),
        "lexicon.lookup_calls": (calls("lexicon.lookup"), "count"),
        "lexicon.lookup_hit_ratio": (ratio(counts["lexicon.lookup_hits"], stats["lexicon.lookup"][0]), "ratio"),
        "engine.apply_self_ms": (ms("engine.apply", 2), "ms"),
        "engine.raw_matches": (counts["engine.raw_matches"] / rounds, "count"),
        "semmap.subsumes_calls": (calls("semmap.subsumes"), "count"),
        "guards.run_ms": (ms("guards.run_guards", 1), "ms"),
        "guards.calls": (calls("guards.run_guards"), "count"),
        "guards.veto_ratio": (ratio(counts["guards.vetoes"], stats["guards.run_guards"][0]), "ratio"),
        "annotator.annotate_self_ms": (ms("annotator.annotate", 2), "ms"),
        "annotator.annotations": (counts["annotator.annotations"] / rounds, "count"),
        "semmap.resolve_calls": (calls("semmap.resolve"), "count"),
        "annotator.to_json_ms": (ms("annotator.document_to_json", 1), "ms"),
        "annotator.json_bytes": (counts["annotator.json_bytes"] / rounds, "bytes"),
        "cli.self_ms": (ms("cli.main", 2), "ms"),
        "cli.files_written": (counts["cli.atomic_write"] / rounds, "count"),
        "annotator.read_ms": (ms("annotator.read_annotations", 1), "ms"),
        "evaluate.score_ms": (ms("evaluate.score", 1), "ms"),
        "semmap.top_level_calls": (calls("semmap.top_level"), "count"),
        "rulepack.load_ms": (per_load("rulepack.load_default_resources"), "ms"),
        "lexicon.load_ms": (per_load("lexicon.load"), "ms"),
        "engine.compile_ms": (per_load("engine.compile"), "ms"),
    }
