"""makan benchmark: seeded workloads built from the gold suite, outputs checked, time measured.

    python3 bench/run.py --workload novel-long --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

One process and one thread drive the pipeline as a closed loop: each call
waits for the previous one. A run repeats whole rounds of the workload's
operations until --seconds have passed, checking every output against the
suite gold. Untraced, every time is scaled to a nominal host speed that a
fixed probe task measures between the calls (bench/hostspeed.py). The last
line on stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import checks
import corpus
import hostspeed
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("suite-docs", "novel-long", "control-vocalized", "cli-chapters")
SETUP_LOADS = 40   # resource loads per run; setup_s is their median
PROBE_EVERY_TOKENS = 10000  # a host probe after the round that passes this many tokens
SETUP_LOADS_PER_PROBE = 10  # and after every this many resource loads

clock = time.perf_counter


def import_makan():
    """Import makan from this checkout's sources, never from an installed copy."""
    if not (SRC / "makan" / "__init__.py").is_file():
        sys.exit(f"bench: no makan sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import makan
    import makan.cli

    return makan


def pairs(flat: array):
    """(start, end) of each call in a flat array of starts and ends."""
    return zip(flat[0::2], flat[1::2])


@dataclass
class Round:
    # Starts and ends of timed calls on `clock`, flat: a run keeps every call
    # of every round, and arrays keep that small next to the program's memory.
    spans: array       # every timed call
    latencies: array   # the calls whose latency is reported
    tokens: int
    checked: int
    failed: int
    errors: list[str]

    @property
    def seconds(self) -> float:
        return sum(end - start for start, end in pairs(self.spans))


class Library:
    """One `annotate` call per document; outputs checked by `check(doc, output)`."""

    def __init__(self, makan, res, docs, check):
        self.makan, self.res, self.docs, self.check = makan, res, docs, check
        self.tokens = sum(d.tokens for d in docs)
        self.outputs = []

    def round(self, tracer, probe=None) -> Round:
        smap, lex, grammar, variants = self.res
        spans, outputs = array("d"), []
        for doc in self.docs:
            start = clock()
            out = self.makan.annotate(doc.text, lex, grammar, smap, variants=variants, doc_id=doc.doc_id)
            spans.extend((start, clock()))
            outputs.append(out)
        checked = failed = 0
        errors: list[str] = []
        with tracer.paused() if tracer else contextlib.nullcontext():
            for doc, out in zip(self.docs, outputs):
                c, f, e = self.check(doc, out)
                checked, failed = checked + c, failed + f
                errors += e
        self.outputs = outputs
        return Round(spans, spans, self.tokens, checked, failed, errors)

    def digest(self) -> str:
        data = "".join(self.makan.annotator.document_to_json(d) for d in self.outputs)
        return hashlib.sha256(data.encode("utf-8")).hexdigest()


class Cli:
    """`makan annotate --out` then `makan eval --out`, in-process through `makan.cli.main`."""

    def __init__(self, makan, docs, work: Path):
        self.makan, self.docs = makan, docs
        self.tokens = sum(d.tokens for d in docs)
        self.inputs, self.gold, self.out = work / "inputs", work / "gold", work / "out"
        self.report = work / "report.json"
        for d in (self.inputs, self.gold):
            d.mkdir(parents=True)
        for doc in docs:
            (self.inputs / f"{doc.doc_id}.txt").write_text(doc.text, encoding="utf-8")
            gold = {"doc_id": doc.doc_id, "text": doc.text, "annotations": doc.gold()}
            (self.gold / f"{doc.doc_id}.json").write_text(json.dumps(gold, ensure_ascii=False), encoding="utf-8")
        self.paths = [str(self.inputs / f"{doc.doc_id}.txt") for doc in docs]

    def round(self, tracer, probe=None) -> Round:
        main = self.makan.cli.main
        start = clock()
        rc_annotate = main(["annotate", "--out", str(self.out), *self.paths])
        annotated = array("d", (start, clock()))
        if probe:
            probe.poll()
        start = clock()
        with contextlib.redirect_stdout(io.StringIO()):
            rc_eval = main(["eval", "--out", str(self.report), str(self.gold), str(self.out)])
        evaluated = array("d", (start, clock()))
        with tracer.paused() if tracer else contextlib.nullcontext():
            checked, failed, errors = self._check(rc_annotate, rc_eval)
        return Round(annotated + evaluated, annotated, self.tokens, checked, failed, errors)

    def _check(self, rc_annotate: int, rc_eval: int):
        if (rc_annotate, rc_eval) != (0, 0):
            return 0, 0, [f"exit codes: annotate {rc_annotate}, eval {rc_eval}"]
        errors = checks.check_report(json.loads(self.report.read_text(encoding="utf-8")), self.docs)
        checked = failed = 0
        for doc in self.docs:
            path = self.out / f"{doc.doc_id}.json"
            if self.makan.read_annotations(path).text != doc.text:
                errors.append(f"{path.name}: text differs from the input")
            c, f, e = checks.check_sentences(doc, json.loads(path.read_text(encoding="utf-8"))["annotations"])
            checked, failed = checked + c, failed + f
            errors += e
        return checked, failed, errors

    def digest(self) -> str:
        h = hashlib.sha256()
        for path in sorted(self.out.glob("*.json")) + [self.report]:
            h.update(path.read_bytes())
        return h.hexdigest()


def build(name: str, seed: int, makan, res, work: Path):
    suite = corpus.load_suite()
    if name == "suite-docs":
        return Library(makan, res, corpus.suite_docs(seed, suite), check_document)
    if name == "novel-long":
        return Library(makan, res, corpus.novel_long(seed, suite), check_document)
    if name == "control-vocalized":
        smap, lex, grammar, variants = res
        vocab = corpus.control_vocabulary(suite, lex, grammar, variants)
        docs = corpus.control_vocalized(seed, vocab, corpus.novel_tokens(suite))

        def check(doc, out):
            return checks.check_vocalized(doc, out.annotations, makan.tokenize(doc.text, lex, variants))

        return Library(makan, res, docs, check)
    if name == "cli-chapters":
        return Cli(makan, corpus.cli_chapters(seed, suite), work)
    raise ValueError(name)


def check_document(doc, out):
    if out.text != doc.text:
        return len(doc.pieces), 0, [f"{doc.doc_id}: output text differs from the input"]
    return checks.check_sentences(doc, [checks.annotation_json(a) for a in out.annotations])


def run_rounds(workload, seconds: float, tracer=None, probe=None) -> list[Round]:
    rounds, start = [], clock()
    stride = max(1, PROBE_EVERY_TOKENS // workload.tokens)
    while not rounds or clock() - start < seconds:
        rounds.append(workload.round(tracer, probe))
        if probe and len(rounds) % stride == 0:
            probe.poll()
    if probe and len(rounds) % stride:
        probe.poll()
    return rounds


def load_resources(makan, loads: int, probe=None):
    """Load the shipped resources `loads` times; (span of each load, last bundle)."""
    spans, res = [], None
    for i in range(1, loads + 1):
        start = clock()
        res = makan.rulepack.load_default_resources()
        spans.append((start, clock()))
        if probe and (i % SETUP_LOADS_PER_PROBE == 0 or i == loads):
            probe.poll()
    return spans, res


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def measure(args, makan, work: Path) -> tuple[list[Round], dict]:
    setup_probe = hostspeed.HostProbe()
    loads, res = load_resources(makan, SETUP_LOADS, setup_probe)
    workload = build(args.workload, args.seed, makan, res, work)
    probe = hostspeed.HostProbe()
    rounds = run_rounds(workload, args.seconds, probe=probe)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies = [probe.normalized(s) for r in rounds for s in pairs(r.latencies)]
    wall = [end - start for r in rounds for start, end in pairs(r.latencies)]
    print(
        f"{args.workload} seed {args.seed}: {len(rounds)} rounds, {len(latencies)} timed calls, "
        f"{rounds[0].tokens} tokens a round, {len(probe.times)} probes, median probe "
        f"{1000 * statistics.median(probe.times):.1f} ms (nominal {1000 * hostspeed.NOMINAL_PROBE_S:.0f})"
    )
    print(
        f"  latency ms on the nominal host: p50 {1000 * statistics.median(latencies):.3f} "
        f"p90 {1000 * percentile(latencies, 0.9):.3f} max {1000 * max(latencies):.3f}; "
        f"wall-clock p50 {1000 * statistics.median(wall):.3f}, "
        f"tokens/s {statistics.median(r.tokens / r.seconds for r in rounds):.1f}"
    )
    metrics = {
        "setup_s": (statistics.median(setup_probe.normalized(s) for s in loads), "s"),
        "tokens_per_s": (
            statistics.median(r.tokens / sum(probe.normalized(s) for s in pairs(r.spans)) for r in rounds),
            "tokens/s",
        ),
        "doc_latency_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
        "peak_rss_mb": (peak_rss, "MiB"),
    }
    return rounds, metrics


def measure_traced(args, makan, work: Path) -> tuple[list[Round], dict]:
    """A third of the time untraced, the rest traced; the gap is the tracing overhead."""
    start = clock()
    _, res = load_resources(makan, 1)
    workload = build(args.workload, args.seed, makan, res, work)
    plain = run_rounds(workload, args.seconds / 3)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        load_resources(makan, SETUP_LOADS)
        setup = tracer.snapshot()
        tracer.reset()
        traced = run_rounds(workload, args.seconds - (clock() - start), tracer)
        loop = tracer.snapshot()
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(loop, setup, len(traced))
    plain_s = sum(r.seconds for r in plain) / len(plain)
    traced_s = sum(r.seconds for r in traced) / len(traced)
    metrics["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0), "%")
    stats, counts = loop
    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced and {len(traced)} traced rounds")
    print(f"  round time untraced {1000 * plain_s:.1f} ms, traced {1000 * traced_s:.1f} ms")
    print(f"  {'span':<34}{'calls/round':>14}{'incl ms':>12}{'self ms':>12}")
    k = len(traced)
    for name, (n, total, own) in sorted(stats.items(), key=lambda kv: -kv[1][2]):
        if n:
            print(f"  {name:<34}{n / k:>14.1f}{1000 * total / k:>12.3f}{1000 * own / k:>12.3f}")
    hits, lookups = counts["lexicon.lookup_hits"], stats["lexicon.lookup"][0]
    vetoes, guard_calls = counts["guards.vetoes"], stats["guards.run_guards"][0]
    print(f"  lexicon.lookup_hit_ratio: {hits} hits of {lookups} lookups")
    print(f"  guards.veto_ratio: {vetoes} vetoes of {guard_calls} guard runs")
    print(f"  output sha256 (information, not a gate): {workload.digest()}")
    return plain + traced, metrics


def run_all(args) -> int:
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    makan = import_makan()
    work = WORK / f"run-{os.getpid()}"
    try:
        rounds, metrics = (measure_traced if args.trace else measure)(args, makan, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    errors = [e for r in rounds for e in r.errors]
    for line in errors[:10]:
        print(f"bench: {line}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(r.checked for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
