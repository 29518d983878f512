"""Batch command line: annotate files, score against gold, lint resources, split corpora.

Exit codes: 0 success, 1 usage, 2 validation, 3 data mismatch.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

from . import evaluate, rulepack
from .annotator import AnnotationFormatError, _atomic_write, annotate, read_annotations, write_annotations
from .engine import GrammarError
from .lexicon import LexiconError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_MISMATCH = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="makan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_resource_flags(p):
        p.add_argument("--lexicon", action="append", default=[], metavar="PATH",
                       help="lexicon TSV (repeatable; default: shipped seed lexicon)")
        p.add_argument("--rules", action="append", default=[], metavar="PATH",
                       help="rule pack file (repeatable; default: shipped pack)")

    p_ann = sub.add_parser("annotate", help="annotate UTF-8 text files")
    add_resource_flags(p_ann)
    p_ann.add_argument("--out", metavar="DIR", required=True, help="output directory")
    p_ann.add_argument("inputs", nargs="+", metavar="FILE")

    p_eval = sub.add_parser("eval", help="score system annotations against gold")
    p_eval.add_argument("--mode", choices=[m.value for m in evaluate.MatchMode],
                        default=evaluate.MatchMode.TRIGGER_EXACT.value)
    p_eval.add_argument("--out", metavar="PATH", default=None, help="write machine-readable report")
    p_eval.add_argument("gold_dir", metavar="GOLD_DIR")
    p_eval.add_argument("system_dir", metavar="SYSTEM_DIR")

    p_check = sub.add_parser("check", help="validate lexicon, rules and guards")
    add_resource_flags(p_check)

    p_split = sub.add_parser("split", help="deterministic 75/25 corpus split")
    p_split.add_argument("--seed", type=int, default=0)
    p_split.add_argument("--out", metavar="DIR", default=".", help="manifest output directory")
    p_split.add_argument("inputs", nargs="*", metavar="FILE")

    return parser


def cmd_annotate(args) -> int:
    smap, lexicon, grammar, _ = rulepack.load_resources(args.lexicon, args.rules)
    # Read every input before writing: a bad or clashing one leaves no output.
    inputs: dict[str, tuple[Path, str]] = {}
    out_dir = Path(args.out)
    for path in map(Path, sorted(args.inputs)):
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            print(f"cannot read input {path} as UTF-8 text: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        if path.stem in inputs:
            print(f"inputs {inputs[path.stem][0]} and {path} would both write {path.stem}.json", file=sys.stderr)
            return EXIT_VALIDATION
        target = out_dir / f"{path.stem}.json"
        if target.is_dir() or target.resolve() == path.resolve():
            print(f"output {target} " + ("is a directory" if target.is_dir() else f"would overwrite input {path}"), file=sys.stderr)
            return EXIT_VALIDATION
        inputs[path.stem] = (path, text)
    out_dir.mkdir(parents=True, exist_ok=True)
    for stem, (_, text) in inputs.items():
        doc = annotate(text, lexicon, grammar, smap, doc_id=stem)
        write_annotations(doc, out_dir / f"{stem}.json")
    return EXIT_OK


def _read_doc_dir(dir_path: str):
    docs = {}
    for path in sorted(Path(dir_path).glob("*.json")):
        doc = read_annotations(path)
        if doc.doc_id in docs:
            raise AnnotationFormatError(f"{dir_path}: duplicate doc_id {doc.doc_id!r} ({path.name})")
        docs[doc.doc_id] = doc
    return docs


def cmd_eval(args) -> int:
    for d in (args.gold_dir, args.system_dir):
        if not Path(d).is_dir():
            print(f"not a directory: {d}", file=sys.stderr)
            return EXIT_VALIDATION
    out = Path(args.out).resolve() if args.out else None
    if out is not None and (out.is_dir() or not out.parent.is_dir()):
        print(f"cannot write report {args.out}: {'is a' if out.is_dir() else 'no such'} directory", file=sys.stderr)
        return EXIT_VALIDATION
    clobbered = [p for d in (args.gold_dir, args.system_dir) for p in Path(d).glob("*.json") if p.resolve() == out]
    if clobbered:
        print(f"output {args.out} would overwrite input {clobbered[0]}", file=sys.stderr)
        return EXIT_VALIDATION
    gold = _read_doc_dir(args.gold_dir)
    system = _read_doc_dir(args.system_dir)
    report = evaluate.score(gold.values(), system.values(), evaluate.MatchMode(args.mode))
    print(evaluate.format_table(report))
    if args.out:
        _atomic_write(Path(args.out), json.dumps(evaluate.report_to_json(report), ensure_ascii=False, indent=2) + "\n")
    return EXIT_OK


def cmd_check(args) -> int:
    smap, lexicon, grammar, _ = rulepack.load_resources(args.lexicon, args.rules)
    print(f"ok: {len(lexicon.entries)} lexicon entries, {len(grammar)} rules, {len(smap)} category nodes")
    return EXIT_OK


def cmd_split(args) -> int:
    if not args.inputs:
        print("no input documents to split", file=sys.stderr)
        return EXIT_USAGE
    out_dir, inputs = Path(args.out), {}
    for p in args.inputs:
        if (first := inputs.setdefault(Path(p).resolve(), p)) != p:  # `evaluate.split` refuses a name given twice
            print(f"cannot split: {first!r} and {p!r} name one file", file=sys.stderr)
            return EXIT_VALIDATION
    try:
        work, evalset = evaluate.split(args.inputs, args.seed)
    except ValueError as exc:  # a repeated input
        print(f"cannot split: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    clash = [(m, inputs[m.resolve()]) for m in (out_dir / "work.txt", out_dir / "eval.txt") if m.resolve() in inputs]
    if clash:
        print("output {} would overwrite input {}".format(*clash[0]), file=sys.stderr)
        return EXIT_VALIDATION
    out_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write(out_dir / "work.txt", "".join(p + "\n" for p in work))
    _atomic_write(out_dir / "eval.txt", "".join(p + "\n" for p in evalset))
    print(f"work: {len(work)} docs, eval: {len(evalset)} docs")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    commands = {"annotate": cmd_annotate, "eval": cmd_eval, "check": cmd_check, "split": cmd_split}
    # A command builds no reference cycle, so reference counting frees all it drops: the cyclic collector, paused
    # until it returns, would only walk the caller's heap and the command's live objects.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return commands[args.command](args)
    except (LexiconError, GrammarError, AnnotationFormatError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except OSError as exc:  # an output path of the wrong kind; names the path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
