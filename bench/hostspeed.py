"""Host speed, measured with a fixed task between the program's timed calls.

On a shared host the speed of a process drifts by a third or more, over
seconds and over minutes, with the load of its neighbours; the drift moves the
wall-clock figures of identical code more than the changes the benchmark has
to see. A probe runs a fixed task that does not touch makan: a miniature rule
matcher written in the pipeline's style (regular-expression tokenizing, frozen
dataclasses, dict lookups with proclitic stripping, a recursive alignment that
merges capture dicts, parent-chain subsumption), on seeded text and rules.
Simpler tasks (a regex scan, an arithmetic loop) were tried and swung with
the host by up to twice as much as the pipeline did, so they over-corrected.

The probe runs between timed calls, outside them, at points fixed by the
workload (after so many rounds or loads), not by the clock: the probe leaves
garbage-collector counts behind, so probing at fixed points keeps the
program's collections, and its peak memory, the same from run to run. A
call's time is scaled to the nominal host, on which one probe takes
NOMINAL_PROBE_S:

    normalized = wall time * NOMINAL_PROBE_S / mean(probe before, probe after)

A change to the program moves the wall time and leaves the probe alone, so it
moves the normalized figure by the same share.
"""

from __future__ import annotations

import bisect
import random
import re
import time
from dataclasses import dataclass

NOMINAL_PROBE_S = 0.15   # about one probe on a quiet 2-vCPU Xeon guest, Python 3.11

clock = time.perf_counter

_MARKS_RE = re.compile("[ً-ْ]")
_WORD_RE = re.compile("[ء-ي]+")
_LETTERS = [chr(c) for c in range(0x0628, 0x063B)] + [chr(c) for c in range(0x0641, 0x064B)]


@dataclass(frozen=True)
class _Token:
    start: int
    end: int
    stem: str


@dataclass(frozen=True)
class _Entry:
    length: int
    cls: int
    senses: tuple[str, ...]
    flags: frozenset


def _task_inputs():
    """Seeded text, lexicon, category tree and rules: (text, lexicon, parents, rules)."""
    rng = random.Random(0)
    words = sorted({"".join(rng.choice(_LETTERS) for _ in range(rng.randint(2, 6))) for _ in range(600)})
    parents = {f"c{i}": (f"c{rng.randrange(i)}" if i else None) for i in range(60)}
    lexicon = {
        w: [_Entry(rng.choice((1, 1, 1, 2)), rng.randrange(4), (f"c{rng.randrange(60)}",),
                   frozenset(rng.sample("abcd", rng.randint(0, 2))))]
        for w in words[:240]
    }
    values = {
        "lit": lambda: rng.choice(words),
        "cls": lambda: rng.randrange(4),
        "sense": lambda: f"c{rng.randrange(20)}",
        "flag": lambda: rng.choice("abcd"),
        "gap": lambda: rng.randint(1, 2),
    }
    rules = []
    for _ in range(40):
        atoms = []
        for _ in range(rng.randint(2, 4)):
            kind = rng.choice(("lit", "cls", "sense", "sense", "flag", "gap"))
            atoms.append((kind, values[kind](), kind != "gap" and rng.random() < 0.3))
        rules.append((rng.randrange(3), tuple(atoms)))
    parts = []
    for i in range(1400):
        word = rng.choice("وبل") + rng.choice(words) if rng.random() < 0.3 else rng.choice(words)
        parts.append("".join(ch + ("َ" if rng.random() < 0.2 else "") for ch in word))
        parts.append(".\n" if i % 11 == 10 else " ")
    return "".join(parts), lexicon, parents, tuple(rules)


_TEXT, _LEXICON, _PARENTS, _RULES = _task_inputs()


def _subsumes(ancestor: str, category: str | None) -> bool:
    while category is not None:
        if category == ancestor:
            return True
        category = _PARENTS[category]
    return False


def _options(atom, tokens, lookups, pos):
    kind, value, optional = atom
    if kind == "gap":
        return [(k, None) for k in range(min(value, len(tokens) - pos), -1, -1)]
    out = []
    if pos < len(tokens):
        if kind == "lit":
            if tokens[pos].stem == value:
                out.append((1, None))
        else:
            for e in lookups[pos]:
                if (
                    (kind == "cls" and e.cls == value)
                    or (kind == "flag" and value in e.flags)
                    or (kind == "sense" and any(_subsumes(value, s) for s in e.senses))
                ):
                    out.append((e.length, e))
    out.sort(key=lambda o: -o[0])
    if optional:
        out.append((0, None))
    return out


def _align(atoms, tokens, lookups, start, ai=0, pos=None, vec=(), caps=None, best=None):
    """Longest alignment of `atoms` at token `start`: (length, per-atom lengths, captures) or None."""
    pos = start if pos is None else pos
    if ai == len(atoms):
        if best is None or (pos - start, vec) > (best[0], best[1]):
            return (pos - start, vec, caps or {})
        return best
    for used, entry in _options(atoms[ai], tokens, lookups, pos):
        more = {**(caps or {}), ai: (pos, pos + used, entry)} if used else caps
        best = _align(atoms, tokens, lookups, start, ai + 1, pos + used, vec + (used,), more, best)
    return best


def reference_task() -> int:
    """Match every rule at every token of the seeded text; the number of matches."""
    plain = _MARKS_RE.sub("", _TEXT)
    tokens = [_Token(m.start(), m.end(), m.group()) for m in _WORD_RE.finditer(plain)]
    lookups = [_LEXICON.get(t.stem, []) + _LEXICON.get(t.stem[1:], []) for t in tokens]
    found = []
    for i in range(len(tokens)):
        for priority, atoms in _RULES:
            best = _align(atoms, tokens, lookups, i)
            if best is not None and best[0]:
                found.append((i, -priority, best[0]))
    found.sort()
    return len(found)


class HostProbe:
    """Probe samples over a run: (midpoint, seconds), in time order."""

    def __init__(self):
        self.mids: list[float] = []
        self.times: list[float] = []
        self.poll()

    def poll(self) -> None:
        start = clock()
        reference_task()
        end = clock()
        self.mids.append((start + end) / 2)
        self.times.append(end - start)

    def normalized(self, span: tuple[float, float]) -> float:
        """The duration of `span` (start, end) on the nominal host."""
        start, end = span
        before = self.times[max(bisect.bisect_right(self.mids, start) - 1, 0)]
        after = self.times[min(bisect.bisect_left(self.mids, end), len(self.times) - 1)]
        return (end - start) * NOMINAL_PROBE_S * 2 / (before + after)
