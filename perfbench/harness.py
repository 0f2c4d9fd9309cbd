"""Timing, spans and counts around calls into the package, and the reference
loop that scales every time to one machine speed.

Every call into the package goes through `Recorder.call`, which adds the
call's wall time to its phase.  With tracing on it also keeps a span
(name, start, end, parent) and the counts reported next to it, in memory
until the run ends.
"""

from __future__ import annotations

import re
import time
from collections import defaultdict

PHASES = ("setup", "edit", "recalc", "report")


class CheckFailed(AssertionError):
    """An output of the package differs from its independent reference."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Recorder:
    def __init__(self, traced: bool):
        self.traced = traced
        self.round = 0
        self.attempted = 0
        self.failed = 0
        self.spans: list[tuple] = []
        self.counts: list[tuple] = []    # (round, name, value)
        self.phase_ns = defaultdict(int)  # (round, phase) -> ns

    def call(self, phase: str, name: str, fn, *args, **kwargs):
        """Time one call into the package; `phase` is one of PHASES or
        "apart" for the traced-only calls made outside the phases."""
        t0 = time.perf_counter_ns()
        out = fn(*args, **kwargs)
        t1 = time.perf_counter_ns()
        if phase != "apart":
            self.attempted += 1
            self.phase_ns[self.round, phase] += t1 - t0
        if self.traced:
            self.spans.append((name, t0, t1, f"{phase}#{self.round}"))
        return out

    def count(self, name: str, value) -> None:
        if self.traced:
            self.counts.append((self.round, name, value))

    def phase_seconds(self, rounds) -> dict:
        return {p: [self.phase_ns[r, p] / 1e9 for r in rounds] for p in PHASES}

    def span_seconds(self, rounds) -> dict:
        """Per span name, its total seconds in each of the given rounds."""
        per = defaultdict(lambda: defaultdict(int))
        for name, t0, t1, parent in self.spans:
            per[name][int(parent.rsplit("#", 1)[1])] += t1 - t0
        return {name: [by_round.get(r, 0) / 1e9 for r in rounds]
                for name, by_round in per.items()}

    def count_totals(self, rounds) -> dict:
        per = defaultdict(lambda: defaultdict(int))
        for r, name, value in self.counts:
            per[name][r] += value
        return {name: [by_round.get(r, 0) for r in rounds]
                for name, by_round in per.items()}


# ---------------------------------------------------------------------------
# Reference loop
#
# The machine this benchmark was sized on changes speed by up to 2x for
# minutes at a time, for all processes alike.  A fixed pure-Python loop,
# timed between every two rounds, measures the speed of the moment; each
# round's times are scaled by REFERENCE_S / (median of the reference samples
# taken just before and just after that round).  The loop does the kind of
# work the package does (regex tokens, recursive descent, small tuples and
# dicts) and calls nothing in the package.

REFERENCE_S = 0.010
REFERENCE_REPEAT = 7   # passes over _EXPRS per sample: about 10 ms here

_TOKEN = re.compile(r"\s*(?:(\d+(?:\.\d+)?)|([A-Za-z_]\w*)|(.))")
_EXPRS = tuple(f"(x{i % 7}+{i})*y{i % 5}-{i % 13}/(z+{i % 3 + 1})+x{i % 4}*{i % 9}"
               for i in range(60))
_ENV = {**{f"x{i}": float(i) for i in range(7)},
        **{f"y{i}": float(i + 1) for i in range(5)}, "z": 2.0}


def _reference_once() -> float:
    total = 0.0
    seen = {}
    for src in _EXPRS:
        toks = [(m.group(1), m.group(2), m.group(3)) for m in _TOKEN.finditer(src)]
        pos = 0

        def atom():
            nonlocal pos
            num, name, _ = toks[pos]
            pos += 1
            if num:
                return float(num)
            if name:
                seen[name, len(seen) % 64] = (name, pos)
                return _ENV[name]
            v = expr()
            pos += 1
            return v

        def term():
            nonlocal pos
            v = atom()
            while pos < len(toks) and toks[pos][2] in ("*", "/"):
                op = toks[pos][2]
                pos += 1
                r = atom()
                v = v * r if op == "*" else v / r
            return v

        def expr():
            nonlocal pos
            v = term()
            while pos < len(toks) and toks[pos][2] in ("+", "-"):
                op = toks[pos][2]
                pos += 1
                r = term()
                v = v + r if op == "+" else v - r
            return v

        total += expr()
    return total + len(seen)


def reference_sample() -> float:
    """Seconds taken by a fixed amount of reference work."""
    t0 = time.perf_counter()
    for _ in range(REFERENCE_REPEAT):
        _reference_once()
    return time.perf_counter() - t0
