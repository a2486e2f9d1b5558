"""Layer spans recorded from outside the program.

The tracer replaces the module-level names that callers look up (for
example ``hypcert.sesma_identity.lhs_sum``, which ``verify`` reads as a
global) with thin wrappers.  Each wrapped call appends one span
``(name, start_ns, end_ns, parent, op, key)`` to an in-memory list; nothing
inside ``src/`` changes, and :meth:`Tracer.remove` puts every original back.

A span's self time is its duration minus the durations of its direct child
spans, so summing self time over all spans of a top-level call gives that
call's duration back.  ``op`` numbers the top-level calls of a process (one
CLI command, or one pair in a pool worker); ``key`` carries the pair's k for
``verify`` and the term count for ``eval_exact``.

Pool workers started by ``fork`` inherit the wrappers.  A worker cannot
hand its spans back through the pool without changing what the program
returns, so after each top-level call it folds its spans into a shared
array of totals (see :meth:`Tracer.share`) and drops them.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import time
from functools import wraps

# Every (module, attribute) through which a caller reaches a layer function.
# The cli entries are the names cli.py imported; the sesma_identity entries
# are the globals verify() and sweep() read.  A target the program no longer
# has is skipped, so the benchmark keeps running after code is removed.
TARGETS = (
    ("hypcert.cli", "run"),
    ("hypcert.cli", "run_verify"),
    ("hypcert.cli", "run_sweep"),
    ("hypcert.cli", "classify"),
    ("hypcert.cli", "eval_exact"),
    ("hypcert.cli", "recognize"),
    ("hypcert.cli", "match_whipple"),
    ("hypcert.cli", "rhs_exact_terminating"),
    ("hypcert.cli", "rhs_numeric"),
    ("hypcert.sesma_identity", "verify"),
    ("hypcert.sesma_identity", "lhs_sum"),
    ("hypcert.sesma_identity", "rewrite"),
    ("hypcert.sesma_identity", "eval_exact"),
    ("hypcert.sesma_identity", "match_whipple"),
    ("hypcert.sesma_identity", "rhs_exact_terminating"),
    ("hypcert.whipple", "pochhammer"),
    ("hypcert.term_recognize", "rational_roots"),
    ("hypcert.term_recognize", "poly_gcd"),
)

# Span names, "<module>.<function>"; their order fixes the totals layout.
NAMES = (
    "cli.run",
    "sesma_identity.sweep",
    "sesma_identity.verify",
    "sesma_identity.lhs_sum",
    "sesma_identity.rewrite",
    "hyper_series.classify",
    "hyper_series.eval_exact",
    "whipple.match_whipple",
    "whipple.rhs_exact_terminating",
    "whipple.rhs_numeric",
    "exact_arith.pochhammer",
    "term_recognize.recognize",
    "term_recognize.rational_roots",
    "term_recognize.poly_gcd",
)
_INDEX = {name: i for i, name in enumerate(NAMES)}
_VERIFY = _INDEX["sesma_identity.verify"]
_EVAL = _INDEX["hyper_series.eval_exact"]


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _terms(series) -> int:
    """Terms an exact sum adds: N + 1 for the smallest upper parameter -N."""
    stops = [-a.numerator for a in series.upper if a.denominator == 1 and a <= 0]
    return min(stops) + 1 if stops else 0


class Totals:
    """Per-name self time, inclusive time and calls, plus the term count
    of exact sums and the inclusive ``verify`` time of each k-row.

    ``vector`` flattens everything into floats so that pool workers can add
    into one shared array.
    """

    def __init__(self, max_k: int):
        self.max_k = max_k
        self.self_ns = [0.0] * len(NAMES)
        self.incl_ns = [0.0] * len(NAMES)
        self.calls = [0.0] * len(NAMES)
        self.terms = 0.0
        self.row_ns = [0.0] * (max_k + 1)

    @classmethod
    def size(cls, max_k: int) -> int:
        return 3 * len(NAMES) + 1 + max_k + 1

    def add_spans(self, spans) -> None:
        for name, start, end, parent, _op, key in spans:
            duration = end - start
            self.self_ns[name] += duration
            self.incl_ns[name] += duration
            self.calls[name] += 1
            if parent >= 0:
                self.self_ns[spans[parent][0]] -= duration
            if name == _EVAL:
                self.terms += key
            elif name == _VERIFY and 0 <= key <= self.max_k:
                self.row_ns[key] += duration

    def vector(self) -> list[float]:
        return self.self_ns + self.incl_ns + self.calls + [self.terms] + self.row_ns

    def add_vector(self, values) -> None:
        n = len(NAMES)
        for i in range(n):
            self.self_ns[i] += values[i]
            self.incl_ns[i] += values[n + i]
            self.calls[i] += values[2 * n + i]
        self.terms += values[3 * n]
        for k in range(self.max_k + 1):
            self.row_ns[k] += values[3 * n + 1 + k]

    def seconds(self, name: str) -> float:
        return self.self_ns[_INDEX[name]] / 1e9

    def busy(self, name: str) -> float:
        return self.incl_ns[_INDEX[name]] / 1e9

    def count(self, name: str) -> float:
        return self.calls[_INDEX[name]]

    def layer_seconds(self, layer: str) -> float:
        return sum(self.self_ns[i] for i, name in enumerate(NAMES) if name.split(".")[0] == layer) / 1e9

    def to_json(self) -> dict:
        return {"max_k": self.max_k, "vector": self.vector()}

    @classmethod
    def from_json(cls, data: dict) -> "Totals":
        totals = cls(data["max_k"])
        totals.add_vector(data["vector"])
        return totals


class Tracer:
    """Installs span-recording wrappers over :data:`TARGETS`."""

    def __init__(self, max_k: int = 0):
        self.max_k = max_k
        self.spans: list = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._worker = False
        self._shared = None
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        # a forked worker starts inside the parent's open spans; it keeps none
        os.register_at_fork(after_in_child=self._forked)
        wrappers: dict[int, object] = {}
        for module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None or span_name(original) not in _INDEX:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrap(original)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrappers[id(original)])

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def share(self):
        """Create the array that forked pool workers add their totals to.

        Call before the pool starts; the array is inherited, not pickled.
        """
        import multiprocessing

        self._shared = multiprocessing.Array("d", Totals.size(self.max_k))

    def totals(self) -> Totals:
        totals = Totals(self.max_k)
        totals.add_spans(self.spans)
        if self._shared is not None:
            with self._shared.get_lock():
                totals.add_vector(self._shared[:])
        return totals

    def covered_s(self) -> float:
        """Time inside top-level spans of this process (= the sum of all
        self times recorded here)."""
        return sum(span[2] - span[1] for span in self.spans if span[3] < 0) / 1e9

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"names": NAMES, "fields": ["name", "start_ns", "end_ns", "parent", "op", "key"]}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

    def _forked(self) -> None:
        self._worker = True
        self._stack.clear()
        self.spans.clear()

    def _flush_worker(self) -> None:
        totals = Totals(self.max_k)
        totals.add_spans(self.spans)
        self.spans.clear()
        if self._shared is None:
            return
        shared = self._shared.get_obj()  # raw array: the lock is taken once, here
        with self._shared.get_lock():
            for i, value in enumerate(totals.vector()):
                if value:
                    shared[i] += value

    def _wrap(self, fn):
        name = _INDEX[span_name(fn)]
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if name == _VERIFY:
                key = args[0] if args else kwargs.get("k", -1)
            elif name == _EVAL:
                key = _terms(args[0])
            else:
                key = 0
            parent = stack[-1] if stack else -1
            if parent < 0:
                self._op += 1
            pos = len(spans)
            spans.append(None)
            stack.append(pos)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[pos] = (name, start, end, parent, self._op, key)
                if not stack and self._worker:
                    self._flush_worker()

        return wrapper


def loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x); 0 without two points."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx if sxx else 0.0
