"""Spans and counters around jumploci's public functions, from outside.

The tracer patches functions in the running process only; it changes no
source file.  A module-level function is replaced in every ``jumploci``
module namespace that bound it (``from .loci import crk_at`` copies the
name into ``cli``), a method on its class.  Each call of a wrapped
function appends one span ``[job, name, start, end, parent]`` to an
in-memory list; ``parent`` is the index of the enclosing span, or -1.

``field`` is not traced: its arithmetic is called inline in every loop,
so a wrapper would time only the wrapper.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (module, attribute) pairs; "Class.method" names a method, and a bare
# class name wraps its constructor.
SPANNED = [
    ("session", "parse_session"),
    ("session", "build_pipeline"),
    ("resolution", "resolve_over_a"),
    ("resolution", "resolve_over_b"),
    ("resolution", "dualize_over_a"),
    ("homotopy", "compute_higher_homotopies"),
    ("homotopy", "dualize_homotopies"),
    ("twisted", "build_twisted_complex"),
    ("twisted", "minimalize"),
    ("twisted", "homology_presentation"),
    ("matrix", "PolyMatrix.minors"),
    ("matrix", "PolyMatrix.generic_rank"),
    ("matrix", "PolyMatrix.rank_at"),
    ("groebner", "ModuleGB"),
    ("groebner", "Ideal.same_variety"),
    ("groebner", "Ideal.radical_contains"),
    ("groebner", "Ideal.dimension"),
    ("groebner", "module_hilbert_data"),
    ("loci", "jump_loci_report"),
    ("loci", "duality_check"),
    ("loci", "betti_degree"),
    ("loci", "complexity_of"),
    ("loci", "stable_betti_oracle"),
    ("loci", "crk_at"),
    ("loci", "realize"),
    ("cli", "emit_report"),
]
SPAN_NAMES = [f"{mod}.{attr}" for mod, attr in SPANNED]

# Counted, not spanned: called millions of times per job.
COUNTED = [("poly", "PolyRing.mono_key")]

# Counters filled from a span's arguments, result, and the GBStats pair
# count before the call.
TRACKED_GB = "groebner.ModuleGB.tracked_calls"
UNTRACKED_PAIRS = "groebner.untracked_pairs"
RADICAL_TRUE = "groebner.Ideal.radical_contains.true"
MINORS_OUT = "matrix.PolyMatrix.minors.out"


def _pairs():
    return sys.modules["jumploci.groebner"].GBStats.pairs_processed


def _gb_counts(args, kwargs, result, pairs_before):
    if kwargs.get("track", args[4] if len(args) > 4 else False):
        return TRACKED_GB, 1
    return UNTRACKED_PAIRS, _pairs() - pairs_before


def _radical_counts(args, kwargs, result, pairs_before):
    return RADICAL_TRUE, 1 if result is True else 0


def _minors_counts(args, kwargs, result, pairs_before):
    return MINORS_OUT, len(result)


RESULT_COUNTERS = {
    "groebner.ModuleGB": _gb_counts,
    "groebner.Ideal.radical_contains": _radical_counts,
    "matrix.PolyMatrix.minors": _minors_counts,
}
RESULT_COUNTER_NAMES = [TRACKED_GB, UNTRACKED_PAIRS, RADICAL_TRUE, MINORS_OUT]
COUNTER_NAMES = ([f"{mod}.{attr}.calls" for mod, attr in COUNTED]
                 + RESULT_COUNTER_NAMES)


class Tracer:
    """Installs the wrappers and holds one job's spans and counters.

    With ``record_spans`` false the wrappers only count calls and fill
    the result counters: a nearly free pass whose counts a traced pass
    must repeat, and whose time the traced pass's overhead is taken
    against.  ``mono_key`` is counted only when spans are recorded.
    """

    def __init__(self, job: str, record_spans: bool = True):
        self.job = job
        self.record_spans = record_spans
        self.spans = []
        self.counts = dict.fromkeys(RESULT_COUNTER_NAMES, 0)
        self._stack = []
        self._cells = {}

    def install(self):
        for mod, attr in SPANNED:
            name = f"{mod}.{attr}"
            self._patch(mod, attr, lambda fn, n=name: self._spanning(n, fn))
        if self.record_spans:
            for mod, attr in COUNTED:
                name = f"{mod}.{attr}.calls"
                self._patch(mod, attr,
                            lambda fn, n=name: self._counting(n, fn))

    def collect_counts(self):
        for name, cell in self._cells.items():
            self.counts[name] = cell[0]
        return self.counts

    def _patch(self, mod, attr, make_wrapper):
        module = sys.modules[f"jumploci.{mod}"]
        owner_name, _, key = attr.rpartition(".")
        target = getattr(module, owner_name, None) if owner_name else module
        if not owner_name and isinstance(getattr(module, key, None), type):
            target, key = getattr(module, key), "__init__"
        if isinstance(target, type):
            original = target.__dict__.get(key)
        else:
            original = getattr(target, key, None)
        if original is None:
            # A renamed or deleted function needs a benchmark change.
            raise LookupError(f"jumploci.{mod}.{attr} not found")
        wrapper = make_wrapper(original)
        if isinstance(target, type):
            setattr(target, key, wrapper)
            return
        for name, loaded in list(sys.modules.items()):
            if name == "jumploci" or name.startswith("jumploci."):
                for bound, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, bound, wrapper)

    def _spanning(self, name, fn):
        spans, stack, job = self.spans, self._stack, self.job
        record = self.record_spans
        calls = self._cells.setdefault(f"{name}.calls", [0])
        counter = RESULT_COUNTERS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[0] += 1
            pairs_before = _pairs() if counter is not None else 0
            if record:
                span = [job, name, 0.0, 0.0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(span)
                span[2] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[3] = perf_counter()
                    stack.pop()
            else:
                result = fn(*args, **kwargs)
            if counter is not None:
                key, inc = counter(args, kwargs, result, pairs_before)
                counts[key] += inc
            return result
        return wrapper

    def _counting(self, name, fn):
        cell = self._cells.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)
        return wrapper


def span_metrics(spans):
    """Per name: calls, busy (outermost spans of that name, so recursion is
    not counted twice) and self time (duration minus direct children)."""
    out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
           for name in SPAN_NAMES}
    child_time = [0.0] * len(spans)
    for span in spans:
        parent = span[4]
        if parent >= 0:
            child_time[parent] += span[3] - span[2]
    for idx, (_, name, start, end, parent) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[idx]
        while parent >= 0 and spans[parent][1] != name:
            parent = spans[parent][4]
        if parent < 0:
            entry["busy_s"] += end - start
    return out


def top_level_time(spans):
    return sum(end - start for _, _, start, end, parent in spans
               if parent < 0)
