"""Span tracing of the shiftlab layers, installed from outside the library.

``install`` wraps every public function of each layer module (and a few
methods named in ``METHODS``), then rebinds each wrapped function wherever
the package holds a reference to it: module attributes such as both
``shiftlab.factor.decompose`` and ``shiftlab.matching.decompose``, class
attributes and ``__init__`` defaults such as ``TypeIIISpec.a``.  Each call
appends one span ``[name, start, end, parent, returned]`` to an in-memory
list; ``Recorder.dump`` writes the list out once, at the end.

The per-coordinate perturbation callables are called tens of millions of
times, so they are counted and not spanned.

``layer_metrics`` turns a span list into the per-layer metrics.  This
module imports nothing from shiftlab at import time, so the benchmark
parent can use ``layer_metrics`` without loading the library.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("sampling", "markers", "matching", "factor", "stattests",
          "measures", "typeiii")
COUNTED = frozenset({"inverse_sqrt", "log_damped"})
METHODS = {"measures": ("FiniteProductMeasure.block",),
           "matching": ("MatchingAssignment.check_capacity",)}


class Recorder:
    """Spans and counts of one traced process, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.tallies: dict[str, itertools.count] = {}

    def note_max(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def span(self, name: str, fn, observe=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            span[4] = True
            if observe is not None:
                try:
                    observe(self, args, result)
                except Exception:  # noqa: BLE001  (never fail the program)
                    self.counts["trace.observer_errors"] += 1
            return result

        return wrapper

    def counter(self, name: str, fn):
        """Count calls of a one-argument callable ``a(n)``; at ~50 ns per
        call this is the cheapest wrapper Python offers."""
        tally = self.tallies[name] = itertools.count()
        step = tally.__next__

        @functools.wraps(fn)
        def wrapper(n):
            step()
            return fn(n)

        return wrapper

    def dump(self, path) -> None:
        counts = dict(self.counts)
        counts.update((k, next(t)) for k, t in self.tallies.items())
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": counts,
                       "maxima": self.maxima}, fh)


# Observers read the counts that drive cost from a call's result.  They run
# after the span closes, so their cost lands in the caller's self time.

def _sampled(rec, args, w):
    rec.counts["sampling.symbols"] += len(w.values)


def _decomposed(rec, args, dec):
    # All decompose calls of one command see the same window, so these are
    # per-window counts whatever the number of calls.
    rec.note_max("markers.markers", len(dec.markers))
    rec.note_max("markers.specials", len(dec.special))


def _matched(rec, args, asg):
    matched, unmatched = len(asg.b_indices), len(asg.unmatched)
    rec.note_max("matching.d", asg.d)
    rec.note_max("matching.rounds", int(asg.rounds.max()) if matched else 0)
    rec.counts["matching.b_count"] += matched + unmatched
    rec.counts["matching.unmatched_b"] += unmatched


def _split(rec, args, split):
    rec.counts["factor.hash_windows"] += int(split.valid.sum())


def _spread(rec, args, out):
    rec.note_max("factor.censor_fraction", float((out.values < 0).mean()))


def _suite(rec, args, result):
    rec.counts["stattests.bits_tested"] += len(args[0])


OBSERVERS = {
    "sampling.sample_window": _sampled,
    "markers.decompose": _decomposed,
    "matching.meshalkin_match": _matched,
    "factor.psi_split": _split,
    "factor.spread_bits": _spread,
    "stattests.uniformity_suite": _suite,
}


def install(rec: Recorder):
    """Wrap the layers of the imported shiftlab package; return the wrapped
    ``shiftlab.cli.main``, which records the root span ``cli.main``."""
    import shiftlab.cli

    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"shiftlab.{layer}")
        for attr, fn in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            name = f"{layer}.{attr}"
            wrapped[fn] = (rec.counter(name, fn) if attr in COUNTED else
                           rec.span(name, fn, OBSERVERS.get(name)))
        for qual in METHODS.get(layer, ()):
            cls_name, meth = qual.split(".")
            cls = getattr(mod, cls_name, None)
            if inspect.isfunction(getattr(cls, meth, None)):
                setattr(cls, meth, rec.span(f"{layer}.{meth}",
                                            getattr(cls, meth)))

    def rebind(obj):
        for attr, val in list(vars(obj).items()):
            if inspect.isfunction(val) and val in wrapped:
                setattr(obj, attr, wrapped[val])

    for modname, mod in list(sys.modules.items()):
        if modname != "shiftlab" and not modname.startswith("shiftlab."):
            continue
        rebind(mod)
        for cls in vars(mod).values():
            if inspect.isclass(cls) and cls.__module__ == modname:
                rebind(cls)
                init = cls.__dict__.get("__init__")
                if inspect.isfunction(init) and init.__defaults__:
                    init.__defaults__ = tuple(
                        wrapped.get(v, v) if inspect.isfunction(v) else v
                        for v in init.__defaults__)
    shiftlab.cli.main = rec.span("cli.main", shiftlab.cli.main)
    return shiftlab.cli.main


# ---------------------------------------------------------------------------
# Aggregation (benchmark parent)
# ---------------------------------------------------------------------------

EMPTY_TRACE = {"spans": [], "counts": {}, "maxima": {}}

TIMED = ("sampling.sample_window", "markers.decompose",
         "markers.good_prob_lower", "markers.good_intervals",
         "matching.good_to_ab", "matching.meshalkin_match",
         "matching.check_capacity", "factor.extract_fair_bits",
         "factor.psi_split", "factor.spread_bits", "factor.bias_square_report",
         "stattests.uniformity_suite", "measures.kakutani_shift_sum",
         "measures.doeblin_delta", "measures.block", "typeiii.ratio_profile",
         "typeiii.pushforward_density")


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced command.

    ``<layer>.<func>_s`` is the time inside ``func``, callees included,
    summed over its calls.  ``<layer>.self_s`` is the layer's self time:
    its spans minus their direct child spans.  The self times of the
    layers and of ``cli`` (the root span ``cli.main``) add up to the time
    inside ``main``.
    """
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = Counter()
    returned = Counter()
    for i, (name, t0, t1, _, ok) in enumerate(spans):
        total[name] += t1 - t0
        self_time[name.split(".")[0]] += t1 - t0 - child_time[i]
        calls[name] += 1
        returned[name] += ok
    counts, maxima = trace["counts"], trace["maxima"]

    out = {f"{layer}.self_s": self_time[layer] for layer in ("cli",) + LAYERS}
    out.update({f"{name}_s": total[name] for name in TIMED})
    out["sampling.symbols"] = counts.get("sampling.symbols", 0)
    out["markers.decompose_calls"] = calls["markers.decompose"]
    out["markers.markers"] = maxima.get("markers.markers", 0)
    out["markers.specials"] = maxima.get("markers.specials", 0)
    b_count = counts.get("matching.b_count", 0)
    unmatched = counts.get("matching.unmatched_b", 0)
    out["matching.rounds"] = maxima.get("matching.rounds", 0)
    out["matching.d"] = maxima.get("matching.d", 0)
    out["matching.b_count"] = b_count
    out["matching.unmatched_b"] = unmatched
    out["matching.matched_fraction"] = (
        (b_count - unmatched) / b_count if b_count else 0.0)
    out["factor.hash_windows"] = counts.get("factor.hash_windows", 0)
    out["factor.censor_fraction"] = maxima.get("factor.censor_fraction", 0.0)
    out["stattests.bits_tested"] = counts.get("stattests.bits_tested", 0)
    out["measures.kakutani_calls"] = calls["measures.kakutani_shift_sum"]
    out["measures.perturbation_calls"] = sum(
        counts.get(f"measures.{name}", 0) for name in COUNTED)
    out["typeiii.ratio_calls"] = calls["typeiii.ratio_profile"]
    out["typeiii.accepted_fraction"] = (
        returned["typeiii.ratio_profile"] / calls["typeiii.ratio_profile"]
        if calls["typeiii.ratio_profile"] else 0.0)
    out["trace.spans"] = len(spans)
    return out
