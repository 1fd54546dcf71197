"""In-memory span recorder for the traced benchmark run.

``Tracer.install`` rebinds the public functions of grasshilb's modules,
and the arithmetic operators of its polynomial classes, to wrappers that
record one span per call.  A function is rebound in the module that
defines it and in every grasshilb module that imported it by name (for
example ``hilbert.geometric_expand`` and ``cli.format_terms``).
``Tracer.root`` wraps ``cli.main`` as the root span of one job.

A span holds its layer name, start and end (``perf_counter_ns``), its
parent span, its job id and its counts.  A layer's self time is its
span's duration minus the part of that interval its child spans cover,
so within a job the self times add up to the root span's duration
exactly.  A call made while a span of the same layer is open (an
operator delegating to the other class, ``__sub__`` calling ``__add__``)
belongs to the open span and records nothing.

Two counts come from loops inside a function rather than from its
arguments: ``LOOPS`` shadows the iterable a loop draws from, in the
module of the function that runs the loop, and counts the items that
function takes while its layer's span is open.
"""

from __future__ import annotations

import builtins
import functools
import sys
import time
from collections import defaultdict

ROOT_LAYER = "cli"


def _size(obj):
    """Number of terms of a polynomial, series or term dict; 1 for an int."""
    if isinstance(obj, int):
        return 1
    return len(getattr(obj, "terms", obj))


def _mul_counts(args, kwargs, result):
    return {"term_pairs": _size(args[0]) * _size(args[1]),
            "terms_out": _size(result)}


def _serialized_terms(args, kwargs, result):
    return {"terms": _size(args[0])}


def _count_total(args, kwargs, result):
    return {"total": result}


_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__")

# (module, attribute, layer, counter).  The attribute may name a class
# member.  A target missing from the program is skipped with a warning.
TARGETS = (
    [("hilbert", "series_by_recursion", "hilbert.recursion", None),
     ("hilbert", "numerator_symmetric_recursion", "hilbert.sym", None),
     ("hilbert", "numerator_inclusion_exclusion", "hilbert.ie", None),
     ("hilbert", "cross_validate", "hilbert.cross", None),
     ("polyring", "geometric_expand", "polyring.sweep", None),
     ("polyring", "multiply_by_geometric_series", "polyring.sweep", None),
     ("polyring", "format_terms", "polyring.serialize", _serialized_terms),
     ("polyring", "to_json_dict", "polyring.serialize", _serialized_terms),
     ("polyring", "elementary_symmetric", "polyring.symfn", None),
     ("polyring", "complete_homogeneous", "polyring.symfn", None),
     ("semigroup", "count_gradation", "semigroup.count", _count_total),
     ("semigroup", "decompose", "semigroup.decompose", None),
     ("trees", "Tree.peel_cherry", "trees.peel", None),
     ("trees", "ideal_relations", "trees.relations", None),
     ("trees", "parse_tree", "trees.parse", None),
     ("delpezzo", "verify_against_series", "delpezzo.verify", None),
     ("delpezzo", "fit_quadratic_form", "delpezzo.fit", None)]
    + [("polyring", "%s.%s" % (cls, op), "polyring.mul", _mul_counts)
       for cls in ("IntPolynomial", "TruncatedSeries")
       for op in ("__mul__", "__rmul__")]
    + [("polyring", "%s.%s" % (cls, op), "polyring.add", None)
       for cls in ("IntPolynomial", "TruncatedSeries") for op in _OPERATORS]
)

# (module, global, function, layer, count): the items `function` draws
# from `global` while a span of `layer` is open are added to that span's
# `count`.  The sweep's exponents come from iter_exponents, the
# inclusion-exclusion subsets from range.  A loop that stops using the
# global counts 0.
LOOPS = (
    ("polyring", "iter_exponents", "_geometric_sweep", "polyring.sweep",
     "cells"),
    ("hilbert", "range", "numerator_inclusion_exclusion", "hilbert.ie",
     "masks"),
)

LAYERS = tuple(sorted({ROOT_LAYER} | {t[2] for t in TARGETS}))

_ABSENT = object()


class Span:
    __slots__ = ("sid", "parent", "job", "name", "start", "end", "counts")

    def __init__(self, sid, parent, job, name, start, end=0, counts=None):
        self.sid = sid
        self.parent = parent
        self.job = job
        self.name = name
        self.start = start
        self.end = end
        self.counts = counts

    def add(self, key, value):
        if self.counts is None:
            self.counts = {}
        self.counts[key] = self.counts.get(key, 0) + value

    def as_list(self):
        return [self.sid, self.parent, self.job, self.name,
                self.start, self.end, self.counts]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._jobs = 0

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans),
                    parent.sid if parent else None,
                    parent.job if parent else self._jobs, name,
                    time.perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter_ns()
        self._stack.pop()

    def root(self, main):
        """Wrap ``main`` so that each call is a new job with a root span."""
        def traced_main(argv):
            self._jobs += 1
            span = self._open(ROOT_LAYER)
            try:
                return main(argv)
            finally:
                self._close(span)
        return traced_main

    def _wrap(self, name, fn, counter):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack or stack[-1].name == name:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if counter is not None and result is not NotImplemented:
                    for key, value in counter(args, kwargs, result).items():
                        span.add(key, value)
                return result
            finally:
                self._close(span)
        return wrapper

    def _loop_counter(self, source, code, layer, key):
        stack = self._stack

        def drain(items, span):
            taken = 0
            try:
                for item in items:
                    taken += 1
                    yield item
            finally:
                span.add(key, taken)

        def counted(*args, **kwargs):
            items = source(*args, **kwargs)
            if (stack and stack[-1].name == layer
                    and sys._getframe(1).f_code is code):
                return drain(items, stack[-1])
            return items
        return counted

    def _install_loops(self, saved):
        for modname, attr, caller, layer, key in LOOPS:
            module = sys.modules.get("grasshilb." + modname)
            function = getattr(module, caller, None)
            if function is None:
                print("trace: grasshilb.%s.%s not found; %s.%s not counted"
                      % (modname, caller, layer, key), file=sys.stderr)
                continue
            current = vars(module).get(attr, _ABSENT)
            source = getattr(builtins, attr) if current is _ABSENT else current
            saved.append((module, attr, current))
            setattr(module, attr, self._loop_counter(
                source, function.__code__, layer, key))

    def install(self):
        """Rebind every target to a recording wrapper.  Returns a function
        that puts the originals back."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "grasshilb" or name.startswith("grasshilb.")]
        saved = []
        # before the targets are wrapped, while the loop functions are
        # still the originals whose code objects the counters look for
        self._install_loops(saved)
        wrappers = set()
        bound = set()
        for modname, attr, layer, counter in TARGETS:
            owner = sys.modules.get("grasshilb." + modname)
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None)
            if original is None:
                print("trace: grasshilb.%s.%s not found; %s not traced there"
                      % (modname, attr, layer), file=sys.stderr)
                continue
            bound.add(layer)
            if id(original) in wrappers:
                continue  # an alias (__radd__ = __add__) already rebound
            wrapper = self._wrap(layer, original, counter)
            wrappers.add(id(wrapper))
            homes = modules if len(path) == 1 else [owner]
            for home in homes:
                for key, value in list(vars(home).items()):
                    if value is original:
                        saved.append((home, key, original))
                        setattr(home, key, wrapper)
        for layer in LAYERS:
            if layer != ROOT_LAYER and layer not in bound:
                print("trace: no function of layer %s found" % layer,
                      file=sys.stderr)

        def uninstall():
            for home, key, original in reversed(saved):
                if original is _ABSENT:
                    delattr(home, key)
                else:
                    setattr(home, key, original)
        return uninstall


def self_times(spans):
    """Map span id to self time: the span's duration minus the union of
    its children's intervals, clipped to the span."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0
        cursor = span.start
        for start, end in sorted(children.get(span.sid, ())):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out[span.sid] = span.end - span.start - covered
    return out


def root_mismatches(spans, selfs):
    """Jobs whose root duration differs from the sum of their self times."""
    total = defaultdict(int)
    roots = {}
    for span in spans:
        total[span.job] += selfs[span.sid]
        if span.parent is None:
            roots[span.job] = span.end - span.start
    return sorted(job for job, dur in roots.items() if total[job] != dur)


def misplaced(spans):
    """Spans that end before they start or reach outside their parent."""
    by_id = {span.sid: span for span in spans}
    bad = []
    for span in spans:
        parent = by_id.get(span.parent)
        if span.end < span.start or (span.parent is not None and (
                parent is None or span.job != parent.job
                or span.start < parent.start or span.end > parent.end)):
            bad.append(span.sid)
    return bad


def root_seconds(spans):
    """Map job id to its root span's duration in seconds."""
    return {span.job: (span.end - span.start) / 1e9
            for span in spans if span.parent is None}


def summarize(spans, selfs):
    """Per-layer totals over a list of spans and their self times:
    ``<layer>.self_s`` in seconds, ``<layer>.calls`` and
    ``<layer>.<count>`` for each count."""
    ns = defaultdict(int)
    counts = defaultdict(int)
    for span in spans:
        ns[span.name] += selfs[span.sid]
        counts[span.name + ".calls"] += 1
        for key, value in (span.counts or {}).items():
            counts["%s.%s" % (span.name, key)] += value
    out = {name + ".self_s": value / 1e9 for name, value in ns.items()}
    out.update(counts)
    return out
