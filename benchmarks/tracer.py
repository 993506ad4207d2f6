"""Run-time tracer for the hivekit benchmark.

The tracer wraps hivekit's public functions from outside the package: every
module attribute bound to a traced function object is replaced, so the
names a caller imported (``hivekit.lattice.smith_decompose`` as well as
``hivekit.matops.smith_decompose``) are wrapped too.  Calls of the spanned
functions become spans ``[id, name, start_ns, end_ns, parent_id, item,
attr]`` kept in memory; the arithmetic operators of ``RingElement`` and
``span_fingerprint`` are only counted, because they are called far too
often to span.  Leaving the ``with`` block puts every original object
back, so later untraced work in the same process sees the untouched
functions.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time

MODULES = ("hivekit", "hivekit.ring", "hivekit.matops", "hivekit.lattice",
           "hivekit.hive", "hivekit.oracle", "hivekit.cli")


def _cells(args, kwargs):
    a = args[0] if args else kwargs["a"]
    return a.rows * a.cols


def _variant(args, kwargs):
    return args[2] if len(args) > 2 else kwargs.get("variant", "primary")


# (span name, defining module, function name, attribute recorder)
SPANNED = (
    ("matops.smith", "hivekit.matops", "smith_decompose", _cells),
    ("matops.norm", "hivekit.matops", "matrix_norm", None),
    ("lattice.min", "hivekit.lattice", "min_direct_sum_norm", None),
    ("lattice.max", "hivekit.lattice", "max_direct_sum_norm", None),
    ("lattice.pair_invariant", "hivekit.lattice", "pair_invariant", None),
    ("hive.build", "hivekit.hive", "build_hive", _variant),
    ("hive.check_rhombus", "hivekit.hive", "check_rhombus", None),
    ("hive.type", "hivekit.hive", "hive_type", None),
    ("hive.to_lr", "hivekit.hive", "hive_to_lr_filling", None),
    ("hive.validate_lr", "hivekit.hive", "validate_lr", None),
    ("oracle.stabilized", "hivekit.oracle", "stabilized_value", None),
    ("oracle.brute_min", "hivekit.oracle", "brute_min_direct_sum", None),
    ("oracle.brute_max", "hivekit.oracle", "brute_max_direct_sum", None),
    ("oracle.lr_enum", "hivekit.oracle", "enumerate_lr_fillings", None),
    ("cli.random_pair", "hivekit.cli", "random_pair", None),
    ("cli.main", "hivekit.cli", "main", None),
)
# (counter name, defining module, function name)
COUNTED = (("oracle.fingerprint_calls", "hivekit.oracle", "span_fingerprint"),)
RING_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                  "__rmul__", "__truediv__", "__neg__")
CHECK_SPANS = ("hive.check_rhombus", "hive.type", "hive.to_lr",
               "hive.validate_lr")


class Tracer:
    """Context manager that wraps hivekit while active.

    ``item`` names the unit of work the next spans belong to; the caller
    sets it.  ``counts`` holds the counters: ``ring.ops`` and the entries
    of ``COUNTED``.
    """

    def __init__(self):
        self.spans: list = []
        self.item = None
        self._stack: list = []
        self._boxes = {name: [0] for name in
                       ("ring.ops", *(c[0] for c in COUNTED))}
        self._saved: list = []  # (owner, attribute, original)

    @property
    def counts(self) -> dict:
        return {name: box[0] for name, box in self._boxes.items()}

    def __enter__(self):
        try:
            modules = [importlib.import_module(m) for m in MODULES]
            for name, home, fn_name, attr in SPANNED:
                fn = getattr(importlib.import_module(home), fn_name)
                self._replace_everywhere(modules, fn,
                                         self._span_wrapper(name, fn, attr))
            for name, home, fn_name in COUNTED:
                fn = getattr(importlib.import_module(home), fn_name)
                self._replace_everywhere(
                    modules, fn, _count_wrapper(self._boxes[name], fn))
            ring_element = importlib.import_module("hivekit.ring").RingElement
            for op in RING_OPERATORS:
                fn = ring_element.__dict__[op]
                self._replace(ring_element, op, fn,
                              _count_wrapper(self._boxes["ring.ops"], fn))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _replace_everywhere(self, modules, fn, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._replace(module, attr, fn, wrapper)

    def _replace(self, owner, attr, fn, wrapper):
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def _restore(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _span_wrapper(self, name, fn, attr):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(spans), name, 0, 0, stack[-1][0] if stack else None,
                    self.item, attr(args, kwargs) if attr else None]
            spans.append(span)
            stack.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
        return wrapper

    def write_spans(self, path):
        """One JSON object per span, in start order."""
        keys = ("id", "name", "start_ns", "end_ns", "parent", "item", "attr")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _count_wrapper(box, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        box[0] += 1
        return fn(*args, **kwargs)
    return wrapper


def traced_objects() -> dict:
    """Every (owner, attribute) the tracer replaces, mapped to the object
    bound there now; equal before and after a traced run."""
    out = {}
    modules = [importlib.import_module(m) for m in MODULES]
    targets = [getattr(importlib.import_module(home), fn_name)
               for _, home, fn_name, *_ in SPANNED + COUNTED]
    for module in modules:
        for attr, value in vars(module).items():
            if any(value is fn for fn in targets):
                out[(module.__name__, attr)] = value
    ring_element = importlib.import_module("hivekit.ring").RingElement
    for op in RING_OPERATORS:
        out[("RingElement", op)] = ring_element.__dict__[op]
    return out


def layer_metrics(spans, counts: dict, items) -> dict:
    """Per-layer figures from the spans of the given items.

    Times are totals over those items in seconds unless the name says
    otherwise; ``*_per_call`` and ``rounds_per_value`` are ratios.
    ``cli.random_pair_s`` is the median time of one call, over every call
    the run made, because instance generation happens outside items on
    the hive workloads.
    """
    items = set(items)
    dur = {s[0]: (s[3] - s[2]) / 1e9 for s in spans}
    child = dict.fromkeys(dur, 0.0)
    for s in spans:
        if s[4] is not None:
            child[s[4]] += dur[s[0]]

    def nearest(span, names):
        parent = span[4]
        while parent is not None:
            if spans[parent][1] in names:
                return spans[parent][1]
            parent = spans[parent][4]
        return None

    mine = [s for s in spans if s[5] in items]
    named: dict = {}
    for s in mine:
        named.setdefault(s[1], []).append(s)

    def total(name, self_time=False):
        return sum(dur[s[0]] - (child[s[0]] if self_time else 0.0)
                   for s in named.get(name, ()))

    def ratio(num, den):
        return num / den if den else 0.0

    smith = named.get("matops.smith", [])
    owner = [nearest(s, ("lattice.min", "lattice.max")) for s in smith]
    n_min = len(named.get("lattice.min", ()))
    n_max = len(named.get("lattice.max", ()))
    n_stab = len(named.get("oracle.stabilized", ()))
    builds = named.get("hive.build", [])
    pairs = [dur[s[0]] for s in spans if s[1] == "cli.random_pair"]
    return {
        "ring.ops": counts["ring.ops"],
        "matops.smith_calls": len(smith),
        "matops.smith_s": total("matops.smith", self_time=True),
        "matops.smith_us_p50":
            statistics.median(dur[s[0]] for s in smith) * 1e6 if smith else 0.0,
        "matops.smith_cells": sum(s[6] for s in smith),
        "matops.norm_calls": len(named.get("matops.norm", ())),
        "lattice.min_calls": n_min,
        "lattice.min_s": total("lattice.min"),
        "lattice.min_smith_per_call": ratio(owner.count("lattice.min"), n_min),
        "lattice.max_calls": n_max,
        "lattice.max_s": total("lattice.max"),
        "lattice.max_smith_per_call": ratio(owner.count("lattice.max"), n_max),
        "lattice.pair_invariant_s": total("lattice.pair_invariant"),
        "hive.primary_s": sum(dur[s[0]] for s in builds if s[6] == "primary"),
        "hive.swapped_s": sum(dur[s[0]] for s in builds if s[6] == "swapped"),
        "hive.build_self_s": total("hive.build", self_time=True),
        "hive.check_s": sum(dur[s[0]] for s in mine if s[1] in CHECK_SPANS
                            and (s[4] is None
                                 or spans[s[4]][1] not in CHECK_SPANS)),
        "oracle.stabilized_calls": n_stab,
        "oracle.rounds_per_value": ratio(
            len(named.get("oracle.brute_min", ()))
            + len(named.get("oracle.brute_max", ())), n_stab),
        "oracle.brute_min_s": total("oracle.brute_min"),
        "oracle.brute_max_s": total("oracle.brute_max"),
        "oracle.fingerprint_calls": counts["oracle.fingerprint_calls"],
        "oracle.lr_enum_s": total("oracle.lr_enum"),
        "cli.random_pair_s": statistics.median(pairs) if pairs else 0.0,
        "cli.oracle_self_s": total("cli.main", self_time=True),
    }
