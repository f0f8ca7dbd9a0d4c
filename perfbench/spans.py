"""Span tracing of serwalk from outside the program.

:class:`Tracer` replaces chosen module attributes with wrappers that record
a span (name, start, end, parent) per call, plus work counts computed from
the call's arguments and result.  Spans stay in memory; self time is a
span's duration minus that of its direct children.

Only entry points of each module are wrapped, never the per-point
primitives (``norm``, ``distance``, ``add``, ``sub``): those run millions
of times and their wrappers would swamp the measurement.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Optional


def _fp_bytes(fp) -> int:
    try:
        return os.fstat(fp.fileno()).st_size
    except (AttributeError, OSError, ValueError):  # not a real file
        return 0


def _written_bytes(fp) -> int:
    try:
        return fp.tell()
    except (AttributeError, OSError, ValueError):
        return 0


def _entries(items) -> int:
    return sum(len(p.entries) for p in items if hasattr(p, "entries"))


def _matrix(a, b) -> int:
    return len(a) * len(b)


# what each wrapped entry point adds to the work counters, from its
# arguments and result; "computed" counts are derived, not observed
def _all_pairs(args, kwargs, result):
    return {"core.distance_entries": _matrix(args[0], args[0])}


def _hausdorff(args, kwargs, result):
    return {"core.distance_entries": _matrix(args[0], args[1])}


def _walk_sums(args, kwargs, result):
    return {"walks.sums": len(result.sums)}


def _seqspace_entries(args, kwargs, result):
    items = result.sums if hasattr(result, "sums") else result[0].terms
    return {"seqspace.entries": _entries(items)}


def _balance(args, kwargs, result):
    return {"rearrange.balance_terms": len(args[0]),
            "rearrange.balance_solved": int(result is not None)}


def _rearranged(args, kwargs, result):
    tau = result[0]
    return {"rearrange.prefix_used": max(tau.images) / len(args[0])}


def _estimate(args, kwargs, result):
    return {"analysis.estimate_sums": len(args[0].sums) - result.window_start}


def _cauchy(args, kwargs, result):
    walk = args[0]
    fraction = kwargs.get("tail_fraction", args[1] if len(args) > 1 else 0.3)
    count = max(2, math.ceil(fraction * (len(walk.sums) - 1)))
    return {"analysis.cauchy_pairs": count * (count - 1) // 2}


def _write(args, kwargs, result):
    return {"traceio.write_bytes": _written_bytes(args[1])}


def _read(args, kwargs, result):
    return {"traceio.read_bytes": _fp_bytes(args[0])}


#: (module, attribute, span name, work counter); an attribute "C.m" is the
#: method m of class C
TARGETS: list[tuple[str, str, str, Optional[Callable]]] = [
    ("serwalk.core", "gap_chainable", "core.gap_chainable", _all_pairs),
    ("serwalk.core", "gap_components", "core.gap_components", _all_pairs),
    ("serwalk.core", "hausdorff_distance", "core.hausdorff", _hausdorff),
    ("serwalk.walks", "build_chainable_walk", "walks.build", None),
    ("serwalk.walks", "build_unbounded_components_walk", "walks.build", None),
    ("serwalk.walks", "gen_two_lines", "walks.gen", _walk_sums),
    ("serwalk.walks", "gen_halflines", "walks.gen", _walk_sums),
    ("serwalk.seqspace", "gen_c0_two_point", "seqspace.gen", _seqspace_entries),
    ("serwalk.seqspace", "gen_c0_singleton_divergent", "seqspace.gen", _seqspace_entries),
    ("serwalk.seqspace", "gen_no_rp_series", "seqspace.gen", _seqspace_entries),
    ("serwalk.rearrange", "rearrange_to_limit_set", "rearrange.rearrange", _rearranged),
    ("serwalk.rearrange", "RPConstants.n_threshold", "rearrange.n_threshold", None),
    ("serwalk.rearrange", "find_balanced_permutation", "rearrange.balance", _balance),
    ("serwalk.rearrange", "check_stage_invariants", "rearrange.invariants", None),
    ("serwalk.analysis", "estimate_limit_set", "analysis.estimate", _estimate),
    ("serwalk.analysis", "cauchy_diagnostic", "analysis.cauchy", _cauchy),
    ("serwalk.analysis", "verify_dichotomy", "analysis.dichotomy", None),
    ("serwalk.analysis", "singleton_convergence_check", "analysis.singleton", None),
    ("serwalk.traceio", "write_walk_csv", "traceio.write", _write),
    ("serwalk.traceio", "write_walk_jsonl", "traceio.write", _write),
    ("serwalk.traceio", "write_terms_json", "traceio.write", _write),
    ("serwalk.traceio", "read_walk_csv", "traceio.read", _read),
    ("serwalk.traceio", "read_walk_jsonl", "traceio.read", _read),
    ("serwalk.traceio", "read_terms_json", "traceio.read", _read),
    ("serwalk.traceio", "read_sample_csv", "traceio.read", _read),
    ("serwalk.traceio", "write_walk_svg", "traceio.svg", None),
    ("serwalk.cli", "main", "cli.main", None),
]

#: counters whose run value is the largest seen, not the sum
MAX_COUNTERS = {"rearrange.prefix_used"}


class Tracer:
    """Records spans and work counts while installed."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index]
        self.counts: dict = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name: str, fn: Callable, work: Optional[Callable]) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if work is not None:
                for key, value in work(args, kwargs, result).items():
                    if key in MAX_COUNTERS:
                        counts[key] = max(counts[key], value)
                    else:
                        counts[key] += value
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target wherever serwalk's modules bind it."""
        for module_name in {t[0] for t in TARGETS}:
            importlib.import_module(module_name)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "serwalk" or n.startswith("serwalk.")]
        for module_name, attr, name, work in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                holders = [owner]
            else:
                holders = modules
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, work)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def self_times(self) -> tuple[dict, dict]:
        """Total self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] += end - start - covered
            calls[name] += 1
        return out, calls
