"""In-memory span tracer around qltc's public functions, for the traced run.

Each wrapped call records one span ``[name, start, end, parent, counts]``.
A wrapper is installed at every attribute of every loaded ``qltc`` module
or class through which callers reach the function: ``stabilizer`` imports
``modmul`` and ``min_weight_vector`` by name, the package re-exports most
functions, and ``PauliOp`` aliases ``__mul__`` to ``multiply``.  The
counters read only public arguments and return values.  ``install``
returns a function that puts the originals back.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict


def _cells(args, kwargs, result):
    rows, cols = args[0].shape
    return {"cells": rows * cols}


def _rows(args, kwargs, result):
    return {"rows": args[1].shape[0]}


def _macs(args, kwargs, result):
    # computed from operand shapes: (..., k) @ (k, ...) costs prod(a) * prod(b[1:])
    a, b = args[0], args[1]
    return {"macs": math.prod(a.shape) * math.prod(b.shape[1:])}


def _search(args, kwargs, result):
    return {"candidates": result.candidates_tested, "budget_hits": int(result.budget_hit)}


def _trials(args, kwargs, result):
    # each trial adds one histogram entry per island of U
    return {"trials": int(result.histogram.sum()) // len(result.u_set)}


# span name -> (module, class or None, attribute, counter)
TARGETS = {
    "cli.main": ("qltc.cli", None, "main", None),
    "cli.load_code": ("qltc.cli", None, "load_code", None),
    "zoo.toric_code": ("qltc.zoo", None, "toric_code", None),
    "zoo.css_hypergraph_product": ("qltc.zoo", None, "css_hypergraph_product", None),
    # every code is validated by this constructor, via build_code or a file load
    "stabilizer.build": ("qltc.stabilizer", "StabilizerCode", "__init__", None),
    "stabilizer.penalty": ("qltc.stabilizer", "StabilizerCode", "penalty", None),
    "stabilizer.in_span": ("qltc.stabilizer", "StabilizerCode", "in_span", None),
    "stabilizer.syndrome_batch": ("qltc.stabilizer", "StabilizerCode", "syndrome_batch", _rows),
    "stabilizer.wt_mod_centralizer": ("qltc.stabilizer", "StabilizerCode", "wt_mod_centralizer", None),
    "stabilizer.wt_mod_group": ("qltc.stabilizer", "StabilizerCode", "wt_mod_group", None),
    "stabilizer.code_distance": ("qltc.stabilizer", "StabilizerCode", "code_distance", None),
    "fieldmath.rref": ("qltc.fieldmath", None, "rref", _cells),
    "fieldmath.RowSpace.contains_batch": ("qltc.fieldmath", "RowSpace", "contains_batch", _rows),
    "pauli.multiply": ("qltc.pauli", "PauliOp", "multiply", None),
    "search.modmul": ("qltc.search", None, "modmul", _macs),
    "search.min_weight_vector": ("qltc.search", None, "min_weight_vector", _search),
    "graphs.small_set_expansion_error": ("qltc.graphs", "BipartiteGraph", "small_set_expansion_error", None),
    "graphs.greedy_t_independent": ("qltc.graphs", "BipartiteGraph", "greedy_t_independent", None),
    "attacks.soundness_profile": ("qltc.attacks", None, "soundness_profile", None),
    "attacks.expander_attack": ("qltc.attacks", None, "expander_attack", None),
    "attacks.alphabet_attack": ("qltc.attacks", None, "alphabet_attack", None),
    "attacks.refined_expander_attack": ("qltc.attacks", None, "refined_expander_attack", None),
    "attacks.evaluate_r": ("qltc.attacks", None, "evaluate_r", None),
    "attacks.island_attack": ("qltc.attacks", None, "island_attack", _trials),
    "dense.hamiltonian": ("qltc.dense", None, "hamiltonian", None),
    "dense.codespace_basis": ("qltc.dense", None, "codespace_basis", None),
    "dense.verify_detectability": ("qltc.dense", None, "verify_detectability", None),
    "dense.verify_sltc_qltc_equivalence": ("qltc.dense", None, "verify_sltc_qltc_equivalence", None),
}

PROFILE = "attacks.soundness_profile"

# per-layer metrics: span name -> stats; "s" is inclusive time, "self_s"
# excludes child spans, every other stat is a count
LAYER_STATS = {
    "fieldmath.rref": ("calls", "cells", "self_s"),
    "stabilizer.build": ("calls", "s", "self_s"),
    "pauli.multiply": ("calls", "s"),
    "zoo.toric_code": ("s",),
    "zoo.css_hypergraph_product": ("s",),
    "stabilizer.penalty": ("calls", "s"),
    "stabilizer.in_span": ("calls", "s"),
    "search.modmul": ("calls", "macs", "s"),
    "fieldmath.RowSpace.contains_batch": ("rows", "s"),
    "search.min_weight_vector": ("calls", "candidates", "budget_hits", "s", "self_s"),
    "stabilizer.wt_mod_centralizer": ("calls", "s"),
    "stabilizer.wt_mod_group": ("calls", "s"),
    "stabilizer.code_distance": ("calls", "s"),
    "stabilizer.syndrome_batch": ("calls", "s"),
    "graphs.small_set_expansion_error": ("calls", "s"),
    "graphs.greedy_t_independent": ("calls", "s"),
    "attacks.soundness_profile": ("calls", "candidates", "s"),
    "attacks.expander_attack": ("calls", "s"),
    "attacks.alphabet_attack": ("calls", "s"),
    "attacks.refined_expander_attack": ("calls", "s"),
    "attacks.evaluate_r": ("calls", "s"),
    "attacks.island_attack": ("calls", "trials", "s", "self_s"),
    "dense.hamiltonian": ("calls", "s"),
    "dense.codespace_basis": ("calls", "s"),
    "dense.verify_detectability": ("calls", "s"),
    "dense.verify_sltc_qltc_equivalence": ("calls", "s"),
    "cli.main": ("calls", "self_s"),
    "cli.load_code": ("s",),
}
# derived metrics, filled in by the caller or by layer_metrics
EXTRA_METRICS = {
    "search.candidates_per_s": ("1/s", "higher"),
    "attacks.island_attack.trials_per_s": ("1/s", "higher"),
    "trace.overhead_s": ("s", "lower"),
}


def per_layer_spec() -> list[dict]:
    """Every per-layer metric with its unit and better direction."""
    out = []
    for span, stats in LAYER_STATS.items():
        for stat in stats:
            unit = "s" if stat in ("s", "self_s") else "count"
            if stat == "macs":
                unit = "count-computed"  # from operand shapes, not a hardware counter
            out.append({"name": f"{span}.{stat}", "unit": unit, "better": "lower"})
    for name, (unit, better) in EXTRA_METRICS.items():
        out.append({"name": name, "unit": unit, "better": better})
    return out


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target at each attribute that reaches it; returns an undo function."""
        modules = [m for k, m in list(sys.modules.items()) if k == "qltc" or k.startswith("qltc.")]
        undo = []
        for name, (modname, clsname, attr, count) in TARGETS.items():
            owner = sys.modules[modname]
            if clsname is not None:
                owner = getattr(owner, clsname)
            orig = vars(owner)[attr]
            wrapped = self.wrap(name, orig, count)
            holders = [owner] if clsname is not None else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, key, wrapped)
                        undo.append((holder, key, orig))
        def uninstall():
            for holder, key, orig in reversed(undo):
                setattr(holder, key, orig)
        return uninstall


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Aggregate spans into the per-layer metrics of LAYER_STATS.

    ``s`` sums only the outermost span of each name, so a recursive or
    re-entrant call is not counted twice; ``self_s`` sums each span's
    duration less its direct children's.  The profile's ``candidates`` are
    the rows of the syndrome batches it calls directly.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    acc: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, counts) in enumerate(spans):
        a = acc[name]
        a["calls"] += 1
        a["self_s"] += end - start - child_time[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            a["s"] += end - start
        for key, value in (counts or {}).items():
            a[key] += value
        if name == "stabilizer.syndrome_batch" and parent >= 0 and spans[parent][0] == PROFILE:
            # the words the profile checks, as rows of its syndrome batches
            acc[PROFILE]["candidates"] += counts["rows"]
    out = {}
    for span, stats in LAYER_STATS.items():
        for stat in stats:
            value = acc[span][stat] if span in acc else 0.0
            out[f"{span}.{stat}"] = int(value) if stat not in ("s", "self_s") else value
    for name, span, count in (("search.candidates_per_s", "search.min_weight_vector", "candidates"),
                              ("attacks.island_attack.trials_per_s", "attacks.island_attack", "trials")):
        a = acc.get(span, {})
        out[name] = a[count] / a["s"] if a.get("s") else 0.0
    return out
