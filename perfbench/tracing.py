"""Spans around the public functions of each unif_lab module.

`Tracer.install` wraps every public function of the seven modules, at every
place it is bound: module globals (so `duality`'s own `box_norm`, `nilsequence`
and `quad_phase_seq`, `ergodic_weights`' `orbit_points` and `uniformity`'s
`rademacher_seq` are traced too), the package namespace, the `verify` suite
table in `cli`, and the `ComplexSeq.eval` class attribute.  `uninstall` puts
every original back, so an untraced pass runs no wrapper code.

Spans (name, start, end, parent, op id, work units) are kept in memory and
reduced to per-layer numbers after the run.  A span's self time is its
duration minus the union of its children's intervals; spans opened in a
worker thread of the `verify` pool get the op's root span as parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

MODULES = ("cli", "generators", "seq_core", "nilmanifold", "uniformity",
           "duality", "ergodic_weights")

COMMANDS = ("norm", "unorm", "dual", "dualfn", "gen", "search", "weighted",
            "ww", "verify")


def _cube_points(args, kwargs) -> int:
    """H^(k-1) * |I| of the BoxParams passed second."""
    p = args[1] if len(args) > 1 else kwargs["p"]
    return p.H ** (p.k - 1) * p.interval.length


def _arg(index: int, name: str, measure: Callable = int) -> Callable:
    def units(args, kwargs) -> int:
        val = args[index] if len(args) > index else kwargs[name]
        return int(measure(val))
    return units


def _dict_elems(args, kwargs) -> int:
    kind = args[2] if len(args) > 2 else kwargs.get("kind", "fourier")
    grid = args[3] if len(args) > 3 else kwargs.get("grid")
    return int(args[1]) if kind == "fourier" else len(grid or ())


# Work units recorded on a span, computed from the call's arguments.
UNITS: Dict[str, Callable] = {
    "seq_core.ComplexSeq.eval": _arg(1, "ns", np.size),
    "nilmanifold.orbit_points": _arg(2, "ns", np.size),
    "uniformity.box_norm": _cube_points,
    "uniformity.box_powered_signed": _cube_points,
    "uniformity.csg_check": _cube_points,
    "duality.inverse_search": _dict_elems,
    "ergodic_weights.weighted_multiple_average": _arg(4, "n"),
}
for _suite in ("run_vdc_suite", "run_csg_suite", "run_subadditivity_suite",
               "run_monotonicity_suite", "run_recursion_suite"):
    UNITS[f"uniformity.{_suite}"] = _arg(0, "trials")


class Tracer:
    def __init__(self) -> None:
        # (span id, name, start, end, parent id, op id, units)
        self.spans: List[Tuple] = []
        self.op: Optional[int] = None
        self._root: Optional[int] = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._restore: List[Callable[[], None]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        units = UNITS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            sid = next(tracer._ids)
            if stack:
                parent = stack[-1]
            elif threading.current_thread() is tracer._main:
                parent = None
                tracer._root = sid
            else:
                parent = tracer._root
            n = units(args, kwargs) if units else 0
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, t0, t1, parent, tracer.op, n))

        return span

    def install(self) -> None:
        mods = {m: importlib.import_module(f"unif_lab.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        namespaces = [importlib.import_module("unif_lab"), *mods.values()]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(ns, attr, wrappers[obj])
        suites = mods["cli"]._SUITES
        for key, fn in list(suites.items()):
            suites[key] = wrappers[fn]
            self._restore.append(functools.partial(suites.__setitem__, key, fn))
        cls = mods["seq_core"].ComplexSeq
        self._patch(cls, "eval",
                    self._wrap("seq_core.ComplexSeq.eval", cls.eval))

    def _patch(self, owner, attr: str, new) -> None:
        old = getattr(owner, attr)
        setattr(owner, attr, new)
        self._restore.append(lambda: setattr(owner, attr, old))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()


# ---------------------------------------------------------------------------
# Reduction to per-layer metrics
# ---------------------------------------------------------------------------

def _covered(intervals: List[Tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: List[Tuple]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, _, t0, t1, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = {}
    for sid, _, t0, t1, _, _, _ in spans:
        kids = [(max(a, t0), min(b, t1)) for a, b in children.get(sid, ())]
        out[sid] = (t1 - t0) - _covered([k for k in kids if k[1] > k[0]])
    return out


# per-layer self-time metric -> the spans it sums
SELF_GROUPS = {
    "generators.parse_s": ("generators.parse_generator",
                           "generators.parse_genpoly_expr",
                           "generators.parse_trig_terms"),
    "seq_core.eval_s": ("seq_core.ComplexSeq.eval",),
    "nilmanifold.orbit_s": ("nilmanifold.orbit_points",),
    "uniformity.box_norm_s": ("uniformity.box_norm",),
    "uniformity.signed_s": ("uniformity.box_powered_signed",),
    "uniformity.csg_s": ("uniformity.csg_check",),
    "uniformity.proxy_s": ("uniformity.uniformity_norm_proxy",),
    "uniformity.vdc_s": ("uniformity.vdc_bound", "uniformity.run_vdc_suite"),
    "uniformity.suite_s": ("uniformity.run_csg_suite",
                           "uniformity.run_subadditivity_suite",
                           "uniformity.run_monotonicity_suite",
                           "uniformity.run_recursion_suite"),
    "duality.dual_function_s": ("duality.dual_function",),
    "duality.search_s": ("duality.inverse_search",),
    "duality.dft_s": ("duality.dft_coefficients", "duality.spectrum_probe"),
    "duality.direct_bound_s": ("duality.direct_bound_check",),
    "duality.suite_s": ("duality.run_direct_bound_suite",
                        "duality.run_pairing_suite"),
    "ergodic_weights.average_s": ("ergodic_weights.weighted_multiple_average",
                                  "ergodic_weights.cauchy_scan"),
    "ergodic_weights.ww_s": ("ergodic_weights.wiener_wintner_scan",),
}

# per-layer count metric -> (spans, "calls" or "units")
COUNT_GROUPS = {
    "generators.parse_calls": (("generators.parse_generator",), "calls"),
    "seq_core.eval_calls": (("seq_core.ComplexSeq.eval",), "calls"),
    "seq_core.eval_points": (("seq_core.ComplexSeq.eval",), "units"),
    "nilmanifold.orbit_points": (("nilmanifold.orbit_points",), "units"),
    "uniformity.box_norm_calls": (("uniformity.box_norm",), "calls"),
    "uniformity.cube_points": (("uniformity.box_norm",
                                "uniformity.box_powered_signed",
                                "uniformity.csg_check"), "units"),
    "uniformity.trials": (tuple(n for n in UNITS if "_suite" in n), "units"),
    "duality.dict_elems": (("duality.inverse_search",), "units"),
    "ergodic_weights.average_points": (
        ("ergodic_weights.weighted_multiple_average",), "units"),
}

COUNT_UNITS = ("count", "B")
UNIT_OF = {"cli.out_bytes": "B", "uniformity.cube_points_per_s": "1/s",
           "trace.overhead_s": "s", "trace.spans": "count"}


def per_layer_names() -> List[str]:
    """Every per-layer metric, in report order."""
    names = ["cli.self_s", "cli.out_bytes"]
    names += [f"cli.{c}_s" for c in COMMANDS]
    names += list(SELF_GROUPS) + list(COUNT_GROUPS)
    names += [f"{m}.self_s" for m in MODULES if m != "cli"]
    names += ["uniformity.cube_points_per_s", "trace.overhead_s",
              "trace.spans"]
    return names


def unit(name: str) -> str:
    if name in UNIT_OF:
        return UNIT_OF[name]
    return "s" if name.endswith("_s") else "count"


def pass_layers(spans: List[Tuple], op_commands: Dict[int, str]) -> Dict:
    """Per-layer numbers of one traced pass (times are self times)."""
    self_t = self_times(spans)
    by_name_self = defaultdict(float)
    calls = defaultdict(int)
    units = defaultdict(int)
    out = defaultdict(float)
    out.update((name, 0 if unit(name) in COUNT_UNITS else 0.0)
               for name in per_layer_names())
    for sid, name, t0, t1, parent, op, n in spans:
        by_name_self[name] += self_t[sid]
        calls[name] += 1
        units[name] += n
        out[f"{name.split('.', 1)[0]}.self_s"] += self_t[sid]
        if name == "cli.dispatch" and parent is None:
            out[f"cli.{op_commands[op]}_s"] += t1 - t0
    for metric, names in SELF_GROUPS.items():
        out[metric] = sum(by_name_self[n] for n in names)
    for metric, (names, what) in COUNT_GROUPS.items():
        src = calls if what == "calls" else units
        out[metric] = sum(src[n] for n in names)
    kernel_s = (out["uniformity.box_norm_s"] + out["uniformity.signed_s"]
                + out["uniformity.csg_s"])
    out["uniformity.cube_points_per_s"] = (
        out["uniformity.cube_points"] / kernel_s if kernel_s > 0 else 0.0)
    out["trace.spans"] = len(spans)
    return out


def summarize_passes(per_pass: List[Dict]) -> Tuple[Dict, List[str]]:
    """Median times over passes; counts, which must repeat exactly."""
    result, unsteady = {}, []
    keys = set().union(*per_pass)
    for name in keys:
        vals = [p.get(name, 0) for p in per_pass]
        if unit(name) in COUNT_UNITS:
            if len(set(vals)) > 1:
                unsteady.append(name)
            result[name] = vals[0]
        else:
            result[name] = statistics.median(vals)
    return result, unsteady
