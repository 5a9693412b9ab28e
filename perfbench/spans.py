"""Span tracing wrapped around the program's public functions, from outside.

A ``Tracer`` replaces each target function with a wrapper that records one
span per call: name, layer, start, end, parent span and operation id.  The
program imports functions by name (``from sndp.simplex import solve_lp``), so
the wrapper is written into every loaded ``sndp`` module that holds the
original function object, not only into the defining module.  A target that
does not exist (renamed or deleted by a later change) is reported as absent
and its metrics are left out instead of failing the run.

Spans are kept in memory; ``per_layer_metrics`` folds them into the
per-layer numbers and ``write_spans`` writes them out once the run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import sys
import time

PACKAGE = "sndp"

# (module, function).  A span's layer is the module that defines the
# function; its self time is the span time its child spans do not cover.
TARGETS = (
    ("simplex", "solve_lp"),
    ("branch_and_bound", "solve_milp"),
    ("recourse", "solve_recourse"),
    ("recourse", "make_cut"),
    ("separation", "find_mincut_attack"),
    ("separation", "find_worst_attack"),
    ("maxflow", "max_flow"),
    ("maxflow", "feasible_full_demand"),
    ("decomposition", "solve_delayed"),
    ("decomposition", "solve_benders"),
    ("decomposition", "count_scenarios"),
    ("reporting", "verify_design"),
    ("reporting", "sweep_tradeoff"),
    ("reporting", "count_scenarios_restricted"),
    ("instances", "generate_instance"),
    ("instances", "serialize_instance"),
    ("instances", "parse_instance"),
    ("instances", "validate"),
)

LAYERS = ("simplex", "branch_and_bound", "recourse", "separation", "maxflow",
          "decomposition", "instances", "reporting")

MILP_KINDS = {"master": "master", "mincut-attack": "mincut",
              "worst-attack": "worst"}


@dataclasses.dataclass
class Span:
    id: int
    parent: int | None
    op: str
    name: str      # "<module>.<function>"
    layer: str
    start: float
    end: float = 0.0
    info: dict = dataclasses.field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else (
        args[pos] if len(args) > pos else None)


# Per-call facts read from arguments and results.  Each reads with getattr
# so that a changed return type drops the fact rather than the run.

def _note_lp(info, args, kwargs, result):
    model = _arg(args, kwargs, 0, "model")
    info["pivots"] = getattr(result, "iterations", 0)
    info["infeasible"] = getattr(result, "status", "") == "infeasible"
    info["m"] = getattr(model, "num_rows", 0)
    info["n"] = getattr(model, "num_vars", 0)


def _note_milp(info, args, kwargs, result):
    model = _arg(args, kwargs, 0, "model")
    lp_name = getattr(getattr(model, "lp", None), "name", "")
    info["kind"] = MILP_KINDS.get(lp_name, "other")
    info["nodes"] = getattr(result, "node_count", 0)


def _note_mincut(info, args, kwargs, result):
    info["hit"] = getattr(result, "attack", None) is not None


def _note_screen(info, args, kwargs, result):
    info["screened_out"] = bool(result)


def _note_solution(info, args, kwargs, result):
    log = getattr(result, "iteration_log", ())
    timings = getattr(result, "timings", {})
    info["rounds"] = len(log)
    info["listed"] = getattr(result, "scenarios_evaluated", 0)
    info["cuts"] = sum(rec.get("cuts_added", 0) for rec in log)
    for phase in ("rmp", "ndp", "sp"):
        info[phase] = timings.get(phase, 0.0)


def _note_verify(info, args, kwargs, result):
    info["attacks"] = getattr(result, "attacks_enumerated", 0)


NOTES = {
    "simplex.solve_lp": _note_lp,
    "branch_and_bound.solve_milp": _note_milp,
    "separation.find_mincut_attack": _note_mincut,
    "maxflow.feasible_full_demand": _note_screen,
    "decomposition.solve_delayed": _note_solution,
    "decomposition.solve_benders": _note_solution,
    "reporting.verify_design": _note_verify,
}


class Tracer:
    """Records spans of calls into the program's modules while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = ""
        self.present: set[str] = set()
        self._stack: list[Span] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, layer: str):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            self._next_id += 1
            span = Span(self._next_id, parent, self.op, name, layer,
                        time.perf_counter())
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    note(span.info, args, kwargs, result)
                return result
            except BaseException as exc:
                span.info["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self.spans.append(span)

        wrapper.__perfbench_original__ = fn
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [module for _, module in _program_modules()]
        self.present = set()
        for module_name, attr in TARGETS:
            name = f"{module_name}.{attr}"
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, attr, None)
            if not callable(original):
                continue
            self.present.add(name)
            wrapper = self._wrap(original, name, module_name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def _program_modules():
    return [(key, module) for key, module in list(sys.modules.items())
            if module is not None
            and (key == PACKAGE or key.startswith(PACKAGE + "."))]


def wrapped_functions() -> list[str]:
    """Names of module attributes that currently hold a tracing wrapper."""
    found = []
    for key, module in _program_modules():
        for attr, value in list(vars(module).items()):
            if hasattr(value, "__perfbench_original__"):
                found.append(f"{key}.{attr}")
    return found


# ---------------------------------------------------------------------------
# Folding spans into metrics


def self_times(spans) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered, reach = 0.0, span.start
        kids = sorted(children.get(span.id, ()), key=lambda s: s.start)
        for kid in kids:
            lo, hi = max(kid.start, reach), min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.id] = span.seconds - covered
    return result


# name -> (unit, spans any one of which must exist for the metric to exist).
# An empty tuple means the metric needs no particular function.
PER_LAYER = {
    "simplex.calls": ("count", ("simplex.solve_lp",)),
    "simplex.pivots": ("count", ("simplex.solve_lp",)),
    "simplex.self_s": ("s", ("simplex.solve_lp",)),
    "simplex.us_per_pivot": ("us", ("simplex.solve_lp",)),
    "simplex.pivot_flops": ("flop.computed", ("simplex.solve_lp",)),
    "simplex.infeasible_frac": ("fraction", ("simplex.solve_lp",)),
    "branch_and_bound.calls": ("count", ("branch_and_bound.solve_milp",)),
    "branch_and_bound.nodes.master": ("count", ("branch_and_bound.solve_milp",)),
    "branch_and_bound.nodes.mincut": ("count", ("branch_and_bound.solve_milp",)),
    "branch_and_bound.nodes.worst": ("count", ("branch_and_bound.solve_milp",)),
    "branch_and_bound.self_s": ("s", ("branch_and_bound.solve_milp",)),
    "recourse.calls": ("count", ("recourse.solve_recourse",)),
    "recourse.s": ("s", ("recourse.solve_recourse",)),
    "recourse.self_s": ("s", ("recourse.solve_recourse",)),
    "recourse.cut_yield": ("cuts/solve", ("recourse.solve_recourse",)),
    "separation.mincut.calls": ("count", ("separation.find_mincut_attack",)),
    "separation.mincut.s": ("s", ("separation.find_mincut_attack",)),
    "separation.mincut.hit_frac": ("fraction",
                                   ("separation.find_mincut_attack",)),
    "separation.worst.calls": ("count", ("separation.find_worst_attack",)),
    "separation.worst.s": ("s", ("separation.find_worst_attack",)),
    "separation.self_s": ("s", ("separation.find_mincut_attack",
                                "separation.find_worst_attack")),
    "maxflow.screens": ("count", ("maxflow.feasible_full_demand",)),
    "maxflow.screen_out_frac": ("fraction", ("maxflow.feasible_full_demand",)),
    "maxflow.flow_s": ("s", ("maxflow.max_flow",)),
    "maxflow.graph_s": ("s", ("maxflow.feasible_full_demand",)),
    "decomposition.rounds": ("count", ("decomposition.solve_delayed",
                                       "decomposition.solve_benders")),
    "decomposition.scenarios_listed": ("count", (
        "decomposition.solve_delayed", "decomposition.solve_benders")),
    "decomposition.cuts": ("count", ("decomposition.solve_delayed",
                                     "decomposition.solve_benders")),
    "decomposition.rmp_s": ("s", ("decomposition.solve_delayed",
                                  "decomposition.solve_benders")),
    "decomposition.ndp_s": ("s", ("decomposition.solve_delayed",
                                  "decomposition.solve_benders")),
    "decomposition.sp_s": ("s", ("decomposition.solve_delayed",
                                 "decomposition.solve_benders")),
    "decomposition.self_s": ("s", ()),
    "decomposition.count_s": ("s", ("decomposition.count_scenarios",
                                    "reporting.count_scenarios_restricted")),
    "instances.generate_s": ("s", ("instances.generate_instance",)),
    "instances.parse_s": ("s", ("instances.parse_instance",)),
    "instances.self_s": ("s", ()),
    "reporting.verify_s": ("s", ("reporting.verify_design",)),
    "reporting.attacks_enumerated": ("count", ("reporting.verify_design",)),
    "reporting.self_s": ("s", ()),
    "trace.wall_s": ("s", ()),
    "trace.unattributed_s": ("s", ()),
    "trace.overhead_s": ("s", ()),
}


# Self times of every layer; with trace.unattributed_s they sum to
# trace.wall_s.  The maxflow layer's self time is flow_s plus graph_s.
SELF_TIME_PARTS = ("simplex.self_s", "branch_and_bound.self_s",
                   "recourse.self_s", "separation.self_s", "maxflow.flow_s",
                   "maxflow.graph_s", "decomposition.self_s",
                   "instances.self_s", "reporting.self_s")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(spans, wall: float) -> dict[str, float]:
    """Per-layer totals over ``spans``, recorded in ``wall`` traced seconds.

    ``trace.overhead_s`` needs an untraced twin run and is filled in by the
    caller.  Layer self times plus ``trace.unattributed_s`` sum to ``wall``.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
        layer_self[span.layer] = layer_self.get(span.layer, 0.0) + own[span.id]

    def calls(name):
        return by_name.get(name, [])

    def total(name, key=None, fn=None):
        if fn is not None:
            return sum(fn(s) for s in calls(name))
        if key is None:
            return sum(s.seconds for s in calls(name))
        return sum(s.info.get(key, 0) for s in calls(name))

    lps = calls("simplex.solve_lp")
    pivots = total("simplex.solve_lp", "pivots")
    flops = sum(s.info.get("pivots", 0) * 2 * s.info.get("m", 0)
                * (s.info.get("n", 0) + s.info.get("m", 0)) for s in lps)
    milps = calls("branch_and_bound.solve_milp")
    solvers = (calls("decomposition.solve_delayed")
               + calls("decomposition.solve_benders"))
    recourse = calls("recourse.solve_recourse")
    mincut = calls("separation.find_mincut_attack")
    screens = calls("maxflow.feasible_full_demand")
    top = sum(s.seconds for s in spans if s.parent is None)
    cuts = sum(s.info.get("cuts", 0) for s in solvers)

    def nodes(kind):
        return sum(s.info.get("nodes", 0) for s in milps
                   if s.info.get("kind") == kind)

    def phase(key):
        return sum(s.info.get(key, 0.0) for s in solvers)

    return {
        "simplex.calls": len(lps),
        "simplex.pivots": pivots,
        "simplex.self_s": layer_self["simplex"],
        "simplex.us_per_pivot": 1e6 * _ratio(layer_self["simplex"], pivots),
        "simplex.pivot_flops": flops,
        "simplex.infeasible_frac": _ratio(
            sum(1 for s in lps if s.info.get("infeasible")), len(lps)),
        "branch_and_bound.calls": len(milps),
        "branch_and_bound.nodes.master": nodes("master"),
        "branch_and_bound.nodes.mincut": nodes("mincut"),
        "branch_and_bound.nodes.worst": nodes("worst"),
        "branch_and_bound.self_s": layer_self["branch_and_bound"],
        "recourse.calls": len(recourse),
        "recourse.s": total("recourse.solve_recourse")
        + total("recourse.make_cut"),
        "recourse.self_s": layer_self["recourse"],
        "recourse.cut_yield": _ratio(cuts, len(recourse)),
        "separation.mincut.calls": len(mincut),
        "separation.mincut.s": total("separation.find_mincut_attack"),
        "separation.mincut.hit_frac": _ratio(
            sum(1 for s in mincut if s.info.get("hit")), len(mincut)),
        "separation.worst.calls": len(calls("separation.find_worst_attack")),
        "separation.worst.s": total("separation.find_worst_attack"),
        "separation.self_s": layer_self["separation"],
        "maxflow.screens": len(screens),
        "maxflow.screen_out_frac": _ratio(
            sum(1 for s in screens if s.info.get("screened_out")),
            len(screens)),
        "maxflow.flow_s": total("maxflow.max_flow"),
        "maxflow.graph_s": sum(own[s.id] for s in screens),
        "decomposition.rounds": sum(s.info.get("rounds", 0) for s in solvers),
        "decomposition.scenarios_listed": sum(
            s.info.get("listed", 0) for s in solvers),
        "decomposition.cuts": cuts,
        "decomposition.rmp_s": phase("rmp"),
        "decomposition.ndp_s": phase("ndp"),
        "decomposition.sp_s": phase("sp"),
        "decomposition.self_s": layer_self["decomposition"],
        "decomposition.count_s": total("decomposition.count_scenarios")
        + total("reporting.count_scenarios_restricted"),
        "instances.generate_s": total("instances.generate_instance"),
        "instances.parse_s": total("instances.parse_instance"),
        "instances.self_s": layer_self["instances"],
        "reporting.verify_s": total("reporting.verify_design"),
        "reporting.attacks_enumerated": total("reporting.verify_design",
                                              "attacks"),
        "reporting.self_s": layer_self["reporting"],
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - top,
        "trace.overhead_s": 0.0,
    }


def available(metrics: dict, present: set[str]) -> tuple[dict, list[str]]:
    """Split metrics into those whose functions exist and the absent names."""
    kept, absent = {}, []
    for name, value in metrics.items():
        needs = PER_LAYER[name][1]
        if needs and not any(n in present for n in needs):
            absent.append(name)
        else:
            kept[name] = value
    return kept, absent


def write_spans(spans, path) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for s in spans:
            out.write(json.dumps({
                "id": s.id, "parent": s.parent, "op": s.op, "name": s.name,
                "start": s.start, "end": s.end, "info": s.info}) + "\n")
