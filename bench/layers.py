"""Outside-in tracing of the pblp layers.

Each traced function is wrapped once, and the wrapper replaces every
attribute of every loaded `pblp` module that is bound to the original
function object.  That covers `from .lp_core import solve_lp` call sites
in other modules as well as calls inside the defining module.  Nothing
under `src/` is edited.

A span is (name, start, end, parent, op, info): `parent` indexes the
enclosing span or is -1, `op` is the benchmark op the span belongs to,
and `info` is a small per-function fact taken from the arguments or the
result (LP size and status, emitted bytes, image count).  Spans stay in
memory until `write` is called at the end of the run.
"""

import functools
import json
import sys
import time
from collections import defaultdict

# module -> functions wrapped there.  `numerics` and `problem_model` are
# left out on purpose: a wrapper per call would cost more than their work,
# so their time shows as self time of the callers.
LAYERS = {
    "lp_core": ("solve_lp", "solve_lex_lp"),
    "wsd": ("decompose", "find_extreme_image"),
    "weight_geometry": (
        "component_vertices", "clip_polygon", "component_hrep", "intersect_polygons",
    ),
    "breakpoints": (
        "enumerate_breakpoints", "interval_lp_case1", "interval_lp_case2",
        "interval_vertex",
    ),
    "oracle": (
        "sweep_lambda", "dichotomic_bolp", "extreme_nondominated_bruteforce",
    ),
    "cli_io": ("run_check", "parse_problem", "emit_solution", "emit_sweep"),
}


def _lp_info(args, result):
    lp = args[0]
    return (len(lp.rows) * lp.num_vars, result.status.name == "OPTIMAL")


def _len_info(args, result):
    return len(result)


def _images_info(args, result):
    return len(result.images)


_INFO = {
    "lp_core.solve_lp": _lp_info,
    "cli_io.emit_solution": _len_info,
    "cli_io.emit_sweep": _len_info,
    "wsd.decompose": _images_info,
}


class Tracer:
    """Installs the wrappers; records spans while `recording` is set."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self.recording = False
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        info = _INFO.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                fact = info(args, result) if info and result is not None else None
                spans[index] = (name, start, end, parent, self.op, fact)

        return wrapper

    def install(self):
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "pblp" or key.startswith("pblp."))
        ]
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"pblp.{layer}")
            for fname in names:
                original = getattr(home, fname, None) if home else None
                if not callable(original):
                    raise RuntimeError(f"traced function pblp.{layer}.{fname} is missing")
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op, info in self.spans:
                handle.write(json.dumps([name, start, end, parent, op, info]) + "\n")


def layer_metrics(spans):
    """Per-layer metrics of one traced pass, keyed by metric name."""
    calls = defaultdict(int)
    busy = defaultdict(float)
    child = defaultdict(float)  # time covered by direct children, per span
    for name, start, end, parent, _, _ in spans:
        calls[name] += 1
        if parent >= 0:
            child[parent] += end - start

    def outermost(index):
        # time only spans with no ancestor of the same name, so recursion
        # and nesting are not counted twice
        name = spans[index][0]
        parent = spans[index][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return False
            parent = spans[parent][3]
        return True

    self_time = defaultdict(float)
    for index, (name, start, end, _, _, _) in enumerate(spans):
        self_time[name] += end - start - child[index]
        if outermost(index):
            busy[name] += end - start

    def under(index, ancestors):
        parent = spans[index][3]
        while parent >= 0:
            if spans[parent][0] in ancestors:
                return parent
            parent = spans[parent][3]
        return -1

    cells = optimal = 0
    interval_solves = lex_stages = dich_solves = certificates = 0
    for index, (name, _, _, _, _, info) in enumerate(spans):
        if name == "lp_core.solve_lp":
            cells += info[0]
            optimal += info[1]
            if under(index, ("breakpoints.interval_lp_case1", "breakpoints.interval_lp_case2")) >= 0:
                interval_solves += 1
            parent = spans[index][3]
            if parent >= 0 and spans[parent][0] == "lp_core.solve_lex_lp":
                lex_stages += 1
            if under(index, ("oracle.dichotomic_bolp",)) >= 0:
                dich_solves += 1
        elif name == "wsd.find_extreme_image":
            if under(index, ("wsd.decompose",)) >= 0:
                certificates += 1
    images = sum(s[5] for s in spans if s[0] == "wsd.decompose")
    emit_bytes = sum(
        s[5] for s in spans if s[0] in ("cli_io.emit_solution", "cli_io.emit_sweep")
    )

    def ratio(num, den):
        return num / den if den else 0.0

    lp, lex = "lp_core.solve_lp", "lp_core.solve_lex_lp"
    dich = "oracle.dichotomic_bolp"
    return {
        "lp_core.solve_lp.calls": (calls[lp], "count"),
        "lp_core.solve_lp.busy_s": (busy[lp], "s"),
        "lp_core.solve_lp.cells": (cells, "count"),
        "lp_core.solve_lp.optimal_ratio": (ratio(optimal, calls[lp]), "ratio"),
        "lp_core.solve_lex_lp.calls": (calls[lex], "count"),
        "lp_core.solve_lex_lp.busy_s": (busy[lex], "s"),
        "lp_core.solve_lex_lp.stages_per_call": (ratio(lex_stages, calls[lex]), "ratio"),
        "wsd.decompose.calls": (calls["wsd.decompose"], "count"),
        "wsd.decompose.busy_s": (busy["wsd.decompose"], "s"),
        "wsd.decompose.self_s": (self_time["wsd.decompose"], "s"),
        "wsd.find_extreme_image.calls": (calls["wsd.find_extreme_image"], "count"),
        "wsd.certificate_yield": (ratio(images, certificates), "ratio"),
        "weight_geometry.component_vertices.calls": (
            calls["weight_geometry.component_vertices"], "count"),
        "weight_geometry.component_vertices.busy_s": (
            busy["weight_geometry.component_vertices"], "s"),
        "weight_geometry.clip_polygon.calls": (calls["weight_geometry.clip_polygon"], "count"),
        "weight_geometry.component_hrep.busy_s": (
            busy["weight_geometry.component_hrep"], "s"),
        "weight_geometry.intersect_polygons.busy_s": (
            busy["weight_geometry.intersect_polygons"], "s"),
        "breakpoints.interval_lp_case1.busy_s": (busy["breakpoints.interval_lp_case1"], "s"),
        "breakpoints.interval_lp_case2.busy_s": (busy["breakpoints.interval_lp_case2"], "s"),
        "breakpoints.interval_vertex.busy_s": (busy["breakpoints.interval_vertex"], "s"),
        "breakpoints.interval_lp_solves": (interval_solves, "count"),
        "breakpoints.axis_self_s": (self_time["breakpoints.enumerate_breakpoints"], "s"),
        "oracle.sweep_lambda.busy_s": (busy["oracle.sweep_lambda"], "s"),
        "oracle.dichotomic_bolp.calls": (calls[dich], "count"),
        "oracle.dichotomic_bolp.busy_s": (busy[dich], "s"),
        "oracle.dichotomic_bolp.lp_per_call": (ratio(dich_solves, calls[dich]), "ratio"),
        "oracle.extreme_nondominated_bruteforce.busy_s": (
            busy["oracle.extreme_nondominated_bruteforce"], "s"),
        "cli_io.run_check.self_s": (self_time["cli_io.run_check"], "s"),
        "cli_io.parse_problem.busy_s": (busy["cli_io.parse_problem"], "s"),
        "cli_io.emit.busy_s": (
            busy["cli_io.emit_solution"] + busy["cli_io.emit_sweep"], "s"),
        "cli_io.emit.bytes": (emit_bytes, "count"),
    }, calls
