"""Tracing of the gcschub layers from outside the package.

The tracer replaces public functions and methods of the package with timing
wrappers, in every namespace that bound them and on the classes that define
them, so the package itself carries no tracing code.

Two kinds of wrapper keep the trace bounded:

* a *span* is recorded for every call at a coarse boundary (``search``,
  ``evaluate``, ``delta_uv``, ``fold_paths``, ``structure_constant`` ...),
  with its parent span, and kept in memory until the run writes it out;
* a *leaf* (``Face.contains``, ``Polytope.intersect`` and other hot helpers,
  up to millions of calls) records no span: its call count and total time
  are folded into the enclosing span.

A span's self time is its duration minus the time of its child spans and of
the outermost leaves called directly under it.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute path, layer name); an attribute path with a dot names a
# method on a class of that module.
SPANS = (
    ("gcschub.certify", "search", "certify.search"),
    ("gcschub.certify", "evaluate", "certify.evaluate"),
    ("gcschub.pluecker", "delta_uv", "pluecker.delta_uv"),
    ("gcschub.pluecker", "delta_schubert_bottom", "pluecker.delta_schubert_bottom"),
    ("gcschub.pluecker", "fold_paths", "pluecker.fold_paths"),
    ("gcschub.coeffs", "structure_constant", "coeffs.structure_constant"),
    ("gcschub.coeffs", "build_modified_partition", "coeffs.build_modified_partition"),
    ("gcschub.gc_polytope", "Polytope.vertices", "gc_polytope.vertices"),
    ("gcschub.kogan", "enumerate_reduced", "kogan.enumerate_reduced"),
    ("gcschub.ladder", "LadderDiagram.__init__", "ladder.diagram"),
)
LEAVES = (
    ("gcschub.gc_polytope", "Polytope.intersect", "gc_polytope.intersect"),
    ("gcschub.gc_polytope", "Face.contains", "gc_polytope.contains"),
    ("gcschub.gc_polytope", "_antichain", "gc_polytope.faceunion"),
    ("gcschub.gc_polytope", "Polytope.in_VX", "gc_polytope.in_VX"),
    ("gcschub.weyl", "bruhat_leq", "weyl.bruhat_leq"),
    ("gcschub.coeffs", "recursion_step", "coeffs.recursion_step"),
    ("gcschub.coeffs", "expand_product", "coeffs.expand_product"),
)
CLI_MAIN = "cli.main"


def _resolve(module: str, path: str):
    """(owner, attribute, function), or None when a refactor removed it."""
    owner = sys.modules.get(module)
    *cls, name = path.split(".")
    if cls:
        owner = getattr(owner, cls[0], None)
    fn = getattr(owner, name, None)
    return None if fn is None else (owner, name, fn)


def traced_code_objects() -> dict[str, object]:
    """Layer name -> code object of each wrapped function, for cProfile."""
    out = {}
    for mod, path, layer in SPANS + LEAVES:
        found = _resolve(mod, path)
        if found is not None:
            out[layer] = found[2].__code__
    out[CLI_MAIN] = type(sys.modules["gcschub.cli"].main).main.__code__
    return out


def _trim_window(window: tuple[int, ...]) -> tuple[int, ...]:
    # mirrors the key of the oracle's product cache: fixed points at the end
    # do not change a Schubert class
    while len(window) > 1 and window[-1] == len(window):
        window = window[:-1]
    return window


class Tracer:
    def __init__(self):
        self.t0 = perf_counter()
        # finished spans: (id, parent id, name, start, end, child time, folds)
        self.spans: list[tuple] = []
        # open frames [id, child time, {leaf: [calls, s]}]; the root frame at
        # the bottom collects leaves called outside any span
        self._open: list[list] = [[0, 0.0, {}]]
        self._next_id = 1
        self._leaf_depth = 0
        self.counters: Counter = Counter()
        self.intersect_keys: set = set()
        self.product_keys: set = set()
        self.missing: list[str] = []

    # -- wrappers ----------------------------------------------------------------

    def _span(self, name, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._open[-1]
            frame = [tracer._next_id, 0.0, {}]
            tracer._next_id += 1
            tracer._open.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._open.pop()
                parent[1] += end - start
                folds = tuple((k, c, s) for k, (c, s) in frame[2].items())
                tracer.spans.append((frame[0], parent[0], name, start, end, frame[1], folds))
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _leaf(self, name, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._leaf_depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._leaf_depth -= 1
                frame = tracer._open[-1]
                entry = frame[2].get(name)
                if entry is None:
                    entry = frame[2][name] = [0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                if not tracer._leaf_depth:
                    frame[1] += elapsed
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    # -- observers for the ratios ------------------------------------------------

    def _on_evaluate(self, args, result):
        self.counters["evaluate.pieces"] += 1 + len(args[1])
        # a Certificate has a status (certified or mismatch), a failure a kind
        status = getattr(result, "status", None)
        key = "certified" if status == "certified" else "fail." + (status or result.kind)
        self.counters["evaluate." + key] += 1

    def _on_intersect(self, args, result):
        poly, f, g = args
        self.intersect_keys.add((id(poly), f.key, g.key))
        if result.is_empty:
            self.counters["intersect.empty"] += 1

    def _counting_antichain(self, antichain):
        counters = self.counters

        @functools.wraps(antichain)
        def wrapper(faces):
            faces = list(faces)
            result = antichain(faces)
            counters["faceunion.in"] += len(faces)
            counters["faceunion.out"] += len(result)
            if len(result) > counters["faceunion.max"]:
                counters["faceunion.max"] = len(result)
            return result

        return wrapper

    def _on_expand(self, args, result):
        self.product_keys.add(tuple(sorted(_trim_window(u.window) for u in args[0])))

    # -- installation --------------------------------------------------------------

    def install(self):
        """Wrap every traced function in each loaded gcschub module that bound
        it, and every traced method on its class.  A function that no longer
        exists is listed in ``missing`` and its metrics read 0."""
        observers = {
            "certify.evaluate": self._on_evaluate,
            "gc_polytope.intersect": self._on_intersect,
            "coeffs.expand_product": self._on_expand,
        }
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "gcschub" or name.startswith("gcschub."))]
        for targets, make in ((SPANS, self._span), (LEAVES, self._leaf)):
            for mod, path, layer in targets:
                found = _resolve(mod, path)
                if found is None:
                    self.missing.append(f"{mod}.{path}")
                    continue
                owner, name, fn = found
                if layer == "gc_polytope.faceunion":
                    fn = self._counting_antichain(fn)
                wrapped = make(layer, fn, observers.get(layer))
                if "." in path:
                    setattr(owner, name, wrapped)
                    continue
                original = getattr(owner, name)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
        cli_main = sys.modules["gcschub.cli"].main
        cli_main.main = self._span(CLI_MAIN, cli_main.main)

    # -- results -------------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Calls per layer name, spans and leaves alike."""
        out: Counter = Counter()
        for span in self.spans:
            out[span[2]] += 1
        for name, (calls, _s) in self._leaf_totals().items():
            out[name] += calls
        return dict(out)

    def _leaf_totals(self) -> dict[str, list]:
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        folds = [span[6] for span in self.spans]
        folds.append(tuple((k, c, s) for k, (c, s) in self._open[0][2].items()))
        for fold in folds:
            for name, calls, s in fold:
                totals[name][0] += calls
                totals[name][1] += s
        return totals

    def metrics(self) -> dict[str, float]:
        calls: Counter = Counter()
        total_s: Counter = Counter()
        self_s: Counter = Counter()
        names = {span[0]: span[2] for span in self.spans}
        builds = 0
        for sid, parent, name, start, end, child, _folds in self.spans:
            calls[name] += 1
            total_s[name] += end - start
            self_s[name] += end - start - child
            if name == "pluecker.delta_schubert_bottom" or (
                name == "pluecker.delta_uv"
                and names.get(parent) != "pluecker.delta_schubert_bottom"
            ):
                builds += 1
        leaves = self._leaf_totals()
        c = self.counters

        def ratio(num, den):
            return num / den if den else 0.0

        inter_calls = leaves["gc_polytope.intersect"][0]
        evals = calls["certify.evaluate"]
        pieces = c["evaluate.pieces"]
        return {
            "gc_polytope.intersect.calls": inter_calls,
            "gc_polytope.intersect.self_s": leaves["gc_polytope.intersect"][1],
            "gc_polytope.intersect.empty_ratio": ratio(c["intersect.empty"], inter_calls),
            "gc_polytope.intersect.distinct_ratio": ratio(len(self.intersect_keys), inter_calls),
            "gc_polytope.contains.calls": leaves["gc_polytope.contains"][0],
            "gc_polytope.contains.s": leaves["gc_polytope.contains"][1],
            "gc_polytope.faceunion.kept_ratio": ratio(c["faceunion.out"], c["faceunion.in"]),
            "gc_polytope.faceunion.max_faces": c["faceunion.max"],
            "gc_polytope.vertices.s": total_s["gc_polytope.vertices"],
            "gc_polytope.in_VX.calls": leaves["gc_polytope.in_VX"][0],
            "pluecker.delta_uv.calls": calls["pluecker.delta_uv"],
            "pluecker.delta_uv.s": total_s["pluecker.delta_uv"],
            "pluecker.delta_schubert_bottom.s": total_s["pluecker.delta_schubert_bottom"],
            "pluecker.fold_paths.self_s": self_s["pluecker.fold_paths"],
            "certify.delta_cache.hit_ratio": 1.0 - builds / pieces if pieces else 0.0,
            "certify.search.calls": calls["certify.search"],
            "certify.evaluate.calls": evals,
            "certify.evaluate.self_s": self_s["certify.evaluate"],
            "certify.evaluate.cert_ratio": ratio(c["evaluate.certified"], evals),
            "certify.evaluate.fail.positive_dimension": c["evaluate.fail.positive_dimension"],
            "certify.evaluate.fail.vertex_outside_flag": c["evaluate.fail.vertex_outside_flag"],
            "certify.evaluate.fail.unsupported_shape": c["evaluate.fail.unsupported_shape"],
            "certify.evaluate.fail.mismatch": c["evaluate.fail.mismatch"],
            "coeffs.structure_constant.calls": calls["coeffs.structure_constant"],
            "coeffs.structure_constant.self_s": self_s["coeffs.structure_constant"],
            "coeffs.expand_product.distinct_ratio": ratio(
                len(self.product_keys), leaves["coeffs.expand_product"][0]),
            "coeffs.build_modified_partition.s": total_s["coeffs.build_modified_partition"],
            "coeffs.recursion_step.calls": leaves["coeffs.recursion_step"][0],
            "coeffs.recursion_step.s": leaves["coeffs.recursion_step"][1],
            "weyl.bruhat_leq.calls": leaves["weyl.bruhat_leq"][0],
            "weyl.bruhat_leq.s": leaves["weyl.bruhat_leq"][1],
            "ladder.diagram.s": total_s["ladder.diagram"],
            "kogan.enumerate_reduced.s": total_s["kogan.enumerate_reduced"],
            "cli.main.self_s": self_s[CLI_MAIN],
        }

    def write_spans(self, path: str):
        """One JSON object per span, times in seconds from the tracer's start."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, child, folds in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": round(start - self.t0, 7), "end": round(end - self.t0, 7),
                    "self_s": round(end - start - child, 7),
                    **({"leaves": {k: [c, round(s, 7)] for k, c, s in folds}} if folds else {}),
                }) + "\n")
