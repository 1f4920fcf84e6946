"""Per-layer spans for polyslice, recorded from outside the package.

install() wraps the public functions of each layer module and rebinds the
wrapper at every place the package binds the original: a function imported
by name into three modules is replaced in all three.  Internal calls, the
recursive vertices(base) inside vertices included, therefore pass through
the wrappers and nest as spans.  Nothing under src/ changes.

Ball and slice polytopes are told apart, and cache hits counted, from public
return values only: a polytope is a ball if unit_ball returned it and a slice
if make_slice returned it; a hit is a vertices or unit_ball call returning an
object already returned earlier.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# module -> public functions traced; span names are "<layer>.<function>".
TARGETS = {
    "numeric": ("rank", "nullspace_basis", "solve_linear_system"),
    "linprog": ("solve_lp",),
    "polytope": ("vertices", "extreme_points", "contains", "support", "lp_feasible"),
    "spaces": ("make_space_II", "make_space_VII", "unit_ball", "dual_ball_vertices", "norm",
               "attaining_set", "reference_product_norm"),
    "slices": ("make_slice", "support_value", "diameter", "lower_bound_certificate",
               "diameter_profile", "sample_diameter_lower_bound"),
    "experiments": ("thm1_case", "prop2_case", "prop3_case", "verify_ext_case", "sandwich_case",
                    "audit_space", "run_experiment"),
    "cli": ("main",),
}
RENAMED = {
    "make_space_II": "make_space", "make_space_VII": "make_space",
    "thm1_case": "case", "prop2_case": "case", "prop3_case": "case",
    "verify_ext_case": "case", "sandwich_case": "case", "audit_space": "case",
    "run_experiment": "run",
}
ROOT = "bench.workload"
LAYERS = ("numeric", "linprog", "polytope", "spaces", "slices", "experiments", "cli", "bench")
VERTEX_KINDS = ("ball", "slice", "other")


def span_names():
    names = {ROOT, "experiments.render"}
    for layer, funcs in TARGETS.items():
        for fn in funcs:
            if fn != "vertices":
                names.add("%s.%s" % (layer, RENAMED.get(fn, fn)))
    names.update("polytope.vertices.%s" % k for k in VERTEX_KINDS)
    return sorted(names)


class Tracer:
    """Holds spans in memory: [name, start, end, parent index] per call."""

    def __init__(self):
        self.spans = []
        self._stack = []
        # id -> object; holding the objects keeps their ids unique
        self._kind = {}          # polytopes: id -> ("ball" | "slice", polytope)
        self._returned = {"vertices": {}, "unit_ball": {}}
        self.counts = {
            "polytope.vertices.ball.out": 0, "polytope.vertices.slice.out": 0,
            "polytope.vertices.other.out": 0,
            "polytope.vertices.cache_hits": 0, "spaces.unit_ball.cache_hits": 0,
            "linprog.solve_lp.infeasible": 0, "linprog.solve_lp.unbounded": 0,
            "linprog.solve_lp.size": 0,
            "extreme_points.in": 0, "extreme_points.kept": 0,
            "certificate.lps": 0, "certificate.returned": 0,
        }
        self._open_certs = 0

    # -------------------------------------------------------------- spans

    def _wrap(self, fn, name, before=None, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = before(args, kwargs) if before else name
            rec = [label, clock(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after:
                after(args, kwargs, result)
            return result

        return wrapper

    def root(self, fn):
        """Run fn() inside the root span that stands for the whole workload."""
        return self._wrap(fn, ROOT)()

    # -------------------------------------------------------------- hooks

    def _seen(self, which, obj):
        table = self._returned[which]
        if id(obj) in table:
            return True
        table[id(obj)] = obj
        return False

    def _mark(self, kind):
        def after(args, kwargs, result):
            self._kind[id(result)] = (kind, result)
            if kind == "ball" and self._seen("unit_ball", result):
                self.counts["spaces.unit_ball.cache_hits"] += 1
        return after

    def _vertices_before(self, args, kwargs):
        poly = args[0] if args else kwargs["poly"]
        return "polytope.vertices.%s" % self._kind.get(id(poly), ("other",))[0]

    def _vertices_after(self, args, kwargs, result):
        if self._seen("vertices", result):
            self.counts["polytope.vertices.cache_hits"] += 1
        else:
            self.counts[self._vertices_before(args, kwargs) + ".out"] += len(result.vertices)

    def _lp_before(self, args, kwargs):
        objective = args[0] if args else kwargs["objective"]
        leq = args[1] if len(args) > 1 else kwargs.get("leq", ())
        eq = args[2] if len(args) > 2 else kwargs.get("eq", ())
        self.counts["linprog.solve_lp.size"] += len(objective) * (len(leq) + len(eq))
        if self._open_certs:
            self.counts["certificate.lps"] += 1
        return "linprog.solve_lp"

    def _lp_after(self, args, kwargs, result):
        if result.status in ("infeasible", "unbounded"):
            self.counts["linprog.solve_lp.%s" % result.status] += 1

    def _extreme_after(self, args, kwargs, result):
        points = args[0] if args else kwargs["points"]
        self.counts["extreme_points.in"] += len(points)
        self.counts["extreme_points.kept"] += len(result.vertices)

    def _cert(self, fn):
        inner = self._wrap(fn, "slices.lower_bound_certificate")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open_certs += 1
            try:
                result = inner(*args, **kwargs)
            finally:
                self._open_certs -= 1
            self.counts["certificate.returned"] += 1
            return result

        return wrapper

    # -------------------------------------------------------------- install

    def install(self):
        """Wrap and rebind every target at every binding site in the package.

        Raises RuntimeError if any package module still binds an original.
        """
        import polyslice  # noqa: F401  (loads every layer module)
        import polyslice.cli  # noqa: F401

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "polyslice" or n.startswith("polyslice.")]
        special = {
            "vertices": dict(before=self._vertices_before, after=self._vertices_after),
            "unit_ball": dict(after=self._mark("ball")),
            "make_slice": dict(after=self._mark("slice")),
            "solve_lp": dict(before=self._lp_before, after=self._lp_after),
            "extreme_points": dict(after=self._extreme_after),
        }
        originals = {}
        for layer, funcs in TARGETS.items():
            module = sys.modules["polyslice.%s" % layer]
            for fn_name in funcs:
                fn = getattr(module, fn_name)
                name = "%s.%s" % (layer, RENAMED.get(fn_name, fn_name))
                if fn_name == "lower_bound_certificate":
                    wrapped = self._cert(fn)
                else:
                    wrapped = self._wrap(fn, name, **special.get(fn_name, {}))
                originals[id(fn)] = (fn, wrapped)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    setattr(module, attr, originals[id(value)][1])
        report = sys.modules["polyslice.experiments"].Report
        report.render = self._wrap(report.render, "experiments.render")
        for module in modules:
            for attr, value in vars(module).items():
                if id(value) in originals and originals[id(value)][0] is value:
                    raise RuntimeError("%s.%s escaped rebinding" % (module.__name__, attr))

    # -------------------------------------------------------------- results

    def summary(self):
        """Counts (exact) and times (seconds) per span name and per layer."""
        n = len(self.spans)
        dur = [end - start for _, start, end, _ in self.spans]
        child = [0.0] * n
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
        names = span_names()
        calls = dict.fromkeys(names, 0)
        self_s = dict.fromkeys(names, 0.0)
        for i, (name, _, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
        wall = sum(d for d, (_, _, _, p) in zip(dur, self.spans) if p < 0)
        c = self.counts
        counts = {"%s.calls" % k: v for k, v in calls.items()}
        counts.update((k, v) for k, v in c.items() if "." in k and not k.startswith(("extreme", "certificate")))
        counts["polytope.extreme_points.kept_ratio"] = (
            c["extreme_points.kept"] / c["extreme_points.in"] if c["extreme_points.in"] else 0.0)
        counts["slices.certificate.lps_per_cert"] = (
            c["certificate.lps"] / c["certificate.returned"] if c["certificate.returned"] else 0.0)
        times = {"%s.self_s" % k: v for k, v in self_s.items()}
        for layer in LAYERS:
            times["layer.%s.self_s" % layer] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        vert = sum(self_s["polytope.vertices.%s" % k] for k in VERTEX_KINDS)
        times["polytope.vertices.share"] = vert / wall if wall else 0.0
        times["linprog.solve_lp.share"] = self_s["linprog.solve_lp"] / wall if wall else 0.0
        times["spaces.norm.share"] = self_s["spaces.norm"] / wall if wall else 0.0
        times["trace.wall_s"] = wall
        return {"counts": counts, "times": times}

    def write_spans(self, path, run_id):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"run": run_id, "id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
