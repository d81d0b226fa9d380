"""Spans around the calls into each investgame module, installed from outside.

Boundary calls (a verify battery, one trajectory, one certificate, one grid)
each get a span: name, start, end and parent.  Per-stage calls (the step map
phi, strategy decisions, oracle projections) would produce millions of
spans, so they are aggregated instead: a count and the accumulated time,
kept on the span that was open when they ran.  Spans stay in memory; the
per-layer metrics are computed from them after the timed region.

A function is wrapped under every module attribute that binds it, because
harness, cli and approachability import `iterate` and `induced_map` by name
and patching `investgame.dynamics.iterate` alone would miss those calls.
Methods are wrapped on their classes.  `Tracer.uninstall` restores all of it.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

_pc = time.perf_counter


class Span:
    __slots__ = ("name", "parent", "start", "end", "agg", "count", "steps")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.agg: dict[str, list] = {}
        self.count = 0.0
        self.steps = None

    @property
    def dur(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


# Span-wrapped module functions: (module, attribute, span name, count).  The
# count callback turns (args, kwargs, result) into the work the call did.
_SPAN_FUNCS = (
    ("cli", "main", "cli.main", None),
    ("cli", "_emit", "cli.emit", None),
    ("harness", "verify_t3", "harness.verify", None),
    ("harness", "verify_t4", "harness.verify", None),
    ("harness", "verify_t2", "harness.verify", None),
    ("harness", "run_example1", "harness.example", None),
    ("harness", "run_example2", "harness.example", None),
    ("dynamics", "iterate", "dynamics.iterate", lambda a, k, r: _arg(a, k, 2, "n")),
    ("dynamics", "write_csv", "dynamics.write_csv", None),
    ("dynamics", "tail_interval", "dynamics.tail", None),
    ("dynamics", "tail_liminf", "dynamics.tail", None),
    ("dynamics", "tail_limsup", "dynamics.tail", None),
    ("geometry", "region_mask", "geometry.region_mask", lambda a, k, r: len(_arg(a, k, 2, "pts"))),
    ("geometry", "dist_to_region", "geometry.dist_to_region", None),
    ("geometry", "_region_grid_cached", "geometry.region_grid", None),
    ("geometry", "polygon_grid", "geometry.polygon_grid", None),
    ("approachability", "check_blackwell", "approachability.blackwell", lambda a, k, r: r.checked),
    ("approachability", "premise_start", "approachability.premise",
     lambda a, k, r: _arg(a, k, 0, "traj").horizon - 1),
    ("approachability", "decay_bound_check", "approachability.decay",
     lambda a, k, r: _arg(a, k, 0, "traj").horizon - _arg(a, k, 2, "n0") + 1),
    ("approachability", "refine_attractor", "approachability.refine", None),
    ("approachability", "intersect_attractors", "approachability.intersect", None),
    ("approachability", "sample_intersection", "approachability.altproj",
     lambda a, k, r: len(_arg(a, k, 2, "seeds"))),
    ("lyapunov", "check_lyapunov", "lyapunov.check", lambda a, k, r: r.checked),
    ("lyapunov", "decrease_check", "lyapunov.decrease", lambda a, k, r: r.checked),
    ("lyapunov", "certification_grid", "lyapunov.grid", None),
)
_SPAN_METHODS = (("dynamics", "Trajectory", "means_array", "dynamics.means_array"),)
# Per-stage methods, aggregated per parent span.
_CALL_METHODS = (
    ("strategies", "GoodStrategy", "decide", "strategies.decide.good"),
    ("strategies", "RandomStrategy", "decide", "strategies.decide.random"),
    ("strategies", "Example2Defector", "decide", "strategies.decide.defector"),
    ("approachability", "HullOracle", "project", "approachability.project.hull"),
    ("approachability", "SegmentsOracle", "project", "approachability.project.segments"),
    ("approachability", "PointOracle", "project", "approachability.project.point"),
    ("approachability", "LineOracle", "project", "approachability.project.line"),
)
# Aggregates that are direct children of the span they sit on (decisions run
# inside phi, so they are not subtracted a second time).
_TOP_AGGREGATES = ("strategies.phi",) + tuple(m[3] for m in _CALL_METHODS if ".project." in m[3])
_ORACLES = ("hull", "segments", "point", "line")


class Tracer:
    def __init__(self):
        self.root = Span("trace.root", None)
        self.stack = [self.root]
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._restore: list[tuple] = []

    # -- wrappers ---------------------------------------------------------
    def _span(self, name, fn, count=None, keep_steps=False):
        stack, spans = self.stack, self.spans

        def wrapper(*args, **kwargs):
            sp = Span(name, stack[-1])
            spans.append(sp)
            stack.append(sp)
            sp.start = _pc()
            try:
                result = fn(*args, **kwargs)
            finally:
                sp.end = _pc()
                stack.pop()
            if count is not None:
                sp.count = count(args, kwargs, result)
            if keep_steps:
                sp.steps = getattr(result, "steps", None)
            return result

        return wrapper

    def _per_call(self, name, fn):
        stack = self.stack

        def wrapper(*args):
            t0 = _pc()
            result = fn(*args)
            dt = _pc() - t0
            agg = stack[-1].agg
            acc = agg.get(name)
            if acc is None:
                agg[name] = [1, dt]
            else:
                acc[0] += 1
                acc[1] += dt
            return result

        return wrapper

    def _induced_map(self, fn):
        span = self._span("strategies.induced_map", fn)

        def wrapper(*args, **kwargs):
            return self._per_call("strategies.phi", span(*args, **kwargs))

        return wrapper

    # -- install / uninstall ---------------------------------------------
    def install(self) -> None:
        """Patch every binding of the traced functions in loaded investgame modules."""
        mods = {name.split(".", 1)[1]: m for name, m in sys.modules.items()
                if name.startswith("investgame.") and m is not None}
        for mod, attr, name, count in _SPAN_FUNCS:
            fn = getattr(mods.get(mod), attr, None)
            if fn is None:
                self.missing.append(f"{mod}.{attr}")
                continue
            self._rebind(mods, fn, self._span(name, fn, count, keep_steps=(attr == "iterate")))
        fn = getattr(mods.get("strategies"), "induced_map", None)
        if fn is None:
            self.missing.append("strategies.induced_map")
        else:
            self._rebind(mods, fn, self._induced_map(fn))
        for mod, cls_name, meth, name in _SPAN_METHODS + _CALL_METHODS:
            cls = getattr(mods.get(mod), cls_name, None)
            fn = cls.__dict__.get(meth) if cls is not None else None
            if fn is None:
                self.missing.append(f"{mod}.{cls_name}.{meth}")
                continue
            wrap = self._span(name, fn) if (mod, cls_name, meth, name) in _SPAN_METHODS \
                else self._per_call(name, fn)
            setattr(cls, meth, wrap)
            self._restore.append((cls, meth, fn))

    def _rebind(self, mods, fn, wrapper) -> None:
        for m in mods.values():
            for attr, val in list(vars(m).items()):
                if val is fn:
                    setattr(m, attr, wrapper)
                    self._restore.append((m, attr, fn))

    def uninstall(self) -> None:
        while self._restore:
            obj, attr, fn = self._restore.pop()
            setattr(obj, attr, fn)

    def start(self) -> None:
        self.root.start = _pc()

    def stop(self) -> None:
        self.root.end = _pc()


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _children(tracer: Tracer) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = {}
    for sp in tracer.spans:
        kids.setdefault(id(sp.parent), []).append(sp)
    return kids


def _self_time(sp: Span, kids) -> float:
    covered = sum(c.dur for c in kids.get(id(sp), ()))
    covered += sum(sp.agg[a][1] for a in _TOP_AGGREGATES if a in sp.agg)
    return sp.dur - covered


def _agg_total(tracer: Tracer, name: str) -> tuple[int, float]:
    calls, total = 0, 0.0
    for sp in [tracer.root] + tracer.spans:
        acc = sp.agg.get(name)
        if acc is not None:
            calls += acc[0]
            total += acc[1]
    return calls, total


def _switches(steps) -> tuple[int, int]:
    """(profile switches, comparisons): stages whose payoff vector, and so
    action profile, differs from the previous stage's."""
    if steps is None or len(steps) < 2:
        return 0, 0
    arr = np.asarray(steps, dtype=float)
    return int(np.any(arr[1:] != arr[:-1], axis=1).sum()), len(arr) - 1


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, plan: dict) -> dict[str, float]:
    """Per-layer values of one traced repetition (times in the named unit)."""
    kids = _children(tracer)
    by_name: dict[str, list[Span]] = {}
    for sp in tracer.spans:
        by_name.setdefault(sp.name, []).append(sp)

    def spans(name):
        return by_name.get(name, [])

    def total(name, top_only=False):
        return sum(s.dur for s in spans(name) if not (top_only and s.parent.name == name))

    def counted(name):
        return sum(s.count for s in spans(name))

    m: dict[str, float] = {}
    phi_calls, phi_t = _agg_total(tracer, "strategies.phi")
    m["strategies.phi_us"] = _per(phi_t * 1e6, phi_calls)
    m["strategies.phi_calls"] = phi_calls
    for kind in ("good", "random", "defector"):
        c, t = _agg_total(tracer, f"strategies.decide.{kind}")
        m[f"strategies.decide_us.{kind}"] = _per(t * 1e6, c)

    iters = spans("dynamics.iterate")
    it_stages = sum(s.count for s in iters)
    it_t = sum(s.dur for s in iters)
    it_phi = sum(s.agg.get("strategies.phi", (0, 0.0))[1] for s in iters)
    m["dynamics.iterate_us_per_stage"] = _per(it_t * 1e6, it_stages)
    m["dynamics.iterate_self_us_per_stage"] = _per((it_t - it_phi) * 1e6, it_stages)
    m["dynamics.stages"] = plan["stages"]
    sw = [_switches(s.steps) for s in iters]
    m["dynamics.switch_share"] = _per(sum(a for a, _ in sw), sum(b for _, b in sw))
    m["dynamics.tail_ms"] = total("dynamics.tail", top_only=True) * 1e3
    m["dynamics.means_array_ms"] = total("dynamics.means_array") * 1e3
    m["dynamics.csv_us_per_row"] = _per(total("dynamics.write_csv") * 1e6, plan.get("rows", 0))

    m["geometry.region_mask_ns_per_point"] = _per(total("geometry.region_mask") * 1e9,
                                                  counted("geometry.region_mask"))
    m["geometry.dist_to_region_ms"] = _per(total("geometry.dist_to_region") * 1e3,
                                           len(spans("geometry.dist_to_region")))
    m["geometry.region_grid_ms"] = total("geometry.region_grid") * 1e3
    m["geometry.polygon_grid_ms"] = total("geometry.polygon_grid", top_only=True) * 1e3

    for kind in _ORACLES:
        c, t = _agg_total(tracer, f"approachability.project.{kind}")
        m[f"approachability.project_us.{kind}"] = _per(t * 1e6, c)
        m[f"approachability.project_calls.{kind}"] = c
    m["approachability.blackwell_us_per_sample"] = _per(total("approachability.blackwell") * 1e6,
                                                        counted("approachability.blackwell"))
    m["approachability.premise_us_per_stage"] = _per(total("approachability.premise") * 1e6,
                                                     counted("approachability.premise"))
    m["approachability.decay_us_per_stage"] = _per(total("approachability.decay") * 1e6,
                                                   counted("approachability.decay"))
    m["approachability.refine_ms"] = total("approachability.refine") * 1e3
    m["approachability.intersect_ms"] = total("approachability.intersect") * 1e3
    # Each alternating-projection iteration projects twice; each seed ends
    # with at most two distance checks (one projection each).
    alt = spans("approachability.altproj")
    alt_projects = sum(sum(s.agg.get(f"approachability.project.{k}", (0, 0))[0] for k in _ORACLES)
                       for s in alt)
    seeds = sum(s.count for s in alt)
    m["approachability.altproj_iters_per_seed"] = max(0.0, (_per(alt_projects, seeds) - 2) / 2) if seeds else 0.0

    m["lyapunov.check_us_per_sample"] = _per(total("lyapunov.check") * 1e6, counted("lyapunov.check"))
    m["lyapunov.decrease_us_per_sample"] = _per(total("lyapunov.decrease") * 1e6,
                                                counted("lyapunov.decrease"))
    m["lyapunov.grid_ms"] = total("lyapunov.grid") * 1e3
    m["lyapunov.samples"] = counted("lyapunov.check") + counted("lyapunov.decrease")

    # A battery cell runs from one trajectory's start to the next one's (the
    # last to the end of its verify call): simulation, tail statistics and
    # distances of that cell.
    cells = []
    for v in spans("harness.verify"):
        starts = [c.start for c in kids.get(id(v), ()) if c.name == "dynamics.iterate"]
        cells += [b - a for a, b in zip(starts, starts[1:] + [v.end])]
    m["harness.cells"] = plan["cells"]
    m["harness.cell_ms_p50"] = statistics.median(cells) * 1e3 if cells else 0.0
    m["harness.cell_ms_p90"] = (statistics.quantiles(cells, n=10)[-1] if len(cells) > 1
                                else sum(cells)) * 1e3
    m["harness.self_ms"] = sum(_self_time(s, kids)
                               for s in spans("harness.verify") + spans("harness.example")) * 1e3
    m["cli.self_ms"] = sum(_self_time(s, kids) for s in spans("cli.main")) * 1e3
    m["cli.emit_ms"] = total("cli.emit") * 1e3
    return {k: float(v) for k, v in m.items()}
