"""Spans recorded around calls into robustmech, installed from outside the library.

``Tracer.install()`` replaces the public functions of each layer (and the
names the solver modules import from lower layers) with thin wrappers that
record one span per call: name, start, end, parent span and operation id.
``uninstall()`` puts the original objects back.  Nothing in ``src/`` changes;
with no tracer installed the library runs exactly as shipped.

Spans live in flat arrays while the workload runs and are written out once,
at the end (``dump``).  ``summarize`` turns one or more span sets into the
per-layer metrics: call counts, self time (duration minus the time covered by
direct child spans), per-call latency percentiles and work counts.
"""

from __future__ import annotations

import gzip
import statistics
from array import array
from time import perf_counter

import numpy as np

_WRAPPED = "__bench_wrapped__"

# Names the solver modules bind at import time; each must be patched where it
# is looked up, so one span name can cover several (module, attribute) pairs.
MODULE_FUNCTIONS = (
    ("isorevenue", "cut", "isorevenue.cut"),
    ("rs_solver", "cut", "isorevenue.cut"),
    ("pp_solver", "cut", "isorevenue.cut"),
    ("ro_solver", "cut", "isorevenue.cut"),
    ("evaluation", "cut", "isorevenue.cut"),
    ("ro_solver", "gap_only", "ro_solver.gap_only"),
    ("rs_solver", "bisect_root", "numerics.bisect_root"),
    ("pp_solver", "bisect_root", "numerics.bisect_root"),
    ("ro_solver", "bisect_root", "numerics.bisect_root"),
    ("rs_solver", "solve", "rs_solver.solve"),
    ("evaluation", "solve", "rs_solver.solve"),
    ("pp_solver", "solve_pp", "pp_solver.solve_pp"),
    ("evaluation", "solve_pp", "pp_solver.solve_pp"),
    ("pp_solver", "rho_pp", "pp_solver.rho_pp"),
    ("ro_solver", "solve_ro", "ro_solver.solve_ro"),
    ("ro_solver", "tau_equiv", "ro_solver.tau_equiv"),
    ("ro_solver", "radius_for_target", "ro_solver.radius_for_target"),
    ("evaluation", "radius_for_target", "ro_solver.radius_for_target"),
    ("ro_solver", "build_ro_mechanism", "ro_solver.build_ro_mechanism"),
    ("evaluation", "build_ro_mechanism", "ro_solver.build_ro_mechanism"),
    ("distributions", "wasserstein_distance", "distributions.wasserstein_distance"),
    ("evaluation", "wasserstein_distance", "distributions.wasserstein_distance"),
    # the exact evaluator behind expected_revenue(method="quadrature"), which
    # beta_sweep and eta_rs also call directly
    ("evaluation", "_exact_expected_revenue", "evaluation.expected_revenue.quadrature"),
    ("evaluation", "expected_revenue", "evaluation.expected_revenue"),
    ("evaluation", "beta_sweep", "evaluation.beta_sweep"),
    ("evaluation", "crossing_thresholds", "evaluation.crossing_thresholds"),
    ("evaluation", "eta_rs", "evaluation.eta_rs"),
)

DISTRIBUTION_CLASSES = (
    "ValuationDistribution", "Uniform", "Power", "TruncatedExponential",
    "Beta", "Mixture", "Empirical",
)
# (class names, method, span name)
METHODS = (
    (DISTRIBUTION_CLASSES, "ccdf_integral", "distributions.ccdf_integral"),
    (DISTRIBUTION_CLASSES, "sample", "distributions.sample"),
    (("RandomizedLogMechanism", "PostedPrice"), "payment", "mechanisms.payment"),
)


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        # work counts carried by a span: bisection iterations, draws, values
        self.work = array("q")
        self.current_op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.work.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int, work: int = 0) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()
        if work:
            self.work[idx] = work

    def _wrap(self, fn, name, work_of=None, name_of=None):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name_of(args, kwargs) if name_of else name)
            work = 0
            try:
                result = fn(*args, **kwargs)
                if work_of is not None:
                    work = work_of(args, kwargs, result)
                return result
            finally:
                tracer.close(idx, work)

        setattr(wrapper, _WRAPPED, fn)
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from robustmech import distributions, evaluation, isorevenue, mechanisms
        from robustmech import pp_solver, ro_solver, rs_solver

        modules = {
            "distributions": distributions, "evaluation": evaluation,
            "isorevenue": isorevenue, "mechanisms": mechanisms,
            "pp_solver": pp_solver, "ro_solver": ro_solver, "rs_solver": rs_solver,
        }
        special = {
            "numerics.bisect_root": dict(work_of=lambda a, k, res: res.iterations),
            "evaluation.expected_revenue": dict(name_of=_expected_revenue_name),
        }
        for mod_name, attr, span in MODULE_FUNCTIONS:
            mod = modules[mod_name]
            self._patch(mod, attr, self._wrap(getattr(mod, attr), span, **special.get(span, {})))
        work = {
            "distributions.sample": lambda a, k, res: len(res),
            "mechanisms.payment": lambda a, k, res: int(np.size(res)),
        }
        for class_names, method, span in METHODS:
            for cls_name in class_names:
                cls = getattr(distributions, cls_name, None) or getattr(mechanisms, cls_name)
                if method in cls.__dict__:
                    self._patch(
                        cls, method,
                        self._wrap(cls.__dict__[method], span, work_of=work.get(span)),
                    )

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write every span as one CSV line: name,start,end,parent,op,work."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start,end,parent,op,work\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name[i]]},{self.start[i]!r},{self.end[i]!r},"
                    f"{self.parent[i]},{self.op[i]},{self.work[i]}\n"
                )

    @classmethod
    def load(cls, path) -> "Tracer":
        t = cls()
        with gzip.open(path, "rt") as fh:
            next(fh)
            for line in fh:
                name, start, end, parent, op, work = line.rstrip("\n").split(",")
                t.name.append(t._name_id(name))
                t.start.append(float(start))
                t.end.append(float(end))
                t.parent.append(int(parent))
                t.op.append(int(op))
                t.work.append(int(work))
        return t


def _expected_revenue_name(args, kwargs) -> str:
    method = args[2] if len(args) > 2 else kwargs.get("method", "quadrature")
    return f"evaluation.expected_revenue.{method}" if method == "monte_carlo" else "evaluation.expected_revenue"


def patched_names() -> list[str]:
    """Qualified names of library attributes that currently hold a wrapper."""
    from robustmech import distributions, evaluation, isorevenue, mechanisms
    from robustmech import pp_solver, ro_solver, rs_solver

    found = []
    for mod in (distributions, evaluation, isorevenue, mechanisms, pp_solver, ro_solver, rs_solver):
        for attr, value in vars(mod).items():
            if hasattr(value, _WRAPPED):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type):
                found.extend(
                    f"{mod.__name__}.{attr}.{m}"
                    for m, fn in vars(value).items() if hasattr(fn, _WRAPPED)
                )
    return found


class SpanStats:
    """Per-name aggregates over one or more span sets."""

    def __init__(self, tracers):
        self.calls: dict[str, int] = {}
        self.outer_calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.work: dict[str, int] = {}
        self.durations: dict[str, list[float]] = {}
        # calls of one name made inside spans of another, e.g. cuts per solve
        self.within: dict[tuple[str, str], int] = {}
        self.spans = 0
        for t in tracers:
            self._add(t)

    def _add(self, t: Tracer) -> None:
        n = len(t)
        self.spans += n
        child_time = [0.0] * n
        names = [t.names[i] for i in t.name]
        for i in range(n):
            p = t.parent[i]
            if p >= 0:
                child_time[p] += t.end[i] - t.start[i]
        for i in range(n):
            name = names[i]
            dur = t.end[i] - t.start[i]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - child_time[i]
            self.work[name] = self.work.get(name, 0) + t.work[i]
            self.durations.setdefault(name, []).append(dur)
            p = t.parent[i]
            if p < 0 or names[p] != name:
                self.outer_calls[name] = self.outer_calls.get(name, 0) + 1
            # attribute each call to every distinct enclosing span name once
            seen = set()
            while p >= 0:
                outer = names[p]
                if outer != name and outer not in seen:
                    seen.add(outer)
                    key = (outer, name)
                    self.within[key] = self.within.get(key, 0) + 1
                p = t.parent[p]

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def per_call(self, inner: str, outer: str) -> float:
        """Mean number of ``inner`` calls made inside one ``outer`` call."""
        n = self.outer_calls.get(outer, 0)
        return self.within.get((outer, inner), 0) / n if n else 0.0

    def p50(self, name: str) -> float:
        d = self.durations.get(name)
        return statistics.median(d) if d else 0.0
