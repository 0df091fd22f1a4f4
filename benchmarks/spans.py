"""Outside-in tracer for recipfm, installed from the benchmark's own files.

It wraps every public function of the six modules, plus the handful of
methods the per-layer metrics need, and replaces every reference to the
originals that a recipfm module namespace holds (``from x import f`` copies
and dispatch dicts such as ``cli._COMMANDS``).  Each call becomes a span kept
in memory in flat arrays: name, start, end, parent span and verdict id.
Self time is a span's duration minus the time its child spans cover.  The
spans are written to an ``.npz`` file when the run ends.

Nothing here runs unless the benchmark is started with ``--trace 1``.
"""

from __future__ import annotations

import array
import functools
import inspect
import math
import sys
import time
import types
import weakref

import numpy as np

from recipfm import catalog, cli, exprlang, geometry, jets, reciprocal

MODULES = {"jets": jets, "exprlang": exprlang, "geometry": geometry,
           "reciprocal": reciprocal, "catalog": catalog, "cli": cli}
METHODS = (
    ("exprlang", "ScalarField", "value"),
    ("geometry", "ConnectionTable", "gamma"),
    ("geometry", "ConnectionTable", "off"),
    ("catalog", "CatalogEntry", "density_field"),
)
CURRENT_VALUE = "reciprocal.current_value"  # ScalarField.jet on a field made by current_from_density

SETUP, PREP = -1, -2  # verdict ids of spans outside any verdict

COUNTERS = ("madds", "jet_constructed", "jet_coeffs", "memo_calls", "memo_hits",
            "off_hits", "current_nested_values", "path_errors")


def public_functions(module) -> dict[str, types.FunctionType]:
    """Plain functions defined in ``module`` whose names do not start with '_'."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    }


def mul_pairs(dim: int, order: int) -> int:
    """Multiply-adds of one truncated Cauchy product, counted from the
    multi-index grades: the pairs (alpha, beta) with |alpha| + |beta| <= order."""
    grade = [math.comb(t + dim - 1, dim - 1) for t in range(order + 1)]
    return sum(grade[a] * grade[b] for a in range(order + 1) for b in range(order + 1 - a))


class Tracer:
    SETUP, PREP = SETUP, PREP

    def __init__(self) -> None:
        self.table: list[str] = []
        self._ids: dict[str, int] = {}
        self.node = array.array("q")  # (parent + 1) << 16 | name id
        self.start = array.array("q")
        self.end = array.array("q")
        self._marks = array.array("q")  # span index where each verdict id takes over
        self._mark_ids = array.array("i")
        self._stack = [-1]
        self.current_depth = 0
        self.verdict_counts = dict.fromkeys(COUNTERS, 0)  # events inside verdicts
        self.other_counts = dict.fromkeys(COUNTERS, 0)  # events in set-up and round building
        self.counts = self.other_counts
        self.wrappers: dict = {}  # original function -> its wrapper
        self._currents: weakref.WeakSet = weakref.WeakSet()
        self._madds: dict = {}
        self.mark(SETUP)

    def __len__(self) -> int:
        return len(self.end)

    def mark(self, verdict: int) -> None:
        """Spans opened and events counted from now on belong to ``verdict``
        (or to SETUP or PREP)."""
        self._marks.append(len(self.end))
        self._mark_ids.append(verdict)
        self.counts = self.verdict_counts if verdict >= 0 else self.other_counts

    def _id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.table)
            self.table.append(label)
        return self._ids[label]

    # -- wrappers -----------------------------------------------------------

    def _span(self, label: str, fn, pre=None):
        """A wrapper recording one span per call; ``pre(*args)`` may count events."""
        nid = self._id(label)
        add_node, add_start, add_end, ends = self.node.append, self.start.append, self.end.append, self.end
        stack, clock = self._stack, time.perf_counter_ns
        push, pop = stack.append, stack.pop

        def traced(*args, **kwargs):
            if pre is not None:
                pre(*args)
            i = len(ends)
            add_node((stack[-1] + 1) << 16 | nid)
            add_end(0)
            push(i)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                pop()

        return functools.update_wrapper(traced, fn)

    def _field_jet(self, fn):
        """ScalarField.jet: a current-value span on fields made by
        current_from_density, a field-jet span with a memo probe otherwise."""
        jet_id, current_id = self._id("exprlang.ScalarField.jet"), self._id(CURRENT_VALUE)
        add_node, add_start, add_end, ends = self.node.append, self.start.append, self.end.append, self.end
        stack, clock, tracer = self._stack, time.perf_counter_ns, self
        push, pop = stack.append, stack.pop
        currents = self._currents
        path_error = getattr(reciprocal, "PathSingularityError", ())

        def jet(field, p, order):
            current = field in currents
            if current:
                nid = current_id
                tracer.current_depth += 1
            else:
                nid = jet_id
                if order >= 1:
                    tracer.counts["memo_calls"] += 1
                    memo = getattr(field, "_memo", None)
                    if memo is not None and (p, order) in memo:
                        tracer.counts["memo_hits"] += 1
            i = len(ends)
            add_node((stack[-1] + 1) << 16 | nid)
            add_end(0)
            push(i)
            add_start(clock())
            try:
                return fn(field, p, order)
            except path_error:
                if current:
                    tracer.counts["path_errors"] += 1
                raise
            finally:
                ends[i] = clock()
                pop()
                if current:
                    tracer.current_depth -= 1

        return functools.update_wrapper(jet, fn)

    def _pre(self, qualname: str):
        """Event counters that ride on a span wrapper."""
        tracer = self
        if qualname == "jets.mul":
            madds = self._madds

            def count_madds(*args):
                a = args[0] if args else None
                key = (getattr(a, "dim", None), getattr(a, "order", None))
                if key not in madds:
                    madds[key] = mul_pairs(*key) if None not in key else 0
                tracer.counts["madds"] += madds[key]

            return count_madds
        if qualname == "exprlang.ScalarField.value":
            def count_nested(*_):
                if tracer.current_depth:
                    tracer.counts["current_nested_values"] += 1

            return count_nested
        if qualname == "geometry.ConnectionTable.off":
            def probe_cache(table, *key):
                cache = getattr(table, "_cache", None)
                if cache is not None and key in cache:
                    tracer.counts["off_hits"] += 1

            return probe_cache
        return None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for short, module in MODULES.items():
            for name, fn in public_functions(module).items():
                label = f"{short}.{name}"
                wrapper = self._span(label, fn, self._pre(label))
                if name == "current_from_density":
                    wrapper = self._register_currents(wrapper)
                self.wrappers[fn] = wrapper
        for short, cls_name, meth in METHODS:
            cls = getattr(MODULES[short], cls_name, None)
            fn = vars(cls).get(meth) if cls is not None else None
            if inspect.isfunction(fn):
                label = f"{short}.{cls_name}.{meth}"
                self.wrappers[fn] = self._span(label, fn, self._pre(label))
        field_jet = vars(exprlang.ScalarField).get("jet")
        if inspect.isfunction(field_jet):
            self.wrappers[field_jet] = self._field_jet(field_jet)
        self._count_jets()
        for namespace in self._namespaces():
            for key, value in list(namespace.items()):
                if _is_function(value) and value in self.wrappers:
                    namespace[key] = self.wrappers[value]
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if _is_function(v) and v in self.wrappers:
                            value[k] = self.wrappers[v]

    def _register_currents(self, wrapper):
        currents = self._currents

        def current_from_density(*args, **kwargs):
            field = wrapper(*args, **kwargs)
            currents.add(field)
            return field

        return functools.update_wrapper(current_from_density, wrapper)

    def _count_jets(self) -> None:
        tracer, init = self, jets.Jet.__init__

        def counted_init(jet, *args, **kwargs):
            init(jet, *args, **kwargs)
            counts = tracer.counts
            counts["jet_constructed"] += 1
            counts["jet_coeffs"] += len(jet.coeffs)

        jets.Jet.__init__ = functools.update_wrapper(counted_init, init)

    def _namespaces(self, extra=()):
        """Module and class dicts of recipfm that may hold a traced function."""
        mods = [m for name, m in sys.modules.items() if name == "recipfm" or name.startswith("recipfm.")]
        out = []
        for module in [*mods, *extra]:
            out.append(vars(module))
            for value in vars(module).values():
                if inspect.isclass(value) and value.__module__.startswith("recipfm"):
                    out.append(_ClassDict(value))
        return out

    def stale_references(self, extra=()) -> list[str]:
        """Names in recipfm namespaces (and ``extra`` modules) still bound to an
        unwrapped original; empty after a complete install."""
        stale = []
        for namespace in self._namespaces(extra):
            for key, value in namespace.items():
                if _is_function(value) and value in self.wrappers:
                    stale.append(f"{namespace.get('__name__', '?')}.{key}")
                elif isinstance(value, dict):
                    stale += [f"{namespace.get('__name__', '?')}.{key}[{k!r}]"
                              for k, v in value.items() if _is_function(v) and v in self.wrappers]
        return stale

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        node = np.frombuffer(self.node, dtype=np.int64)
        marks = np.frombuffer(self._marks, dtype=np.int64)
        owner = np.searchsorted(marks, np.arange(len(node)), side="right") - 1
        return {
            "name": (node & 0xFFFF).astype(np.int32),
            "parent": ((node >> 16) - 1).astype(np.int64),
            "verdict": np.frombuffer(self._mark_ids, dtype=np.int32)[owner],
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.table), **self.arrays())


class _ClassDict(dict):
    """A class's attribute dict whose writes go through setattr."""

    def __init__(self, cls):
        super().__init__(vars(cls))
        self.cls = cls
        self["__name__"] = f"{cls.__module__}.{cls.__qualname__}"

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        if key != "__name__":
            setattr(self.cls, key, value)


def _is_function(value) -> bool:
    return isinstance(value, types.FunctionType)


def self_times(arr: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per-span duration and self time in seconds."""
    dur = (arr["end_ns"] - arr["start_ns"]) / 1e9
    child = arr["parent"] >= 0
    covered = np.bincount(arr["parent"][child], weights=dur[child], minlength=len(dur))
    return dur, dur - covered


def _stats(arr, dur, self_t, table, mask) -> dict[str, tuple[int, float, float]]:
    """Per span name: (calls, self seconds, inclusive seconds) over the masked spans."""
    names = arr["name"][mask]
    calls = np.bincount(names, minlength=len(table))
    selfs = np.bincount(names, weights=self_t[mask], minlength=len(table))
    incl = np.bincount(names, weights=dur[mask], minlength=len(table))
    return {label: (int(calls[i]), float(selfs[i]), float(incl[i])) for i, label in enumerate(table)}


# Metric name -> span names whose self time it sums; calls count the first name.
SELF_TIMES = {
    "jets.mul": ("jets.mul",),
    "jets.div": ("jets.div",),
    "jets.compose": ("jets.compose_univariate",),
    "jets.hyp2f1": ("jets.jet_hypergeom_2f1", "jets.hyp2f1_value"),
    "geometry.christoffel": ("geometry.christoffel_primary",),
    "geometry.gamma": ("geometry.ConnectionTable.gamma",),
    "geometry.curvature_oracle": ("geometry.curvature_oracle", "geometry.curvature_full_residual"),
    "geometry.curvature_natural": ("geometry.curvature_natural_residual",),
    "geometry.sh": ("geometry.sh_residual",),
    "geometry.parallel": ("geometry.identity_parallel_residual",),
    "geometry.sample_points": ("geometry.sample_points", "geometry.banded_points"),
    "reciprocal.current_value": (CURRENT_VALUE,),
    "reciprocal.density": ("reciprocal.density_residual",),
    "reciprocal.a_system": ("reciprocal.a_system_residual",),
    "reciprocal.theta": ("reciprocal.theta_system_residual",),
    "reciprocal.grading": ("reciprocal.grading_residual",),
    "reciprocal.transform": ("reciprocal.transform", "reciprocal.transformed_off_diagonal"),
    "reciprocal.intrinsic": ("reciprocal.intrinsic_agreement_report", "reciprocal.intrinsic_transformed_gamma"),
    "reciprocal.biflat": ("reciprocal.biflat_admissibility",),
    "reciprocal.orbit": ("reciprocal.orbit_compose",),
    "reciprocal.darboux": ("reciprocal.darboux_residual", "reciprocal.darboux_transform",
                           "reciprocal.darboux_gamma_off"),
    "catalog.entries": ("catalog.catalog_entries", "catalog.entry"),
    "catalog.density_field": ("catalog.CatalogEntry.density_field",),
    "exprlang.compile": ("exprlang.compile_field", "exprlang.parse_field", "exprlang.field", "exprlang.to_text"),
    "exprlang.field": ("exprlang.ScalarField.jet", "exprlang.ScalarField.value"),
}
CALLS = ("jets.mul", "jets.div", "jets.compose", "jets.hyp2f1", "geometry.christoffel", "geometry.gamma",
         "reciprocal.current_value", "catalog.density_field", "exprlang.compile")
SELFS = ("jets.mul", "jets.div", "jets.compose", "jets.hyp2f1", "geometry.christoffel", "geometry.gamma",
         "geometry.curvature_oracle", "geometry.curvature_natural", "geometry.sh", "geometry.parallel",
         "geometry.sample_points", "reciprocal.current_value", "reciprocal.density", "reciprocal.a_system",
         "reciprocal.theta", "reciprocal.grading", "reciprocal.transform", "reciprocal.intrinsic",
         "reciprocal.biflat", "reciprocal.orbit", "reciprocal.darboux", "catalog.entries",
         "catalog.density_field", "exprlang.compile", "exprlang.field")
SETUP_METRICS = ("exprlang.compile", "catalog.entries", "catalog.density_field", "geometry.sample_points")
CLI_COMMANDS = ("check", "transform", "orbit", "darboux")


def layer_metrics(tracer: Tracer, verdicts: int, residual_entries: int,
                  overhead_ratio: float) -> tuple[dict[str, tuple[float, str]], float]:
    """Per-layer metrics of a traced run, and the sum of all span self times.

    Loop metrics cover the spans and events inside verdicts, per verdict;
    ``setup.*`` metrics are totals of the traced set-up.
    """
    arr = tracer.arrays()
    dur, self_t = self_times(arr)
    table = tracer.table
    counts = tracer.verdict_counts
    loop = _stats(arr, dur, self_t, table, arr["verdict"] >= 0)
    setup = _stats(arr, dur, self_t, table, arr["verdict"] == SETUP)
    zero = (0, 0.0, 0.0)

    def calls(key, stats=loop):
        return stats.get(SELF_TIMES[key][0], zero)[0]

    def self_s(key, stats=loop):
        return sum(stats.get(label, zero)[1] for label in SELF_TIMES[key])

    def module(prefix, col):
        return sum(v[col] for label, v in loop.items() if label.startswith(prefix))

    per = float(verdicts)
    m: dict[str, tuple[float, str]] = {
        "jets.calls": (module("jets.", 0) / per, "count/verdict"),
        "jets.self_s": (module("jets.", 1) / per, "s/verdict"),
        "jets.mul.madds": (counts["madds"] / per, "count/verdict"),
        "jets.Jet.constructed": (counts["jet_constructed"] / per, "count/verdict"),
        "jets.Jet.coeffs": (counts["jet_coeffs"] / per, "count/verdict"),
        "exprlang.field_value.calls": (loop.get("exprlang.ScalarField.value", zero)[0] / per, "count/verdict"),
        "exprlang.field_jet.calls": (loop.get("exprlang.ScalarField.jet", zero)[0] / per, "count/verdict"),
        "exprlang.memo_hit_ratio": (counts["memo_hits"] / max(counts["memo_calls"], 1), "ratio"),
        "exprlang.memo_misses": ((counts["memo_calls"] - counts["memo_hits"]) / per, "count/verdict"),
        "geometry.off.calls": (loop.get("geometry.ConnectionTable.off", zero)[0] / per, "count/verdict"),
        "geometry.off_cache_hit_ratio": (
            counts["off_hits"] / max(loop.get("geometry.ConnectionTable.off", zero)[0], 1), "ratio"),
        "geometry.residual_entries": (residual_entries / per, "count/verdict"),
        "reciprocal.integrand_evals_per_current": (
            counts["current_nested_values"] / max(calls("reciprocal.current_value"), 1), "ratio"),
        "reciprocal.path_errors": (counts["path_errors"] / per, "count/verdict"),
        "cli.main.calls": (loop.get("cli.main", zero)[0] / per, "count/verdict"),
        "cli.self_s": (module("cli.", 1) / per, "s/verdict"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    for key in CALLS:
        m[f"{key}.calls"] = (calls(key) / per, "count/verdict")
    for key in SELFS:
        m[f"{key}.self_s"] = (self_s(key) / per, "s/verdict")
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.s"] = (loop.get(f"cli.cmd_{cmd}", zero)[2] / per, "s/verdict")
    m["setup.exprlang.compile.calls"] = (float(calls("exprlang.compile", setup)), "count")
    m["setup.catalog.density_field.calls"] = (float(calls("catalog.density_field", setup)), "count")
    for key in SETUP_METRICS:
        m[f"setup.{key}.self_s"] = (self_s(key, setup), "s")
    return m, float(self_t.sum())
