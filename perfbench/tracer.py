"""Outside-in layer tracer for the coarse_teich module stack.

The tracer never edits the program.  It rebinds the public functions listed
in LAYERS, and the listed methods on their classes, in every loaded
``coarse_teich.*`` module namespace that holds them, so calls that cross
modules through ``from .x import f`` bindings are caught too, and restores
the originals on ``uninstall``.

Each timed call is a span (id, name, start, end, parent id, op id).  Self
time is the span's duration minus the part of it that child spans cover; it
is accumulated as spans close, so the totals cover every call even though
only the first MAX_SPANS spans are kept in memory for the span log.
Functions in COUNTED are called so often that timing them would distort the
ranking, so they only count calls and their time stays with the caller.
"""

from __future__ import annotations

import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

# layer -> public names traced in that module; "Class.method" names a method
LAYERS = {
    "slots": ("farey_distance", "complement", "twist_coordinate",
              "transversal_at", "pivot_region", "relative_twisting"),
    "horoball": ("horo_distance", "width"),
    "marking": ("bfs_distance", "elementary_moves", "act"),
    "projection": ("proj_distance", "annulus_point"),
    "metrics": ("formula_terms", "annular_candidates", "large_links",
                "group_symmetric_families", "rafi_formula"),
    "search": ("fixed_point_search", "coarse_barycenter",
               "almost_fixed_certificate"),
    "flatsim": ("shortest_slope", "shadow", "distance_to_fixed",
                "TrajectoryFamily.at"),
    "calibration": ("quasi_isometry_samples", "sample_marking"),
}

# counted, not timed: about 40 calls per formula evaluation
COUNTED = frozenset({"horoball.width"})

RATIOS = (
    "metrics.formula_terms.rows_per_call",
    "metrics.formula_terms.above_K_ratio",
    "search.fixed_point_search.stages_per_call",
    "calibration.quasi_isometry_samples.pairs_within_cap_ratio",
    "trace.overhead_ratio",
)


# span log length; the totals cover every call either way
MAX_SPANS = 50_000

# predicted zero-call facts: calls under each prefix happen on its home
# workload only
ZERO_CALL_FACTS = {
    "marking.bfs_distance.": "oracle",
    "search.": "symmetric",
    "flatsim.": "flat",
}


def calls_under(layers: dict[str, float], prefix: str) -> float:
    """Sum of the per-op ``.calls`` metrics whose name starts with prefix."""
    return sum(v for k, v in layers.items() if k.startswith(prefix) and k.endswith(".calls"))


# methods are reported under a flat name
ALIASES = {"TrajectoryFamily.at": "family_at"}


def metric_name(layer: str, attr: str) -> str:
    return f"{layer}.{ALIASES.get(attr, attr)}"


def traced_names() -> list[str]:
    return [metric_name(layer, a) for layer, attrs in LAYERS.items() for a in attrs]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name in traced_names():
        out.append((f"{name}.calls", "count/op", "lower"))
        if name not in COUNTED:
            out.append((f"{name}.self_s", "s/op", "lower"))
    units = {
        "metrics.formula_terms.rows_per_call": ("rows/call", "lower"),
        "metrics.formula_terms.above_K_ratio": ("ratio", "higher"),
        "search.fixed_point_search.stages_per_call": ("stages/call", "lower"),
        "calibration.quasi_isometry_samples.pairs_within_cap_ratio": ("ratio", "higher"),
        "trace.overhead_ratio": ("ratio", "lower"),
    }
    out.extend((name, *units[name]) for name in RATIOS)
    return out


class LayerTracer:
    """Rebinds the LAYERS functions; one instance per traced process."""

    def __init__(self):
        self.calls: dict[str, int] = {n: 0 for n in traced_names()}
        self.self_s: dict[str, float] = {n: 0.0 for n in traced_names()}
        self.rows = 0
        self.rows_above_k = 0
        self.stages = 0
        self.pairs = 0
        self.op_id = -1
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._names = traced_names()
        self._span_ints = array("q")  # id, name index, parent id, op id
        self._span_times = array("d")  # start, end
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _timed(self, name: str, fn, inspect=None):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        index = self._names.index(name)
        ints, times = self._span_ints, self._span_times
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                calls[name] += 1
                self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if span_id < MAX_SPANS:
                    ints.extend((span_id, index, parent, tracer.op_id))
                    times.extend((start, end))
            if inspect is not None:
                inspect(result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _inspect_rows(self, rows) -> None:
        self.rows += len(rows)
        self.rows_above_k += sum(1 for _, _, contrib in rows if contrib)

    def _inspect_search(self, result) -> None:
        self.stages += len(result[1].stages)

    def _inspect_samples(self, pairs) -> None:
        self.pairs += len(pairs)

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        """Rebind every listed function in every coarse_teich namespace."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        inspectors = {
            "metrics.formula_terms": self._inspect_rows,
            "search.fixed_point_search": self._inspect_search,
            "calibration.quasi_isometry_samples": self._inspect_samples,
        }
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "coarse_teich" or n.startswith("coarse_teich."))
        ]
        for layer, attrs in LAYERS.items():
            home = sys.modules[f"coarse_teich.{layer}"]
            for attr in attrs:
                name = metric_name(layer, attr)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    targets = [(cls, meth)]
                else:
                    original = getattr(home, attr)
                    targets = [
                        (m, key) for m in modules
                        for key, value in vars(m).items() if value is original
                    ]
                if name in COUNTED:
                    wrapped = self._counted(name, original)
                else:
                    wrapped = self._timed(name, original, inspectors.get(name))
                for target, key in targets:
                    self._saved.append((target, key, original))
                    setattr(target, key, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            target, key, original = self._saved.pop()
            setattr(target, key, original)

    @contextmanager
    def op_span(self, op_id: int):
        """One benchmark op: its id tags every span inside."""
        self.op_id = op_id
        span_id = self._next_id
        self._next_id += 1
        self._stack.append([span_id, 0.0])
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            if span_id < MAX_SPANS:
                self._span_ints.extend((span_id, -1, -1, op_id))
                self._span_times.extend((start, end))

    # -- results -----------------------------------------------------------------

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-op calls and self seconds, plus the layer ratios."""
        ops = max(ops, 1)
        out: dict[str, float] = {}
        for name in self._names:
            out[f"{name}.calls"] = self.calls[name] / ops
            if name not in COUNTED:
                out[f"{name}.self_s"] = self.self_s[name] / ops
        fcalls = self.calls["metrics.formula_terms"]
        out["metrics.formula_terms.rows_per_call"] = self.rows / fcalls if fcalls else 0.0
        out["metrics.formula_terms.above_K_ratio"] = (
            self.rows_above_k / self.rows if self.rows else 0.0
        )
        scalls = self.calls["search.fixed_point_search"]
        out["search.fixed_point_search.stages_per_call"] = (
            self.stages / scalls if scalls else 0.0
        )
        # every distance-oracle call inside the sweep is one attempted pair
        attempted = self.calls["marking.bfs_distance"]
        out["calibration.quasi_isometry_samples.pairs_within_cap_ratio"] = (
            self.pairs / attempted if attempted else 0.0
        )
        return out

    def write_spans(self, path) -> int:
        """Write the kept spans as JSON lines; returns how many were written."""
        n = len(self._span_times) // 2
        ints, times = self._span_ints, self._span_times
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(n):
                span_id, index, parent, op = ints[4 * i: 4 * i + 4]
                fh.write(json.dumps({
                    "id": span_id, "name": self._names[index] if index >= 0 else "op",
                    "start": times[2 * i], "end": times[2 * i + 1],
                    "parent": parent, "op": op,
                }) + "\n")
        return n

