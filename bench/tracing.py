"""Outside-in span tracer for the lagkit benchmark.

The tracer replaces lagkit functions with timing wrappers at the places where
the calling module looks them up (lagkit modules import functions by name, so
patching the defining module alone would miss most calls).  Each wrapped call
records one span: name, start, end, parent span and operation id.  Spans stay
in memory; calls, busy time and self time per name are computed from them at
the end.  Functions that run too often for a span each only count calls.

Nothing here imports numpy or lagkit at module level, so a traced child can
time its own imports after loading this module.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# (module, attribute, span name).  Rows sharing a name patch every module that
# looks the same function up.
SPAN_SITES = (
    ("lagkit.cli", "main", "cli.main"),
    ("lagkit.checks", "run_suite", "checks.run_suite"),
    ("lagkit.cli", "run_suite", "checks.run_suite"),
    ("lagkit.checks", "check_lagrangian", "checks.check_lagrangian"),
    ("lagkit.checks", "fit_hypersphere", "checks.fit_hypersphere"),
    ("lagkit.checks", "check_gauss", "checks.check_gauss"),
    ("lagkit.checks", "check_codazzi", "checks.check_codazzi"),
    ("lagkit.checks", "check_cubic_symmetry", "checks.check_cubic_symmetry"),
    ("lagkit.checks", "_structure_with_fit", "checks.structure_bundle"),
    ("lagkit.checks", "check_product_metric", "checks.check_product_metric"),
    ("lagkit.checks", "check_umbilical_relation", "checks.check_umbilical_relation"),
    ("lagkit.checks", "check_legendrian", "checks.check_legendrian"),
    ("lagkit.checks", "check_horizontal", "checks.check_horizontal"),
    ("lagkit.checks", "CheckReport.to_json", "checks.CheckReport.to_json"),
    ("lagkit.checks", "sample_points", "sampling.sample_points"),
    ("lagkit.sampling", "sample_points", "sampling.sample_points"),
    ("lagkit.checks", "build_frame", "geometry.build_frame"),
    ("lagkit.checks", "tangent_field_jets", "geometry.tangent_field_jets"),
    ("lagkit.checks", "gauss_residual", "geometry.gauss_residual"),
    ("lagkit.checks", "codazzi_residual", "geometry.codazzi_residual"),
    ("lagkit.geometry", "evaluate_map_jets", "dsl.evaluate_map_jets"),
    # findiff imports evaluate_map_jets lazily, from dsl, at call time
    ("lagkit.dsl", "evaluate_map_jets", "dsl.evaluate_map_jets"),
    ("lagkit.findiff", "jet_fd_deviation", "findiff.jet_fd_deviation"),
    ("lagkit.findiff", "finite_difference_oracle", "findiff.finite_difference_oracle"),
)

# (module, attribute, counter name): calls only.
COUNT_SITES = (
    ("lagkit.jets", "Jet.__mul__", "jets.Jet.__mul__"),
    ("lagkit.jets", "Jet.__rmul__", "jets.Jet.__mul__"),
    ("lagkit.findiff", "eval_map_numeric", "findiff.eval_map_numeric"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SPAN_SITES))
COUNT_NAMES = tuple(dict.fromkeys(name for _, _, name in COUNT_SITES))

# span fields, in order
NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """In-memory spans and call counters for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.op = -1
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> list[str]:
        """Patch every site; return the sites this version of lagkit lacks."""
        missing = []
        for sites, make in (
            (SPAN_SITES, self._span_wrapper),
            (COUNT_SITES, self._count_wrapper),
        ):
            for module_name, attr, name in sites:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, leaf, None)
                if fn is None:
                    missing.append(f"{module_name}.{attr}")
                    continue
                setattr(owner, leaf, make(name, fn))
        return missing

    def take(self) -> tuple[list[list], dict[str, int]]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, dict(self.counts)
        self.spans = []
        for name in self.counts:
            self.counts[name] = 0
        return spans, counts


def merge_spans(into: list[list], spans: list[list], op: int | None = None):
    """Append spans recorded apart, re-basing parent indices (and op ids)."""
    base = len(into)
    for name, start, end, parent, span_op in spans:
        into.append(
            [name, start, end, parent + base if parent >= 0 else -1,
             span_op if op is None else op]
        )


def layer_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """calls, busy_s and self_s per span name.

    busy_s sums the spans of a name that have no ancestor of the same name, so
    recursion is not counted twice; self_s is a span's duration minus the
    duration of its child spans.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    stats = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
    for i, span in enumerate(spans):
        name = span[NAME]
        duration = span[END] - span[START]
        entry = stats[name]
        entry["calls"] += 1
        entry["self_s"] += duration - child[i]
        up = span[PARENT]
        while up >= 0 and spans[up][NAME] != name:
            up = spans[up][PARENT]
        if up < 0:
            entry["busy_s"] += duration
    return stats


def write_spans(path, spans: list[list]):
    """One JSON object per span, in start order."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, start, end, parent, op) in enumerate(spans):
            fh.write(
                json.dumps(
                    {"id": i, "name": name, "start": start, "end": end,
                     "parent": parent, "op": op}
                )
                + "\n"
            )
