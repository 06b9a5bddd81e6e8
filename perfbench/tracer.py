"""Timing spans around the calls each fqzeta layer makes into the layer below.

The wrappers are installed from the benchmark's own files by replacing the
module-level names the program looks up at call time; untraced runs install
nothing.  Each span records its name, start, end, parent span and job id,
plus a few counts taken at the same boundary.  Spans stay in memory and are
written out when the worker ends.

A layer's self time (``<layer>.s``) is the sum of its spans' durations minus
the time covered by their direct child spans.
"""

from __future__ import annotations

import functools
import time

# Exception classes raised out of fqzeta.zeta that the per-layer report counts.
ZETA_ERRORS = (
    "RoundingMismatchError",
    "WeightSeparationError",
    "NoRationalFitError",
    "NonIntegralCoefficientsError",
    "InsufficientCountsError",
    "NonIntegralCountError",
    "DualityViolationError",
)

ZETA_FUNCTIONS = (
    "zeta_from_counts",
    "counts_from_zeta",
    "factor_by_weights",
    "check_riemann_hypothesis",
    "check_functional_equation",
    "traces_from_factorization",
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.job = None

    def wrap(self, name: str, fn, before=None):
        """``fn`` timed as span ``name``.

        ``before(args, kwargs)`` runs outside the timed interval and returns
        a function of the result giving extra span attributes.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            after = before(args, kwargs) if before else None
            span = {
                "name": name,
                "job": self.job,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "id": len(self.spans),
            }
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["end"] = time.perf_counter()
                span["error"] = type(exc).__name__
                raise
            finally:
                self._stack.pop()
            span["end"] = time.perf_counter()
            if after:
                span.update(after(result))
            return result

        return traced

    def call(self, job_id, name: str, fn, *args, **kwargs):
        """Run ``fn`` as the root span of job ``job_id``."""
        self.job = job_id
        try:
            return self.wrap(name, fn)(*args, **kwargs)
        finally:
            self.job = None


def install(tracer: Tracer) -> None:
    """Replace the looked-up names in fqzeta's modules with timing wrappers."""
    from fqzeta import cli, fields, linalg, pairsearch, varieties, zeta

    def trace(owner, attr, name, before=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), before))

    cached = fields.make_extension

    def extension_miss(args, kwargs):
        misses = cached.cache_info().misses
        return lambda _: {"miss": cached.cache_info().misses > misses}

    def granted(args, kwargs):
        return lambda tables: {"granted": tables is not None}

    def points(args, kwargs):
        spec, n = args[:2]
        size = varieties.domain_size(spec, n)
        return lambda _: {"points": size, "n": n}

    def surplus(args, kwargs):
        series, num_degree, den_degree = args[:3]
        known = [kwargs.get("known_numerator", (1,)), kwargs.get("known_denominator", (1,))]
        needed = num_degree + den_degree - sum(len(f) - 1 for f in known)
        return lambda _: {"surplus": len(series.counts) - needed}

    def rows(args, kwargs):
        n = len(args[0].rows)
        return lambda _: {"rows": n}

    def curves(args, kwargs):
        p_min, p_max = args
        swept = sum(
            1
            for p in range(max(p_min, 5), p_max + 1)
            if fields.is_prime(p)
            for a in range(p)
            for b in range(p)
            if (4 * a**3 + 27 * b * b) % p
        )
        return lambda result: {"curves": swept, "pairs": len(result)}

    trace(varieties, "make_extension", "fields.make_extension", extension_miss)
    trace(pairsearch, "make_extension", "fields.make_extension", extension_miss)
    trace(fields.ExtensionField, "numpy_tables", "fields.numpy_tables", granted)
    trace(varieties, "count_points", "varieties.count_points", points)
    for module in (cli, zeta):
        for attr in ZETA_FUNCTIONS:
            if hasattr(module, attr):
                hook = surplus if attr == "zeta_from_counts" else None
                trace(module, attr, f"zeta.{attr}", hook)
    trace(cli, "build_constraint_system", "tracesolver.build_constraint_system")
    trace(cli, "solve_forced", "tracesolver.solve_forced", rows)
    trace(cli, "find_pairs", "pairsearch.find_pairs", curves)
    trace(linalg, "solve", "linalg.solve")
    trace(linalg, "rref", "linalg.rref")


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

TIMED_LAYERS = (
    "fields.make_extension",
    "fields.numpy_tables",
    "varieties.count_points",
    *(f"zeta.{name}" for name in ZETA_FUNCTIONS),
    "linalg.solve",
    "linalg.rref",
    "tracesolver.build_constraint_system",
    "tracesolver.solve_forced",
    "pairsearch.find_pairs",
    "cli.main",
)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Aggregate one pass's spans into the per-layer metrics (see README)."""
    child_time: dict[int, float] = {}
    vectorized: set[int] = set()
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
            if s["name"] == "fields.numpy_tables" and s.get("granted"):
                vectorized.add(s["parent"])

    m: dict[str, float] = {}
    for layer in TIMED_LAYERS:
        m[f"{layer}.s"] = 0.0
    calls = {name: 0 for name in TIMED_LAYERS}
    for s in spans:
        if s["name"] in calls:
            calls[s["name"]] += 1
            m[f"{s['name']}.s"] += s["end"] - s["start"] - child_time.get(s["id"], 0.0)

    def of(name):
        return [s for s in spans if s["name"] == name]

    ext = of("fields.make_extension")
    m["fields.make_extension.calls"] = calls["fields.make_extension"]
    m["fields.make_extension.misses"] = sum(1 for s in ext if s.get("miss"))
    tables = of("fields.numpy_tables")
    m["fields.numpy_tables.calls"] = len(tables)
    granted = sum(1 for s in tables if s.get("granted"))
    m["fields.numpy_tables.granted_ratio"] = granted / len(tables) if tables else 0.0

    counting = [s for s in of("varieties.count_points") if "points" in s]
    m["varieties.count_points.calls"] = calls["varieties.count_points"]
    by_backend = {"vectorized": [0, 0.0], "fallback": [0, 0.0]}
    for s in counting:
        acc = by_backend["vectorized" if s["id"] in vectorized else "fallback"]
        acc[0] += s["points"]
        acc[1] += s["end"] - s["start"]
    total_points = sum(acc[0] for acc in by_backend.values())
    total_time = sum(acc[1] for acc in by_backend.values())
    m["varieties.points"] = total_points
    m["varieties.points_per_s"] = total_points / total_time if total_time else 0.0
    for backend, (pts, secs) in by_backend.items():
        m[f"varieties.points_per_s.{backend}"] = pts / secs if secs else 0.0
    m["varieties.fallback_points_ratio"] = (
        by_backend["fallback"][0] / total_points if total_points else 0.0
    )

    m["zeta.surplus_counts"] = sum(s.get("surplus", 0) for s in of("zeta.zeta_from_counts"))
    zeta_errors = [s["error"] for s in spans if s["name"].startswith("zeta.") and "error" in s]
    m["zeta.errors"] = len(zeta_errors)
    for cls in ZETA_ERRORS:
        m[f"zeta.errors.{cls}"] = zeta_errors.count(cls)

    solves = of("tracesolver.solve_forced")
    m["tracesolver.solve_forced.calls"] = len(solves)
    m["tracesolver.rows"] = sum(s.get("rows", 0) for s in solves)

    searches = [s for s in of("pairsearch.find_pairs") if "curves" in s]
    m["pairsearch.curves"] = sum(s["curves"] for s in searches)
    m["pairsearch.pairs"] = sum(s["pairs"] for s in searches)
    search_time = sum(s["end"] - s["start"] for s in searches)
    m["pairsearch.curves_per_s"] = m["pairsearch.curves"] / search_time if search_time else 0.0
    return m
