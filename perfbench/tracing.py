"""Spans around each layer, and the traced twin of one experiment cell.

``traced_cell`` repeats what ``fogcache.run_experiment`` does for one
cell, calling the same public layer functions, with a span around each
call.  Calls that happen thousands of times per cell (placement
evaluations and the firefly kernels) are not spans of their own: their
time and count are added to the innermost open span as leaf totals, so
tracing stays cheap and self time still adds up.  Spans are kept in
memory and written out once, at the end of the run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import is_dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple

import fogcache
from fogcache import ExperimentSpec, PlacementEvaluator, ResultRow
from fogcache import experiment as _experiment

KERNELS = ("move", "repair", "hamming")
LAYER_UNITS = {
    "config.load_ms": "ms",
    "scenario.generate_ms": "ms",
    "radio.rate_table_ms": "ms",
    "social.graph_ms": "ms",
    "hcg.run_ms": "ms",
    "hcg.passes": "count",
    "hcg.moves": "count",
    "cache.evaluator_init_ms": "ms",
    "cache.evaluate_us": "us",
    "cache.evaluate_calls": "count",
    "cache.evaluate_peak_kb": "KB",
    "firefly.run_ms": "ms",
    "firefly.iter_ms": "ms",
    "firefly.evaluate_share": "share",
    "firefly.improve_ratio": "ratio",
    "kernels.move_us": "us",
    "kernels.repair_us": "us",
    "kernels.hamming_us": "us",
    "kernels.move_calls": "count",
    "baselines.oracle_ms": "ms",
    "baselines.oracle_evals": "count",
    "baselines.greedy_ms": "ms",
    "baselines.random_ms": "ms",
    "experiment.self_ms": "ms",
    "trace.overhead_ms": "ms",
}


class Span:
    __slots__ = ("id", "name", "cell", "parent", "start", "end", "child_s", "leaves")

    def __init__(self, sid: int, name: str, cell: Optional[str], parent: Optional[int]):
        self.id = sid
        self.name = name
        self.cell = cell
        self.parent = parent
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.leaves: Dict[str, List[float]] = {}  # name -> [seconds, calls]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s - sum(t for t, _ in self.leaves.values())

    def as_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "cell": self.cell, "parent": self.parent,
            "start": self.start, "end": self.end, "self_s": self.self_s,
            "leaves": {k: {"s": t, "calls": n} for k, (t, n) in self.leaves.items()},
        }


class Tracer:
    """In-memory span recorder; ``cell`` tags every span opened while set."""

    def __init__(self):
        self.spans: List[Span] = []
        self.cell: Optional[str] = None
        self._stack: List[Span] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, self.cell, parent.id if parent else None)
        self.spans.append(s)
        self._stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += s.duration

    def timed(self, name: str, fn):
        """Wrap ``fn`` so each call adds its time to the open span's leaf ``name``."""

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                if self._stack:
                    acc = self._stack[-1].leaves.setdefault(name, [0.0, 0])
                    acc[0] += elapsed
                    acc[1] += 1

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.as_dict()) + "\n")


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[bool]:
    """Time evaluations and the firefly kernels while the block runs.

    Yields whether the kernels could be wrapped: they are reached
    through the public ``get_backend``, and once that is gone the
    kernel metrics are reported as absent.
    """
    evaluate = PlacementEvaluator.evaluate
    firefly = fogcache.firefly
    get_backend = getattr(firefly, "get_backend", None)
    wrap_kernels = get_backend is not None and is_dataclass(get_backend()) and all(
        hasattr(get_backend(), k) for k in KERNELS
    )
    PlacementEvaluator.evaluate = tracer.timed("cache.evaluate", evaluate)
    if wrap_kernels:

        def traced_backend(*args, **kwargs):
            be = get_backend(*args, **kwargs)
            return replace(be, **{k: tracer.timed(f"kernels.{k}", getattr(be, k)) for k in KERNELS})

        firefly.get_backend = traced_backend
    try:
        yield wrap_kernels
    finally:
        PlacementEvaluator.evaluate = evaluate
        if wrap_kernels:
            firefly.get_backend = get_backend


def cell_id(spec: ExperimentSpec) -> str:
    value = f"{spec.sweep_values[0]:g}" if spec.sweep_axis != "none" else "base"
    return f"{spec.sweep_axis}={value};seed={spec.seeds[0]}"


def traced_cell(spec: ExperimentSpec, tracer: Tracer):
    """Run one cell through the layers under spans.

    Returns the cell's rows (wall clock zeroed, as ``run_experiment``
    writes them with ``repeatable_timing``), each scheme's placement,
    the evaluator the baselines used, and per-cell counters.
    """
    if spec.clustering != "hcg" or len(spec.seeds) != 1 or len(spec.sweep_values) > 1:
        raise ValueError("traced_cell takes one HCG-clustered (sweep value, seed) cell")
    derive_key = _experiment.derive_key
    seed = spec.seeds[0]
    params = spec.system
    if spec.sweep_axis != "none":
        # sweep axes are named after the SystemParams field they set
        params = replace(params, **{spec.sweep_axis: float(spec.sweep_values[0])})
    rows: List[ResultRow] = []
    placements = {}
    counters: Dict[str, float] = {}
    tracer.cell = cell_id(spec)
    with tracer.span("experiment.cell"):
        with tracer.span("scenario.generate"):
            scenario = fogcache.generate_scenario(params, seed)
        with tracer.span("radio.rate_table"):
            rates = fogcache.build_rate_table(scenario)
        with tracer.span("social.graph"):
            graph = fogcache.build_social_graph(scenario, rates)
        with tracer.span("hcg.run"):
            hcg = fogcache.run_hcg(graph, replace(spec.hcg, seed=derive_key(seed, _experiment._TAG_HCG)))
        counters["hcg.passes"] = hcg.passes
        counters["hcg.moves"] = hcg.moves
        partition = hcg.partition
        with tracer.span("cache.evaluator_init"):
            evaluator = PlacementEvaluator(scenario, rates, partition)
        for scheme in spec.schemes:
            iterations = 0
            if scheme == "random":
                with tracer.span("baselines.random"):
                    x = fogcache.random_caching(scenario, derive_key(seed, _experiment._TAG_RANDOM))
                outcome = evaluator.evaluate(x)
            elif scheme == "greedy_local":
                with tracer.span("baselines.greedy"):
                    x = fogcache.greedy_local(scenario)
                outcome = evaluator.evaluate(x)
            elif scheme == "improved_fa":
                fa_cfg = replace(spec.fa, seed=derive_key(seed, _experiment._TAG_FA))
                with tracer.span("firefly.run"):
                    res = fogcache.run_fa(scenario, rates, partition, fa_cfg)
                x, outcome, iterations = res.best_matrix, res.best_eval, res.iterations
                objs = [h[0] for h in res.history]
                counters["firefly.iterations"] = iterations
                counters["firefly.improved"] = sum(b < a for a, b in zip(objs, objs[1:]))
            else:
                with tracer.span("baselines.oracle"):
                    x, outcome = fogcache.exhaustive_optimal(
                        scenario, rates, partition, size_cap=spec.exhaustive_cap
                    )
            placements[scheme] = x
            rows.append(ResultRow(
                run_id=f"{tracer.cell};scheme={scheme}",
                seed=int(seed),
                scheme=scheme,
                clustering=spec.clustering,
                C_bits=float(params.capacity),
                eta=float(params.zipf_eta),
                delta=float(params.social_delta),
                mu=float(params.weight),
                delay_seconds=outcome.delay,
                energy_joules=outcome.energy,
                objective=outcome.objective,
                fa_iterations=iterations,
                hcg_passes=hcg.passes,
                num_clusters=partition.num_clusters,
                wall_ms=0.0,
            ))
    tracer.cell = None
    return rows, placements, evaluator, counters


# ---------------------------------------------------------------------------
# Per-layer metrics from the recorded spans.


def layer_metrics(tracer: Tracer, counters: List[Dict[str, float]], kernels: bool) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics, and self time per layer in ms summed over the run.

    Times are means per call (``_ms``/``_us``) or per cell (counts and
    ``experiment.self_ms``).  A layer the workload never enters yields
    no metric.
    """
    by_name: Dict[str, List[Span]] = defaultdict(list)
    leaf_total: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for s in tracer.spans:
        by_name[s.name].append(s)
        for leaf, (t, n) in s.leaves.items():
            leaf_total[leaf][0] += t
            leaf_total[leaf][1] += n
    cells = len(counters)  # cells that completed
    out: Dict[str, float] = {}
    if not cells:
        return out, {}

    def mean_ms(name: str) -> Optional[float]:
        spans = by_name.get(name)
        return 1e3 * sum(s.duration for s in spans) / len(spans) if spans else None

    for metric, span in (
        ("scenario.generate_ms", "scenario.generate"),
        ("radio.rate_table_ms", "radio.rate_table"),
        ("social.graph_ms", "social.graph"),
        ("hcg.run_ms", "hcg.run"),
        ("cache.evaluator_init_ms", "cache.evaluator_init"),
        ("firefly.run_ms", "firefly.run"),
        ("baselines.oracle_ms", "baselines.oracle"),
        ("baselines.greedy_ms", "baselines.greedy"),
        ("baselines.random_ms", "baselines.random"),
    ):
        value = mean_ms(span)
        if value is not None:
            out[metric] = value
    for key in ("hcg.passes", "hcg.moves"):
        out[key] = sum(c[key] for c in counters) / cells
    t, n = leaf_total["cache.evaluate"]
    if n:
        out["cache.evaluate_us"] = 1e6 * t / n
    out["cache.evaluate_calls"] = n / cells
    cell_spans = by_name["experiment.cell"]
    out["experiment.self_ms"] = 1e3 * sum(s.self_s for s in cell_spans) / len(cell_spans)

    fa_spans = by_name.get("firefly.run")
    iters = sum(c.get("firefly.iterations", 0) for c in counters)
    if fa_spans and iters:
        fa_s = sum(s.duration for s in fa_spans)
        improved = sum(c.get("firefly.improved", 0) for c in counters)
        out["firefly.iter_ms"] = 1e3 * fa_s / iters
        out["firefly.evaluate_share"] = sum(s.leaves.get("cache.evaluate", (0.0, 0))[0] for s in fa_spans) / fa_s
        out["firefly.improve_ratio"] = improved / iters
        if kernels:
            for k in KERNELS:
                t, n = leaf_total[f"kernels.{k}"]
                if n:
                    out[f"kernels.{k}_us"] = 1e6 * t / n
            out["kernels.move_calls"] = leaf_total["kernels.move"][1] / cells
    oracle_spans = by_name.get("baselines.oracle")
    if oracle_spans:
        out["baselines.oracle_evals"] = sum(s.leaves.get("cache.evaluate", (0.0, 0))[1] for s in oracle_spans) / len(oracle_spans)

    self_ms: Dict[str, float] = defaultdict(float)
    for s in tracer.spans:
        self_ms[s.name.split(".")[0]] += 1e3 * s.self_s
    for leaf, (t, _) in leaf_total.items():
        self_ms[leaf.split(".")[0]] += 1e3 * t
    return out, dict(self_ms)
