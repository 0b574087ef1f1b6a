"""Experiment orchestration: parameter sweeps, scheme runs, CSV output.

One experiment cell is a (sweep value, seed) pair; each requested
scheme runs once per cell on the same scenario, rate table, and
cluster partition.  Rows come out ordered by (sweep value, seed,
scheme) exactly as configured, so two runs of the same spec produce
identical files apart from wall-clock columns (and even those can be
zeroed for byte-stable output).
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, fields, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._kernels import derive_key
from .baselines import SCHEMES, exhaustive_optimal, greedy_local, random_caching
from .cache import EvalResult, Partition, PlacementEvaluator, feasible
from .firefly import FaConfig, run_fa
from .hcg import HcgConfig, run_hcg
from .radio import build_rate_table
from .scenario import SystemParams, generate_scenario, require_int
from .social import build_social_graph

__all__ = [
    "ExperimentSpec",
    "ResultRow",
    "TraceRow",
    "run_experiment",
    "write_csv",
    "write_trace_csv",
    "run_verification",
]

SWEEP_AXES = ("none", "capacity", "zipf_eta", "social_delta")
CLUSTERINGS = ("hcg", "singletons", "whole_set")

# sub-stream tags so scheme seeds never collide with the scenario seed
_TAG_HCG = 0x4C57
_TAG_FA = 0xFA11
_TAG_RANDOM = 0xBA5E


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one experiment run."""

    system: SystemParams
    hcg: HcgConfig
    fa: FaConfig
    sweep_axis: str = "none"
    sweep_values: Tuple[float, ...] = ()
    seeds: Tuple[int, ...] = (0,)
    schemes: Tuple[str, ...] = ("improved_fa",)
    clustering: str = "hcg"
    exhaustive_cap: int = 24

    def __post_init__(self):
        if self.sweep_axis not in SWEEP_AXES:
            raise ValueError(f"sweep_axis must be one of {SWEEP_AXES}")
        if self.sweep_axis != "none" and not self.sweep_values:
            raise ValueError("sweep_values must be non-empty for a sweep")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        for s in self.seeds:
            if isinstance(s, bool) or not isinstance(s, numbers.Integral):
                raise ValueError(f"seeds must be integers, got {s!r}")
        if not self.schemes:
            raise ValueError("schemes must be non-empty")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ValueError(f"unknown scheme {s!r}; choose from {SCHEMES}")
        if self.clustering not in CLUSTERINGS:
            raise ValueError(f"clustering must be one of {CLUSTERINGS}")
        require_int("exhaustive_cap", self.exhaustive_cap, 1)


@dataclass(frozen=True)
class ResultRow:
    """One scheme outcome; field order defines the CSV header."""

    run_id: str
    seed: int
    scheme: str
    clustering: str
    C_bits: float
    eta: float
    delta: float
    mu: float
    delay_seconds: float
    energy_joules: float
    objective: float
    fa_iterations: int
    hcg_passes: int
    num_clusters: int
    wall_ms: float


@dataclass(frozen=True)
class TraceRow:
    """Optimizer incumbent at one iteration of one run."""

    run_id: str
    iteration: int
    best_objective: float
    best_delay: float
    best_energy: float


def _apply_axis(params: SystemParams, axis: str, value: Optional[float]) -> SystemParams:
    # each axis but "none" names the SystemParams field it sets
    if axis == "none" or value is None:
        return params
    return replace(params, **{axis: float(value)})


def _cell_id(axis: str, value: Optional[float], seed: int, scheme: str) -> str:
    token = "base" if value is None else f"{value:g}"
    return f"{axis}={token};seed={seed};scheme={scheme}"


def _build_cell(spec: ExperimentSpec, params: SystemParams, seed: int) -> tuple:
    """Scenario, rates, HCG result and partition of one cell.

    The HCG result is None unless the clustering is HCG.
    """
    scenario = generate_scenario(params, seed)
    rates = build_rate_table(scenario)
    hcg_res = None
    if spec.clustering == "hcg":
        graph = build_social_graph(scenario, rates)
        hcg_res = run_hcg(graph, replace(spec.hcg, seed=derive_key(seed, _TAG_HCG)))
        partition = hcg_res.partition
    elif spec.clustering == "singletons":
        partition = Partition.singletons(params.num_faps)
    else:
        partition = Partition.whole_set(params.num_faps)
    return scenario, rates, hcg_res, partition


def run_experiment(
    spec: ExperimentSpec,
    repeatable_timing: bool = False,
) -> Tuple[List[ResultRow], List[TraceRow]]:
    """Run every (sweep value, seed, scheme) combination sequentially.

    With ``repeatable_timing`` the wall-clock column is written as 0.0
    so repeated runs of the same spec produce identical bytes.
    """
    values: Sequence[Optional[float]]
    values = spec.sweep_values if spec.sweep_axis != "none" else (None,)
    rows: List[ResultRow] = []
    traces: List[TraceRow] = []

    for value in values:
        params = _apply_axis(spec.system, spec.sweep_axis, value)
        for seed in spec.seeds:
            scenario, rates, hcg_res, partition = _build_cell(spec, params, seed)
            hcg_passes = hcg_res.passes if hcg_res is not None else 0
            evaluator = PlacementEvaluator(scenario, rates, partition)

            for scheme in spec.schemes:
                run_id = _cell_id(spec.sweep_axis, value, seed, scheme)
                start = time.perf_counter()
                fa_iterations = 0
                if scheme == "random":
                    x = random_caching(scenario, derive_key(seed, _TAG_RANDOM))
                    outcome = evaluator.evaluate(x)
                elif scheme == "greedy_local":
                    x = greedy_local(scenario)
                    outcome = evaluator.evaluate(x)
                elif scheme == "improved_fa":
                    fa_cfg = replace(spec.fa, seed=derive_key(seed, _TAG_FA))
                    fa_res = run_fa(scenario, rates, partition, fa_cfg)
                    x = fa_res.best_matrix
                    outcome = fa_res.best_eval
                    fa_iterations = fa_res.iterations
                    for it, (obj, t, e) in enumerate(fa_res.history):
                        traces.append(TraceRow(run_id, it, obj, t, e))
                else:  # exhaustive
                    x, outcome = exhaustive_optimal(
                        scenario, rates, partition, size_cap=spec.exhaustive_cap
                    )
                wall = 0.0 if repeatable_timing else (
                    (time.perf_counter() - start) * 1000.0
                )
                if not feasible(x, params):
                    raise AssertionError(f"{scheme} produced an infeasible placement")
                _check_mix(outcome, params.weight)
                rows.append(
                    ResultRow(
                        run_id=run_id,
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
                        fa_iterations=fa_iterations,
                        hcg_passes=hcg_passes,
                        num_clusters=partition.num_clusters,
                        wall_ms=wall,
                    )
                )
    return rows, traces


def _check_mix(outcome: EvalResult, mu: float) -> None:
    blended = mu * outcome.delay + (1.0 - mu) * outcome.energy
    scale = max(abs(blended), 1.0)
    if abs(blended - outcome.objective) > 1e-9 * scale:
        raise AssertionError("objective drifted from its delay/energy mix")


def _fmt(value) -> str:
    if isinstance(value, bool):
        raise TypeError("booleans have no CSV format")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if value.is_integer() and abs(value) < 1e16:
            return str(int(value))
        return repr(value)
    return str(value)


def _write_table(path: str, header: Sequence[str], rows) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


def write_csv(rows: Sequence[ResultRow], path: str) -> None:
    """Write result rows with a fixed header, one line per row."""
    header = [f.name for f in fields(ResultRow)]
    data = (
        [getattr(row, name) for name in header]
        for row in rows
    )
    _write_table(path, header, data)


def write_trace_csv(traces: Sequence[TraceRow], path: str) -> None:
    """Write per-iteration optimizer traces."""
    header = [f.name for f in fields(TraceRow)]
    data = ([getattr(t, name) for name in header] for t in traces)
    _write_table(path, header, data)


# ---------------------------------------------------------------------------
# Self-check battery for the verify subcommand.


def _scaled_down(params: SystemParams) -> SystemParams:
    """At most 4 F-APs, 12 users and 8 contents, with 2 cache slots."""
    return replace(
        params,
        num_faps=min(params.num_faps, 4),
        num_users=min(params.num_users, 12),
        num_contents=min(params.num_contents, 8),
        capacity=2.0 * params.content_size,
    )


def run_verification(spec: ExperimentSpec) -> List[Tuple[str, bool, str]]:
    """Cheap behaviour battery over the first cell of the spec, as configured.

    Returns (check name, passed, detail) triples.  The optimizer and
    oracle checks run the schemes through :func:`run_experiment`, twice,
    on a scaled-down copy of the system so the battery stays fast at
    full scale.  The constructors enforce geometry, demand, link rates
    and the social graph on every cell, so those are not repeated here.
    """
    checks: List[Tuple[str, bool, str]] = []
    seed = spec.seeds[0]
    value = spec.sweep_values[0] if spec.sweep_axis != "none" else None
    params = _apply_axis(spec.system, spec.sweep_axis, value)
    sc, _, hcg_res, _ = _build_cell(spec, params, seed)

    sc2 = generate_scenario(params, seed)
    ok = all(
        np.array_equal(getattr(sc, name), getattr(sc2, name))
        for name in ("fap_pos", "user_pos", "local_fap", "demand")
    )
    checks.append(("scenario", ok, "deterministic"))

    if hcg_res is not None:
        gaps = np.diff(hcg_res.potential_history)
        ok = hcg_res.converged and bool(np.all(gaps > 0))
        detail = (f"converged in {hcg_res.passes} passes, "
                  f"{hcg_res.partition.num_clusters} clusters, welfare rises per move")
        checks.append(("clustering", ok, detail))

    # run_experiment asserts feasibility; a second run must repeat the first
    small = _scaled_down(params)
    schemes = ("random", "greedy_local", "improved_fa")
    if small.num_faps * small.num_contents <= spec.exhaustive_cap:
        schemes += ("exhaustive",)
    small_spec = replace(
        spec, system=small, sweep_axis="none", sweep_values=(), seeds=(seed,),
        schemes=schemes, fa=replace(spec.fa, max_iters=min(spec.fa.max_iters, 20)),
    )
    detail = "feasible, monotone incumbent, deterministic"
    try:
        rows, traces = run_experiment(small_spec, repeatable_timing=True)
        ok = (rows, traces) == run_experiment(small_spec, repeatable_timing=True)
    except AssertionError as exc:
        rows, traces, ok = [], [], False
        detail += f"; {exc}"
    hist = [t.best_objective for t in traces]
    ok = ok and bool(np.all(np.diff(hist) <= 0))
    checks.append(("optimizer", ok, detail))

    if "exhaustive" in schemes:
        best = {r.scheme: r.objective for r in rows}
        ok = bool(rows) and best["exhaustive"] <= best["improved_fa"] + 1e-12
        checks.append(("oracle", bool(ok), "exhaustive optimum dominates"))
    return checks
