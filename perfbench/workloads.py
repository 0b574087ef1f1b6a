"""Workload definitions and the output checks that every cell passes.

A workload is a closed loop of experiment cells run one after another
in one process.  A cell is one ``(sweep value, seed)`` pair with all of
the workload's schemes, handed to the library as an ``ExperimentSpec``
that holds exactly that pair.  Cell seeds come from the benchmark seed,
so the same seed always yields the same cells.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from fogcache import ExperimentSpec, ResultRow, feasible, load_config, write_csv

from stats import cells_needed

# cell seeds of benchmark seed s are s * SEED_STRIDE + i; i = 0 is the warm-up
SEED_STRIDE = 1_000_000
# FA may not beat the exhaustive optimum by more than float roundoff
ORACLE_TOL = 1e-9
# "within 2%" of the oracle, as in the near-optimality gate
NEAR_OPT = 0.02
QUALITY_UNITS = {"fa_within_2pct_share": "share", "fa_gap_mean": "ratio", "fa_over_greedy": "ratio"}


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # path relative to the checkout root
    schemes: Tuple[str, ...]
    fa: Dict[str, float]  # overrides of the config's FA section
    sweep_axis: str = "none"
    sweep_values: Tuple[float, ...] = ()
    tail_cap: int = 99  # highest tail percentile reported
    system: Optional[Dict[str, float]] = None  # overrides, for reduced runs

    @property
    def min_cells(self) -> int:
        """Timed cells needed before the tail reaches ``tail_cap``."""
        return cells_needed(self.tail_cap)

    def base_spec(self, root: str) -> ExperimentSpec:
        spec = load_config(os.path.join(root, self.config))
        system = replace(spec.system, **(self.system or {}))
        return replace(
            spec,
            system=system,
            fa=replace(spec.fa, **self.fa),
            schemes=self.schemes,
            clustering="hcg",
            sweep_axis=self.sweep_axis,
            sweep_values=self.sweep_values,
        )

    def cell(self, base: ExperimentSpec, seed: int, index: int) -> ExperimentSpec:
        """Spec of cell ``index``: sweep values alternate, seeds advance."""
        if self.sweep_axis == "none":
            value, offset = (), index
        else:
            k = len(self.sweep_values)
            value, offset = (self.sweep_values[index % k],), index // k
        return replace(base, sweep_values=value, seeds=(seed * SEED_STRIDE + offset,))

    def cells(self, base: ExperimentSpec, seed: int) -> Iterator[ExperimentSpec]:
        """Timed cells, from index 1 on."""
        index = 1
        while True:
            yield self.cell(base, seed, index)
            index += 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="oracle_small",
            config="configs/small.yaml",
            schemes=("improved_fa", "exhaustive"),
            fa=dict(population=20, lambda_rand=2.0, max_iters=100),
            tail_cap=50,
        ),
        Workload(
            name="fa_full",
            config="configs/full_scale.yaml",
            schemes=("random", "greedy_local", "improved_fa"),
            fa=dict(population=20, lambda_rand=1.0, max_iters=10),
            tail_cap=75,
        ),
        Workload(
            name="sweep_setup",
            config="configs/full_scale.yaml",
            schemes=("random", "greedy_local"),
            fa=dict(),
            sweep_axis="social_delta",
            sweep_values=(0.0, 1.0),
            tail_cap=99,
        ),
    )
}


def reduced(workload: Workload) -> Workload:
    """A small, fast variant of a workload for smoke tests."""
    if workload.name == "oracle_small":
        return replace(workload, system=dict(num_contents=4),
                       fa=dict(workload.fa, population=6, max_iters=10), tail_cap=50)
    system = dict(num_faps=5, num_users=30, num_contents=60, capacity=8.0e10)
    fa = dict(workload.fa, max_iters=3) if workload.fa else {}
    return replace(workload, system=system, fa=fa, tail_cap=50)


# ---------------------------------------------------------------------------
# Output checks.


def check_rows(workload: Workload, spec: ExperimentSpec, rows: Sequence[ResultRow]) -> List[str]:
    """Problems with one cell's rows; an empty list means the cell passed."""
    problems = []
    if [r.scheme for r in rows] != list(workload.schemes):
        problems.append(f"schemes {[r.scheme for r in rows]} != {list(workload.schemes)}")
        return problems
    mu = spec.system.weight
    for r in rows:
        values = (r.delay_seconds, r.energy_joules, r.objective)
        if not all(math.isfinite(v) and v > 0 for v in values):
            problems.append(f"{r.scheme}: non-positive or non-finite result {values}")
            continue
        blended = mu * r.delay_seconds + (1.0 - mu) * r.energy_joules
        if abs(blended - r.objective) > 1e-9 * max(abs(blended), 1.0):
            problems.append(f"{r.scheme}: objective is not the delay/energy mix")
    by_scheme = {r.scheme: r.objective for r in rows}
    if "exhaustive" in by_scheme and "improved_fa" in by_scheme:
        oracle, fa = by_scheme["exhaustive"], by_scheme["improved_fa"]
        if fa < oracle - ORACLE_TOL * abs(oracle):
            problems.append(f"FA {fa!r} beats the exhaustive optimum {oracle!r}")
    return problems


def check_placements(spec: ExperimentSpec, placements: Dict[str, object]) -> List[str]:
    """Every scheme's placement must fit the cache capacity."""
    return [
        f"{scheme}: infeasible placement"
        for scheme, x in placements.items()
        if not feasible(x, spec.system)
    ]


def rows_digest(rows: Sequence[ResultRow], scratch_dir: str) -> str:
    """sha256 of the rows as the library writes them in repeatable CSV."""
    os.makedirs(scratch_dir, exist_ok=True)
    path = os.path.join(scratch_dir, f"rows-{os.getpid()}.csv")
    try:
        write_csv(rows, path)
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    finally:
        if os.path.exists(path):
            os.remove(path)


def quality(workload: Workload, rows_per_cell: Sequence[Sequence[ResultRow]]) -> Dict[str, float]:
    """Result-quality metrics of the workloads that produce them."""
    out: Dict[str, float] = {}
    objs = [{r.scheme: r.objective for r in rows} for rows in rows_per_cell]
    if not objs:
        return out
    if {"improved_fa", "exhaustive"} <= set(workload.schemes):
        gaps = [o["improved_fa"] / o["exhaustive"] - 1.0 for o in objs]
        out["fa_within_2pct_share"] = sum(g <= NEAR_OPT for g in gaps) / len(gaps)
        out["fa_gap_mean"] = sum(gaps) / len(gaps)
    if {"improved_fa", "greedy_local"} <= set(workload.schemes):
        fa = sum(o["improved_fa"] for o in objs) / len(objs)
        greedy = sum(o["greedy_local"] for o in objs) / len(objs)
        out["fa_over_greedy"] = fa / greedy
    return out
