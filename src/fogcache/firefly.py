"""Binary firefly search over cache placements.

A swarm of feasible placements evolves for a fixed number of
iterations.  Brighter (lower objective) fireflies attract dimmer ones;
attraction decays with Hamming distance.  Each pairwise step follows
the binary firefly law bit by bit: an element that differs from the
brighter peer takes the peer's value with a chance that grows with the
attraction, and above ``lambda_rand`` 1 an element that agrees flips
with a fixed chance (see :mod:`fogcache._kernels`).  Moves are
immediately visible within the same iteration, so one firefly can be
pulled by an already-updated peer.  After moving, a
firefly is repaired to the capacity budget with a popularity-guided
rule.  The best placement ever seen is kept outside the swarm, so the
reported history never worsens.

All randomness inside the main loop is counter-based: the draw for
(iteration q, firefly j, peer i, element e) is the draw of element e
under the key ``derive_key(seed, 0xF2, q, j, i)``.  That makes runs
reproducible whatever order the draws are made in, and lets an
iteration derive all its keys in one vectorized call and a move make
its draws in whatever batches suit it; see :mod:`fogcache._kernels`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ._kernels import derive_key, fold_keys, get_backend, rng_for
from .cache import EvalResult, Partition, PlacementEvaluator, feasible
from .radio import LinkRateTable
from .scenario import Scenario, capacity_slots, require_int

__all__ = [
    "FaConfig",
    "FaResult",
    "brightness_normalize",
    "run_fa",
]

_STREAM_INIT = 0xF1
_STREAM_MOVE = 0xF2


@dataclass(frozen=True)
class FaConfig:
    """Swarm size, iteration budget (always run in full), move constants."""

    population: int = 30
    max_iters: int = 200
    gamma: float = 0.001  # attractiveness decay per unit Hamming distance
    lambda_rand: float = 0.5  # randomization strength
    seed: int = 0

    def __post_init__(self):
        require_int("population", self.population, 2)
        require_int("max_iters", self.max_iters, 1)
        # written so that NaN fails too
        if not 0 <= self.gamma < math.inf:
            raise ValueError("gamma must be non-negative and finite")
        if not 0 <= self.lambda_rand < math.inf:
            raise ValueError("lambda_rand must be non-negative and finite")


@dataclass
class FaResult:
    """Best placement found plus the per-iteration incumbent trace.

    ``history`` holds one (objective, delay, energy) triple per
    recorded point: the initial swarm and then one per iteration run.
    """

    best_matrix: np.ndarray
    best_eval: EvalResult
    history: List[Tuple[float, float, float]]
    iterations: int
    population: List[np.ndarray] = field(default_factory=list)


def brightness_normalize(objectives: np.ndarray) -> np.ndarray:
    """Map objectives to brightness in [0, 1], best (lowest) brightest.

    A degenerate swarm where every firefly scores the same maps to all
    zeros.
    """
    objectives = np.asarray(objectives, dtype=float)
    worst = objectives.max()
    best = objectives.min()
    return (worst - objectives) / (worst - best + 1e-12)


def _initial_swarm(
    scenario: Scenario,
    slots: int,
    count: int,
    seed: int,
) -> List[np.ndarray]:
    """Seed fireflies with popularity-weighted feasible placements."""
    params = scenario.params
    pop_rows = scenario.popularity
    rng = rng_for(seed, _STREAM_INIT)
    uniform = np.full(params.num_contents, 1.0 / params.num_contents)
    swarm = []
    for _ in range(count):
        x = np.zeros((params.num_faps, params.num_contents), dtype=np.uint8)
        if slots:
            for m in range(params.num_faps):
                weights = pop_rows[m] if pop_rows[m].sum() > 0 else uniform
                chosen = rng.choice(
                    params.num_contents, size=slots, replace=False, p=weights
                )
                x[m, chosen] = 1
        swarm.append(x)
    return swarm


def run_fa(
    scenario: Scenario,
    rates: LinkRateTable,
    partition: Partition,
    config: Optional[FaConfig] = None,
) -> FaResult:
    """Optimize a cache placement for one scenario and partition."""
    if config is None:
        config = FaConfig()
    params = scenario.params
    be = get_backend()
    evaluator = PlacementEvaluator(scenario, rates, partition)
    slots = capacity_slots(params)
    # the repair takes the priority order as flat indices into a placement
    prio = scenario.priority + params.num_contents * np.arange(params.num_faps)[:, None]

    swarm = np.stack(
        _initial_swarm(scenario, slots, config.population, config.seed)
    )
    for x in swarm:
        be.repair(x, prio, slots)
    evals = [evaluator.evaluate(x) for x in swarm]
    objectives = np.asarray([e.objective for e in evals])

    best_idx = int(np.argmin(objectives))
    best_eval = evals[best_idx]
    best_matrix = swarm[best_idx].copy()
    history: List[Tuple[float, float, float]] = [
        (best_eval.objective, best_eval.delay, best_eval.energy)
    ]

    rows = swarm.reshape(config.population, -1)
    ids = np.arange(config.population)
    for q in range(config.max_iters):
        intensity = brightness_normalize(objectives)
        keys = fold_keys(
            derive_key(config.seed, _STREAM_MOVE, q), ids[:, None], ids[None, :]
        )
        # a firefly with no brighter peer stays put: it stays repaired,
        # and its unchanged objective cannot beat the incumbent
        moved = np.flatnonzero(intensity < intensity.max()).tolist()
        for j in moved:
            peers = np.flatnonzero(intensity > intensity[j])
            be.move(rows, j, peers, intensity[peers], config.gamma,
                    config.lambda_rand, keys[j, peers])
            be.repair(swarm[j], prio, slots)
        for j in moved:
            evals[j] = evaluator.evaluate(swarm[j])
            objectives[j] = evals[j].objective
            if objectives[j] < best_eval.objective:
                best_eval = evals[j]
                best_matrix = swarm[j].copy()
        if not feasible(swarm.reshape(-1, params.num_contents), params):
            raise AssertionError("swarm left the capacity region")
        history.append((best_eval.objective, best_eval.delay, best_eval.energy))

    return FaResult(
        best_matrix=best_matrix,
        best_eval=best_eval,
        history=history,
        iterations=config.max_iters,
        population=list(swarm),
    )
