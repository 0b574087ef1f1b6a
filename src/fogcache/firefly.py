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
rule; the initial swarm is drawn full, and only checked.  The best
placement ever seen is kept outside the swarm, so the reported history
never worsens.

A placement of at most ``_PACKED_MOVE_MAX`` (63) entries is searched on
packed ints: each firefly stays one Python int for the whole run, the
steps of a block of fireflies draw in one batch, and the repair of a
row and the score of a placement are each computed once per run and
looked up after that.  Longer placements are uint8 matrices, moved and
repaired by the numpy kernels.  Both forms agree bit for bit.

All randomness is counter-based.  Row m of firefly j of the initial
swarm draws under the key ``derive_key(seed, 0xF1, j, m)``, and the
draw for (iteration q, firefly j, peer i, element e) is the draw of
element e under the key ``derive_key(seed, 0xF2, q, j, i)``.  That makes runs
reproducible whatever order the draws are made in, and lets an
iteration derive all its keys in one vectorized call and a move make
its draws in whatever batches suit it; see :mod:`fogcache._kernels`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ._kernels import (
    _PACKED_MOVE_MAX,
    _move_packed,
    _packed_constants,
    _repair_packed,
    _step_batch,
    derive_key,
    fold_keys,
    get_backend,
    weighted_sample,
)
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
# entries of the initial swarm drawn per sampler call: it bounds the
# call's temporaries, and so the run's peak memory at full scale
_SAMPLE_BLOCK = 1 << 14


@dataclass(frozen=True)
class FaConfig:
    """Swarm size, iteration budget (always run in full), move constants."""

    population: int = 30
    max_iters: int = 200
    gamma: float = 0.001  # attractiveness decay per unit Hamming distance
    lambda_rand: float = 1.0  # randomization strength; at 1, p = beta and q = 0
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
) -> np.ndarray:
    """Seed fireflies with popularity-weighted feasible placements.

    Row m of firefly j caches ``slots`` contents drawn without
    replacement with the weights of row m of the popularity, uniform
    for an F-AP with no users, under the key
    ``derive_key(seed, 0xF1, j, m)`` (see :func:`weighted_sample`).  A
    call draws the rows of at most ``_SAMPLE_BLOCK`` entries' worth of
    fireflies, or of one.
    """
    params = scenario.params
    n_rows, n_cols = params.num_faps, params.num_contents
    w = scenario.popularity
    w = np.where(w.sum(axis=1, keepdims=True) > 0, w, 1.0)
    swarm = np.empty((count, n_rows, n_cols), dtype=np.uint8)
    key = derive_key(seed, _STREAM_INIT)
    per_call = max(1, _SAMPLE_BLOCK // w.size)
    for lo in range(0, count, per_call):
        ids = np.arange(lo, min(lo + per_call, count))
        swarm[lo:lo + per_call] = weighted_sample(w, slots, key, ids[:, None],
                                                  np.arange(n_rows))
    return swarm


def _check_capacity(swarm, params):
    """Raise if a cache of any firefly of ``swarm`` is over budget."""
    if not feasible(swarm.reshape(-1, params.num_contents), params):
        raise AssertionError("swarm left the capacity region")


# a draw batch covers the fireflies of one block, at most this many
# (firefly, peer) steps unless one firefly alone has more peers
_BATCH_STEPS = 2048


class _Swarm:
    """The fireflies of one run: moved, repaired and scored by index.

    ``snapshot(j)`` holds firefly j's placement in the swarm's own form
    and ``placement`` turns a snapshot into a uint8 (M, F) matrix.
    """

    def __init__(self, evaluator, slots, config):
        self.evaluator = evaluator
        self.params = evaluator.scenario.params
        self.slots = slots
        self.config = config


class _MatrixSwarm(_Swarm):
    """Fireflies as uint8 placements, moved and repaired by the numpy
    kernels: the swarm of placements of more than ``_PACKED_MOVE_MAX``
    entries."""

    def __init__(self, swarm, evaluator, slots, config):
        super().__init__(evaluator, slots, config)
        self.be = get_backend()
        self.swarm = swarm
        self.rows = swarm.reshape(len(swarm), -1)
        # the repair takes the priority order as flat indices into a placement
        n_rows, n_cols = swarm.shape[1:]
        self.prio = evaluator.scenario.priority + n_cols * np.arange(n_rows)[:, None]

    def move(self, block, brighter, intensity, keys):
        """Move and repair each firefly of ``block`` in turn, toward the
        fireflies that ``brighter`` marks in its row."""
        cfg = self.config
        for j, row in zip(block.tolist(), brighter):
            pj = np.flatnonzero(row)
            self.be.move(self.rows, j, pj, intensity[pj], cfg.gamma,
                         cfg.lambda_rand, keys[j, pj])
            self.be.repair(self.swarm[j], self.prio, self.slots)
        _check_capacity(self.swarm, self.params)

    def score(self, j):
        return self.evaluator.evaluate(self.swarm[j])

    def snapshot(self, j):
        return self.swarm[j].copy()

    def placement(self, snapshot):
        return snapshot


class _PackedSwarm(_Swarm):
    """Fireflies as Python ints, bit ``m * F + f`` the entry (m, f): the
    swarm of placements of at most ``_PACKED_MOVE_MAX`` entries.

    A block's moves share their numpy calls: the draws and thresholds of
    every step of the block come from one :func:`_step_batch`.  The repair
    looks each row up by its code, and the score each placement by its
    code; a miss runs :func:`_repair_packed` on that row, or the evaluator
    on that placement, and keeps the result for the rest of the run.
    """

    def __init__(self, swarm, evaluator, slots, config):
        super().__init__(evaluator, slots, config)
        self.shape = swarm.shape[1:]
        self.e, weight, _ = _packed_constants(swarm[0].size, config.gamma)
        self.row_bits = (1 << self.shape[1]) - 1
        self.fixed = [{} for _ in range(self.shape[0])]  # row code -> repaired
        # row m's content bits in its priority order
        self.order = [[1 << f for f in p] for p in evaluator.scenario.priority.tolist()]
        self.scores = {}  # placement code -> EvalResult
        self.codes = (swarm.reshape(len(swarm), -1) @ weight).tolist()

    def _repair(self, x):
        n_cols = self.shape[1]
        out = 0
        for m, (fixed, order) in enumerate(zip(self.fixed, self.order)):
            row = (x >> (m * n_cols)) & self.row_bits
            done = fixed.get(row)
            if done is None:
                done = fixed[row] = _repair_packed(row, order, self.slots)
                if done.bit_count() > self.slots:
                    raise AssertionError("swarm left the capacity region")
            out |= done << (m * n_cols)
        return out

    def move(self, block, brighter, intensity, keys):
        """Move and repair each firefly of ``block`` in turn, toward the
        fireflies that ``brighter`` marks in its row."""
        # the steps of the block, firefly by firefly, peers in index order
        row, peer = np.nonzero(brighter)
        z, k, masks = _step_batch(
            keys[block[row], peer], intensity[peer],
            self.e.size, self.config.gamma, self.config.lambda_rand,
        )
        ends = np.bincount(row, minlength=block.size).cumsum().tolist()
        peer = peer.tolist()
        codes = self.codes
        t = 0
        for j, u in zip(block.tolist(), ends):
            x = _move_packed(codes[j], [codes[i] for i in peer[t:u]], masks, z, k, t)
            codes[j] = self._repair(x)
            t = u

    def score(self, j):
        x = self.codes[j]
        result = self.scores.get(x)
        if result is None:
            result = self.scores[x] = self.evaluator.evaluate(self.placement(x))
        return result

    def snapshot(self, j):
        return self.codes[j]

    def placement(self, snapshot):
        return ((snapshot >> self.e) & 1).astype(np.uint8).reshape(self.shape)


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
    evaluator = PlacementEvaluator(scenario, rates, partition)
    slots = capacity_slots(params)
    initial = _initial_swarm(scenario, slots, config.population, config.seed)
    _check_capacity(initial, params)
    packed = params.num_faps * params.num_contents <= _PACKED_MOVE_MAX
    swarm = (_PackedSwarm if packed else _MatrixSwarm)(initial, evaluator, slots, config)
    evals = [swarm.score(j) for j in range(config.population)]
    objectives = np.asarray([e.objective for e in evals])

    best_idx = int(np.argmin(objectives))
    best_eval = evals[best_idx]
    best = swarm.snapshot(best_idx)
    history: List[Tuple[float, float, float]] = [
        (best_eval.objective, best_eval.delay, best_eval.energy)
    ]

    ids = np.arange(config.population)
    per_block = max(1, _BATCH_STEPS // config.population)
    for q in range(config.max_iters):
        intensity = brightness_normalize(objectives)
        keys = fold_keys(
            derive_key(config.seed, _STREAM_MOVE, q), ids[:, None], ids[None, :]
        )
        # a firefly with no brighter peer stays put: it stays in budget,
        # and its unchanged objective cannot beat the incumbent
        moved = np.flatnonzero(intensity < intensity.max())
        for b in range(0, moved.size, per_block):
            block = moved[b:b + per_block]
            # brighter[t, i]: firefly i pulls firefly block[t]
            swarm.move(block, intensity[block, None] < intensity, intensity, keys)
        for j in moved.tolist():
            evals[j] = swarm.score(j)
            objectives[j] = evals[j].objective
            if objectives[j] < best_eval.objective:
                best_eval = evals[j]
                best = swarm.snapshot(j)
        history.append((best_eval.objective, best_eval.delay, best_eval.energy))

    return FaResult(
        best_matrix=swarm.placement(best),
        best_eval=best_eval,
        history=history,
        iterations=config.max_iters,
        population=[swarm.placement(swarm.snapshot(j)) for j in range(config.population)],
    )
