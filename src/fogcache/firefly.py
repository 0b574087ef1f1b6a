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

A placement of at most ``_PACKED_MOVE_MAX`` (63) entries is searched on
packed ints: each firefly stays one Python int for the whole run, the
steps of a block of fireflies draw in one batch, and the repair of a
row and the score of a placement are each computed once per run and
looked up after that.  Longer placements move as uint8 matrices through
the numpy kernels.  Both forms give the same result, bit for bit.

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

from ._kernels import (
    _PACKED_MOVE_MAX,
    _move_packed,
    _packed_constants,
    _step_batch,
    derive_key,
    fold_keys,
    get_backend,
    rng_for,
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
) -> np.ndarray:
    """Seed fireflies with popularity-weighted feasible placements.

    Row m of each firefly caches ``slots`` contents drawn without
    replacement with the weights of row m of the popularity, uniform
    for an F-AP with no users.  The fireflies draw in turn, row by row,
    from one stream, with the bits of ``rng.choice(F, slots,
    replace=False, p=w)`` (see :func:`_choose`).  Each row's count of
    positive weights is checked, and its first CDF built, once; the
    popularity rows are normalized by construction.
    """
    params = scenario.params
    n_rows, n_cols = params.num_faps, params.num_contents
    swarm = np.zeros((count, n_rows, n_cols), dtype=np.uint8)
    if not slots:
        return swarm
    uniform = np.full(n_cols, 1.0 / n_cols)
    rows = []
    for w in scenario.popularity:
        w = w if w.sum() > 0 else uniform
        if np.count_nonzero(w > 0) < slots:
            raise ValueError("Fewer non-zero entries in p than size")
        rows.append((w, _cdf(w)))
    stream = _Uniforms(rng_for(seed, _STREAM_INIT), count * n_rows * slots)
    for x in swarm:
        for row, (w, cdf) in zip(x, rows):
            row[_choose(w, cdf, slots, stream)] = 1
    return swarm


def _cdf(p: np.ndarray) -> np.ndarray:
    """The CDF that ``Generator.choice`` searches: ``cumsum(p)`` over its
    last entry."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return cdf


class _Uniforms:
    """The uniforms of ``rng.random``, handed out in order a slice at a
    time from blocks of at least ``block``: one stream, as if each slice
    were its own ``rng.random`` call."""

    def __init__(self, rng: np.random.Generator, block: int):
        self.rng = rng
        self.block = block
        self.buf = rng.random(block)
        self.at = 0

    def take(self, size: int) -> np.ndarray:
        if self.at + size > self.buf.size:
            more = self.rng.random(max(size, self.block))
            self.buf = np.concatenate([self.buf[self.at:], more])
            self.at = 0
        self.at += size
        return self.buf[self.at - size:self.at]


def _choose(w: np.ndarray, cdf: np.ndarray, size: int, stream: _Uniforms) -> list:
    """``size`` distinct indices drawn with weights ``w``: what
    ``Generator.choice(w.size, size, replace=False, p=w)`` returns on the
    same stream.  That draws in rounds: each round draws one uniform per
    missing index, maps it to the CDF of the weights with
    ``searchsorted(side="right")``, keeps the first occurrence of each
    index in draw order, and zeroes the found weights for the next
    round.  ``cdf`` is the CDF of ``w``; ``w`` has at least ``size``
    positive weights."""
    found = list(dict.fromkeys(cdf.searchsorted(stream.take(size), side="right").tolist()))
    while len(found) < size:
        p = w.copy()
        p[found] = 0
        new = _cdf(p).searchsorted(stream.take(size - len(found)), side="right")
        found += dict.fromkeys(new.tolist())
    return found


# a draw batch covers the fireflies of one block, at most this many
# (firefly, peer) steps unless one firefly alone has more peers
_BATCH_STEPS = 2048


class _Swarm:
    """The fireflies of one run: moved, repaired and scored by index.

    ``snapshot(j)`` holds firefly j's placement in the swarm's own form
    and ``placement`` turns a snapshot into a uint8 (M, F) matrix.
    """

    def __init__(self, evaluator, slots, config):
        self.be = get_backend()
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
        self.swarm = swarm
        self.rows = swarm.reshape(len(swarm), -1)
        # the repair takes the priority order as flat indices into a placement
        n_rows, n_cols = swarm.shape[1:]
        self.prio = evaluator.scenario.priority + n_cols * np.arange(n_rows)[:, None]
        for x in swarm:
            self.be.repair(x, self.prio, self.slots)
        self._check(swarm.reshape(-1, n_cols))

    def move(self, block, brighter, intensity, keys):
        """Move and repair each firefly of ``block`` in turn, toward the
        fireflies that ``brighter`` marks in its row."""
        cfg = self.config
        for j, row in zip(block.tolist(), brighter):
            pj = np.flatnonzero(row)
            self.be.move(self.rows, j, pj, intensity[pj], cfg.gamma,
                         cfg.lambda_rand, keys[j, pj])
            self.be.repair(self.swarm[j], self.prio, self.slots)
        self._check(self.swarm.reshape(-1, self.swarm.shape[2]))

    def _check(self, x):
        if not feasible(x, self.params):
            raise AssertionError("swarm left the capacity region")

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
    code; a miss runs the repair kernel on that row, or the evaluator on
    that placement, and keeps the result for the rest of the run.
    """

    def __init__(self, swarm, evaluator, slots, config):
        super().__init__(evaluator, slots, config)
        self.shape = swarm.shape[1:]
        self.e, self.weight, _ = _packed_constants(swarm[0].size, config.gamma)
        self.row_bits = (1 << self.shape[1]) - 1
        self.fixed = [{} for _ in range(self.shape[0])]  # row code -> repaired
        self.scores = {}  # placement code -> EvalResult
        codes = (swarm.reshape(len(swarm), -1) @ self.weight).tolist()
        self.codes = [self._repair(x) for x in codes]

    def _repair(self, x):
        n_cols = self.shape[1]
        out = 0
        for m, fixed in enumerate(self.fixed):
            row = (x >> (m * n_cols)) & self.row_bits
            done = fixed.get(row)
            if done is None:
                r = ((row >> self.e[:n_cols]) & 1).astype(np.uint8)[None, :]
                # a one-row placement: its priority order is row m's
                self.be.repair(r, self.evaluator.scenario.priority[m:m + 1], self.slots)
                done = fixed[row] = int(r[0] @ self.weight[:n_cols])
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
    packed = params.num_faps * params.num_contents <= _PACKED_MOVE_MAX
    swarm = (_PackedSwarm if packed else _MatrixSwarm)(
        _initial_swarm(scenario, slots, config.population, config.seed),
        evaluator, slots, config,
    )
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
        # a firefly with no brighter peer stays put: it stays repaired,
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
