"""Reference placement schemes: random, popularity-greedy, exhaustive.

The exhaustive scheme is the ground-truth optimum for small instances,
found exactly by dynamic programming over contents on the evaluator's
per-content column costs; the other two are the cheap baselines the
optimizer is judged against.  Random and greedy caching fill each
cache to ``capacity_slots``; the exhaustive scheme searches every row
of at most that many contents, so it leaves a cache short where its
copies would cost more holding energy than they save.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ._kernels import derive_key, weighted_sample
from .cache import EvalResult, Partition, PlacementEvaluator, new_placement
from .radio import LinkRateTable
from .scenario import Scenario, capacity_slots

__all__ = [
    "SCHEMES",
    "random_caching",
    "greedy_local",
    "exhaustive_optimal",
]

# placements whose column-cost sum lies within this relative distance of
# the optimum are re-scored by the evaluator; roundoff between the two
# sums is many orders of magnitude smaller
_TIE_RTOL = 1e-9
# column patterns per `column_costs` call, and (state, pattern) pairs
# per vectorized DP step
_PATTERN_CHUNK = 4096
_PAIR_CHUNK = 1 << 18

SCHEMES = ("random", "greedy_local", "improved_fa", "exhaustive")


def random_caching(scenario: Scenario, seed: int) -> np.ndarray:
    """Each F-AP m caches a uniform random subset that fills its budget,
    drawn under the key ``derive_key(seed, 0xBA5E, m)``."""
    params = scenario.params
    picks = weighted_sample(np.ones(params.num_contents), capacity_slots(params),
                            derive_key(seed, 0xBA5E), np.arange(params.num_faps))
    return picks.astype(np.uint8)


def greedy_local(scenario: Scenario) -> np.ndarray:
    """Each F-AP caches the first contents of its ``Scenario.priority``.

    That is its locally most popular contents; ties, including the
    all-tied rows of F-APs without users, resolve toward the lower
    content id.
    """
    params = scenario.params
    x = new_placement(params)
    np.put_along_axis(x, scenario.priority[:, :capacity_slots(params)], 1, axis=1)
    return x


def exhaustive_optimal(
    scenario: Scenario,
    rates: LinkRateTable,
    partition: Partition,
    size_cap: int = 24,
) -> Tuple[np.ndarray, EvalResult]:
    """Optimal placement by dynamic programming over contents.

    The objective is a constant plus one term per content that depends
    only on that content's column pattern
    (:meth:`~fogcache.cache.PlacementEvaluator.column_costs`), and only
    the per-row slot budget couples the columns.  A backward pass over
    the contents, with the slots used per F-AP as state, gives the
    least total cost; only reachable states and the column patterns
    their free slots allow are visited.  Every placement within roundoff of that optimum is
    then scored by the evaluator, and objective ties resolve to the
    lexicographically smallest row-major flattened matrix, making the
    result unique and reproducible.

    The work is a few vectorized array operations per (state, pattern)
    pair, at most F * (slots + 1)**M * 2**M of them, where enumeration
    paid one evaluator call per placement; instances with
    ``M * F > size_cap`` are refused.
    """
    params = scenario.params
    n_faps, n_contents = params.num_faps, params.num_contents
    cells = n_faps * n_contents
    if cells > size_cap:
        raise ValueError(
            f"instance has {cells} cells, exhaustive search capped at {size_cap}"
        )
    slots = capacity_slots(params)
    evaluator = PlacementEvaluator(scenario, rates, partition)

    patterns = np.arange(1 << n_faps)
    fap = np.arange(n_faps)
    # bits[m, p]: whether F-AP m holds a content of column pattern p
    bits = (patterns >> fap[:, None]) & 1
    cost = np.hstack([
        evaluator.column_costs(bits[:, lo:lo + _PATTERN_CHUNK])
        for lo in range(0, patterns.size, _PATTERN_CHUNK)
    ])
    # a state code counts the slots used by F-AP m in digit m, base slots + 1
    place = (slots + 1) ** fap
    step = place @ bits

    def full_rows(codes):
        return ((codes[:, None] // place) % (slots + 1) == slots) @ (1 << fap)

    # to_go[f][code]: least cost of contents f.. from slot usage `code`;
    # before content f each F-AP has used at most min(slots, f) slots
    to_go = [None] * (n_contents + 1)
    for f in range(n_contents - 1, -1, -1):
        used = min(slots, f)
        codes = np.zeros(1, dtype=np.int64)
        for m in fap:
            codes = (codes[:, None] + np.arange(used + 1) * place[m]).ravel()
        full = full_rows(codes)
        table = np.full(codes.max() + 1, np.inf)
        chunk = max(1, _PAIR_CHUNK // patterns.size)
        for lo in range(0, codes.size, chunk):
            here = codes[lo:lo + chunk]
            ok = (full[lo:lo + chunk, None] & patterns) == 0
            total = cost[f] + _lookup(to_go[f + 1], here[:, None] + step, ok)
            table[here] = np.where(ok, total, np.inf).min(axis=1)
        to_go[f] = table

    # every path whose cost stays within the tie tolerance of the optimum
    limit = to_go[0][0] + _TIE_RTOL * (evaluator.const_objective + to_go[0][0])
    codes = np.zeros(1, dtype=np.int64)
    spent = np.zeros(1)
    paths = np.zeros((1, 0), dtype=np.int64)
    for f in range(n_contents):
        ok = (full_rows(codes)[:, None] & patterns) == 0
        nxt = codes[:, None] + step
        acc = spent[:, None] + cost[f]
        keep = ok & (acc + _lookup(to_go[f + 1], nxt, ok) <= limit)
        src, pat = np.nonzero(keep)
        codes, spent = nxt[src, pat], acc[src, pat]
        paths = np.column_stack([paths[src], pat])

    best_x: Optional[np.ndarray] = None
    best_eval: Optional[EvalResult] = None
    best_key: Optional[tuple] = None
    for path in paths:
        x = ((path[None, :] >> fap[:, None]) & 1).astype(np.uint8)
        result = evaluator.evaluate(x)
        key = tuple(x.reshape(-1))
        if (
            best_eval is None
            or result.objective < best_eval.objective
            or (result.objective == best_eval.objective and key < best_key)
        ):
            best_x, best_eval, best_key = x, result, key
    assert best_x is not None and best_eval is not None
    return best_x, best_eval


def _lookup(to_go: Optional[np.ndarray], codes: np.ndarray, ok: np.ndarray):
    """Cost to go at ``codes`` where ``ok``, arbitrary elsewhere; 0 once
    every content is placed (``to_go`` is None)."""
    if to_go is None:
        return 0.0
    return to_go[np.where(ok, codes, 0)]

