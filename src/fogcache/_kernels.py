"""Numerical kernels of the firefly optimizer, in vectorized numpy.

Two hot spots of a simulation run live here: the binary move of one
firefly toward its brighter peers, and the capacity repair sweep.
:class:`Backend` bundles them behind one calling convention; the
optimizer reaches them through :func:`get_backend`.  Placement
surcharges are gathered from the rank tables of
:class:`fogcache.cache.PlacementEvaluator`.

Randomness inside the kernels is counter-based: every draw is a pure
function of a 64-bit key and a flat element index, using the splitmix64
finisher.  That keeps draws bound to (iteration, firefly, peer,
element) regardless of evaluation order, so the move can make the
draws of a whole firefly move in one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Backend",
    "get_backend",
    "mix64",
    "derive_key",
    "fold_keys",
    "uniform_at",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV53 = 1.0 / 9007199254740992.0  # 2**-53

_GOLDEN_U64 = np.uint64(_GOLDEN)
_MIX1_U64 = np.uint64(_MIX1)
_MIX2_U64 = np.uint64(_MIX2)


# ---------------------------------------------------------------------------
# Counter-based randomness.


def mix64(z: int) -> int:
    """splitmix64 finisher on a 64-bit integer (pure python)."""
    z &= _MASK64
    z ^= z >> 30
    z = (z * _MIX1) & _MASK64
    z ^= z >> 27
    z = (z * _MIX2) & _MASK64
    z ^= z >> 31
    return z


def derive_key(seed: int, *parts: int) -> int:
    """Fold a seed and a tuple of stream coordinates into one 64-bit key."""
    h = mix64(seed & _MASK64)
    for p in parts:
        h = mix64(((h ^ (p & _MASK64)) + _GOLDEN) & _MASK64)
    return h


def fold_keys(key: int, *parts: np.ndarray) -> np.ndarray:
    """Vectorized continuation of :func:`derive_key`.

    ``fold_keys(derive_key(seed, a), b, c)`` holds
    ``derive_key(seed, a, b[...], c[...])`` at every position; the
    ``parts`` broadcast against each other.
    """
    h = np.uint64(key)
    for p in parts:
        h = _mix64_arr((h ^ np.asarray(p).astype(np.uint64)) + _GOLDEN_U64)
    return h


def _mix64_arr(z: np.ndarray) -> np.ndarray:
    # uint64 arrays wrap silently, matching the masked python arithmetic
    z = (z ^ (z >> np.uint64(30))) * _MIX1_U64
    z = (z ^ (z >> np.uint64(27))) * _MIX2_U64
    return z ^ (z >> np.uint64(31))


def uniform_at(key: int, idx: np.ndarray) -> np.ndarray:
    """Uniform [0, 1) draws for the given flat element indices.

    The draw at index ``e`` depends only on ``(key, e)``, so any subset
    of elements can be evaluated in any order with identical results.
    ``key`` may be an array of keys; it broadcasts against ``idx``.
    """
    key = np.asarray(key, dtype=np.uint64)
    ctr = key + (idx.astype(np.uint64) + np.uint64(1)) * _GOLDEN_U64
    return (_mix64_arr(ctr) >> np.uint64(11)).astype(np.float64) * _INV53


# ---------------------------------------------------------------------------
# Kernels.


def _hamming_np(a: np.ndarray, b: np.ndarray) -> int:
    return int(np.count_nonzero(a != b))


def _move_np(
    swarm: np.ndarray,
    j: int,
    peers: np.ndarray,
    pull: np.ndarray,
    gamma: float,
    lam: float,
    keys: np.ndarray,
) -> None:
    """Pull flat row ``swarm[j]`` toward each ``swarm[peers[t]]`` in turn, in place.

    Step t has attraction ``beta = pull[t] * exp(-gamma * r)``, r the
    Hamming distance at that moment, and sets each element e to 1 iff
    xj + beta*(xi - xj) + lam*(u - 1/2) - 1/2 >= 0, with u drawn by
    ``uniform_at(keys[t], e)``.  For lam <= 1 an element with xj == xi
    can never flip, so only the differing positions are drawn, step by
    step; otherwise all steps draw up front in one batch.
    """
    x = swarm[j]
    if lam > 1.0:
        noise = lam * (uniform_at(keys[:, None], np.arange(x.size)) - 0.5)
        a = x.astype(np.float64)
        for b, n, p in zip(swarm[peers].astype(np.float64), noise, pull.tolist()):
            d = b - a
            beta = p * math.exp(-gamma * np.count_nonzero(d))
            arg = a + beta * d
            arg += n
            arg -= 0.5
            a = (arg >= 0.0).astype(np.float64)
        x[:] = a
        return
    for t, i in enumerate(peers):
        b = swarm[i]
        idx = np.flatnonzero(x != b)
        if idx.size == 0:
            continue
        beta = pull[t] * math.exp(-gamma * idx.size)
        a = x[idx].astype(np.float64)
        arg = a + beta * (b[idx] - a)
        arg = arg + lam * (uniform_at(keys[t], idx) - 0.5)
        arg = arg - 0.5
        x[idx] = arg >= 0.0


def _repair_np(x: np.ndarray, prio: np.ndarray, slots: int) -> None:
    """Fill every row to exactly its slot budget, in place.

    prio[m] lists content ids from most to least locally popular.  Row
    m keeps the first ``slots`` entries of "its cached contents in
    priority order, then its uncached ones in priority order": a row
    over budget evicts its least popular cached contents, and a row
    under budget takes the most popular uncached ones until full.
    """
    n_rows, n_cols = x.shape
    # one flat index gathers and scatters faster than a 2-D fancy index;
    # only a C-contiguous x has a flat view that writes through
    if not x.flags.c_contiguous:
        raise ValueError("repair needs a C-contiguous placement")
    flat = (prio + np.arange(0, n_rows * n_cols, n_cols)[:, None]).ravel()
    xf = x.reshape(-1)
    cached = (xf[flat] != 0).reshape(n_rows, n_cols)
    rank = np.cumsum(cached, axis=1)
    # position of an uncached entry: all cached ones, then the uncached
    # ones up to and including it
    hole_pos = rank[:, -1:] + np.arange(1, n_cols + 1) - rank
    xf[flat] = (np.where(cached, rank, hole_pos) <= slots).ravel()


# ---------------------------------------------------------------------------
# The kernel bundle.


@dataclass(frozen=True)
class Backend:
    """Bundle of the firefly kernels sharing one calling convention.

    Placement surcharges are no kernel of their own: the evaluator
    gathers them from its rank and chunk tables (see
    :class:`fogcache.cache.PlacementEvaluator`).  ``hamming`` has no
    caller in the package; the benchmark's tracer times it together
    with ``move`` and ``repair``.
    """

    name: str
    hamming: Callable[[np.ndarray, np.ndarray], int]
    move: Callable[..., None]
    repair: Callable[..., None]


_NUMPY_BACKEND = Backend(
    name="numpy",
    hamming=_hamming_np,
    move=_move_np,
    repair=_repair_np,
)


def get_backend() -> Backend:
    """The kernels the optimizer calls."""
    return _NUMPY_BACKEND
