"""Numerical kernels of the firefly optimizer, in vectorized numpy.

Two hot spots of a simulation run live here: the binary move of one
firefly toward its brighter peers, and the capacity repair sweep.
:class:`Backend` bundles them behind one calling convention; the
optimizer reaches them through :func:`get_backend`.  Placement
surcharges are gathered from the rank tables of
:class:`fogcache.cache.PlacementEvaluator`.

Randomness inside the kernels is counter-based: the draw of flat
element e under a 64-bit key is the 53-bit integer
``mix64(key + (e + 1) * golden) >> 11``, with golden the splitmix64
increment and mix64 its finisher.  That keeps draws bound to
(iteration, firefly, peer, element) regardless of evaluation order, so
the move can make the draws of a whole firefly move in one batch.

The move is the binary firefly step as its per-bit law.  An element
that differs from the brighter peer takes the peer's value with chance
``p = clip(1/2 + (beta - 1/2) / lam, 0, 1)``; one that agrees flips
with chance ``q = max(0, 1/2 - 1/(2 lam))``.  An element changes iff
its draw is below ``int(P * 2**53)``, P its p or q.  The row length
alone picks the move's formulation (:func:`_move_np`); both make that
integer comparison, so they agree bit for bit.
"""

from __future__ import annotations

import functools
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
    "rng_for",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_NEVER = 1 << 53  # one past the largest 53-bit draw

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
        # in-place uint64 math on an array wraps silently even when it is
        # 0-d; numpy scalar math would warn
        h = np.asarray(h ^ np.asarray(p).astype(np.uint64))
        h += _GOLDEN_U64
        h = _mix64_arr(h)
    return h


def _mix64_arr(z: np.ndarray) -> np.ndarray:
    """splitmix64 finisher on every element of uint64 array ``z``, in place.

    uint64 arrays wrap silently, matching the masked python arithmetic
    of :func:`mix64`.  Returns ``z``.
    """
    t = np.empty_like(z)
    np.right_shift(z, np.uint64(30), out=t)
    z ^= t
    z *= _MIX1_U64
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= _MIX2_U64
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """numpy generator of sub-stream ``stream`` of ``seed``; any Python
    int seed is taken modulo 2**64."""
    return np.random.default_rng([seed & _MASK64, stream])


# ---------------------------------------------------------------------------
# Kernels.


def _hamming_np(a: np.ndarray, b: np.ndarray) -> int:
    return int(np.count_nonzero(a != b))


def _draws(keys, idx) -> np.ndarray:
    """The 53-bit draws ``mix64(key + (e + 1) * golden) >> 11``, as int64,
    of flat elements ``idx`` under ``keys``; the two broadcast."""
    z = np.asarray(idx).astype(np.uint64)  # an array, also for 0-d idx
    z += np.uint64(1)
    z *= _GOLDEN_U64
    # array + array wraps silently, even 0-d; numpy scalar math would warn
    z = np.asarray(np.asarray(keys, dtype=np.uint64) + z)
    _mix64_arr(z)
    z >>= np.uint64(11)
    return z.view(np.int64)


def _chance(beta, lam: float):
    """``int(P * 2**53)``, P the law's chance that an element changes at
    ``beta`` (an array or a float): a draw below it changes the element.

    P is ``clip(1/2 + (beta - 1/2) / lam, 0, 1)``, and at lam = 0 a 0 and
    a 1 alike take their peer's value iff beta >= 1/2.  At beta = 0 it is
    ``max(0, 1/2 - 1/(2 lam))``, the chance of an element that agrees
    with its peer.  Monotone in beta, also as rounded.
    """
    if lam > 0.0:
        p = np.minimum(np.maximum(0.5 + (beta - 0.5) / lam, 0.0), 1.0)
    else:
        p = np.greater_equal(beta, 0.5).astype(np.float64)
    return (p * _NEVER).astype(np.int64)


# a row of at most this many entries packs into the 63 value bits of one
# int64, so the whole move of a short row runs on Python ints
_PACKED_MOVE_MAX = 63


@functools.lru_cache(maxsize=16)
def _packed_constants(n: int, gamma: float) -> tuple:
    """Element ids and bit weights ``2**e`` of n-entry rows, and the
    factors of a step's pull that give 0 and the two ends of its beta:
    the least and the largest ``exp(-gamma * r)`` over r in [0, n]."""
    e = np.arange(n)
    spread = [math.exp(-gamma * r) for r in range(n + 1)]
    out = (e, np.left_shift(1, e), np.array([0.0, min(spread), max(spread)]))
    for a in out:
        a.flags.writeable = False
    return out


def _move_np(swarm: np.ndarray, j: int, peers: np.ndarray, pull: np.ndarray,
             gamma: float, lam: float, keys: np.ndarray) -> None:
    """Pull flat row ``swarm[j]`` toward each ``swarm[peers[t]]`` in turn, in place.

    ``swarm`` holds binary uint8 rows.  Step t has attraction
    ``beta = pull[t] * exp(-gamma * r)``, r the Hamming distance at that
    moment.  Element e changes iff its draw under ``keys[t]`` is below
    :func:`_chance` of beta if it differs from the peer's, of 0 if not.

    A row of at most ``_PACKED_MOVE_MAX`` entries compares every draw of
    the move in one batch with three thresholds per step: that of an
    agreeing element, and that of a differing one at both ends of the
    range of beta.  The steps then run on rows packed into Python ints.
    The threshold is monotone in beta, so only a differing element whose
    draw lies between the two ends is compared again, at the exact beta.
    A longer row draws step by step: only the differing elements, unless
    agreeing ones can change too (lam > 1).
    """
    if swarm.dtype != np.uint8:
        raise ValueError("move needs a uint8 swarm")
    if swarm.shape[1] <= _PACKED_MOVE_MAX:
        e, weight, ends = _packed_constants(swarm.shape[1], float(gamma))
        z = _draws(np.asarray(keys)[:, None], e)
        k = _chance(pull[:, None] * ends, lam)
        masks = ((z[:, None, :] < k[:, :, None]) @ weight).tolist()
        rows = (swarm @ weight).tolist()
        x = rows[j]
        for t, (i, p, (flip, sure, maybe)) in enumerate(
            zip(peers.tolist(), pull.tolist(), masks)
        ):
            d = x ^ rows[i]
            x ^= (d & sure) | (flip & ~d)
            open_ = d & maybe & ~sure
            if open_:
                k_exact = int(_chance(p * math.exp(-gamma * d.bit_count()), lam))
                while open_:
                    bit = open_ & -open_
                    open_ ^= bit
                    if z.item(t, bit.bit_length() - 1) < k_exact:
                        x ^= bit
        swarm[j] = (x >> e) & 1
        return
    x = swarm[j]
    xb = x.view(np.bool_)  # a binary row; the bool view skips a cast
    k_same = int(_chance(0.0, lam))
    every = np.arange(x.size)
    for i, p, key in zip(peers.tolist(), pull.tolist(), keys.tolist()):
        d = x != swarm[i]
        if k_same:
            k = _chance(p * math.exp(-gamma * np.count_nonzero(d)), lam)
            xb ^= _draws(key, every) < np.where(d, k, k_same)
        elif (idx := np.flatnonzero(d)).size:
            xb[idx] ^= _draws(key, idx) < _chance(p * math.exp(-gamma * idx.size), lam)


# placements of fewer entries repair with the fewest numpy calls, larger
# ones with the fewest passes over all entries; the two cost the same
# at about 2-3k entries (15 x 200) on a 2-vCPU machine
_SPARSE_REPAIR_MIN = 4096


def _repair_np(x: np.ndarray, flat: np.ndarray, slots: int) -> None:
    """Fill every row of binary ``x`` to exactly its slot budget, in place.

    flat[m] lists the entries of row m, as indices into ``x.reshape(-1)``,
    from the most to the least locally popular content.  Row m keeps
    the first ``slots`` entries of "its cached contents in priority
    order, then its uncached ones in priority order": a row over budget
    evicts its least popular cached contents, and a row under budget
    takes the most popular uncached ones until full.  A placement of
    ``_SPARSE_REPAIR_MIN`` entries or more writes only the entries that
    change.
    """
    n_cols = x.shape[1]
    # one flat index gathers and scatters faster than a 2-D fancy index;
    # only a C-contiguous x has a flat view that writes through
    if not x.flags.c_contiguous:
        raise ValueError("repair needs a C-contiguous placement")
    xf = x.reshape(-1)
    cached = xf[flat] != 0
    if x.size < _SPARSE_REPAIR_MIN:
        # position of a cached entry: its rank among the cached ones; of an
        # uncached one: all cached ones, then the uncached ones up to it
        rank = np.cumsum(cached, axis=1, dtype=np.int32)
        hole = rank[:, -1:] + np.arange(1, n_cols + 1, dtype=np.int32) - rank
        xf[flat] = np.where(cached, rank, hole) <= slots
        return
    total = cached.sum(axis=1)
    # evict every cached entry past the first `slots` of its row; held
    # lists the cached entries row by row, in priority order
    held = flat[cached]
    rank = np.arange(held.size) - np.repeat(np.cumsum(total) - total, total)
    xf[held[rank >= slots]] = 0
    # a row short by `need` takes its first `need` uncached entries; its
    # first `slots` entries hold at most `total` cached ones, so at least
    # `need` uncached ones, and every fill lies among them
    head = ~cached[:, :slots]
    fill = head & (np.cumsum(head, axis=1) <= (slots - total)[:, None])
    xf[flat[:, :slots][fill]] = 1


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
