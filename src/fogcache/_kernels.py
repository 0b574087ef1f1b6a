"""Numerical kernels of the firefly optimizer, in vectorized numpy.

Two hot spots of a simulation run live here: the binary move of one
firefly toward its brighter peers, and the capacity repair sweep.
:class:`Backend` bundles them behind one calling convention; the
optimizer reaches them through :func:`get_backend`.  Placement
surcharges are gathered from the rank tables of
:class:`fogcache.cache.PlacementEvaluator`.

Randomness inside the kernels is counter-based: the draw of flat
element e under a 64-bit key is ``mix64(key + (e + 1) * golden) >> 11``,
times 2**-53 for a uniform in [0, 1), with golden the splitmix64
increment and mix64 its finisher.  That keeps draws bound to
(iteration, firefly, peer, element) regardless of evaluation order, so
the move can make the draws of a whole firefly move in one batch.

The move rule sets a bit to 1 iff ``c + lam*(u - 1/2) - 1/2 >= 0``,
where ``c = xj + beta*(xi - xj)`` and ``u = k * 2**-53`` for the 53-bit
draw k.  Every float operation of the rule rounds monotonically in c
and in k (lam >= 0), and the row length alone picks how the move uses
that.  A row that fits one machine word decides every element in one
batch at the two ends of the range of beta and runs the steps on
packed bits; a longer row compares the raw integer draws of each step
with the exact threshold of each c (:func:`_threshold`) and forms no
float per bit.  lam selects no code.  The float rule over whole rows
is the reference in ``tests/test_kernels.py``.
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
_INV53 = 1.0 / _NEVER  # 2**-53

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


def _threshold(c: float, lam: float) -> int:
    """Least 53-bit draw k for which the move rule sets an element to 1.

    The rule is ``c + lam*(u - 1/2) - 1/2 >= 0`` with ``u = k * 2**-53``,
    evaluated in doubles in exactly this order.  Every operation on the
    way rounds monotonically and ``lam >= 0``, so the rule holds for all
    k from some K on; the result is that K, 2**53 meaning "never".  The
    closed-form K is only a starting guess: the search gallops away from
    it until the rule changes and bisects the bracket, so rounding can
    move the guess but never the answer.  A guess that overflows (tiny
    lam) or means nothing (lam == 0) costs at most about 110 checks.
    """

    def holds(k: int) -> bool:
        return c + lam * (k * _INV53 - 0.5) - 0.5 >= 0.0

    guess = (0.5 + (0.5 - c) / lam) * _NEVER if lam > 0.0 else float(_NEVER)
    k = int(min(max(guess, 0.0), _NEVER - 1.0))
    lo, hi, step = 0, _NEVER, 1  # the answer lies in [lo, hi]
    while lo <= k < hi:
        if holds(k):
            hi, k = k, k - step
        else:
            lo, k = k + 1, k + step
        step *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


# a row of at most this many entries packs into the 63 value bits of one
# int64, so the whole move of a short row runs on Python ints
_PACKED_MOVE_MAX = 63


@functools.lru_cache(maxsize=16)
def _packed_constants(n: int, gamma: float) -> tuple:
    """Constants of the packed move of n-entry rows, for one gamma.

    The counters ``(e + 1) * golden`` of the draws; the weight
    ``2**e`` of element e's bit, and e itself; and the factors ``s`` and
    offsets ``o`` with which ``pull * s + o`` gives, per step, the six c
    of :func:`_move_packed`.  Their betas take the least and the largest
    ``exp(-gamma * r)`` over every Hamming distance r in [0, n].
    """
    e = np.arange(n)
    ctr = (e + 1).astype(np.uint64) * _GOLDEN_U64
    weight = np.left_shift(1, e)
    spread = [math.exp(-gamma * r) for r in range(n + 1)]
    low, high = min(spread), max(spread)
    # 1 + (-b) is 1 - b, rounded alike
    s = np.array([0.0, 0.0, low, high, -low, -high])
    o = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 1.0])
    for a in (ctr, weight, e, s, o):
        a.flags.writeable = False
    return ctr, weight, e, s, o


def _move_packed(
    swarm: np.ndarray,
    j: int,
    peers: np.ndarray,
    pull: np.ndarray,
    gamma: float,
    lam: float,
    keys: np.ndarray,
) -> None:
    """:func:`_move_np` on rows of at most ``_PACKED_MOVE_MAX`` entries.

    One batch draws every (step, element) and decides each element's
    outcome at six values of c: 0 and 1 (an element equal to its peer's),
    and beta and 1 - beta (a 0 and a 1 that differ from it) at both ends
    of the range of beta a step can have.  The steps then run on rows
    packed into Python ints.  The rule rounds monotonically in c, so a
    differing element whose two outcomes agree is decided; only the
    others are decided again, in plain floats, with the step's exact
    beta.
    """
    ctr, weight, shift, s, o = _packed_constants(swarm.shape[1], float(gamma))
    z = np.asarray(keys, dtype=np.uint64)[:, None] + ctr
    _mix64_arr(z)
    z >>= np.uint64(11)
    noise = z.astype(np.float64)
    noise *= _INV53
    noise -= 0.5
    noise *= lam
    arg = (pull[:, None] * s + o)[:, :, None] + noise[:, None, :]
    arg -= 0.5
    wins = ((arg >= 0.0) @ weight).tolist()
    rows = (swarm @ weight).tolist()
    x = rows[j]
    for t, (i, p, (a0, a1, d0, d0_end, d1, d1_end)) in enumerate(
        zip(peers.tolist(), pull.tolist(), wins)
    ):
        d = x ^ rows[i]
        rise = d & ~x  # a 0 whose peer holds a 1
        fall = d & x
        y = (x & ~d & a1) | (~(x | d) & a0)
        y |= (rise & d0 & d0_end) | (fall & d1 & d1_end)
        open_ = (rise & (d0 ^ d0_end)) | (fall & (d1 ^ d1_end))
        if open_:
            beta = p * math.exp(-gamma * d.bit_count())
            while open_:
                bit = open_ & -open_
                open_ ^= bit
                c = 1.0 - beta if x & bit else beta
                if (c + noise.item(t, bit.bit_length() - 1)) - 0.5 >= 0.0:
                    y |= bit
        x = y
    swarm[j] = (x >> shift) & 1


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

    ``swarm`` holds binary uint8 rows.  Step t has attraction
    ``beta = pull[t] * exp(-gamma * r)``, r the Hamming distance at that
    moment, and sets each element e to 1 iff
    xj + beta*(xi - xj) + lam*(u - 1/2) - 1/2 >= 0, with u the draw of
    element e under ``keys[t]``.  The row length picks the formulation.
    A row of at most ``_PACKED_MOVE_MAX`` entries runs on packed bits
    (:func:`_move_packed`).  A longer row draws step by step and
    compares the raw 53-bit draws with the thresholds of
    :func:`_threshold`: c = beta for a 0 and c = 1 - beta for a 1 that
    differ from the peer, c = 0 and c = 1 for the elements that agree.
    Where those last two thresholds let no agreeing element move, as for
    every lam <= 1, only the differing positions draw.
    """
    if swarm.dtype != np.uint8:
        raise ValueError("move needs a uint8 swarm")
    if swarm.shape[1] <= _PACKED_MOVE_MAX:
        _move_packed(swarm, j, peers, pull, gamma, lam, keys)
        return
    x = swarm[j]
    xb = x.view(np.bool_)  # a binary row; the bool view skips a cast
    # thresholds of a 0 and a 1 equal to the peer's; for lam <= 1 no draw
    # moves either, and only the differing elements draw
    same0, same1 = _threshold(0.0, lam), _threshold(1.0, lam)
    every = same0 < _NEVER or same1 > 0
    for i, p, key in zip(peers.tolist(), pull.tolist(), keys.tolist()):
        b = swarm[i]
        if every:
            idx = np.arange(x.size)
            r = int(np.count_nonzero(x != b))
        else:
            idx = np.flatnonzero(x != b)
            r = idx.size
            if r == 0:
                continue
        beta = p * math.exp(-gamma * r)
        k0 = _threshold(beta, lam)
        k1 = _threshold(1.0 - beta, lam)
        # the 53-bit draws: mix64(key + (e + 1) * golden) >> 11
        z = idx.view(np.uint64) * _GOLDEN_U64
        z += np.uint64((key + _GOLDEN) & _MASK64)
        _mix64_arr(z)
        z >>= np.uint64(11)
        z = z.view(np.int64)
        if every:
            # threshold of each element by its own bit and its peer's
            xb[:] = z >= np.array([same0, k0, k1, same1])[(x << 1) | b]
            continue
        # an element becomes z >= k1 where it is 1 and z >= k0 where it
        # is 0: shift the draws of the 1s by k0 - k1, compare with k0
        z += xb[idx] * np.int64(k0 - k1)
        xb[idx] = z >= k0


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
