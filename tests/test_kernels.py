"""Counter-based RNG and the numpy kernels.

The RNG vectors are checked against the published splitmix64 reference
sequence for seed 0, and the move kernel against its element-by-element
definition.  The repair kernel and the evaluator's surcharge tables are
checked against their references in test_firefly.py and test_cache.py.
"""

import math

import numpy as np
import pytest

from fogcache._kernels import derive_key, fold_keys, get_backend, mix64, uniform_at

from conftest import scalar_pull

GOLDEN = 0x9E3779B97F4A7C15
MASK = (1 << 64) - 1

# splitmix64 seeded with 0 emits finalize(k * GOLDEN) at step k; the
# first outputs below are the reference sequence of that generator
SPLITMIX_SEED0 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
]


def test_mix64_reference_vectors():
    for k, expected in enumerate(SPLITMIX_SEED0, start=1):
        assert mix64((k * GOLDEN) & MASK) == expected


def test_mix64_masks_to_64_bits():
    assert mix64((1 << 64) + 5) == mix64(5)
    assert 0 <= mix64(MASK) <= MASK


def test_uniform_at_matches_reference_stream():
    # key 0 makes the counter stream coincide with splitmix64(seed=0)
    u = uniform_at(0, np.arange(3, dtype=np.int64))
    expected = [(v >> 11) * 2.0**-53 for v in SPLITMIX_SEED0]
    assert u.tolist() == expected
    assert u.tolist() == pytest.approx(
        [0.8833108082136426, 0.43152799704850997, 0.026433771592597743],
        rel=0,
        abs=0,
    )


def test_uniform_at_is_positional():
    # a draw depends only on (key, index), not on which other indices
    # are requested or in what order
    key = derive_key(7, 1, 2)
    full = uniform_at(key, np.arange(100, dtype=np.int64))
    sub = uniform_at(key, np.array([42, 3, 99], dtype=np.int64))
    assert sub[0] == full[42]
    assert sub[1] == full[3]
    assert sub[2] == full[99]


def test_uniform_at_range_and_spread():
    u = uniform_at(derive_key(1, 2), np.arange(20000, dtype=np.int64))
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(u.var() - 1.0 / 12.0) < 0.005


def test_derive_key_separates_streams():
    keys = {
        derive_key(s, a, b)
        for s in range(4)
        for a in range(8)
        for b in range(8)
    }
    assert len(keys) == 4 * 8 * 8
    assert derive_key(1, 2, 3) != derive_key(1, 3, 2)
    assert derive_key(5) == derive_key(5)


def test_derive_key_stays_in_64_bits():
    k = derive_key(MASK, MASK, 12345)
    assert 0 <= k <= MASK


def test_fold_keys_continues_derive_key():
    q = np.arange(3)[:, None, None]
    j = np.arange(4)[None, :, None]
    i = np.arange(5)[None, None, :]
    for seed in (0, 7, MASK):
        keys = fold_keys(derive_key(seed, 0xF2), q, j, i)
        assert keys.shape == (3, 4, 5) and keys.dtype == np.uint64
        for (a, b, c), k in np.ndenumerate(keys):
            assert int(k) == derive_key(seed, 0xF2, a, b, c)


def test_uniform_at_broadcasts_keys():
    keys = fold_keys(derive_key(3), np.arange(6))
    idx = np.array([0, 5, 17, 2], dtype=np.int64)
    grid = uniform_at(keys[:, None], idx)
    assert grid.shape == (6, 4)
    for t, key in enumerate(keys):
        assert grid[t].tolist() == uniform_at(int(key), idx).tolist()


# ---------------------------------------------------------------------------
# the kernel bundle


def test_get_backend_numpy_always_available():
    assert get_backend().name == "numpy"


# ---------------------------------------------------------------------------
# the numpy move against its element-by-element definition


def _move_case(rng, trial, n=40, population=7):
    swarm = rng.integers(0, 2, size=(population, n)).astype(np.uint8)
    peers = np.sort(rng.choice(np.arange(1, population), size=4, replace=False))
    pull = rng.random(peers.size)
    keys = fold_keys(derive_key(9, trial), peers)
    return swarm, peers, pull, keys


# the "True-" ids mark per-element draws, the move's one draw scope
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 1.7, 3.0], ids="True-{}".format)
def test_move_matches_scalar_rule(lam):
    rng = np.random.default_rng(5)
    be = get_backend()
    for trial in range(20):
        swarm, peers, pull, keys = _move_case(rng, trial)
        gamma = float(rng.choice([0.0, 0.01, 0.2]))
        expected = swarm[0].copy()
        for t, i in enumerate(peers):
            r = int(np.count_nonzero(expected != swarm[i]))
            beta = float(pull[t]) * math.exp(-gamma * r)
            expected = scalar_pull(expected, swarm[i], beta, lam, int(keys[t]))
        others = np.delete(swarm, 0, axis=0)
        be.move(swarm, 0, peers, pull, gamma, lam, keys)
        assert np.array_equal(swarm[0], expected)
        assert np.array_equal(np.delete(swarm, 0, axis=0), others)
