"""Counter-based RNG and the numpy kernels.

The RNG vectors are checked against the published splitmix64 reference
sequence for seed 0.  The move kernel, and on rows of at most 63
entries the step loop of the optimizer's packed search, are checked
against the per-bit law, element by element in pure Python, on rows on
both sides of the packed search's cutoff: at keys that draw exactly one
below and at each threshold, and in frequency over many keys.  The move
and the numpy repair are checked against dense and row-by-row
references on full-scale swarms, and the numpy and packed repairs
against the row-by-row reference on small and full-scale shapes; the
packed search makes no numpy repair call.  Both repairs and the
evaluator's surcharge tables are also checked against their scalar
references in test_firefly.py and test_cache.py.  The weighted sampler
is checked against the exact law of successive sampling, subset by
subset, and at its edges.
"""

import dataclasses
import itertools
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fogcache import _kernels
from fogcache import (
    build_rate_table,
    build_social_graph,
    experiment,
    firefly,
    generate_scenario,
    run_hcg,
)
from fogcache._kernels import (
    _PACKED_MOVE_MAX,
    _chance,
    _draws,
    _golden_steps,
    _repair_packed,
    derive_key,
    fold_keys,
    get_backend,
    mix64,
    weighted_sample,
)
from fogcache.config import load_config

from conftest import (
    GOLDEN,
    assert_subsets_follow,
    flat_order,
    law_chances,
    law_step,
    packed_move,
    successive_sampling_law,
    uniform_at,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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


def test_zero_d_inputs_wrap_without_warning():
    """0-d counters and key parts wrap in uint64 as arrays do, with no
    overflow warning from numpy scalar arithmetic."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = uniform_at(5, np.int64(3))
        k = fold_keys(derive_key(7, 0xF2, 3), 3)
        assert u == uniform_at(5, np.array([3]))[0]
        assert k == fold_keys(derive_key(7, 0xF2, 3), np.array([3]))[0]
        assert int(k) == derive_key(7, 0xF2, 3, 3)


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
# the numpy move against its per-bit law, element by element


# row lengths on both sides of the packed search's cutoff, and at it
MOVE_WIDTHS = (40, 63, 64, 100)


def moves_at(n):
    """The move kernel, and on rows of at most 63 entries also the step
    loop of the packed search; the two must agree bit for bit."""
    return [get_backend().move] + ([packed_move] if n <= _PACKED_MOVE_MAX else [])


def test_move_cutoff_lies_between_the_benchmark_shapes():
    """The small config and the verify cell take the packed search, and
    full scale the move kernel, so each formulation has a workload and
    the tests check both at the edge."""
    assert MOVE_WIDTHS[1] == _PACKED_MOVE_MAX < MOVE_WIDTHS[2]
    small = load_config(str(CONFIGS / "small.yaml")).system
    full = load_config(str(CONFIGS / "full_scale.yaml")).system
    verify = experiment._scaled_down(full)
    for params in (small, verify):
        assert params.num_faps * params.num_contents <= _PACKED_MOVE_MAX
    assert 4 * 8 <= _PACKED_MOVE_MAX < full.num_faps * full.num_contents == 15000


def _move_case(rng, trial, n=40, population=7):
    """A swarm whose first peer is a copy of row 0: at lam > 1 even that
    step draws every element."""
    swarm = rng.integers(0, 2, size=(population, n)).astype(np.uint8)
    peers = np.sort(rng.choice(np.arange(1, population), size=4, replace=False))
    swarm[peers[0]] = swarm[0]
    pull = rng.random(peers.size)
    keys = fold_keys(derive_key(9, trial), peers)
    return swarm, peers, pull, keys


# the "True-" ids mark per-element draws, the move's one draw scope
@pytest.mark.parametrize("lam", [0.5, 1.0, 1.7, 3.0], ids="True-{}".format)
def test_move_matches_scalar_rule(lam):
    """Four steps of the move on random swarms equal four steps of the
    per-bit law, with the Hamming distance taken before each step.  At
    lam = 0.5, below what FaConfig admits, the unclipped thresholds fall
    outside [0, 2**53] and still decide every 53-bit draw as the clipped
    law does, so the kernels need no clip even there."""
    rng = np.random.default_rng(5)
    for trial in range(20 * len(MOVE_WIDTHS)):
        n = MOVE_WIDTHS[trial % len(MOVE_WIDTHS)]
        start, peers, pull, keys = _move_case(rng, trial, n)
        gamma = float(rng.choice([0.0, 0.01, 0.2]))
        expected = start[0].copy()
        for t, i in enumerate(peers):
            r = int(np.count_nonzero(expected != start[i]))
            beta = float(pull[t]) * math.exp(-gamma * r)
            expected = law_step(expected, start[i], beta, lam, int(keys[t]))
        others = np.delete(start, 0, axis=0)
        for move in moves_at(n):
            swarm = start.copy()
            move(swarm, 0, peers, pull, gamma, lam, keys)
            assert np.array_equal(swarm[0], expected), move
            assert np.array_equal(np.delete(swarm, 0, axis=0), others)


# ---------------------------------------------------------------------------
# the integer thresholds of the law

NEVER = 1 << 53
BETAS = [
    0.0,
    1.0,
    0.5,
    math.nextafter(0.5, 0.0),
    math.nextafter(0.5, 1.0),
    math.nextafter(1.0, 0.0),
    5e-324,
]
# the least lam FaConfig admits; the next float, where q's threshold is 1
# and the move's dense branch runs; and lam near the largest float
LAMS = [1.0, math.nextafter(1.0, 2.0), 1.7, 3.0, 1e308]


def law_threshold(beta, lam, differ=True):
    """``int(P * 2**53)`` of the law's p (a differing element) or q."""
    p, q = law_chances(beta, lam)
    return int((p if differ else q) * NEVER)


@pytest.mark.parametrize("lam", LAMS)
@pytest.mark.parametrize("beta", BETAS, ids=repr)
def test_threshold_is_exact(beta, lam):
    """The kernel's threshold is ``int(P * 2**53)`` of the law's p at
    beta and q at beta = 0, as a float and within an array, and lies
    within 4 of the exact rational chance times 2**53, which lies in
    [0, 1] unclipped."""
    half = Fraction(1, 2)
    exact = half + (Fraction(beta) - half) / Fraction(lam)
    k = int(_chance(beta, lam))
    assert k == law_threshold(beta, lam)
    assert _chance(np.array([0.0, beta]), lam).tolist() == [int(_chance(0.0, lam)), k]
    assert int(_chance(0.0, lam)) == law_threshold(beta, lam, differ=False)
    assert 0 <= k <= NEVER and abs(k - exact * NEVER) <= 4, (k, float(exact))
    if lam == math.nextafter(1.0, 2.0):
        assert int(_chance(0.0, lam)) == 1


CHANCE_BETAS = [0.0, 5e-324, 0.25, 0.5, 0.75, 1.0]


@pytest.mark.parametrize("lam", [1.0, math.nextafter(1.0, 2.0), 2.0, 4.0, 1e308], ids=repr)
def test_threshold_of_a_float_equals_its_array_path(lam):
    """A Python float takes its threshold in Python floats, an array in
    numpy; the two give the same threshold bit for bit."""
    betas = CHANCE_BETAS + np.random.default_rng(23).random(200).tolist()
    got = [_chance(beta, lam) for beta in betas]
    assert all(type(k) is int for k in got)
    assert got == _chance(np.array(betas), lam).tolist()


@pytest.mark.parametrize("n", [1, 63, 64, 15000])
def test_draws_read_cached_offsets(n):
    """The draws of n-entry rows add the cached ``(e + 1) * golden``; the
    first and last element of a row draw as the scalar mix64 says."""
    steps = _golden_steps(n)
    assert steps is _golden_steps(n) and not steps.flags.writeable
    ends = np.array([0, n - 1])
    for key in (0, 5, MASK, derive_key(3, n)):
        want = [mix64(key + (e + 1) * GOLDEN) >> 11 for e in ends.tolist()]
        assert _draws(key, n)[ends].tolist() == want
        assert _draws(key, n, ends).tolist() == want
        assert _draws(np.array([[key]], dtype=np.uint64), n, ends).tolist() == [want]


def test_move_rejects_a_non_byte_swarm():
    """The move kernel reads rows through a bool view, which only a
    one-byte swarm has: it raises instead of reading the wrong bytes,
    on rows on either side of the packed search's cutoff."""
    keys = np.array([7], dtype=np.uint64)
    for pad in (0, _PACKED_MOVE_MAX):
        swarm = np.zeros((2, 3 + pad), dtype=np.int64)
        swarm[:, :3] = [[0, 1, 0], [1, 1, 0]]
        with pytest.raises(ValueError, match="uint8"):
            get_backend().move(swarm, 0, np.array([1]), np.array([0.5]), 0.0, 1.0, keys)


def unmix64(z):
    """Inverse of :func:`mix64`: undo each xorshift and multiply in turn."""

    def unxorshift(y, shift):
        x = y
        for _ in range(64 // shift + 1):
            x = y ^ (x >> shift)
        return x

    z = unxorshift(z, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & MASK
    z = unxorshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & MASK
    return unxorshift(z, 30)


def key_drawing(k, e=0):
    """A key whose draw at element e is exactly k * 2**-53."""
    return (unmix64(k << 11) - (e + 1) * GOLDEN) & MASK


def test_unmix64_inverts_mix64():
    for z in (0, 1, MASK, GOLDEN, 0x0123456789ABCDEF):
        assert unmix64(mix64(z)) == z
    assert uniform_at(key_drawing(12345, 3), np.array([3]))[0] == 12345 * 2.0**-53


@pytest.mark.parametrize("lam", LAMS)
@pytest.mark.parametrize("beta", BETAS, ids=repr)
def test_move_decides_draws_at_the_threshold(beta, lam):
    """Keys built to draw exactly K - 1 and K at the last element of a
    row of 2, 63 or 64 entries: the element changes at K - 1 and keeps
    its value at K, K its threshold.  The element differs from the
    peer's alone, with every other element, or agrees with it.  With
    gamma > 0 and one differing element the step's beta lies inside the
    range the packed step loop compares at its ends; with every element
    differing it is the lower end."""
    for n, gamma, xj, differ in itertools.product(
        (2, _PACKED_MOVE_MAX, _PACKED_MOVE_MAX + 1), (0.0, 0.2), (0, 1),
        ("one", "all", "none"),
    ):
        e = n - 1
        r = {"one": 1, "all": n, "none": 0}[differ]
        step_beta = beta * math.exp(-gamma * r)
        k_edge = law_threshold(step_beta, lam, differ != "none")
        for k in {k_edge - 1, k_edge}:
            if not 0 <= k < NEVER:
                continue
            key = key_drawing(k, e)
            start = np.ones((2, n), dtype=np.uint8)
            start[:, : e // 2] = 0
            start[:, n - r :] = [[xj], [1 - xj]]
            start[:, e] = [xj, xj if differ == "none" else 1 - xj]
            keys = np.array([key], dtype=np.uint64)
            expected = law_step(start[0], start[1], step_beta, lam, key)
            assert expected[e] == xj ^ (k < k_edge)
            for move in moves_at(n):
                swarm = start.copy()
                move(swarm, 0, np.array([1]), np.array([beta]), gamma, lam, keys)
                assert swarm[0].tolist() == expected.tolist(), (
                    move, n, gamma, differ, xj, k, k_edge)


@pytest.mark.parametrize("lam", [1.0, 2.0, 3.0])
def test_move_follows_the_law_in_frequency(lam):
    """On rows on either side of the packed search's cutoff, each by
    every move that takes it, over 400 keys and half the elements
    differing from the peer's, the share of differing elements that
    take the peer's value is within 5 binomial standard deviations (plus
    1e-3) of p, and the share of agreeing elements that flip is within
    as much of q."""
    count = 400
    for n, beta in itertools.product((40, 100), (0.2, 0.5, 0.8)):
        start = np.zeros((2, n), dtype=np.uint8)
        start[1, ::2] = 1  # even elements differ, odd ones agree
        for move in moves_at(n):
            took = flipped = 0
            for key in fold_keys(derive_key(13, n), np.arange(count)).tolist():
                swarm = start.copy()
                keys = np.array([key], dtype=np.uint64)
                move(swarm, 0, np.array([1]), np.array([beta]), 0.0, lam, keys)
                took += int(swarm[0, ::2].sum())
                flipped += int(swarm[0, 1::2].sum())
            for seen, chance in zip((took, flipped), law_chances(beta, lam)):
                trials = count * n // 2
                bound = 5.0 * math.sqrt(chance * (1.0 - chance) / trials) + 1e-3
                assert abs(seen / trials - chance) <= bound, (move, n, beta, lam, seen, chance)


# ---------------------------------------------------------------------------
# both kernels against dense references, on full-size swarms


def reference_move(swarm, j, peers, pull, gamma, lam, keys):
    """The move as a float pipeline over whole rows, every step drawn up
    front: element e changes iff its uniform draw lies below its chance,
    p or q, rounded down to a multiple of 2**-53."""
    x = swarm[j]
    draws = uniform_at(keys[:, None], np.arange(x.size))
    for t, i in enumerate(peers):
        d = x != swarm[i]
        beta = pull[t] * math.exp(-gamma * np.count_nonzero(d))
        p, q = law_chances(beta, lam)
        chance = np.floor(np.where(d, p, q) * 2.0**53) * 2.0**-53
        x ^= draws[t] < chance


def reference_repair(x, flat, slots):
    """The repair kernel row by row in Python lists: row m caches the
    first ``slots`` of its cached entries in the order ``flat[m]``,
    followed by its uncached ones in that order."""
    xf = x.reshape(-1)
    for row in flat.tolist():
        held = xf[row].tolist()
        keep = [e for e, h in zip(row, held) if h] + [e for e, h in zip(row, held) if not h]
        xf[row] = 0
        xf[keep[:slots]] = 1


@pytest.fixture(scope="module")
def full_scale_case():
    spec = load_config(str(CONFIGS / "full_scale.yaml"))
    scn = generate_scenario(spec.system, seed=0)
    rates = build_rate_table(scn)
    part = run_hcg(build_social_graph(scn, rates), spec.hcg).partition
    return spec, scn, rates, part


@pytest.mark.parametrize("lam", [1.0, 2.0])
def test_kernels_match_float_references_at_full_scale(monkeypatch, full_scale_case, lam):
    """Every move and repair of a full-scale run equals its reference."""
    spec, scn, rates, part = full_scale_case
    real = get_backend()
    flipped = []

    def checked_move(swarm, j, *args):
        expected = swarm.copy()
        reference_move(expected, j, *args)
        before = swarm[j].copy()
        real.move(swarm, j, *args)
        assert np.array_equal(swarm, expected)
        flipped.append(int(np.count_nonzero(swarm[j] != before)))

    def checked_repair(x, flat, slots):
        expected = x.copy()
        reference_repair(expected, flat, slots)
        real.repair(x, flat, slots)
        assert np.array_equal(x, expected)

    monkeypatch.setattr(
        firefly, "get_backend",
        lambda: dataclasses.replace(real, move=checked_move, repair=checked_repair),
    )
    cfg = dataclasses.replace(spec.fa, population=20, lambda_rand=lam, max_iters=4, seed=5)
    firefly.run_fa(scn, rates, part, cfg)
    assert len(flipped) >= 4 * 10
    assert sum(flipped) > 1000


@pytest.mark.parametrize("form", ["packed", "matrix"])
def test_each_search_form_repairs_in_its_own_representation(monkeypatch, form):
    """On configs/small.yaml the packed search calls no numpy kernel, and
    the matrix search (cutoff at 0) makes one repair call per move call:
    neither repairs the initial swarm, which the sampler draws full."""
    spec = load_config(str(CONFIGS / "small.yaml"))
    scn = generate_scenario(spec.system, seed=0)
    rates = build_rate_table(scn)
    part = run_hcg(build_social_graph(scn, rates), spec.hcg).partition
    real = get_backend()
    calls = {"move": 0, "repair": 0}

    def counted(name):
        def kernel(*args):
            calls[name] += 1
            return getattr(real, name)(*args)
        return kernel

    monkeypatch.setattr(
        firefly, "get_backend",
        lambda: dataclasses.replace(real, move=counted("move"), repair=counted("repair")),
    )
    if form == "matrix":
        monkeypatch.setattr(firefly, "_PACKED_MOVE_MAX", 0)
    firefly.run_fa(scn, rates, part, spec.fa)
    if form == "packed":
        assert calls == {"move": 0, "repair": 0}
    else:
        assert calls["repair"] == calls["move"] > 0


@pytest.mark.parametrize(
    "shape, slots",
    [((3, 6), 0), ((3, 6), 2), ((3, 6), 6), ((15, 200), 20), ((15, 300), 30),
     ((15, 1000), 0), ((15, 1000), 1), ((15, 1000), 100), ((15, 1000), 999),
     ((15, 1000), 1000)],
    ids=str,
)
def test_repair_matches_reference_on_both_formulations(shape, slots):
    """Empty, full, sparse and dense placements, small and full-scale,
    through the numpy repair and, row by row, the packed one."""
    rng = np.random.default_rng(slots)
    prio = np.argsort(-rng.random(shape), axis=1, kind="stable")
    flat = flat_order(prio)
    orders = [[1 << f for f in p] for p in prio.tolist()]

    def pack(row):
        return sum(1 << f for f, b in enumerate(row) if b)

    for density in (0.0, 0.02, 0.1, 0.5, 0.98, 1.0):
        x = (rng.random(shape) < density).astype(np.uint8)
        expected = x.copy()
        reference_repair(expected, flat, slots)
        packed = [_repair_packed(pack(row), order, slots)
                  for row, order in zip(x.tolist(), orders)]
        get_backend().repair(x, flat, slots)
        assert np.array_equal(x, expected), density
        assert (x.sum(axis=1) == slots).all()
        assert packed == [pack(row) for row in x.tolist()]


# ---------------------------------------------------------------------------
# the weighted sampler


LAW_CASES = {
    "heavy-head": ([0.9, 0.04, 0.03, 0.02, 0.01, 0.0], 4),
    "zipf-like": ([0.5, 0.3, 0.1, 0.05, 0.03, 0.02], 2),
    "two-zeros": ([0.3, 0.3, 0.2, 0.1, 0.1, 0.0], 3),
    "unnormalized": ([2.0, 1.0, 1.0, 4.0], 3),
    "uniform": ([1.0] * 5, 2),
    "one-of-six": ([0.05, 0.1, 0.15, 0.2, 0.25, 0.25], 1),
}


@pytest.mark.parametrize("case", LAW_CASES)
def test_weighted_sample_follows_successive_sampling(case):
    """Over 24 000 keys, each k-subset turns up as often as the exact
    law of drawing one content at a time by its share of the weight
    left says, and no other subset turns up."""
    w, k = LAW_CASES[case]
    picks = weighted_sample(w, k, derive_key(7, len(w), k), np.arange(24_000))
    assert picks.shape == (24_000, len(w))
    assert (picks.sum(axis=1) == k).all()
    assert_subsets_follow(picks, successive_sampling_law(w, k))


def test_weighted_sample_binds_each_row_to_its_key():
    """Row (j, m) of a broadcast call draws what a one-row call under
    derive_key(seed, tag, j, m) draws, whatever the rows around it."""
    w = np.random.default_rng(3).random((4, 50))
    key = derive_key(11, 0xF1)
    picks = weighted_sample(w, 7, key, np.arange(5)[:, None], np.arange(4))
    assert picks.shape == (5, 4, 50)
    for j, m in itertools.product(range(5), range(4)):
        row = weighted_sample(w[m], 7, derive_key(11, 0xF1, j, m))
        assert np.array_equal(picks[j, m], row)


@pytest.mark.parametrize("k", [0, 6])
def test_weighted_sample_at_no_and_every_content(k):
    """k = 0 picks nothing and k = F everything, zero weights included."""
    w = [[0.5, 0.0, 0.2, 0.3, 0.0, 0.0], [0.0] * 6]
    picks = weighted_sample(w, k, 3, np.arange(4)[:, None], np.arange(2))
    assert picks.shape == (4, 2, 6)
    assert (picks == bool(k)).all()


def test_weighted_sample_fills_zero_weights_last_lowest_id_first():
    """With fewer positive weights than picks, every positive weight is
    picked, and the zeros fill up from the lowest content id."""
    picks = weighted_sample([0.0, 0.5, 0.0, 0.5, 0.0, 0.0], 4, 9, np.arange(500))
    assert (picks == [True, True, True, True, False, False]).all()
    picks = weighted_sample([0.0] * 5, 2, 9, np.arange(50))
    assert (picks == [True, True, False, False, False]).all()


def test_weighted_sample_breaks_ties_toward_the_lower_id(monkeypatch):
    """With every draw equal, the key of a content is set by its weight
    alone; the tie at the k-th key goes to the lower content id."""
    monkeypatch.setattr(_kernels, "_draws",
                        lambda keys, n: np.zeros(np.shape(keys)[:-1] + (n,), np.int64))
    assert weighted_sample([1.0, 2.0, 2.0, 1.0], 3, 0).tolist() == [True, True, True, False]
    assert weighted_sample([1.0] * 4, 2, 0).tolist() == [True, True, False, False]


def test_weighted_sample_at_a_subnormal_weight_warns_nothing():
    """The textbook key log(u) / w overflows at w = 5e-324; the sampler
    ranks by log(-log u) - log w, which does not, and still takes a
    subnormal weight before a zero one."""
    w = np.array([5e-324, 1.0, 1.0, 1.0])
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        np.log(np.full(1, 0.5)) / w[:1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        picks = weighted_sample(w, 3, 4, np.arange(2000))
        assert (picks == [False, True, True, True]).all()
        picks = weighted_sample([0.0, 5e-324, 1.0], 2, 4, np.arange(2000))
        assert (picks == [False, True, True]).all()


@pytest.mark.parametrize("w, k, message", [
    ([0.5, 0.5], 3, "cannot pick 3 of 2"),
    ([0.5, 0.5], -1, "cannot pick -1 of 2"),
    ([0.5, -0.5], 1, "non-negative"),
    ([0.5, np.nan], 1, "non-negative"),
], ids=["k-above-F", "negative-k", "negative-weight", "nan-weight"])
def test_weighted_sample_rejects_bad_input(w, k, message):
    with pytest.raises(ValueError, match=message):
        weighted_sample(w, k, 0)
