"""Swarm optimizer: brightness, moves, repair, and full runs."""

import dataclasses
import itertools
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from fogcache import firefly
from fogcache import (
    FaConfig,
    Partition,
    PlacementEvaluator,
    brightness_normalize,
    build_rate_table,
    build_social_graph,
    capacity_slots,
    feasible,
    generate_scenario,
    load_config,
    run_fa,
    run_hcg,
)
from fogcache._kernels import (
    _PACKED_MOVE_MAX,
    _repair_packed,
    _chance,
    derive_key,
    get_backend,
    mix64,
    weighted_sample,
)

from conftest import (
    GOLDEN,
    assert_subsets_follow,
    flat_order,
    law_step,
    make_params,
    make_rates,
    make_scenario,
    packed_move,
    successive_sampling_law,
)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# ---------------------------------------------------------------------------
# scalar references of the vectorized kernels


def attractiveness(intensity: float, distance: float, gamma: float) -> float:
    """Pull exerted by a firefly of given brightness at a given distance."""
    return intensity * math.exp(-gamma * distance)


def repair(row, local_pop, slots):
    """Return a copy of one cache row trimmed or topped up to ``slots``.

    Priority is local popularity, ties broken toward the lower content
    id.  Over budget, only the ``slots`` highest-priority cached
    contents survive; under budget, the highest priority uncached
    contents are added until the cache is full.
    """
    if row.shape != local_pop.shape:
        raise ValueError("row and popularity must share a shape")
    prio = np.argsort(-local_pop, kind="stable")
    out = row.astype(np.uint8).copy()
    kept = 0
    for f in prio:
        if out[f]:
            if kept < slots:
                kept += 1
            else:
                out[f] = 0
    for f in prio:
        if kept >= slots:
            break
        if not out[f]:
            out[f] = 1
            kept += 1
    return out


# ---------------------------------------------------------------------------
# brightness and attraction


def test_brightness_constant_swarm_is_dark():
    assert brightness_normalize(np.array([5.0, 5.0, 5.0])).tolist() == [0, 0, 0]


def test_brightness_two_point():
    b = brightness_normalize(np.array([1.0, 3.0]))
    assert b[0] == pytest.approx(1.0, rel=1e-9)
    assert b[1] == 0.0


def test_brightness_affine_map():
    b = brightness_normalize(np.array([2.0, 4.0, 6.0]))
    assert b[0] == pytest.approx(1.0, rel=1e-9)
    assert b[1] == pytest.approx(0.5, rel=1e-9)
    assert b[2] == 0.0


def test_attractiveness_limits():
    assert attractiveness(0.8, 1234.0, 0.0) == 0.8
    assert attractiveness(0.8, 0.0, 0.05) == 0.8
    assert attractiveness(0.5, 100.0, 0.001) == pytest.approx(
        0.45241870901797976, rel=1e-15
    )
    # decreasing in distance
    assert attractiveness(1.0, 10.0, 0.1) > attractiveness(1.0, 20.0, 0.1)


# ---------------------------------------------------------------------------
# the move rule, on the move kernel with one peer and no distance decay


def pull_once(xj, xi, beta, lam, key=7):
    """Move firefly 0 toward firefly 1 with attraction ``beta``.

    The move kernel and the packed search's step loop each move it; both
    results are checked against the per-bit law,
    :func:`conftest.law_step`, and the law's row is returned.
    """
    keys = np.array([key], dtype=np.uint64)
    start = np.stack([xj, xi]).astype(np.uint8)
    expected = law_step(start[0], start[1], beta, lam, key)
    for move in (get_backend().move, packed_move):
        swarm = start.copy()
        move(swarm, 0, np.array([1]), np.array([beta]), 0.0, lam, keys)
        assert np.array_equal(swarm[1], start[1])
        assert np.array_equal(swarm[0], expected), move
    return expected


def test_move_keeps_shared_ones_without_noise():
    xj = np.ones(6, dtype=np.uint8)
    out = pull_once(xj, xj.copy(), beta=0.9, lam=1.0)
    assert out.tolist() == xj.tolist()


def test_move_threshold_on_beta():
    """At lam = 1, the least lam FaConfig admits, the law's p is beta: an
    element that differs from its peer takes the peer's value iff its
    draw d is below ``int(beta * 2**53)``, a 0 and a 1 alike.  At beta =
    d / 2**53 the threshold is d and the element stays; at the next
    multiple of 2**-53 it takes."""
    for key in (7, 11, 2024):
        d = mix64(key + GOLDEN) >> 11
        for xj in (0, 1):
            a = np.array([xj], dtype=np.uint8)
            for k, takes in ((0, False), (d, False), (d + 1, True), (1 << 53, True)):
                beta = k / 2**53
                assert _chance(beta, 1.0) == k
                assert pull_once(a, 1 - a, beta, 1.0, key)[0] == (1 - xj if takes else xj)


def test_move_identity_when_inert():
    rng = np.random.default_rng(3)
    xj = rng.integers(0, 2, size=36).astype(np.uint8)
    xi = rng.integers(0, 2, size=36).astype(np.uint8)
    assert np.array_equal(pull_once(xj, xi, beta=0.0, lam=1.0), xj)


def test_move_copies_fully_at_max_attraction():
    rng = np.random.default_rng(4)
    xj = rng.integers(0, 2, size=15).astype(np.uint8)
    xi = rng.integers(0, 2, size=15).astype(np.uint8)
    assert np.array_equal(pull_once(xj, xi, beta=1.0, lam=1.0), xi)


def test_move_is_deterministic_given_state():
    xj = np.zeros(16, dtype=np.uint8)
    xi = np.ones(16, dtype=np.uint8)
    a = pull_once(xj, xi, 0.4, 1.5, key=42)
    b = pull_once(xj, xi, 0.4, 1.5, key=42)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# repair


def test_repair_noop_at_capacity():
    row = np.array([1, 0, 1, 0], dtype=np.uint8)
    pop = np.array([0.4, 0.3, 0.2, 0.1])
    assert np.array_equal(repair(row, pop, 2), row)


def test_repair_evicts_least_popular():
    # cached {0,1,2} with pop .5 > .3 > .2, two slots -> {0,1}
    row = np.array([1, 1, 1, 0], dtype=np.uint8)
    pop = np.array([0.5, 0.3, 0.2, 0.0])
    assert repair(row, pop, 2).tolist() == [1, 1, 0, 0]


def test_repair_fills_by_popularity():
    # nothing cached, ranking c > a > b -> {c, a}
    row = np.array([0, 0, 0], dtype=np.uint8)
    pop = np.array([0.3, 0.1, 0.6])  # a=0, b=1, c=2
    assert repair(row, pop, 2).tolist() == [1, 0, 1]


def test_repair_tie_breaks_toward_low_index():
    row = np.array([0, 0, 0, 0], dtype=np.uint8)
    pop = np.array([0.25, 0.25, 0.25, 0.25])
    assert repair(row, pop, 2).tolist() == [1, 1, 0, 0]


def test_repair_is_idempotent():
    rng = np.random.default_rng(9)
    for _ in range(20):
        row = rng.integers(0, 2, size=12).astype(np.uint8)
        pop = rng.random(12)
        once = repair(row, pop, 4)
        assert np.array_equal(repair(once, pop, 4), once)
        assert once.sum() == 4


def test_repair_agrees_with_batch_kernel():
    """Budgets of 0, 3 and 10 of 12 contents on empty, full and random
    rows."""
    be = get_backend()
    rng = np.random.default_rng(21)
    rows = rng.integers(0, 2, size=(6, 12)).astype(np.uint8)
    rows[0] = 0  # an empty row
    rows[1] = 1  # a full row
    pop = rng.random((6, 12))
    pop[2, :6] = pop[2, 6:]  # tied popularity
    flat = flat_order(np.argsort(-pop, axis=1, kind="stable"))
    for slots in (0, 3, 10):
        batch = rows.copy()
        be.repair(batch, flat, slots)
        for m in range(6):
            expected = repair(rows[m], pop[m], slots)
            assert np.array_equal(batch[m], expected), (slots, m)


@pytest.mark.parametrize("n", range(1, 9))
def test_packed_repair_agrees_with_scalar_repair_on_every_row(n):
    """Every row code of n contents at every budget, under distinct,
    tied and all-zero (idle F-AP) popularity."""
    rng = np.random.default_rng(n)
    pops = [rng.random(n), rng.integers(0, 3, size=n) / 3.0, np.zeros(n)]
    for pop in pops:
        order = [1 << f for f in np.argsort(-pop, kind="stable").tolist()]
        for slots in range(n + 1):
            for code in range(1 << n):
                row = np.array([(code >> f) & 1 for f in range(n)], dtype=np.uint8)
                expected = repair(row, pop, slots)
                got = _repair_packed(code, order, slots)
                assert got == sum(1 << f for f in np.flatnonzero(expected).tolist()), (
                    pop, slots, code)


def test_repair_kernel_rejects_non_contiguous_rows():
    """The kernel writes through a flat view, which a strided placement
    does not have: it raises instead of losing the writes."""
    x = np.zeros((4, 6), dtype=np.uint8, order="F")
    flat = flat_order(np.tile(np.arange(6), (4, 1)))
    with pytest.raises(ValueError, match="C-contiguous"):
        get_backend().repair(x, flat, 2)


# ---------------------------------------------------------------------------
# the initial swarm: the law of one rng.choice per row, from the
# counter-based sampler


def reference_initial_swarm(scenario, slots, count, seed):
    """The initial swarm by ``Generator.choice``: firefly by firefly, row
    m draws ``slots`` contents without replacement with the weights of
    row m of the popularity, uniform for an F-AP with no users.  The
    sampler draws from the same law, with other bits."""
    params = scenario.params
    pop_rows = scenario.popularity
    rng = np.random.default_rng(seed)
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
    return np.stack(swarm)


def weights_only(popularity):
    """What the initial swarm reads of a scenario, for a weight matrix."""
    popularity = np.asarray(popularity, dtype=float)
    params = SimpleNamespace(num_faps=popularity.shape[0],
                             num_contents=popularity.shape[1])
    return SimpleNamespace(params=params, popularity=popularity)


def assert_initial_swarm_is_reference(scenario, slots, count, seed):
    """Where the weights force every row's draw, the swarm is the
    reference's, bit for bit."""
    got = firefly._initial_swarm(scenario, slots, count, seed)
    want = reference_initial_swarm(scenario, slots, count, seed)
    assert got.dtype == np.uint8 and got.shape == want.shape
    assert np.array_equal(got, want)
    assert (got.sum(axis=2) == slots).all()


def assert_rows_follow(swarm, weights, slots):
    """Each row of the fireflies of ``swarm``, as a subset, follows the
    exact law of drawing ``slots`` contents by ``weights[m]``."""
    for m, w in enumerate(weights):
        law = successive_sampling_law(w if sum(w) > 0 else [1.0] * len(w), slots)
        assert_subsets_follow(swarm[:, m].astype(bool), law)


@pytest.mark.parametrize("name, seed", [("small", s) for s in range(5)]
                         + [("full_scale", s) for s in range(3)])
def test_initial_swarm_equals_rng_choice_on_the_configs(name, seed):
    """In law: every (F-AP, content) is cached by as large a share of the
    swarm as of the reference's fireflies, within 6 standard deviations
    of the difference of the two binomial shares."""
    cfg = load_config(str(CONFIGS / f"{name}.yaml"))
    scn = generate_scenario(cfg.system, seed)
    slots = capacity_slots(cfg.system)
    assert 0 < slots < cfg.system.num_contents
    count = 200 if name == "full_scale" else 1000
    swarm = firefly._initial_swarm(scn, slots, count, seed)
    assert swarm.dtype == np.uint8
    assert (swarm.sum(axis=2) == slots).all()
    got = swarm.mean(axis=0)
    want = reference_initial_swarm(scn, slots, count, seed).mean(axis=0)
    pooled = (got + want) / 2
    assert (np.abs(got - want) <= 6 * np.sqrt(pooled * (1 - pooled) * 2 / count)).all()


def test_initial_swarm_equals_rng_choice_for_an_idle_fap():
    """In law: an F-AP with no users draws from the uniform row, the
    others by their weights.  Over 20 000 fireflies each row's subsets
    follow the exact law, as the reference's do over 4000."""
    w = [[0.5, 0.3, 0.2, 0.0, 0.0, 0.0], [0.0] * 6, [0.1, 0.1, 0.2, 0.2, 0.3, 0.1]]
    assert_rows_follow(firefly._initial_swarm(weights_only(w), 2, 20_000, 0), w, 2)
    assert_rows_follow(reference_initial_swarm(weights_only(w), 2, 4000, 0), w, 2)


@pytest.mark.parametrize("slots", [0, 6], ids=["slots-0", "slots-F"])
def test_initial_swarm_equals_rng_choice_at_the_slot_ends(slots):
    w = [[0.5, 0.3, 0.1, 0.05, 0.03, 0.02], [1 / 6] * 6]
    for seed in range(3):
        assert_initial_swarm_is_reference(weights_only(w), slots, 5, seed)


def test_initial_swarm_equals_rng_choice_with_exactly_slots_positive_weights():
    w = [[0.0, 0.7, 0.0, 0.2, 0.1, 0.0], [0.25, 0.0, 0.25, 0.0, 0.5, 0.0]]
    for seed in range(5):
        got = firefly._initial_swarm(weights_only(w), 3, 6, seed)
        assert (got[:, 0] == [0, 1, 0, 1, 1, 0]).all()
        assert (got[:, 1] == [1, 0, 1, 0, 1, 0]).all()
    for seed in range(5):
        assert_initial_swarm_is_reference(weights_only(w), 3, 6, seed)


HEAVY_HEAD = [[0.9, 0.04, 0.03, 0.02, 0.01, 0.0]]


def test_initial_swarm_equals_rng_choice_over_several_rounds():
    """In law, on a heavy head, which ``rng.choice`` draws in several
    rounds, as most uniforms of a round land on content 0: over 20 000
    fireflies the subsets follow the exact law, as the reference's do
    over 4000."""
    assert_rows_follow(firefly._initial_swarm(weights_only(HEAVY_HEAD), 4, 20_000, 4),
                       HEAVY_HEAD, 4)
    assert_rows_follow(reference_initial_swarm(weights_only(HEAVY_HEAD), 4, 4000, 4),
                       HEAVY_HEAD, 4)


def test_initial_swarm_fills_rows_of_few_positive_weights_with_the_lowest_zeros():
    """A row with fewer positive weights than slots caches every content
    of positive weight, then the zero-weight contents of lowest id; one
    ``rng.choice`` per row refuses such a row."""
    w = [[0.0, 0.7, 0.0, 0.3, 0.0, 0.0], [0.0] * 6]
    got = firefly._initial_swarm(weights_only(w), 4, 5, 0)
    assert (got[:, 0] == [1, 1, 1, 1, 0, 0]).all()
    assert (got.sum(axis=2) == 4).all()
    with pytest.raises(ValueError, match="non-zero"):
        reference_initial_swarm(weights_only(w), 4, 5, 0)


def test_initial_swarm_rows_draw_under_their_own_keys():
    """Row m of firefly j is the sampler's draw under
    derive_key(seed, 0xF1, j, m), with the uniform row for an F-AP with
    no users."""
    w = np.array([[0.5, 0.3, 0.2, 0.0, 0.0, 0.0], [0.0] * 6, [0.1, 0.1, 0.2, 0.2, 0.3, 0.1]])
    got = firefly._initial_swarm(weights_only(w), 2, 7, 13)
    for j, m in itertools.product(range(7), range(3)):
        row = w[m] if w[m].sum() > 0 else np.ones(6)
        key = derive_key(13, firefly._STREAM_INIT, j, m)
        assert got[j, m].tolist() == weighted_sample(row, 2, key).tolist()


@pytest.mark.parametrize("name", ["small", "full_scale"])
def test_initial_swarm_of_5_is_the_head_of_a_swarm_of_30(name):
    cfg = load_config(str(CONFIGS / f"{name}.yaml"))
    scn = generate_scenario(cfg.system, 2)
    slots = capacity_slots(cfg.system)
    head = firefly._initial_swarm(scn, slots, 30, 2)[:5]
    assert np.array_equal(head, firefly._initial_swarm(scn, slots, 5, 2))


@pytest.mark.parametrize("block", [1, 40])
def test_initial_swarm_is_the_same_in_any_block_size(monkeypatch, block):
    """One firefly a call (block 1), two (block 40), or the whole swarm
    (the default, on the small config) draw the same swarm."""
    cfg = load_config(str(CONFIGS / "small.yaml"))
    scn = generate_scenario(cfg.system, 1)
    slots = capacity_slots(cfg.system)
    whole = firefly._initial_swarm(scn, slots, 25, 1)
    monkeypatch.setattr(firefly, "_SAMPLE_BLOCK", block)
    assert np.array_equal(firefly._initial_swarm(scn, slots, 25, 1), whole)


# ---------------------------------------------------------------------------
# full runs


def one_fap_instance(demand_row, capacity=1.0e6):
    params = make_params(
        num_faps=1,
        num_users=1,
        num_contents=len(demand_row),
        capacity=capacity,
    )
    scn = make_scenario(
        params, fap_pos=[[0.0, 0.0]], user_pos=[[50.0, 0.0]], demand=[demand_row]
    )
    rates = make_rates(access=[[1.0e6]], coop=[[0.0]])
    return scn, rates


def test_run_fa_finds_single_slot_optimum():
    scn, rates = one_fap_instance([0.6, 0.3, 0.1])
    part = Partition.singletons(1)
    cfg = FaConfig(population=6, max_iters=15, lambda_rand=2.0, seed=0)
    res = run_fa(scn, rates, part, cfg)
    assert res.best_matrix.tolist() == [[1, 0, 0]]
    # brute force over the three single-slot placements agrees
    ev = PlacementEvaluator(scn, rates, part)
    objs = []
    for f in range(3):
        x = np.zeros((1, 3), dtype=np.uint8)
        x[0, f] = 1
        objs.append(ev.evaluate(x).objective)
    assert res.best_eval.objective == pytest.approx(min(objs), rel=1e-12)


def test_run_fa_degenerate_swarm_stays_put():
    # two contents, two slots: the sampler fills every firefly to all-ones,
    # so the swarm is uniform from the start and nothing can move; the
    # run still takes every iteration of its budget
    scn, rates = one_fap_instance([0.7, 0.3], capacity=2.0e6)
    part = Partition.singletons(1)
    cfg = FaConfig(population=4, max_iters=5, seed=1)
    res = run_fa(scn, rates, part, cfg)
    assert res.best_matrix.tolist() == [[1, 1]]
    assert all(x.tolist() == [[1, 1]] for x in res.population)
    assert res.iterations == 5
    objs = [h[0] for h in res.history]
    assert objs == [objs[0]] * (res.iterations + 1)


def test_run_fa_history_is_non_increasing(small_instance):
    scn, rates = small_instance
    part = Partition.from_labels([0, 0, 1])
    cfg = FaConfig(population=10, max_iters=25, lambda_rand=2.0, seed=3)
    res = run_fa(scn, rates, part, cfg)
    objs = [h[0] for h in res.history]
    assert all(b <= a for a, b in zip(objs, objs[1:]))
    assert res.best_eval.objective == objs[-1]
    mu = scn.params.weight
    blend = mu * res.best_eval.delay + (1 - mu) * res.best_eval.energy
    assert res.best_eval.objective == pytest.approx(blend, rel=1e-12)


def test_run_fa_population_is_feasible(small_instance):
    scn, rates = small_instance
    part = Partition.singletons(3)
    res = run_fa(scn, rates, part, FaConfig(population=8, max_iters=10, seed=2))
    assert feasible(res.best_matrix, scn.params)
    assert all(feasible(x, scn.params) for x in res.population)


def test_run_fa_deterministic_per_seed(small_instance):
    scn, rates = small_instance
    part = Partition.from_labels([0, 1, 1])
    cfg = FaConfig(population=6, max_iters=8, lambda_rand=2.0, seed=11)
    a = run_fa(scn, rates, part, cfg)
    b = run_fa(scn, rates, part, cfg)
    assert np.array_equal(a.best_matrix, b.best_matrix)
    assert a.history == b.history
    c = run_fa(scn, rates, part, FaConfig(
        population=6, max_iters=8, lambda_rand=2.0, seed=12
    ))
    assert a.history != c.history


# the "element-" ids name the one draw scope: each element draws its own noise
@pytest.mark.parametrize("lam", [1.0, 2.0], ids="element-{}".format)
def test_run_fa_draws_follow_the_counter_stream(monkeypatch, small_instance, lam):
    """Each pairwise step of iteration q, firefly j and peer i uses key
    derive_key(seed, 0xF2, q, j, i) and follows the per-bit law with the
    draws of that key.

    Checked where the packed search moves a block of fireflies: each one
    in turn is pulled by every brighter firefly, then repaired, and the
    swarm after the block must equal that.
    """
    scn, rates = small_instance
    part = Partition.from_labels([0, 0, 1])
    cfg = FaConfig(population=10, max_iters=6, lambda_rand=lam, seed=17)
    slots = capacity_slots(scn.params)
    real = firefly._PackedSwarm.move
    fold = firefly.fold_keys
    iteration = [-1]
    steps = []

    def counting_fold(*args):
        iteration[0] += 1  # called once per iteration
        return fold(*args)

    def checked_move(swarm, block, brighter, intensity, keys):
        q = iteration[0]
        rows = [swarm.placement(swarm.snapshot(j)) for j in range(cfg.population)]
        for t, j in enumerate(block.tolist()):
            peers = np.flatnonzero(intensity > intensity[j])
            assert np.flatnonzero(brighter[t]).tolist() == peers.tolist()
            expected = rows[j].reshape(-1)
            for i in peers.tolist():
                key = derive_key(cfg.seed, 0xF2, q, j, i)
                assert int(keys[j, i]) == key
                xi = rows[i].reshape(-1)
                r = int(np.count_nonzero(expected != xi))
                beta = attractiveness(float(intensity[i]), float(r), cfg.gamma)
                expected = law_step(expected, xi, beta, lam, key)
                steps.append((q, j, i))
            rows[j] = np.stack([
                repair(row, scn.popularity[m], slots)
                for m, row in enumerate(expected.reshape(rows[j].shape))
            ])
        real(swarm, block, brighter, intensity, keys)
        for j, x in enumerate(rows):
            assert np.array_equal(swarm.placement(swarm.snapshot(j)), x)

    monkeypatch.setattr(firefly, "fold_keys", counting_fold)
    monkeypatch.setattr(firefly._PackedSwarm, "move", checked_move)
    res = run_fa(scn, rates, part, cfg)
    assert iteration[0] == res.iterations - 1
    # the swarm settles within a few iterations at lam = 1, but the keys
    # of at least two iterations are checked everywhere
    assert len({q for q, _, _ in steps}) >= 2
    assert len(steps) == len(set(steps)) > 10


# ---------------------------------------------------------------------------
# the packed search of short placements against the matrix search

SMALL = load_config(str(CONFIGS / "small.yaml"))


def run_fa_both_ways(monkeypatch, scn, rates, part, cfg):
    """Run ``cfg`` on the packed search, then again with the size cutoff
    at 0 so that the matrix search runs; both must return the same."""
    shape = (scn.params.num_faps, scn.params.num_contents)
    assert shape[0] * shape[1] <= _PACKED_MOVE_MAX
    runs = [run_fa(scn, rates, part, cfg)]
    with monkeypatch.context() as m:
        m.setattr(firefly, "_PACKED_MOVE_MAX", 0)
        runs.append(run_fa(scn, rates, part, cfg))
    packed, matrix = runs
    for res in runs:
        for x in [res.best_matrix, *res.population]:
            assert x.dtype == np.uint8 and x.shape == shape
    assert np.array_equal(packed.best_matrix, matrix.best_matrix)
    assert packed.best_eval == matrix.best_eval
    assert packed.history == matrix.history
    assert len(packed.population) == len(matrix.population) == cfg.population
    for a, b in zip(packed.population, matrix.population):
        assert np.array_equal(a, b)
    return packed


@pytest.mark.parametrize("lam", [1.0, 2.0])
@pytest.mark.parametrize("seed", range(5))
def test_packed_search_equals_matrix_search_on_small_config(monkeypatch, seed, lam):
    scn = generate_scenario(SMALL.system, seed)
    rates = build_rate_table(scn)
    part = run_hcg(build_social_graph(scn, rates), SMALL.hcg).partition
    cfg = dataclasses.replace(SMALL.fa, lambda_rand=lam, seed=seed)
    run_fa_both_ways(monkeypatch, scn, rates, part, cfg)


@pytest.mark.parametrize(
    "faps, contents, slots",
    [(3, 6, 0), (3, 6, 6), (1, 63, 20), (63, 1, 1)],
    ids=["slots-0", "slots-F", "M1-F63", "M63-F1"],
)
def test_packed_search_equals_matrix_search_at_the_edges(monkeypatch, faps, contents, slots):
    params = dataclasses.replace(
        SMALL.system, num_faps=faps, num_users=2 * faps + 3,
        num_contents=contents, capacity=slots * SMALL.system.content_size,
    )
    scn = generate_scenario(params, seed=4)
    assert capacity_slots(params) == slots
    cfg = FaConfig(population=8, max_iters=30, lambda_rand=2.0, seed=4)
    res = run_fa_both_ways(monkeypatch, scn, build_rate_table(scn),
                           Partition.singletons(faps), cfg)
    assert (res.best_matrix.sum(axis=1) == slots).all()


def test_packed_search_equals_matrix_search_with_an_idle_fap(monkeypatch):
    """F-AP 2 has no local user, so its repair falls back to the lowest
    content ids."""
    rng = np.random.default_rng(8)
    params = make_params(num_faps=3, num_users=5, num_contents=6, capacity=2.0e6)
    scn = make_scenario(
        params,
        fap_pos=[[0.0, 0.0], [500.0, 0.0], [900.0, 900.0]],
        user_pos=[[10.0, 0.0], [30.0, 20.0], [480.0, 0.0], [520.0, 10.0], [60.0, 0.0]],
        demand=rng.dirichlet(np.ones(6), size=5),
    )
    assert not (scn.local_fap == 2).any()
    cfg = FaConfig(population=8, max_iters=30, lambda_rand=2.0, seed=2)
    run_fa_both_ways(monkeypatch, scn, build_rate_table(scn),
                     Partition.from_labels([0, 0, 1]), cfg)


@pytest.mark.parametrize("contents", [63, 64])
def test_packed_search_takes_placements_of_at_most_63_entries(monkeypatch, contents):
    params = dataclasses.replace(SMALL.system, num_faps=1, num_users=4,
                                 num_contents=contents)
    scn = generate_scenario(params, seed=1)
    made = []
    for name in ("_PackedSwarm", "_MatrixSwarm"):
        cls = getattr(firefly, name)
        monkeypatch.setattr(firefly, name,
                            lambda *a, name=name, cls=cls: made.append(name) or cls(*a))
    run_fa(scn, build_rate_table(scn), Partition.singletons(1),
           FaConfig(population=4, max_iters=2, seed=1))
    assert made == ["_PackedSwarm" if contents <= 63 else "_MatrixSwarm"]


def over_budget_repair(monkeypatch, form):
    """Patch the repair that run_fa calls to leave each row it repairs
    one slot over budget: the packed search's row repair, or in the
    matrix search the numpy kernel's first row of each placement."""
    if form == "packed":
        real_packed = firefly._repair_packed

        def repair_packed(row, order, slots):
            done = real_packed(row, order, slots)
            return done | next(b for b in order if not done & b)

        monkeypatch.setattr(firefly, "_repair_packed", repair_packed)
        return
    real = get_backend()

    def repair(x, prio, slots):
        real.repair(x, prio, slots)
        row = x[0]
        row[np.flatnonzero(row == 0)[0]] = 1

    monkeypatch.setattr(firefly, "get_backend",
                        lambda: dataclasses.replace(real, repair=repair))


@pytest.mark.parametrize("form", ["packed", "matrix"])
def test_run_fa_asserts_the_capacity_region(monkeypatch, form):
    """Both swarm forms check their repair's result: the packed one on
    the small config, the matrix one on a 64-entry placement."""
    if form == "packed":
        params = SMALL.system
    else:
        params = dataclasses.replace(SMALL.system, num_faps=1, num_users=4,
                                     num_contents=64)
    scn = generate_scenario(params, seed=1)
    slots = capacity_slots(params)
    assert 0 < slots < params.num_contents
    assert (params.num_faps * params.num_contents <= _PACKED_MOVE_MAX) == (form == "packed")
    over_budget_repair(monkeypatch, form)
    with pytest.raises(AssertionError, match="^swarm left the capacity region$"):
        run_fa(scn, build_rate_table(scn), Partition.singletons(params.num_faps),
               FaConfig(population=4, max_iters=2, seed=1))


def test_default_lambda_improves_on_the_initial_swarm_at_full_scale():
    """The default lambda_rand 1 (p = beta, q = 0), the least FaConfig
    admits, keeps a full-scale swarm recombining; below 1 every step
    with beta < (1 - lambda) / 2 would be cancelled, which froze this
    search at its initial best."""
    assert FaConfig().lambda_rand == 1.0
    spec = load_config(str(CONFIGS / "full_scale.yaml"))
    scn = generate_scenario(spec.system, seed=0)
    rates = build_rate_table(scn)
    part = run_hcg(build_social_graph(scn, rates), spec.hcg).partition
    res = run_fa(scn, rates, part, FaConfig(population=20, max_iters=20))
    assert res.history[-1][0] < res.history[0][0]


def test_fa_config_validation():
    with pytest.raises(ValueError):
        FaConfig(population=1)
    with pytest.raises(ValueError):
        FaConfig(max_iters=0)
    with pytest.raises(ValueError):
        FaConfig(gamma=-0.1)
    with pytest.raises(ValueError):
        FaConfig(gamma=float("nan"))


def test_fa_config_bounds_lambda_rand():
    """lambda_rand lies in [1, inf): below 1 the law cancels the steps of
    small attraction, and NaN or inf has no law at all."""
    for lam in (0.0, 5e-324, 0.5, math.nextafter(1.0, 0.0), math.nan, math.inf):
        with pytest.raises(ValueError, match="^lambda_rand must be at least 1 and finite$"):
            FaConfig(lambda_rand=lam)
    for lam in (1.0, math.nextafter(1.0, 2.0), 2.0, 1e308):
        assert FaConfig(lambda_rand=lam).lambda_rand == lam


@pytest.mark.parametrize(
    "field, value",
    [("population", 2.5), ("population", 3.0), ("population", True),
     ("max_iters", 1.5), ("max_iters", 4.0), ("max_iters", "4")],
    ids=repr,
)
def test_fa_config_rejects_non_integers(field, value):
    with pytest.raises(ValueError, match=field):
        FaConfig(**{field: value})


@pytest.mark.parametrize("field", ["gamma", "lambda_rand"])
def test_fa_config_rejects_infinite_constants(field):
    with pytest.raises(ValueError, match=field):
        FaConfig(**{field: float("inf")})
