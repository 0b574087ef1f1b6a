"""Swarm optimizer: brightness, moves, repair, and full runs."""

import dataclasses
import math

import numpy as np
import pytest

from fogcache import firefly
from fogcache import (
    FaConfig,
    Partition,
    PlacementEvaluator,
    brightness_normalize,
    feasible,
    run_fa,
)
from fogcache._kernels import _PACKED_MOVE_MAX, derive_key, get_backend

from conftest import flat_order, law_step, make_params, make_rates, make_scenario


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

    The kernel's result is checked against the per-bit law,
    :func:`conftest.law_step`, and returned.  The same rows padded with
    shared zeros past the packed move's cutoff take the other
    formulation, and must agree.
    """
    keys = np.array([key], dtype=np.uint64)
    out = []
    for width in (xj.size, max(xj.size, _PACKED_MOVE_MAX + 1)):
        swarm = np.zeros((2, width), dtype=np.uint8)
        swarm[:, : xj.size] = [xj, xi]
        start = swarm.copy()
        get_backend().move(swarm, 0, np.array([1]), np.array([beta]), 0.0, lam, keys)
        assert np.array_equal(swarm[1], start[1])
        expected = law_step(start[0], start[1], beta, lam, key)
        assert np.array_equal(swarm[0], expected)
        out.append(swarm[0, : xj.size])
    assert np.array_equal(out[0], out[1])
    return out[0]


def test_move_keeps_shared_ones_without_noise():
    xj = np.ones(6, dtype=np.uint8)
    out = pull_once(xj, xj.copy(), beta=0.9, lam=0.0)
    assert out.tolist() == xj.tolist()


def test_move_threshold_on_beta():
    """At lam = 0 an element that differs from its peer takes the peer's
    value iff beta >= 1/2, a 0 and a 1 alike: the law's p is 1 from
    beta = 1/2 on and 0 below, so the tie at 1/2 takes."""
    for xj in (0, 1):
        a = np.array([xj], dtype=np.uint8)
        b = 1 - a
        for beta, takes in ((0.2, False), (0.49, False), (0.5, True), (0.6, True)):
            assert pull_once(a, b, beta, 0.0)[0] == (1 - xj if takes else xj)


def test_move_identity_when_inert():
    rng = np.random.default_rng(3)
    xj = rng.integers(0, 2, size=36).astype(np.uint8)
    xi = rng.integers(0, 2, size=36).astype(np.uint8)
    assert np.array_equal(pull_once(xj, xi, beta=0.0, lam=0.0), xj)


def test_move_copies_fully_at_max_attraction():
    rng = np.random.default_rng(4)
    xj = rng.integers(0, 2, size=15).astype(np.uint8)
    xi = rng.integers(0, 2, size=15).astype(np.uint8)
    assert np.array_equal(pull_once(xj, xi, beta=1.0, lam=0.0), xi)


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


def test_repair_kernel_rejects_non_contiguous_rows():
    """The kernel writes through a flat view, which a strided placement
    does not have: it raises instead of losing the writes."""
    x = np.zeros((4, 6), dtype=np.uint8, order="F")
    flat = flat_order(np.tile(np.arange(6), (4, 1)))
    with pytest.raises(ValueError, match="C-contiguous"):
        get_backend().repair(x, flat, 2)


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
    # two contents, two slots: repair fills every firefly to all-ones,
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
@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0], ids="element-{}".format)
def test_run_fa_draws_follow_the_counter_stream(monkeypatch, small_instance, lam):
    """Each pairwise step of iteration q, firefly j and peer i uses key
    derive_key(seed, 0xF2, q, j, i) and follows the per-bit law with the
    draws of that key."""
    scn, rates = small_instance
    part = Partition.from_labels([0, 0, 1])
    cfg = FaConfig(population=10, max_iters=6, lambda_rand=lam, seed=17)
    real = get_backend()
    fold = firefly.fold_keys
    iteration = [-1]
    steps = []

    def counting_fold(*args):
        iteration[0] += 1  # called once per iteration
        return fold(*args)

    def checked_move(rows, j, peers, pull, gamma, lam_, keys):
        q = iteration[0]
        expected = rows[j].copy()
        for t, i in enumerate(peers):
            key = derive_key(cfg.seed, 0xF2, q, j, int(i))
            assert int(keys[t]) == key
            r = int(np.count_nonzero(expected != rows[i]))
            beta = attractiveness(float(pull[t]), float(r), gamma)
            expected = law_step(expected, rows[i], beta, lam_, key)
            steps.append((q, j, int(i)))
        real.move(rows, j, peers, pull, gamma, lam_, keys)
        assert np.array_equal(rows[j], expected)

    monkeypatch.setattr(firefly, "fold_keys", counting_fold)
    monkeypatch.setattr(
        firefly, "get_backend",
        lambda: dataclasses.replace(real, move=checked_move),
    )
    res = run_fa(scn, rates, part, cfg)
    assert iteration[0] == res.iterations - 1
    # the swarm settles within a few iterations at lam <= 1, but the keys
    # of at least two iterations are checked everywhere
    assert len({q for q, _, _ in steps}) >= 2
    assert len(steps) == len(set(steps)) > 10


def test_fa_config_validation():
    with pytest.raises(ValueError):
        FaConfig(population=1)
    with pytest.raises(ValueError):
        FaConfig(max_iters=0)
    with pytest.raises(ValueError):
        FaConfig(lambda_rand=-0.5)
    with pytest.raises(ValueError):
        FaConfig(lambda_rand=float("nan"))
    with pytest.raises(ValueError):
        FaConfig(gamma=-0.1)
    with pytest.raises(ValueError):
        FaConfig(gamma=float("nan"))


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
