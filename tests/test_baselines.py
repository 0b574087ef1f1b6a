"""Reference schemes: random, greedy, and the exact oracle."""

from dataclasses import replace
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from fogcache import (
    ExperimentSpec,
    FaConfig,
    HcgConfig,
    Partition,
    PlacementEvaluator,
    SystemParams,
    build_rate_table,
    capacity_slots,
    exhaustive_optimal,
    feasible,
    generate_scenario,
    greedy_local,
    random_caching,
    run_fa,
)
from fogcache._kernels import derive_key, weighted_sample
from fogcache.config import load_config
from fogcache.experiment import _build_cell

from conftest import (
    assert_subsets_follow,
    local_popularity,
    make_params,
    make_rates,
    make_scenario,
    successive_sampling_law,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# the instance of the near-optimality acceptance gate
SMALL = SystemParams(
    num_faps=3,
    num_users=9,
    num_contents=6,
    content_size=4.0e9,
    capacity=8.0e9,
    zipf_eta=0.7,
)


def enumerate_optimal(scenario, rates, partition):
    """Reference oracle: score every feasible placement one by one.

    Returns the best matrix (objective ties resolved to the
    lexicographically smallest row-major flattening), its evaluation,
    and how many placements tie at the optimum.
    """
    params = scenario.params
    evaluator = PlacementEvaluator(scenario, rates, partition)
    row_choices = []
    for s in range(capacity_slots(params) + 1):
        row_choices.extend(combinations(range(params.num_contents), s))
    scored = []
    for rows in product(row_choices, repeat=params.num_faps):
        x = np.zeros((params.num_faps, params.num_contents), dtype=np.uint8)
        for m, chosen in enumerate(rows):
            x[m, list(chosen)] = 1
        scored.append((evaluator.evaluate(x), x))
    result, x = min(scored, key=lambda s: (s[0].objective, tuple(s[1].reshape(-1))))
    ties = sum(r.objective == result.objective for r, _ in scored)
    return x, result, ties


def gate_instance(seed):
    """Scenario, rates and HCG partition of one near-optimality gate seed."""
    spec = ExperimentSpec(system=SMALL, hcg=HcgConfig(), fa=FaConfig())
    scn, rates, _, part = _build_cell(spec, SMALL, seed)
    return scn, rates, part


def single_fap(demand_rows, capacity=2.0e6, num_contents=None, **overrides):
    if num_contents is None:
        num_contents = len(demand_rows[0])
    params = make_params(
        num_faps=1,
        num_users=len(demand_rows),
        num_contents=num_contents,
        capacity=capacity,
        **overrides,
    )
    scn = make_scenario(
        params,
        fap_pos=[[0.0, 0.0]],
        user_pos=[[10.0 * (u + 1), 0.0] for u in range(len(demand_rows))],
        demand=demand_rows,
    )
    rates = make_rates(
        access=[[1.0e6] * len(demand_rows)], coop=[[0.0]]
    )
    return scn, rates


# ---------------------------------------------------------------------------
# random


def test_random_caching_fills_slots(small_instance):
    scn, _ = small_instance
    x = random_caching(scn, seed=4)
    assert x.shape == (3, 6)
    assert feasible(x, scn.params)
    assert np.all(x.sum(axis=1) == 2)  # 2 slots, distinct contents


def test_random_caching_deterministic(small_instance):
    scn, _ = small_instance
    assert np.array_equal(random_caching(scn, seed=9), random_caching(scn, seed=9))
    assert not np.array_equal(
        random_caching(scn, seed=9), random_caching(scn, seed=10)
    )


def test_random_caching_degenerate_capacity():
    scn, _ = single_fap([[0.6, 0.4]], capacity=0.5e6)  # half a slot
    assert not random_caching(scn, seed=0).any()


def test_random_caching_full_library():
    scn, _ = single_fap([[0.6, 0.4]], capacity=2.0e6)  # 2 slots = F
    assert random_caching(scn, seed=0).tolist() == [[1, 1]]


def test_random_caching_rows_draw_under_their_own_keys(small_instance):
    """Row m is the uniform draw of the weighted sampler under
    derive_key(seed, 0xBA5E, m)."""
    scn, _ = small_instance
    x = random_caching(scn, seed=5)
    assert x.dtype == np.uint8
    for m in range(3):
        row = weighted_sample(np.ones(6), 2, derive_key(5, 0xBA5E, m))
        assert x[m].tolist() == row.tolist()


def test_random_caching_is_uniform_over_subsets():
    """Over 6000 seeds, each 2-subset of 6 contents is cached about
    equally often, whatever the demand."""
    scn, _ = single_fap([[0.9, 0.05, 0.02, 0.01, 0.01, 0.01]])
    picks = np.concatenate([random_caching(scn, seed) for seed in range(6000)])
    assert_subsets_follow(picks.astype(bool), successive_sampling_law([1.0] * 6, 2))


# ---------------------------------------------------------------------------
# greedy


def test_greedy_tops_local_popularity():
    scn, _ = single_fap([[0.5, 0.3, 0.2]], capacity=2.0e6)
    assert greedy_local(scn).tolist() == [[1, 1, 0]]


def test_greedy_uniform_popularity_takes_low_indices():
    scn, _ = single_fap([[0.25, 0.25, 0.25, 0.25]], capacity=2.0e6)
    assert greedy_local(scn).tolist() == [[1, 1, 0, 0]]


def test_greedy_is_idempotent_and_feasible(small_instance):
    scn, _ = small_instance
    a = greedy_local(scn)
    assert np.array_equal(a, greedy_local(scn))
    assert feasible(a, scn.params)


def test_greedy_rows_follow_each_fap(small_instance):
    scn, _ = small_instance
    x = greedy_local(scn)
    for m in range(3):
        pop = local_popularity(scn, m)
        chosen = set(np.nonzero(x[m])[0].tolist())
        order = np.argsort(-pop, kind="stable")
        assert chosen == set(order[:2].tolist())


# ---------------------------------------------------------------------------
# exhaustive oracle


def assert_same_as_enumeration(scn, rates, part):
    x, res = exhaustive_optimal(scn, rates, part)
    ref_x, ref_res, ties = enumerate_optimal(scn, rates, part)
    assert np.array_equal(x, ref_x)
    assert res == ref_res
    return ties


@pytest.mark.parametrize("seed", [6, 32])
def test_exhaustive_matches_enumeration_on_gate_ties(seed):
    # seed 6 clusters every F-AP together and seed 32 has an F-AP without
    # users: both have several placements tied at the optimum
    ties = assert_same_as_enumeration(*gate_instance(seed))
    assert ties > 1


def test_exhaustive_matches_enumeration_on_toy(toy2):
    scn, rates = toy2
    for part in (Partition.singletons(2), Partition.whole_set(2)):
        assert_same_as_enumeration(scn, rates, part)


def test_exhaustive_matches_enumeration_at_zero_capacity():
    scn = generate_scenario(replace(SMALL, capacity=0.0), 3)
    rates = build_rate_table(scn)
    part = Partition.from_labels([0, 0, 1])
    x, res = exhaustive_optimal(scn, rates, part)
    assert not x.any()
    assert res == PlacementEvaluator(scn, rates, part).evaluate(x)
    assert assert_same_as_enumeration(scn, rates, part) == 1


@pytest.mark.parametrize("seed", range(6))
def test_exhaustive_matches_enumeration_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    f = int(rng.integers(1, 13 // m + 1))
    params = SystemParams(
        num_faps=m,
        num_users=int(rng.integers(1, 8)),
        num_contents=f,
        content_size=4.0e9,
        capacity=4.0e9 * float(rng.integers(0, f + 1)),
        zipf_eta=float(rng.uniform(0.3, 1.2)),
        weight=float(rng.choice([0.0, 0.01, 1.0])),
        intra_cluster_hop=str(rng.choice(["free", "charged"])),
    )
    scn = generate_scenario(params, seed)
    rates = build_rate_table(scn)
    part = Partition.from_labels(rng.integers(0, 2, size=m))
    assert_same_as_enumeration(scn, rates, part)


def test_exhaustive_single_slot_prefers_popular():
    scn, rates = single_fap([[0.7, 0.3]], capacity=1.0e6)
    x, res = exhaustive_optimal(scn, rates, Partition.singletons(1))
    assert x.tolist() == [[1, 0]]
    assert res.objective == pytest.approx(
        PlacementEvaluator(scn, rates, Partition.singletons(1)).evaluate(x).objective
    )


def test_exhaustive_caches_everything_at_full_weight():
    scn, rates = single_fap([[0.7, 0.3]], capacity=2.0e6, weight=1.0)
    x, _ = exhaustive_optimal(scn, rates, Partition.singletons(1))
    assert x.tolist() == [[1, 1]]


def test_exhaustive_refuses_big_instances():
    params = make_params(num_faps=2, num_contents=20, num_users=2)
    scn = make_scenario(
        params,
        fap_pos=[[0.0, 0.0], [500.0, 0.0]],
        user_pos=[[10.0, 0.0], [490.0, 0.0]],
        demand=[[0.05] * 20, [0.05] * 20],
    )
    rates = make_rates(
        access=[[1e6, 1e6], [1e6, 1e6]], coop=[[0.0, 1e6], [1e6, 0.0]]
    )
    with pytest.raises(ValueError, match="instance has 40 cells, exhaustive search capped at 24"):
        exhaustive_optimal(scn, rates, Partition.singletons(2), size_cap=24)


def test_exhaustive_leaves_a_cache_empty_where_its_copies_gain_nothing():
    """The oracle searches rows of at most ``slots`` contents, so a cache
    whose copies save no surcharge, only cost holding energy, stays
    empty.  At 3 GB every cache of ``configs/small.yaml`` holds the
    whole library.  On seed 0, F-AP 1 shares a cluster with F-AP 2 and
    the intra-cluster hop is free, so F-AP 2's copies serve F-AP 1's
    user at no surcharge: the other schemes fill every row, and the
    oracle leaves row 1 empty (10425.6378 against 10425.7863).  On gate
    seed 61, F-AP 0 has no users, and the oracle leaves its row empty."""
    spec = load_config(str(CONFIGS / "small.yaml"))
    params = replace(spec.system, capacity=3 * 8.0e9)
    scn, rates, _, part = _build_cell(spec, params, 0)
    assert capacity_slots(params) == params.num_contents == 6
    assert params.intra_cluster_hop == "free"
    assert part.member_of[1] == part.member_of[2] != part.member_of[0]
    x, best = exhaustive_optimal(scn, rates, part)
    assert x.sum(axis=1).tolist() == [6, 0, 6]
    full = PlacementEvaluator(scn, rates, part).evaluate(np.ones_like(x))
    assert round(best.objective, 4) == 10425.6378
    assert round(full.objective, 4) == 10425.7863
    for scheme in (random_caching(scn, 0), greedy_local(scn)):
        assert (scheme == 1).all()

    scn, rates, part = gate_instance(61)
    x, _ = exhaustive_optimal(scn, rates, part)
    assert not (scn.local_fap == 0).any()
    assert x.sum(axis=1).tolist() == [0, 2, 2]


def test_exhaustive_is_deterministic(toy2):
    scn, rates = toy2
    part = Partition.singletons(2)
    x1, r1 = exhaustive_optimal(scn, rates, part)
    x2, r2 = exhaustive_optimal(scn, rates, part)
    assert np.array_equal(x1, x2)
    assert r1.objective == r2.objective


def test_exhaustive_dominates_other_schemes(small_instance):
    scn, rates = small_instance
    part = Partition.from_labels([0, 0, 1])
    _, best = exhaustive_optimal(scn, rates, part)
    ev = PlacementEvaluator(scn, rates, part)
    rand = ev.evaluate(random_caching(scn, seed=1))
    greedy = ev.evaluate(greedy_local(scn))
    fa = run_fa(
        scn, rates, part, FaConfig(population=8, max_iters=15, seed=1)
    ).best_eval
    eps = 1e-12 * best.objective
    assert best.objective <= rand.objective + eps
    assert best.objective <= greedy.objective + eps
    assert best.objective <= fa.objective + eps


def test_exhaustive_beats_every_feasible_sample(toy2):
    scn, rates = toy2
    part = Partition.singletons(2)
    _, best = exhaustive_optimal(scn, rates, part)
    ev = PlacementEvaluator(scn, rates, part)
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = np.zeros((2, 2), dtype=np.uint8)
        for row in x:
            k = rng.integers(0, 2)  # 1 slot
            if k:
                row[rng.integers(0, 2)] = 1
        assert best.objective <= ev.evaluate(x).objective + 1e-12
