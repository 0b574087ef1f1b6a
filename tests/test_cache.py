"""Placement bookkeeping and the delay/energy/objective model.

The toy2 fixture numbers below were worked out by hand from the rate
tables in conftest before being frozen here.
"""

import numpy as np
import pytest

from fogcache import (
    Partition,
    PlacementEvaluator,
    SystemParams,
    build_rate_table,
    caching_energy,
    capacity_slots,
    feasible,
    generate_scenario,
    new_placement,
)

from conftest import (
    cluster_has,
    delay_components,
    energy_components,
    make_params,
    make_rates,
    make_scenario,
    request_delay,
    request_energy,
    request_totals,
)


# ---------------------------------------------------------------------------
# partitions


def test_partition_constructors():
    s = Partition.singletons(3)
    assert s.to_lists() == [[0], [1], [2]]
    w = Partition.whole_set(3)
    assert w.to_lists() == [[0, 1, 2]]
    labels = Partition.from_labels([1, 0, 1])
    assert labels.to_lists() == [[0, 2], [1]]


def test_partition_is_canonical():
    a = Partition([[1, 0], [2]], 3)
    b = Partition([[2], [0, 1]], 3)
    assert a == b
    assert a.to_lists() == [[0, 1], [2]]


def test_partition_bookkeeping():
    p = Partition.from_labels([0, 1, 0, 2])
    assert p.num_clusters == 3
    assert p.cluster_of(2) == p.cluster_of(0)
    assert p.cluster_of(2) != p.cluster_of(1)


def test_partition_rejects_bad_covers():
    with pytest.raises(ValueError):
        Partition([[0, 1], [1, 2]], 3)  # overlap
    with pytest.raises(ValueError):
        Partition([[0], [2]], 3)  # hole at 1


# ---------------------------------------------------------------------------
# placements and feasibility


def test_new_placement_shape_and_dtype():
    x = new_placement(make_params())
    assert x.shape == (2, 2)
    assert x.dtype == np.uint8
    assert not x.any()


def test_feasible_boundaries():
    params = make_params(num_contents=4, capacity=2.0e6)  # 2 slots
    x = np.zeros((2, 4), dtype=np.uint8)
    assert feasible(x, params)
    x[0, :2] = 1
    assert feasible(x, params)
    x[0, 2] = 1
    assert not feasible(x, params)


def test_feasible_counts_slots_not_bits():
    """``feasible`` admits exactly the ``capacity_slots`` budget that every
    scheme fills to, also where ``count * content_size <= capacity`` in
    floats would admit one content more."""
    params = make_params(num_faps=1, num_users=1, num_contents=200,
                         content_size=0.555, capacity=97.68)
    slots = capacity_slots(params)
    assert slots == 175
    assert (slots + 1) * params.content_size <= params.capacity
    x = np.zeros((1, 200), dtype=np.uint8)
    x[0, :slots] = 1
    assert feasible(x, params)
    x[0, slots] = 1
    assert not feasible(x, params)


def test_feasible_zero_capacity():
    params = make_params(capacity=0.0)
    x = np.zeros((2, 2), dtype=np.uint8)
    assert feasible(x, params)
    x[1, 1] = 1
    assert not feasible(x, params)


def test_cluster_has_or_semantics():
    part = Partition.from_labels([0, 0, 1])
    x = np.zeros((3, 2), dtype=np.uint8)
    x[1, 0] = 1
    assert cluster_has(x, part, 0, 0) == 1  # member 1 holds it
    assert cluster_has(x, part, 0, 1) == 0
    assert cluster_has(x, part, 1, 0) == 0
    # singleton cluster reduces to the matrix entry
    assert cluster_has(x, part, 1, 1) == x[2, 1]


def test_caching_energy_linear():
    params = make_params(cache_coeff=6.25e-12, content_size=4.0e9)
    x = np.zeros((2, 2), dtype=np.uint8)
    assert caching_energy(x, params) == 0.0
    x[0, 0] = 1
    assert caching_energy(x, params) == pytest.approx(0.025, rel=1e-15)
    x[1, 1] = 1
    assert caching_energy(x, params) == pytest.approx(0.05, rel=1e-15)


# ---------------------------------------------------------------------------
# per-request service model (toy2: see conftest for the rate tables)


def test_request_delay_local_hit(toy2):
    scn, rates = toy2
    part = Partition.singletons(2)
    x = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    # user 0 asks for content 0: cached at its F-AP, 1e6 / 2e6
    assert request_delay(scn, rates, x, part, 0, 0) == pytest.approx(0.5)
    assert request_delay(scn, rates, x, part, 1, 1) == pytest.approx(0.25)


def test_request_delay_remote_hit(toy2):
    scn, rates = toy2
    part = Partition.singletons(2)
    x = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    # user 0 asks for content 1: held only by F-AP 1, one fronthaul hop
    # 1e6 * (1/1e6 + 1/2e6) = 1.5
    assert request_delay(scn, rates, x, part, 0, 1) == pytest.approx(1.5)
    # user 1 asks for content 0: 1e6 * (1/2e6 + 1/4e6) = 0.75
    assert request_delay(scn, rates, x, part, 1, 0) == pytest.approx(0.75)


def test_request_delay_cloud(toy2):
    scn, rates = toy2
    part = Partition.singletons(2)
    x = np.zeros((2, 2), dtype=np.uint8)
    # 1e6 * (1/5e5 + 1/2e6) = 2.5 and 1e6 * (1/5e5 + 1/4e6) = 2.25
    assert request_delay(scn, rates, x, part, 0, 0) == pytest.approx(2.5)
    assert request_delay(scn, rates, x, part, 1, 0) == pytest.approx(2.25)


def test_request_energy_mirrors_delay(toy2):
    scn, rates = toy2
    part = Partition.singletons(2)
    x = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    assert request_energy(scn, rates, x, part, 0, 0) == pytest.approx(5.0)
    assert request_energy(scn, rates, x, part, 0, 1) == pytest.approx(15.0)
    assert request_energy(scn, rates, x, part, 1, 0) == pytest.approx(7.5)
    # cloud: 1e6 * (20/5e5 + 10/2e6) = 45
    zeros = np.zeros((2, 2), dtype=np.uint8)
    assert request_energy(scn, rates, zeros, part, 0, 0) == pytest.approx(45.0)


def test_cluster_membership_turns_remote_into_local(toy2):
    scn, rates = toy2
    whole = Partition.whole_set(2)
    x = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    # content 1 now sits inside user 0's cluster; the default hop is free
    assert request_delay(scn, rates, x, whole, 0, 1) == pytest.approx(0.5)


def test_charged_intra_cluster_hop(toy2):
    scn, rates = toy2
    params = scn.params
    charged = make_scenario(
        make_params(intra_cluster_hop="charged"),
        fap_pos=scn.fap_pos,
        user_pos=scn.user_pos,
        demand=scn.demand,
    )
    whole = Partition.whole_set(2)
    x = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    # the neighbor hop costs the same as the remote fetch
    assert request_delay(charged, rates, x, whole, 0, 1) == pytest.approx(1.5)
    assert request_energy(charged, rates, x, whole, 0, 1) == pytest.approx(15.0)
    assert params.intra_cluster_hop == "free"  # toy2 itself untouched


def test_branch_exclusivity_random_placements(small_instance):
    scn, rates = small_instance
    part = Partition.from_labels([0, 0, 1])
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = (rng.random((3, 6)) < 0.4).astype(np.uint8)
        for u in (0, 4, 8):
            for f in range(6):
                parts = delay_components(scn, rates, x, part, u, f)
                assert sum(1 for v in parts if v > 0) == 1
                eparts = energy_components(scn, rates, x, part, u, f)
                assert [v > 0 for v in eparts] == [v > 0 for v in parts]


# ---------------------------------------------------------------------------
# aggregate evaluation


def test_evaluate_toy_hand_numbers(toy2):
    scn, rates = toy2
    part = Partition.singletons(2)
    x = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    res = PlacementEvaluator(scn, rates, part).evaluate(x)
    # T = .7*.5 + .3*1.5 + .2*.75 + .8*.25 = 1.15
    assert res.delay == pytest.approx(1.15, rel=1e-12)
    # E = Jc*L*2 + .7*5 + .3*15 + .2*7.5 + .8*2.5 = 11.5000125
    assert res.energy == pytest.approx(11.5000125, rel=1e-12)
    assert res.objective == pytest.approx(11.396512375, rel=1e-12)


def test_evaluate_empty_placement(toy2):
    scn, rates = toy2
    part = Partition.singletons(2)
    x = np.zeros((2, 2), dtype=np.uint8)
    res = PlacementEvaluator(scn, rates, part).evaluate(x)
    assert res.delay == pytest.approx(4.75, rel=1e-12)
    assert res.energy == pytest.approx(87.5, rel=1e-12)
    assert res.objective == pytest.approx(86.6725, rel=1e-12)


def test_evaluate_whole_set_improves_delay(toy2):
    scn, rates = toy2
    x = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    res = PlacementEvaluator(scn, rates, Partition.whole_set(2)).evaluate(x)
    assert res.delay == pytest.approx(0.75, rel=1e-12)
    assert res.objective == pytest.approx(7.432512375, rel=1e-12)


def test_objective_is_pure_delay_at_full_weight(toy2):
    scn, rates = toy2
    heavy = make_scenario(
        make_params(weight=1.0),
        fap_pos=scn.fap_pos,
        user_pos=scn.user_pos,
        demand=scn.demand,
    )
    x = np.array([[1, 1], [0, 0]], dtype=np.uint8)  # infeasible is fine here
    res = PlacementEvaluator(heavy, rates, Partition.singletons(2)).evaluate(x)
    assert res.objective == res.delay


def test_evaluate_matches_request_sum(small_instance):
    scn, rates = small_instance
    part = Partition.from_labels([0, 1, 1])
    rng = np.random.default_rng(11)
    ev = PlacementEvaluator(scn, rates, part)
    for _ in range(5):
        x = (rng.random((3, 6)) < 0.4).astype(np.uint8)
        res = ev.evaluate(x)
        delay, energy, objective = request_totals(scn, rates, x, part)
        assert res.delay == pytest.approx(delay, rel=1e-9)
        assert res.energy == pytest.approx(energy, rel=1e-9)
        assert res.objective == pytest.approx(objective, rel=1e-9)


def test_local_copy_never_hurts_delay(small_instance):
    scn, rates = small_instance
    part = Partition.from_labels([0, 0, 1])
    ev = PlacementEvaluator(scn, rates, part)
    rng = np.random.default_rng(13)
    for _ in range(10):
        x = (rng.random((3, 6)) < 0.3).astype(np.uint8)
        base = ev.evaluate(x).delay
        m = int(rng.integers(0, 3))
        f = int(rng.integers(0, 6))
        y = x.copy()
        y[m, f] = 1
        assert ev.evaluate(y).delay <= base + 1e-12


def test_whole_set_brackets_singletons(small_instance):
    scn, rates = small_instance
    rng = np.random.default_rng(17)
    ev_one = PlacementEvaluator(scn, rates, Partition.whole_set(3))
    ev_solo = PlacementEvaluator(scn, rates, Partition.singletons(3))
    for _ in range(10):
        x = (rng.random((3, 6)) < 0.4).astype(np.uint8)
        assert ev_one.evaluate(x).delay <= ev_solo.evaluate(x).delay + 1e-12


def masked_max_extras(x, member_of, n_clusters, coop, tx_power, size_bits,
                      cloud_rate, cloud_power, charged_intra):
    """Per (F-AP, content) delay and energy surcharge over the access hop,
    by regime: the reference for the evaluator's rank tables.

    A request lands in exactly one regime: cached inside the local
    cluster (no surcharge, or one intra-cluster hop when that hop is
    charged), cached somewhere else (one fronthaul hop from the best
    reachable holder), or nowhere (cloud fetch).  Each regime takes the
    best rate as a masked max over an (M, M, F) array.
    """
    n_faps, n_contents = x.shape
    xb = x.astype(bool)
    cluster_has = np.zeros((n_clusters, n_contents), dtype=bool)
    for k in range(n_clusters):
        rows = xb[member_of == k]
        if rows.shape[0]:
            cluster_has[k] = rows.any(axis=0)
    local_has = cluster_has[member_of]
    anywhere = cluster_has.any(axis=0)

    extra_t = np.zeros((n_faps, n_contents))
    extra_e = np.zeros((n_faps, n_contents))

    # remote regime: best transfer rate among all holders (holders are
    # outside the local cluster here, so self never competes)
    masked = np.where(xb[None, :, :], coop[:, :, None], -np.inf)
    best = masked.max(axis=1)
    remote = ~local_has & anywhere[None, :]
    if remote.any():
        rows, cols = np.nonzero(remote)
        rate = best[rows, cols]
        extra_t[rows, cols] = size_bits / rate
        extra_e[rows, cols] = (tx_power[rows] * size_bits) / rate

    cloud_cols = ~anywhere
    if cloud_cols.any():
        extra_t[:, cloud_cols] = size_bits / cloud_rate
        extra_e[:, cloud_cols] = (cloud_power * size_bits) / cloud_rate

    if charged_intra:
        # local-cluster hit served by a neighbor rather than the local
        # F-AP itself costs one fronthaul hop from the best holder
        same = member_of[:, None] == member_of[None, :]
        np.fill_diagonal(same, False)
        cand = np.where(
            xb[None, :, :] & same[:, :, None], coop[:, :, None], -np.inf
        )
        best_in = cand.max(axis=1)
        hop = local_has & ~xb
        if hop.any():
            rows, cols = np.nonzero(hop)
            rate = best_in[rows, cols]
            extra_t[rows, cols] = size_bits / rate
            extra_e[rows, cols] = (tx_power[rows] * size_bits) / rate

    return extra_t, extra_e


def assert_rank_tables_exact(scn, rates, part, rng):
    """Surcharges and evaluations equal the masked-max reference to the
    bit, on placements of every density and, for up to 9 F-APs, on all
    column patterns at once."""
    params = scn.params
    n_faps, n_contents = params.num_faps, params.num_contents
    ev = PlacementEvaluator(scn, rates, part)

    def reference(x):
        return masked_max_extras(
            x, part.member_of, part.num_clusters, rates.coop,
            params.fap_powers(), params.content_size, params.cloud_rate,
            params.cloud_power, params.intra_cluster_hop == "charged",
        )

    if n_faps <= 9:
        codes = np.arange(1 << n_faps)
        patterns = ((codes >> np.arange(n_faps)[:, None]) & 1).astype(np.uint8)
        for got, want in zip(ev.surcharges(patterns), reference(patterns)):
            assert np.array_equal(got, want)
    for density in (0.0, 0.02, 0.1, 0.3, 0.6, 0.9, 1.0):
        x = (rng.random((n_faps, n_contents)) < density).astype(np.uint8)
        extra_t, extra_e = reference(x)
        got_t, got_e = ev.surcharges(x)
        assert np.array_equal(got_t, extra_t)
        assert np.array_equal(got_e, extra_e)
        delay = ev.const_delay + float(np.sum(ev.mass * extra_t))
        energy = (caching_energy(x, params) + ev.const_energy
                  + float(np.sum(ev.mass * extra_e)))
        got = ev.evaluate(x)
        assert (got.delay, got.energy) == (delay, energy)


PARTITIONS = {
    "singletons": Partition.singletons,
    "whole": Partition.whole_set,
    # uneven clusters that interleave across the 8-row chunks
    "mixed": lambda n: Partition.from_labels(np.arange(n) * 7 % 3),
}


@pytest.mark.parametrize("hop", ["free", "charged"])
@pytest.mark.parametrize("n_faps, n_contents", [(12, 1024), (2, 1024), (2, 7)])
def test_pattern_table_equals_whole_matrix_kernel(hop, n_faps, n_contents):
    """The chunk and rank tables give the very numbers of one masked-max
    kernel call on the whole placement: two chunks of rows (12 F-APs),
    one short chunk (2 F-APs), wide and narrow placements."""
    params = SystemParams(num_faps=n_faps, num_users=4 * n_faps,
                          num_contents=n_contents, content_size=4.0e9,
                          capacity=4.0e10, intra_cluster_hop=hop)
    scn = generate_scenario(params, 2)
    rates = build_rate_table(scn)
    part = PARTITIONS["mixed"](n_faps)
    assert_rank_tables_exact(scn, rates, part, np.random.default_rng(4))


@pytest.mark.parametrize("hop", ["free", "charged"])
@pytest.mark.parametrize("n_faps", [1, 5, 8, 9, 15])
@pytest.mark.parametrize("partition", sorted(PARTITIONS))
def test_rank_tables_equal_masked_max_kernel(hop, n_faps, partition):
    """One F-AP, one chunk, an exact chunk boundary and a partial second
    chunk, under every kind of partition and both hop charges."""
    params = SystemParams(num_faps=n_faps, num_users=4 * n_faps, num_contents=40,
                          content_size=4.0e9, capacity=4.0e10,
                          intra_cluster_hop=hop)
    scn = generate_scenario(params, n_faps)
    rates = build_rate_table(scn)
    part = PARTITIONS[partition](n_faps)
    assert_rank_tables_exact(scn, rates, part, np.random.default_rng(n_faps))


@pytest.mark.parametrize("hop", ["free", "charged"])
@pytest.mark.parametrize("n_faps", [3, 8, 9, 15])
def test_column_costs_sum_to_the_objective(hop, n_faps):
    """The constant plus each content's share under its own column is the
    objective of the placement, on both sides of the 8-row chunk."""
    params = SystemParams(num_faps=n_faps, num_users=4 * n_faps, num_contents=60,
                          content_size=4.0e9, capacity=4.0e10,
                          intra_cluster_hop=hop)
    scn = generate_scenario(params, n_faps)
    ev = PlacementEvaluator(scn, build_rate_table(scn), PARTITIONS["mixed"](n_faps))
    rng = np.random.default_rng(n_faps)
    for density in (0.0, 0.1, 0.5, 1.0):
        x = (rng.random((n_faps, 60)) < density).astype(np.uint8)
        cost = ev.column_costs(x)
        assert cost.shape == (60, 60)
        total = ev.const_objective + float(np.trace(cost))
        assert total == pytest.approx(ev.evaluate(x).objective, rel=1e-12, abs=0)


@pytest.mark.parametrize("hop", ["free", "charged"])
def test_rank_tables_break_rate_ties_toward_own_cluster(hop):
    """F-APs tied on rate across a cluster boundary: the own-cluster
    holder comes first even when the other one has the lower index."""
    params = make_params(num_faps=4, num_users=4, num_contents=12,
                         intra_cluster_hop=hop)
    scn = make_scenario(
        params,
        fap_pos=[[0.0, 0.0], [300.0, 0.0], [0.0, 300.0], [300.0, 300.0]],
        user_pos=[[10.0, 0.0], [290.0, 0.0], [10.0, 300.0], [290.0, 300.0]],
        demand=np.random.default_rng(5).dirichlet(np.ones(12), size=4),
    )
    # every off-diagonal rate of F-APs 0 and 3 is 1e6; 1 and 2 differ
    coop = np.full((4, 4), 1.0e6)
    coop[1] = [3.0e6, 0.0, 2.0e6, 1.0e6]
    coop[2] = [1.0e6, 2.0e6, 0.0, 2.0e6]
    np.fill_diagonal(coop, 0.0)
    rates = make_rates(access=np.full((4, 4), 2.0e6), coop=coop)
    part = Partition([[0, 1], [2, 3]], 4)
    ev = PlacementEvaluator(scn, rates, part)
    # F-AP 3 asks for content 0, held by F-APs 1 (other cluster) and 2
    # (own cluster)
    x = np.zeros((4, 12), dtype=np.uint8)
    x[[1, 2], 0] = 1
    extra_t, _ = ev.surcharges(x)
    size = params.content_size
    assert extra_t[3, 0] == (size / 1.0e6 if hop == "charged" else 0.0)
    assert_rank_tables_exact(scn, rates, part, np.random.default_rng(3))
