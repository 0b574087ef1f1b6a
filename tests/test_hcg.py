"""Coalition formation: openness, best-response moves, stability."""

import numpy as np
import pytest

from fogcache import (
    HcgConfig,
    Partition,
    SocialGraph,
    initial_partition,
    is_individually_stable,
    is_open,
    run_hcg,
)


def graph_of(mutual) -> SocialGraph:
    return SocialGraph.from_mutual(np.asarray(mutual, dtype=np.float64))


def random_graph(rng, m) -> SocialGraph:
    raw = rng.normal(scale=2.0, size=(m, m))
    mutual = raw + raw.T
    np.fill_diagonal(mutual, 0.0)
    return SocialGraph.from_mutual(mutual)


# ---------------------------------------------------------------------------
# initial partition


def test_initial_partition_single_cluster():
    p = initial_partition(5, 1, seed=0)
    assert p == Partition.whole_set(5)


def test_initial_partition_deterministic():
    assert initial_partition(6, 3, seed=7) == initial_partition(6, 3, seed=7)


def test_initial_partition_covers_everyone():
    p = initial_partition(9, 4, seed=3)
    assert sorted(m for c in p.to_lists() for m in c) == list(range(9))
    assert 1 <= p.num_clusters <= 4


def test_initial_partition_rejects_bad_count():
    with pytest.raises(ValueError):
        initial_partition(3, 4, seed=0)
    with pytest.raises(ValueError):
        initial_partition(3, 0, seed=0)


# ---------------------------------------------------------------------------
# openness


def test_is_open_empty_cluster():
    g = graph_of([[0.0, -1.0], [-1.0, 0.0]])
    assert is_open(g, [], 0)


def test_is_open_vetoed_by_negative_member():
    g = graph_of([[0.0, -0.1], [-0.1, 0.0]])
    assert not is_open(g, [1], 0)


def test_is_open_boundary_admits_zero():
    g = graph_of(
        [
            [0.0, 0.0, 0.2],
            [0.0, 0.0, 1.0],
            [0.2, 1.0, 0.0],
        ]
    )
    # members 0 and 1 hold utilities 0.2 and 1.0 toward candidate 2
    assert is_open(g, [0, 1], 2)
    zero_edge = graph_of(
        [
            [0.0, 0.0, 0.0],
            [0.0, 0.0, 0.2],
            [0.0, 0.2, 0.0],
        ]
    )
    assert is_open(zero_edge, [0, 1], 2)  # >= 0 admits


def test_is_open_rejects_current_member():
    g = graph_of([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        is_open(g, [0, 1], 1)


# ---------------------------------------------------------------------------
# dynamics on tiny hand graphs


def test_zero_graph_is_a_fixed_point():
    g = graph_of(np.zeros((4, 4)))
    start = Partition.from_labels([0, 0, 1, 1])
    res = run_hcg(g, initial=start)
    assert res.partition == start
    assert res.moves == 0
    assert res.converged
    assert is_individually_stable(g, res.partition)


def test_two_players_merge():
    g = graph_of([[0.0, 2.0], [2.0, 0.0]])
    res = run_hcg(g, initial=Partition.singletons(2))
    assert res.partition == Partition.whole_set(2)
    assert res.converged
    assert not is_individually_stable(g, Partition.singletons(2))


def test_three_players_pair_off():
    # 0 and 1 like each other; everyone dislikes 2's company
    g = graph_of(
        [
            [0.0, 1.0, -1.0],
            [1.0, 0.0, -0.5],
            [-1.0, -0.5, 0.0],
        ]
    )
    res = run_hcg(g, initial=Partition.singletons(3))
    expected = Partition([[0, 1], [2]], 3)
    assert res.partition == expected
    assert res.converged
    # of all five partitions of three players, only this one is stable
    all_partitions = [
        [[0], [1], [2]],
        [[0, 1], [2]],
        [[0, 2], [1]],
        [[1, 2], [0]],
        [[0, 1, 2]],
    ]
    stable = [
        p for p in all_partitions if is_individually_stable(g, Partition(p, 3))
    ]
    assert stable == [[[0, 1], [2]]]


def test_negative_pair_splits():
    g = graph_of([[0.0, -3.0], [-3.0, 0.0]])
    res = run_hcg(g, initial=Partition.whole_set(2))
    assert res.partition == Partition.singletons(2)


def test_potential_history_strictly_increases():
    rng = np.random.default_rng(0)
    g = random_graph(rng, 8)
    res = run_hcg(g, HcgConfig(initial_clusters=2, seed=1))
    assert res.moves == len(res.potential_history) - 1
    diffs = np.diff(res.potential_history)
    assert res.moves > 0
    assert np.all(diffs > 0)


# ---------------------------------------------------------------------------
# randomized invariants


@pytest.mark.parametrize("trial", range(10))
def test_random_graphs_reach_stability(trial):
    rng = np.random.default_rng(100 + trial)
    m = int(rng.integers(3, 11))
    g = random_graph(rng, m)
    res = run_hcg(g, HcgConfig(initial_clusters=max(1, m // 3), seed=trial))
    assert res.converged
    assert res.passes < HcgConfig().max_passes
    assert is_individually_stable(g, res.partition)
    # cover/disjointness: rebuilding from labels is the identity
    labels = [res.partition.cluster_of(i) for i in range(m)]
    assert Partition.from_labels(labels) == res.partition
    if res.moves:
        assert np.all(np.diff(res.potential_history) > 0)


def test_stability_checker_flags_beneficial_merge():
    g = graph_of([[0.0, 0.7], [0.7, 0.0]])
    assert not is_individually_stable(g, Partition.singletons(2))
    assert is_individually_stable(g, Partition.whole_set(2))


@pytest.mark.parametrize(
    "field, value",
    [("max_passes", 2.5), ("max_passes", 10.0), ("max_passes", 0),
     ("initial_clusters", 1.5), ("initial_clusters", 2.0), ("initial_clusters", 0)],
    ids=repr,
)
def test_hcg_config_rejects_non_integers(field, value):
    with pytest.raises(ValueError, match=field):
        HcgConfig(**{field: value})
    assert HcgConfig(initial_clusters=np.int64(2), max_passes=np.int64(3)).max_passes == 3
