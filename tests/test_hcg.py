"""Coalition formation: openness, best-response moves, stability."""

import math
from dataclasses import replace
from pathlib import Path
from typing import Iterable, List, Optional

import numpy as np
import pytest

from fogcache import (
    HcgConfig,
    HcgResult,
    Partition,
    SocialGraph,
    build_rate_table,
    build_social_graph,
    generate_scenario,
    hcg,
    initial_partition,
    load_config,
    run_hcg,
)
from fogcache._kernels import derive_key
from fogcache.experiment import _TAG_HCG
from fogcache.hcg import MAX_PASSES

from conftest import is_individually_stable

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def graph_of(mutual) -> SocialGraph:
    return SocialGraph.from_mutual(np.asarray(mutual, dtype=np.float64))


def random_graph(rng, m) -> SocialGraph:
    raw = rng.normal(scale=2.0, size=(m, m))
    mutual = raw + raw.T
    np.fill_diagonal(mutual, 0.0)
    return SocialGraph.from_mutual(mutual)


# ---------------------------------------------------------------------------
# references


def is_open(graph: SocialGraph, members: Iterable[int], m: int) -> bool:
    """Whether the cluster with ``members`` accepts F-AP m.

    Every current member must hold non-negative mutual utility toward
    the newcomer; an empty cluster accepts anyone.
    """
    idx = [int(n) for n in members]
    if m in idx:
        raise ValueError("candidate already belongs to the cluster")
    if not idx:
        return True
    return bool(np.all(graph.mutual[idx, m] >= 0))


def reference_hcg(
    graph: SocialGraph,
    seed: int = 0,
    initial: Optional[Partition] = None,
    max_passes: int = MAX_PASSES,
) -> HcgResult:
    """Best-response coalition formation on a list of member sets.

    F-APs are visited in index order.  Each computes its utility in
    every existing cluster and in a fresh singleton, keeps the strict
    improvements sorted best first (ties broken toward the lower
    cluster index, the singleton option last), and joins the first one
    that accepts it.  A full pass without a move means convergence.
    """
    m_count = graph.num_faps
    if initial is None:
        initial = initial_partition(m_count, math.ceil(m_count / 3), seed)

    clusters: List[set] = [set(c.tolist()) for c in initial.clusters]
    member_of = initial.member_of.copy()
    mutual = graph.mutual

    potential = 0.0
    for members in clusters:
        idx = list(members)
        potential += float(mutual[np.ix_(idx, idx)].sum())
    history = [potential]

    moves = 0
    converged = False
    passes = 0
    for _ in range(max_passes):
        passes += 1
        moved_this_pass = False
        for m in range(m_count):
            cur = int(member_of[m])
            prefs = np.bincount(
                member_of, weights=mutual[m], minlength=len(clusters)
            )
            stay = prefs[cur]
            options = [
                (float(prefs[k]), k)
                for k in range(len(clusters))
                if k != cur and prefs[k] > stay
            ]
            if 0.0 > stay:
                options.append((0.0, len(clusters)))  # secede
            if not options:
                continue
            options.sort(key=lambda vk: (-vk[0], vk[1]))
            for value, target in options:
                if target < len(clusters):
                    members = clusters[target]
                    if not np.all(mutual[list(members), m] >= 0):
                        continue
                clusters[cur].discard(m)
                if target == len(clusters):
                    clusters.append({m})
                else:
                    clusters[target].add(m)
                member_of[m] = target
                if not clusters[cur]:
                    del clusters[cur]
                    member_of[member_of > cur] -= 1
                potential += 2.0 * (value - stay)
                history.append(potential)
                moves += 1
                moved_this_pass = True
                break
        if not moved_this_pass:
            converged = True
            break

    partition = Partition([sorted(c) for c in clusters], m_count)
    return HcgResult(
        partition=partition,
        passes=passes,
        converged=converged,
        moves=moves,
        potential_history=history,
    )


def assert_same_run(graph, seed=0, initial=None):
    got = run_hcg(graph, HcgConfig(seed=seed), initial=initial)
    want = reference_hcg(graph, seed, initial=initial)
    assert got.partition == want.partition
    assert (got.passes, got.moves, got.converged) == (
        want.passes, want.moves, want.converged
    )
    assert np.allclose(got.potential_history, want.potential_history)


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
    # F-AP 0 dislikes everyone, and its fresh singleton still takes it
    g = graph_of(
        [
            [0.0, -1.0, -1.0],
            [-1.0, 0.0, 2.0],
            [-1.0, 2.0, 0.0],
        ]
    )
    res = run_hcg(g, initial=Partition.whole_set(3))
    assert res.partition == Partition([[0], [1, 2]], 3)
    assert res.moves == 1


def test_is_open_vetoed_by_negative_member():
    g = graph_of([[0.0, -0.1], [-0.1, 0.0]])
    assert not is_open(g, [1], 0)
    # F-AP 0 would gain 0.9 in {1, 2}, but 1 holds -0.1 toward it
    mutual = np.array(
        [
            [0.0, -0.1, 1.0],
            [-0.1, 0.0, 1.0],
            [1.0, 1.0, 0.0],
        ]
    )
    start = Partition([[0], [1, 2]], 3)
    res = run_hcg(graph_of(mutual), initial=start)
    assert not is_open(graph_of(mutual), [1, 2], 0)
    assert res.partition == start
    assert res.moves == 0
    assert is_individually_stable(graph_of(mutual), start)
    mutual[0, 1] = mutual[1, 0] = 0.1  # without the veto 0 joins
    assert run_hcg(graph_of(mutual), initial=start).partition == Partition.whole_set(3)


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
            [0.0, 1.0, 0.0],
            [1.0, 0.0, 0.2],
            [0.0, 0.2, 0.0],
        ]
    )
    assert is_open(zero_edge, [0, 1], 2)  # >= 0 admits
    # F-AP 2 joins {0, 1}, though member 0 holds exactly 0 toward it
    start = Partition([[0, 1], [2]], 3)
    res = run_hcg(zero_edge, initial=start)
    assert res.partition == Partition.whole_set(3)
    assert res.moves == 1
    below_zero = graph_of(
        [
            [0.0, 1.0, -1e-12],
            [1.0, 0.0, 0.2],
            [-1e-12, 0.2, 0.0],
        ]
    )
    assert run_hcg(below_zero, initial=start).partition == start


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
    res = run_hcg(g, initial=initial_partition(8, 2, seed=1))
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
    res = run_hcg(g, initial=initial_partition(m, max(1, m // 3), seed=trial))
    assert res.converged
    assert res.passes < MAX_PASSES
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


def test_pass_cap_stops_unconverged(monkeypatch):
    g = graph_of([[0.0, 2.0], [2.0, 0.0]])
    full = run_hcg(g, initial=Partition.singletons(2))
    assert (full.passes, full.converged) == (2, True)
    monkeypatch.setattr(hcg, "MAX_PASSES", 1)
    capped = run_hcg(g, initial=Partition.singletons(2))
    assert (capped.passes, capped.moves, capped.converged) == (1, 1, False)
    assert capped.partition == Partition.whole_set(2)


# ---------------------------------------------------------------------------
# the label-array loop against the set-based reference


def test_matches_reference_on_random_graphs():
    """Normal, integer-rounded (exact ties) and sparse (exact zeros)
    graphs of 1..15 F-APs, from seeded and from arbitrary starts."""
    rng = np.random.default_rng(2002)
    for trial in range(1200):
        m = int(rng.integers(1, 16))
        raw = rng.normal(scale=2.0, size=(m, m))
        if trial % 3 == 1:
            raw = np.round(raw)
        elif trial % 3 == 2:
            raw = np.round(raw) * (rng.random((m, m)) < 0.4)
        mutual = raw + raw.T
        np.fill_diagonal(mutual, 0.0)
        initial = None
        if trial % 2:
            initial = initial_partition(m, int(rng.integers(1, m + 1)), seed=trial)
        assert_same_run(SocialGraph.from_mutual(mutual), seed=trial, initial=initial)


@pytest.mark.parametrize("delta", [0.0, 1e-6, 1e-5, 1.0])
def test_matches_reference_at_full_scale(delta):
    params = replace(load_config(str(CONFIGS / "full_scale.yaml")).system, social_delta=delta)
    for seed in range(10):
        scn = generate_scenario(params, seed)
        graph = build_social_graph(scn, build_rate_table(scn))
        assert_same_run(graph, seed=derive_key(seed, _TAG_HCG))
