"""Cluster formation as a hedonic coalition game.

Starting from a random partition, F-APs take turns proposing to join
the cluster they prefer most.  A move happens only when the mover
strictly gains and every member of the receiving cluster weakly
accepts (non-negative mutual utility toward the mover, the "open
cluster" rule).  Seceding into a fresh singleton is always available.
Because mutual utility is symmetric, each move raises the total
welfare by twice the mover's gain, so the process terminates in an
individually stable partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

import numpy as np

from .cache import Partition
from .scenario import require_int
from .social import SocialGraph

__all__ = [
    "HcgConfig",
    "HcgResult",
    "initial_partition",
    "is_open",
    "run_hcg",
    "is_individually_stable",
]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class HcgConfig:
    """Knobs for the coalition formation loop.

    ``initial_clusters`` defaults to ceil(M / 3); ``max_passes`` caps
    full sweeps over the F-APs.  Each turn an F-AP tries every cluster
    it strictly prefers, best first, and joins the first open one.
    """

    initial_clusters: Optional[int] = None
    max_passes: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.initial_clusters is not None:
            require_int("initial_clusters", self.initial_clusters, 1)
        require_int("max_passes", self.max_passes, 1)


@dataclass
class HcgResult:
    partition: Partition
    passes: int
    converged: bool
    moves: int
    potential_history: List[float] = field(default_factory=list)


def initial_partition(num_faps: int, num_clusters: int, seed: int) -> Partition:
    """Random label assignment into at most ``num_clusters`` groups.

    Labels that receive no F-AP simply vanish, so the result may have
    fewer clusters than asked for.
    """
    if not 1 <= num_clusters <= num_faps:
        raise ValueError("num_clusters must lie in [1, num_faps]")
    rng = np.random.default_rng([seed & _MASK64, 0xC1A5])
    labels = rng.integers(0, num_clusters, size=num_faps)
    return Partition.from_labels(labels)


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


def run_hcg(
    graph: SocialGraph,
    config: Optional[HcgConfig] = None,
    initial: Optional[Partition] = None,
) -> HcgResult:
    """Best-response coalition formation until no F-AP wants to move.

    F-APs are visited in index order.  Each computes its utility in
    every existing cluster and in a fresh singleton, keeps the strict
    improvements sorted best first (ties broken toward the lower
    cluster index, the singleton option last), and joins the first one
    that accepts it.  A full pass without a move means convergence.
    """
    if config is None:
        config = HcgConfig()
    m_count = graph.num_faps
    k0 = config.initial_clusters
    if k0 is None:
        k0 = math.ceil(m_count / 3)
    k0 = min(k0, m_count)
    if initial is None:
        initial = initial_partition(m_count, k0, config.seed)

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
    for _ in range(config.max_passes):
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
                # symmetry: the mover's gain is granted back by the
                # clusters involved, so welfare rises by twice the gain
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


def is_individually_stable(graph: SocialGraph, partition: Partition) -> bool:
    """Check that no F-AP can strictly gain by joining an open cluster.

    Covers moves into every other existing cluster and secession into a
    fresh singleton.
    """
    mutual = graph.mutual
    for m in range(partition.num_faps):
        cur = partition.cluster_of(m)
        stay = float(np.sum(mutual[m, partition.clusters[cur]]))
        if 0.0 > stay:
            return False
        for k, members in enumerate(partition.clusters):
            if k == cur:
                continue
            value = float(np.sum(mutual[m, members]))
            if value > stay and bool(np.all(mutual[members, m] >= 0)):
                return False
    return True
