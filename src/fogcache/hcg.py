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
from typing import List, Optional

import numpy as np

from ._kernels import rng_for
from .cache import Partition
from .social import SocialGraph

__all__ = [
    "HcgConfig",
    "HcgResult",
    "initial_partition",
    "run_hcg",
]

# full sweeps over the F-APs before the loop stops unconverged
MAX_PASSES = 100


@dataclass(frozen=True)
class HcgConfig:
    """Seed of the random start: ceil(M / 3) labels drawn per F-AP."""

    seed: int = 0


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
    rng = rng_for(seed, 0xC1A5)
    labels = rng.integers(0, num_clusters, size=num_faps)
    return Partition.from_labels(labels)


def run_hcg(
    graph: SocialGraph,
    config: Optional[HcgConfig] = None,
    initial: Optional[Partition] = None,
) -> HcgResult:
    """Best-response coalition formation until no F-AP wants to move.

    The state is one label per F-AP.  F-APs are visited in index order;
    each joins the open cluster it strictly prefers most (ties toward
    the lower label), or secedes into a fresh singleton when it holds
    negative utility where it is and no open cluster offers it at least
    zero.  An emptied cluster's label is closed up.  A full pass
    without a move means convergence; ``MAX_PASSES`` passes stop the
    loop either way.
    """
    if config is None:
        config = HcgConfig()
    m_count = graph.num_faps
    if initial is None:
        initial = initial_partition(m_count, math.ceil(m_count / 3), config.seed)
    if initial.num_faps != m_count:
        raise ValueError(f"initial partition has {initial.num_faps} F-APs, graph {m_count}")

    mutual = graph.mutual
    labels = initial.member_of.copy()  # compact: clusters are 0..K-1
    potential = sum(float(mutual[np.ix_(c, c)].sum()) for c in initial.clusters)
    history = [potential]

    moves = 0
    passes = 0
    converged = False
    while not converged and passes < MAX_PASSES:
        passes += 1
        converged = True
        for m, row in enumerate(mutual):
            cur = labels[m]
            prefs = np.bincount(labels, weights=row)
            stay = prefs[cur]
            # most turns end here: nothing beats staying, and staying is
            # no loss, so the openness of the others does not matter
            if stay >= 0.0 and max(prefs.tolist()) <= stay:
                continue
            # a cluster with a member of negative utility toward m is closed
            prefs[labels[mutual[:, m] < 0]] = -np.inf
            target = int(prefs.argmax())
            value = prefs[target]
            if stay < 0.0 and value < 0.0:
                target, value = len(prefs), 0.0  # secede
            elif value <= stay:
                continue
            labels[m] = target
            if np.count_nonzero(labels == cur) == 0:
                labels[labels > cur] -= 1
            # symmetry: the mover's gain is granted back by the
            # clusters involved, so welfare rises by twice the gain
            potential += 2.0 * (value - stay)
            history.append(potential)
            moves += 1
            converged = False

    return HcgResult(
        partition=Partition.from_labels(labels),
        passes=passes,
        converged=converged,
        moves=moves,
        potential_history=history,
    )
