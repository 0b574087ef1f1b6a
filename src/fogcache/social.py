"""Social ties between F-APs: contact, similarity, loss, and the mutual
utility matrix that drives clustering.

Two F-APs are socially close when their local user groups meet often
(a distance-driven contact model) and want similar content (Pearson
correlation of local popularity).  Cooperation also carries a cost:
caching for a neighbor and shipping contents over the fronthaul.  The
relationship score nets the two, decays with F-AP distance, and is cut
off beyond a threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .radio import LinkRateTable
from .scenario import Scenario, pairwise_distance

__all__ = [
    "SocialGraph",
    "build_social_graph",
]


@dataclass(frozen=True)
class SocialGraph:
    """Symmetric mutual-utility matrix plus the intermediate layers.

    ``mutual[m, n]`` is the benefit m and n grant each other when they
    share a cluster; the diagonal is zero.  The intermediate matrices
    are kept for inspection and export and may be absent on graphs
    built directly from a matrix.
    """

    mutual: np.ndarray  # (M, M), finite, symmetric, zero diagonal
    contact: Optional[np.ndarray] = None  # expected pair contacts
    similarity: Optional[np.ndarray] = None  # popularity correlation
    gain: Optional[np.ndarray] = None  # contact * similarity
    loss: Optional[np.ndarray] = None  # cooperation cost, joules
    relation: Optional[np.ndarray] = None  # directed netted score

    @property
    def num_faps(self) -> int:
        return self.mutual.shape[0]

    def __post_init__(self):
        mutual = self.mutual
        if mutual.ndim != 2 or mutual.shape[0] != mutual.shape[1]:
            raise ValueError("mutual matrix must be square")
        if not np.all(np.isfinite(mutual)):
            raise ValueError("mutual matrix must be finite")
        if not np.allclose(mutual, mutual.T):
            raise ValueError("mutual matrix must be symmetric")
        if np.any(np.diagonal(mutual) != 0):
            raise ValueError("mutual matrix must have a zero diagonal")

    @classmethod
    def from_mutual(cls, mutual: np.ndarray) -> "SocialGraph":
        return cls(mutual=np.asarray(mutual, dtype=float))


def build_social_graph(
    scenario: Scenario,
    rates: LinkRateTable,
) -> SocialGraph:
    """Assemble the full social graph for a scenario.

    The mutual utility of a pair is the sum of the two directed
    relationship scores, so the matrix is symmetric by construction.
    """
    params = scenario.params
    m_count = params.num_faps
    density = params.effective_user_density
    powers = params.fap_powers()

    # expected contacts between every pair of user groups
    dist_uu = pairwise_distance(scenario.user_pos, scenario.user_pos)
    meet = 1.0 - np.exp(-density * math.pi * dist_uu * dist_uu)
    membership = np.zeros((m_count, params.num_users))
    membership[scenario.local_fap, np.arange(params.num_users)] = 1.0
    contact = membership @ meet @ membership.T

    # popularity correlation; degenerate rows contribute zero
    pop = scenario.popularity
    centered = pop - pop.mean(axis=1, keepdims=True)
    cov = (centered @ centered.T) / params.num_contents
    std = np.sqrt(np.diagonal(cov))
    denom = std[:, None] * std[None, :]
    similarity = np.zeros((m_count, m_count))
    np.divide(cov, denom, out=similarity, where=denom > 0)

    gain = contact * similarity

    user_counts = np.bincount(scenario.local_fap, minlength=m_count).astype(float)
    demand_mass = np.bincount(
        scenario.local_fap, weights=scenario.demand.sum(axis=1), minlength=m_count
    )
    inv_coop = np.zeros_like(rates.coop)
    np.divide(1.0, rates.coop, out=inv_coop, where=rates.coop > 0)
    fronthaul = params.num_contents * user_counts[:, None] * powers[:, None] * inv_coop
    loss = params.content_size * (
        params.cache_coeff * demand_mass[:, None] + fronthaul
    )
    np.fill_diagonal(loss, 0.0)

    dist_ff = pairwise_distance(scenario.fap_pos, scenario.fap_pos)
    relation = np.where(
        dist_ff <= params.dist_threshold,
        np.exp(-dist_ff / params.dist_threshold) * (gain - params.social_delta * loss),
        0.0,
    )
    np.fill_diagonal(relation, 0.0)

    mutual = relation + relation.T
    np.fill_diagonal(mutual, 0.0)
    return SocialGraph(
        mutual=mutual,
        contact=contact,
        similarity=similarity,
        gain=gain,
        loss=loss,
        relation=relation,
    )
