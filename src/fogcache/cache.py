"""Cache placement model: feasibility and the delay/energy objective.

A placement is a binary matrix X of shape (M, F); X[m, f] = 1 means
F-AP m caches content f.  Row sums are limited by the cache capacity.
Each user request falls into exactly one service regime:

* hit inside the user's local cluster: one access-link transfer;
* hit in some other cluster: one fronthaul hop from the best-rate
  holder plus the access-link transfer;
* miss everywhere: a cloud fetch plus the access-link transfer.

Energy mirrors delay (transmit power times transfer time) plus a
placement-wide caching energy proportional to the number of cached
bits.  The scalar objective blends delay and energy with weight ``mu``:
``mu * delay + (1 - mu) * energy``.

The objective is a constant plus one share per content that depends
only on the content's column of X: the evaluator's ``const_objective``
and ``column_costs``, which every scheme that works on columns reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .radio import LinkRateTable
from .scenario import Scenario, SystemParams, capacity_slots

__all__ = [
    "Partition",
    "EvalResult",
    "new_placement",
    "capacity_slots",
    "feasible",
    "caching_energy",
    "PlacementEvaluator",
]


class Partition:
    """A disjoint, exhaustive grouping of the F-APs into clusters.

    Clusters are kept in canonical form: members sorted ascending and
    clusters ordered by their smallest member, so two partitions with
    the same grouping compare equal.
    """

    def __init__(self, clusters: Iterable[Iterable[int]], num_faps: int):
        raw = [sorted(int(m) for m in c) for c in clusters]
        raw = [c for c in raw if c]
        raw.sort(key=lambda c: c[0])
        seen: set = set()
        for c in raw:
            for m in c:
                if not 0 <= m < num_faps:
                    raise ValueError(f"F-AP index {m} out of range")
                if m in seen:
                    raise ValueError(f"F-AP {m} appears in more than one cluster")
                seen.add(m)
        if len(seen) != num_faps:
            missing = sorted(set(range(num_faps)) - seen)
            raise ValueError(f"F-APs {missing} belong to no cluster")
        self.num_faps = num_faps
        self.clusters: List[np.ndarray] = [np.asarray(c, dtype=np.int64) for c in raw]
        member_of = np.empty(num_faps, dtype=np.int64)
        for k, c in enumerate(self.clusters):
            member_of[c] = k
        self.member_of = member_of

    @classmethod
    def singletons(cls, num_faps: int) -> "Partition":
        return cls([[m] for m in range(num_faps)], num_faps)

    @classmethod
    def whole_set(cls, num_faps: int) -> "Partition":
        return cls([list(range(num_faps))], num_faps)

    @classmethod
    def from_labels(cls, labels: Sequence[int]) -> "Partition":
        labels = np.asarray(labels)
        groups: dict = {}
        for m, lab in enumerate(labels):
            groups.setdefault(int(lab), []).append(m)
        return cls(list(groups.values()), len(labels))

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    def cluster_of(self, m: int) -> int:
        return int(self.member_of[m])

    def to_lists(self) -> List[List[int]]:
        return [c.tolist() for c in self.clusters]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.num_faps == other.num_faps and self.to_lists() == other.to_lists()

    def __repr__(self) -> str:
        return f"Partition({self.to_lists()})"


@dataclass(frozen=True)
class EvalResult:
    """Total delay (s), total energy (J) and the blended objective."""

    delay: float
    energy: float
    objective: float


def new_placement(params: SystemParams) -> np.ndarray:
    """Empty placement matrix of the right shape and dtype."""
    return np.zeros((params.num_faps, params.num_contents), dtype=np.uint8)


def feasible(x: np.ndarray, params: SystemParams) -> bool:
    """True when no F-AP caches more contents than its
    :func:`~fogcache.scenario.capacity_slots`."""
    return bool(np.all(np.count_nonzero(x, axis=1) <= capacity_slots(params)))


def caching_energy(x: np.ndarray, params: SystemParams) -> float:
    """Energy spent holding the cached bits of placement x."""
    return params.cache_coeff * params.content_size * float(np.count_nonzero(x))


# weights that read up to 8 binary rows as the bits of one byte
_BIT_WEIGHTS = 1 << np.arange(8, dtype=np.uint8)


class PlacementEvaluator:
    """Demand-weighted expected delay/energy/objective for placements.

    The access-link transfer appears in every service regime, so its
    demand-weighted total is a placement-independent constant.  What
    remains varies only with (local F-AP, content), so per-user demand
    is aggregated once into a (M, F) mass and each evaluation reduces to
    a surcharge lookup.  This matches the per-request sum exactly up to
    float roundoff.

    The surcharge of (F-AP m, content f) depends only on which holder of
    f comes first in m's preference order: m itself, then the other
    members of m's cluster, then every other F-AP, each group by
    fronthaul rate from m, fastest first, lower index on ties.  The
    first holder is the best-rate holder of the regime the request
    lands in, so two kinds of small table, built once, give every
    surcharge exactly:

    * the delay and energy surcharge of each (F-AP m, rank r), flat at
      ``m * (M + 1) + r``, where rank M stands for "no holder" (a cloud
      fetch);
    * for each chunk of w <= 8 F-AP rows, an (M, 2**w) table that
      holds, for every bit code of the chunk's rows of a column, the
      flat index of the least rank among the chunk's F-APs set in it.

    An evaluation packs each chunk of a column into one byte, takes the
    least index over the chunks and gathers both surcharges there.
    """

    def __init__(
        self,
        scenario: Scenario,
        rates: LinkRateTable,
        partition: Partition,
    ):
        params = scenario.params
        self.scenario = scenario
        self.rates = rates
        self.partition = partition
        self.mass = scenario.demand_mass
        powers = params.fap_powers()
        size = params.content_size

        local = scenario.local_fap
        users = np.arange(params.num_users)
        access = rates.access[local, users]
        self.const_delay = float(np.sum(size / access))
        self.const_energy = float(np.sum(powers[local] * size / access))
        self.const_objective = self._blend(self.const_delay, self.const_energy)

        n_faps = params.num_faps
        ids = np.arange(n_faps)
        rows = ids[:, None]
        # preference group of holder n for F-AP m: self, own cluster, other
        member_of = partition.member_of
        group = np.where(member_of[:, None] == member_of, 1, 2)
        group[ids, ids] = 0
        order = np.lexsort((-rates.coop, group), axis=-1)  # holder by rank
        hop = group[rows, order] == 2
        if params.intra_cluster_hop == "charged":
            hop |= group[rows, order] == 1
        m, r = np.nonzero(hop)
        rate = rates.coop[m, order[m, r]]
        extra_t = np.zeros((n_faps, n_faps + 1))
        extra_e = np.zeros((n_faps, n_faps + 1))
        extra_t[m, r] = size / rate
        extra_e[m, r] = (powers[m] * size) / rate
        extra_t[:, n_faps] = size / params.cloud_rate
        extra_e[:, n_faps] = (params.cloud_power * size) / params.cloud_rate
        # delay over energy, so that one take gathers both
        self._extra = np.stack([extra_t.ravel(), extra_e.ravel()])

        flat = np.empty((n_faps, n_faps), dtype=np.intp)
        flat[rows, order] = rows * (n_faps + 1) + ids
        self._first_holder = []
        for lo in range(0, n_faps, 8):
            # column `code` holds the least flat index among the F-APs
            # whose bit is set in it, "no holder" when none is; each row
            # n appended doubles the codes
            table = rows * (n_faps + 1) + n_faps
            for n in range(lo, min(lo + 8, n_faps)):
                table = np.hstack([table, np.minimum(table, flat[:, n, None])])
            self._first_holder.append(table)

    def surcharges(self, columns: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Delay and energy surcharge over the access hop, per (F-AP, column).

        ``columns`` is any binary matrix with one row per F-AP; each
        column is read as the holders of one content.
        """
        columns = np.asarray(columns, dtype=np.uint8)
        first = None
        for lo, table in zip(range(0, len(columns), 8), self._first_holder):
            chunk = columns[lo:lo + 8]
            held = table.take(_BIT_WEIGHTS[:len(chunk)] @ chunk, axis=1)
            first = held if first is None else np.minimum(first, held, out=first)
        extra = self._extra.take(first, axis=1)
        return extra[0], extra[1]

    def column_costs(self, columns: np.ndarray) -> np.ndarray:
        """Objective share of each (content, column), shape (F, P).

        ``columns`` is read as :meth:`surcharges` reads it.  The share is
        the blended surcharge of the content's demand plus the energy of
        holding the column's copies.  Pass many columns in chunks.
        """
        params = self.scenario.params
        columns = np.asarray(columns, dtype=np.uint8)
        extra_t, extra_e = self.surcharges(columns)
        # demand-weighted sums over F-APs: (M, F) x (M, P) -> (F, P)
        delay = np.einsum("mf,mp->fp", self.mass, extra_t)
        energy = np.einsum("mf,mp->fp", self.mass, extra_e)
        energy += params.cache_coeff * params.content_size * columns.sum(axis=0)
        return self._blend(delay, energy)

    def evaluate(self, x: np.ndarray) -> EvalResult:
        params = self.scenario.params
        x = np.ascontiguousarray(x, dtype=np.uint8)
        extra_t, extra_e = self.surcharges(x)
        delay = self.const_delay + float((self.mass * extra_t).sum())
        energy = (
            caching_energy(x, params)
            + self.const_energy
            + float((self.mass * extra_e).sum())
        )
        return EvalResult(delay, energy, self._blend(delay, energy))

    def _blend(self, delay, energy):
        """The objective's delay/energy mix, for scalars or arrays."""
        mu = self.scenario.params.weight
        return mu * delay + (1.0 - mu) * energy

