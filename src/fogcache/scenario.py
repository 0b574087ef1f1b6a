"""Scenario generation: geometry, demand, and system parameters.

A scenario is a frozen random instance of the network: F-AP and user
positions on a square area, each user's nearest (local) F-AP, and a
per-user content request distribution built from a global Zipf ranking
with partially shuffled per-user rank orders.  Construction also builds
the per-F-AP demand aggregates that every later layer reads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from ._kernels import rng_for

__all__ = [
    "SystemParams",
    "Scenario",
    "zipf_distribution",
    "generate_scenario",
    "capacity_slots",
    "pairwise_distance",
]

_INTERFERENCE_MODES = ("constant", "geometric")
_INTRA_HOP_MODES = ("free", "charged")
_POSITIVE = ("content_size", "bw_access", "bw_coop", "noise", "cloud_power",
             "cloud_rate", "pathloss_alpha", "side_length", "dist_threshold",
             "min_distance")
_NON_NEGATIVE = ("capacity", "cache_coeff", "zipf_eta", "social_delta",
                 "interference_const")
_UNIT_INTERVAL = ("weight", "pref_shuffle")


def require_int(name: str, value, minimum: int) -> None:
    """Raise ValueError unless ``value`` is an integer (not a bool) >= ``minimum``."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < minimum
    ):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class SystemParams:
    """Physical and economic constants of the simulated network.

    All quantities are in SI base units: bits, seconds, watts, joules,
    meters, hertz.  Powers given in dBm or sizes in GB must be converted
    before construction (see :mod:`fogcache.config`).  Every float must
    be finite; NaN and infinity are rejected.
    """

    num_faps: int = 15
    num_users: int = 150
    num_contents: int = 1000
    content_size: float = 4.0e9  # bits (500 MB)
    capacity: float = 4.0e11  # bits per F-AP cache (50 GB)
    bw_access: float = 1.0e7  # Hz, F-AP to user
    bw_coop: float = 1.0e7  # Hz, F-AP to F-AP
    noise: float = 1.0e-13  # W (-100 dBm)
    fap_power: Union[float, Sequence[float]] = 39.810717055349734  # W (46 dBm)
    cloud_power: float = 39.810717055349734  # W
    cloud_rate: float = 1.0e8  # bit/s on the cloud backhaul
    pathloss_alpha: float = 4.0
    cache_coeff: float = 6.25e-12  # J per cached bit
    weight: float = 0.01  # objective mix, 1 = pure delay
    zipf_eta: float = 0.5
    side_length: float = 1000.0  # m
    social_delta: float = 1.0  # loss weight in the relationship score
    dist_threshold: float = 500.0  # m, relationship cutoff
    interference_mode: str = "constant"
    interference_const: float = 0.0  # W, used by the constant mode
    pref_shuffle: float = 0.3  # fraction of ranks permuted per user
    intra_cluster_hop: str = "free"
    min_distance: float = 1.0  # m, pathloss clamp

    def __post_init__(self):
        for name in ("num_faps", "num_users", "num_contents"):
            require_int(name, getattr(self, name), 1)
        # each bound is written so that NaN fails it, and inf is out of range
        for name in _POSITIVE:
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        for name in _NON_NEGATIVE:
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite")
        for name in _UNIT_INTERVAL:
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.interference_mode not in _INTERFERENCE_MODES:
            raise ValueError(f"interference_mode must be one of {_INTERFERENCE_MODES}")
        if self.intra_cluster_hop not in _INTRA_HOP_MODES:
            raise ValueError(f"intra_cluster_hop must be one of {_INTRA_HOP_MODES}")
        powers = self.fap_powers()
        finite_positive = np.isfinite(powers) & (powers > 0)
        if powers.shape != (self.num_faps,) or not finite_positive.all():
            raise ValueError(
                "fap_power must be a positive finite scalar or one such value per F-AP"
            )

    def fap_powers(self) -> np.ndarray:
        """Transmit power per F-AP as an array of shape (num_faps,)."""
        if np.isscalar(self.fap_power):
            return np.full(self.num_faps, float(self.fap_power))
        return np.asarray(self.fap_power, dtype=float)

    @property
    def effective_user_density(self) -> float:
        """Users per square meter."""
        return self.num_users / (self.side_length * self.side_length)


def capacity_slots(params: SystemParams) -> int:
    """Whole contents that fit in one cache, at most the library size."""
    return min(int(params.capacity // params.content_size), params.num_contents)


@dataclass(eq=False)
class Scenario:
    """One sampled network instance.

    ``demand_mass``, ``popularity`` and ``priority`` are derived from
    ``local_fap`` and ``demand`` on construction and are read-only;
    ``dataclasses.replace`` constructs anew, so they always match the
    demand they sit next to.
    """

    params: SystemParams
    fap_pos: np.ndarray  # (M, 2) meters
    user_pos: np.ndarray  # (U, 2) meters
    local_fap: np.ndarray  # (U,) index of each user's nearest F-AP
    demand: np.ndarray  # (U, F) request probabilities, rows sum to 1
    # (M, F) sum of request probabilities over each F-AP's local users
    demand_mass: np.ndarray = field(init=False, repr=False)
    # (M, F) rows of demand_mass normalized; zero rows for F-APs without users
    popularity: np.ndarray = field(init=False, repr=False)
    # (M, F) content ids of each row of popularity, most popular first,
    # the lower id first on ties
    priority: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        p = self.params
        if self.fap_pos.shape != (p.num_faps, 2):
            raise ValueError("fap_pos shape mismatch")
        if self.user_pos.shape != (p.num_users, 2):
            raise ValueError("user_pos shape mismatch")
        if self.local_fap.shape != (p.num_users,):
            raise ValueError("local_fap shape mismatch")
        if self.demand.shape != (p.num_users, p.num_contents):
            raise ValueError("demand shape mismatch")
        if np.any(self.local_fap < 0) or np.any(self.local_fap >= p.num_faps):
            raise ValueError("local_fap holds an out-of-range F-AP index")
        if np.any(self.demand < 0):
            raise ValueError("demand must be non-negative")
        if not np.allclose(self.demand.sum(axis=1), 1.0, rtol=0, atol=1e-9):
            raise ValueError("demand rows must each sum to 1")
        # rows added in user order, the order np.add.at adds in, so every
        # element is bit-identical to that aggregation
        mass = np.zeros((p.num_faps, p.num_contents))
        for u, m in enumerate(self.local_fap.tolist()):
            mass[m] += self.demand[u]
        sums = mass.sum(axis=1, keepdims=True)
        pop = np.zeros_like(mass)
        np.divide(mass, sums, out=pop, where=sums > 0)
        prio = np.argsort(-pop, axis=1, kind="stable")
        for a in (mass, pop, prio):
            a.flags.writeable = False
        self.demand_mass = mass
        self.popularity = pop
        self.priority = prio


def pairwise_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between point sets: out[i, j] = |a[i] - b[j]|."""
    dx = a[:, None, 0] - b[None, :, 0]
    dy = a[:, None, 1] - b[None, :, 1]
    return np.sqrt(dx * dx + dy * dy)


def zipf_distribution(eta: float, num_contents: int) -> np.ndarray:
    """Zipf probability over content ranks 1..F with exponent eta."""
    if num_contents < 1:
        raise ValueError("num_contents must be >= 1")
    if eta < 0:
        raise ValueError("eta must be non-negative")
    ranks = np.arange(1, num_contents + 1, dtype=float)
    weights = ranks ** (-eta)
    return weights / weights.sum()


def generate_scenario(params: SystemParams, seed: int) -> Scenario:
    """Sample geometry and demand for one deterministic instance.

    The same (params, seed) pair always yields the same scenario,
    independent of global RNG state.
    """
    rng = rng_for(seed, 0x5CE4)
    side = params.side_length
    m, u, f = params.num_faps, params.num_users, params.num_contents

    fap_pos = rng.uniform(0.0, side, size=(m, 2))
    user_pos = rng.uniform(0.0, side, size=(u, 2))

    # nearest F-AP; argmin takes the lowest index on ties
    local_fap = np.argmin(pairwise_distance(user_pos, fap_pos), axis=1).astype(np.int64)

    base = zipf_distribution(params.zipf_eta, f)
    k_shuffle = int(params.pref_shuffle * f)
    demand = np.empty((u, f))
    for i in range(u):
        ranking = np.arange(f)
        if k_shuffle >= 2:
            pos = rng.choice(f, size=k_shuffle, replace=False)
            ranking[pos] = ranking[pos][rng.permutation(k_shuffle)]
        # content at rank position r receives the r-th Zipf mass
        demand[i, ranking] = base
    return Scenario(
        params=params,
        fap_pos=fap_pos,
        user_pos=user_pos,
        local_fap=local_fap,
        demand=demand,
    )
