"""Shared fixtures and references: tiny hand-built instances with known
arithmetic, and plain-loop reference models of the vectorised code.

The toys here are small enough that every delay, energy, and utility
number asserted in the tests was worked out by hand (or by brute
enumeration) before being frozen into the test files.
"""

import os
from pathlib import Path
from typing import Optional, Tuple

import numpy as np
import pytest

from fogcache import (
    LinkRateTable,
    Partition,
    Scenario,
    SocialGraph,
    SystemParams,
    build_rate_table,
    generate_scenario,
)
from fogcache._kernels import _draws, _move_packed, _step_batch, mix64

SRC = Path(__file__).resolve().parent.parent / "src"

GOLDEN = 0x9E3779B97F4A7C15  # the splitmix64 increment of the kernels' draws

# the acceptance tests append one verdict line per gate; echoed at the end
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance gates")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def subprocess_env(**extra) -> dict:
    """Environment for a child Python that imports fogcache from this checkout.

    The absolute ``src`` directory leads PYTHONPATH, followed by any
    existing entries, so the child finds the package whatever its
    working directory and however the suite itself found it.
    """
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def flat_order(prio):
    """The repair kernel's order: row m's content ids ``prio[m]`` as
    indices into the flattened placement."""
    prio = np.asarray(prio, dtype=np.int64)
    return prio + np.arange(0, prio.size, prio.shape[1])[:, None]


def uniform_at(key, idx) -> np.ndarray:
    """The kernels' draws at the given flat element indices, as uniforms
    in [0, 1): the 53-bit draw ``mix64(key + (e + 1) * golden) >> 11`` of
    index e, times 2**-53.  It depends only on ``(key, e)``.  ``key`` may
    be an array of keys; it broadcasts against ``idx``.
    """
    idx = np.asarray(idx)
    return _draws(key, int(idx.max(initial=0)) + 1, idx) * 2.0**-53


def law_chances(beta, lam):
    """The move's per-bit law in plain floats: ``(p, q)``.

    p is the chance that an element which differs from the peer takes
    the peer's value, ``clip(1/2 + (beta - 1/2) / lam, 0, 1)``; at
    lam = 0 it takes iff beta >= 1/2.  q is the chance that an element
    which agrees with the peer flips, ``max(0, 1/2 - 1/(2 lam))``.
    """
    if lam == 0.0:
        return (1.0 if beta >= 0.5 else 0.0), 0.0
    p = min(max(0.5 + (beta - 0.5) / lam, 0.0), 1.0)
    return p, max(0.0, 0.5 - 1.0 / (2.0 * lam))


def law_step(xj, xi, beta, lam, key):
    """One pairwise firefly step by its per-bit law, element by element.

    Element e changes iff its draw ``mix64(key + (e + 1) * golden) >> 11``
    is below ``int(P * 2**53)``, with P = p where xj and xi differ and
    P = q where they agree (:func:`law_chances`).  The draws go through
    the pure-Python :func:`mix64`.
    """
    p, q = law_chances(beta, lam)
    out = xj.copy()
    for e in range(xj.size):
        chance = p if xj[e] != xi[e] else q
        if mix64(key + (e + 1) * GOLDEN) >> 11 < int(chance * 2**53):
            out[e] ^= 1
    return out


def packed_move(swarm, j, peers, pull, gamma, lam, keys):
    """The move of the optimizer's packed search, on the move kernel's
    arguments: pack the rows of ``swarm`` (at most 63 entries) into
    ints, draw every step in one :func:`_step_batch`, run the step loop
    :func:`_move_packed` and write the result back to ``swarm[j]``."""
    if swarm.dtype != np.uint8:
        raise ValueError("move needs a uint8 swarm")
    weight = np.left_shift(1, np.arange(swarm.shape[1]))
    rows = (swarm @ weight).tolist()
    z, k, masks = _step_batch(keys, pull, swarm.shape[1], gamma, lam)
    x = _move_packed(rows[j], [rows[i] for i in peers.tolist()], masks, z, k)
    swarm[j] = (x >> np.arange(swarm.shape[1])) & 1


def users_of(scenario: Scenario, m: int) -> np.ndarray:
    """Indices of users whose local F-AP is m, in increasing order."""
    if not 0 <= m < scenario.params.num_faps:
        raise ValueError(f"F-AP index {m} out of range")
    return np.flatnonzero(scenario.local_fap == m)


def local_popularity(scenario: Scenario, m: int) -> np.ndarray:
    """Normalized content popularity among the users local to F-AP m.

    Sums the demand rows of m's users directly; the reference for
    :attr:`fogcache.Scenario.popularity`.  An F-AP with no local users
    gets the all-zero vector.
    """
    users = users_of(scenario, m)
    if users.size == 0:
        return np.zeros(scenario.params.num_contents)
    total = scenario.demand[users].sum(axis=0)
    return total / total.sum()


def cluster_has(x: np.ndarray, partition: Partition, k: int, f: int) -> int:
    """1 when any member of cluster k caches content f, else 0."""
    members = partition.clusters[k]
    return int(np.any(x[members, f]))


def _best_holder(
    rates: LinkRateTable, x: np.ndarray, m: int, f: int,
    members: Optional[np.ndarray] = None,
) -> int:
    """Holder of f with the best fronthaul rate toward m (lowest index on
    ties); -1 when nobody holds it.  ``members`` restricts candidates."""
    cand = np.nonzero(x[:, f])[0] if members is None else members[x[members, f] > 0]
    best, best_rate = -1, -np.inf
    for n in cand:
        n = int(n)
        if n == m:
            continue
        r = rates.coop[m, n]
        if r > best_rate:
            best, best_rate = n, r
    return best


def delay_components(
    scenario: Scenario,
    rates: LinkRateTable,
    x: np.ndarray,
    partition: Partition,
    u: int,
    f: int,
) -> Tuple[float, float, float]:
    """The three mutually exclusive delay terms for one request.

    Returns (local_cluster, other_cluster, cloud); exactly one is
    nonzero for any placement.  Indicator arithmetic is kept literal:
    the local term carries x_k, the other two carry (1 - x_k) times the
    complementary product over all clusters.
    """
    params = scenario.params
    size = params.content_size
    m = int(scenario.local_fap[u])
    k = partition.cluster_of(m)
    r_mu = rates.access[m, u]

    x_local = cluster_has(x, partition, k, f)
    prod_none = 1
    for kk in range(partition.num_clusters):
        prod_none *= 1 - cluster_has(x, partition, kk, f)

    t_local = x_local * size / r_mu
    if params.intra_cluster_hop == "charged" and x_local and not x[m, f]:
        neighbor = _best_holder(rates, x, m, f, members=partition.clusters[k])
        t_local += size / rates.coop[m, neighbor]

    ind_other = (1 - x_local) * (1 - prod_none)
    if ind_other:
        holder = _best_holder(rates, x, m, f)
        t_other = ind_other * size * (1.0 / rates.coop[m, holder] + 1.0 / r_mu)
    else:
        t_other = 0.0

    t_cloud = (1 - x_local) * prod_none * size * (
        1.0 / params.cloud_rate + 1.0 / r_mu
    )
    return float(t_local), float(t_other), float(t_cloud)


def energy_components(
    scenario: Scenario,
    rates: LinkRateTable,
    x: np.ndarray,
    partition: Partition,
    u: int,
    f: int,
) -> Tuple[float, float, float]:
    """Energy analog of :func:`delay_components`."""
    params = scenario.params
    size = params.content_size
    powers = params.fap_powers()
    m = int(scenario.local_fap[u])
    k = partition.cluster_of(m)
    r_mu = rates.access[m, u]
    p_m = powers[m]

    x_local = cluster_has(x, partition, k, f)
    prod_none = 1
    for kk in range(partition.num_clusters):
        prod_none *= 1 - cluster_has(x, partition, kk, f)

    e_local = x_local * p_m * size / r_mu
    if params.intra_cluster_hop == "charged" and x_local and not x[m, f]:
        neighbor = _best_holder(rates, x, m, f, members=partition.clusters[k])
        e_local += p_m * size / rates.coop[m, neighbor]

    ind_other = (1 - x_local) * (1 - prod_none)
    if ind_other:
        holder = _best_holder(rates, x, m, f)
        e_other = ind_other * p_m * size * (
            1.0 / rates.coop[m, holder] + 1.0 / r_mu
        )
    else:
        e_other = 0.0

    e_cloud = (1 - x_local) * prod_none * size * (
        params.cloud_power / params.cloud_rate + p_m / r_mu
    )
    return float(e_local), float(e_other), float(e_cloud)


def request_delay(scenario, rates, x, partition, u: int, f: int) -> float:
    """Delay for user u requesting content f under placement x."""
    return sum(delay_components(scenario, rates, x, partition, u, f))


def request_energy(scenario, rates, x, partition, u: int, f: int) -> float:
    """Transmission energy for user u requesting content f."""
    return sum(energy_components(scenario, rates, x, partition, u, f))


def request_totals(scenario, rates, x, partition):
    """(delay, energy, objective) of placement x as demand-weighted sums
    of :func:`request_delay` and :func:`request_energy` over every
    (user, content) pair, plus the caching energy of the cached bits:
    the reference for :class:`fogcache.PlacementEvaluator`."""
    params = scenario.params
    delay = 0.0
    energy = params.cache_coeff * params.content_size * float(np.count_nonzero(x))
    for u in range(params.num_users):
        for f in range(params.num_contents):
            p = scenario.demand[u, f]
            delay += p * request_delay(scenario, rates, x, partition, u, f)
            energy += p * request_energy(scenario, rates, x, partition, u, f)
    mu = params.weight
    return delay, energy, mu * delay + (1.0 - mu) * energy


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


def make_params(**overrides) -> SystemParams:
    """Toy-friendly parameter set: unit-ish numbers, no interference
    (the default constant interference of 0 W)."""
    base = dict(
        num_faps=2,
        num_users=2,
        num_contents=2,
        content_size=1.0e6,
        capacity=1.0e6,  # one slot
        bw_access=1.0e7,
        bw_coop=1.0e7,
        noise=1.0e-13,
        fap_power=10.0,
        cloud_power=20.0,
        cloud_rate=5.0e5,
        cache_coeff=6.25e-12,
        weight=0.01,
        zipf_eta=0.5,
        side_length=1000.0,
    )
    base.update(overrides)
    return SystemParams(**base)


def make_scenario(params: SystemParams, fap_pos, user_pos, demand) -> Scenario:
    """Assemble a Scenario from explicit geometry and demand."""
    fap = np.asarray(fap_pos, dtype=np.float64).reshape(params.num_faps, 2)
    usr = np.asarray(user_pos, dtype=np.float64).reshape(params.num_users, 2)
    d2 = ((usr[:, None, :] - fap[None, :, :]) ** 2).sum(axis=2)
    local = d2.argmin(axis=1).astype(np.int64)
    return Scenario(
        params=params,
        fap_pos=fap,
        user_pos=usr,
        local_fap=local,
        demand=np.asarray(demand, dtype=np.float64),
    )


def make_rates(access, coop) -> LinkRateTable:
    return LinkRateTable(
        access=np.asarray(access, dtype=np.float64),
        coop=np.asarray(coop, dtype=np.float64),
    )


@pytest.fixture
def toy2():
    """Two F-APs, one local user each, two contents, one slot per cache.

    Access rates (bit/s, [m, u]): [[2e6, 1e6], [1e6, 4e6]]
    Fronthaul rates ([m, n]):     [[0,   1e6], [2e6, 0  ]]
    Demand: user 0 -> [.7, .3], user 1 -> [.2, .8]
    """
    params = make_params()
    scn = make_scenario(
        params,
        fap_pos=[[0.0, 0.0], [500.0, 0.0]],
        user_pos=[[10.0, 0.0], [490.0, 0.0]],
        demand=[[0.7, 0.3], [0.2, 0.8]],
    )
    rates = make_rates(
        access=[[2.0e6, 1.0e6], [1.0e6, 4.0e6]],
        coop=[[0.0, 1.0e6], [2.0e6, 0.0]],
    )
    return scn, rates


@pytest.fixture
def social_toy():
    """Two F-APs 300 m apart, one user each, anti-correlated demand.

    The demand rows are chosen so the popularity similarity is exactly
    -13/14, and the geometry sits inside the 500 m relationship cutoff.
    """
    params = make_params(num_contents=3)
    scn = make_scenario(
        params,
        fap_pos=[[0.0, 0.0], [300.0, 0.0]],
        user_pos=[[0.0, 0.0], [300.0, 0.0]],
        demand=[[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]],
    )
    rates = make_rates(
        access=[[1.0e6, 1.0e6], [1.0e6, 1.0e6]],
        coop=[[0.0, 2.0e6], [1.0e6, 0.0]],
    )
    return scn, rates


@pytest.fixture(scope="session")
def small_instance():
    """Generated 3-FAP, 9-user, 6-content instance with 2 slots."""
    params = SystemParams(
        num_faps=3,
        num_users=9,
        num_contents=6,
        content_size=4.0e9,
        capacity=8.0e9,
        zipf_eta=0.7,
        weight=0.01,
    )
    scn = generate_scenario(params, seed=0)
    rates = build_rate_table(scn)
    return scn, rates
