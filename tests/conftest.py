"""Shared fixtures: tiny hand-built instances with known arithmetic.

The toys here are small enough that every delay, energy, and utility
number asserted in the tests was worked out by hand (or by brute
enumeration) before being frozen into the test files.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from fogcache import (
    LinkRateTable,
    Scenario,
    SystemParams,
    build_rate_table,
    generate_scenario,
)
from fogcache._kernels import uniform_at

SRC = Path(__file__).resolve().parent.parent / "src"

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


def pull_rule(c, lam, u):
    """The move rule in plain floats: c + lam*(u - 1/2) - 1/2 >= 0.

    ``c`` is xj + beta*(xi - xj), already rounded; the operations run
    in this order, each rounded to a double.
    """
    arg = c + lam * (u - 0.5)
    arg = arg - 0.5
    return arg >= 0.0


def scalar_pull(xj, xi, beta, lam, key):
    """One pairwise firefly step, element by element in plain floats.

    Element e becomes 1 iff xj + beta*(xi - xj) + lam*(u - 1/2) - 1/2
    >= 0 with u = uniform_at(key, e).  For lam <= 1 equal elements are
    left alone, as they can never flip.
    """
    out = xj.copy()
    for e in range(xj.size):
        if lam <= 1.0 and xj[e] == xi[e]:
            continue
        u = float(uniform_at(key, np.array([e]))[0])
        a, b = float(xj[e]), float(xi[e])
        out[e] = 1 if pull_rule(a + beta * (b - a), lam, u) else 0
    return out


def users_of(scenario: Scenario, m: int) -> np.ndarray:
    """Indices of users whose local F-AP is m, in increasing order."""
    if not 0 <= m < scenario.params.num_faps:
        raise ValueError(f"F-AP index {m} out of range")
    return np.flatnonzero(scenario.local_fap == m)


def local_popularity(scenario: Scenario, m: int) -> np.ndarray:
    """Normalized content popularity among the users local to F-AP m.

    Sums the demand rows of m's users directly; the reference for
    :func:`fogcache.all_local_popularity`.  An F-AP with no local users
    gets the all-zero vector.
    """
    users = users_of(scenario, m)
    if users.size == 0:
        return np.zeros(scenario.params.num_contents)
    total = scenario.demand[users].sum(axis=0)
    return total / total.sum()


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
    scn = Scenario(
        params=params,
        fap_pos=fap,
        user_pos=usr,
        local_fap=local,
        demand=np.asarray(demand, dtype=np.float64),
        seed=0,
    )
    scn.validate()
    return scn


def make_rates(access, coop) -> LinkRateTable:
    rates = LinkRateTable(
        access=np.asarray(access, dtype=np.float64),
        coop=np.asarray(coop, dtype=np.float64),
    )
    rates.validate()
    return rates


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
    params = make_params(num_contents=3, user_density=None)
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
