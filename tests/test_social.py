"""Social graph: contact, similarity, loss, and the mutual utility matrix.

The frozen numbers come from hand-composing the formulas on the
social_toy fixture (two F-APs 300 m apart, one user each, demand rows
with Pearson correlation exactly -13/14).

The scalar functions below compute one pair at a time, straight from
the formulas; they are the reference that the vectorised
``build_social_graph`` is checked against.
"""

import math
from typing import Iterable, Optional

import numpy as np
import pytest

from fogcache import (
    LinkRateTable,
    Scenario,
    SocialGraph,
    SystemParams,
    build_rate_table,
    build_social_graph,
    generate_scenario,
)

from conftest import (
    local_popularity,
    make_params,
    make_rates,
    make_scenario,
    users_of,
)


# ---------------------------------------------------------------------------
# scalar reference pipeline


def contact_probability(distance: float, density: float) -> float:
    """Chance that two users within ``distance`` of each other meet.

    Grows from 0 with distance and saturates below 1.
    """
    if distance < 0:
        raise ValueError("distance must be non-negative")
    if density < 0:
        raise ValueError("density must be non-negative")
    return 1.0 - math.exp(-density * math.pi * distance * distance)


def pair_contact(scenario: Scenario, m: int, n: int) -> float:
    """Expected number of contacts between the user groups of m and n.

    Sums the contact probability over every cross pair, so the value
    can exceed 1 for well-populated groups; either group empty gives 0.
    """
    users_m = users_of(scenario, m)
    users_n = users_of(scenario, n)
    if users_m.size == 0 or users_n.size == 0:
        return 0.0
    density = scenario.params.effective_user_density
    pos_m = scenario.user_pos[users_m]
    pos_n = scenario.user_pos[users_n]
    diff = pos_m[:, None, :] - pos_n[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    return float(np.sum(1.0 - np.exp(-density * math.pi * dist * dist)))


def popularity_similarity(scenario: Scenario, m: int, n: int) -> float:
    """Correlation between the local popularity profiles of m and n.

    Uses the Pearson coefficient (covariance over the product of
    standard deviations); a profile with no spread, including that of
    an F-AP with no users, yields 0.
    """
    s_m = local_popularity(scenario, m)
    s_n = local_popularity(scenario, n)
    var_m = float(np.var(s_m))
    var_n = float(np.var(s_n))
    if var_m == 0.0 or var_n == 0.0:
        return 0.0
    cov = float(np.mean((s_m - s_m.mean()) * (s_n - s_n.mean())))
    return cov / math.sqrt(var_m * var_n)


def social_loss(scenario: Scenario, rates: LinkRateTable, m: int, n: int) -> float:
    """Cost (J) F-AP m expects from cooperating with F-AP n.

    Covers caching on behalf of m's users plus pushing every content
    once over the m-to-n fronthaul for each of them; an F-AP with no
    users loses nothing.
    """
    if m == n:
        raise ValueError("cooperation loss is defined between distinct F-APs")
    params = scenario.params
    users_m = users_of(scenario, m)
    if users_m.size == 0:
        return 0.0
    demand_sum = float(scenario.demand[users_m].sum())
    p_m = params.fap_powers()[m]
    fronthaul = params.num_contents * users_m.size * p_m / rates.coop[m, n]
    return params.content_size * (params.cache_coeff * demand_sum + fronthaul)


def social_relationship(
    scenario: Scenario,
    rates: LinkRateTable,
    m: int,
    n: int,
    delta: Optional[float] = None,
) -> float:
    """Directed relationship score of m toward n.

    Gain (contact times similarity) minus ``delta`` times the
    cooperation loss, damped by distance; zero beyond the cutoff.
    """
    if m == n:
        return 0.0
    params = scenario.params
    if delta is None:
        delta = params.social_delta
    d = float(
        np.hypot(
            scenario.fap_pos[m, 0] - scenario.fap_pos[n, 0],
            scenario.fap_pos[m, 1] - scenario.fap_pos[n, 1],
        )
    )
    if d > params.dist_threshold:
        return 0.0
    gain = pair_contact(scenario, m, n) * popularity_similarity(scenario, m, n)
    loss = social_loss(scenario, rates, m, n)
    return math.exp(-d / params.dist_threshold) * (gain - delta * loss)


def cluster_preference(graph: SocialGraph, m: int, members: Iterable[int]) -> float:
    """Utility F-AP m derives from sitting in a cluster with ``members``.

    Sums mutual utility toward each member; m itself may appear in the
    iterable and contributes zero.  The empty cluster is worth 0.
    """
    idx = np.asarray(list(members), dtype=np.int64)
    if idx.size == 0:
        return 0.0
    return float(np.sum(graph.mutual[m, idx]))


# frozen hand values for social_toy (see conftest docstring)
CONTACT_300 = 0.43191639412226557
SIM = -13.0 / 14.0
GAIN = CONTACT_300 * SIM
LOSS_01 = 15.00000625
LOSS_10 = 30.00000625
PSI_01 = -8.452287232760474
PSI_10 = -16.68446177417087


# ---------------------------------------------------------------------------
# contact probability


def test_contact_zero_distance():
    assert contact_probability(0.0, 1e-4) == 0.0


def test_contact_half_at_ln2():
    # lambda * pi * d^2 = ln 2
    d = 1.0
    lam = math.log(2.0) / math.pi
    assert contact_probability(d, lam) == pytest.approx(0.5, rel=1e-12)


def test_contact_reference_point():
    assert contact_probability(100.0, 1e-4) == pytest.approx(
        0.9567860817362277, rel=1e-12
    )


def test_contact_monotone_and_bounded():
    vals = [contact_probability(d, 1e-5) for d in (0.0, 50.0, 200.0, 5000.0)]
    assert vals == sorted(vals)
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert vals[2] < 1.0  # only saturates in the flat tail


def test_contact_rejects_negative():
    with pytest.raises(ValueError):
        contact_probability(-1.0, 1e-4)
    with pytest.raises(ValueError):
        contact_probability(1.0, -1e-4)


# ---------------------------------------------------------------------------
# pair contact and similarity


def test_pair_contact_single_pair(social_toy):
    scn, _ = social_toy
    # one user each, 300 m apart, density 2 users / km^2
    assert pair_contact(scn, 0, 1) == pytest.approx(CONTACT_300, rel=1e-12)
    assert pair_contact(scn, 1, 0) == pytest.approx(CONTACT_300, rel=1e-12)


def test_pair_contact_empty_group():
    params = make_params(num_users=1)
    scn = make_scenario(
        params,
        fap_pos=[[0.0, 0.0], [400.0, 0.0]],
        user_pos=[[10.0, 0.0]],
        demand=[[0.6, 0.4]],
    )
    assert pair_contact(scn, 0, 1) == 0.0


def test_pair_contact_sums_cross_pairs():
    params = make_params(num_users=4, num_contents=2)
    scn = make_scenario(
        params,
        fap_pos=[[0.0, 0.0], [500.0, 0.0]],
        user_pos=[[0.0, 0.0], [100.0, 0.0], [500.0, 0.0], [400.0, 0.0]],
        demand=[[0.5, 0.5]] * 4,
    )
    lam = scn.params.effective_user_density
    expected = sum(
        contact_probability(abs(a - b), lam)
        for a in (0.0, 100.0)
        for b in (500.0, 400.0)
    )
    assert pair_contact(scn, 0, 1) == pytest.approx(expected, rel=1e-12)


def test_similarity_reference_value(social_toy):
    scn, _ = social_toy
    assert popularity_similarity(scn, 0, 1) == pytest.approx(SIM, rel=1e-12)


def test_similarity_self_and_anticorrelated():
    params = make_params(num_users=2, num_contents=3)
    scn = make_scenario(
        params,
        fap_pos=[[0.0, 0.0], [100.0, 0.0]],
        user_pos=[[0.0, 0.0], [100.0, 0.0]],
        demand=[[0.5, 0.3, 0.2], [0.5, 0.3, 0.2]],
    )
    assert popularity_similarity(scn, 0, 1) == pytest.approx(1.0, rel=1e-12)
    # second profile is 0.5 - 0.5 * first: a decreasing affine transform
    anti = make_scenario(
        params,
        fap_pos=[[0.0, 0.0], [100.0, 0.0]],
        user_pos=[[0.0, 0.0], [100.0, 0.0]],
        demand=[[0.5, 0.3, 0.2], [0.25, 0.35, 0.4]],
    )
    assert popularity_similarity(anti, 0, 1) == pytest.approx(-1.0, rel=1e-12)


def test_similarity_zero_spread_is_zero():
    params = make_params(num_users=2, num_contents=3)
    scn = make_scenario(
        params,
        fap_pos=[[0.0, 0.0], [100.0, 0.0]],
        user_pos=[[0.0, 0.0], [100.0, 0.0]],
        demand=[[1 / 3, 1 / 3, 1 / 3], [0.5, 0.3, 0.2]],
    )
    assert popularity_similarity(scn, 0, 1) == 0.0


# ---------------------------------------------------------------------------
# loss and relationship


def test_social_loss_hand_values(social_toy):
    scn, rates = social_toy
    assert social_loss(scn, rates, 0, 1) == pytest.approx(LOSS_01, rel=1e-12)
    assert social_loss(scn, rates, 1, 0) == pytest.approx(LOSS_10, rel=1e-12)


def test_social_loss_single_user_two_contents():
    params = make_params(num_users=1, num_contents=2)
    scn = make_scenario(
        params,
        fap_pos=[[0.0, 0.0], [100.0, 0.0]],
        user_pos=[[5.0, 0.0]],
        demand=[[0.7, 0.3]],
    )
    rates = make_rates(access=[[1e6], [1e6]], coop=[[0.0, 2e6], [2e6, 0.0]])
    # L * (Jc + 2 * P / R) with L=1e6, Jc=6.25e-12, P=10, R=2e6
    assert social_loss(scn, rates, 0, 1) == pytest.approx(
        10.000006250000002, rel=1e-12
    )
    # F-AP 1 has no users, so it loses nothing by cooperating
    assert social_loss(scn, rates, 1, 0) == 0.0


def test_social_loss_self_pair_rejected(social_toy):
    scn, rates = social_toy
    with pytest.raises(ValueError):
        social_loss(scn, rates, 1, 1)


def test_relationship_zero_beyond_threshold(social_toy):
    scn, rates = social_toy
    far = make_scenario(
        scn.params,
        fap_pos=[[0.0, 0.0], [600.0, 0.0]],  # beyond the 500 m cutoff
        user_pos=scn.user_pos,
        demand=scn.demand,
    )
    assert social_relationship(far, rates, 0, 1) == 0.0


def test_relationship_delta_zero_keeps_gain_only(social_toy):
    scn, rates = social_toy
    psi = social_relationship(scn, rates, 0, 1, delta=0.0)
    assert psi == pytest.approx(math.exp(-0.6) * GAIN, rel=1e-12)
    assert psi == pytest.approx(-0.2201092612773534, rel=1e-12)


def test_relationship_full_pipeline(social_toy):
    scn, rates = social_toy
    assert social_relationship(scn, rates, 0, 1) == pytest.approx(
        PSI_01, rel=1e-12
    )
    assert social_relationship(scn, rates, 1, 0) == pytest.approx(
        PSI_10, rel=1e-12
    )


# ---------------------------------------------------------------------------
# graph assembly


def test_graph_toy_mutual_value(social_toy):
    scn, rates = social_toy
    graph = build_social_graph(scn, rates)
    assert graph.mutual.shape == (2, 2)
    assert graph.mutual[0, 0] == 0.0 and graph.mutual[1, 1] == 0.0
    assert graph.mutual[0, 1] == graph.mutual[1, 0]
    assert graph.mutual[0, 1] == pytest.approx(PSI_01 + PSI_10, rel=1e-12)
    assert graph.mutual[0, 1] == pytest.approx(-25.136749006931346, rel=1e-12)


def test_graph_zero_when_everyone_is_far():
    params = SystemParams(
        num_faps=3, num_users=6, num_contents=4, side_length=10000.0,
        dist_threshold=1.0,
    )
    scn = generate_scenario(params, seed=2)
    rates = build_rate_table(scn)
    graph = build_social_graph(scn, rates)
    assert not graph.mutual.any()


def test_graph_matches_scalar_pipeline():
    params = SystemParams(num_faps=5, num_users=20, num_contents=8)
    scn = generate_scenario(params, seed=9)
    rates = build_rate_table(scn)
    graph = build_social_graph(scn, rates)
    assert np.array_equal(graph.mutual, graph.mutual.T)
    for m in range(5):
        for n in range(5):
            if m == n:
                assert graph.mutual[m, n] == 0.0
                continue
            expected = social_relationship(scn, rates, m, n) + social_relationship(
                scn, rates, n, m
            )
            assert graph.mutual[m, n] == pytest.approx(expected, rel=1e-9, abs=1e-15)


def test_graph_ignores_perturbations_beyond_threshold():
    params = SystemParams(num_faps=4, num_users=12, num_contents=6)
    scn = generate_scenario(params, seed=1)
    rates = build_rate_table(scn)
    d = np.linalg.norm(scn.fap_pos[0] - scn.fap_pos[1])
    assert d > params.dist_threshold  # seed 1 puts them ~880 m apart
    graph = build_social_graph(scn, rates)
    assert graph.mutual[0, 1] == 0.0


def test_from_mutual_validation():
    good = np.array([[0.0, 1.0], [1.0, 0.0]])
    SocialGraph.from_mutual(good)
    with pytest.raises(ValueError):
        SocialGraph.from_mutual(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        SocialGraph.from_mutual(np.array([[1.0, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_from_mutual_rejects_non_finite(bad):
    """A non-finite matrix is reported as such, even when symmetric."""
    with pytest.raises(ValueError, match="finite"):
        SocialGraph.from_mutual(np.array([[0.0, bad], [bad, 0.0]]))


def test_cluster_preference_is_additive():
    mutual = np.array(
        [
            [0.0, 2.0, -1.0, 0.5],
            [2.0, 0.0, 3.0, 0.0],
            [-1.0, 3.0, 0.0, 1.0],
            [0.5, 0.0, 1.0, 0.0],
        ]
    )
    graph = SocialGraph.from_mutual(mutual)
    assert cluster_preference(graph, 0, []) == 0.0
    assert cluster_preference(graph, 0, [0]) == 0.0
    assert cluster_preference(graph, 0, [1, 2]) == pytest.approx(1.0)
    a = cluster_preference(graph, 0, [1])
    b = cluster_preference(graph, 0, [2, 3])
    assert cluster_preference(graph, 0, [1, 2, 3]) == pytest.approx(a + b)
