"""Scenario generation: demand model, geometry, and the demand aggregates."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from fogcache import (
    FaConfig,
    Partition,
    PlacementEvaluator,
    SystemParams,
    build_rate_table,
    build_social_graph,
    capacity_slots,
    exhaustive_optimal,
    feasible,
    generate_scenario,
    load_config,
    run_fa,
    run_hcg,
    zipf_distribution,
)
from fogcache.scenario import pairwise_distance

from conftest import local_popularity, make_params, make_scenario, users_of

SMALL_SPEC = load_config(
    str(Path(__file__).resolve().parent.parent / "configs" / "small.yaml")
)


def reference_demand_mass(scenario):
    """The per-F-AP demand aggregate as one unbuffered ``np.add.at``."""
    p = scenario.params
    mass = np.zeros((p.num_faps, p.num_contents))
    np.add.at(mass, scenario.local_fap, scenario.demand)
    return mass


# ---------------------------------------------------------------------------
# demand distribution


def test_zipf_flat_when_eta_zero():
    assert zipf_distribution(0.0, 4).tolist() == [0.25, 0.25, 0.25, 0.25]


def test_zipf_two_contents_unit_skew():
    p = zipf_distribution(1.0, 2)
    assert p == pytest.approx([2.0 / 3.0, 1.0 / 3.0], rel=1e-15)


def test_zipf_large_library():
    p = zipf_distribution(0.5, 1000)
    assert p.shape == (1000,)
    assert p.sum() == pytest.approx(1.0, rel=1e-12)
    assert p[0] / p[1] == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert np.all(np.diff(p) <= 0)


def test_zipf_rejects_bad_arguments():
    with pytest.raises(ValueError):
        zipf_distribution(0.5, 0)
    with pytest.raises(ValueError):
        zipf_distribution(-0.1, 10)


# ---------------------------------------------------------------------------
# parameters


def test_params_validation():
    with pytest.raises(ValueError):
        make_params(num_faps=0)
    with pytest.raises(ValueError):
        make_params(weight=1.5)
    with pytest.raises(ValueError):
        make_params(zipf_eta=-1.0)
    with pytest.raises(ValueError):
        make_params(content_size=0.0)
    with pytest.raises(ValueError):
        make_params(interference_mode="psychic")
    # no interference is the default constant mode at 0 W
    with pytest.raises(ValueError):
        make_params(interference_mode="none")
    with pytest.raises(ValueError):
        make_params(fap_power=[1.0, 2.0, 3.0])  # wrong length for M=2


@pytest.mark.parametrize("value", [2.0, 2.5, True, "2"], ids=repr)
@pytest.mark.parametrize("name", ["num_faps", "num_users", "num_contents"])
def test_params_reject_non_integer_counts(name, value):
    with pytest.raises(ValueError, match=name):
        make_params(**{name: value})
    # numpy integers are integers
    assert getattr(make_params(**{name: np.int64(2)}), name) == 2


FLOAT_FIELDS = [
    f.name for f in dataclasses.fields(SystemParams) if "float" in str(f.type)
]


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_params_reject_non_finite(name, value):
    with pytest.raises(ValueError, match=name):
        make_params(**{name: value})
    if name == "fap_power":  # one bad entry of a per-F-AP list
        with pytest.raises(ValueError, match=name):
            make_params(fap_power=[10.0, value])


def test_fap_powers_scalar_and_vector():
    assert make_params(fap_power=7.5).fap_powers().tolist() == [7.5, 7.5]
    assert make_params(fap_power=[1.0, 2.0]).fap_powers().tolist() == [1.0, 2.0]


def test_capacity_slots():
    assert capacity_slots(make_params(capacity=8.0e9, content_size=4.0e9)) == 2
    assert capacity_slots(make_params(capacity=9.9e9, content_size=4.0e9)) == 2
    assert capacity_slots(make_params(capacity=0.5e6, content_size=1.0e6)) == 0
    # never more slots than contents
    assert capacity_slots(make_params(capacity=1.0e9, num_contents=2)) == 2


def test_degenerate_flag():
    assert capacity_slots(make_params(capacity=0.5e6)) == 0
    assert capacity_slots(make_params(capacity=1.0e6)) == 1


def test_effective_user_density_default_and_override():
    p = make_params()
    assert p.effective_user_density == pytest.approx(2.0 / 1000.0**2, rel=1e-15)


# ---------------------------------------------------------------------------
# generated scenarios


@pytest.fixture(scope="module")
def full_shape():
    params = SystemParams(num_faps=15, num_users=150, num_contents=1000)
    return params, generate_scenario(params, seed=42)


def test_generated_shapes(full_shape):
    params, scn = full_shape
    assert scn.fap_pos.shape == (15, 2)
    assert scn.user_pos.shape == (150, 2)
    assert scn.local_fap.shape == (150,)
    assert scn.demand.shape == (150, 1000)


def test_generated_rows_are_distributions(full_shape):
    _, scn = full_shape
    assert np.all(scn.demand >= 0)
    np.testing.assert_allclose(scn.demand.sum(axis=1), 1.0, rtol=0, atol=1e-9)


def test_generated_positions_inside_box(full_shape):
    params, scn = full_shape
    for pos in (scn.fap_pos, scn.user_pos):
        assert np.all(pos >= 0.0)
        assert np.all(pos <= params.side_length)


def test_generated_local_fap_is_nearest(full_shape):
    _, scn = full_shape
    d2 = ((scn.user_pos[:, None, :] - scn.fap_pos[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(scn.local_fap, d2.argmin(axis=1))


def _distance_cases():
    rng = np.random.default_rng(7)
    cases = {}
    for i in range(5):
        a = rng.uniform(0.0, 1000.0, size=(6 + i, 2))
        b = rng.uniform(0.0, 1000.0, size=(4 + 2 * i, 2))
        b[:2] = a[-2:]  # shared points give exact zeros
        cases[f"random-{i}"] = (a, b)
    p = np.array([[123.456, 789.012]])
    cases["colocated"] = (p, np.vstack([p, p]))
    cases["one-point"] = (rng.uniform(0.0, 1.0, size=(1, 2)),
                          rng.uniform(0.0, 1.0, size=(1, 2)))
    cases["one-to-many"] = (rng.uniform(0.0, 1.0, size=(1, 2)),
                            rng.uniform(0.0, 1.0, size=(9, 2)))
    return cases


DISTANCE_CASES = _distance_cases()


@pytest.mark.parametrize("case", DISTANCE_CASES.values(), ids=list(DISTANCE_CASES))
def test_pairwise_distance_matches_axis_sum_bit_for_bit(case):
    """The two-term sum equals the former sum over an axis of length 2,
    the form every distance in the pipeline used, to the last bit."""
    a, b = case
    diff = a[:, None, :] - b[None, :, :]
    reference = np.sqrt(np.sum(diff * diff, axis=2))
    got = pairwise_distance(a, b)
    assert got.shape == (len(a), len(b))
    assert np.array_equal(got.view(np.uint64), reference.view(np.uint64))


def test_generation_is_deterministic(full_shape):
    params, scn = full_shape
    again = generate_scenario(params, seed=42)
    assert np.array_equal(scn.fap_pos, again.fap_pos)
    assert np.array_equal(scn.user_pos, again.user_pos)
    assert np.array_equal(scn.demand, again.demand)


def test_generation_varies_with_seed(full_shape):
    params, scn = full_shape
    other = generate_scenario(params, seed=43)
    assert not np.array_equal(scn.user_pos, other.user_pos)


def test_single_fap_serves_everyone():
    params = SystemParams(num_faps=1, num_users=10, num_contents=5)
    scn = generate_scenario(params, seed=0)
    assert np.all(scn.local_fap == 0)


def test_no_shuffle_means_shared_ranking():
    params = SystemParams(
        num_faps=2, num_users=6, num_contents=8, pref_shuffle=0.0
    )
    scn = generate_scenario(params, seed=1)
    assert np.all(scn.demand == scn.demand[0])


def test_shuffle_individualizes_rankings():
    params = SystemParams(
        num_faps=2, num_users=6, num_contents=50, pref_shuffle=0.5
    )
    scn = generate_scenario(params, seed=1)
    distinct = {tuple(row) for row in scn.demand}
    assert len(distinct) > 1
    # shuffling permutes each row, so the sorted values stay Zipf
    base = np.sort(zipf_distribution(params.zipf_eta, 50))
    for row in scn.demand:
        np.testing.assert_allclose(np.sort(row), base, rtol=1e-12)


def test_users_of_partitions_everyone(full_shape):
    _, scn = full_shape
    seen = np.concatenate([users_of(scn, m) for m in range(15)])
    assert sorted(seen.tolist()) == list(range(150))
    with pytest.raises(ValueError):
        users_of(scn, 15)


def test_scenario_validate_rejects_bad_rows():
    params = make_params()
    with pytest.raises(ValueError):
        make_scenario(
            params,
            fap_pos=[[0, 0], [1, 0]],
            user_pos=[[0, 0], [1, 0]],
            demand=[[0.7, 0.7], [0.5, 0.5]],  # first row sums to 1.4
        )


def test_scenario_validate_rejects_negative_demand():
    params = make_params()
    with pytest.raises(ValueError, match="non-negative"):
        make_scenario(
            params,
            fap_pos=[[0, 0], [1, 0]],
            user_pos=[[0, 0], [1, 0]],
            demand=[[1.5, -0.5], [0.5, 0.5]],  # sums to 1, one entry < 0
        )


# ---------------------------------------------------------------------------
# local popularity


def test_local_popularity_single_user_is_identity():
    params = make_params(num_faps=1, num_users=1)
    scn = make_scenario(
        params, fap_pos=[[0, 0]], user_pos=[[5, 5]], demand=[[0.6, 0.4]]
    )
    assert local_popularity(scn, 0).tolist() == [0.6, 0.4]


def test_local_popularity_uniform_rows_stay_uniform():
    params = make_params(num_faps=1, num_users=2)
    scn = make_scenario(
        params,
        fap_pos=[[0, 0]],
        user_pos=[[1, 0], [2, 0]],
        demand=[[0.5, 0.5], [0.5, 0.5]],
    )
    assert local_popularity(scn, 0).tolist() == [0.5, 0.5]


def test_local_popularity_three_user_average():
    # hand sum: (.5+.8+.2, .5+.2+.8) / 3 = (0.5, 0.5)
    params = make_params(num_faps=1, num_users=3)
    scn = make_scenario(
        params,
        fap_pos=[[0, 0]],
        user_pos=[[1, 0], [2, 0], [3, 0]],
        demand=[[0.5, 0.5], [0.8, 0.2], [0.2, 0.8]],
    )
    assert local_popularity(scn, 0) == pytest.approx([0.5, 0.5], rel=1e-15)


def test_local_demand_mass_totals(full_shape):
    _, scn = full_shape
    mass = scn.demand_mass
    assert mass.shape == (15, 1000)
    # each user contributes one unit of probability mass to its F-AP
    counts = np.bincount(scn.local_fap, minlength=15)
    np.testing.assert_allclose(mass.sum(axis=1), counts, rtol=0, atol=1e-9)


def test_all_local_popularity_rows(full_shape):
    _, scn = full_shape
    pop = scn.popularity
    sums = pop.sum(axis=1)
    counts = np.bincount(scn.local_fap, minlength=15)
    for m in range(15):
        expected = 1.0 if counts[m] else 0.0
        assert sums[m] == pytest.approx(expected, abs=1e-9)
        if counts[m]:
            np.testing.assert_allclose(pop[m], local_popularity(scn, m), rtol=1e-12)


# ---------------------------------------------------------------------------
# demand aggregates built on construction


def _mass_cases():
    full = SystemParams(num_faps=15, num_users=150, num_contents=1000)
    for seed in range(5):
        yield f"full-seed{seed}", lambda seed=seed: generate_scenario(full, seed)
    for seed in SMALL_SPEC.seeds:
        yield f"small-seed{seed}", lambda seed=seed: generate_scenario(
            SMALL_SPEC.system, seed
        )
    yield "userless-fap", lambda: make_scenario(
        make_params(num_faps=3, num_users=4, num_contents=3),
        fap_pos=[[0.0, 0.0], [500.0, 0.0], [1000.0, 0.0]],
        user_pos=[[10.0, 0.0], [20.0, 0.0], [990.0, 0.0], [5.0, 0.0]],
        demand=[[0.2, 0.3, 0.5], [0.1, 0.1, 0.8], [0.6, 0.3, 0.1], [1 / 3] * 3],
    )
    yield "single-user", lambda: make_scenario(
        make_params(num_users=1, num_contents=3),
        fap_pos=[[0.0, 0.0], [400.0, 0.0]],
        user_pos=[[390.0, 0.0]],
        demand=[[0.7, 0.2, 0.1]],
    )


MASS_CASES = dict(_mass_cases())


@pytest.mark.parametrize("case", list(MASS_CASES))
def test_local_demand_mass_matches_add_at(case):
    """The mass equals np.add.at, and the priority the stable argsort."""
    scn = MASS_CASES[case]()
    assert scn.demand_mass.tobytes() == reference_demand_mass(scn).tobytes()
    expected = np.argsort(-scn.popularity, axis=1, kind="stable")
    assert scn.priority.tobytes() == expected.tobytes()


def test_local_demand_mass_built_once_and_shared(full_shape):
    _, scn = full_shape
    rates = build_rate_table(scn)
    evaluator = PlacementEvaluator(scn, rates, Partition.singletons(15))
    assert evaluator.mass is scn.demand_mass


def test_local_demand_mass_is_read_only(full_shape):
    _, scn = full_shape
    for name, reference in (
        ("demand_mass", reference_demand_mass(scn)),
        ("popularity", scn.popularity.copy()),
        ("priority", np.argsort(-scn.popularity, axis=1, kind="stable")),
    ):
        arr = getattr(scn, name)
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
        with pytest.raises(ValueError):
            arr += 1.0
        assert getattr(scn, name).tobytes() == reference.tobytes()


def test_replaced_demand_rebuilds_the_aggregates(full_shape):
    params, scn = full_shape
    uniform = np.full_like(scn.demand, 1.0 / params.num_contents)
    other = dataclasses.replace(scn, demand=uniform)
    assert other.demand_mass.tobytes() == reference_demand_mass(other).tobytes()
    counts = np.bincount(scn.local_fap, minlength=params.num_faps)
    for m in range(params.num_faps):
        expected = 1.0 / params.num_contents if counts[m] else 0.0
        np.testing.assert_allclose(other.popularity[m], expected, rtol=1e-12)
    # every content ties under a uniform demand, so the lower id goes first
    ids = np.arange(params.num_contents)
    assert np.array_equal(other.priority, np.broadcast_to(ids, other.priority.shape))
    # the source scenario keeps its own
    assert scn.demand_mass.tobytes() == reference_demand_mass(scn).tobytes()
    assert scn.priority.tobytes() == np.argsort(
        -scn.popularity, axis=1, kind="stable").tobytes()


# ---------------------------------------------------------------------------
# co-located nodes


@pytest.fixture
def colocated():
    """F-APs 0 and 1 share a point; user 0 sits exactly on it, user 3
    exactly on F-AP 2.  Two slots per cache."""
    params = make_params(
        num_faps=3, num_users=4, num_contents=4, capacity=2.0e6,
        interference_mode="geometric",
    )
    return make_scenario(
        params,
        fap_pos=[[300.0, 300.0], [300.0, 300.0], [700.0, 300.0]],
        user_pos=[[300.0, 300.0], [320.0, 290.0], [450.0, 300.0], [700.0, 300.0]],
        demand=[
            [0.4, 0.3, 0.2, 0.1],
            [0.1, 0.2, 0.3, 0.4],
            [0.25, 0.25, 0.25, 0.25],
            [0.7, 0.1, 0.1, 0.1],
        ],
    )


def test_colocated_tie_goes_to_lower_index(colocated):
    scn = colocated
    assert scn.local_fap.tolist() == [0, 0, 0, 2]
    assert users_of(scn, 1).size == 0
    # the shadowed F-AP aggregates nothing and has no popularity
    assert not scn.demand_mass[1].any()
    assert not scn.popularity[1].any()


def test_colocated_pipeline_is_finite_and_feasible(colocated):
    scn = colocated
    params = scn.params
    rates = build_rate_table(scn)
    assert np.all(np.isfinite(rates.coop))
    assert np.all(np.isfinite(rates.access))
    graph = build_social_graph(scn, rates)
    assert np.all(np.isfinite(graph.mutual))
    partition = run_hcg(graph).partition
    fa = run_fa(scn, rates, partition, FaConfig(population=6, max_iters=5, seed=0))
    opt_x, opt = exhaustive_optimal(scn, rates, partition)
    for x, res in ((fa.best_matrix, fa.best_eval), (opt_x, opt)):
        assert feasible(x, params)
        assert math.isfinite(res.objective)
        assert math.isfinite(res.delay) and math.isfinite(res.energy)
    assert fa.best_eval.objective >= opt.objective * (1.0 - 1e-9)
