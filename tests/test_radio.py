"""Link rates: pathloss, interference modes, and the vectorized table.

The per-link functions below are the scalar reference model that
:func:`fogcache.build_rate_table` must reproduce.
"""

from pathlib import Path
from typing import Iterable

import numpy as np
import pytest

from fogcache import (
    Scenario,
    SystemParams,
    build_rate_table,
    generate_scenario,
    load_config,
)

from conftest import make_params, make_rates, make_scenario

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.yaml"))


def _clamped_distance(a: np.ndarray, b: np.ndarray, floor: float) -> float:
    d = float(np.hypot(a[0] - b[0], a[1] - b[1]))
    return max(d, floor)


def interference_at(
    scenario: Scenario,
    receiver_pos: np.ndarray,
    serving_fap: int,
    exclude: Iterable[int] = (),
) -> float:
    """Interference power (W) at a receiver, by the configured mode.

    ``constant`` gives the configured constant (0 W by default), and
    ``geometric`` sums the received power of every F-AP other than the
    serving one (plus any ids in ``exclude``, used for F-AP receivers
    that do not interfere with themselves).
    """
    params = scenario.params
    if params.interference_mode == "constant":
        return params.interference_const
    powers = params.fap_powers()
    skip = {int(serving_fap)} | {int(e) for e in exclude}
    total = 0.0
    for n in range(params.num_faps):
        if n in skip:
            continue
        d = _clamped_distance(scenario.fap_pos[n], receiver_pos, params.min_distance)
        total += powers[n] * d ** (-params.pathloss_alpha)
    return total


def _shannon(bandwidth: float, power: float, dist: float,
             alpha: float, noise: float, interference: float) -> float:
    snr = power * dist ** (-alpha) / (noise + interference)
    return bandwidth * np.log2(1.0 + snr)


def access_rate(scenario: Scenario, m: int, u: int) -> float:
    """Downlink rate (bit/s) from F-AP m to user u."""
    params = scenario.params
    pos = scenario.user_pos[u]
    d = _clamped_distance(scenario.fap_pos[m], pos, params.min_distance)
    i = interference_at(scenario, pos, m)
    return float(
        _shannon(params.bw_access, params.fap_powers()[m], d,
                 params.pathloss_alpha, params.noise, i)
    )


def coop_rate(scenario: Scenario, m: int, n: int) -> float:
    """Fronthaul rate (bit/s) from F-AP m to F-AP n; m == n is an error."""
    if m == n:
        raise ValueError("no cooperative link from an F-AP to itself")
    params = scenario.params
    pos = scenario.fap_pos[n]
    d = _clamped_distance(scenario.fap_pos[m], pos, params.min_distance)
    # the receiving F-AP does not interfere with itself
    i = interference_at(scenario, pos, m, exclude=(n,))
    return float(
        _shannon(params.bw_coop, params.fap_powers()[m], d,
                 params.pathloss_alpha, params.noise, i)
    )


def assert_table_matches_scalar(scn: Scenario, table) -> None:
    """Every entry of ``table`` equals the scalar model to 1e-12 relative;
    the coop diagonal is exactly zero."""
    params = scn.params
    assert table.access.shape == (params.num_faps, params.num_users)
    assert table.coop.shape == (params.num_faps, params.num_faps)
    for m in range(params.num_faps):
        for u in range(params.num_users):
            assert table.access[m, u] == pytest.approx(
                access_rate(scn, m, u), rel=1e-12
            )
        for n in range(params.num_faps):
            if m == n:
                assert table.coop[m, n] == 0.0
            else:
                assert table.coop[m, n] == pytest.approx(
                    coop_rate(scn, m, n), rel=1e-12
                )


def _one_link(power, dist, bw=1.0e7, noise=1.0e-13, mode="constant", const=0.0,
              extra=None):
    """Scenario with one user at ``dist`` from F-AP 0."""
    fap_pos = [[0.0, 0.0]]
    powers = [power]
    if extra:
        for p, pos in extra:
            powers.append(p)
            fap_pos.append(pos)
    params = make_params(
        num_faps=len(fap_pos),
        num_users=1,
        fap_power=powers if len(powers) > 1 else power,
        bw_access=bw,
        bw_coop=bw,
        noise=noise,
        interference_mode=mode,
        interference_const=const,
    )
    return make_scenario(
        params, fap_pos=fap_pos, user_pos=[[dist, 0.0]], demand=[[0.7, 0.3]]
    )


# ---------------------------------------------------------------------------
# interference


def test_interference_none_and_constant():
    scn = _one_link(10.0, 100.0)
    assert interference_at(scn, scn.user_pos[0], 0) == 0.0
    scn = _one_link(10.0, 100.0, mode="constant", const=1e-13)
    assert interference_at(scn, scn.user_pos[0], 0) == 1e-13


def test_interference_geometric_two_interferers():
    # two 39.8 W interferers at exactly 100 m: 2 * 39.8 * 100^-4
    scn = _one_link(
        10.0,
        1.0,
        mode="geometric",
        extra=[(39.8, [100.0, 0.0]), (39.8, [0.0, 100.0])],
    )
    rx = np.array([0.0, 0.0])
    assert interference_at(scn, rx, 0) == pytest.approx(7.96e-7, rel=1e-12)


def test_interference_geometric_exclude():
    scn = _one_link(
        10.0,
        1.0,
        mode="geometric",
        extra=[(39.8, [100.0, 0.0]), (39.8, [0.0, 100.0])],
    )
    rx = np.array([0.0, 0.0])
    only_one = interference_at(scn, rx, 0, exclude=(1,))
    assert only_one == pytest.approx(39.8 * 100.0**-4, rel=1e-12)


# ---------------------------------------------------------------------------
# Shannon rates


def test_access_rate_unit_snr_gives_bandwidth():
    # P r^-a / sigma^2 = 1e-9 * 10^-4 / 1e-13 = 1
    scn = _one_link(1.0e-9, 10.0)
    assert access_rate(scn, 0, 0) == pytest.approx(1.0e7, rel=1e-12)


def test_access_rate_snr_three_doubles_bandwidth():
    scn = _one_link(3.0e-9, 10.0)
    assert access_rate(scn, 0, 0) == pytest.approx(2.0e7, rel=1e-12)


def test_access_rate_reference_point():
    # 10 MHz, 39.81 W, 100 m, alpha 4, noise 1e-13 W
    scn = _one_link(39.81, 100.0)
    assert access_rate(scn, 0, 0) == pytest.approx(219246998.0314853, rel=1e-12)
    assert build_rate_table(scn).access[0, 0] == pytest.approx(
        219246998.0314853, rel=1e-12
    )


def test_rate_decreases_with_distance():
    rates = [access_rate(_one_link(10.0, d), 0, 0) for d in (50.0, 100.0, 200.0)]
    assert rates[0] > rates[1] > rates[2]


def test_distance_clamp_floors_the_pathloss():
    at_zero = access_rate(_one_link(10.0, 0.0), 0, 0)
    at_half = access_rate(_one_link(10.0, 0.5), 0, 0)
    at_clamp = access_rate(_one_link(10.0, 1.0), 0, 0)
    assert at_zero == at_half == at_clamp
    table = [build_rate_table(_one_link(10.0, d)).access[0, 0] for d in (0.0, 0.5)]
    assert table == [pytest.approx(at_clamp, rel=1e-12)] * 2


def test_coop_rate_matches_access_formula():
    params = make_params(num_faps=2, num_users=1)
    scn = make_scenario(
        params,
        fap_pos=[[0.0, 0.0], [100.0, 0.0]],
        user_pos=[[100.0, 0.0]],
        demand=[[1.0, 0.0]],
    )
    # same transmitter, same geometry, same bandwidth
    assert coop_rate(scn, 0, 1) == pytest.approx(access_rate(scn, 0, 0), rel=1e-12)


def test_coop_rate_self_link_rejected():
    scn = _one_link(10.0, 50.0)
    with pytest.raises(ValueError):
        coop_rate(scn, 0, 0)


# ---------------------------------------------------------------------------
# table construction


@pytest.mark.parametrize(
    "mode, const",
    [
        pytest.param("constant", 0.0, id="constant-zero"),
        pytest.param("constant", 1e-13, id="constant"),
        pytest.param("geometric", 1e-13, id="geometric"),
    ],
)
def test_rate_table_matches_scalar_functions(mode, const):
    params = SystemParams(
        num_faps=4,
        num_users=10,
        num_contents=5,
        interference_mode=mode,
        interference_const=const,
    )
    scn = generate_scenario(params, seed=3)
    assert_table_matches_scalar(scn, build_rate_table(scn))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_rate_table_matches_scalar_functions(path):
    spec = load_config(str(path))
    scn = generate_scenario(spec.system, spec.seeds[0])
    assert_table_matches_scalar(scn, build_rate_table(scn))


def test_rate_table_positive(small_instance):
    scn, rates = small_instance
    assert np.all(rates.access > 0)
    off_diag = rates.coop[~np.eye(3, dtype=bool)]
    assert np.all(off_diag > 0)


def test_rate_table_validate_rejects_nonpositive_access():
    """LinkRateTable checks itself when built, so no caller re-checks it."""
    with pytest.raises(ValueError, match="access rates must be positive"):
        make_rates(access=[[1.0e6, 0.0]], coop=[[0.0]])


BAD_RATES = {
    "fronthaul-zero": ([[1.0e6, 1.0e6], [1.0e6, 1.0e6]], [[0.0, 0.0], [5.0e6, 0.0]]),
    "fronthaul-nan": ([[1.0e6, 1.0e6], [1.0e6, 1.0e6]], [[0.0, np.nan], [5.0e6, 0.0]]),
    "access-nan": ([[1.0e6, np.nan], [1.0e6, 1.0e6]], [[0.0, 5.0e6], [5.0e6, 0.0]]),
}


@pytest.mark.parametrize("access, coop", BAD_RATES.values(), ids=list(BAD_RATES))
def test_rate_table_validate_rejects_bad_rates(access, coop):
    """Access rates and off-diagonal fronthaul rates must be > 0; NaN fails."""
    with pytest.raises(ValueError, match="must be positive"):
        make_rates(access=access, coop=coop)
