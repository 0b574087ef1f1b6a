"""Link rates: pathloss, interference modes, and the vectorized table."""

import numpy as np
import pytest

from fogcache import (
    SystemParams,
    access_rate,
    build_rate_table,
    coop_rate,
    generate_scenario,
    interference_at,
)

from conftest import make_params, make_scenario


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


def test_rate_decreases_with_distance():
    rates = [access_rate(_one_link(10.0, d), 0, 0) for d in (50.0, 100.0, 200.0)]
    assert rates[0] > rates[1] > rates[2]


def test_distance_clamp_floors_the_pathloss():
    at_zero = access_rate(_one_link(10.0, 0.0), 0, 0)
    at_half = access_rate(_one_link(10.0, 0.5), 0, 0)
    at_clamp = access_rate(_one_link(10.0, 1.0), 0, 0)
    assert at_zero == at_half == at_clamp


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
    table = build_rate_table(scn)
    assert table.access.shape == (4, 10)
    assert table.coop.shape == (4, 4)
    for m in range(4):
        for u in range(10):
            assert table.access[m, u] == pytest.approx(
                access_rate(scn, m, u), rel=1e-12
            )
        for n in range(4):
            if m == n:
                assert table.coop[m, n] == 0.0
            else:
                assert table.coop[m, n] == pytest.approx(
                    coop_rate(scn, m, n), rel=1e-12
                )


def test_rate_table_positive(small_instance):
    scn, rates = small_instance
    assert np.all(rates.access > 0)
    off_diag = rates.coop[~np.eye(3, dtype=bool)]
    assert np.all(off_diag > 0)
