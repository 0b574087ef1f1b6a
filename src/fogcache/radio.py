"""Wireless link rates using a power-law pathloss Shannon model.

Two link families exist: access links from an F-AP to a user and
cooperative fronthaul links between F-APs.  Both use bandwidth times
log2(1 + SINR) with pathloss d^-alpha, distances clamped below by
``params.min_distance`` so co-located nodes keep a finite rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import Scenario, pairwise_distance

__all__ = [
    "LinkRateTable",
    "build_rate_table",
]


@dataclass(frozen=True)
class LinkRateTable:
    """Precomputed link rates for one scenario.

    access[m, u] is the F-AP m to user u rate in bit/s; coop[m, n] the
    F-AP m to F-AP n rate, zero on the diagonal (no self link).  Every
    other rate is positive; construction rejects zero and NaN.
    """

    access: np.ndarray  # (M, U)
    coop: np.ndarray  # (M, M)

    def __post_init__(self):
        if self.access.ndim != 2 or self.coop.ndim != 2:
            raise ValueError("rate tables must be 2-D")
        if self.coop.shape[0] != self.coop.shape[1]:
            raise ValueError("coop table must be square")
        if self.access.shape[0] != self.coop.shape[0]:
            raise ValueError("access and coop tables disagree on the F-AP count")
        if not np.all(self.access > 0):
            raise ValueError("access rates must be positive")
        if np.any(np.diagonal(self.coop) != 0):
            raise ValueError("coop diagonal must be zero")
        off_diagonal = ~np.eye(self.coop.shape[0], dtype=bool)
        if not np.all(self.coop[off_diagonal] > 0):
            raise ValueError("off-diagonal fronthaul rates must be positive")


def build_rate_table(scenario: Scenario) -> LinkRateTable:
    """All link rates for a scenario in one vectorized pass."""
    params = scenario.params
    powers = params.fap_powers()
    alpha = params.pathloss_alpha
    floor = params.min_distance

    d_au = np.maximum(pairwise_distance(scenario.fap_pos, scenario.user_pos), floor)
    recv_au = powers[:, None] * d_au ** (-alpha)

    d_ff = np.maximum(pairwise_distance(scenario.fap_pos, scenario.fap_pos), floor)
    recv_ff = powers[:, None] * d_ff ** (-alpha)

    if params.interference_mode == "constant":
        i_au = params.interference_const
        i_ff = params.interference_const
    else:
        # every non-serving F-AP interferes; for an F-AP receiver the
        # receiver itself is excluded as well.  Summing the masked
        # contributions avoids subtracting from a grand total, which
        # loses digits whenever the serving term dominates the sum.
        ids = np.arange(params.num_faps)
        not_serving = ids[:, None] != ids[None, :]  # [interferer, server]
        i_au = np.where(
            not_serving[:, :, None], recv_au[:, None, :], 0.0
        ).sum(axis=0)
        mask_ff = not_serving[:, :, None] & not_serving[:, None, :]
        i_ff = np.where(mask_ff, recv_ff[:, None, :], 0.0).sum(axis=0)

    access = params.bw_access * np.log2(1.0 + recv_au / (params.noise + i_au))
    coop = params.bw_coop * np.log2(1.0 + recv_ff / (params.noise + i_ff))
    np.fill_diagonal(coop, 0.0)
    return LinkRateTable(access=access, coop=coop)
