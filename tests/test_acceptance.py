"""The verify battery over every instance of the random acceptance suite."""

import numpy as np
import pytest

import treegen
from treedual import find_equivalent_mm, run_battery

SUITE = treegen.acceptance_suite()


def test_two_asset_moves_leave_no_angular_gap_of_pi():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        z = treegen._straddling_moves_2d(rng) - 1.0
        angles = np.sort(np.arctan2(z[:, 1], z[:, 0]))
        gaps = np.diff(np.append(angles, angles[0] + 2 * np.pi))
        assert gaps.max() < np.pi


@pytest.mark.parametrize("k", range(len(SUITE)))
def test_battery_passes_on_acceptance_instance(k):
    tree, pair, endow = SUITE[k]
    assert find_equivalent_mm(tree) is not None
    failed = [r.line() for r in run_battery(tree, pair, endow) if not r.passed]
    assert not failed
