"""The verify battery over every instance of the random acceptance suite."""

import dataclasses

import numpy as np
import pytest

import treegen
from treedual import (dual, exponential_utility, find_equivalent_mm, geometry,
                      run_battery)

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


def test_support_flag_check_fails_on_a_wrong_support_mask(tri1, monkeypatch):
    # a support pass that keeps only the point mass on the unmoved leaf
    # reports that leaf as the whole support, and the dual still solves
    # there; find_equivalent_mm reads the same pass and would agree with
    # the flag, but the enumerated vertices charge every leaf
    real = geometry._support_structure(tri1)
    keep = np.count_nonzero(real.weight, axis=1) == 1
    wrong = dataclasses.replace(real, node=real.node[keep],
                                child=real.child[keep], weight=real.weight[keep])
    assert wrong.mask.tolist() == [False, True, False]
    for mod in (geometry, dual):
        monkeypatch.setattr(mod, "_support_structure", lambda tree: wrong)
    assert find_equivalent_mm(tri1) is None
    results = {r.name: r for r in
               run_battery(tri1, exponential_utility(1.0, 2.0), [0.3, -0.2, 0.1])}
    check = results["support flag matches market"]
    assert not check.passed and check.detail == "DEGENERATE"
