import contextlib
import json

import pytest
import scipy.optimize

import treegen
from treedual import (MarketTree, dual, exponential_utility, market_from_dict,
                      recovery, simplex, two_power_utility)


@pytest.fixture
def bin1():
    return treegen.bin1()


@pytest.fixture
def tri1():
    return treegen.tri1()


@pytest.fixture
def exp_pair():
    return exponential_utility(1.0, 2.0)


@pytest.fixture
def exp_pair_raw():
    # unshifted variant used by closed-form checks
    return exponential_utility(1.0, 0.0)


@pytest.fixture
def tp_pair():
    return two_power_utility(0.5, 1.0, 1.0)


@pytest.fixture
def tri1_file(tmp_path):
    path = tmp_path / "tri1.json"
    doc = treegen.tri1_dict()
    doc["endowment"] = {"a": "0.3", "b": "-0.2", "c": "0.1"}
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def no_lp():
    """Context manager under which any linear program solve raises."""

    def refuse(*args, **kwargs):
        raise AssertionError("a linear program was solved")

    @contextlib.contextmanager
    def guard():
        with pytest.MonkeyPatch.context() as mp:
            for mod, name in ((simplex, "solve_lp"), (simplex, "linprog"),
                              (scipy.optimize, "linprog")):
                mp.setattr(mod, name, refuse)
            yield

    return guard


@pytest.fixture
def no_dense_core():
    """Context manager under which the dense dual Newton core raises, from
    the solvers and from the dynamic dual alike."""

    def refuse(*args, **kwargs):
        raise AssertionError("the dense Newton core ran")

    @contextlib.contextmanager
    def guard():
        with pytest.MonkeyPatch.context() as mp:
            for mod in (dual, recovery):
                mp.setattr(mod, "_newton_core", refuse)
            yield

    return guard


@pytest.fixture
def no_leaf_dicts():
    """Context manager under which reading the tree's leaf ids raises: work
    on arrays in leaf order keys nothing by leaf id."""

    def refuse(*args, **kwargs):
        raise AssertionError("the leaf ids were read")

    @contextlib.contextmanager
    def guard():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(MarketTree, "leaf_ids", property(refuse))
            yield

    return guard
