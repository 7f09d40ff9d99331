import dataclasses
import json
import math
import time

import pytest

import treegen
import numpy as np

from treedual import (checks, cli, load_market, market_to_dict,
                      optimal_measure_price_process, parse_utility_spec, recover,
                      run_battery, solve_dual)


@pytest.mark.parametrize("command", ["price", "curve"])
def test_manifest_reports_dual_solves(tri1_file, tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = [command, "--market", str(tri1_file), "--utility", "exp:gamma=1,C=2",
            "--claim", "up", "--output-dir", str(out), "--format", "structured"]
    assert cli.run(argv) == cli.EXIT_OK
    structured = json.loads(capsys.readouterr().out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["dual_solves"] == structured["manifest"]["dual_solves"]
    assert 1 <= manifest["dual_solves"] <= 40
    assert "workers" not in manifest["config"]
    csv = "price.csv" if command == "price" else "volume_curve.csv"
    assert (out / csv).read_text().splitlines() == structured["tables"][csv]


@pytest.mark.parametrize("command", ["price", "curve"])
def test_manifest_reports_dual_rounds(tri1_file, tmp_path, command):
    # one log-space pass serves every exponential price; the two-power
    # searches share their rounds
    for utility in ("exp:gamma=1,C=2", "twopower:a=0.5,b=1,C=1"):
        out = tmp_path / utility.partition(":")[0]
        argv = [command, "--market", str(tri1_file), "--utility", utility,
                "--claim", "up", "--output-dir", str(out)]
        assert cli.run(argv) == cli.EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        if utility.startswith("exp"):
            assert manifest["dual_rounds"] == 1
        else:
            assert 2 <= manifest["dual_rounds"] < manifest["dual_solves"]


def test_solve_manifest_reports_newton_steps(tmp_path, capsys):
    # a binomial node's one-step martingale fit is its minimizer; the pinned
    # market's four planar moves per node leave the log-space pass steps
    bin1 = tmp_path / "bin1.json"
    bin1.write_text(json.dumps(treegen.bin1_dict()))
    steps = []
    for path in (bin1, treegen.DATA / "quote_pinned_4x4_2a.json"):
        out = tmp_path / path.stem
        argv = ["solve", "--market", str(path), "--utility", "exp:gamma=1,C=2",
                "--output-dir", str(out)]
        assert cli.run(argv) == cli.EXIT_OK
        steps.append(json.loads((out / "manifest.json").read_text())["newton_steps"])
    assert steps[0] == 0 and steps[1] > 0


def test_workers_flag_is_gone(tri1_file):
    argv = ["curve", "--market", str(tri1_file), "--utility", "exp:gamma=1,C=2",
            "--claim", "up", "--workers", "4"]
    assert cli.run(argv) == cli.EXIT_INPUT


@pytest.mark.parametrize("command,flag", [
    (["solve", "--utility", "exp:gamma=1,C=2"], ["--seed", "3"]),  # only oracle reads it
    (["geometry"], ["--tol", "1e-9"]),
    # sensitivity reads --endowments only
    (["sensitivity", "--utility", "exp:gamma=1,C=2", "--endowments", "endowment,zero"],
     ["--endowment", "bogus"]),
])
def test_options_exist_only_on_subcommands_that_read_them(tri1_file, capsys,
                                                          command, flag):
    argv = command + ["--market", str(tri1_file)]
    assert cli.run(argv) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.run(argv + flag) == cli.EXIT_INPUT
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag", [
    (["geometry"], ["--vertex-cap", "0"]),
    (["geometry"], ["--vertex-cap", "-3"]),
    (["sensitivity", "--utility", "exp:gamma=1,C=2", "--endowments", "endowment,zero"],
     ["--continuity-steps", "-4"]),
    (["oracle", "--utility", "exp:gamma=1,C=2"], ["--seed", "-1"]),
    (["oracle", "--utility", "exp:gamma=1,C=2"], ["--seed", "1.5"]),
])
def test_bad_integer_flags_exit_two(tri1_file, capsys, command, flag):
    argv = command + ["--market", str(tri1_file)] + flag
    assert cli.run(argv) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert f"argument {flag[0]}: expected an integer >= " in err


def _arbitrage_file(tmp_path):
    # both children above the root price: no martingale measure exists
    doc = treegen.bin1_dict()
    doc["nodes"][2]["prices"] = ["1.5"]
    path = tmp_path / "arbitrage.json"
    path.write_text(json.dumps(doc))
    return path


def test_solve_exits_zero(tri1_file, capsys):
    argv = ["solve", "--market", str(tri1_file), "--utility", "exp:gamma=1,C=2"]
    assert cli.run(argv) == cli.EXIT_OK
    assert capsys.readouterr().out


def test_arbitrage_exits_one(tmp_path, capsys):
    market = ["--market", str(_arbitrage_file(tmp_path))]
    for argv in (["solve"] + market + ["--utility", "exp:gamma=1,C=2"],
                 ["geometry"] + market):
        assert cli.run(argv) == cli.EXIT_VERIFY
        assert capsys.readouterr().err.startswith("NO_MM:")


@pytest.mark.parametrize("case", ["unknown utility", "missing file"])
def test_input_errors_exit_two(tri1_file, tmp_path, capsys, case):
    market, spec = str(tri1_file), "exp:gamma=1,C=2"
    if case == "unknown utility":
        spec = "cobbdouglas:a=1"
    else:
        market = str(tmp_path / "absent.json")
    assert cli.run(["solve", "--market", market, "--utility", spec]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("input error:")


@pytest.mark.parametrize("value", [10**400, True], ids=["10**400", "true"])
def test_non_decimal_leaf_value_exits_two(tmp_path, capsys, value):
    # an int beyond the float range and a boolean in the endowment are input
    # errors naming the leaf, not a traceback or a solve
    doc = treegen.tri1_dict()
    doc["endowment"]["a"] = value
    path = tmp_path / "tri1.json"
    path.write_text(json.dumps(doc))
    argv = ["solve", "--market", str(path), "--utility", "exp:gamma=1,C=2"]
    assert cli.run(argv) == cli.EXIT_INPUT
    assert "endowment[a]: expected a finite decimal" in capsys.readouterr().err


def _shuffled_file(tmp_path):
    """A random two-period, two-asset market with an endowment, its nodes
    shuffled so that the file order differs from the layout order."""
    rng = np.random.default_rng(4)
    tree = treegen.random_market(rng, max_periods=2, n_assets=2)
    while tree.horizon < 2:
        tree = treegen.random_market(rng, max_periods=2, n_assets=2)
    doc = market_to_dict(tree)
    e = rng.uniform(-1.0, 1.0, tree.n_leaves).tolist()
    doc["endowment"] = dict(zip(tree.leaf_ids, map(repr, e)))
    rng.shuffle(doc["nodes"])
    path = tmp_path / "shuffled.json"
    path.write_text(json.dumps(doc))
    tree = load_market(path)
    assert tree.node_ids != tree.layout.ids
    return path, tree


def test_recover_rows_keep_the_file_order(tmp_path, capsys):
    path, tree = _shuffled_file(tmp_path)
    spec = "exp:gamma=1,C=2"
    argv = ["recover", "--market", str(path), "--utility", spec,
            "--output-dir", str(tmp_path / "out")]
    assert cli.run(argv) == cli.EXIT_OK
    capsys.readouterr()
    pair = parse_utility_spec(spec)
    ps = recover(tree, pair, tree.endowment, solve_dual(tree, pair, tree.endowment))
    rows = (tmp_path / "out" / "wealth_strategy.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == list(tree.node_ids)
    file_t = {nd["id"]: nd["t"] for nd in json.loads(path.read_text())["nodes"]}
    inner = tree.layout.level_starts[-2]
    for row in rows:
        nid, t, wealth, *h = row.split(",")
        k = tree.layout.ids.index(nid)
        assert int(t) == file_t[nid] and wealth == cli.f12(ps.wealth[k])
        assert h == ([cli.f12(c) for c in ps.strategy[k]] if k < inner else ["", ""])


def test_mubpp_reads_the_process_file_into_layout_order(tmp_path, capsys):
    # two fair candidate assets, random claims priced under the optimal
    # measure, listed per node in the shuffled file order; read in file
    # order instead, they would not be fair
    path, tree = _shuffled_file(tmp_path)
    sol = solve_dual(tree, parse_utility_spec("exp:gamma=1,C=2"), tree.endowment)
    claims = np.random.default_rng(1).uniform(0.0, 1.0, (2, tree.n_leaves))
    fair = np.column_stack([optimal_measure_price_process(sol, b) for b in claims])
    pos = {nid: k for k, nid in enumerate(tree.layout.ids)}
    doc = {nid: fair[pos[nid]].tolist() for nid in tree.node_ids}
    (tmp_path / "process.json").write_text(json.dumps(doc))
    argv = ["mubpp", "--market", str(path), "--utility", "exp:gamma=1,C=2",
            "--process", str(tmp_path / "process.json")]
    assert cli.run(argv) == cli.EXIT_OK
    assert "marginal utility-based price process: True" in capsys.readouterr().out


TWO_POWER = ["--utility", "twopower:a=0.5,b=1,C=1"]


@pytest.mark.parametrize("command,csv", [
    (["oracle", "--seed", "3"] + TWO_POWER, "oracle.csv"),
    (["price", "--claim", "up"] + TWO_POWER, "price.csv"),
    (["geometry"], "vertices.csv"),
    (["recover", "--utility", "exp:gamma=1,C=2"], "wealth_strategy.csv"),
])
def test_csv_output_is_byte_identical_across_runs(tri1_file, tmp_path, capsys,
                                                  command, csv):
    blobs = []
    for run_id in range(2):
        out = tmp_path / f"run{run_id}"
        argv = command + ["--market", str(tri1_file), "--output-dir", str(out)]
        assert cli.run(argv) == cli.EXIT_OK
        blobs.append((out / csv).read_bytes())
    capsys.readouterr()
    assert blobs[0] == blobs[1]
    # a header, then one row per vertex (tri1 has two), per node (four) or in all
    lines = {"vertices.csv": 3, "wealth_strategy.csv": 5}.get(csv, 2)
    assert len(blobs[0].splitlines()) == lines


def _process_file(tmp_path, tri1_file, drop=()):
    """tri1's claim priced under the optimal measure, one value per node.

    ``drop`` names nodes to leave out, or maps nodes to replacement values.
    """
    tree = load_market(tri1_file)
    sol = solve_dual(tree, parse_utility_spec("exp:gamma=1,C=2"), tree.endowment)
    proc = dict(zip(tree.layout.ids,
                    optimal_measure_price_process(sol, tree.claims["up"]).tolist()))
    if isinstance(drop, dict):
        proc.update(drop)
    else:
        proc = {k: v for k, v in proc.items() if k not in drop}
    path = tmp_path / "process.json"
    path.write_text(json.dumps(proc))
    return path


@pytest.mark.parametrize("drop,code", [((), cli.EXIT_OK), (("root",), cli.EXIT_INPUT),
                                       ({"b": "x"}, cli.EXIT_INPUT),
                                       ({"b": [1, 2]}, cli.EXIT_INPUT)])
def test_mubpp_exit_codes(tri1_file, tmp_path, capsys, drop, code):
    argv = ["mubpp", "--market", str(tri1_file), "--utility", "exp:gamma=1,C=2",
            "--process", str(_process_file(tmp_path, tri1_file, drop)),
            "--output-dir", str(tmp_path / "out")]
    assert cli.run(argv) == code
    captured = capsys.readouterr()
    if code == cli.EXIT_OK:
        assert "marginal utility-based price process: True" in captured.out
        assert "verdicts agree: True" in captured.out
        # a header and one drift row per non-leaf node
        assert len((tmp_path / "out" / "mubpp_drifts.csv").read_text().splitlines()) == 2
    else:
        node = "'b'" if isinstance(drop, dict) else "root"
        assert captured.err.startswith("input error:") and node in captured.err


def test_sensitivity_with_continuity_and_claim_exits_zero(tri1_file, capsys):
    # the continuity entries run the mass radius
    argv = ["sensitivity", "--market", str(tri1_file), "--utility", "exp:gamma=1,C=2",
            "--endowments", "endowment,zero", "--continuity-steps", "3",
            "--claim", "up"]
    assert cli.run(argv) == cli.EXIT_OK
    assert capsys.readouterr().out.count("(ok)") == 3


def test_sensitivity_strips_each_endowment_name_once(tri1_file, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["sensitivity", "--market", str(tri1_file), "--utility", "exp:gamma=1,C=2",
            "--endowments", "endowment, zero", "--output-dir", str(out)]
    assert cli.run(argv) == cli.EXIT_OK
    capsys.readouterr()
    rows = [r.split(",")[0] for r in (out / "sensitivity.csv").read_text().splitlines()]
    assert rows[1:3] == ["value_endowment", "value_zero"]


@pytest.mark.parametrize("argv,named", [
    # the market, then the utility, the endowment(s) and the claim
    (["price", "--utility", "exp:gamma=1,C=2", "--endowment", "bogus", "--claim", "nope"],
     "endowment name 'bogus'"),
    (["price", "--utility", "cobbdouglas:a=1", "--endowment", "bogus", "--claim", "nope"],
     "utility family 'cobbdouglas'"),
    (["curve", "--utility", "exp:gamma=1,C=2", "--claim", "nope"], "claim 'nope'"),
    (["sensitivity", "--utility", "exp:gamma=1,C=2", "--endowments", "zero,bogus",
      "--claim", "nope"], "endowment name 'bogus'"),
    (["sensitivity", "--utility", "exp:gamma=1,C=2", "--endowments", "zero",
      "--claim", "nope"], "claim 'nope'"),
])
def test_input_errors_name_the_first_bad_input(tri1_file, capsys, argv, named):
    assert cli.run(argv + ["--market", str(tri1_file)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error:") and named in err


def test_sensitivity_with_a_large_mass_radius_exits_cleanly(tmp_path, capsys):
    # the mass radius is about 2.4e25, past the first block of its scan
    path = tmp_path / "tri1_low.json"
    doc = treegen.tri1_dict()
    doc["endowment"] = {"a": "-60", "b": "-50", "c": "-55"}
    path.write_text(json.dumps(doc))
    argv = ["sensitivity", "--market", str(path), "--utility", "exp:gamma=1,C=2",
            "--endowments", "endowment", "--continuity-steps", "1"]
    assert cli.run(argv) in (cli.EXIT_OK, cli.EXIT_VERIFY)
    assert "continuity: |du|" in capsys.readouterr().out


def test_two_power_curve_reaches_volume_1e4_on_the_pinned_market(tmp_path, capsys):
    # warm-started solves along the curve reach beta = 1e4 only if each
    # Newton core runs to 1e-13, not stopping between 1e-13 and 1e-9
    out = tmp_path / "out"
    argv = ["curve", "--market", str(treegen.DATA / "quote_pinned_4x4_2a.json"),
            "--utility", "twopower:a=0.5,b=1,C=1", "--claim", "claim",
            "--output-dir", str(out)]
    assert cli.run(argv) == cli.EXIT_OK
    capsys.readouterr()
    rows = [r.split(",") for r in (out / "volume_curve.csv").read_text().splitlines()[1:]]
    prices = [float(r[1]) for r in rows]
    assert [float(r[0]) for r in rows] == pytest.approx(np.logspace(-4, 4, 9), rel=1e-12)
    assert all(a >= b for a, b in zip(prices, prices[1:]))
    assert float(rows[0][2]) <= prices[-1]


def _corrupted_solve(shift):
    """``solve_dual`` with ``shift`` (leaf id -> delta) added to the optimal
    measure; its mass and normalization follow."""
    solve = checks.solve_dual

    def corrupted(tree, pair, endow):
        sol = solve(tree, pair, endow)
        mu = sol.mu.copy()
        for leaf, delta in shift.items():
            mu[tree.leaf_ids.index(leaf)] += delta
        mass = float(mu.sum())
        return dataclasses.replace(sol, mass=mass, mu=mu, q_hat=mu / mass,
                                   _log_mass=math.log(mass), _log_q=np.log(mu / mass))

    return corrupted


@pytest.mark.parametrize("inject,code", [({}, cli.EXIT_OK), ({"a": 0.01}, cli.EXIT_VERIFY)])
def test_verify_exit_codes(tri1_file, capsys, monkeypatch, inject, code):
    # a corrupted optimizer must make the battery fail and the CLI exit 1
    monkeypatch.setattr(checks, "solve_dual", _corrupted_solve(inject))
    argv = ["verify", "--market", str(tri1_file), "--utility", "exp:gamma=1,C=2"]
    assert cli.run(argv) == code
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("[FAIL]")]
    assert bool(failed) == bool(inject)
    # each line states the inequality its verdict found
    assert all(": residual " in line and " > " in line and " <= " not in line
               for line in failed)
    assert all(" <= " in line for line in lines if line.startswith("[PASS]"))


def test_verify_reports_check_times_outside_the_csv(tri1_file, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["verify", "--market", str(tri1_file), "--utility", "exp:gamma=1,C=2",
            "--output-dir", str(out)]
    t0 = time.perf_counter()
    assert cli.run(argv) == cli.EXIT_OK
    wall = time.perf_counter() - t0
    text = capsys.readouterr().out
    seconds = json.loads((out / "manifest.json").read_text())["check_seconds"]
    rows = (out / "verify.csv").read_text().splitlines()
    assert rows[0] == "check,passed,residual,tolerance"
    assert sorted(seconds) == sorted(row.split(",")[0] for row in rows[1:])
    assert min(seconds.values()) >= 0 and sum(seconds.values()) <= wall
    assert text.count(" ms]") == len(seconds)


def test_verify_residuals_have_a_positive_sign(capsys):
    # the convex value curve's margin was -min(0.0, 0.0) = -0.0 here, which
    # printed as -0.000e+00
    path = treegen.DATA / "quote_pinned_4x4_2a.json"
    tree = load_market(path)
    results = run_battery(tree, parse_utility_spec("exp:gamma=1,C=2"), tree.endowment)
    assert all(math.copysign(1.0, r.residual) == 1.0 for r in results)
    assert cli.run(["verify", "--market", str(path), "--utility", "exp:gamma=1,C=2"]) \
        == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "value curve convexity: residual 0.000e+00" in out and "-0.000e+00" not in out


@pytest.mark.parametrize("betas", ["1e-4:1e4", "a:b:c", "1:10:x", "1e-4:1e4:0", "0:1:3"])
def test_malformed_betas_exit_two(tri1_file, capsys, betas):
    argv = ["curve", "--market", str(tri1_file), "--utility", "exp:gamma=1,C=2",
            "--claim", "up", "--betas", betas]
    assert cli.run(argv) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "--betas" in err


@pytest.mark.parametrize("spec,name", [("exp:gamma=1,C=2,zeta=3", "zeta"),
                                       ("exp:gamma=-1", "gamma"),
                                       ("twopower:a=2", "a")])
def test_bad_utility_parameters_exit_two(tri1_file, capsys, spec, name):
    argv = ["solve", "--market", str(tri1_file), "--utility", spec]
    assert cli.run(argv) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error:") and name in err


def test_no_subcommand_takes_a_solver_tolerance():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    for name, parser in sub.choices.items():
        flags = {f for action in parser._actions for f in action.option_strings}
        assert "--tol" not in flags, name


@pytest.mark.parametrize("utility", ["exp:gamma=1,C=2", "twopower:a=0.5,b=1,C=1"])
def test_curve_prints_each_price_beside_its_own_volume(tmp_path, capsys, utility):
    # the report sorts its volumes: each price sits beside its own volume
    # whatever the order of the --betas grid
    tables = []
    for grid in ("1e-2:1e2:3", "1e2:1e-2:3"):
        out = tmp_path / grid.replace(":", "_")
        argv = ["curve", "--market", str(treegen.DATA / "quote_pinned_4x4_2a.json"),
                "--utility", utility, "--claim", "claim", "--betas", grid,
                "--output-dir", str(out)]
        assert cli.run(argv) == cli.EXIT_OK
        text = capsys.readouterr().out
        tables.append(((out / "volume_curve.csv").read_text(),
                       text[text.index("beta"):text.index("large-volume")]))
    assert tables[0] == tables[1]
    rows = tables[0][0].splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == pytest.approx([1e-2, 1.0, 1e2])
