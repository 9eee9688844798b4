import copy
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regimehedge import acceptance, cli
from regimehedge.analysis import sensitivity_check
from regimehedge.cli import main, run_scenario, write_hedge_field, \
    write_price_field
from regimehedge.errors import ConfigError, NoConvergence, SingularCovariance
from regimehedge.hedging import HedgeField, hedge_field
from regimehedge.regime_bsm import bsm_price_grid
from regimehedge.scenario import parse_scenario
from regimehedge.volterra_pricer import ConvergenceReport, Grid, PriceField, \
    linear_growth_norm, pde_residual, solve_price_field

BASE_CONFIG = {
    "name": "single-regime-call",
    "horizon": 1.0,
    "assets": {"n": 1},
    "states_per_component": 2,
    "components": [
        {"hazards": {"1->2": {"family": "constant", "c": 0.4},
                     "2->1": {"family": "constant", "c": 0.5}}},
        {"hazards": {"1->2": {"family": "constant", "c": 0.3},
                     "2->1": {"family": "constant", "c": 0.6}}},
    ],
    "market": {
        "rate": 0.04,
        "drift": [0.08],
        "vol": [[0.25]],
    },
    "claim": {"kind": "basket-call", "weights": [1.0], "strike": 100.0},
    "grid": {"time_steps": 10, "price_nodes": 31, "age_nodes": 4},
    "solver": {"tol": 1e-3, "max_iter": 50, "gh_nodes": 16},
    "mc": {"paths": 2000, "seed": 11},
    "residual_risk": {"paths": 500, "seed": 12},
    "eval_points": [{"t": 0.0, "s": [100.0], "x": [1, 1], "y": [0.0, 0.0]}],
    "outputs": ["price-field"],
}


def write_config(tmp_path, doc, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_parse_and_roundtrip():
    scn = parse_scenario(copy.deepcopy(BASE_CONFIG))
    market = scn.market
    assert market.n == 1 and market.k == 2 and market.n_components == 2
    assert market.r((1, 1)) == 0.04
    # the resolved echo re-parses to an equivalent scenario: the same claim
    # and the same hazard rates, bit for bit
    again = parse_scenario(scn.resolved_dict())
    for name in ("weights", "offset", "slope", "hinge_strikes",
                 "hinge_slopes", "c1", "c2"):
        np.testing.assert_array_equal(getattr(again.claim, name),
                                      getattr(scn.claim, name), err_msg=name)
    assert again.tol == scn.tol
    ages = np.linspace(0.0, 2.0, 41)
    assert len(again.models) == len(scn.models)
    for h, h0 in zip(again.models, scn.models):
        assert h.k == h0.k and set(h.rates) == set(h0.rates)
        for i, j in h0.rates:
            np.testing.assert_array_equal(h.rate(i, j, ages),
                                          h0.rate(i, j, ages))


def test_factored_and_by_component_coefficients():
    doc = copy.deepcopy(BASE_CONFIG)
    doc["market"]["rate"] = {"factored": {
        "combine": "sum",
        "terms": [{"component": 0, "values": [0.01, 0.03]},
                  {"component": 1, "values": [0.01, 0.02]}]}}
    doc["market"]["vol"] = {"by_component": {
        "component": 1, "matrices": [[[0.2]], [[0.3]]]}}
    scn = parse_scenario(doc)
    assert scn.market.r((1, 1)) == pytest.approx(0.02)
    assert scn.market.r((2, 2)) == pytest.approx(0.05)
    assert scn.market.sigma(0.5, (1, 2))[0, 0] == pytest.approx(0.3)


def test_invalid_hazard_names_offending_pair(tmp_path):
    doc = copy.deepcopy(BASE_CONFIG)
    doc["components"][1]["hazards"]["1->2"] = {"family": "constant", "c": -0.4}
    path = write_config(tmp_path, doc)
    code = run_scenario(path, out_dir=str(tmp_path / "out"))
    assert code == 2
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc)
    assert "components[1].hazards['1->2']" in str(err.value)


def test_missing_seed_rejected_for_stochastic_output():
    doc = copy.deepcopy(BASE_CONFIG)
    doc["outputs"] = ["mc-check"]
    del doc["mc"]["seed"]
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc)
    assert "mc.seed" in str(err.value)


@pytest.mark.parametrize("section,key,value", [
    ("solver", "gh_nodes", 0),
    ("solver", "bsm_outer_nodes", -3),
    ("solver", "max_iter", 0),
    ("solver", "tol", float("nan")),
    ("solver", "tol", 0.0),
    pytest.param("solver", "tol", 10 ** 400, id="solver-tol-huge-int"),
    ("sensitivity", "scale", float("inf")),
    ("sensitivity", "scale", -1.1),
    ("sensitivity", "scale", 1.0),
    ("grid", "time_steps", "abc"),
    ("grid", "time_steps", 1),
    ("grid", "price_nodes", 7.9),
    ("grid", "price_nodes", 4),
    ("grid", "age_nodes", 1),
    ("grid", "span_stds", 0),
    ("grid", "span_stds", -2),
    ("mc", "paths", "many"),
    ("residual_risk", "paths", "many"),
])
def test_invalid_solver_setting_exits_2_naming_its_path(tmp_path, capsys,
                                                        section, key, value):
    # section None is a top-level key
    doc = copy.deepcopy(BASE_CONFIG)
    (doc if section is None else doc.setdefault(section, {}))[key] = value
    where = ".".join(p for p in ("scenario", section, key) if p)
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc)
    assert err.value.path == where
    # json writes NaN and Infinity as literals, which the loader reads back
    path = write_config(tmp_path, doc)
    assert run_scenario(path, out_dir=str(tmp_path / "out")) == 2
    assert where in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("keys,value,where", [
    (("components", 0, "hazards", "1->2"), {"family": "constant"},
     "scenario.components[0].hazards['1->2']"),
    (("market", "rate"), {"const": "abc"}, "scenario.market.rate"),
    (("eval_points", 0, "t"), "abc", "scenario.eval_points[0].t"),
    (("components", 1), ["hazards"], "scenario.components[1]"),
    (("components", 0, "hazards", "1->2"), 0.4,
     "scenario.components[0].hazards['1->2']"),
    (("components", 0, "hazards", "1->2"), {"family": "constant", "c": "x"},
     "scenario.components[0].hazards['1->2']"),
    (("market", "vol"), [["abc"]], "scenario.market.vol"),
    (("eval_points", 0), "abc", "scenario.eval_points[0]"),
    (("eval_points", 0, "s"), ["abc"], "scenario.eval_points[0]"),
    (("assets",), 5, "scenario.assets"),
    (("claim",), [], "scenario.claim"),
    (("grid",), [], "scenario.grid"),
    (("solver",), [], "scenario.solver"),
    (("mc",), [], "scenario.mc"),
    (("market", "vol"), {"table": [5]}, "scenario.market.vol.table[0]"),
    (("claim", "strike"), "abc", "scenario.claim.strike"),
    (("outputs",), 5, "scenario.outputs"),
    (("market", "rate"), {"factored": {"terms": [5]}},
     "scenario.market.rate.terms[0]"),
    (("market", "vol"), {"knots": [[0.5, [[0.2]]], [0.2, [[0.3]]]]},
     "scenario.market.vol"),
    (("horizon",), math.inf, "scenario.horizon"),
    (("horizon",), True, "scenario.horizon"),
    (("assets", "n"), True, "scenario.assets.n"),
    (("eval_points", 0, "s"), [math.nan], "scenario.eval_points[0]"),
    (("eval_points", 0, "y"), [math.nan, 0.0], "scenario.eval_points[0]"),
    (("eval_points", 0, "x"), [1.5, 1], "scenario.eval_points[0]"),
    (("claim", "weights"), [math.nan], "scenario.claim.weights"),
    (("claim",), {"kind": "custom-piecewise-linear", "weights": [1.0],
                  "knots": [0.0, math.nan], "values": [0.0, 1.0],
                  "final_slope": 1.0}, "scenario.claim.knots"),
    (("components", 0, "hazards", "1->2"),
     {"family": "affine", "a": 0.2, "b": math.nan},
     "scenario.components[0].hazards['1->2']"),
    (("market", "vol"), {"knots": [[0.0, [[0.2]]], [math.nan, [[0.3]]]]},
     "scenario.market.vol"),
    (("mc", "seed"), "abc", "scenario.mc.seed"),
    (("mc", "seed"), -1, "scenario.mc.seed"),
    (("residual_risk", "seed"), "abc", "scenario.residual_risk.seed"),
    (("residual_risk", "seed"), -1, "scenario.residual_risk.seed"),
    (("claim", "final_slope"), "abc", "scenario.claim.final_slope"),
    (("residual_risk",), [], "scenario.residual_risk"),
    (("components", 0, "hazards", "1->2"), {"family": "constant",
                                             "c": 10 ** 400},
     "scenario.components[0].hazards['1->2']"),
    (("components", 0, "hazards", "1->2"), {"family": "constant", "c": True},
     "scenario.components[0].hazards['1->2']"),
    (("components", 1, "hazards", "2->1"),
     {"family": "weibull", "c": 0.7, "kappa": True},
     "scenario.components[1].hazards['2->1']"),
    (("components", 0, "hazards", "2->1"),
     {"family": "affine", "a": 0.2, "b": True},
     "scenario.components[0].hazards['2->1']"),
    (("components", 1, "hazards", "1->2"),
     {"family": "tabulated", "knots": [0.0, 1.0], "values": [0.5, True]},
     "scenario.components[1].hazards['1->2']"),
    (("mc", "paths"), 2 ** 32 + 1, "scenario.mc.paths"),
    (("residual_risk", "paths"), 2 ** 40, "scenario.residual_risk.paths"),
    (("components", 1, "hazards", "1->2"),
     {"family": "tabulated", "knots": [0.0, 1e-300, 1.0],
      "values": [1.0, 0.01, 2.0]},
     "scenario.components[1].hazards['1->2']"),
    (("claim",), {"kind": "custom-piecewise-linear", "weights": [1.0],
                  "knots": [0.0, 1e-241, 1e-104, 1.5],
                  "values": [37.0, 36.0, 40.0, 37.0], "final_slope": 0.6},
     "scenario.claim"),
    (("market", "vol"), {"knots": [[0.0, [[0.25]]], [1e-200, [[0.5]]]]},
     "scenario.market"),
])
def test_malformed_config_exits_2_naming_its_path(tmp_path, capsys, keys,
                                                  value, where):
    doc = copy.deepcopy(BASE_CONFIG)
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc)
    assert err.value.path == where
    path = write_config(tmp_path, doc)
    assert run_scenario(path, out_dir=str(tmp_path / "out")) == 2
    assert where in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _shipped_config(name):
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                           name)) as fh:
        return json.load(fh)


@pytest.mark.parametrize("section,key,value", [
    ("grid", "span_stds", 1e4),
    ("grid", "span_stds", 1500),
    (None, "horizon", 1e6),
    ("market", "vol", [[1e6]]),
], ids=["span_stds-1e4", "span_stds-1500", "horizon-1e6", "vol-1e6"])
def test_overflowing_price_box_exits_2_before_any_solve(tmp_path, capsys,
                                                        monkeypatch, section,
                                                        key, value):
    # a node price s beyond |ln s| = 354.9 overflows s**2 or 1/s**2: the
    # solve would end in NaN (exit 3) or write non-finite hedge ratios
    monkeypatch.setattr(cli, "solve_price_field", never)
    doc = _shipped_config("markov_modulated_call.json")
    doc["grid"].update(time_steps=4, price_nodes=11, age_nodes=3)
    (doc if section is None else doc[section])[key] = value
    out = tmp_path / "out"
    assert run_scenario(write_config(tmp_path, doc), out_dir=str(out)) == 2
    assert "config error: grid.span_stds:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section,key,value", [
    ("solver", "gh_node", 4),
    ("grid", "price_node", 41),
    (None, "outputz", ["price-field"]),
])
def test_unknown_key_exits_2_naming_its_path(tmp_path, capsys, section, key,
                                             value):
    # a misspelt key would otherwise leave its default in force unseen
    doc = copy.deepcopy(BASE_CONFIG)
    (doc if section is None else doc[section])[key] = value
    where = ".".join(p for p in ("scenario", section, key) if p)
    with pytest.raises(ConfigError, match="unknown key") as err:
        parse_scenario(doc)
    assert err.value.path == where
    path = write_config(tmp_path, doc)
    assert run_scenario(path, out_dir=str(tmp_path / "out")) == 2
    assert where in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_retired_keys_and_shipped_configs_still_parse():
    doc = copy.deepcopy(BASE_CONFIG)
    doc["solver"].update(bsm_gl_nodes=16, bsm_gh_nodes=8, panel_nodes=1,
                         sparse_level=2)
    doc["mc"]["antithetic"] = True
    doc["envelope_check_seed"] = 5
    base = parse_scenario(copy.deepcopy(BASE_CONFIG))
    scn = parse_scenario(doc)
    assert scn.solver == base.solver and scn.mc_paths == base.mc_paths
    folder = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
    names = sorted(os.listdir(folder))
    assert names
    for name in names:
        with open(os.path.join(folder, name)) as fh:
            parse_scenario(json.load(fh))


def _leaves(node, keys=()):
    """Key paths of the values of a config that are not objects or lists."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, v in items:
        if isinstance(v, (dict, list)):
            yield from _leaves(v, keys + (key,))
        else:
            yield keys + (key,)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(keys=st.sampled_from(list(_leaves(BASE_CONFIG))),
       value=st.sampled_from([math.nan, math.inf, -math.inf, -1, 0, True,
                              "x", [], {}, None]))
def test_fuzzed_config_parses_or_names_its_path(keys, value):
    # one leaf of the base config replaced: the parse either succeeds or
    # raises a ConfigError with a path, and a non-finite number in place
    # of a number never parses
    doc = copy.deepcopy(BASE_CONFIG)
    node = doc
    for key in keys[:-1]:
        node = node[key]
    old = node[keys[-1]]
    node[keys[-1]] = copy.deepcopy(value)
    try:
        parse_scenario(doc)
    except ConfigError as exc:
        assert exc.path is not None
    else:
        numeric = isinstance(old, (int, float)) and not isinstance(old, bool)
        assert not (numeric and isinstance(value, float)
                    and not math.isfinite(value))


@pytest.mark.parametrize("command", ["price", "selftest"])
def test_threads_flag_is_rejected(tmp_path, capsys, command):
    # the Monte Carlo blocks run one after another: there is no thread
    # count to set, and argparse exits 2 on the flag before any work
    path = write_config(tmp_path, copy.deepcopy(BASE_CONFIG))
    out = tmp_path / "out"
    args = [path, "--dry-run"] if command == "price" else ["--profile", "fast"]
    with pytest.raises(SystemExit) as exc:
        main([command, *args, "--out", str(out), "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


def never(*args, **kwargs):
    raise AssertionError("called after --out was rejected")


def test_out_naming_a_file_exits_2(tmp_path, capsys, monkeypatch):
    # the output directory is made before the solve, and a path that cannot
    # be one is a config error, not a traceback
    monkeypatch.setattr(cli, "solve_price_field", never)
    path = write_config(tmp_path, copy.deepcopy(BASE_CONFIG))
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    assert main(["price", path, "--out", str(taken)]) == 2
    assert "config error: --out:" in capsys.readouterr().err
    assert taken.read_text() == "kept\n"


def test_selftest_out_naming_a_file_exits_2_before_any_criterion(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(acceptance, "run_all", never)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    assert main(["selftest", "--profile", "fast", "--out", str(taken)]) == 2
    captured = capsys.readouterr()
    assert "config error: --out:" in captured.err and captured.out == ""
    assert taken.read_text() == "kept\n"


@pytest.mark.parametrize("key,value,kind", [("bsm_gl_nodes", 16, "basket-call"),
                                            ("bsm_gh_nodes", 4, "linear"),
                                            ("panel_nodes", 2, "basket-call"),
                                            ("sparse_level", 2, "basket-call"),
                                            ("envelope_check_seed", "abc",
                                             "basket-put")])
def test_retired_bsm_key_leaves_price_unchanged(tmp_path, key, value, kind):
    # the frozen-regime price has no Gauss-Legendre rule (which served kinked
    # claims) and no plain Gauss-Hermite branch (which served claims without
    # a kink) any more, and the switch-time integral is the panel midpoint
    # rule, and the head-asset rule is always the tensor rule; a claim's
    # envelope holds by construction, so no randomized check reads the
    # top-level envelope_check_seed; the retired keys parse like any other
    # unread one
    prices = []
    for extra in ({}, {key: value}):
        doc = copy.deepcopy(BASE_CONFIG)
        doc["claim"]["kind"] = kind
        (doc if key == "envelope_check_seed" else doc["solver"]).update(extra)
        out = tmp_path / f"out{len(prices)}"
        assert run_scenario(write_config(tmp_path, doc), out_dir=str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        prices.append(report["eval_points"][0]["price"])
    assert prices[0] == prices[1]


def test_retired_antithetic_key_leaves_mc_check_unchanged(tmp_path):
    # the Monte Carlo check draws one Gaussian vector per path segment, so
    # mc.antithetic is read by no code, like the other retired keys
    reports = []
    for extra in ({}, {"antithetic": True}):
        doc = copy.deepcopy(BASE_CONFIG)
        doc["mc"].update(extra)
        doc["outputs"] = ["mc-check"]
        out = tmp_path / f"out{len(reports)}"
        assert run_scenario(write_config(tmp_path, doc), out_dir=str(out)) == 0
        reports.append(json.loads((out / "report.json").read_text()))
    for key in ("eval_points", "mc_check"):
        assert reports[0][key] == reports[1][key]


def test_dry_run_prints_grid(tmp_path, capsys):
    path = write_config(tmp_path, copy.deepcopy(BASE_CONFIG))
    code = run_scenario(path, out_dir=str(tmp_path), dry_run=True)
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["grid"]["time_steps"] == 10
    assert not (tmp_path / "report.json").exists()


def test_no_convergence_maps_to_exit_3(tmp_path):
    doc = copy.deepcopy(BASE_CONFIG)
    doc["solver"]["tol"] = 1e-15
    doc["solver"]["max_iter"] = 2
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    code = run_scenario(path, out_dir=str(out))
    assert code == 3
    rep = json.loads((out / "report.json").read_text())
    assert rep["error"]["type"] == "NoConvergence"


def test_solver_breakdown_maps_to_exit_3(tmp_path, capsys, monkeypatch):
    # any engine error of the solve other than NoConvergence: exit 3 and an
    # error block with its type and message, and no convergence entry
    def breakdown(*args, **kwargs):
        raise SingularCovariance("log covariance not positive definite")
    monkeypatch.setattr(cli, "solve_price_field", breakdown)
    out = tmp_path / "out"
    path = write_config(tmp_path, copy.deepcopy(BASE_CONFIG))
    assert run_scenario(path, out_dir=str(out)) == 3
    rep = json.loads((out / "report.json").read_text())
    assert rep["error"] == {"type": "SingularCovariance",
                            "message": "log covariance not positive definite"}
    assert "eval_points" not in rep
    assert "solver error: log covariance" in capsys.readouterr().err


def test_breakdown_residuals_leave_the_report_strict_json(tmp_path,
                                                          monkeypatch):
    # a march that broke down reports NaN residuals: the error block
    # writes them as null, so the report stays strict JSON
    def breakdown(*args, **kwargs):
        raise NoConvergence("last residual nan", ConvergenceReport(
            tol=1e-3, iterations=2, deltas=[0.5, math.nan],
            ratios=[math.nan], residual=math.inf))
    monkeypatch.setattr(cli, "solve_price_field", breakdown)
    out = tmp_path / "out"
    path = write_config(tmp_path, copy.deepcopy(BASE_CONFIG))
    assert run_scenario(path, out_dir=str(out)) == 3
    conv = json.loads((out / "report.json").read_text(),
                      parse_constant=_reject_constant)["error"]["convergence"]
    assert conv["deltas"] == [0.5, None] and conv["ratios"] == [None]
    assert conv["residual"] is None and conv["iterations"] == 2


def _demo_doc(**solver):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                        "two_state_call.json")
    with open(path) as fh:
        doc = json.load(fh)
    doc["grid"] = {"time_steps": 8, "price_nodes": 31, "age_nodes": 4}
    doc["solver"].update(solver)
    doc["outputs"] = ["sensitivity"]
    return doc


def test_perturbed_solve_that_does_not_converge_exits_3(tmp_path, capsys):
    # the base settles in 4 local applications, the hazards scaled by 10
    # need 7: with max_iter 4 the sensitivity's solve fails, and the run
    # ends in exit 3 with an error block that names the hazard set
    doc = _demo_doc(tol=1e-6, max_iter=4)
    doc["sensitivity"] = {"scale": 10.0}
    out = tmp_path / "out"
    assert run_scenario(write_config(tmp_path, doc), out_dir=str(out)) == 3
    rep = json.loads((out / "report.json").read_text())
    assert rep["error"]["type"] == "NoConvergence"
    assert rep["error"]["message"].startswith("hazard set 1: ")
    assert rep["error"]["convergence"]["iterations"] == 4
    assert "sensitivity" not in rep
    assert "hazard set 1" in capsys.readouterr().err
    # the same run converges with max_iter 7
    doc["solver"]["max_iter"] = 7
    assert run_scenario(write_config(tmp_path, doc),
                        out_dir=str(tmp_path / "out7")) == 0


def test_sensitivity_block_equals_a_separate_sensitivity_check(tmp_path):
    # run_scenario marches the scaled hazards with the base; the block it
    # writes is that of sensitivity_check solving them on its own
    doc = _demo_doc()
    scn = parse_scenario(copy.deepcopy(doc))
    out = tmp_path / "out"
    assert run_scenario(write_config(tmp_path, doc), out_dir=str(out)) == 0
    grid = Grid(scn.market, scn.horizon,
                np.stack([ep[1] for ep in scn.eval_points]), scn.grid_spec)
    base = solve_price_field(scn.market, scn.claim, scn.models, grid,
                             scn.tol, scn.max_iter, scn.solver)
    tilde = [h.scaled(scn.sensitivity_scale) for h in scn.models]
    want = sensitivity_check(base, tilde, scn.tol).to_dict()
    got = json.loads((out / "report.json").read_text())["sensitivity"]
    assert got == json.loads(json.dumps(want))


def test_price_scenario_outputs_match_frozen_reference(tmp_path):
    # regime-independent coefficients: every phi column must match the
    # frozen-regime price at its (t, s) within the solver tolerance
    doc = copy.deepcopy(BASE_CONFIG)
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    code = run_scenario(path, out_dir=str(out))
    assert code == 0

    scn = parse_scenario(doc)
    rows = (out / "price_field.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    assert header == ["t", "s1", "x0", "x1", "y0", "y1", "phi"]
    worst = 0.0
    for line in rows[1:]:
        vals = [float(v) for v in line.split(",")]
        t, s = vals[0], vals[1]
        phi = vals[-1]
        ref = bsm_price_grid(scn.market, scn.claim, (1, 1), t, 1.0,
                             np.array([s]))
        worst = max(worst, abs(phi - ref) / (1.0 + s))
    assert worst < 2e-3

    report = json.loads((out / "report.json").read_text())
    assert report["convergence"]["converged_at"] <= 2
    assert report["eval_points"][0]["price"] > 0
    # 17-significant-digit round trip
    sample = rows[1].split(",")[-1]
    assert float(sample) == float(f"{float(sample):.17g}")
    # surface slice exists for the eval point
    assert (out / "surface_11_0-0.csv").exists()


def test_eval_points_at_distinct_ages_write_distinct_surfaces(tmp_path):
    # each age is named at its shortest round-trip form: 0.2500001 and
    # 0.2500004 agree to 6 significant digits but name two files
    doc = _shipped_config("two_state_call.json")
    doc["grid"] = {"time_steps": 6, "price_nodes": 21, "age_nodes": 4}
    doc["outputs"] = ["price-field"]
    doc["eval_points"] = [{"t": 0.5, "s": [100.0], "x": [1, 1], "y": [a, 0.0]}
                          for a in (0.2500001, 0.2500004)]
    out = tmp_path / "out"
    assert run_scenario(write_config(tmp_path, doc), out_dir=str(out)) == 0
    names = sorted(p.name for p in out.glob("surface_*.csv"))
    assert names == ["surface_11_0.2500001-0.csv",
                     "surface_11_0.2500004-0.csv"]
    assert (out / names[0]).read_bytes() != (out / names[1]).read_bytes()


def test_tiny_eval_age_names_a_short_surface_file(tmp_path):
    # an age of 1e-241 at its positional form would be a 250-character
    # name, past the file system's limit: it is named in scientific form
    doc = copy.deepcopy(BASE_CONFIG)
    doc["grid"] = {"time_steps": 4, "price_nodes": 9, "age_nodes": 3}
    doc["eval_points"][0].update(t=0.5, y=[1e-241, 0.25])
    out = tmp_path / "out"
    assert run_scenario(write_config(tmp_path, doc), out_dir=str(out)) == 0
    assert [p.name for p in out.glob("surface_*.csv")] == [
        "surface_11_1e-241-0.25.csv"]


def test_full_output_set_runs(tmp_path):
    doc = copy.deepcopy(BASE_CONFIG)
    doc["grid"] = {"time_steps": 8, "price_nodes": 25, "age_nodes": 3}
    doc["outputs"] = ["price-field", "hedge-field", "mc-check",
                      "pde-residual", "sensitivity", "residual-risk"]
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    code = run_scenario(path, out_dir=str(out))
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["mc_check"][0]["within_3se"]
    assert "pde_residual" in report
    assert report["sensitivity"]["satisfied"]
    assert report["residual_risk"]["r0"] >= 0.0
    assert (out / "hedge_field.csv").exists()
    hedge_rows = (out / "hedge_field.csv").read_text().strip().splitlines()
    assert hedge_rows[0] == "t,s1,x0,x1,y0,y1,xi1,eps"
    # config echo in the report re-parses
    parse_scenario(report["config"])


def test_shipped_markov_modulated_config_passes_its_mc_check(tmp_path):
    # every state of both components is memoryless, so every age axis of
    # the solver collapses; the field and hedges do not depend on the ages
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                        "markov_modulated_call.json")
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["mc_check"][0]["within_3se"]
    for name, value_cols in (("price_field.csv", 1), ("hedge_field.csv", 2)):
        rows = (out / name).read_text().strip().splitlines()
        assert rows[0].split(",")[4:6] == ["y0", "y1"]
        by_node = {}
        for line in rows[1:]:
            cols = line.split(",")
            by_node.setdefault(tuple(cols[:4]), set()).add(
                tuple(cols[-value_cols:]))
        assert all(len(values) == 1 for values in by_node.values())

    # the report's eval-point hedge is the hedge field's row at that node
    ep = report["eval_points"][0]
    rows = [[float(v) for v in line.split(",")] for line in
            (out / "hedge_field.csv").read_text().strip().splitlines()[1:]]
    match = [row for row in rows if row[0] == ep["t"]
             and row[2:4] == ep["x"] and row[4:6] == ep["y"]
             and abs(row[1] - ep["s"][0]) <= 1e-12 * ep["s"][0]]
    assert len(match) == 1
    xi, eps = match[0][6], match[0][7]
    assert abs(xi - ep["xi"][0]) <= 1e-12
    assert abs(eps - ep["eps"]) <= 1e-12 * (1.0 + abs(ep["s"][0]))


def _markov_modulated_field():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                        "markov_modulated_call.json")
    with open(path) as fh:
        scn = parse_scenario(json.load(fh))
    grid = Grid(scn.market, scn.horizon,
                np.array([ep[1] for ep in scn.eval_points]), scn.grid_spec)
    return solve_price_field(scn.market, scn.claim, scn.models, grid,
                             scn.tol, scn.max_iter, scn.solver)


def _c3_fast_field():
    b = acceptance._bundle_c3("fast")
    return b["field"], b["report"]


@pytest.mark.parametrize("model", [_markov_modulated_field, _c3_fast_field],
                         ids=["markov_modulated_call", "c3_fast"])
def test_storage_shape_never_changes_what_a_reader_returns(tmp_path, model):
    # the solved field, stored with one age row on each memoryless axis,
    # against the same values as full-shape arrays (n_x, c_i.., S..): every
    # reader returns the same numbers and writes the same bytes.  Where a
    # reader blends or sums the equal age rows of the full arrays, the two
    # agree to round-off: a few ulp of the largest value, 1e-12 relative
    # for the PDE residual, a difference quotient of such values
    field, report = model()
    solver, g = field.solver, field.grid
    nc = g.n_components
    full = PriceField(solver, [np.asarray(slab) for slab in field.slabs])
    assert any(part.shape[1:1 + nc] != slab.shape[1:1 + nc]
               for slab in field.slabs for part in slab.parts)

    rng = np.random.default_rng(5)
    B = 400
    t = rng.uniform(0.0, g.horizon, B)
    s = np.exp(rng.uniform(np.array([a[0] for a in g.lns_axes]) - 0.2,
                           np.array([a[-1] for a in g.lns_axes]) + 0.2,
                           (B, g.n)))
    x_idx = rng.integers(0, len(g.x_tuples), B)
    y = rng.uniform(0.0, 1.0, (B, nc)) * t[:, None]
    got = field.values(t, s, x_idx, y)
    np.testing.assert_allclose(got, full.values(t, s, x_idx, y), rtol=0,
                               atol=16 * np.finfo(float).eps
                               * np.max(np.abs(got)))

    res, res_full = pde_residual(field), pde_residual(full)
    assert res.n_nodes == res_full.n_nodes
    for a, b in zip([res.max_scaled, res.mean_scaled] + res.max_by_time,
                    [res_full.max_scaled, res_full.mean_scaled]
                    + res_full.max_by_time):
        assert (a is None and b is None) or a == pytest.approx(b, rel=1e-12)
    assert linear_growth_norm(field) == linear_growth_norm(full)
    assert linear_growth_norm(field, full) == 0.0

    hf = hedge_field(field)
    written = []
    for tag, f, h in (("stored", field, hf),
                      ("full", full, HedgeField(
                          full, [np.asarray(x) for x in hf.xi],
                          [np.asarray(e) for e in hf.eps]))):
        out = tmp_path / tag
        out.mkdir()
        write_price_field(f, report, str(out / "price_field.csv"),
                          str(out / "price_field.json"))
        write_hedge_field(h, str(out / "hedge_field.csv"))
        written.append([(out / name).read_bytes()
                        for name in ("price_field.csv", "hedge_field.csv")])
    assert written[0] == written[1]


def test_field_csv_rows_match_slabs_two_assets_two_components(tmp_path):
    doc = copy.deepcopy(BASE_CONFIG)
    doc["assets"] = {"n": 2}
    doc["market"]["drift"] = [0.08, 0.06]
    doc["market"]["vol"] = {"by_component": {
        "component": 1,
        "matrices": [[[0.25, 0.0], [0.05, 0.2]], [[0.3, 0.0], [0.0, 0.22]]]}}
    doc["claim"] = {"kind": "basket-call", "weights": [0.5, 0.5],
                    "strike": 100.0}
    doc["grid"] = {"time_steps": 3, "price_nodes": 5, "age_nodes": 3}
    doc["solver"]["gh_nodes"] = 4
    doc["eval_points"][0]["s"] = [100.0, 100.0]
    scn = parse_scenario(doc)
    grid = Grid(scn.market, scn.horizon, np.array([[100.0, 100.0]]),
                scn.grid_spec)
    field, conv = solve_price_field(scn.market, scn.claim, scn.models, grid,
                                    scn.tol, scn.max_iter, scn.solver)
    hf = hedge_field(field)
    write_price_field(field, conv, str(tmp_path / "price_field.csv"),
                      str(tmp_path / "price_field.json"))
    write_hedge_field(hf, str(tmp_path / "hedge_field.csv"))

    n, nc = 2, 2
    n_rows = sum(len(grid.x_tuples) * int(c) ** nc * 5 ** n
                 for c in grid.c_counts)
    # the full broadcast of the stored slabs: every grid row is written
    per_slab = {"price_field.csv": [np.asarray(s)[..., None]
                                    for s in field.slabs],
                "hedge_field.csv": [np.concatenate(
                    [np.asarray(xi), np.asarray(eps)[..., None]], -1)
                    for xi, eps in zip(hf.xi, hf.eps)]}
    for name, slabs in per_slab.items():
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) - 1 == n_rows
        prev = None
        for line in lines[1:]:
            cols = line.split(",")
            t = float(cols[0])
            s = [float(v) for v in cols[1:1 + n]]
            x = tuple(int(v) for v in cols[1 + n:1 + n + nc])
            y = [float(v) for v in cols[1 + n + nc:1 + n + 2 * nc]]
            vals = [float(v) for v in cols[1 + n + 2 * nc:]]
            # every printed coordinate is an exact grid node
            i = list(grid.t_nodes).index(t)
            s_idx = tuple(list(grid.s_axes[l]).index(s[l]) for l in range(n))
            y_idx = tuple(list(grid.age_nodes).index(a) for a in y)
            key = (i, grid.x_index[x]) + y_idx + s_idx
            # rows run time, regime tuple, ages, then prices in C order
            assert prev is None or key > prev
            prev = key
            assert vals == list(slabs[i][key[1:]])


def test_version_command(capsys):
    assert main(["version"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "0.1.0"


def test_retired_threads_key_leaves_every_output_unchanged(tmp_path):
    # the Monte Carlo blocks run one after another, so the config key
    # threads and run_scenario's threads argument are read by no code:
    # every file is the same bytes, bar the report's echo of the config
    runs = []
    for extra, kwargs in (({}, {}), ({"threads": 2}, {}), ({}, {"threads": 2})):
        doc = copy.deepcopy(BASE_CONFIG)
        doc.update(extra)
        doc["grid"] = {"time_steps": 6, "price_nodes": 21, "age_nodes": 3}
        doc["outputs"] = ["price-field", "hedge-field", "mc-check",
                          "residual-risk"]
        out = tmp_path / f"out{len(runs)}"
        assert run_scenario(write_config(tmp_path, doc), out_dir=str(out),
                            **kwargs) == 0
        report = json.loads((out / "report.json").read_text())
        report["config"].pop("threads", None)
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())
                 if p.name != "report.json"}
        runs.append((report, files))
    assert runs[0] == runs[1] == runs[2]
    assert set(runs[0][0]) >= {"mc_check", "residual_risk"}
    assert len(runs[0][1]) == 4


def _reject_constant(literal):
    raise ValueError(f"non-finite number {literal}")


def test_selftest_fast_deterministic_bytes(tmp_path):
    # two runs in fresh processes write the same report, and it is strict
    # JSON: json writes a non-finite float as NaN or Infinity, which
    # parse_constant rejects
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, "-m", "regimehedge.cli", "selftest",
           "--profile", "fast"]
    outs = []
    for tag in "ab":
        d = tmp_path / tag
        r = subprocess.run(cmd + ["--out", str(d)], env=env,
                           capture_output=True, text=True, timeout=900)
        assert r.returncode == 0, r.stdout + r.stderr
        outs.append((d / "selftest_report.json").read_bytes())
    assert outs[0] == outs[1]
    report = json.loads(outs[0], parse_constant=_reject_constant)
    assert len(report["results"]) == 10


def test_selftest_corrupted_tolerance_fails(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(acceptance, "TOL_C1_IDENTITY", 1e-30)
    assert main(["selftest", "--profile", "fast", "--out", str(tmp_path)]) == 1
    assert "[FAIL] C01" in capsys.readouterr().out


_unit = st.floats(0.0, 1.0)


def _knots(first, gap, min_size, max_size):
    """Strictly increasing knots: the first drawn from first, each next one
    a draw of gap later."""
    return st.tuples(first, st.lists(gap, min_size=min_size - 1,
                                     max_size=max_size - 1)).map(
        lambda fg: np.cumsum([fg[0], *fg[1]]).tolist())


@st.composite
def _hazard(draw):
    """One hazard spec of any family, within the range its family accepts."""
    family = draw(st.sampled_from(["constant", "affine", "weibull",
                                   "tabulated"]))
    if family == "constant":
        return {"family": family, "c": draw(st.floats(0.01, 10.0))}
    if family == "affine":
        a, b = draw(st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0))
                    .filter(lambda ab: sum(ab) > 0))
        return {"family": family, "a": a, "b": b}
    if family == "weibull":
        return {"family": family, "c": draw(st.floats(0.01, 10.0)),
                "kappa": draw(st.floats(1.0, 4.0))}
    knots = draw(_knots(st.floats(0.0, 0.5), st.floats(0.01, 1.0), 2, 4))
    return {"family": family, "knots": knots,
            "values": draw(st.lists(st.floats(0.01, 10.0),
                                    min_size=len(knots),
                                    max_size=len(knots)))}


@st.composite
def _random_config(draw):
    """A one-asset, two-component config with every hazard family, a
    regime-dependent rate, a volatility with time knots and every claim
    kind, on a small grid with every output but the sensitivity check."""
    horizon = draw(st.floats(0.1, 2.0))
    t = draw(_unit) * horizon
    vol = st.floats(0.05, 0.6)
    knot_times = draw(_knots(st.floats(0.0, 1.0), st.floats(0.01, 1.0), 1, 3))
    kind = draw(st.sampled_from(["basket-call", "basket-put", "linear",
                                 "custom-piecewise-linear"]))
    claim = {"kind": kind, "weights": [draw(st.floats(0.1, 2.0))]}
    if kind in ("basket-call", "basket-put"):
        claim["strike"] = draw(st.floats(0.0, 200.0))
    elif kind == "custom-piecewise-linear":
        knots = draw(_knots(st.floats(0.0, 150.0), st.floats(1.0, 60.0), 1,
                            4))
        claim["knots"] = knots
        claim["values"] = draw(st.lists(st.floats(0.0, 50.0),
                                        min_size=len(knots),
                                        max_size=len(knots)))
        claim["final_slope"] = draw(st.floats(0.0, 1.0))
    return {
        "name": "random",
        "horizon": horizon,
        "assets": {"n": 1},
        "states_per_component": 2,
        "components": [{"hazards": {"1->2": draw(_hazard()),
                                    "2->1": draw(_hazard())}}
                       for _ in range(2)],
        "market": {
            "rate": {"by_component": {
                "component": draw(st.integers(0, 1)),
                "values": draw(st.lists(st.floats(0.0, 0.15), min_size=2,
                                        max_size=2))}},
            "drift": [draw(st.floats(-0.2, 0.3))],
            "vol": {"by_component": {
                "component": draw(st.integers(0, 1)),
                "matrices": [{"knots": [[t, [[draw(vol)]]]
                                        for t in knot_times]}
                             for _ in range(2)]}},
        },
        "claim": claim,
        "grid": {"time_steps": draw(st.integers(4, 6)),
                 "price_nodes": draw(st.integers(9, 13)), "age_nodes": 3},
        "solver": {"tol": 1e-3, "max_iter": 50, "gh_nodes": 16},
        "mc": {"paths": 200, "seed": draw(st.integers(0, 2 ** 31 - 1))},
        "residual_risk": {"paths": 200,
                          "seed": draw(st.integers(0, 2 ** 31 - 1))},
        "eval_points": [{
            "t": t, "s": [draw(st.floats(20.0, 300.0))],
            "x": [draw(st.integers(1, 2)), draw(st.integers(1, 2))],
            "y": [draw(_unit) * t, draw(_unit) * t]}],
        "outputs": ["price-field", "hedge-field", "pde-residual", "mc-check",
                    "residual-risk"],
    }


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(doc=_random_config())
def test_random_valid_config_writes_only_finite_numbers(tmp_path_factory,
                                                        doc):
    # a config that parses either prices (exit 0) or reports a solver
    # error (exit 3); either way its report is strict JSON and no CSV it
    # writes holds a NaN or an infinity
    tmp = tmp_path_factory.mktemp("random")
    out = tmp / "out"
    code = run_scenario(write_config(tmp, doc), out_dir=str(out))
    assert code in (0, 3)
    json.loads((out / "report.json").read_text(),
               parse_constant=_reject_constant)
    for path in out.glob("*.csv"):
        text = path.read_text().lower()
        assert "nan" not in text and "inf" not in text, path.name
