"""Which scipy modules a run loads.

``semi_markov`` imports ``scipy.integrate``, ``scipy.optimize`` and
``scipy.interpolate`` inside the functions that use them, so that a run
with parametric hazards starts without them.  Each check runs in a fresh
interpreter, because other tests import those modules into this one.
"""

import json
import os
import subprocess
import sys

import regimehedge

LAZY = ("scipy.integrate", "scipy.optimize", "scipy.interpolate")

SRC = os.path.dirname(os.path.dirname(os.path.abspath(regimehedge.__file__)))


def _scenario(hazards, outputs):
    return {
        "name": "import-guard",
        "horizon": 1.0,
        "assets": {"n": 1},
        "states_per_component": 2,
        "components": [{"hazards": h} for h in hazards],
        "market": {"rate": 0.04, "drift": [0.08], "vol": [[0.25]]},
        "claim": {"kind": "basket-call", "weights": [1.0], "strike": 100.0},
        "grid": {"time_steps": 6, "price_nodes": 21, "age_nodes": 3},
        "solver": {"tol": 1e-3, "max_iter": 50, "gh_nodes": 16},
        "mc": {"paths": 400, "seed": 11},
        "residual_risk": {"paths": 200, "seed": 12},
        "sensitivity": {"scale": 1.1},
        "eval_points": [{"t": 0.0, "s": [100.0], "x": [1, 1],
                         "y": [0.0, 0.0]}],
        "outputs": outputs,
    }


# the hazard families the benchmark workloads use
WEIBULL = [
    {"1->2": {"family": "weibull", "c": 0.6, "kappa": 1.7},
     "2->1": {"family": "weibull", "c": 0.9, "kappa": 1.4}},
    {"1->2": {"family": "affine", "a": 0.2, "b": 0.15},
     "2->1": {"family": "constant", "c": 0.7}},
]

TABULATED = [
    {"1->2": {"family": "tabulated", "knots": [0.0, 0.5, 2.0],
              "values": [0.3, 0.9, 0.6]},
     "2->1": {"family": "weibull", "c": 0.9, "kappa": 1.4}},
    WEIBULL[1],
]


def _loaded_after(code):
    """The LAZY modules in sys.modules after running code in a fresh
    interpreter whose path finds this regimehedge first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    probe = (f"{code}\nimport sys\n"
             f"print([m for m in {LAZY!r} if m in sys.modules])")
    r = subprocess.run([sys.executable, "-c", probe], env=env,
                       capture_output=True, text=True, timeout=600)
    assert r.returncode == 0, r.stdout + r.stderr
    return r.stdout.strip().splitlines()[-1]


def _run(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return (f"from regimehedge.cli import run_scenario\n"
            f"assert run_scenario({str(path)!r}, {str(tmp_path / 'out')!r}) "
            f"== 0")


def test_import_loads_no_lazy_scipy_module():
    assert _loaded_after("import regimehedge, regimehedge.cli") == "[]"


def test_parametric_run_loads_no_lazy_scipy_module(tmp_path):
    # every output, so that a lazy import moved into the run shows here
    doc = _scenario(WEIBULL, ["price-field", "hedge-field", "mc-check",
                              "pde-residual", "sensitivity",
                              "residual-risk"])
    assert _loaded_after(_run(tmp_path, doc)) == "[]"
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["sensitivity"]["satisfied"]


def test_tabulated_run_parses_solves_and_inverts_its_clock(tmp_path):
    # PCHIP builds the tabulated rate and the exact paths of the MC check
    # invert its clock with brentq
    doc = _scenario(TABULATED, ["price-field", "mc-check"])
    loaded = _loaded_after(_run(tmp_path, doc))
    assert "scipy.interpolate" in loaded and "scipy.optimize" in loaded
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["mc_check"][0]["within_3se"]
