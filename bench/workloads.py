"""Scenario configs for the benchmark workloads, generated from a seed.

The seed drives only the stochastic inputs (``mc.seed``,
``residual_risk.seed`` and ``envelope_check_seed``); the model, grid and
solver settings of each workload are fixed, so ``basket3_solve`` and
``weibull_fine_sens`` give the same numbers for every seed.
"""

from __future__ import annotations

import copy
import json
import random

ALL_OUTPUTS = ["price-field", "hedge-field", "mc-check", "pde-residual",
               "sensitivity", "residual-risk"]

# The demo model as shipped in configs/two_state_call.json; kept here so the
# benchmark's inputs do not move when the repository's example config does.
_DEMO = {
    "name": "two-state-call-demo",
    "horizon": 1.0,
    "assets": {"n": 1},
    "states_per_component": 2,
    "components": [
        {"hazards": {"1->2": {"family": "weibull", "c": 0.6, "kappa": 1.7},
                     "2->1": {"family": "weibull", "c": 0.9, "kappa": 1.4}}},
        {"hazards": {"1->2": {"family": "weibull", "c": 0.5, "kappa": 2.0},
                     "2->1": {"family": "weibull", "c": 0.7, "kappa": 1.3}}},
    ],
    "market": {
        "rate": {"by_component": {"component": 0, "values": [0.03, 0.06]}},
        "drift": [0.07],
        "vol": {"by_component": {
            "component": 1,
            "matrices": [{"knots": [[0.0, [[0.2]]], [1.0, [[0.3]]]]},
                         {"knots": [[0.0, [[0.3]]], [1.0, [[0.22]]]]}]}},
    },
    "claim": {"kind": "basket-call", "weights": [1.0], "strike": 100.0},
    "grid": {"time_steps": 24, "price_nodes": 101, "age_nodes": 7},
    "solver": {"tol": 5e-4, "max_iter": 100, "gh_nodes": 16},
    "mc": {"paths": 20000},
    "residual_risk": {"paths": 5000},
    "sensitivity": {"scale": 1.1},
    "eval_points": [{"t": 0.0, "s": [100.0], "x": [1, 1], "y": [0.0, 0.0]}],
}


def _basket3():
    """The acceptance suite's C3 model (two assets, three components, eight
    regime tuples, diagonal volatility) written as a scenario config."""
    table = []
    for x0 in (1, 2):
        for x1 in (1, 2):
            for x2 in (1, 2):
                s1 = 0.2 if x1 == 1 else 0.3
                s2 = 0.25 if x2 == 1 else 0.32
                table.append({"x": [x0, x1, x2],
                              "value": [[s1, 0.0], [0.0, s2]]})
    return {
        "name": "basket3-solve",
        "horizon": 1.0,
        "assets": {"n": 2},
        "states_per_component": 2,
        "components": [
            {"hazards": {"1->2": {"family": "constant", "c": 0.25},
                         "2->1": {"family": "constant", "c": 0.35}}},
            {"hazards": {"1->2": {"family": "weibull", "c": 0.4, "kappa": 2.0},
                         "2->1": {"family": "constant", "c": 0.3}}},
            {"hazards": {"1->2": {"family": "affine", "a": 0.2, "b": 0.15},
                         "2->1": {"family": "constant", "c": 0.25}}},
        ],
        "market": {
            "rate": {"by_component": {"component": 0, "values": [0.02, 0.05]}},
            "drift": [0.06, 0.07],
            "vol": {"table": table},
        },
        "claim": {"kind": "basket-call", "weights": [0.5, 0.5],
                  "strike": 100.0},
        "grid": {"time_steps": 24, "price_nodes": 31, "age_nodes": 7},
        "solver": {"tol": 5e-4, "max_iter": 100, "gh_nodes": 8,
                   "panel_nodes": 1, "bsm_outer_nodes": 8, "bsm_gl_nodes": 16},
        "mc": {"paths": 20000},
        "residual_risk": {"paths": 5000},
        "sensitivity": {"scale": 1.1},
        "eval_points": [{"t": 0.0, "s": [100.0, 100.0], "x": [1, 1, 1],
                         "y": [0.0, 0.0, 0.0]}],
    }


def _demo_report():
    doc = copy.deepcopy(_DEMO)
    doc["outputs"] = list(ALL_OUTPUTS)
    return doc


def _basket3_solve():
    doc = _basket3()
    doc["outputs"] = ["pde-residual"]
    return doc


def _weibull_fine_sens():
    doc = copy.deepcopy(_DEMO)
    doc["grid"] = {"time_steps": 48, "price_nodes": 161, "age_nodes": 13}
    doc["solver"] = {"tol": 2e-4, "max_iter": 100, "gh_nodes": 16}
    doc["outputs"] = ["sensitivity"]
    return doc


# Why each workload is in the benchmark.  All run with threads=1: on a
# 2-CPU machine threads=2 was slower and unsteady (the demo model at C6's
# grid with MC took 31.2-37.3 s against 26.05 s at threads=1), so a
# threading change has to add its own workload.
WHY = {
    "demo_report": (
        "Full report on the demo model: MC oracle, residual risk, hedge field "
        "and CSV writers dominate and the solver is small."),
    "basket3_solve": (
        "Two-asset, three-component solve: gather-heavy Picard sweeps and "
        "heavy frozen-regime slabs; no MC and no field CSVs (about 16M rows "
        "each at this grid, 155-233 s to write)."),
    "weibull_fine_sens": (
        "One-asset solve at C6's fine grid plus the sensitivity check, which "
        "re-solves the base field: three solves, long smoothing windows."),
}

_BUILDERS = {
    "demo_report": _demo_report,
    "basket3_solve": _basket3_solve,
    "weibull_fine_sens": _weibull_fine_sens,
}

WORKLOADS = tuple(_BUILDERS)

# Grids and path counts for the smoke tests: the same code paths in seconds.
_SHRUNK = {
    "demo_report": ({"time_steps": 6, "price_nodes": 21, "age_nodes": 3},
                    {"mc": 400, "residual_risk": 200}),
    "basket3_solve": ({"time_steps": 6, "price_nodes": 9, "age_nodes": 3}, {}),
    "weibull_fine_sens": ({"time_steps": 8, "price_nodes": 21,
                           "age_nodes": 4}, {}),
}


def make_config(workload: str, seed: int, shrink: bool = False) -> dict:
    """The scenario document of one workload for one seed."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from "
                         f"{', '.join(WORKLOADS)}")
    doc = _BUILDERS[workload]()
    rng = random.Random(seed)
    doc["mc"]["seed"] = rng.randrange(2 ** 31)
    doc["residual_risk"]["seed"] = rng.randrange(2 ** 31)
    doc["envelope_check_seed"] = rng.randrange(2 ** 31)
    if shrink:
        grid, paths = _SHRUNK[workload]
        doc["grid"] = dict(grid)
        for key, n in paths.items():
            doc[key]["paths"] = n
    return doc


def config_bytes(workload: str, seed: int, shrink: bool = False) -> bytes:
    """The config file contents; identical bytes for identical arguments."""
    doc = make_config(workload, seed, shrink)
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
