"""Batch front-end: price scenarios from JSON configs, run the self-test.

Exit codes: 0 success, 1 self-test failure, 2 config/validation error,
3 solver failure (no convergence or numerical breakdown).

The price field, hedge field and surface CSVs share one writer: one row
per price node of each (t, regime tuple, ages) block, price nodes in C
order, every number with 17 significant digits.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

import numpy as np

from . import __version__
from .analysis import residual_risk, sensitivity_check
from .errors import ConfigError, NoConvergence, RegimeHedgeError
from .hedging import hedge_field, strategy_at
from .mc_oracle import mc_price
from .scenario import load_scenario
from .volterra_pricer import Grid, pde_residual, solve_price_field


def _json_dump(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path, grid, header, n_values, blocks):
    """Write one row (t, s.., keys.., values..) per price node of each block.

    blocks yields (t, keys, values): keys is the text of the columns between
    the prices and the values, with a leading comma, and values has shape
    (S_1, .., S_n, n_values); price nodes run in C order.  The price columns
    are formatted once into a row template, so each block takes a single %
    call.  Every number carries 17 significant digits.
    """
    prices = grid.s_mesh().reshape(-1, grid.n)
    # {0} is t and {1} the keys; the escaped %% become the value fields
    row = "{0}," + ",".join(["%.17g"] * grid.n) + "{1}," \
        + ",".join(["%%.17g"] * n_values) + "\n"
    template = (row * len(prices)) % tuple(prices.ravel())
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for t, keys, values in blocks:
            fh.write(template.format("%.17g" % t, keys)
                     % tuple(values.ravel().tolist()))


def _field_blocks(grid, slabs):
    """(t, keys, values) per (time node, regime tuple, ages) of slabs, where
    slabs[i][xi] is a regime tuple's stored array (c_i or 1 per component,
    S.., k); an age index clips to its stored rows."""
    for i, slab in enumerate(slabs):
        c = int(grid.c_counts[i])
        for xi, x in enumerate(grid.x_tuples):
            arr = slab[xi]
            last = [n - 1 for n in arr.shape[:grid.n_components]]
            for y_idx in itertools.product(range(c),
                                           repeat=grid.n_components):
                keys = "".join(f",{v}" for v in x) \
                    + "".join(",%.17g" % grid.age_nodes[a] for a in y_idx)
                yield grid.t_nodes[i], keys, arr[tuple(map(min, y_idx, last))]


def _field_header(g, value_cols):
    return ["t"] + [f"s{l+1}" for l in range(g.n)] \
        + [f"x{m}" for m in range(g.n_components)] \
        + [f"y{m}" for m in range(g.n_components)] + value_cols


def write_price_field(field, report, csv_path, json_path):
    """Columnar CSV (t, s.., x.., y.., phi) plus a JSON header."""
    g = field.grid
    _write_csv(csv_path, g, _field_header(g, ["phi"]), 1,
               _field_blocks(g, field.slabs))
    _json_dump({"grid": g.describe(), "convergence": report.to_dict()},
               json_path)


def write_hedge_field(hf, csv_path):
    """Columnar CSV (t, s.., x.., y.., xi.., eps)."""
    g = hf.grid
    header = _field_header(g, [f"xi{l+1}" for l in range(g.n)] + ["eps"])
    slabs = ([np.concatenate([xi[k], eps[k][..., None]], axis=-1)
              for k in range(len(g.x_tuples))] for xi, eps in zip(hf.xi, hf.eps))
    _write_csv(csv_path, g, header, g.n + 1, _field_blocks(g, slabs))


def write_surface(field, ep, path):
    """(t, s-grid) price slice at the evaluation point's regime and ages."""
    g = field.grid
    t0, s0, x, y = ep
    xi = g.x_index[tuple(x)]
    header = ["t"] + [f"s{l+1}" for l in range(g.n)] + ["phi"]
    pts = g.s_mesh().reshape(-1, g.n)
    B = pts.shape[0]

    def blocks():
        for t in g.t_nodes:
            ages = np.minimum(np.asarray(y, dtype=float), t)
            vals = field.values(np.full(B, t), pts, np.full(B, xi, dtype=int),
                                np.tile(ages, (B, 1)))
            yield t, "", vals

    _write_csv(path, g, header, 1, blocks())


def _surface_name(ep):
    """surface_<x>_<ages>.csv, each age at the shorter of its positional and
    scientific round-trip forms, so eval points at distinct ages never
    share a file and no name outgrows the file system's limit."""
    x_tag = "".join(str(v) for v in ep[2])
    y_tag = "-".join(min(np.format_float_positional(v, trim="-"),
                         np.format_float_scientific(v, trim="-"), key=len)
                     for v in np.asarray(ep[3], dtype=float))
    return f"surface_{x_tag}_{y_tag}.csv"


def _make_out_dir(out_dir):
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(str(exc), path="--out") from exc


def run_scenario(config_path: str, out_dir: str = ".", threads=None,
                 dry_run: bool = False) -> int:
    """Price the scenario of config_path into out_dir; the exit code.

    threads is a retired argument, ignored like the config key of that
    name: the Monte Carlo blocks run one after another.
    """
    try:
        scn = load_scenario(config_path)
        grid = Grid(scn.market, scn.horizon,
                    np.stack([ep[1] for ep in scn.eval_points]),
                    scn.grid_spec)
        if not dry_run:
            _make_out_dir(out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if dry_run:
        print(json.dumps({"scenario": scn.name, "grid": grid.describe(),
                          "outputs": list(scn.outputs)}, sort_keys=True,
                         indent=2))
        return 0

    report = {"scenario": scn.name, "config": scn.resolved_dict()}
    try:
        # the sensitivity check's scaled hazards are hazard set 1 of the
        # march, solved with the config's hazards under the same settings
        also = [[h.scaled(scn.sensitivity_scale) for h in scn.models]] \
            if "sensitivity" in scn.outputs else []
        field, conv, *perturbed = solve_price_field(
            scn.market, scn.claim, scn.models, grid, scn.tol, scn.max_iter,
            scn.solver, also)
    except RegimeHedgeError as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, NoConvergence):
            # a breakdown leaves NaN residuals: null keeps the report strict
            report["error"]["convergence"] = json.loads(json.dumps(
                exc.report.to_dict()), parse_constant=lambda c: None) \
                if exc.report else None
        _json_dump(report, os.path.join(out_dir, "report.json"))
        print(f"solver error: {exc}", file=sys.stderr)
        return 3

    report["convergence"] = conv.to_dict()
    points = []
    for ep in scn.eval_points:
        t, s, x, y = ep
        entry = {"t": t, "s": list(map(float, s)), "x": list(x),
                 "y": list(map(float, y)),
                 "price": field.value(t, s, x, y)}
        points.append(entry)
    report["eval_points"] = points

    if "price-field" in scn.outputs:
        write_price_field(field, conv, os.path.join(out_dir, "price_field.csv"),
                          os.path.join(out_dir, "price_field.json"))
        for ep in scn.eval_points:
            write_surface(field, ep, os.path.join(out_dir, _surface_name(ep)))
    if "hedge-field" in scn.outputs:
        # scoped to this block: the hedge field is let go before the MC check
        hedge = hedge_field(field)
        for entry, ep in zip(points, scn.eval_points):
            xi, eps = strategy_at(hedge, ep)
            entry["xi"] = [float(v) for v in xi]
            entry["eps"] = float(eps)
        write_hedge_field(hedge, os.path.join(out_dir, "hedge_field.csv"))
        del hedge
    if "mc-check" in scn.outputs:
        checks = []
        for ep in scn.eval_points:
            est, se = mc_price(scn.market, scn.claim, scn.models, ep,
                               scn.horizon, scn.mc_paths, scn.mc_seed)
            price = field.value(*ep)
            checks.append({"price": price, "mc": est, "se": se,
                           "abs_diff": abs(price - est),
                           "within_3se": bool(abs(price - est) <= 3 * se)})
        report["mc_check"] = checks
    if "pde-residual" in scn.outputs:
        res = pde_residual(field, maturity_margin_steps=max(
            1, round(0.1 * scn.grid_spec.time_steps)))
        report["pde_residual"] = res.to_dict()
    if "sensitivity" in scn.outputs:
        rep = sensitivity_check((field, conv), perturbed[0])
        report["sensitivity"] = rep.to_dict()
    if "residual-risk" in scn.outputs:
        rep = residual_risk(field, scn.eval_points[0], scn.rr_paths,
                            scn.rr_seed)
        report["residual_risk"] = rep.to_dict()

    _json_dump(report, os.path.join(out_dir, "report.json"))
    return 0


def run_selftest(profile: str = "full", out_dir: str | None = None) -> int:
    try:
        if out_dir:
            _make_out_dir(out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    from . import acceptance
    results = acceptance.run_all(profile=profile)
    rows = acceptance.render_table(results)
    print(rows)
    if out_dir:
        with open(os.path.join(out_dir, "selftest_report.json"), "wb") as fh:
            fh.write(acceptance.report_bytes(results))
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="regimehedge",
        description="Pricing and hedging under componentwise semi-Markov "
                    "regime switching")
    sub = parser.add_subparsers(dest="command", required=True)

    p_price = sub.add_parser("price", help="run a scenario config")
    p_price.add_argument("config")
    p_price.add_argument("--out", default=".", help="output directory")
    p_price.add_argument("--dry-run", action="store_true")

    p_self = sub.add_parser("selftest", help="run the acceptance suite")
    p_self.add_argument("--profile", choices=("full", "fast"), default="full")
    p_self.add_argument("--out", default=None)

    sub.add_parser("version", help="print the version")

    args = parser.parse_args(argv)
    if args.command == "price":
        return run_scenario(args.config, args.out, dry_run=args.dry_run)
    if args.command == "selftest":
        return run_selftest(args.profile, args.out)
    if args.command == "version":
        print(__version__)
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
