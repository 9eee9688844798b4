"""Correctness checks on one scenario execution's outputs.

A speed-up that costs accuracy must show as a failed operation, so every
timed execution is checked against the references below and for internal
consistency.  Byte-identity across executions is checked by the caller,
from the digests this module computes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

# Eval-point prices at the commit that introduced the benchmark, full-size
# workloads.  A run passes when its price is within tol * (1 + |s|_1).
REFERENCE_PRICE = {
    "demo_report": 11.48667974590178,
    "basket3_solve": 7.889399973456987,
    "weibull_fine_sens": 11.481786116308822,
}


def _finite(*values):
    return all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in values)


def check_report(workload: str, config: dict, report: dict,
                 reference: bool = True) -> list:
    """Failed checks (empty when all pass) for one report.json."""
    fails = []
    if "error" in report:
        return [f"report has an error block: {report['error'].get('type')}"]
    conv = report.get("convergence", {})
    ratios = conv.get("ratios", [])
    if not all(_finite(r) and r < 1.0 for r in ratios):
        fails.append(f"contraction ratio not below 1: {ratios}")
    if conv.get("converged_at") is None:
        fails.append("solver did not report convergence")

    ep = report.get("eval_points", [{}])[0]
    price = ep.get("price")
    if not _finite(price):
        fails.append(f"eval-point price not finite: {price}")
    elif reference and workload in REFERENCE_PRICE:
        tol = config["solver"]["tol"] * (1.0 + sum(abs(s) for s in ep["s"]))
        ref = REFERENCE_PRICE[workload]
        if abs(price - ref) > tol:
            fails.append(f"price {price!r} differs from reference {ref!r} "
                         f"by more than {tol:.3g}")

    outputs = config["outputs"]
    if "mc-check" in outputs:
        for mc in report.get("mc_check", [None]):
            if not mc or not mc.get("within_3se"):
                fails.append(f"MC check outside 3 SE: {mc}")
    if "sensitivity" in outputs:
        sens = report.get("sensitivity")
        if not sens or not sens.get("satisfied"):
            fails.append(f"sensitivity bound not satisfied: {sens}")
    if "pde-residual" in outputs:
        res = report.get("pde_residual") or {}
        if not _finite(res.get("max_scaled"), res.get("mean_scaled")):
            fails.append(f"PDE residual not finite: {res}")
    if "residual-risk" in outputs:
        rr = report.get("residual_risk") or {}
        if not _finite(rr.get("r0"), rr.get("se")):
            fails.append(f"residual risk not finite: {rr}")
    if "hedge-field" in outputs:
        if not _finite(ep.get("eps"), *ep.get("xi", [None])):
            fails.append(f"eval-point hedge not finite: {ep}")
    return fails


def output_digests(out_dir: str) -> dict:
    """sha256, size and line count of every file an execution wrote."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        h = hashlib.sha256()
        size = lines = 0
        with open(os.path.join(out_dir, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
                size += len(block)
                lines += block.count(b"\n")
        out[name] = {"sha256": h.hexdigest(), "bytes": size, "lines": lines}
    return out


def load_report(out_dir: str):
    path = os.path.join(out_dir, "report.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)
