"""Scenario benchmark for regimehedge.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each execution runs ``regimehedge.cli.run_scenario(config, out_dir)`` in a
fresh interpreter and a fresh output directory, one at a time, with
``threads=1``.  Executions repeat until the next one would end after S
seconds (at least one runs).  Every execution is checked for correctness;
a failed check counts as a failed operation.

``--trace 0`` reports the end-to-end metrics (medians over the run):
``wall_s`` (time in run_scenario), ``setup_s`` (interpreter start through
import, load_scenario and Grid; also probed in setup-only processes) and
``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced executions
and reports the per-layer split of the traced ones; see spans.py.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import checks
import envinfo
import spans
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".bench_work"
SETUP_PROBES = 7
RUN_LIMIT_S = 170.0   # every child is stopped before the run reaches this
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


class ChildFailed(Exception):
    pass


def run_child(root, config, out_dir, result_path, timeout, setup_only=False,
              spans_path=None):
    """Start child.py, wait for it and return its result dict."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), config,
           out_dir, result_path]
    extra = ["--setup-only"] if setup_only else []
    if spans_path:
        extra += ["--trace", spans_path]
    env = dict(os.environ, **CHILD_ENV)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + [repr(t0)] + extra, cwd=root, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child timed out after {timeout:.0f} s") from None
    if proc.returncode != 0 or not os.path.exists(result_path):
        tail = proc.stderr.decode(errors="replace")[-2000:]
        raise ChildFailed(f"child exited with {proc.returncode}: {tail}")
    with open(result_path) as fh:
        return json.load(fh)


@dataclass
class Execution:
    """One checked scenario execution."""

    traced: bool
    result: dict = field(default_factory=dict)
    report: dict | None = None
    digests: dict = field(default_factory=dict)
    trace: dict | None = None
    fails: list = field(default_factory=list)


def execute(root, work, workload, config_path, config, tag, timeout,
            traced=False, reference=True):
    ex = Execution(traced)
    out_dir = os.path.join(work, f"out-{tag}")
    spans_path = os.path.join(work, f"spans-{tag}.json") if traced else None
    try:
        ex.result = run_child(root, config_path, out_dir,
                              os.path.join(work, f"result-{tag}.json"),
                              timeout, spans_path=spans_path)
    except ChildFailed as exc:
        ex.fails.append(str(exc))
        return ex
    if ex.result.get("rc") != 0:
        ex.fails.append(f"run_scenario returned {ex.result.get('rc')}")
    ex.report = checks.load_report(out_dir)
    if ex.report is None:
        ex.fails.append("no report.json written")
    else:
        ex.fails += checks.check_report(workload, config, ex.report,
                                        reference)
    if os.path.isdir(out_dir):
        ex.digests = checks.output_digests(out_dir)
        shutil.rmtree(out_dir)
    if traced:
        with open(spans_path) as fh:
            ex.trace = json.load(fh)
        os.remove(spans_path)
        if ex.trace["missing"]:
            print(f"trace: bindings not found: {ex.trace['missing']}",
                  file=sys.stderr)
    return ex


def trace_counts(ex):
    """Exact counts of one traced execution, for the repeat check."""
    summ = spans.summarize(ex.trace["spans"], ex.result["wall_s"])
    counts = {f"{layer}_calls": n for layer, n in summ["calls"].items()}
    counts.update(ex.trace["counts"])
    csv = [d for name, d in ex.digests.items() if name.endswith(".csv")]
    counts["cli.csv_rows"] = sum(d["lines"] - 1 for d in csv)
    counts["cli.csv_bytes"] = sum(d["bytes"] for d in csv)
    counts["cli.bytes_written"] = sum(d["bytes"] for d in ex.digests.values())
    return counts


def check_repeats(root, workload, config_path, execs):
    """Outputs and counts must repeat exactly across the executions of this
    run and every earlier run on the same sources and config bytes."""
    cache_dir = os.path.join(root, WORK_DIR, "digests")
    os.makedirs(cache_dir, exist_ok=True)
    with open(config_path, "rb") as fh:
        config_sha = hashlib.sha256(fh.read()).hexdigest()
    key = f"{workload}-{config_sha[:16]}-{envinfo.src_fingerprint(root)[:16]}"
    path = os.path.join(cache_dir, key + ".json")
    known = {}
    if os.path.exists(path):
        with open(path) as fh:
            known = json.load(fh)
    for ex in execs:
        if ex.fails:
            continue
        records = [("digests", ex.digests)]
        if ex.traced:
            records.append(("counts", trace_counts(ex)))
        for kind, value in records:
            if kind not in known:
                known[kind] = value
            elif known[kind] != value:
                diff = sorted(k for k in set(value) | set(known[kind])
                              if value.get(k) != known[kind].get(k))
                ex.fails.append(f"{kind} differ from an earlier execution "
                                f"of the same config: {diff}")
    tmp = path + f".{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        json.dump(known, fh, sort_keys=True)
    os.replace(tmp, path)


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(execs, setup_samples):
    ok = [ex for ex in execs if "wall_s" in ex.result]
    if not ok:
        return None
    return {
        "wall_s": {"value": _median([ex.result["wall_s"] for ex in ok]),
                   "unit": "s"},
        "setup_s": {"value": _median(setup_samples), "unit": "s"},
        "peak_rss_mb": {"value": _median([ex.result["peak_rss_mb"]
                                          for ex in ok]), "unit": "MB"},
    }


def _one_trace(ex):
    """Per-layer values of one traced execution."""
    sp, wall = ex.trace["spans"], ex.result["wall_s"]
    summ = spans.summarize(sp, wall)
    tot, own, calls = summ["total_s"], summ["self_s"], summ["calls"]
    counts = trace_counts(ex)
    m = {}
    for layer in spans.LAYERS:
        m[f"{layer}_s"] = (tot[layer], "s")
        m[f"{layer}_self_s"] = (own[layer], "s")
    m["volterra_pricer.solves"] = (calls["volterra_pricer.solve"], "count")
    m["volterra_pricer.sweeps"] = (calls["volterra_pricer.step"], "count")
    for layer in ("regime_bsm.price_grid", "market.claim_nodes",
                  "mc_oracle.simulate_path", "market.build_kernel",
                  "semi_markov.invert_clock"):
        m[f"{layer}_calls"] = (calls[layer], "count")
    m["volterra_pricer.field_mb"] = (counts["volterra_pricer.field_mb"], "MB")
    m["volterra_pricer.grid_nodes"] = (counts["volterra_pricer.grid_nodes"],
                                       "count")
    m["volterra_pricer.values_points"] = (
        counts["volterra_pricer.values_points"], "count")
    mc_s = tot["mc_oracle.mc_price"]
    mc_paths = spans.ancestor_calls(sp, "mc_oracle.simulate_path",
                                    "mc_oracle.mc_price")
    m["mc_oracle.paths_per_s"] = (mc_paths / mc_s if mc_s > 0 else 0.0, "1/s")
    write_s = sum(tot[f"cli.{w}"] for w in ("write_price_field",
                                            "write_hedge_field",
                                            "write_surface"))
    m["cli.bytes_written"] = (counts["cli.bytes_written"], "B")
    m["cli.csv_rows"] = (counts["cli.csv_rows"], "count")
    m["cli.write_mb_per_s"] = (counts["cli.csv_bytes"] / 2 ** 20 / write_s
                               if write_s > 0 else 0.0, "MB/s")

    rep = ex.report
    conv = rep["convergence"]
    mc = (rep.get("mc_check") or [{}])[0]
    m["volterra_pricer.price"] = (rep["eval_points"][0]["price"], "price")
    m["volterra_pricer.last_delta"] = (conv["deltas"][-1], "1")
    m["volterra_pricer.max_ratio"] = (max(conv["ratios"], default=0.0), "1")
    m["volterra_pricer.contraction_bound"] = (conv["contraction_bound"], "1")
    m["volterra_pricer.error_budget"] = (conv["error_budget"], "1")
    m["volterra_pricer.pde_residual_max"] = (
        (rep.get("pde_residual") or {}).get("max_scaled", 0.0), "1")
    m["mc_oracle.abs_z"] = (mc["abs_diff"] / mc["se"] if mc else 0.0, "1")
    m["analysis.sensitivity_ratio"] = (
        (rep.get("sensitivity") or {}).get("ratio", 0.0), "1")
    m["trace.unattributed_s"] = (summ["unattributed_s"], "s")
    if abs(summ["unattributed_s"]) > 0.1 * wall:
        print(f"trace: top-level spans cover {summ['top_level_s']:.2f} s of "
              f"{wall:.2f} s wall", file=sys.stderr)
    return m


def per_layer_metrics(execs):
    # a failed check still leaves a complete trace; only a run without a
    # solved report has nothing to split
    traced = [ex for ex in execs if ex.traced and ex.result.get("rc") == 0
              and ex.report is not None and "error" not in ex.report]
    plain = [ex for ex in execs if not ex.traced and "wall_s" in ex.result]
    if not traced:
        return None
    per = [_one_trace(ex) for ex in traced]
    out = {name: {"value": _median([p[name][0] for p in per]), "unit": unit}
           for name, (_, unit) in per[0].items()}
    overhead = _median([ex.result["wall_s"] for ex in traced]) \
        - _median([ex.result["wall_s"] for ex in plain]) if plain else 0.0
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def run(root, workload, seed, seconds, trace, shrink=False):
    """Run the benchmark; return the result dict (the printed JSON)."""
    start = time.monotonic()
    config = workloads.make_config(workload, seed, shrink)
    work = os.path.join(root, WORK_DIR, f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        config_path = os.path.join(work, "config.json")
        with open(config_path, "wb") as fh:
            fh.write(workloads.config_bytes(workload, seed, shrink))
        env = envinfo.record(root, workload)
        with open(os.path.join(root, WORK_DIR, "environment.json"), "w") as fh:
            json.dump(env, fh, indent=2, sort_keys=True)
        print(f"{workload} seed {seed}: python {env['python']}, numpy "
              f"{env['numpy']}, scipy {env['scipy']}, nproc {env['nproc']}, "
              f"commit {env['commit']}", file=sys.stderr)

        execs, rounds = [], []
        while True:
            r0 = time.monotonic()
            kinds = (False, True) if trace else (False,)
            for traced in kinds:
                remaining = RUN_LIMIT_S - (time.monotonic() - start)
                execs.append(execute(root, work, workload, config_path, config,
                                     str(len(execs)), remaining, traced,
                                     reference=not shrink))
            rounds.append(time.monotonic() - r0)
            elapsed = time.monotonic() - start
            if elapsed + _median(rounds) > seconds:
                break

        setup = [ex.result["setup_s"] for ex in execs
                 if not ex.traced and "setup_s" in ex.result]
        if not trace:
            for k in range(SETUP_PROBES):
                remaining = RUN_LIMIT_S - (time.monotonic() - start)
                setup.append(run_child(
                    root, config_path, os.path.join(work, "unused"),
                    os.path.join(work, f"setup-{k}.json"), remaining,
                    setup_only=True)["setup_s"])

        check_repeats(root, workload, config_path, execs)
        for ex in execs:
            for msg in ex.fails:
                print(f"check failed ({'traced' if ex.traced else 'untraced'}"
                      f"): {msg}", file=sys.stderr)
        failed = sum(1 for ex in execs if ex.fails)
        metrics = per_layer_metrics(execs) if trace \
            else end_to_end_metrics(execs, setup)
        if metrics is None:
            raise ChildFailed("no execution completed")
        return {"correct": failed == 0, "attempted": len(execs),
                "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # turn SIGTERM into SystemExit, so subprocess.run stops the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "regimehedge",
                                       "cli.py")):
        print("run from the root of a regimehedge checkout (src/regimehedge "
              "not found)", file=sys.stderr)
        return 2
    try:
        result = run(root, args.workload, args.seed, args.seconds,
                     bool(args.trace))
    except ChildFailed as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
