"""Span recording around the public functions of each regimehedge layer.

The wrappers are installed at the binding each caller uses: modules import
with ``from .x import y``, so ``regimehedge.cli.mc_price`` and
``regimehedge.mc_oracle.mc_price`` are separate names and only the first is
the one ``run_scenario`` calls.  Methods are wrapped on their class.  Private
helpers are not wrapped, so renaming them does not break the trace.

Spans (layer, start, end, parent) are kept in memory and written once, when
the traced run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

import numpy as np

# (module, attribute path of the binding, layer name).  A layer may have
# several bindings, e.g. build_kernel is reached from the MC oracle and from
# the frozen-regime pricer.
BINDINGS = (
    ("regimehedge.cli", "load_scenario", "scenario.load"),
    ("regimehedge.cli", "solve_price_field", "volterra_pricer.solve"),
    ("regimehedge.analysis", "solve_price_field", "volterra_pricer.solve"),
    ("regimehedge.volterra_pricer", "VolterraSolver.step",
     "volterra_pricer.step"),
    ("regimehedge.volterra_pricer", "bsm_price_grid", "regime_bsm.price_grid"),
    ("regimehedge.regime_bsm", "claim_nodes", "market.claim_nodes"),
    ("regimehedge.cli", "mc_price", "mc_oracle.mc_price"),
    ("regimehedge.mc_oracle", "simulate_path", "mc_oracle.simulate_path"),
    ("regimehedge.analysis", "simulate_path", "mc_oracle.simulate_path"),
    ("regimehedge.mc_oracle", "build_kernel", "market.build_kernel"),
    ("regimehedge.regime_bsm", "build_kernel", "market.build_kernel"),
    ("regimehedge.semi_markov", "HazardModel.invert_clock",
     "semi_markov.invert_clock"),
    ("regimehedge.cli", "residual_risk", "analysis.residual_risk"),
    ("regimehedge.cli", "sensitivity_check", "analysis.sensitivity_check"),
    ("regimehedge.cli", "hedge_field", "hedging.hedge_field"),
    ("regimehedge.cli", "strategy_at", "hedging.strategy_at"),
    ("regimehedge.hedging", "bsm_delta_grid", "regime_bsm.delta_grid"),
    ("regimehedge.cli", "pde_residual", "volterra_pricer.pde_residual"),
    ("regimehedge.volterra_pricer", "PriceField.values",
     "volterra_pricer.values"),
    ("regimehedge.cli", "write_price_field", "cli.write_price_field"),
    ("regimehedge.cli", "write_hedge_field", "cli.write_hedge_field"),
    ("regimehedge.cli", "write_surface", "cli.write_surface"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in BINDINGS))


class Tracer:
    """Records one span per wrapped call and a few exact counts."""

    def __init__(self):
        self.spans = []       # [layer, start, end, parent index or -1]
        self._stack = []
        self.counts = {"volterra_pricer.values_points": 0,
                       "volterra_pricer.field_mb": 0.0,
                       "volterra_pricer.grid_nodes": 0}
        self._saved = []
        self.missing = []

    def _wrap(self, layer, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            self._count(layer, args, result)
            return result

        return wrapper

    def _count(self, layer, args, result):
        if layer == "volterra_pricer.values":
            self.counts["volterra_pricer.values_points"] += \
                int(np.asarray(args[1]).shape[0])
        elif layer == "volterra_pricer.solve":
            # computed from slab shapes: the terminal slab is a broadcast view
            nodes = sum(int(np.prod(slab.shape)) for slab in result[0].slabs)
            self.counts["volterra_pricer.grid_nodes"] = max(
                self.counts["volterra_pricer.grid_nodes"], nodes)
            self.counts["volterra_pricer.field_mb"] = \
                self.counts["volterra_pricer.grid_nodes"] * 8 / 2 ** 20

    def install(self):
        """Replace every binding in BINDINGS by its span-recording wrapper."""
        for mod_name, attr, layer in BINDINGS:
            owner = importlib.import_module(mod_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            # vars() so a method is read off its own class, unbound
            original = vars(owner).get(name) if owner is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(layer, original))

    def uninstall(self):
        """Put every original binding back, last wrapped first."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "missing": self.missing}, fh)


def summarize(spans, wall_s):
    """Per-layer inclusive time, self time and calls from a span list.

    Inclusive time counts a layer once even when it nests inside itself;
    self time subtracts the part of a span its direct children cover.  The
    top-level spans (no parent) are what the run's wall time is split into.
    """
    total = {layer: 0.0 for layer in LAYERS}
    self_t = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    child_time = [0.0] * len(spans)
    for layer, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    top = 0.0
    for idx, (layer, start, end, parent) in enumerate(spans):
        dur = end - start
        calls[layer] += 1
        self_t[layer] += dur - child_time[idx]
        p = parent
        while p >= 0 and spans[p][0] != layer:
            p = spans[p][3]
        if p < 0:
            total[layer] += dur
        if parent < 0:
            top += dur
    return {"total_s": total, "self_s": self_t, "calls": calls,
            "top_level_s": top, "unattributed_s": wall_s - top}


def ancestor_calls(spans, layer, ancestor):
    """Calls of `layer` made (directly or not) inside an `ancestor` span."""
    n = 0
    for name, _, _, parent in spans:
        if name != layer:
            continue
        p = parent
        while p >= 0 and spans[p][0] != ancestor:
            p = spans[p][3]
        n += p >= 0
    return n
