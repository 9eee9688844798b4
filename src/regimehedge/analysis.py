"""Sensitivity of the price to the switch intensities, and residual risk.

Two diagnostics on a solved price field:

* sensitivity_check compares two solved price fields, the base and one
  under perturbed hazards with the same market, claim, grid and node
  counts (solve_price_field's also marches them together, as run_scenario
  does): the sup distance of the two fields against the Lipschitz bound
  2 c2 T sum |lam - lam~|_sup (the per-pair sums maximized over the regime
  tuple), each field's hazards read from its own solver.

* residual_risk estimates the expected squared discounted price jump that
  the optimal non-self-financing hedge absorbs at regime switches, by
  simulating physical-measure paths under the field's market and hazard
  models and reading the solved field at the pre- and post-switch states.
  Like mc_oracle.mc_price, it maps one block of path ids at a time
  (mc_oracle.map_blocks) and takes its mean and standard error from
  mc_oracle.estimate.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .mc_oracle import estimate, map_blocks, simulate_path
# solve_price_field is called by no code here: bench/spans.py wraps this binding
from .volterra_pricer import PriceField, solve_price_field

_SUP_GRID = 1001


@dataclass
class SensitivityReport:
    lambda_sup_diff: float      # max over (component, pair) of sup_y |dlam|
    phi_sup_diff: float         # sup over shared grid of |phi - phi~|
    bound_summed: float         # 2 c2 T max_x sum_pairs |dlam|_sup
    bound_plain: float          # 2 c2 T |dlam|_sup (single worst pair)
    satisfied: bool
    ratio: float | None         # phi_sup_diff / bound_summed; None at bound 0
    numerical_floor: float

    def to_dict(self):
        return dataclasses.asdict(self)


def _pair_sup_diffs(models, models_tilde, horizon: float):
    """sup_y |lam - lam~| on [0, horizon] for every (component, i, j)."""
    ygrid = np.linspace(0.0, horizon, _SUP_GRID)
    out = {}
    for l, (h, ht) in enumerate(zip(models, models_tilde)):
        pairs = set(h.rates) | set(ht.rates)
        for (i, j) in pairs:
            d = np.abs(h.rate(i, j, ygrid) - ht.rate(i, j, ygrid))
            out[(l, i, j)] = float(np.max(d))
    return out


def sensitivity_check(base, perturbed) -> SensitivityReport:
    """Compare two solved fields with the sup bound.

    base and perturbed are solved (field, report) pairs with the same
    market, claim, grid and settings, as solve_price_field's also returns
    them; each field's hazards are its solver's models, and the grid and
    claim are base's.  Each solve's own error budget enters the numerical
    floor, so the two may have been solved at different tols.
    """
    field_a, rep_a = base
    solver, grid = field_a.solver, field_a.grid
    models, claim = solver.models, solver.claim
    field_b, rep_b = perturbed
    sup_phi = 0.0
    for sa, sb in zip(field_a.slabs, field_b.slabs):
        # per regime tuple: the two solves may store different age axes
        for xi in range(len(grid.x_tuples)):
            sup_phi = max(sup_phi, float(np.max(np.abs(sa[xi] - sb[xi]))))

    diffs = _pair_sup_diffs(models, field_b.solver.models, grid.horizon)
    lam_sup = max(diffs.values()) if diffs else 0.0
    T = grid.horizon
    worst_sum = 0.0
    for x in grid.x_tuples:
        total = sum(diffs.get((l, x[l], j), 0.0)
                    for l in range(grid.n_components)
                    for j in range(1, models[l].k + 1) if j != x[l])
        worst_sum = max(worst_sum, total)
    bound_summed = 2.0 * claim.c2 * T * worst_sum
    bound_plain = 2.0 * claim.c2 * T * lam_sup

    s_top = sum(math.exp(a[-1]) for a in grid.lns_axes)
    floor = ((rep_a.error_budget or 0.0) + (rep_b.error_budget or 0.0)) \
        * (1.0 + s_top)
    satisfied = sup_phi <= bound_summed + floor
    ratio = float(sup_phi / bound_summed) if bound_summed > 0 else None
    return SensitivityReport(lambda_sup_diff=lam_sup, phi_sup_diff=sup_phi,
                             bound_summed=bound_summed, bound_plain=bound_plain,
                             satisfied=bool(satisfied), ratio=ratio,
                             numerical_floor=float(floor))


@dataclass
class ResidualRiskReport:
    r0: float
    se: float
    n_paths: int
    mean_jumps: float
    cost_quantiles: dict = dc_field(default_factory=dict)

    def to_dict(self):
        return dataclasses.asdict(self)


def residual_risk(field: PriceField, start, n_paths: int,
                  seed: int) -> ResidualRiskReport:
    """Quadratic residual risk at the start point under the physical measure.

    Accumulates the squared discounted field jump at every switch epoch of
    each simulated path; the estimate is the path average.  The paths
    follow the market and hazard models of the field's solver.
    """
    solver = field.solver

    def path_costs(ids):
        blk = simulate_path(solver.market, solver.models, start,
                            field.grid.horizon, seed, ids, mode="physical")
        phi_pre = field.values(blk.jump_times, blk.s_at_jumps,
                               blk.pre_index, blk.ages_before)
        phi_post = field.values(blk.jump_times, blk.s_at_jumps,
                                blk.post_index, blk.ages_after)
        contrib = np.square(blk.discount_at_jumps * (phi_post - phi_pre))
        # per path, summed in jump order
        return np.bincount(blk.jump_path, weights=contrib,
                           minlength=len(blk.n_jumps)), blk.n_jumps

    costs, jumps = map(np.concatenate, zip(*map_blocks(path_costs, n_paths)))
    r0, se = estimate(costs)
    qs = {f"q{int(100 * q)}": float(np.quantile(costs, q))
          for q in (0.5, 0.9, 0.99)}
    return ResidualRiskReport(r0=r0, se=se, n_paths=int(n_paths),
                              mean_jumps=float(np.mean(jumps)),
                              cost_quantiles=qs)
