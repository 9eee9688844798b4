"""Locally risk-minimizing hedge ratios and the strategy decomposition.

The hedge ratio in asset m is the s_m-derivative of the price field,
computed by differentiating the pricing operator under the integral sign
rather than by numerical differentiation of the field: the frozen-regime
delta carries the no-switch weight and the switch branch integrates the
continuation value against the kernel's s-derivative.  hedge_field runs
the pricing step's own operator (VolterraSolver.apply, which assembles
slab i of T) with one derivative axis per asset in place of the kernel,
so price and hedge share one discretization and one assembly; the
frozen-regime deltas of all assets come from one bsm_delta_grid call per
slab and regime tuple (one kernel, one claim_nodes call), and
strategy_at reads that field between the nodes the way PriceField.values
reads a price (Grid.interp).  Finite differences of the solved field are
kept only as a test oracle.

hedge_field takes only the solved field, and strategy_at only the hedge
field, which holds it: the market, claim, hazard models, node counts and
switch edges are those of field.solver, the solver that produced it, so a
hedge cannot be taken under another model or at other node counts than the
price.  hedge_field runs on that solver and reuses the survival weights
JS(T - t_i) the solve cached; only each slab's switch tables are built
again, because the march drops them slab by slab to bound its memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .regime_bsm import bsm_delta_grid
from .volterra_pricer import Grid, PriceField, Slab


@dataclass
class HedgeField:
    """Hedge ratios and cash positions on the price grid of field."""

    field: PriceField
    xi: list      # per time node: a Slab of shape (n_x, c_i.., S.., n)
    eps: list     # per time node: a Slab of shape (n_x, c_i.., S..)

    @property
    def grid(self) -> Grid:
        return self.field.grid


def strategy_at(hedge: HedgeField, point, discount: float = 1.0):
    """Hedge vector and cash position at a point.

    xi is the hedge field read at the point (Grid.interp: linear in t,
    ages clipped to the stored rows, ln s clamped to the box), so at a grid
    node it is that node's row of the field.  The cash position is quoted
    in discounted units: eps = D (phi - xi . s) where D is the accumulated
    discount supplied by the caller (1 at t=0 or for undiscounted
    snapshots).
    """
    t, s, x, y = point
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    g = hedge.grid
    xi = g.interp(hedge.xi, np.array([float(t)]), s[None, :],
                  np.array([g.x_index[tuple(x)]]), y[None, :])[0]
    phi = hedge.field.value(t, s, tuple(x), y)
    eps = discount * (phi - float(xi @ s))
    return xi, eps


def hedge_field(field: PriceField) -> HedgeField:
    """Hedge ratios at every grid node via the integral formula.

    Slab i < M is VolterraSolver.apply on the solved field over all
    panels, one derivative axis per asset with the frozen-regime deltas
    (every asset's from one bsm_delta_grid call per regime tuple), so
    every axis shares the gathered continuation slabs, survival
    weights and mass normalization of the pricing step; slab M is the
    frozen-regime delta at every age.  Runs on field.solver, whose
    survival weights JS(T - t_i) the solve cached; each slab's switch
    tables are built again here, one slab at a time, since keeping them
    from the march would hold the tables of every slab through the whole
    solve.
    """
    solver = field.solver
    g = field.grid
    M = g.spec.time_steps
    spots = g.s_mesh()
    stack = field.stacked()
    xi_slabs, eps_slabs = [], []
    for i in range(M + 1):
        t = float(g.t_nodes[i])
        # rho_i's delta in every asset, over (regime tuple, prices.., asset)
        drho = np.stack([bsm_delta_grid(
            solver.market, solver.claim, x, t, g.horizon, spots,
            solver.settings.bsm_outer_nodes) for x in g.x_tuples])
        if i < M:
            xi = Slab(solver, [np.stack(axes, axis=-1)[0] for axes in zip(
                *solver.apply(i, stack, np.moveaxis(drho, -1, 0),
                              range(g.n)))], int(g.c_counts[i]))
        else:
            xi = solver._broadcast(drho, i)
        xi_slabs.append(xi)
        eps_slabs.append(Slab(solver, [
            field.slabs[i].part(gi) - np.einsum(
                "...m,...m->...", part, np.broadcast_to(spots, part.shape))
            for gi, part in enumerate(xi.parts)], int(g.c_counts[i])))
    return HedgeField(field=field, xi=xi_slabs, eps=eps_slabs)
