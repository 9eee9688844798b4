"""Locally risk-minimizing hedge ratios and the strategy decomposition.

The hedge ratio in asset m is the s_m-derivative of the price field,
computed by differentiating the pricing operator under the integral sign
rather than by numerical differentiation of the field: the frozen-regime
delta carries the no-switch weight and the switch branch integrates the
continuation value against the kernel's s-derivative.  On the grid,
hedge_field runs the pricing step's own switch-branch operator
(VolterraSolver.switch_branch) with the kernel's s-derivatives in place of
the kernel, so price and hedge share one discretization.  The pointwise
hedge_ratio keeps its own panels and scattered interpolation as an
independent check of that pass; finite differences of the solved field are
kept only as a test oracle.

Every function here takes only the solved field: the market, claim, hazard
models, node counts and switch edges are those of field.solver, the solver
that produced it, so a hedge cannot be taken under another model or at
other node counts than the price.  hedge_field runs on that solver and
reuses the survival weights JS(T - t_i) the solve cached; only each slab's
switch tables are built again, because the march drops them slab by slab
to bound its memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .market import build_kernel
from .quadrature import gauss_legendre, tensor_normal_nodes
from .regime_bsm import bsm_delta, bsm_delta_grid
from .semi_markov import CsmState, _joint_log_survival
from .volterra_pricer import Grid, PriceField, Slab


def hedge_ratio(field: PriceField, point, axis: int) -> float:
    """d(price)/d s_axis at point = (t, s, x, y) via the integral formula."""
    solver = field.solver
    market, claim, settings = solver.market, solver.claim, solver.settings
    g = field.grid
    t, s, x, y = point
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    x = tuple(x)
    T = g.horizon
    rem = T - t
    if rem <= 1e-12:
        return float(bsm_delta(market, claim, x, T, T, s, axis,
                               settings.bsm_outer_nodes))

    log_js = _joint_log_survival(solver.models, CsmState(x, y))
    js_T = math.exp(log_js(rem))
    out = float(bsm_delta(market, claim, x, t, T, s, axis,
                          settings.bsm_outer_nodes)) * js_T

    n_panels = max(1, int(round(rem / g.dt)))
    width = rem / n_panels
    gl_x, gl_w = gauss_legendre(2)
    # the switch times of every panel's Gauss-Legendre nodes, panel-major,
    # with one kernel and one inverse Cholesky factor each
    v_nodes = [(p + 0.5 * (gx + 1.0)) * width
               for p in range(n_panels) for gx in gl_x]
    w_nodes = [0.5 * width * gw for _ in range(n_panels) for gw in gl_w]
    kern = build_kernel(market, t, x, np.array(v_nodes))
    inv_l = np.linalg.inv(kern.chol)
    edges = solver.edges[g.x_index[x]]
    rate_x = market.r(x)
    nodes, wq = tensor_normal_nodes(g.n, settings.gh_nodes)

    switch = 0.0
    mass = 0.0
    for j, (v, wv) in enumerate(zip(v_nodes, w_nodes)):
        js = math.exp(log_js(v))
        sig = s * np.exp(kern.zbar[j] + nodes @ kern.chol[j].T)
        fac = (nodes @ inv_l[j][:, axis]) / s[axis]
        lin_term = math.exp(rate_x * v) * claim.c1[axis]
        for l, _, xpi, fam in edges:
            lam = float(fam.rate(np.asarray(y[l] + v)))
            if lam == 0.0:
                continue
            yp = y + v
            yp[l] = 0.0
            B = sig.shape[0]
            vals = field.values(np.full(B, t + v), sig, np.full(B, xpi),
                                np.tile(yp, (B, 1)))
            # subtract the interpolated linear part and restore its
            # closed-form derivative, matching the grid solver
            excess = vals - g.interp_linear_part(sig, claim.c1)
            d_excess = float(np.dot(wq * fac, excess))
            switch += wv * math.exp(-rate_x * v) * js * lam \
                * (d_excess + lin_term)
            mass += wv * js * lam
    if mass > 1e-300:
        switch *= (1.0 - js_T) / mass
    return out + switch


def strategy_at(field: PriceField, point, discount: float = 1.0):
    """Hedge vector and cash position at a point.

    The cash position is quoted in discounted units: eps = D (phi - xi . s)
    where D is the accumulated discount supplied by the caller (1 at t=0 or
    for undiscounted snapshots).
    """
    t, s, x, y = point
    s = np.asarray(s, dtype=float)
    xi = np.array([hedge_ratio(field, point, m) for m in range(field.grid.n)])
    phi = field.value(t, s, tuple(x), np.asarray(y, dtype=float))
    eps = discount * (phi - float(xi @ s))
    return xi, eps


@dataclass
class HedgeField:
    """Hedge ratios and cash positions on the price grid."""

    grid: Grid
    xi: list      # per time node: a Slab of shape (n_x, c_i.., S.., n)
    eps: list     # per time node: a Slab of shape (n_x, c_i.., S..)


def hedge_field(field: PriceField) -> HedgeField:
    """Hedge ratios at every grid node via the integral formula.

    Applies the pricing step's switch-branch operator to the solved field
    with the kernel's s-derivatives in place of the kernel, one action per
    asset in a single pass, so every axis shares the gathered continuation
    slabs, survival weights and mass normalization of the pricing step.
    Runs on field.solver, whose survival weights JS(T - t_i) the solve
    cached; each slab's switch tables are built again here, one slab at a
    time, since keeping them from the march would hold the tables of every
    slab through the whole solve.
    """
    solver = field.solver
    market, claim = solver.market, solver.claim
    g = field.grid
    M = g.spec.time_steps
    n_x = len(g.x_tuples)
    smesh = np.meshgrid(*g.s_axes, indexing="ij")
    spots = np.stack(smesh, axis=-1)
    # d/ds_m of the kernel integral, as sm.apply(e, p, deriv_axis=m) / s_m
    actions = [lambda sm, e, p, m=m: sm.apply(e, p, deriv_axis=m) / smesh[m]
               for m in range(g.n)]

    y_pad = (...,) + (None,) * g.n
    c1 = np.stack([np.broadcast_to(c1m, g.s_shape) for c1m in claim.c1],
                  axis=-1)
    xi_slabs, eps_slabs = [], []
    for i in range(M + 1):
        t = float(g.t_nodes[i])
        c = int(g.c_counts[i])

        drho = np.empty((n_x,) + g.s_shape + (g.n,))
        for xi_i, x in enumerate(g.x_tuples):
            for m_ax in range(g.n):
                drho[xi_i, ..., m_ax] = bsm_delta_grid(
                    market, claim, x, t, g.horizon, g.lns_axes, m_ax,
                    solver.settings.bsm_outer_nodes)
        if i < M:
            branch = solver.switch_branch(i, field.slabs, actions)
        xi_parts, eps_parts = [], []
        for gi, ((members, _), js_T) in enumerate(zip(solver.groups,
                                                      solver.js_T(i))):
            xi_part = js_T[y_pad + (None,)] \
                * drho[members][(slice(None),) + (None,) * g.n_components]
            if i < M:
                xi_part += np.stack([b[gi] for b in branch], axis=-1)
                xi_part += (1.0 - js_T)[y_pad + (None,)] * c1
            xi_parts.append(xi_part)
            eps_parts.append(field.slabs[i].part(gi) - np.einsum(
                "...m,...m->...", xi_part,
                np.broadcast_to(spots, xi_part.shape)))
        xi_slabs.append(Slab(solver, xi_parts, c))
        eps_slabs.append(Slab(solver, eps_parts, c))
    return HedgeField(grid=g, xi=xi_slabs, eps=eps_slabs)
