"""Frozen-regime lognormal pricing of the claim (the no-switch building block).

With the regime tuple frozen at x the discounted claim expectation is a
plain lognormal integral with variance int_t^T a(u, x) du.  Given the head
assets at the outer Gauss-Hermite nodes of ``claim_nodes``, the pivot
integral is a Black formula per payoff hinge, so for one asset price and
delta are the classical closed forms and for n >= 2 the outer rule, with
``outer_nodes`` per head axis (``SolverSettings.bsm_outer_nodes``), is the
only quadrature.
"""

from __future__ import annotations

import math

import numpy as np

from .market import Claim, MarketModel, build_kernel, claim_nodes

# per-axis outer nodes over the head assets; for n >= 2 the only quadrature
# error in the frozen-regime price: on the C3 model at the money, 8 -> 16
# moves it by 3.3e-3 at t = 0.3 and by up to 1.7e-2 at t = 0
OUTER_NODES = 24


def _batched(s):
    s = np.asarray(s, dtype=float)
    if s.ndim == 1:
        return s[None, :], True
    return s, False


def bsm_price(market: MarketModel, claim: Claim, x, t: float, maturity: float,
              s, outer_nodes: int = OUTER_NODES):
    """Frozen-regime discounted claim value; terminal slice returns K(s)."""
    s_batch, scalar = _batched(s)
    v = maturity - t
    if v <= 0.0:
        out = claim(s_batch)
        return float(out[0]) if scalar else out
    kern = build_kernel(market, t, x, v, mode="risk-neutral")
    w, value, _ = claim_nodes(kern, claim, s_batch, outer_nodes)
    out = math.exp(-market.r(tuple(x)) * v) * (value @ w)
    return float(out[0]) if scalar else out


def bsm_delta(market: MarketModel, claim: Claim, x, t: float, maturity: float,
              s, axis: int, outer_nodes: int = OUTER_NODES):
    """d(price)/d s_axis by the likelihood ratio of the kernel; at maturity
    the right derivative of the payoff."""
    s_batch, scalar = _batched(s)
    v = maturity - t
    if v <= 0.0:
        # right slope of the hinge form: every hinge at or below b is on
        on = claim.basket(s_batch)[:, None] >= claim.hinge_strikes
        out = claim.weights[axis] * (claim.slope + on @ claim.hinge_slopes)
        return float(out[0]) if scalar else out
    kern = build_kernel(market, t, x, v, mode="risk-neutral")
    w, _, score = claim_nodes(kern, claim, s_batch, outer_nodes)
    out = math.exp(-market.r(tuple(x)) * v) * (score[..., axis] @ w) \
        / s_batch[:, axis]
    return float(out[0]) if scalar else out


def _grid_points(lns_axes):
    mesh = np.meshgrid(*[np.exp(a) for a in lns_axes], indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    return pts, tuple(len(a) for a in lns_axes)


def bsm_price_grid(market, claim, x, t, maturity, lns_axes,
                   outer_nodes: int = OUTER_NODES):
    """Price surface over the tensor log-price grid."""
    pts, shape = _grid_points(lns_axes)
    return bsm_price(market, claim, x, t, maturity, pts,
                     outer_nodes).reshape(shape)


def bsm_delta_grid(market, claim, x, t, maturity, lns_axes, axis,
                   outer_nodes: int = OUTER_NODES):
    """Delta surface along one asset axis over the tensor log-price grid."""
    pts, shape = _grid_points(lns_axes)
    return bsm_delta(market, claim, x, t, maturity, pts, axis,
                     outer_nodes).reshape(shape)
