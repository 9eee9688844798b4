"""Frozen-regime lognormal pricing of the claim (the no-switch building block).

With the regime tuple frozen at x the discounted claim expectation is a
plain lognormal integral with variance int_t^T a(u, x) du.  Given the head
assets at the outer Gauss-Hermite nodes of ``claim_nodes``, the pivot
integral is a Black formula per payoff hinge, so for one asset price and
delta are the classical closed forms and for n >= 2 the outer rule, with
``outer_nodes`` per head axis (``SolverSettings.bsm_outer_nodes``), is the
only quadrature.  One kernel and one ``claim_nodes`` call give the price
and the delta in every asset: the value and the likelihood-ratio score of
the same outer nodes.
"""

from __future__ import annotations

import math

import numpy as np

from .market import Claim, MarketModel, build_kernel, claim_nodes

# per-axis outer nodes over the head assets; for n >= 2 the only quadrature
# error in the frozen-regime price: on the C3 model at the money, 8 -> 16
# moves it by 3.3e-3 at t = 0.3 and by up to 1.7e-2 at t = 0
OUTER_NODES = 24


def _frozen(market: MarketModel, claim: Claim, x, t: float, maturity: float,
            s, outer_nodes: int):
    """Discounted claim value, shape (...), and its derivative in every
    asset, shape (..., n), at the price points s of shape (..., n); at
    maturity the payoff and its right slope.  The delta is the kernel's
    likelihood-ratio score over s."""
    s = np.asarray(s, dtype=float)
    flat = s.reshape(-1, s.shape[-1])
    v = maturity - t
    if v <= 0.0:
        # right slope of the hinge form: every hinge at or below b is on
        on = claim.basket(flat)[:, None] >= claim.hinge_strikes
        price = claim(flat)
        delta = (claim.slope + on @ claim.hinge_slopes)[:, None] \
            * claim.weights
    else:
        kern = build_kernel(market, t, x, v, mode="risk-neutral")
        w, value, score = claim_nodes(kern, claim, flat, outer_nodes)
        disc = math.exp(-market.r(tuple(x)) * v)
        price = disc * (value @ w)
        # reduced one asset at a time, which rounds as a single price does
        delta = np.stack([disc * (score[..., m] @ w) / flat[:, m]
                          for m in range(flat.shape[1])], axis=-1)
    return price.reshape(s.shape[:-1]), delta.reshape(s.shape)


def bsm_price_grid(market, claim, x, t, maturity, s,
                   outer_nodes: int = OUTER_NODES):
    """Frozen-regime price at the points s (..., n), e.g. Grid.s_mesh()."""
    return _frozen(market, claim, x, t, maturity, s, outer_nodes)[0]


def bsm_delta_grid(market, claim, x, t, maturity, s,
                   outer_nodes: int = OUTER_NODES):
    """Frozen-regime delta in every asset at the points s (..., n),
    shape (..., n)."""
    return _frozen(market, claim, x, t, maturity, s, outer_nodes)[1]
