"""The Volterra grid against an exact price.

When every hazard is constant, the regime tuple is a Markov chain whose
generator is the Kronecker sum of the component generators.  With one
asset and r, sigma constant in time per regime, the discounted
characteristic function of ln(S_T / K) from regime x is

    [exp(T (Q + diag(iu (r - sigma^2/2) - u^2 sigma^2/2 - r))) 1]_x

(Elliott, Chan and Siu, Annals of Finance 1, 2005), and the COS method
(Fang and Oosterlee, SIAM J. Sci. Comput. 31, 2008) turns it into the
price of a call and, differentiated in ln s, its delta.  exact_call is
that oracle; configs/markov_modulated_call.json is in its scope.
"""

import dataclasses
import math
import os

import numpy as np
import pytest
from scipy.linalg import expm

from regimehedge.hedging import hedge_field, strategy_at
from regimehedge.market import Claim, build_market
from regimehedge.regime_bsm import bsm_delta_grid, bsm_price_grid
from regimehedge.scenario import load_scenario
from regimehedge.semi_markov import ConstantRate, HazardModel
from regimehedge.volterra_pricer import Grid, solve_price_field

MARKOV_MODULATED = os.path.join(os.path.dirname(__file__), os.pardir,
                                "configs", "markov_modulated_call.json")


def exact_call(market, models, claim, horizon, s0, x, terms=128, span=12.0):
    """(price, delta) at time 0, price s0 and regime tuple x of a one-asset
    call (s - K)^+ under constant hazards and regime-wise constant r and
    sigma, by COS with `terms` cosine terms on ln(s0 / K) plus or minus
    span times the largest regime standard deviation of ln S_T."""
    assert market.n == 1 and claim.kind == "basket-call"
    assert claim.weights.tolist() == [1.0]
    gen = np.zeros((1, 1))
    for h in models:
        q = np.zeros((h.k, h.k))
        for (i, j), fam in h.rates.items():
            assert h.memoryless(i)
            q[i - 1, j - 1] = float(fam.rate(0.0))
        q -= np.diag(q.sum(axis=1))
        # market.x_tuples runs over the last component fastest
        gen = np.kron(gen, np.eye(h.k)) + np.kron(np.eye(len(gen)), q)
    r = np.array([market.r(y) for y in market.x_tuples])
    var = np.array([market.a(0.0, y)[0, 0] for y in market.x_tuples])
    assert all(market.a(horizon, y)[0, 0] == v
               for y, v in zip(market.x_tuples, var))
    strike = claim.strike
    x0 = math.log(s0 / strike)
    half = span * math.sqrt(var.max() * horizon)
    a, b = x0 - half, x0 + half
    u = np.arange(terms) * math.pi / (b - a)
    row = market.x_index[tuple(x)]
    phi = np.array([expm(horizon * (gen + np.diag(
        1j * w * (r - var / 2) - w * w * var / 2 - r)))[row].sum()
        for w in u]) * np.exp(1j * u * (x0 - a))
    # the cosine coefficients of (K e^y - K)^+ on [a, b], the payoff being
    # zero below y = 0
    chi = (np.cos(u * (b - a)) * math.exp(b) - np.cos(u * -a)
           + u * np.sin(u * (b - a)) * math.exp(b) - u * np.sin(u * -a)) \
        / (1.0 + u * u)
    psi = np.empty(terms)
    psi[0] = b
    psi[1:] = (np.sin(u[1:] * (b - a)) - np.sin(u[1:] * -a)) / u[1:]
    coef = 2.0 / (b - a) * strike * (chi - psi)
    coef[0] *= 0.5
    return (float(np.real(phi) @ coef),
            float(np.real(1j * u * phi) @ coef) / s0)


def _shipped():
    scn = load_scenario(MARKOV_MODULATED)
    t, s, x, y = scn.eval_points[0]
    assert t == 0.0
    return scn, (t, s, x, y)


def test_exact_call_converges_in_its_term_count():
    scn, (_, s, x, _) = _shipped()
    runs = [exact_call(scn.market, scn.models, scn.claim, scn.horizon,
                       s[0], x, terms) for terms in (128, 256, 512)]
    for price, delta in runs[1:]:
        assert abs(price - runs[0][0]) <= 1e-10
        assert abs(delta - runs[0][1]) <= 1e-10
    assert runs[-1][0] == pytest.approx(10.910971079, abs=1e-9)
    assert runs[-1][1] == pytest.approx(0.60716, abs=1e-5)


def test_exact_call_is_black_scholes_when_regimes_agree():
    # every regime with the same r and sigma: the chain drops out
    m = build_market(1, 2, 2, 0.04, np.array([0.07]), 0.3 * np.eye(1))
    claim = Claim("basket-call", weights=[1.0], strike=95.0)
    h = HazardModel(2, {(1, 2): ConstantRate(0.5), (2, 1): ConstantRate(0.9)})
    for s0 in (70.0, 100.0, 140.0):
        price, delta = exact_call(m, [h, h], claim, 1.5, s0, (2, 1))
        assert price == pytest.approx(
            bsm_price_grid(m, claim, (2, 1), 0.0, 1.5, np.array([s0])),
            rel=1e-10, abs=1e-10)
        assert delta == pytest.approx(
            float(bsm_delta_grid(m, claim, (2, 1), 0.0, 1.5,
                                 np.array([[s0]]))[0, 0]), abs=1e-10)


def test_grid_error_against_exact_price_falls_as_h_squared():
    # tol 1e-9 and the config's 16 steps leave the price-axis term alone.
    # Measured errors (grid - exact): price +0.11345, +0.02601, +0.00612
    # (ratios 4.36 and 4.25); hedge_field at the eval node +8.55e-4,
    # +2.29e-4, +7.23e-5.  The bounds allow 10% over those, the ratios
    # 3.9 to 4.8 around h^2's 4, and the hedge ratios at least 2.8
    # (measured 3.74 and 3.16)
    scn, point = _shipped()
    t, s, x, y = point
    price, delta = exact_call(scn.market, scn.models, scn.claim,
                              scn.horizon, s[0], x)
    errs, hedge_errs = [], []
    for nodes in (61, 121, 241):
        spec = dataclasses.replace(scn.grid_spec, price_nodes=nodes)
        grid = Grid(scn.market, scn.horizon, s[None], spec)
        assert np.exp(grid.lns_axes[0][nodes // 2]) == pytest.approx(s[0])
        field, _ = solve_price_field(scn.market, scn.claim, scn.models, grid,
                                     1e-9, scn.max_iter, scn.solver)
        errs.append(field.value(t, s, x, y) - price)
        hedge_errs.append(float(strategy_at(hedge_field(field), point)[0][0])
                          - delta)
    assert all(e > 0 for e in errs + hedge_errs)
    assert errs[0] <= 0.125 and errs[2] <= 0.0068
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.9 <= coarse / fine <= 4.8
    assert hedge_errs[0] <= 9.4e-4 and hedge_errs[2] <= 8e-5
    for coarse, fine in zip(hedge_errs, hedge_errs[1:]):
        assert coarse / fine >= 2.8
