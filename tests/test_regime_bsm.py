import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.stats import norm

from regimehedge.market import (
    Claim,
    TimeCoeff,
    build_kernel,
    build_market,
    claim_nodes,
)
from regimehedge.quadrature import tensor_normal_nodes
from regimehedge.regime_bsm import bsm_delta_grid, bsm_price_grid


def closed_form_call(s, k, r, var, tau):
    """Black-Scholes with total variance var = int a dt over the window."""
    sd = math.sqrt(var)
    d1 = (math.log(s / k) + r * tau + 0.5 * var) / sd
    d2 = d1 - sd
    return s * norm.cdf(d1) - k * math.exp(-r * tau) * norm.cdf(d2), norm.cdf(d1)


def flat_market(sigma=0.2, r=0.05):
    return build_market(1, 2, 2, r, np.array([0.1]), sigma * np.eye(1))


X0 = (1, 1)
CALL = Claim("basket-call", weights=[1.0], strike=100.0)


def test_terminal_slice_returns_payoff():
    m = flat_market()
    s = np.array([[80.0], [100.0], [123.0]])
    np.testing.assert_allclose(bsm_price_grid(m, CALL, X0, 1.0, 1.0, s),
                               [0.0, 0.0, 23.0])


def test_linear_claim_prices_at_spot():
    m = flat_market(r=0.07)
    lin = Claim("linear", weights=[1.4])
    got = bsm_price_grid(m, lin, X0, 0.2, 1.0, np.array([90.0]))
    assert got == pytest.approx(1.4 * 90.0, rel=1e-9)


def test_vanilla_call_matches_closed_form():
    m = flat_market(sigma=0.2, r=0.05)
    got = bsm_price_grid(m, CALL, X0, 0.0, 1.0, np.array([100.0]))
    want, _ = closed_form_call(100.0, 100.0, 0.05, 0.04, 1.0)
    assert want == pytest.approx(10.450583572185565, abs=5e-7)
    assert got == pytest.approx(want, abs=1e-8)


def test_call_with_time_varying_sigma_matches_closed_form():
    vol = TimeCoeff([0.0, 1.0], np.array([[[0.15]], [[0.35]]]))
    m = build_market(1, 2, 2, 0.04, np.array([0.1]), lambda x: vol)
    t = 0.25
    var = float(m.a_integral(t, 1.0, X0)[0, 0])
    got = bsm_price_grid(m, CALL, X0, t, 1.0, np.array([105.0]))
    want, _ = closed_form_call(105.0, 100.0, 0.04, var, 0.75)
    assert got == pytest.approx(want, abs=1e-8)


def test_delta_matches_closed_form_and_fd():
    m = flat_market(sigma=0.2, r=0.05)
    got = bsm_delta_grid(m, CALL, X0, 0.0, 1.0, np.array([100.0]))[0]
    _, nd1 = closed_form_call(100.0, 100.0, 0.05, 0.04, 1.0)
    assert nd1 == pytest.approx(0.6368306511756191, abs=5e-7)
    assert got == pytest.approx(nd1, abs=1e-6)

    h = 1e-3
    up = bsm_price_grid(m, CALL, X0, 0.0, 1.0, np.array([100.0 + h]))
    dn = bsm_price_grid(m, CALL, X0, 0.0, 1.0, np.array([100.0 - h]))
    assert got == pytest.approx((up - dn) / (2 * h), abs=1e-5)


def test_delta_linear_claim_exact():
    m = flat_market()
    lin = Claim("linear", weights=[0.7])
    got = bsm_delta_grid(m, lin, X0, 0.1, 1.0, np.array([95.0]))[0]
    assert got == pytest.approx(0.7, abs=1e-8)


def test_terminal_delta_is_the_right_slope_of_the_hinge_form():
    # asset 0 carries weight 0.5 and asset 1 none, so s0 = 2 b puts nodes
    # exactly on the hinges at b = 80, 100 and 120
    b = np.array([30.0, 80.0, 85.0, 100.0, 115.0, 120.0, 150.0])
    s = np.stack([2.0 * b, np.full_like(b, 70.0)], axis=1)
    weights = [0.5, 0.0]
    right_slopes = {   # dK/db from the right at each b
        "basket-call": [0, 0, 0, 1, 1, 1, 1],
        "basket-put": [-1, -1, -1, 0, 0, 0, 0],
        "linear": [1, 1, 1, 1, 1, 1, 1],
        "custom-piecewise-linear": [0, 1, 1, -1, -1, 0, 0],
    }
    claims = [Claim("basket-call", weights=weights, strike=100.0),
              Claim("basket-put", weights=weights, strike=100.0),
              Claim("linear", weights=weights),
              # configs/butterfly_custom.json's butterfly
              Claim("custom-piecewise-linear", weights=weights,
                    knots=[80.0, 100.0, 120.0], values=[0.0, 20.0, 0.0])]
    m = build_market(2, 2, 2, 0.04, np.zeros(2), 0.3 * np.eye(2))
    for claim in claims:
        want = 0.5 * np.array(right_slopes[claim.kind], dtype=float)
        delta = bsm_delta_grid(m, claim, X0, 1.0, 1.0, s)
        np.testing.assert_array_equal(delta[:, 0], want)
        assert np.all(delta[:, 1] == 0.0)
        for row, d in zip(s, want):
            assert bsm_delta_grid(m, claim, X0, 1.0, 1.0, row)[0] == d


def test_delta_deep_out_of_the_money():
    m = flat_market()
    got = bsm_delta_grid(m, CALL, X0, 0.0, 1.0, np.array([1.0]))[0]
    assert abs(got) < 1e-6


def test_price_nonnegative_and_monotone_in_s():
    m = flat_market(sigma=0.3, r=0.02)
    s = np.linspace(40.0, 220.0, 25)[:, None]
    p = bsm_price_grid(m, CALL, X0, 0.3, 1.0, s)
    assert np.all(p >= -1e-12)
    assert np.all(np.diff(p) > -1e-10)


def test_basket_call_two_assets_vs_mc_oracle():
    sig = np.array([[0.2, 0.0], [0.0, 0.3]])
    m = build_market(2, 2, 3, 0.03, np.zeros(2), sig)
    claim = Claim("basket-call", weights=[0.5, 0.5], strike=100.0)
    x = (1, 1, 1)
    s0 = np.array([100.0, 100.0])
    got = bsm_price_grid(m, claim, x, 0.0, 1.0, s0)

    rng = np.random.default_rng(7)
    npaths = 400_000
    z = rng.standard_normal((npaths, 2))
    st = s0 * np.exp((0.03 - 0.5 * np.array([0.04, 0.09]))
                     + z @ np.diag([0.2, 0.3]))
    pay = np.maximum(st @ claim.weights - 100.0, 0.0) * math.exp(-0.03)
    se = pay.std(ddof=1) / math.sqrt(npaths)
    assert abs(got - pay.mean()) < 3 * se


def test_bsm_pde_residual_fourth_order():
    # interior residual of the frozen-regime pricing identity, 4th-order FD
    m = flat_market(sigma=0.25, r=0.04)
    t0, T = 0.4, 1.0
    r, a = 0.04, 0.0625
    lns = np.log(100.0) + np.linspace(-1.2, 1.2, 161)
    h = lns[1] - lns[0]
    dt = 1e-4
    s = np.exp(lns)[:, None]
    grid = bsm_price_grid(m, CALL, X0, t0, T, s)
    grid_up = bsm_price_grid(m, CALL, X0, t0 + dt, T, s)
    grid_dn = bsm_price_grid(m, CALL, X0, t0 - dt, T, s)
    dpdt = (grid_up - grid_dn) / (2 * dt)
    c = slice(2, -2)
    dz = (-grid[4:] + 8 * grid[3:-1] - 8 * grid[1:-3] + grid[:-4]) / (12 * h)
    dzz = (-grid[4:] + 16 * grid[3:-1] - 30 * grid[2:-2]
           + 16 * grid[1:-3] - grid[:-4]) / (12 * h * h)
    res = dpdt[c] + r * dz + 0.5 * a * (dzz - dz) - r * grid[c]
    scale = 1.0 + np.exp(lns[c])
    assert float(np.max(np.abs(res) / scale)) < 1e-3


def c3_market(corr=0.0):
    # the C3 acceptance model, optionally with correlated assets
    def vol(x):
        s1 = 0.2 if x[1] == 1 else 0.3
        s2 = 0.25 if x[2] == 1 else 0.32
        return np.array([[s1, 0.0], [corr * s2, math.sqrt(1 - corr ** 2) * s2]])

    return build_market(2, 2, 3, lambda x: 0.02 if x[0] == 1 else 0.05,
                        np.array([0.06, 0.07]), vol)


TWO_ASSET_CLAIMS = [
    Claim("basket-call", weights=[0.5, 0.5], strike=100.0),
    Claim("basket-put", weights=[0.3, 0.7], strike=95.0),
    Claim("linear", weights=[0.5, 1.5]),
    Claim("custom-piecewise-linear", weights=[0.6, 0.4],
          knots=[80.0, 100.0, 120.0], values=[5.0, 0.0, 10.0],
          final_slope=0.2),
]


def _pivot_reference(kern, claim, s, xi_head):
    """Value and Sigma^-1 dev score at one outer node by adaptive quadrature
    over the pivot axis, split at every payoff kink."""
    n = kern.n
    pivot = int(np.argmax(claim.weights))
    perm = [i for i in range(n) if i != pivot] + [pivot]
    chol = np.linalg.cholesky(kern.cov[np.ix_(perm, perm)])
    inv_perm = np.argsort(perm)

    def at(xi_p):
        dev = (chol @ np.append(xi_head, xi_p))[inv_perm]
        sig = s * np.exp(kern.zbar + dev)
        return sig, dev

    lim = 12.0
    basket = lambda xi_p: claim.basket(at(xi_p)[0])
    kinks = claim.knots if claim.knots is not None else [claim.strike]
    points = [brentq(lambda z, k=k: basket(z) - k, -lim, lim)
              for k in kinks
              if (basket(-lim) - k) * (basket(lim) - k) < 0]
    pdf = lambda z: math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)

    def integrate(g):
        return quad(lambda z: g(z) * pdf(z), -lim, lim, points=points or None,
                    epsabs=1e-12, epsrel=1e-12, limit=400)[0]

    value = integrate(lambda z: float(claim(at(z)[0])))
    score = [integrate(lambda z, a=a: float(claim(at(z)[0]))
                       * np.linalg.solve(kern.cov, at(z)[1])[a])
             for a in range(n)]
    return value, np.array(score)


@pytest.mark.parametrize("corr", [0.0, 0.6])
@pytest.mark.parametrize("claim", TWO_ASSET_CLAIMS,
                         ids=[c.kind for c in TWO_ASSET_CLAIMS])
def test_claim_nodes_match_pivot_quadrature_two_assets(claim, corr):
    m = c3_market(corr)
    s_batch = np.array([[100.0, 100.0], [70.0, 130.0], [140.0, 85.0]])
    for x, t in [((1, 1, 1), 0.0), ((2, 1, 2), 0.6), ((1, 2, 2), 0.9)]:
        kern = build_kernel(m, t, x, 1.0 - t)
        w, value, score = claim_nodes(kern, claim, s_batch, 8)
        xi_outer, _ = tensor_normal_nodes(1, 8)
        assert w.size == 8
        for b, s in enumerate(s_batch):
            for q in range(8):
                ref_v, ref_s = _pivot_reference(kern, claim, s, xi_outer[q])
                assert value[b, q] == pytest.approx(ref_v, abs=1e-9)
                np.testing.assert_allclose(score[b, q], ref_s, rtol=0,
                                           atol=1e-9)
        disc = math.exp(-m.r(x) * (1.0 - t))
        np.testing.assert_allclose(
            bsm_price_grid(m, claim, x, t, 1.0, s_batch, 8),
            disc * value @ w, rtol=0, atol=1e-12)
        delta = bsm_delta_grid(m, claim, x, t, 1.0, s_batch, 8)
        for a in range(2):
            np.testing.assert_allclose(
                delta[:, a], disc * score[..., a] @ w / s_batch[:, a],
                rtol=0, atol=1e-12)


@pytest.mark.parametrize("weights", [[0.0], [0.0, 0.0]])
def test_zero_weight_claim_prices_discounted_constant(weights):
    n = len(weights)
    m = build_market(n, 2, 2, 0.04, np.zeros(n), 0.3 * np.eye(n))
    claims = [Claim("basket-put", weights=weights, strike=90.0),
              Claim("custom-piecewise-linear", weights=weights,
                    knots=[10.0, 20.0], values=[3.0, 5.0], final_slope=0.5)]
    s = np.array([[50.0] * n, [100.0] * n, [1e-3] * n])
    axis = np.exp(np.log(100.0) + np.linspace(-1.0, 1.0, 5))
    mesh = np.stack(np.meshgrid(*[axis] * n, indexing="ij"), axis=-1)
    for claim, k0 in zip(claims, [90.0, 3.0]):
        for t in (0.0, 0.5, 1.0):
            want = math.exp(-0.04 * (1.0 - t)) * k0
            price = bsm_price_grid(m, claim, X0, t, 1.0, s)
            np.testing.assert_allclose(price, want, rtol=1e-14, atol=0)
            grid = bsm_price_grid(m, claim, X0, t, 1.0, mesh)
            assert grid.shape == (5,) * n
            np.testing.assert_allclose(grid, want, rtol=1e-14, atol=0)
            assert np.all(bsm_delta_grid(m, claim, X0, t, 1.0, s) == 0.0)
            delta = bsm_delta_grid(m, claim, X0, t, 1.0, mesh)
            assert delta.shape == (5,) * n + (n,)
            assert np.all(delta == 0.0)


@st.composite
def _frozen_case(draw):
    n = draw(st.integers(1, 2))
    vols = [draw(st.floats(0.05, 0.8)) for _ in range(n)]
    corr = draw(st.floats(-0.9, 0.9)) if n == 2 else 0.0
    vol = np.diag(vols)
    if n == 2:
        vol[1] = vols[1] * np.array([corr, math.sqrt(1 - corr ** 2)])
    m = build_market(n, 2, 1, draw(st.floats(0.0, 0.1)), np.zeros(n), vol)
    weights = [draw(st.floats(0.1, 2.0)) for _ in range(n)]
    spot = np.array([draw(st.floats(20.0, 300.0)) for _ in range(n)])
    return (m, weights, spot, draw(st.floats(1.0, 300.0)),
            draw(st.floats(0.01, 3.0)), draw(st.integers(0, n - 1)))


@settings(derandomize=True, database=None, deadline=None)
@given(case=_frozen_case())
def test_frozen_price_properties(case):
    m, weights, spot, strike, v, axis = case
    x, r = (1,), m.r((1,))

    def rho(kind, s, k=strike):
        claim = Claim(kind, weights=weights, strike=k)
        return bsm_price_grid(m, claim, x, 0.0, v, s, 8)

    def delta(kind):
        claim = Claim(kind, weights=weights, strike=strike)
        return bsm_delta_grid(m, claim, x, 0.0, v, spot, 8)

    lin = rho("linear", spot)
    parity = rho("basket-call", spot) - rho("basket-put", spot)
    assert parity == pytest.approx(lin - strike * math.exp(-r * v),
                                   abs=1e-9 * (1.0 + lin))
    # the strike term has no delta: parity holds in every asset
    np.testing.assert_allclose(delta("basket-call") - delta("basket-put"),
                               delta("linear"), rtol=0,
                               atol=1e-9 * (1.0 + lin))

    spots = np.repeat(spot[None, :], 41, axis=0)
    spots[:, axis] *= np.linspace(0.2, 3.0, 41)
    calls = rho("basket-call", spots)
    tol = 1e-10 * (1.0 + float(np.max(calls)))
    assert np.all(np.diff(calls) >= -tol)
    assert np.all(np.diff(calls, 2) >= -tol)

    by_strike = [rho("basket-call", spot, k)
                 for k in np.linspace(0.0, 2.0 * strike, 21)]
    assert np.all(np.diff(by_strike) <= tol)
