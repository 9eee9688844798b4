import math

import numpy as np
import pytest

from regimehedge import hedging
from regimehedge.market import Claim, build_kernel, build_market
from regimehedge.mc_oracle import simulate_path
from regimehedge.quadrature import tensor_normal_nodes
from regimehedge.regime_bsm import bsm_delta_grid
from regimehedge.semi_markov import (
    AffineRate,
    ConstantRate,
    CsmState,
    HazardModel,
    WeibullRate,
    _joint_log_survival,
    switch_edges,
)
from regimehedge.hedging import hedge_field, strategy_at
from regimehedge.volterra_pricer import (
    Grid,
    GridSpec,
    SolverSettings,
    solve_price_field,
)


def _spawn_rngs(seed, pid):
    """Independent (regime, Gaussian) streams for path pid: the children 0
    and 1 of SeedSequence(seed, spawn_key=(pid,))."""
    return tuple(np.random.Generator(np.random.Philox(
        np.random.SeedSequence(seed, spawn_key=(pid, k)))) for k in (0, 1))


def degenerate_case():
    m = build_market(1, 2, 2, 0.04, np.array([0.08]), 0.25 * np.eye(1))
    claim = Claim("basket-call", weights=[1.0], strike=100.0)
    h = HazardModel(2, {(1, 2): ConstantRate(0.3), (2, 1): ConstantRate(0.4)})
    grid = Grid(m, 1.0, np.array([[100.0]]),
                GridSpec(time_steps=20, price_nodes=121, age_nodes=5))
    field, _ = solve_price_field(m, claim, [h, h], grid, tol=5e-4)
    return field


def regime_case():
    def rate(x):
        return 0.02 if x[0] == 1 else 0.05

    def vol(x):
        return (0.2 if x[1] == 1 else 0.3) * np.eye(1)

    m = build_market(1, 2, 2, rate, np.array([0.07]), vol)
    claim = Claim("basket-call", weights=[1.0], strike=100.0)
    models = [
        HazardModel(2, {(1, 2): ConstantRate(0.5), (2, 1): ConstantRate(0.7)}),
        HazardModel(2, {(1, 2): WeibullRate(0.6, 2.0), (2, 1): AffineRate(0.3, 0.2)}),
    ]
    grid = Grid(m, 1.0, np.array([[100.0]]),
                GridSpec(time_steps=24, price_nodes=121, age_nodes=7))
    field, _ = solve_price_field(m, claim, models, grid, tol=2e-4)
    return field


def test_linear_claim_hedge_is_weights():
    m = build_market(1, 2, 2, 0.05, np.array([0.07]), 0.2 * np.eye(1))
    claim = Claim("linear", weights=[1.3])
    h = HazardModel(2, {(1, 2): ConstantRate(0.4), (2, 1): ConstantRate(0.5)})
    grid = Grid(m, 1.0, np.array([[100.0]]),
                GridSpec(time_steps=10, price_nodes=41, age_nodes=4))
    field, _ = solve_price_field(m, claim, [h, h], grid, tol=1e-7,
                                 settings=SolverSettings(gh_nodes=32))
    pt = (0.0, np.array([100.0]), (1, 1), np.array([0.0, 0.0]))
    xi, eps = strategy_at(hedge_field(field), pt)
    assert xi[0] == pytest.approx(1.3, abs=1e-6)
    assert eps == pytest.approx(0.0, abs=1e-6)


def test_regime_independent_hedge_matches_frozen_delta():
    field = degenerate_case()
    pt = (0.25, np.array([100.0]), (1, 1), np.array([0.1, 0.2]))
    eta = strategy_at(hedge_field(field), pt)[0][0]
    ref = bsm_delta_grid(field.solver.market, field.claim, (1, 1), 0.25, 1.0,
                         np.array([100.0]))[0]
    assert eta == pytest.approx(ref, abs=1e-3)


def test_hedge_matches_field_finite_difference():
    # oracle: 4th-order central difference of the solved field in ln s,
    # converted to an s-derivative at the node
    field = regime_case()
    hedge = hedge_field(field)
    g = field.grid
    rng = np.random.default_rng(8)
    checked = 0
    for _ in range(25):
        i = int(rng.integers(2, 18))
        t = float(g.t_nodes[i])
        c = int(g.c_counts[i])
        y = np.array([float(g.age_nodes[rng.integers(0, c)]) for _ in range(2)])
        x = g.x_tuples[int(rng.integers(0, 4))]
        s_idx = int(rng.integers(45, 76))
        s = np.array([g.s_axes[0][s_idx]])
        pt = (t, s, x, y)
        eta = strategy_at(hedge, pt)[0][0]
        vals = [field.value(t, np.array([g.s_axes[0][s_idx + k]]), x, y)
                for k in (-2, -1, 1, 2)]
        dz = (-vals[3] + 8.0 * vals[2] - 8.0 * vals[1] + vals[0]) / (12.0 * g.h[0])
        fd = dz / s[0]
        if abs(fd) > 0.05:
            assert eta == pytest.approx(fd, rel=1e-2, abs=1e-3)
            checked += 1
    assert checked >= 10


def test_hedge_bounded_by_payoff_slope():
    field = regime_case()
    hf = hedge_field(field)
    # the call's payoff moves by at most weight * |ds| in the l1 metric
    bound = float(np.max(field.claim.weights)) * 1.1
    for i in (0, 10, 20):
        assert float(np.max(np.abs(hf.xi[i]))) <= bound
    # value identity: phi = xi . s + eps at discount one
    smesh = field.grid.s_mesh()[..., 0]
    recon = np.asarray(hf.xi[10])[..., 0] * smesh + hf.eps[10]
    np.testing.assert_allclose(recon, field.slabs[10], rtol=1e-12, atol=1e-12)

    # grid pass agrees with the point-route oracle at interior nodes
    g = field.grid
    i = 10
    t = float(g.t_nodes[i])
    for xi_i, y_idx, s_idx in ((0, (1, 1), 55), (3, (0, 2), 66)):
        x = g.x_tuples[xi_i]
        y = np.array([g.age_nodes[a] for a in y_idx])
        s = np.array([g.s_axes[0][s_idx]])
        grid_val = np.asarray(hf.xi[i])[(xi_i,) + y_idx + (s_idx, 0)]
        point_val = _hedge_ratio_per_node(field, (t, s, x, y), 0)
        assert point_val == pytest.approx(grid_val, rel=3e-3, abs=3e-4)


@pytest.mark.parametrize("settings", [
    SolverSettings(gh_nodes=8),
    SolverSettings(gh_nodes=8, bsm_outer_nodes=2),
], ids=["default-outer-nodes", "two-outer-nodes"])
def test_correlated_two_asset_hedge_field_matches_point_route(settings):
    # a non-diagonal log covariance sends the grid pass through the n-D
    # stencil smoother with deriv_axis set; the point route is the
    # independent oracle on both axes.  Both routes take the frozen-regime
    # delta from the same outer rule, however coarse
    def vol(x):
        base = np.array([[0.2, 0.0], [0.12, 0.22]])
        return base if x[0] == 1 else 1.4 * base

    m = build_market(2, 2, 1, 0.03, np.array([0.06, 0.07]), vol)
    assert abs(m.a_integral(0.0, 1.0, (1,))[0, 1]) > 0.01
    claim = Claim("basket-call", weights=[0.5, 0.5], strike=100.0)
    models = [HazardModel(2, {(1, 2): WeibullRate(0.8, 1.6),
                              (2, 1): ConstantRate(0.9)})]
    grid = Grid(m, 1.0, np.array([[100.0, 100.0]]),
                GridSpec(time_steps=6, price_nodes=21, age_nodes=3))
    field, _ = solve_price_field(m, claim, models, grid, tol=1e-4,
                                 settings=settings)
    hf = hedge_field(field)
    checked = 0
    for i in (1, 3):
        t = float(grid.t_nodes[i])
        for xi_i, x in enumerate(grid.x_tuples):
            for a in range(int(grid.c_counts[i])):
                y = np.array([grid.age_nodes[a]])
                for s_idx in ((10, 10), (8, 12), (12, 8)):
                    s = np.array([grid.s_axes[0][s_idx[0]],
                                  grid.s_axes[1][s_idx[1]]])
                    for axis in (0, 1):
                        grid_val = np.asarray(hf.xi[i])[(xi_i, a) + s_idx
                                                        + (axis,)]
                        point_val = _hedge_ratio_per_node(
                            field, (t, s, x, y), axis)
                        assert point_val == pytest.approx(grid_val, rel=3e-3,
                                                          abs=3e-4)
                        checked += 1
    assert checked == 36



def test_derivative_taps_built_once_per_smoother_and_axis(monkeypatch):
    # pricing builds only the kernel taps; the hedge pass adds one set of
    # derivative taps per panel kernel and asset axis, shared by every
    # (component, destination) branch.  _build_taps builds a batch of tap
    # arrays per call, so the count is of arrays built, not of calls, and
    # a slab's one smoother holds the taps of all its panels and regime
    # tuples
    from regimehedge import volterra_pricer as vp
    m = build_market(2, 2, 2, 0.03, np.zeros(2), np.diag([0.2, 0.3]))
    claim = Claim("basket-call", weights=[0.5, 0.5], strike=100.0)
    h = HazardModel(2, {(1, 2): ConstantRate(0.5), (2, 1): ConstantRate(0.7)})
    grid = Grid(m, 1.0, np.array([[100.0, 100.0]]),
                GridSpec(time_steps=4, price_nodes=11, age_nodes=3))
    settings = SolverSettings(gh_nodes=8)
    calls, smoothers = [0], []
    build, init = vp._build_taps, vp._Smoother.__init__

    def counting_build(*args):
        taps = build(*args)
        calls[0] += len(taps)
        return taps

    def tracking_init(self, *args):
        init(self, *args)
        smoothers.append(self)
    monkeypatch.setattr(vp, "_build_taps", counting_build)
    monkeypatch.setattr(vp._Smoother, "__init__", tracking_init)

    field, _ = solve_price_field(m, claim, [h, h], grid, tol=1e-6,
                                 settings=settings)
    kernels = sum(len(sm.taps) for sm in smoothers)
    assert smoothers and calls[0] == 2 * kernels
    assert not any(sm._deriv for sm in smoothers)
    calls[0] = 0
    smoothers.clear()
    hedge_field(field)
    kernels = sum(len(sm.taps) for sm in smoothers)
    assert smoothers and calls[0] == (2 + 2) * kernels


def test_hedge_pass_runs_on_the_pricing_solver_at_its_settings(monkeypatch):
    # the grid pass and the reading of it at a point use the solver that
    # priced the field: no second solver, no survival weights recomputed,
    # and the field's node counts (not the SolverSettings defaults, 16 and
    # 24)
    from regimehedge import volterra_pricer as vp
    m = build_market(2, 2, 1, 0.03, np.array([0.06, 0.07]),
                     lambda x: (1.0 if x[0] == 1 else 1.3)
                     * np.diag([0.2, 0.25]))
    claim = Claim("basket-call", weights=[0.5, 0.5], strike=100.0)
    models = [HazardModel(2, {(1, 2): ConstantRate(0.6),
                              (2, 1): WeibullRate(0.8, 1.5)})]
    grid = Grid(m, 1.0, np.array([[100.0, 100.0]]),
                GridSpec(time_steps=4, price_nodes=11, age_nodes=3))
    field, _ = solve_price_field(
        m, claim, models, grid, tol=1e-4,
        settings=SolverSettings(gh_nodes=8, bsm_outer_nodes=2))
    cached = dict(field.solver._js_T)
    assert cached

    built, gh, outer, deltas = [], set(), set(), []
    init = vp.VolterraSolver.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def recording(fn, seen, arg, results=None):
        def wrapper(*args):
            seen.add(args[arg])
            out = fn(*args)
            if results is not None:
                results.append((args[5].shape, out.shape))
            return out
        return wrapper
    monkeypatch.setattr(vp.VolterraSolver, "__init__", counting_init)
    monkeypatch.setattr(vp, "tensor_normal_nodes",
                        recording(vp.tensor_normal_nodes, gh, 1))
    monkeypatch.setattr(hedging, "bsm_delta_grid",
                        recording(hedging.bsm_delta_grid, outer, 6, deltas))

    hedge = hedge_field(field)
    strategy_at(hedge, (0.3, np.array([95.0, 104.0]), (2,), np.array([0.3])))
    assert built == []
    assert gh == {8} and outer == {2}
    # one call per (time node, regime tuple), each with every asset's delta
    g = field.grid
    assert len(deltas) == (g.spec.time_steps + 1) * len(g.x_tuples)
    assert all(out == pts == g.s_shape + (2,) for pts, out in deltas)
    for i, js in cached.items():
        assert field.solver._js_T[i] is js


def test_strategy_value_identity_and_terminal_replication():
    field = regime_case()
    pt = (0.5, np.array([110.0]), (2, 1), np.array([0.3, 0.1]))
    xi, eps = strategy_at(hedge_field(field), pt, discount=0.97)
    phi = field.value(*pt)
    assert xi[0] * 110.0 + eps / 0.97 == pytest.approx(phi, rel=1e-12)

    # replication at maturity: terminal field values equal the payoff
    sT = np.array([[87.0], [100.0], [133.0]])
    vals = field.values(np.full(3, 1.0), sT, np.zeros(3, dtype=int),
                        np.zeros((3, 2)))
    np.testing.assert_allclose(vals, field.claim(sT), atol=1e-12)


def test_self_financing_along_no_jump_path():
    field = degenerate_case()
    m, models = field.solver.market, field.solver.models
    # simulate a path conditioned on no switches, rebalance on a fine grid
    pid = 0
    while True:
        path = simulate_path(m, models,
                             (0.0, np.array([100.0]), (1, 1), np.zeros(2)),
                             1.0, 31, [pid], mode="physical")
        if path.n_jumps[0] == 0:
            break
        pid += 1
    # step along the same Brownian path at dt resolution using the kernel
    rr, rg = _spawn_rngs(31, pid)
    n_steps = 40
    dt = 1.0 / n_steps
    s = 100.0
    sset = [s]
    from regimehedge.market import build_kernel
    for k in range(n_steps):
        kern = build_kernel(m, k * dt, (1, 1), dt, mode="physical")
        z = kern.zbar[0] + kern.chol[0, 0] * rg.standard_normal()
        s = s * math.exp(z)
        sset.append(s)

    r = 0.04
    t = 0.0
    hedge = hedge_field(field)
    pt = (0.0, np.array([sset[0]]), (1, 1), np.zeros(2))
    xi, eps = strategy_at(hedge, pt)
    value = field.value(*pt)
    for k in range(1, n_steps + 1):
        t = k * dt
        value = xi[0] * sset[k] + (eps * math.exp(r * t))  # mark to market
        y = np.array([t, t])
        phi = field.value(t, np.array([sset[k]]), (1, 1), y)
        if k < n_steps:
            ptk = (t, np.array([sset[k]]), (1, 1), y)
            xi, eps = strategy_at(hedge, ptk, discount=math.exp(-r * t))
        assert abs(value - phi) < 0.8  # discrete-rebalancing slippage


def _interp_linear_part(g, sig, c1):
    """The multilinear interpolant of the node values of c1 . s: inside the
    box the per-axis chord of the exponential in ln s, beyond it the
    linear-growth extension."""
    out = np.zeros(sig.shape[0])
    for l in range(g.n):
        ax, sv = g.lns_axes[l], g.s_axes[l]
        idx = np.clip((np.log(sig[:, l]) - ax[0]) / g.h[l], 0.0, len(ax) - 1.0)
        i0 = np.minimum(idx.astype(int), len(ax) - 2)
        frac = idx - i0
        chord = (1.0 - frac) * sv[i0] + frac * sv[i0 + 1]
        over = np.clip(sig[:, l] - sv[-1], 0.0, None)
        under = np.clip(sig[:, l] - sv[0], None, 0.0)
        out += c1[l] * (chord + over + under)
    return out


def _hedge_ratio_per_node(field, point, axis):
    """d(price)/d s_axis at point = (t, s, x, y) by a switch-time quadrature
    of its own, the oracle of hedge_field: 2 Gauss-Legendre nodes per panel,
    one kernel and one inverse Cholesky factor per node, and the solved
    field read at the kernel's tensor Gauss-Hermite nodes."""
    solver = field.solver
    market, claim, models = solver.market, solver.claim, solver.models
    settings = solver.settings
    g = field.grid
    t, s, x, y = point
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    x = tuple(x)
    T = g.horizon
    rem = T - t
    if rem <= 1e-12:
        return float(bsm_delta_grid(market, claim, x, T, T, s,
                                    settings.bsm_outer_nodes)[axis])
    log_js = _joint_log_survival(models, CsmState(x, y))
    js_T = math.exp(log_js(rem))
    out = float(bsm_delta_grid(market, claim, x, t, T, s,
                               settings.bsm_outer_nodes)[axis]) * js_T
    n_panels = max(1, int(round(rem / g.dt)))
    width = rem / n_panels
    gl_x, gl_w = np.polynomial.legendre.leggauss(2)
    edges = switch_edges(models, g.x_tuples)[g.x_index[x]]
    rate_x = market.r(x)
    nodes, wq = tensor_normal_nodes(g.n, settings.gh_nodes)
    switch = 0.0
    mass = 0.0
    for p in range(n_panels):
        for gx, gw in zip(gl_x, gl_w):
            v = (p + 0.5 * (gx + 1.0)) * width
            wv = 0.5 * width * gw
            js = math.exp(log_js(v))
            kern = build_kernel(market, t, x, v)
            sig = s * np.exp(kern.zbar + nodes @ kern.chol.T)
            inv_l = np.linalg.inv(kern.chol)
            fac = (nodes @ inv_l[:, axis]) / s[axis]
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
                # the excess over the interpolated linear part, whose
                # derivative is restored in closed form, as on the grid
                excess = vals - _interp_linear_part(g, sig, claim.c1)
                d_excess = float(np.dot(wq * fac, excess))
                switch += wv * math.exp(-rate_x * v) * js * lam \
                    * (d_excess + lin_term)
                mass += wv * js * lam
    if mass > 1e-300:
        switch *= (1.0 - js_T) / mass
    return out + switch
