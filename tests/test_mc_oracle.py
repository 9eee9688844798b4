import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from regimehedge.market import (
    Claim,
    MarketModel,
    TimeCoeff,
    build_kernel,
    build_market,
)
from regimehedge.mc_oracle import (
    dump_paths,
    mc_price,
    simulate_path,
    simulate_risk_neutral,
    _spawn_rngs,
)
from regimehedge.regime_bsm import bsm_price
from regimehedge.scenario import parse_scenario
from regimehedge.semi_markov import (
    ConstantRate,
    CsmState,
    HazardModel,
    WeibullRate,
    simulate_csm,
)


def flat_market(r=0.05, sigma=0.2, mu=0.09):
    return build_market(1, 2, 2, r, np.array([mu]), sigma * np.eye(1))


def models_const(c0=0.5, c1=0.8):
    h = lambda c: HazardModel(2, {(1, 2): ConstantRate(c), (2, 1): ConstantRate(c)})
    return [h(c0), h(c1)]


START = (0.0, np.array([100.0]), (1, 1), np.array([0.0, 0.0]))


def test_martingale_property_of_discounted_terminal():
    m = flat_market(r=0.06, sigma=0.25)
    models = models_const()
    claim = Claim("linear", weights=[1.0])
    est, se = mc_price(m, claim, models, START, 1.0, n_paths=20_000, seed=11)
    assert abs(est - 100.0) < 3 * se
    assert se < 0.5


def test_zero_vol_zero_hazard_deterministic_growth():
    vol = TimeCoeff.constant(1e-8 * np.eye(1))
    m = build_market(1, 2, 2, 0.04, np.array([0.04]), lambda x: vol)
    h = HazardModel(2, {(1, 2): ConstantRate(1e-9), (2, 1): ConstantRate(1e-9)})
    path = simulate_risk_neutral(m, [h, h], START, 1.0, seed=3)
    assert path.n_jumps == 0
    assert path.s_terminal[0] == pytest.approx(100.0 * math.exp(0.04), rel=1e-5)
    assert path.discount == pytest.approx(math.exp(-0.04), rel=1e-12)


def test_regime_independent_matches_frozen_price():
    m = flat_market(r=0.03, sigma=0.3)
    models = models_const(0.6, 0.9)
    claim = Claim("basket-call", weights=[1.0], strike=100.0)
    est, se = mc_price(m, claim, models, START, 1.0, n_paths=20_000, seed=4)
    ref = bsm_price(m, claim, (1, 1), 0.0, 1.0, np.array([100.0]))
    assert abs(est - ref) < 3 * se


def test_no_switch_conditioning_reproduces_kernel_law():
    # inter-jump ratios conditioned on no switch follow the kernel law
    m = flat_market(r=0.02, sigma=0.35, mu=0.11)
    models = models_const(0.7, 0.4)
    v = 0.6
    ratios = []
    for pid in range(4000):
        rr, rg = _spawn_rngs(77, pid)
        path = simulate_path(m, models, START, v, rr, rg, mode="physical")
        if path.n_jumps == 0:
            ratios.append(path.s_terminal[0] / 100.0)
    kern = build_kernel(m, 0.0, (1, 1), v, mode="physical")
    sd = math.sqrt(kern.cov[0, 0])

    def cdf(u):
        return stats.norm.cdf((np.log(u) - kern.zbar[0]) / sd)
    res = stats.kstest(np.asarray(ratios), cdf)
    assert len(ratios) > 1500
    assert res.pvalue > 0.01


def test_reproducibility_and_antithetic():
    m = flat_market()
    models = models_const()
    claim = Claim("basket-call", weights=[1.0], strike=95.0)
    a1 = mc_price(m, claim, models, START, 1.0, n_paths=4000, seed=9)
    a2 = mc_price(m, claim, models, START, 1.0, n_paths=4000, seed=9)
    assert a1 == a2
    # batch split must not change the estimate
    a3 = mc_price(m, claim, models, START, 1.0, n_paths=4000, seed=9, n_jobs=3)
    assert a3[0] == a1[0]

    plain, se_p = mc_price(m, claim, models, START, 1.0, n_paths=20_000, seed=5)
    anti, se_a = mc_price(m, claim, models, START, 1.0, n_paths=20_000, seed=5,
                          antithetic=True)
    assert abs(anti - plain) < 3 * math.hypot(se_p, se_a)
    assert se_a < se_p  # monotone payoff


def test_variance_scales_inversely_with_paths():
    m = flat_market()
    models = models_const()
    claim = Claim("basket-call", weights=[1.0], strike=100.0)
    ses = []
    sizes = [1000, 10_000, 100_000]
    for n in sizes:
        _, se = mc_price(m, claim, models, START, 1.0, n_paths=n, seed=21)
        ses.append(se)
    slope = np.polyfit(np.log(sizes), np.log(np.square(ses)), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.1)


def test_path_record_bookkeeping():
    m = flat_market()
    models = models_const(2.5, 2.0)
    path = simulate_risk_neutral(m, models, START, 1.0, seed=13)
    assert path.n_jumps >= 1
    assert np.all(np.diff(path.jump_times) > 0)
    for k in range(path.n_jumps):
        l = path.jump_component[k]
        assert path.states[k][l] == path.jump_from[k]
        assert path.states[k + 1][l] == path.jump_to[k]
        assert path.ages_after[k][l] == 0.0
    assert 0.0 < path.discount <= 1.0
    assert path.discount_at_jumps.shape == (path.n_jumps,)


def test_switch_history_is_simulate_csm():
    # the oracle draws its switch history from simulate_csm on the same
    # regime stream, from a start time t0 > 0 and nonzero ages
    m = flat_market()
    models = [HazardModel(2, {(1, 2): WeibullRate(1.8, 1.6),
                              (2, 1): ConstantRate(1.2)}),
              HazardModel(2, {(1, 2): ConstantRate(0.9),
                              (2, 1): WeibullRate(2.2, 2.0)})]
    t0, x0, y0 = 0.37, (2, 1), np.array([0.45, 1.3])
    start = (t0, np.array([100.0]), x0, y0)
    n_jumps = 0
    for pid in range(50):
        rr, rg = _spawn_rngs(8, pid)
        path = simulate_path(m, models, start, 1.5, rr, rg, mode="physical")
        rr, _ = _spawn_rngs(8, pid)
        reg = simulate_csm(models, CsmState(x0, y0), 1.5, rr, start=t0)
        for name in ("jump_times", "jump_component", "jump_from", "jump_to",
                     "states", "ages_before", "ages_after", "final_ages"):
            np.testing.assert_array_equal(getattr(path, name),
                                          getattr(reg, name), err_msg=name)
        assert path.start_time == reg.start_time == t0
        n_jumps += path.n_jumps
    assert n_jumps > 50


def test_eval_point_at_maturity():
    m = flat_market()
    models = models_const(2.5, 2.0)
    claim = Claim("basket-call", weights=[1.0], strike=95.0)
    s0 = np.array([100.0])
    start = (1.0, s0, (1, 2), np.array([0.3, 0.0]))
    path = simulate_risk_neutral(m, models, start, 1.0, seed=2)
    assert path.n_jumps == 0
    np.testing.assert_array_equal(path.s_terminal, s0)
    assert path.discount == 1.0
    np.testing.assert_allclose(path.final_ages, [0.3, 0.0], rtol=0, atol=1e-15)
    est, se = mc_price(m, claim, models, start, 1.0, n_paths=200, seed=6)
    assert est == float(claim(s0)) == 5.0
    assert se == 0.0


def test_dump_paths_format():
    m = flat_market()
    models = models_const(1.5, 1.5)
    paths = [simulate_risk_neutral(m, models, START, 1.0, seed=1, path_id=i)
             for i in range(3)]
    buf = io.StringIO()
    dump_paths(paths, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "path,t,component,from_state,to_state,s1"
    total = sum(p.n_jumps for p in paths)
    assert len(lines) == 1 + total


def _simpson_a_integral(self, t0, t1, x):
    # Simpson's rule per piece between the knots of sigma: exact for the
    # quadratic a = sigma sigma^T on each piece
    if t1 <= t0:
        return np.zeros((self.n, self.n))
    cuts = [t0] + [k for k in self._sigma[tuple(x)].knots if t0 < k < t1] + [t1]
    return sum((b - a) / 6.0 * (self.a(a, x) + 4.0 * self.a(0.5 * (a + b), x)
                                + self.a(b, x))
               for a, b in zip(cuts[:-1], cuts[1:]))


def _trapezoid_mu_integral(self, t0, t1, x):
    # the trapezoid rule per piece between the knots of mu: exact for linear mu
    if t1 <= t0:
        return np.zeros(self.n)
    cuts = [t0] + [k for k in self._mu[tuple(x)].knots if t0 < k < t1] + [t1]
    return sum(0.5 * (b - a) * (self.mu(a, x) + self.mu(b, x))
               for a, b in zip(cuts[:-1], cuts[1:]))


@pytest.mark.parametrize("mode", ["risk-neutral", "physical"])
@pytest.mark.parametrize("t0,y0", [(0.0, [0.0, 0.0]), (0.37, [0.2, 0.37])])
def test_paths_match_pointwise_quadrature_of_the_coefficients(
        monkeypatch, mode, t0, y0):
    # the piece tables change no switch history and move prices and
    # discounts by rounding only: 200 demo paths against per-piece
    # Simpson/trapezoid integrals of the pointwise coefficients
    path = Path(__file__).resolve().parents[1] / "configs" / "two_state_call.json"
    scn = parse_scenario(json.loads(path.read_text()))
    start = (t0, np.array([100.0]), (1, 2), np.array(y0))

    def records():
        out = []
        for pid in range(200):
            rr, rg = _spawn_rngs(17, pid)
            out.append(simulate_path(scn.market, scn.models, start, 1.0,
                                     rr, rg, mode=mode))
        return out

    table = records()
    monkeypatch.setattr(MarketModel, "a_integral", _simpson_a_integral)
    monkeypatch.setattr(MarketModel, "mu_integral", _trapezoid_mu_integral)
    oracle = records()
    for got, want in zip(table, oracle):
        for name in ("jump_times", "jump_component", "jump_from", "jump_to",
                     "states", "ages_before", "ages_after", "final_ages"):
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(want, name), err_msg=name)
        for name in ("s_terminal", "s_at_jumps", "discount",
                     "discount_at_jumps"):
            np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                       rtol=1e-12, atol=0, err_msg=name)
    assert sum(p.n_jumps for p in table) > 100
