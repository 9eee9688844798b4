import json

import numpy as np
import pytest

from regimehedge.analysis import residual_risk, sensitivity_check
from regimehedge.market import Claim, build_market
from regimehedge.semi_markov import ConstantRate, HazardModel, WeibullRate
from regimehedge.volterra_pricer import Grid, GridSpec, SolverSettings, solve_price_field


def two_state_setup(price_nodes=61, time_steps=16, age_nodes=5):
    def rate(x):
        return 0.02 if x[0] == 1 else 0.05

    def vol(x):
        return (0.2 if x[1] == 1 else 0.3) * np.eye(1)

    m = build_market(1, 2, 2, rate, np.array([0.07]), vol)
    claim = Claim("basket-call", weights=[1.0], strike=100.0)
    models = [
        HazardModel(2, {(1, 2): ConstantRate(0.5), (2, 1): ConstantRate(0.7)}),
        HazardModel(2, {(1, 2): WeibullRate(0.6, 2.0), (2, 1): ConstantRate(0.4)}),
    ]
    grid = Grid(m, 1.0, np.array([[100.0]]),
                GridSpec(time_steps=time_steps, price_nodes=price_nodes,
                         age_nodes=age_nodes))
    return m, claim, models, grid


START = (0.0, np.array([100.0]), (1, 1), np.array([0.0, 0.0]))


def _pair(m, claim, models, tilde, grid, tol, settings=None):
    """The solved (field, report) of models and of tilde, marched
    together: each is that of its own solve bit for bit."""
    field, report, perturbed = solve_price_field(
        m, claim, models, grid, tol, settings=settings, also=[tilde])
    return (field, report), perturbed


def test_identical_hazards_give_zero_diff():
    m, claim, models, grid = two_state_setup(price_nodes=41, time_steps=8,
                                             age_nodes=4)
    rep = sensitivity_check(*_pair(m, claim, models, models, grid, 1e-4))
    assert rep.lambda_sup_diff == 0.0
    assert rep.phi_sup_diff == 0.0
    assert rep.bound_summed == 0.0
    assert rep.satisfied
    # 0 / 0 has no ratio, and the report stays strict JSON
    assert rep.ratio is None
    json.dumps(rep.to_dict(), allow_nan=False)


def test_linear_claim_insensitive_to_hazards():
    m, _, models, grid = two_state_setup(price_nodes=41, time_steps=8,
                                         age_nodes=4)
    claim = Claim("linear", weights=[1.0])
    tilde = [h.scaled(1.5) for h in models]
    settings = SolverSettings(gh_nodes=32)
    rep = sensitivity_check(*_pair(m, claim, models, tilde, grid, 1e-6,
                                   settings))
    assert rep.phi_sup_diff < 1e-5


def test_perturbation_bound_holds():
    m, claim, models, grid = two_state_setup()
    tilde = [h.scaled(1.1) for h in models]
    rep = sensitivity_check(*_pair(m, claim, models, tilde, grid, 1e-4))
    assert rep.satisfied
    assert rep.phi_sup_diff > 0.0
    assert rep.phi_sup_diff <= rep.bound_summed
    assert rep.bound_plain <= rep.bound_summed
    # the observed change is far inside the Lipschitz bound
    assert rep.ratio < 0.5


def test_sup_diff_uses_age_grid():
    m, claim, models, grid = two_state_setup(price_nodes=41, time_steps=8)
    tilde = [models[0].scaled(1.2), models[1]]
    rep = sensitivity_check(*_pair(m, claim, models, tilde, grid, 1e-3))
    # constant 0.7 scaled by 1.2 gives the largest gap: 0.14
    assert rep.lambda_sup_diff == pytest.approx(0.14, abs=1e-12)


def test_each_perturbed_field_is_checked_against_its_own_hazards():
    # two scaled hazard sets marched with the base: each report's hazard
    # gap is the one between the base's models and its own field's solver's
    m, claim, models, grid = two_state_setup(price_nodes=41, time_steps=8,
                                             age_nodes=4)
    scales = (1.1, 1.5)
    field, report, *others = solve_price_field(
        m, claim, models, grid, 1e-3,
        also=[[h.scaled(scale) for h in models] for scale in scales])
    ygrid = np.linspace(0.0, grid.horizon, 1001)
    gaps = []
    for perturbed in others:
        own = perturbed[0].solver.models
        gap = max(float(np.max(np.abs(h.rate(i, j, ygrid)
                                      - ht.rate(i, j, ygrid))))
                  for h, ht in zip(models, own) for (i, j) in h.rates)
        rep = sensitivity_check((field, report), perturbed)
        assert rep.lambda_sup_diff == gap
        gaps.append(gap)
    # the scalings add 0.1 and 0.5 of every rate: five times the gap
    assert gaps[1] == pytest.approx(5.0 * gaps[0], rel=1e-12)


def test_residual_risk_zero_for_regime_independent():
    m = build_market(1, 2, 2, 0.04, np.array([0.08]), 0.25 * np.eye(1))
    claim = Claim("basket-call", weights=[1.0], strike=100.0)
    h = HazardModel(2, {(1, 2): ConstantRate(0.4), (2, 1): ConstantRate(0.5)})
    grid = Grid(m, 1.0, np.array([[100.0]]),
                GridSpec(time_steps=12, price_nodes=61, age_nodes=4))
    field, _ = solve_price_field(m, claim, [h, h], grid, tol=5e-4)
    rep = residual_risk(field, START, n_paths=2000, seed=17)
    # floor covers the solver's cross-regime quadrature spread, squared;
    # 1e-8 c2^2 is ~1e-10 relative on this claim scale
    assert rep.r0 <= 3 * rep.se + 1e-8 * claim.c2 ** 2


def test_residual_risk_vanishes_with_hazards():
    m, claim, models, grid = two_state_setup()
    tiny = [h.scaled(1e-6) for h in models]
    field, _ = solve_price_field(m, claim, tiny, grid, tol=5e-4)
    rep = residual_risk(field, START, n_paths=2000, seed=23)
    assert rep.mean_jumps < 0.01
    assert rep.r0 < 1e-6


def test_residual_risk_positive_and_seed_stable():
    m, claim, models, grid = two_state_setup()
    field, _ = solve_price_field(m, claim, models, grid, tol=2e-4)
    rep1 = residual_risk(field, START, n_paths=4000, seed=5)
    rep2 = residual_risk(field, START, n_paths=4000, seed=6)
    assert rep1.r0 > 0.0
    assert abs(rep1.r0 - rep2.r0) < 3 * (rep1.se + rep2.se)
    # same seed reproduces exactly
    rep1b = residual_risk(field, START, n_paths=4000, seed=5)
    assert rep1b.r0 == rep1.r0


def test_residual_risk_variance_halves_with_paths():
    m, claim, models, grid = two_state_setup(price_nodes=41, time_steps=8)
    field, _ = solve_price_field(m, claim, models, grid, tol=5e-4)
    rep_a = residual_risk(field, START, n_paths=2000, seed=9)
    rep_b = residual_risk(field, START, n_paths=8000, seed=9)
    assert rep_b.se < rep_a.se / 1.5


def test_payoff_shift_invariance_for_constant_rate():
    # with a regime-independent short rate, adding a constant to the payoff
    # shifts the field by an (x, y)-independent amount: price jumps and thus
    # the residual risk are unchanged path by path
    def vol(x):
        return (0.2 if x[1] == 1 else 0.3) * np.eye(1)

    m = build_market(1, 2, 2, 0.03, np.array([0.07]), vol)
    models = [
        HazardModel(2, {(1, 2): ConstantRate(0.5), (2, 1): ConstantRate(0.7)}),
        HazardModel(2, {(1, 2): ConstantRate(0.6), (2, 1): ConstantRate(0.4)}),
    ]
    base = Claim("basket-call", weights=[1.0], strike=100.0)
    shifted = Claim("custom-piecewise-linear", weights=[1.0],
                    knots=[0.0, 100.0], values=[7.0, 7.0], final_slope=1.0)
    grid = Grid(m, 1.0, np.array([[100.0]]),
                GridSpec(time_steps=12, price_nodes=61, age_nodes=5))
    f1, _ = solve_price_field(m, base, models, grid, tol=1e-4)
    f2, _ = solve_price_field(m, shifted, models, grid, tol=1e-4)
    r1 = residual_risk(f1, START, n_paths=1500, seed=3)
    r2 = residual_risk(f2, START, n_paths=1500, seed=3)
    assert r1.r0 == pytest.approx(r2.r0, rel=2e-2, abs=1e-4)


@pytest.mark.parametrize("n_paths", [0, 1])
def test_residual_risk_rejects_too_few_paths(n_paths):
    # one path has no standard error and zero paths no estimate at all
    m, claim, models, grid = two_state_setup(price_nodes=21, time_steps=4,
                                             age_nodes=3)
    field, _ = solve_price_field(m, claim, models, grid, tol=1e-3)
    with pytest.raises(ValueError, match="n_paths must be at least 100"):
        residual_risk(field, START, n_paths=n_paths, seed=1)
