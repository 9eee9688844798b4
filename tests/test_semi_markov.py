import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from regimehedge.errors import ConfigError, TruncationFailure
from regimehedge.mc_oracle import _stream_keys
from regimehedge.semi_markov import (
    AffineRate,
    ConstantRate,
    CsmState,
    HazardModel,
    TabulatedRate,
    WeibullRate,
    next_jump_component_prob,
    next_jump_time_law,
    simulate_csm,
)

SUM_TOL = 1e-8


def path_keys(seed, n):
    """Philox keys of the regime streams of the first n paths of a Monte
    Carlo run with this seed."""
    return _stream_keys(seed, np.arange(n), 0)


def two_state(rate12, rate21=None):
    return HazardModel(2, {(1, 2): rate12, (2, 1): rate21 or rate12})


def test_cumulative_hazard_constant():
    h = two_state(ConstantRate(0.5))
    assert h.cumulative_hazard(1, 2.0) == pytest.approx(1.0)
    assert h.cumulative_hazard(1, 0.0) == 0.0


def test_cumulative_hazard_weibull_vs_quadrature():
    h = two_state(WeibullRate(2.0, 2.0))
    # oracle: numerical quadrature of the rate 2*v over [0, 3]
    oracle, _ = integrate.quad(lambda v: 2.0 * v, 0.0, 3.0)
    assert h.cumulative_hazard(1, 3.0) == pytest.approx(oracle, abs=1e-12)
    assert oracle == pytest.approx(9.0)


def test_cumulative_hazard_tabulated_vs_quadrature():
    knots = [0.0, 0.5, 1.0, 2.0]
    vals = [0.3, 0.8, 0.5, 0.9]
    h = two_state(TabulatedRate(knots, vals))
    fam = h.rates[(1, 2)]
    oracle, _ = integrate.quad(lambda v: float(fam.rate(np.asarray(v))), 0.0, 1.7,
                               points=[0.5, 1.0], epsabs=1e-12)
    assert h.cumulative_hazard(1, 1.7) == pytest.approx(oracle, abs=1e-10)
    # constant extrapolation beyond the last knot
    beyond = h.cumulative_hazard(1, 3.0) - h.cumulative_hazard(1, 2.0)
    assert beyond == pytest.approx(0.9, abs=1e-12)


def holding_cdf(h, i, y):
    """CDF of the holding time in state i from age 0."""
    return 1.0 - np.exp(-h.cumulative_hazard(i, y))


def holding_pdf(h, i, y):
    """Density of the holding time in state i from age 0."""
    return h.exit_rate(i, y) * np.exp(-h.cumulative_hazard(i, y))


def test_holding_cdf_constant_exponential():
    h = two_state(ConstantRate(0.5))
    assert holding_cdf(h, 1, 2.0) == pytest.approx(1.0 - math.exp(-1.0))
    assert holding_cdf(h, 1, 0.0) == 0.0
    assert holding_pdf(h, 1, 0.0) == pytest.approx(0.5)


def test_holding_law_weibull():
    h = two_state(WeibullRate(2.0, 2.0))
    assert holding_cdf(h, 1, 1.0) == pytest.approx(1.0 - math.exp(-1.0))
    assert holding_pdf(h, 1, 1.0) == pytest.approx(2.0 * math.exp(-1.0))


def residual_holding_cdf(h, i, y, s):
    """CDF of the remaining holding time given current age y."""
    return 1.0 - math.exp(h.residual_log_survival(i, y, s))


def test_residual_holding_memoryless_iff_constant():
    h = two_state(ConstantRate(0.7))
    vals = [residual_holding_cdf(h, 1, y, 0.9) for y in (0.0, 0.4, 2.5)]
    assert max(vals) - min(vals) < 1e-14

    hw = two_state(WeibullRate(2.0, 2.0))
    assert residual_holding_cdf(hw, 1, 1.0, 1.0) == pytest.approx(1.0 - math.exp(-3.0))
    assert abs(residual_holding_cdf(hw, 1, 0.0, 1.0)
               - residual_holding_cdf(hw, 1, 1.0, 1.0)) > 1e-3


def test_memoryless_flags_rows_constant_in_age():
    flat = [ConstantRate(0.7), AffineRate(0.4, 0.0), WeibullRate(0.9, 1.0)]
    for fam in flat:
        assert two_state(fam).memoryless(1)
    aging = [AffineRate(0.4, 0.1), WeibullRate(0.9, 1.5),
             TabulatedRate([0.0, 1.0], [0.5, 0.8]),
             # equal knot values are still not classified as constant
             TabulatedRate([0.0, 1.0], [0.5, 0.5])]
    for fam in aging:
        h = two_state(fam, ConstantRate(0.6))
        assert not h.memoryless(1)
        assert h.memoryless(2)
    # a row mixing the constant families is memoryless; one aging exit
    # rate makes its row age-dependent and leaves the other rows alone
    mixed = HazardModel(3, {(1, 2): ConstantRate(0.3),
                            (1, 3): AffineRate(0.2, 0.0),
                            (2, 1): WeibullRate(0.5, 1.0),
                            (2, 3): WeibullRate(0.5, 2.0),
                            (3, 1): TabulatedRate([0.0, 2.0], [0.4, 0.4])})
    assert [mixed.memoryless(i) for i in (1, 2, 3)] == [True, False, False]
    for factor in (0.5, 3.0):
        scaled = mixed.scaled(factor)
        assert [scaled.memoryless(i) for i in (1, 2, 3)] \
            == [True, False, False]
        assert two_state(WeibullRate(0.9, 1.0)).scaled(factor).memoryless(1)


def test_residual_holding_zero_increment():
    h = two_state(AffineRate(0.2, 0.3))
    assert residual_holding_cdf(h, 1, 1.3, 0.0) == 0.0


def test_transition_probs_two_state():
    h = two_state(ConstantRate(0.5))
    np.testing.assert_allclose(h.transition_probs(1, 1.0), [0.0, 1.0])


def test_transition_probs_three_state_symmetry_and_ratio():
    h = HazardModel(3, {
        (1, 2): ConstantRate(1.0), (1, 3): ConstantRate(1.0),
        (2, 1): ConstantRate(1.0), (3, 1): ConstantRate(1.0),
    })
    np.testing.assert_allclose(h.transition_probs(1, 0.3), [0.0, 0.5, 0.5])

    h2 = HazardModel(3, {
        (1, 2): ConstantRate(1.0), (1, 3): AffineRate(0.0, 1.0),
        (2, 1): ConstantRate(1.0), (3, 1): ConstantRate(1.0),
    })
    np.testing.assert_allclose(h2.transition_probs(1, 1.0), [0.0, 0.5, 0.5])


def test_transition_probs_sum_to_one_exactly():
    rng = np.random.default_rng(7)
    h = HazardModel(3, {
        (1, 2): WeibullRate(0.5, 2.0), (1, 3): AffineRate(0.1, 0.4),
        (2, 3): ConstantRate(0.8), (3, 1): ConstantRate(0.2),
    })
    for y in rng.uniform(0.0, 3.0, size=10):
        for i in (1, 2, 3):
            p = h.transition_probs(i, float(y))
            assert p.sum() == pytest.approx(1.0, abs=1e-15)
            assert p[i - 1] == 0.0


def test_hazard_model_validation():
    with pytest.raises(ConfigError):
        ConstantRate(-0.5)
    with pytest.raises(ConfigError):
        AffineRate(0.0, 0.0)
    with pytest.raises(ConfigError):
        TabulatedRate([0.0, 1.0], [0.5, -0.1])
    with pytest.raises(ConfigError):
        # state 2 unreachable back to 1 -> reducible
        HazardModel(2, {(1, 2): ConstantRate(0.5)})


def test_next_jump_component_prob_competing_exponentials():
    m0 = two_state(ConstantRate(1.0))
    m1 = two_state(ConstantRate(2.0))
    state = CsmState((1, 1), (0.3, 1.1))
    p = next_jump_component_prob([m0, m1], state)
    # closed-form competing exponentials: c_l / sum(c)
    np.testing.assert_allclose(p, [1.0 / 3.0, 2.0 / 3.0], atol=SUM_TOL)
    assert abs(p.sum() - 1.0) < SUM_TOL


def test_next_jump_component_prob_symmetry_and_single():
    m = two_state(WeibullRate(1.5, 2.0))
    state = CsmState((1, 1, 1), (0.7, 0.7, 0.7))
    p = next_jump_component_prob([m, m, m], state)
    np.testing.assert_allclose(p, np.full(3, 1.0 / 3.0), atol=SUM_TOL)

    p1 = next_jump_component_prob([m], CsmState((1,), (0.2,)))
    assert p1[0] == pytest.approx(1.0, abs=SUM_TOL)


def test_next_jump_component_prob_sums_to_one_randomized():
    rng = np.random.default_rng(1234)
    fams = [
        lambda r: ConstantRate(0.2 + r.uniform(0, 2)),
        lambda r: AffineRate(r.uniform(0.05, 1.0), r.uniform(0, 1.0)),
        lambda r: WeibullRate(0.2 + r.uniform(0, 2), 1.0 + r.uniform(0, 2)),
        lambda r: TabulatedRate(
            np.concatenate([[0.0], np.cumsum(r.uniform(0.2, 1.0, 3))]),
            r.uniform(0.2, 2.0, 4)),
    ]
    for _ in range(10):
        models = []
        for _m in range(rng.integers(1, 4)):
            mk = fams[rng.integers(0, len(fams))]
            models.append(two_state(mk(rng), mk(rng)))
        x = tuple(int(rng.integers(1, 3)) for _ in models)
        y = tuple(float(rng.uniform(0, 1.5)) for _ in models)
        p = next_jump_component_prob(models, CsmState(x, y))
        assert abs(p.sum() - 1.0) < SUM_TOL


def test_next_jump_time_law_single_component():
    m = two_state(ConstantRate(0.8))
    law = next_jump_time_law([m], CsmState((1,), (2.0,)), 0)
    for v in (0.3, 1.0, 2.5):
        assert law.cdf(v) == pytest.approx(1.0 - math.exp(-0.8 * v), abs=1e-9)
    assert law.cdf(0.0) == 0.0
    assert law.cdf(1e9) == pytest.approx(1.0, abs=1e-9)


def test_next_jump_time_law_competing_minimum():
    m0 = two_state(ConstantRate(1.0))
    m1 = two_state(ConstantRate(2.0))
    law = next_jump_time_law([m0, m1], CsmState((1, 1), (0.0, 0.0)), 0)
    # min of exponentials is independent of which one wins
    assert law.cdf(1.0) == pytest.approx(1.0 - math.exp(-3.0), abs=1e-9)


def test_next_jump_time_law_pdf_normalization_and_identity():
    rng = np.random.default_rng(77)
    for _ in range(5):
        models = [
            two_state(WeibullRate(0.5 + rng.uniform(0, 1), 1.0 + rng.uniform(0, 1.5)),
                      AffineRate(rng.uniform(0.1, 0.6), rng.uniform(0, 0.5))),
            two_state(ConstantRate(rng.uniform(0.3, 1.5))),
        ]
        state = CsmState((int(rng.integers(1, 3)), int(rng.integers(1, 3))),
                         (float(rng.uniform(0, 1)), float(rng.uniform(0, 1))))
        probs = next_jump_component_prob(models, state)
        for l in range(2):
            law = next_jump_time_law(models, state, l)
            total, _ = integrate.quad(law.pdf, 0.0, law._s_max, limit=200)
            assert total == pytest.approx(1.0, abs=SUM_TOL)
            # density at zero times the component probability equals the
            # component's own hazard rate at its current age
            lhs = law.pdf(0.0) * probs[l]
            rhs = float(models[l].exit_rate(state.x[l], np.asarray(state.y[l])))
            assert lhs == pytest.approx(rhs, abs=SUM_TOL * max(1.0, rhs))


def test_truncation_failure_on_vanishing_tail():
    # High early rate sets a short holding-time scale, then the rate
    # collapses to ~1e-12: the survival plateaus far above the threshold
    # and the projected depth blows past the cap.
    bad = TabulatedRate([0.0, 1.0], [4.0, 1e-12])
    m = two_state(bad)
    with pytest.raises(TruncationFailure):
        next_jump_component_prob([m], CsmState((1,), (0.0,)))


def test_decaying_tail_is_still_priced():
    # a few-fold decay beyond the knots is a healthy model, not a collapse
    fam = TabulatedRate([0.0, 1.0, 2.0], [1.8, 0.8, 0.3])
    m = two_state(fam)
    p = next_jump_component_prob([m, two_state(ConstantRate(0.5))],
                                 CsmState((1, 1), (0.2, 0.4)))
    assert abs(p.sum() - 1.0) < SUM_TOL


def test_simulate_mean_holding_time():
    c = 0.8
    m = two_state(ConstantRate(c))
    n = 20000
    # first holding time from age 0, state 1
    path = simulate_csm([m], CsmState((1,), (0.0,)), 200.0, path_keys(2024, n),
                        max_jumps=1)
    assert np.all(path.n_jumps == 1)
    holds = path.jump_times
    se = holds.std(ddof=1) / math.sqrt(n)
    assert abs(holds.mean() - 1.0 / c) < 3 * se


def test_simulate_component_frequencies_match_quadrature():
    m0 = two_state(ConstantRate(0.9), WeibullRate(1.0, 2.0))
    m1 = two_state(AffineRate(0.4, 0.6), ConstantRate(1.2))
    state = CsmState((1, 2), (0.3, 0.6))
    p = next_jump_component_prob([m0, m1], state)
    n = 20000
    path = simulate_csm([m0, m1], state, 500.0, path_keys(99, n), max_jumps=1)
    assert np.all(path.n_jumps == 1)
    freq = np.bincount(path.jump_component, minlength=2) / n
    se = np.sqrt(p * (1 - p) / n)
    assert np.all(np.abs(freq - p) < 3 * se + 1e-12)


def test_simulate_holding_times_ks_against_cdf():
    m = two_state(WeibullRate(1.3, 2.2), ConstantRate(0.7))
    n = 10000
    path = simulate_csm([m], CsmState((1,), (0.0,)), 500.0, path_keys(5150, n),
                        max_jumps=1)
    assert np.all(path.n_jumps == 1)
    res = stats.kstest(path.jump_times,
                       lambda v: holding_cdf(m, 1, np.asarray(v)))
    assert res.pvalue > 0.01


def test_simulate_reproducible_and_short_horizon():
    m = two_state(ConstantRate(0.5))
    state = CsmState((1, 1), (0.0, 0.2))
    p1 = simulate_csm([m, m], state, 3.0, path_keys(11, 4))
    p2 = simulate_csm([m, m], state, 3.0, path_keys(11, 4))
    for name in ("n_jumps", "jump_times", "states_after", "ages_before"):
        np.testing.assert_array_equal(getattr(p1, name), getattr(p2, name))

    # vanishing horizon: no jumps with overwhelming probability
    none = simulate_csm([m, m], state, 1e-9, path_keys(12, 4))
    assert none.n_jumps.sum() == 0 and none.jump_times.shape == (0,)


def test_simulate_age_resets_and_monotone_times():
    m = HazardModel(3, {
        (1, 2): ConstantRate(1.0), (2, 3): ConstantRate(1.5),
        (3, 1): WeibullRate(0.8, 1.5),
    })
    path = simulate_csm([m, m], CsmState((1, 2), (0.0, 0.0)), 50.0,
                        path_keys(3, 1))
    assert path.n_jumps[0] > 5
    assert np.all(np.diff(path.jump_times) > 0)
    # exactly one component changes per jump, and its age resets
    states = np.vstack([[1, 2], path.states_after])
    for step in range(path.n_jumps[0]):
        changed = np.flatnonzero(states[step] != states[step + 1])
        assert changed.tolist() == [path.jump_component[step]]
        assert path.ages_after[step][changed[0]] == 0.0


def test_invert_clock_when_every_exit_rate_vanishes_at_the_age():
    # mixed Weibull shapes have no closed-form inverse, and every exit rate
    # is zero at age 0, so the first-order guess e / rate says nothing
    m = HazardModel(3, {(1, 2): WeibullRate(1.0, 2.0), (1, 3): WeibullRate(1.0, 3.0),
                        (2, 1): ConstantRate(1.0), (3, 1): ConstantRate(1.0)})
    for y in (0.0, 1e-38, 1e-300):
        for e in (1e-9, 0.7, 30.0):
            tau = m.invert_clock(1, y, e)
            gained = m.cumulative_hazard(1, y + tau) - m.cumulative_hazard(1, y)
            assert gained == pytest.approx(e, rel=1e-9, abs=1e-12)


def test_draw_destination_at_the_ends_of_the_unit_interval():
    # the draw is the first state whose cumulative probability exceeds u:
    # u = 0 must not pick the zero-probability self-transition, and a u above
    # a cumulative sum that rounds below 1 must stay inside the row
    m = HazardModel(4, {(1, 2): ConstantRate(1.543538379590801),
                        (1, 3): ConstantRate(1.8348817222179434),
                        (1, 4): ConstantRate(0.29843586764536734),
                        (2, 1): ConstantRate(1.0), (3, 1): ConstantRate(1.0),
                        (4, 1): ConstantRate(1.0)})
    assert np.cumsum(m.transition_probs(1, 0.0))[-1] < 1.0
    assert m.draw_destination(1, 0.0, 0.0) == 2
    assert m.draw_destination(1, 0.0, np.nextafter(1.0, 0.0)) == 4


@st.composite
def _hazard_rate(draw):
    family = draw(st.sampled_from(["constant", "affine", "weibull",
                                   "tabulated"]))
    level = st.floats(0.1, 2.5)
    if family == "constant":
        return ConstantRate(draw(level))
    if family == "affine":
        return AffineRate(draw(level), draw(st.floats(0.0, 2.0)))
    if family == "weibull":
        return WeibullRate(draw(level), draw(st.floats(1.0, 3.0)))
    return TabulatedRate([0.0, 0.6, 1.5],
                         draw(st.lists(level, min_size=3, max_size=3)))


@st.composite
def _csm_case(draw):
    models, x0 = [], []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(2, 3))
        models.append(HazardModel(k, {(i, j): draw(_hazard_rate())
                                      for i in range(1, k + 1)
                                      for j in range(1, k + 1) if i != j}))
        x0.append(draw(st.integers(1, k)))
    y0 = tuple(draw(st.floats(0.0, 2.0)) for _ in models)
    start = draw(st.floats(0.0, 2.0))
    horizon = start + draw(st.floats(0.0, 2.5))
    return models, CsmState(tuple(x0), y0), start, horizon


@settings(derandomize=True, database=None, deadline=None)
@given(case=_csm_case(), seed=st.integers(0, 2 ** 32 - 1))
def test_simulate_csm_path_properties(case, seed):
    models, state, start, horizon = case
    if horizon <= 0:
        return
    path = simulate_csm(models, state, horizon, path_keys(seed, 3),
                        start=start)
    assert path.jump_path.tolist() == sorted(path.jump_path.tolist())
    np.testing.assert_array_equal(np.bincount(path.jump_path, minlength=3),
                                  path.n_jumps)
    for p in range(3):
        sel = path.jump_path == p
        t = path.jump_times[sel]
        assert np.all(np.diff(t) > 0)
        assert np.all((t > start) & (t <= horizon))
        x = np.asarray(state.x)
        ages = np.asarray(state.y, dtype=float)
        prev = start
        for k, l in enumerate(path.jump_component[sel]):
            after_x = path.states_after[sel][k]
            changed = np.flatnonzero(x != after_x)
            assert changed.tolist() == [l]
            assert after_x[l] in models[l]._rows[x[l]]
            np.testing.assert_allclose(path.ages_before[sel][k],
                                       ages + (t[k] - prev), rtol=0,
                                       atol=1e-12)
            assert path.ages_after[sel][k][l] == 0.0
            others = np.arange(len(models)) != l
            np.testing.assert_array_equal(path.ages_after[sel][k][others],
                                          path.ages_before[sel][k][others])
            x, ages, prev = after_x, path.ages_after[sel][k], t[k]
