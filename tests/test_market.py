import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from regimehedge.errors import ConfigError, DimensionTooLarge, SingularCovariance
from regimehedge.market import (
    Claim,
    TimeCoeff,
    build_kernel,
    build_market,
    claim_nodes,
    kernel_density,
    kernel_expectation,
    kernel_nodes,
)


def flat_market(n=1, r=0.05, mu=0.08, sigma=0.2, k=2, n_components=2):
    mu_v = np.full(n, mu)
    sig_m = sigma * np.eye(n)
    return build_market(n, k, n_components, r, mu_v, sig_m)


def tv_market_1d(r=0.03):
    # sigma(t) linear from 0.2 to 0.4 on [0, 1]
    vol = TimeCoeff([0.0, 1.0], np.array([[[0.2]], [[0.4]]]))
    return build_market(1, 2, 2, r, np.array([0.07]), lambda x: vol)


X0 = (1, 1)


def test_kernel_constant_sigma_closed_form():
    m = flat_market(sigma=0.25, r=0.04)
    kern = build_kernel(m, 0.3, X0, 0.5, mode="risk-neutral")
    a = 0.25 ** 2
    assert kern.cov[0, 0] == pytest.approx(a * 0.5, abs=1e-14)
    assert kern.zbar[0] == pytest.approx((0.04 - 0.5 * a) * 0.5, abs=1e-14)


def test_kernel_time_varying_sigma_vs_quadrature():
    m = tv_market_1d()
    kern = build_kernel(m, 0.0, X0, 1.0)
    oracle, _ = integrate.quad(lambda u: (0.2 + 0.2 * u) ** 2, 0.0, 1.0)
    assert kern.cov[0, 0] == pytest.approx(oracle, abs=1e-12)

    # window not aligned with knots
    kern2 = build_kernel(m, 0.25, X0, 0.37)
    oracle2, _ = integrate.quad(lambda u: (0.2 + 0.2 * u) ** 2, 0.25, 0.62)
    assert kern2.cov[0, 0] == pytest.approx(oracle2, abs=1e-12)


def test_kernel_physical_drift_uses_mu_integral():
    m = tv_market_1d()
    kern = build_kernel(m, 0.0, X0, 1.0, mode="physical")
    var = kern.cov[0, 0]
    assert kern.zbar[0] == pytest.approx(0.07 - 0.5 * var, abs=1e-12)


def test_kernel_density_normalizes_scipy_oracle():
    m = flat_market(sigma=0.3, r=0.02)
    kern = build_kernel(m, 0.0, X0, 0.7)
    total, _ = integrate.quad(lambda v: kernel_density(kern, np.array([100.0]),
                                                       np.array([v])),
                              1e-3, 1e4, limit=400)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_kernel_risk_neutral_mean():
    # mean of the pricing-measure lognormal is exp(r v)
    m = flat_market(sigma=0.3, r=0.06)
    s0 = 80.0
    kern = build_kernel(m, 0.1, X0, 0.9)
    mean = kernel_expectation(kern, np.array([s0]), lambda sig: sig[:, 0])
    assert mean == pytest.approx(s0 * math.exp(0.06 * 0.9), rel=1e-8)


def test_kernel_martingale_after_discounting():
    m = flat_market(sigma=0.22, r=0.07)
    s0 = 123.0
    kern = build_kernel(m, 0.0, X0, 1.3)
    val = kernel_expectation(kern, np.array([s0]), lambda sig: sig[:, 0]) \
        * math.exp(-0.07 * 1.3)
    assert val == pytest.approx(s0, rel=1e-8)


def test_kernel_moments_match_conditional_formulas():
    # randomized models with time-varying sigma; first and second moments of
    # the inter-jump ratio match the conditional mean/covariance formulas
    rng = np.random.default_rng(42)
    for _ in range(5):
        n = 2
        r = float(rng.uniform(0.0, 0.08))
        mu = rng.uniform(-0.05, 0.12, size=n)
        s0 = rng.uniform(50.0, 150.0, size=n)
        v = float(rng.uniform(0.2, 1.0))
        base = rng.uniform(0.15, 0.3, size=(n, n)) * (np.eye(n) * 0.8 + 0.2)
        end = base * rng.uniform(0.7, 1.4)
        vol = TimeCoeff([0.0, 1.5], np.stack([base, end]))
        m = build_market(n, 2, 3, r, mu, lambda x: vol)
        x = (1, 2, 1)
        kern = build_kernel(m, 0.1, x, v, mode="physical")

        mu_int = m.mu_integral(0.1, 0.1 + v, x)
        a_int = m.a_integral(0.1, 0.1 + v, x)
        for l in range(n):
            got = kernel_expectation(kern, s0, lambda sig, l=l: sig[:, l] / s0[l])
            assert got == pytest.approx(math.exp(mu_int[l]), rel=1e-6)
        for l in range(n):
            for lp in range(n):
                got = kernel_expectation(
                    kern, s0, lambda sig, l=l, lp=lp:
                    (sig[:, l] / s0[l]) * (sig[:, lp] / s0[lp]))
                got_cov = got - math.exp(mu_int[l]) * math.exp(mu_int[lp])
                want = math.exp(mu_int[l] + mu_int[lp]) * math.expm1(a_int[l, lp])
                assert got_cov == pytest.approx(want, rel=2e-6, abs=1e-10)


def _quad_integral(f, t0, t1, knots, shape):
    """Elementwise scipy quad of f over [t0, t1], split at the inner knots."""
    inner = [k for k in knots if t0 < k < t1] or None
    out = np.empty(shape)
    for idx in np.ndindex(*shape):
        out[idx], _ = integrate.quad(lambda u: f(u)[idx], t0, t1, points=inner,
                                     epsabs=1e-15 * (t1 - t0), epsrel=1e-12,
                                     limit=200)
    return out


@pytest.mark.parametrize("seed", range(6))
def test_time_integrals_match_quad_on_random_piecewise_linear(seed):
    # mu and sigma piecewise linear with 1-4 knots: the piece tables must
    # agree with an adaptive quadrature of the pointwise coefficients
    rng = np.random.default_rng(seed)
    n, n_knots = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    knots = np.cumsum(rng.uniform(0.1, 0.5, n_knots))
    vol = TimeCoeff(knots, rng.uniform(-0.08, 0.08, (n_knots, n, n))
                    + rng.uniform(0.15, 0.35, (n_knots, 1, 1)) * np.eye(n))
    drift = TimeCoeff(knots, rng.uniform(-0.1, 0.2, (n_knots, n)))
    m = build_market(n, 2, 2, 0.03, lambda x: drift, lambda x: vol)
    lo, hi = float(knots[0]), float(knots[-1])
    segments = [(lo - 0.4, lo - 0.1),                 # before the first knot
                (lo - 0.05, hi + 0.05),               # across every knot
                (hi + 0.1, hi + 0.6),                 # past the last knot
                (lo, hi + 0.1), (0.5 * (lo + hi), hi + 0.3)]
    for d in (1e-9, 1e-6, 1e-3, 0.7):
        t0 = float(rng.uniform(lo - 0.2, hi + 0.2))
        segments.append((t0, t0 + d))
    for t0, t1 in segments:
        d = t1 - t0
        a_int = m.a_integral(t0, t1, X0)
        want = _quad_integral(lambda u: m.a(u, X0), t0, t1, knots, (n, n))
        scale = d * max(float(np.max(np.abs(m.a(u, X0)))) for u in (t0, t1))
        np.testing.assert_allclose(a_int, want, rtol=1e-12, atol=1e-13 * scale)
        mu_int = m.mu_integral(t0, t1, X0)
        want = _quad_integral(drift, t0, t1, knots, (n,))
        np.testing.assert_allclose(mu_int, want, rtol=1e-12, atol=1e-13 * d)
        if d <= 1e-9:
            np.linalg.cholesky(a_int)
            build_kernel(m, t0, X0, d)
    # additivity at a knot and between knots
    t0, t2 = lo - 0.3, hi + 0.2
    for t1 in (float(knots[n_knots // 2]), 0.5 * (t0 + lo)):
        for integral in (m.a_integral, m.mu_integral):
            np.testing.assert_allclose(
                integral(t0, t2, X0),
                integral(t0, t1, X0) + integral(t1, t2, X0),
                rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("mode", ["risk-neutral", "physical"])
@pytest.mark.parametrize("seed", range(4))
def test_array_kernel_equals_scalar_kernels_bit_for_bit(seed, mode):
    # a segment's kernel does not depend on the batch it is built in
    rng = np.random.default_rng(100 + seed)
    n, n_knots = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    knots = np.cumsum(rng.uniform(0.1, 0.5, n_knots))
    vol = TimeCoeff(knots, rng.uniform(-0.08, 0.08, (n_knots, n, n))
                    + rng.uniform(0.15, 0.35, (n_knots, 1, 1)) * np.eye(n))
    drift = TimeCoeff(knots, rng.uniform(-0.1, 0.2, (n_knots, n)))
    m = build_market(n, 2, 2, 0.03, lambda x: drift, lambda x: vol)
    t = rng.uniform(knots[0] - 0.3, knots[-1] + 0.3, 40)
    v = np.concatenate([rng.uniform(0.0, 1.5, 36), [1e-9, 1e-6, 2.0, 0.05]])
    batch = build_kernel(m, t, X0, v, mode=mode)
    assert batch.zbar.shape == (40, n) and batch.chol.shape == (40, n, n)
    for k in range(40):
        one = build_kernel(m, float(t[k]), X0, float(v[k]), mode=mode)
        for name in ("zbar", "cov", "chol"):
            np.testing.assert_array_equal(getattr(batch, name)[k],
                                          getattr(one, name), err_msg=name)
    # a scalar start with an array of lengths, as the slab tables call it
    fan = build_kernel(m, float(t[0]), X0, v, mode=mode)
    for k in (0, 17, 39):
        np.testing.assert_array_equal(
            fan.cov[k], build_kernel(m, float(t[0]), X0, float(v[k])).cov)
    # empty and reversed intervals integrate to zero
    np.testing.assert_array_equal(
        m.a_integral(t[:3], t[:3] - np.array([0.0, 0.1, 1.0]), X0),
        np.zeros((3, n, n)))


def test_array_kernel_names_the_singular_segment():
    sig = np.array([[0.2, 0.2], [0.2, 0.2]])  # rank deficient
    m = build_market(2, 2, 2, 0.02, np.zeros(2), sig)
    with pytest.raises(SingularCovariance, match="v=0.5"):
        build_kernel(m, np.array([0.0, 0.1]), X0, np.array([0.5, 0.25]))
    with pytest.raises(ValueError):
        build_kernel(flat_market(), np.zeros(2), X0, np.array([0.5, 0.0]))


def test_kernel_expectation_of_constant_is_one():
    m = flat_market()
    kern = build_kernel(m, 0.0, X0, 0.5)
    s = np.array([100.0])
    assert kernel_expectation(kern, s, lambda sig: np.ones(sig.shape[0])) \
        == pytest.approx(1.0, abs=1e-12)


def test_dimension_cap():
    n = 5
    m = build_market(n, 2, 2, 0.02, np.zeros(n), 0.2 * np.eye(n))
    kern = build_kernel(m, 0.0, X0, 0.5)
    with pytest.raises(DimensionTooLarge):
        kernel_expectation(kern, np.full(n, 100.0),
                           lambda sig: np.ones(sig.shape[0]))


def test_singular_covariance_raises():
    sig = np.array([[0.2, 0.2], [0.2, 0.2]])  # rank deficient
    m = build_market(2, 2, 2, 0.02, np.zeros(2), sig)
    with pytest.raises(SingularCovariance):
        build_kernel(m, 0.0, X0, 0.5)


def test_kernel_requires_positive_horizon_and_shrinks_with_v():
    m = flat_market(sigma=0.2)
    with pytest.raises(ValueError):
        build_kernel(m, 0.0, X0, 0.0)
    small = build_kernel(m, 0.0, X0, 1e-10)
    assert small.cov[0, 0] == pytest.approx(0.0, abs=1e-11)


def test_market_validation_rejects_singular_sigma():
    sig = np.array([[0.2, 0.2], [0.2, 0.2]])
    m = build_market(2, 2, 2, 0.02, np.zeros(2), sig)
    with pytest.raises(ConfigError):
        m.validate(1.0)


def reference_payoff(claim, s):
    """Each claim kind's payoff written directly, not in hinge form."""
    b = claim.basket(s)
    if claim.kind == "basket-call":
        return np.maximum(b - claim.strike, 0.0)
    if claim.kind == "basket-put":
        return np.maximum(claim.strike - b, 0.0)
    if claim.kind == "linear":
        return b
    knots, values = claim.knots, claim.values
    beyond = values[-1] + claim.final_slope * (b - knots[-1])
    return np.where(b <= knots[0], np.full(np.shape(b), values[0]),
                    np.where(b >= knots[-1], beyond,
                             np.interp(b, knots, values)))


def test_claim_basket_call_envelope_and_lipschitz():
    c = Claim("basket-call", weights=[0.5, 0.5], strike=90.0)
    assert c.c2 == 90.0
    np.testing.assert_allclose(c.c1, [0.5, 0.5])
    s = np.array([[100.0, 120.0]])
    assert c(s)[0] == pytest.approx(20.0)
    # Lipschitz in the l1 metric with constant max(weights) = 0.5
    rng = np.random.default_rng(0)
    s0, s1 = rng.uniform(0.0, 200.0, (2, 1000, 2))
    assert np.all(np.abs(c(s0) - c(s1))
                  <= 0.5 * np.abs(s0 - s1).sum(axis=-1) + 1e-12)


def test_claim_put_linear_custom():
    p = Claim("basket-put", weights=[1.0], strike=100.0)
    np.testing.assert_allclose(p.c1, [0.0])
    assert p(np.array([[80.0]]))[0] == pytest.approx(20.0)

    lin = Claim("linear", weights=[1.3])
    assert lin(np.array([[50.0]]))[0] == pytest.approx(65.0)

    # call shifted up by 5: piecewise-linear in the basket value
    cust = Claim("custom-piecewise-linear", weights=[1.0],
                 knots=[0.0, 100.0], values=[5.0, 5.0], final_slope=1.0)
    assert cust(np.array([[150.0]]))[0] == pytest.approx(55.0)
    assert cust(np.array([[50.0]]))[0] == pytest.approx(5.0)
    # sup_b |K(b) - b| is attained at the kink: |5 - 100| = 95
    assert cust.c2 == pytest.approx(95.0)


ORACLE_CLAIMS = [
    Claim("basket-call", weights=[1.0], strike=100.0),
    Claim("basket-call", weights=[0.5, 0.5], strike=90.0),
    Claim("basket-put", weights=[1.0], strike=100.0),
    Claim("basket-put", weights=[0.3, 0.7], strike=95.0),
    Claim("linear", weights=[1.3]),
    Claim("linear", weights=[0.5, 1.5]),
    Claim("custom-piecewise-linear", weights=[1.0],
          knots=[80.0, 100.0, 120.0], values=[0.0, 20.0, 0.0]),
    Claim("custom-piecewise-linear", weights=[0.5, 0.5],
          knots=[0.0, 100.0], values=[5.0, 5.0], final_slope=1.0),
]


@pytest.mark.parametrize("claim", ORACLE_CLAIMS,
                         ids=[f"{c.kind}-{c.weights.size}" for c in ORACLE_CLAIMS])
def test_claim_equals_per_kind_payoff_bit_for_bit(claim):
    n = claim.weights.size
    rng = np.random.default_rng(2024)
    kinks = claim.knots if claim.knots is not None else [claim.strike]
    s = np.concatenate([
        rng.lognormal(np.log(100.0), 0.6, (4000, n)),
        np.zeros((1, n)),
        # with weights summing to one in halves or a single unit weight,
        # every asset at a kink puts the basket exactly on it
        np.repeat(np.asarray(kinks, dtype=float)[:, None], n, axis=1)])
    got, want = claim(s), reference_payoff(claim, s)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    # one point at a time too
    for row in s[-len(kinks) - 1:]:
        assert claim(row) == reference_payoff(claim, row)


@st.composite
def hinge_claims(draw):
    n = draw(st.integers(1, 3))
    weights = draw(st.lists(st.just(0.0) | st.floats(0.01, 2.0), min_size=n,
                            max_size=n))
    kind = draw(st.sampled_from(["basket-call", "basket-put", "linear",
                                 "custom-piecewise-linear"]))
    if kind != "custom-piecewise-linear":
        return Claim(kind, weights, strike=draw(st.floats(0.0, 200.0)))
    # knots on a half grid, the first possibly below zero
    halves = draw(st.lists(st.integers(-100, 400), min_size=1, max_size=4,
                           unique=True))
    knots = sorted(0.5 * h for h in halves)
    values = draw(st.lists(st.floats(0.0, 100.0), min_size=len(knots),
                           max_size=len(knots)))
    return Claim(kind, weights, knots=knots, values=values,
                 final_slope=draw(st.floats(0.0, 3.0)))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(claim=hinge_claims(), seed=st.integers(0, 2 ** 32 - 1))
def test_claim_envelope_holds_and_is_attained(claim, seed):
    n = claim.weights.size
    rng = np.random.default_rng(seed)
    s = np.concatenate([rng.uniform(0.0, 1000.0, (500, n)),
                        rng.lognormal(np.log(100.0), 1.0, (500, n)),
                        np.zeros((1, n))])
    lead = claim.slope + claim.hinge_slopes.sum()

    def tol(b):
        # 1e-12 of the largest term the hinge sum adds up
        return 1e-12 * (abs(claim.offset) + claim.c2 + (abs(claim.slope)
                        + np.abs(claim.hinge_slopes).sum() + abs(lead)) * b)

    b = claim.basket(s)
    gap = np.abs(reference_payoff(claim, s) - s @ claim.c1)
    assert np.all(gap <= claim.c2 + tol(b))
    # the supremum sits at b = 0 or at a hinge: put the basket there through
    # the pivot asset
    pivot = int(np.argmax(claim.weights))
    if claim.weights[pivot] == 0.0:
        return
    at = np.concatenate([[0.0], claim.hinge_strikes[claim.hinge_strikes > 0]])
    s_at = np.zeros((at.size, n))
    s_at[:, pivot] = at / claim.weights[pivot]
    attained = np.max(np.abs(reference_payoff(claim, s_at) - s_at @ claim.c1))
    assert abs(max(attained, 1e-12) - claim.c2) <= tol(at.max())
    np.testing.assert_allclose(claim.c1, lead * claim.weights, rtol=0,
                               atol=1e-12 * np.abs(claim.hinge_slopes).sum())


def test_claim_nodes_integrate_call_price_1d():
    # the conditional closed form reproduces the lognormal call value
    m = flat_market(sigma=0.2, r=0.05)
    s0 = np.array([[100.0]])
    claim = Claim("basket-call", weights=[1.0], strike=100.0)
    kern = build_kernel(m, 0.0, X0, 1.0)
    w, value, _ = claim_nodes(kern, claim, s0, 24)
    got = math.exp(-0.05) * float((value @ w)[0])
    from scipy.stats import norm
    var = 0.04
    d1 = (math.log(1.0) + 0.05 + 0.5 * var) / math.sqrt(var)
    d2 = d1 - math.sqrt(var)
    bs = 100.0 * norm.cdf(d1) - 100.0 * math.exp(-0.05) * norm.cdf(d2)
    assert got == pytest.approx(bs, abs=1e-12)


def test_claim_nodes_weights_normalize():
    m = flat_market(n=2, sigma=0.25, n_components=3)
    claim = Claim("basket-call", weights=[0.6, 0.4], strike=95.0)
    kern = build_kernel(m, 0.0, (1, 1, 1), 0.75)
    w, value, score = claim_nodes(kern, claim, np.array([[90.0, 110.0]]), 24)
    assert float(w.sum()) == pytest.approx(1.0, abs=1e-12)
    assert value.shape == (1, w.size) and score.shape == (1, w.size, 2)
