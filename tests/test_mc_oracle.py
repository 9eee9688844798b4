import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.special import ndtri

from regimehedge.market import (
    Claim,
    MarketModel,
    TimeCoeff,
    build_kernel,
    build_market,
)
from regimehedge import mc_oracle
from regimehedge.analysis import residual_risk
from regimehedge.mc_oracle import (
    PathBlock,
    map_blocks,
    mc_price,
    simulate_path,
    _normals,
    _stream_keys,
)
from regimehedge.regime_bsm import bsm_price_grid
from regimehedge.scenario import parse_scenario
from regimehedge.semi_markov import (
    AffineRate,
    ConstantRate,
    HazardModel,
    TabulatedRate,
    WeibullRate,
    _exponential,
    _philox_words,
    _uniform,
)
from regimehedge.volterra_pricer import Grid, GridSpec, solve_price_field


def _path_streams(seed, pid):
    """The (regime, Gaussian) streams of path pid, built by numpy itself:
    Philox keyed (w, 2 pid + k) for k = 0, 1, with w the first 64-bit word
    of SeedSequence(seed)."""
    w = np.random.SeedSequence(seed).generate_state(1, np.uint64)[0]
    return tuple(np.random.Generator(np.random.Philox(
        key=np.array([w, 2 * int(pid) + k], dtype=np.uint64)))
        for k in (0, 1))


def flat_market(r=0.05, sigma=0.2, mu=0.09):
    return build_market(1, 2, 2, r, np.array([mu]), sigma * np.eye(1))


def models_const(c0=0.5, c1=0.8):
    h = lambda c: HazardModel(2, {(1, 2): ConstantRate(c), (2, 1): ConstantRate(c)})
    return [h(c0), h(c1)]


START = (0.0, np.array([100.0]), (1, 1), np.array([0.0, 0.0]))


def paths(market, models, start, horizon, seed, ids, mode="risk-neutral"):
    """The block of the paths ids, each on its own streams."""
    return simulate_path(market, models, start, horizon, seed,
                         np.asarray(ids), mode=mode)


def reference_path(market, models, start, horizon, seed, pid, mode):
    """Path pid alone, on the streams numpy's own Generator draws.

    The switch history goes one jump at a time, the earliest clock first
    (lowest component on ties), with U = rng.random() and E = -log1p(-U):
    one E per component, then per jump one U for the destination and one E
    for the new clock.  Each segment of positive length draws n
    Z = ndtri((floor(2**52 U) + 0.5) 2**-52) and builds its own kernel.
    """
    rng_regime, rng_gauss = _path_streams(seed, pid)
    t0, s0, x0, y0 = start
    x, ages = list(x0), [float(a) for a in y0]
    reset = [t0 - a for a in ages]

    def clock():
        return -np.log1p(-rng_regime.random())

    nxt = [t0 + float(h.invert_clock(x[m], ages[m], clock()))
           for m, h in enumerate(models)]
    rec = dict(jump_times=[], pre_index=[], post_index=[], ages_before=[],
               ages_after=[])
    while True:
        l = min(range(len(models)), key=nxt.__getitem__)
        t = nxt[l]
        if t > horizon:
            break
        before = [t - r for r in reset]
        after = before.copy()
        after[l] = 0.0
        rec["pre_index"].append(market.x_index[tuple(x)])
        x[l] = int(models[l].draw_destination(x[l], before[l],
                                              rng_regime.random()))
        rec["post_index"].append(market.x_index[tuple(x)])
        reset[l] = t
        nxt[l] = t + float(models[l].invert_clock(x[l], 0.0, clock()))
        rec["jump_times"].append(t)
        rec["ages_before"].append(before)
        rec["ages_after"].append(after)

    n = market.n
    bounds = [float(t0), *rec["jump_times"], float(horizon)]
    states = [market.x_index[tuple(x0)], *rec["post_index"]]
    s, log_disc = np.asarray(s0, dtype=float).copy(), 0.0
    s_jumps, disc_jumps = [], []
    for k, xi in enumerate(states):
        v = bounds[k + 1] - bounds[k]
        if v > 0:
            u = np.array([rng_gauss.random() for _ in range(n)])
            z = ndtri((np.floor(u * 2.0 ** 52) + 0.5) * 2.0 ** -52)[None]
            kern = build_kernel(market, np.array([bounds[k]]),
                                market.x_tuples[xi], np.array([v]), mode=mode)
            shock = kern.chol[..., 0] * z[:, None, 0]
            for col in range(1, n):
                shock = shock + kern.chol[..., col] * z[:, None, col]
            s = s * np.exp(kern.zbar + shock)[0]
            log_disc = log_disc - market.r(market.x_tuples[xi]) * v
        if k < len(states) - 1:
            s_jumps.append(s)
            disc_jumps.append(np.exp(log_disc))
    m = len(rec["jump_times"])
    rec.update(n_jumps=m, s_terminal=s, discount=np.exp(log_disc),
               s_at_jumps=np.reshape(s_jumps, (m, n)),
               discount_at_jumps=np.array(disc_jumps))
    return rec


def path_states(market, blk, p, x0):
    """(m + 1, c) regime tuples on the segments of path p of a block."""
    sel = blk.jump_path == p
    np.testing.assert_array_equal(
        blk.pre_index[sel][1:], blk.post_index[sel][:-1])
    idx = [market.x_index[tuple(x0)], *blk.post_index[sel].tolist()]
    if sel.any():
        assert blk.pre_index[sel][0] == idx[0]
    return np.array([market.x_tuples[i] for i in idx])


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
    path = paths(m, [h, h], START, 1.0, 3, [0])
    assert path.n_jumps[0] == 0
    assert path.s_terminal[0, 0] == pytest.approx(100.0 * math.exp(0.04),
                                                  rel=1e-5)
    assert path.discount[0] == pytest.approx(math.exp(-0.04), rel=1e-12)


def test_regime_independent_matches_frozen_price():
    m = flat_market(r=0.03, sigma=0.3)
    models = models_const(0.6, 0.9)
    claim = Claim("basket-call", weights=[1.0], strike=100.0)
    est, se = mc_price(m, claim, models, START, 1.0, n_paths=20_000, seed=4)
    ref = bsm_price_grid(m, claim, (1, 1), 0.0, 1.0, np.array([100.0]))
    assert abs(est - ref) < 3 * se


def test_no_switch_conditioning_reproduces_kernel_law():
    # inter-jump ratios conditioned on no switch follow the kernel law
    m = flat_market(r=0.02, sigma=0.35, mu=0.11)
    models = models_const(0.7, 0.4)
    v = 0.6
    blk = paths(m, models, START, v, 77, range(4000), mode="physical")
    ratios = blk.s_terminal[blk.n_jumps == 0, 0] / 100.0
    kern = build_kernel(m, 0.0, (1, 1), v, mode="physical")
    sd = math.sqrt(kern.cov[0, 0])

    def cdf(u):
        return stats.norm.cdf((np.log(u) - kern.zbar[0]) / sd)
    res = stats.kstest(np.asarray(ratios), cdf)
    assert len(ratios) > 1500
    assert res.pvalue > 0.01


def test_reproducibility():
    m = flat_market()
    models = models_const()
    claim = Claim("basket-call", weights=[1.0], strike=95.0)
    a1 = mc_price(m, claim, models, START, 1.0, n_paths=4000, seed=9)
    a2 = mc_price(m, claim, models, START, 1.0, n_paths=4000, seed=9)
    assert a1 == a2


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
    path = paths(m, models, START, 1.0, 13, [0])
    n_jumps = int(path.n_jumps[0])
    assert n_jumps >= 1
    assert np.all(np.diff(path.jump_times) > 0)
    np.testing.assert_array_equal(path.jump_path, np.zeros(n_jumps))
    states = path_states(m, path, 0, START[2])
    for k in range(n_jumps):
        # exactly one component jumps, and its age resets
        (l,) = np.flatnonzero(states[k] != states[k + 1])
        assert path.ages_after[k][l] == 0.0
        assert path.ages_before[k][l] > 0.0
    assert 0.0 < path.discount[0] <= 1.0
    assert path.discount_at_jumps.shape == (n_jumps,)
    assert path.s_at_jumps.shape == (n_jumps, 1)


def _demo_case():
    root = Path(__file__).resolve().parents[1]
    doc = json.loads((root / "configs" / "two_state_call.json").read_text())
    scn = parse_scenario(doc)
    return scn.market, scn.models, (1, 1), [0.0, 0.0], 0.0


def _c3_case():
    # the acceptance suite's C3 model: affine with b > 0, constant and
    # Weibull with kappa = 2, over three components and two assets
    m = build_market(2, 2, 3, lambda x: 0.02 if x[0] == 1 else 0.05,
                     np.array([0.06, 0.07]),
                     lambda x: np.diag([0.2 if x[1] == 1 else 0.3,
                                        0.25 if x[2] == 1 else 0.32]))
    models = [HazardModel(2, {(1, 2): up, (2, 1): ConstantRate(down)})
              for up, down in ((ConstantRate(0.25), 0.35),
                               (WeibullRate(0.4, 2.0), 0.3),
                               (AffineRate(0.2, 0.15), 0.25))]
    return m, models, (1, 2, 1), [0.0, 0.0, 0.0], 0.0


def _three_state_case():
    # every row has two destinations with age-dependent odds
    def h(s):
        return HazardModel(3, {
            (1, 2): WeibullRate(0.9 * s, 1.8),
            (1, 3): AffineRate(0.3, 0.8 * s),
            (2, 1): ConstantRate(1.1 * s),
            (2, 3): WeibullRate(0.7, 2.5),
            (3, 1): AffineRate(0.5 * s, 0.4),
            (3, 2): ConstantRate(0.6)})
    m = build_market(1, 3, 2, lambda x: 0.01 * x[0], np.array([0.05]),
                     lambda x: (0.15 + 0.05 * x[1]) * np.eye(1))
    return m, [h(1.0), h(1.6)], (1, 3), [0.0, 0.0], 0.0


def _tabulated_case():
    # the tabulated model of test_imports: its clock inverts with brentq
    m = build_market(1, 2, 2, 0.04, np.array([0.08]), 0.25 * np.eye(1))
    models = [HazardModel(2, {(1, 2): TabulatedRate([0.0, 0.5, 2.0],
                                                    [0.3, 0.9, 0.6]),
                              (2, 1): WeibullRate(0.9, 1.4)}),
              HazardModel(2, {(1, 2): AffineRate(0.2, 0.15),
                              (2, 1): ConstantRate(0.7)})]
    return m, models, (1, 1), [0.0, 0.0], 0.0


def _late_start_case():
    # a start at t0 > 0 with nonzero ages
    m = flat_market()
    models = [HazardModel(2, {(1, 2): WeibullRate(1.8, 1.6),
                              (2, 1): ConstantRate(1.2)}),
              HazardModel(2, {(1, 2): ConstantRate(0.9),
                              (2, 1): WeibullRate(2.2, 2.0)})]
    return m, models, (2, 1), [0.45, 1.3], 0.37


def _bursty_case():
    # one three-state component whose state 1 is left rarely and whose
    # states 2 and 3 swap fast: most paths never jump, a few jump a dozen
    # times, so the block's segment table is mostly padding
    m = build_market(1, 3, 1, lambda x: 0.02 * x[0], np.array([0.06]),
                     lambda x: (0.1 + 0.05 * x[0]) * np.eye(1))
    models = [HazardModel(3, {(1, 2): ConstantRate(0.4),
                              (2, 3): ConstantRate(15.0),
                              (3, 2): WeibullRate(12.0, 1.5),
                              (3, 1): ConstantRate(0.2)})]
    return m, models, (1,), [0.0], 0.0


_CASES = {"demo": _demo_case, "c3": _c3_case, "three_state": _three_state_case,
          "tabulated": _tabulated_case, "late_start": _late_start_case,
          "bursty": _bursty_case}


@pytest.mark.parametrize("mode", ["risk-neutral", "physical"])
@pytest.mark.parametrize("case", sorted(_CASES))
def test_paths_equal_one_path_reference(case, mode):
    # the block simulator reads each path's streams as numpy's Generator
    # draws them, bit for bit, on every path of a 150-path block
    m, models, x0, y0, t0 = _CASES[case]()
    start = (t0, np.full(m.n, 100.0), x0, np.array(y0))
    ids = np.arange(500, 650)
    blk = paths(m, models, start, 1.5, 8, ids, mode=mode)
    for p, pid in enumerate(ids):
        ref = reference_path(m, models, start, 1.5, 8, pid, mode)
        sel = blk.jump_path == p
        assert blk.n_jumps[p] == ref["n_jumps"] == sel.sum()
        for name in ("jump_times", "pre_index", "post_index", "ages_before",
                     "ages_after", "s_at_jumps", "discount_at_jumps"):
            np.testing.assert_array_equal(
                getattr(blk, name)[sel],
                np.reshape(ref[name], getattr(blk, name)[sel].shape),
                err_msg=f"{name} of path {pid}")
        np.testing.assert_array_equal(blk.s_terminal[p], ref["s_terminal"])
        assert blk.discount[p] == ref["discount"]
    assert blk.n_jumps.sum() > 50


def test_eval_point_at_maturity():
    m = flat_market()
    models = models_const(2.5, 2.0)
    claim = Claim("basket-call", weights=[1.0], strike=95.0)
    s0 = np.array([100.0])
    start = (1.0, s0, (1, 2), np.array([0.3, 0.0]))
    path = paths(m, models, start, 1.0, 2, [0])
    assert path.n_jumps[0] == 0
    np.testing.assert_array_equal(path.s_terminal[0], s0)
    assert path.discount[0] == 1.0
    est, se = mc_price(m, claim, models, start, 1.0, n_paths=200, seed=6)
    assert est == float(claim(s0)) == 5.0
    assert se == 0.0


def _simpson_a_integral(self, t0, t1, x):
    # Simpson's rule per piece between the knots of sigma: exact for the
    # quadratic a = sigma sigma^T on each piece
    if t1 <= t0:
        return np.zeros((self.n, self.n))
    cuts = [t0] + [k for k in self._sigma[tuple(x)].knots if t0 < k < t1] + [t1]
    return sum((b - a) / 6.0 * (self.a(a, x) + 4.0 * self.a(0.5 * (a + b), x)
                                + self.a(b, x))
               for a, b in zip(cuts[:-1], cuts[1:]))


def _trapezoid_mu_integral(mu):
    # the trapezoid rule per piece between the knots of the drift mu of
    # every regime tuple: exact for linear mu
    def integral(self, t0, t1, x):
        if t1 <= t0:
            return np.zeros(self.n)
        cuts = [t0] + [k for k in mu.knots if t0 < k < t1] + [t1]
        return sum(0.5 * (b - a) * (mu(a) + mu(b))
                   for a, b in zip(cuts[:-1], cuts[1:]))
    return integral


def _per_segment(integral):
    # the pointwise oracles take one interval; build_kernel passes arrays
    def batched(self, t0, t1, x):
        t0, t1 = np.broadcast_arrays(np.asarray(t0, dtype=float),
                                     np.asarray(t1, dtype=float))
        if t0.ndim == 0:
            return integral(self, float(t0), float(t1), x)
        return np.array([integral(self, a, b, x)
                         for a, b in zip(t0.tolist(), t1.tolist())])
    return batched


_HISTORY = ("n_jumps", "jump_path", "jump_times", "pre_index", "post_index",
            "ages_before", "ages_after", "jump_component", "states_after")
_PRICES = ("s_terminal", "discount", "s_at_jumps", "discount_at_jumps")
_PER_PATH = ("n_jumps", "s_terminal", "discount")


@pytest.mark.parametrize("mode", ["risk-neutral", "physical"])
@pytest.mark.parametrize("t0,y0", [(0.0, [0.0, 0.0]), (0.37, [0.2, 0.37])])
def test_paths_match_pointwise_quadrature_of_the_coefficients(
        monkeypatch, mode, t0, y0):
    # the piece tables change no switch history and move prices and
    # discounts by rounding only: 200 demo paths against per-piece
    # Simpson/trapezoid integrals of the pointwise coefficients
    path = Path(__file__).resolve().parents[1] / "configs" / "two_state_call.json"
    doc = json.loads(path.read_text())
    scn = parse_scenario(doc)
    drift = TimeCoeff.constant(np.array(doc["market"]["drift"]))
    start = (t0, np.array([100.0]), (1, 2), np.array(y0))

    def records():
        return paths(scn.market, scn.models, start, 1.0, 17, range(200),
                     mode=mode)

    table = records()
    monkeypatch.setattr(MarketModel, "a_integral",
                        _per_segment(_simpson_a_integral))
    monkeypatch.setattr(MarketModel, "mu_integral",
                        _per_segment(_trapezoid_mu_integral(drift)))
    oracle = records()
    for name in _HISTORY:
        np.testing.assert_array_equal(getattr(table, name),
                                      getattr(oracle, name), err_msg=name)
    for name in _PRICES:
        np.testing.assert_allclose(getattr(table, name), getattr(oracle, name),
                                   rtol=1e-12, atol=0, err_msg=name)
    assert table.n_jumps.sum() > 100


def _concat(blocks):
    """One block from consecutive blocks, as if simulated together."""
    rows = np.cumsum([0] + [len(b.n_jumps) for b in blocks])
    out = {}
    for name in _HISTORY + _PRICES:
        parts = [getattr(b, name) for b in blocks]
        if name == "jump_path":
            parts = [p + r for p, r in zip(parts, rows)]
        out[name] = np.concatenate(parts)
    return PathBlock(**out)


def correlated_case():
    """Two correlated assets, two components; the rate hangs on component 0
    and the volatility on component 1."""
    def vol(x):
        lo = np.array([[0.2, 0.0], [0.1, 0.25]])
        hi = np.array([[0.3, 0.0], [-0.12, 0.22]])
        return TimeCoeff([0.0, 0.6, 1.0],
                         [lo, hi, lo] if x[1] == 1 else [hi, lo, hi])

    m = build_market(2, 2, 2, lambda x: 0.02 if x[0] == 1 else 0.06,
                     lambda x: np.array([0.05, 0.08 + 0.02 * x[1]]), vol)
    models = [HazardModel(2, {(1, 2): WeibullRate(1.1, 1.6),
                              (2, 1): ConstantRate(0.9)}),
              HazardModel(2, {(1, 2): ConstantRate(1.3),
                              (2, 1): WeibullRate(0.8, 2.0)})]
    claim = Claim("basket-call", weights=[0.6, 0.4], strike=100.0)
    return m, models, claim


@pytest.mark.parametrize("mode", ["risk-neutral", "physical"])
@pytest.mark.parametrize("t0,y0", [(0.0, [0.0, 0.0]), (0.37, [0.2, 0.37])])
def test_block_equals_smaller_blocks_bit_for_bit(mode, t0, y0):
    m, models, _ = correlated_case()
    start = (t0, np.array([100.0, 90.0]), (2, 1), np.array(y0))
    whole = paths(m, models, start, 1.0, 5, range(300), mode=mode)
    assert whole.n_jumps.sum() > 300
    for size in (1, 7):
        parts = _concat([paths(m, models, start, 1.0, 5,
                               range(lo, min(lo + size, 300)), mode=mode)
                         for lo in range(0, 300, size)])
        for name in _HISTORY + _PRICES:
            np.testing.assert_array_equal(getattr(parts, name),
                                          getattr(whole, name), err_msg=name)
    # the same paths at the head of a block of 1024
    big = paths(m, models, start, 1.0, 5, range(1024), mode=mode)
    head = big.jump_path < 300
    for name in _HISTORY + _PRICES:
        got = getattr(big, name)
        got = got[:300] if name in _PER_PATH else got[head]
        np.testing.assert_array_equal(got, getattr(whole, name), err_msg=name)


def test_worker_count_changes_no_estimate(monkeypatch):
    # blocks of 1024, 7 and 1 paths, mapped one after another, give the
    # same bytes
    m, models, claim = correlated_case()
    start = (0.37, np.array([100.0, 90.0]), (2, 1), np.array([0.2, 0.37]))
    grid = Grid(m, 1.0, np.array([[100.0, 90.0]]),
                GridSpec(time_steps=4, price_nodes=9, age_nodes=3))
    field, _ = solve_price_field(m, claim, models, grid, 1e-3)
    assert mc_oracle._BLOCK == 1024
    one = mc_price(m, claim, models, start, 1.0, 2500, 4)
    one_rr = residual_risk(field, start, 2500, 6).to_dict()
    for block in (7, 1):
        monkeypatch.setattr(mc_oracle, "_BLOCK", block)
        assert mc_price(m, claim, models, start, 1.0, 2500, 4) == one
        assert residual_risk(field, start, 2500, 6).to_dict() == one_rr
    assert one_rr["mean_jumps"] > 0.5


def test_philox_words_equal_numpy_philox():
    # counters b = 0..5 of random keys and of keys within 2**10 of 2**64
    # (the Weyl increments of the key schedule wrap)
    rng = np.random.default_rng(2024)
    keys = np.concatenate([
        rng.integers(0, 2 ** 64, size=(40, 2), dtype=np.uint64),
        ~rng.integers(0, 2 ** 10, size=(24, 2), dtype=np.uint64)])
    words = np.concatenate([_philox_words(keys, b) for b in range(6)], 1)
    for key, row in zip(keys, words):
        np.testing.assert_array_equal(
            row, np.random.Philox(key=key).random_raw(24))


def test_path_streams_are_philox_keyed_by_id():
    # numpy's 128-bit integer key is little-endian in its two words: the
    # seed word below, 2 pid + k above
    for seed, pid in ((0, 0), (42, 7), (2 ** 31 - 1, np.int64(123456))):
        w = int(np.random.SeedSequence(seed).generate_state(1, np.uint64)[0])
        for k in (0, 1):
            keys = _stream_keys(seed, [pid], k)
            key = w + ((2 * int(pid) + k) << 64)
            want = np.random.Generator(np.random.Philox(key=key))
            got = np.concatenate([_philox_words(keys, b)[0] for b in (0, 1)])
            np.testing.assert_array_equal(_uniform(got), want.random(8))


def test_stream_blocks_rekey_to_the_numpy_streams():
    # each id block's words, computed for the whole block at once, are the
    # words numpy's Philox gives each path's own streams; the Gaussian
    # counts vary by path and cross a counter
    blocks = map_blocks(lambda b: b, 2100)  # two full blocks and a partial one
    assert [len(b) for b in blocks] == [1024, 1024, 52]
    for blk in blocks:
        regime = np.concatenate(
            [_philox_words(_stream_keys(42, blk, 0), b) for b in (0, 1)], 1)
        counts = 1 + blk % 7
        z = np.split(_normals(_stream_keys(42, blk, 1), counts),
                     np.cumsum(counts)[:-1])
        for pid, row, zp in zip(blk, regime, z):
            rng_regime, rng_gauss = (
                g.bit_generator for g in _path_streams(42, pid))
            np.testing.assert_array_equal(row, rng_regime.random_raw(8))
            words = rng_gauss.random_raw(len(zp))
            np.testing.assert_array_equal(
                zp, ndtri(((words >> np.uint64(12)) + 0.5) * 2.0 ** -52))


def test_stream_words_follow_their_laws():
    # at a fixed seed, 80,000 E words of the regime streams are Exp(1) and
    # 80,000 Z words of the Gaussian streams N(0, 1) (KS p-value above 1e-3)
    ids = np.arange(20_000)
    e = _exponential(_philox_words(_stream_keys(77, ids, 0), 0)).ravel()
    z = _normals(_stream_keys(77, ids, 1), np.full(len(ids), 4))
    assert len(e) == len(z) == 80_000
    assert stats.kstest(e, "expon").pvalue > 1e-3
    assert stats.kstest(z, "norm").pvalue > 1e-3


def test_stream_keys_are_seed_word_and_path_id():
    pids = [0, 1, 1023, 1024, 1025, 2 ** 32 - 1]
    for seed in (0, 5, 2 ** 32, 2 ** 64 + 3):
        for k in (0, 1):
            got = _stream_keys(seed, np.array(pids), k)
            assert got.dtype == np.uint64
            for key, pid in zip(got, pids):
                rng = _path_streams(seed, pid)[k]
                np.testing.assert_array_equal(
                    key, rng.bit_generator.state["state"]["key"])
                assert int(key[1]) == 2 * pid + k
    for seed, bad in ((5, [2 ** 32]), (5, [3, -1]), (-1, [0])):
        with pytest.raises(ValueError):
            _stream_keys(seed, np.array(bad), 0)


@pytest.mark.parametrize("seed", [3, 2 ** 31 - 1])
def test_streams_of_consecutive_ids_are_independent_draws(seed):
    # adjacent keys differ in their low bits only: the first draw of each
    # stream over 20,000 consecutive ids still follows its law (KS p-value
    # above 1e-3), and no two streams of the run share a key
    ids = np.arange(20_000)
    first_u = _uniform(_philox_words(_stream_keys(seed, ids, 0), 0)[:, 0])
    first_z = _normals(_stream_keys(seed, ids, 1), np.ones(len(ids), int))
    assert stats.kstest(first_u, "uniform").pvalue > 1e-3
    assert stats.kstest(first_z, "norm").pvalue > 1e-3
    keys = np.concatenate([_stream_keys(seed, ids, k) for k in (0, 1)])
    assert len(np.unique(keys, axis=0)) == 2 * len(ids)


def test_map_blocks_maps_every_id_once_in_block_order(monkeypatch):
    # every id once, in blocks of _BLOCK in block order
    for block, n in ((1024, 2100), (1024, 100), (7, 100), (30, 100)):
        monkeypatch.setattr(mc_oracle, "_BLOCK", block)
        got = map_blocks(lambda b: b.tolist(), n)
        assert [i for b in got for i in b] == list(range(n))
        assert [len(b) for b in got[:-1]] == [block] * (len(got) - 1)
        assert 0 < len(got[-1]) <= block
    # no block is empty
    monkeypatch.setattr(mc_oracle, "_BLOCK", 40)
    assert map_blocks(lambda b: b.tolist(), 100) == [
        list(range(0, 40)), list(range(40, 80)), list(range(80, 100))]
    # fewer than 100 paths is an error for the price as for residual risk
    m, models, claim = correlated_case()
    start = (0.0, np.array([100.0, 90.0]), (2, 1), np.array([0.0, 0.0]))
    for n_paths in (0, 1, 99):
        with pytest.raises(ValueError, match="at least 100"):
            mc_price(m, claim, models, start, 1.0, n_paths, 4)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data(), k=st.integers(2, 4), c=st.integers(1, 3))
def test_state_tuple_flat_index_is_its_x_index(data, k, c):
    # simulate_path reads a jump's regime-tuple index as the flat index of
    # its states in the (k,) * c array, which needs x_tuples in
    # itertools.product order
    m = build_market(1, k, c, 0.05, np.array([0.09]), 0.2 * np.eye(1))
    assert len(m.x_tuples) == k ** c
    states = np.array(data.draw(st.lists(
        st.tuples(*[st.integers(1, k)] * c), min_size=1, max_size=20)))
    flat = np.ravel_multi_index(tuple((states - 1).T), (k,) * c)
    assert flat.tolist() == [m.x_index[tuple(x)] for x in states.tolist()]
    every = np.array(m.x_tuples)
    np.testing.assert_array_equal(
        np.ravel_multi_index(tuple((every - 1).T), (k,) * c),
        np.arange(k ** c))


def test_estimates_equal_one_path_reference():
    # mc_price and residual_risk average the reference paths in id order
    m, models, claim = correlated_case()
    start = (0.37, np.array([100.0, 90.0]), (2, 1), np.array([0.2, 0.37]))
    refs = [reference_path(m, models, start, 1.0, 4, pid, "risk-neutral")
            for pid in range(2100)]
    vals = np.array([r["discount"] for r in refs]) \
        * claim(np.array([r["s_terminal"] for r in refs]))
    want = (float(np.mean(vals)),
            float(np.std(vals, ddof=1) / math.sqrt(len(vals))))
    assert mc_price(m, claim, models, start, 1.0, 2100, 4) == want

    grid = Grid(m, 1.0, np.array([[100.0, 90.0]]),
                GridSpec(time_steps=4, price_nodes=9, age_nodes=3))
    field, _ = solve_price_field(m, claim, models, grid, 1e-3)
    refs = [reference_path(m, models, start, 1.0, 6, pid, "physical")
            for pid in range(2100)]
    costs = np.zeros(len(refs))
    for p, r in enumerate(refs):
        t, s = np.array(r["jump_times"]), r["s_at_jumps"]
        ages_b, ages_a = (np.reshape(r[k], (-1, 2))
                          for k in ("ages_before", "ages_after"))
        jump = r["discount_at_jumps"] * (
            field.values(t, s, np.array(r["post_index"], dtype=int), ages_a)
            - field.values(t, s, np.array(r["pre_index"], dtype=int), ages_b))
        for c in jump ** 2:      # summed in jump order
            costs[p] += c
    rep = residual_risk(field, start, 2100, 6)
    assert rep.r0 == float(np.mean(costs))
    assert rep.se == float(np.std(costs, ddof=1) / math.sqrt(2100))
    assert rep.mean_jumps == float(np.mean([r["n_jumps"] for r in refs])) > 0.5
    assert rep.cost_quantiles["q90"] == float(np.quantile(costs, 0.9))
