import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regimehedge.errors import ConfigError, NoConvergence
from regimehedge.market import Claim, build_kernel, build_market, kernel_expectation
from regimehedge.quadrature import tensor_normal_nodes
from regimehedge.regime_bsm import bsm_price_grid
from regimehedge.semi_markov import (
    AffineRate,
    ConstantRate,
    CsmState,
    HazardModel,
    WeibullRate,
    next_jump_component_prob,
    next_jump_time_law,
)
from regimehedge.volterra_pricer import (
    Grid,
    GridSpec,
    PriceField,
    Slab,
    SolverSettings,
    VolterraSolver,
    linear_growth_norm,
    pde_residual,
    solve_price_field,
)


def degenerate_setup(price_nodes=81, time_steps=20, age_nodes=5):
    m = build_market(1, 2, 2, 0.04, np.array([0.08]), 0.25 * np.eye(1))
    claim = Claim("basket-call", weights=[1.0], strike=100.0)
    h = HazardModel(2, {(1, 2): ConstantRate(0.3), (2, 1): ConstantRate(0.4)})
    grid = Grid(m, 1.0, np.array([[100.0]]),
                GridSpec(time_steps=time_steps, price_nodes=price_nodes,
                         age_nodes=age_nodes))
    return m, claim, [h, h], grid


def regime_setup(price_nodes=61, time_steps=16, age_nodes=5):
    # genuinely regime-dependent: r from component 0, sigma from component 1
    def rate(x):
        return 0.02 if x[0] == 1 else 0.05

    def vol(x):
        return (0.2 if x[1] == 1 else 0.32) * np.eye(1)

    m = build_market(1, 2, 2, rate, np.array([0.07]), vol)
    claim = Claim("basket-call", weights=[1.0], strike=100.0)
    models = [
        HazardModel(2, {(1, 2): ConstantRate(0.5), (2, 1): ConstantRate(0.7)}),
        HazardModel(2, {(1, 2): WeibullRate(0.6, 2.0), (2, 1): AffineRate(0.3, 0.2)}),
    ]
    grid = Grid(m, 1.0, np.array([[100.0]]),
                GridSpec(time_steps=time_steps, price_nodes=price_nodes,
                         age_nodes=age_nodes))
    return m, claim, models, grid


def test_grid_restricts_ages_to_diagonal():
    m, claim, models, grid = degenerate_setup(time_steps=10, age_nodes=6)
    assert grid.c_counts[0] == 1
    assert grid.c_counts[-1] == 6
    assert np.all(np.diff(grid.c_counts) >= 0)
    # evaluation point sits exactly on the center node
    mid = grid.lns_axes[0][(len(grid.lns_axes[0]) - 1) // 2]
    assert mid == pytest.approx(math.log(100.0), abs=1e-12)


def test_linear_growth_norm_cases():
    m, claim, models, grid = degenerate_setup(price_nodes=21, time_steps=4,
                                              age_nodes=3)
    solver = VolterraSolver(m, claim, models, grid)
    f = solver.initial_field()
    assert linear_growth_norm(f, f) == 0.0

    # field equal to 1 + |s|_1 has norm exactly one
    ones = []
    smesh = grid.s_mesh()[..., 0]
    for i in range(5):
        shape = (4,) + (int(grid.c_counts[i]),) * 2 + grid.s_shape
        ones.append(np.broadcast_to(1.0 + smesh, shape))
    g1 = PriceField(solver, ones)
    zero = PriceField(solver, [np.zeros_like(s) for s in ones])
    assert linear_growth_norm(g1, zero) == pytest.approx(1.0)

    # matches a brute-force scan over every node
    solver2 = VolterraSolver(m, claim, models, grid)
    f2 = solver2.step(f)
    brute = 0.0
    w = 1.0 / (1.0 + smesh)
    for i in range(5):
        diff = np.asarray(f2.slabs[i]) - np.asarray(f.slabs[i])
        brute = max(brute, float(np.max(np.abs(diff) * w)))
    assert linear_growth_norm(f2, f) == pytest.approx(brute, rel=1e-12)


def test_terminal_slab_is_exact_payoff():
    m, claim, models, grid = degenerate_setup(price_nodes=31, time_steps=6,
                                              age_nodes=4)
    field, _ = solve_price_field(m, claim, models, grid, tol=1e-3)
    pay = claim(grid.s_mesh())
    diff = field.slabs[-1] - pay[(None,) * 3]
    assert float(np.max(np.abs(diff))) == 0.0


def test_one_step_at_terminal_returns_payoff():
    m, claim, models, grid = degenerate_setup(price_nodes=31, time_steps=6,
                                              age_nodes=4)
    solver = VolterraSolver(m, claim, models, grid)
    stepped = solver.step(solver.initial_field())
    pay = claim(grid.s_mesh())
    assert float(np.max(np.abs(stepped.slabs[-1] - pay[(None,) * 3]))) == 0.0


def test_degenerate_regime_equals_frozen_price():
    m, claim, models, grid = degenerate_setup()
    field, report = solve_price_field(m, claim, models, grid, tol=1e-3)
    assert report.converged_at <= 2
    solver = VolterraSolver(m, claim, models, grid)
    rho_field = solver.initial_field()
    assert linear_growth_norm(field, rho_field) < 1e-3
    assert all(r < 1.0 for r in report.ratios)
    # age lookups on the diagonal boundary get clamped and reported
    assert report.age_clamp_events > 0
    assert report.error_budget is not None and report.error_budget > 0


def test_age_clamp_events_count_grid_geometry_once():
    # the clamp count is a property of the grid, so it may not depend on the
    # number of local iterations
    m, claim, models, grid = regime_setup(price_nodes=31, time_steps=8,
                                          age_nodes=4)
    runs = [solve_price_field(m, claim, models, grid, tol=tol)[1]
            for tol in (1e-2, 1e-6)]
    assert runs[0].iterations != runs[1].iterations
    assert runs[0].age_clamp_events > 0
    assert runs[0].age_clamp_events == runs[1].age_clamp_events


def test_linear_claim_fixed_point_exact():
    m = build_market(1, 2, 2, 0.04, np.array([0.08]), 0.25 * np.eye(1))
    claim = Claim("linear", weights=[1.0])
    h = HazardModel(2, {(1, 2): ConstantRate(0.4), (2, 1): ConstantRate(0.6)})
    grid = Grid(m, 1.0, np.array([[100.0]]),
                GridSpec(time_steps=10, price_nodes=41, age_nodes=4))
    field, report = solve_price_field(m, claim, [h, h], grid, tol=1e-7,
                                      settings=SolverSettings(gh_nodes=32))
    smesh = grid.s_mesh()[..., 0]
    worst = 0.0
    for i in range(11):
        target = smesh[(None,) * 3]
        worst = max(worst, float(np.max(np.abs(field.slabs[i] - target)
                                        / (1.0 + smesh))))
    assert worst < 1e-6


def test_positivity_and_envelope_preserved():
    m, claim, models, grid = regime_setup()
    field, _ = solve_price_field(m, claim, models, grid, tol=5e-4)
    smesh = grid.s_mesh()[..., 0]
    for i, slab in enumerate(field.slabs):
        assert float(np.min(slab)) >= 0.0
        gap = np.abs(slab - smesh[(None,) * 3])
        assert float(np.max(gap)) <= claim.c2 + 1e-6


def test_payoff_scaling_linearity():
    m, _, models, grid = regime_setup(price_nodes=41, time_steps=8, age_nodes=4)
    c1 = Claim("basket-call", weights=[1.0], strike=100.0)
    c3 = Claim("custom-piecewise-linear", weights=[1.0],
               knots=[0.0, 100.0], values=[0.0, 0.0], final_slope=3.0)
    f1, _ = solve_price_field(m, c1, models, grid, tol=1e-5)
    f3, _ = solve_price_field(m, c3, models, grid, tol=3e-5)
    for i in (0, 4, 8):
        np.testing.assert_allclose(3.0 * np.asarray(f1.slabs[i]), f3.slabs[i],
                                   rtol=2e-5, atol=2e-4)


def test_contraction_ratios_below_joint_survival_bound():
    m, claim, models, grid = regime_setup()
    solver = VolterraSolver(m, claim, models, grid)
    field, report = solver.solve(tol=1e-5)
    bound = report.contraction_bound
    assert 0.0 < bound < 1.0
    for r in report.ratios:
        assert r < 1.0
        assert r <= bound + 0.05


def test_no_convergence_raises_with_report():
    m, claim, models, grid = degenerate_setup(price_nodes=21, time_steps=4,
                                              age_nodes=3)
    with pytest.raises(NoConvergence) as err:
        solve_price_field(m, claim, models, grid, tol=1e-15, max_iter=2)
    assert err.value.report.iterations == 2


def test_solve_rejects_max_iter_below_one():
    m, claim, models, grid = degenerate_setup(price_nodes=21, time_steps=4,
                                              age_nodes=3)
    with pytest.raises(ConfigError, match="max_iter"):
        solve_price_field(m, claim, models, grid, tol=1e-3, max_iter=0)


def test_step_matches_conditional_law_route():
    """The solver's joint-survival form must agree with evaluating the
    operator through the conditional next-jump laws at sampled nodes."""
    m, claim, models, grid = regime_setup(price_nodes=41, time_steps=8,
                                          age_nodes=4)
    # same Gauss-Hermite order as the oracle's kernel_expectation (32),
    # so both routes quadrate the interpolated field at identical nodes
    solver = VolterraSolver(m, claim, models, grid,
                            SolverSettings(gh_nodes=32))
    base = solver.initial_field()
    stepped = solver.step(base)
    T = grid.horizon

    # field holding the linear part c1.s, used to translate between the
    # solver's excess-coordinate smoothing and a direct field expectation
    lin_grid = claim.c1[0] * grid.s_mesh()[..., 0]
    lin_slabs = [np.broadcast_to(lin_grid[(None,) * 3], s.shape)
                 for s in base.slabs]
    lin_field = PriceField(solver, lin_slabs)

    rng = np.random.default_rng(3)
    for _ in range(4):
        i = int(rng.integers(1, 8))
        t = float(grid.t_nodes[i])
        c = int(grid.c_counts[i])
        y_idx = tuple(int(rng.integers(0, c)) for _ in range(2))
        y = tuple(float(grid.age_nodes[a]) for a in y_idx)
        xi = int(rng.integers(0, 4))
        x = grid.x_tuples[xi]
        s_idx = int(rng.integers(15, 26))
        s = float(grid.s_axes[0][s_idx])

        state = CsmState(x, y)
        probs = next_jump_component_prob(models, state)
        rho = bsm_price_grid(m, claim, x, t, T, np.array([s]))
        total = 0.0
        for l in range(2):
            law = next_jump_time_law(models, state, l)
            total += probs[l] * rho * (1.0 - law.cdf(T - t))
            # v-integral: composite midpoint on the dt panels, matching the
            # solver's quadrature so the comparison isolates the law algebra
            for p in range(8 - i):
                v = (p + 0.5) * grid.dt
                pl = models[l].transition_probs(x[l], y[l] + v)
                inner = 0.0
                for j in range(1, 3):
                    if pl[j - 1] == 0.0:
                        continue
                    xp = x[:l] + (j,) + x[l + 1:]
                    yp = np.array([0.0 if mm == l else y[mm] + v
                                   for mm in range(2)])
                    kern = build_kernel(m, t, x, v)

                    def cont(sig):
                        B = sig.shape[0]
                        return base.values(np.full(B, t + v), sig,
                                           np.full(B, grid.x_index[xp]),
                                           np.tile(yp, (B, 1)))

                    def lin_interp(sig):
                        B = sig.shape[0]
                        return lin_field.values(np.full(B, t + v), sig,
                                                np.zeros(B, dtype=int),
                                                np.tile(yp, (B, 1)))
                    # the solver smooths the excess over c1.s and restores
                    # the linear part analytically; mirror that split here
                    lin_mean = math.exp(m.r(x) * v) * claim.c1[0] * s
                    value = kernel_expectation(kern, np.array([s]), cont) + lin_mean \
                        - kernel_expectation(kern, np.array([s]), lin_interp)
                    inner += pl[j - 1] * value
                total += probs[l] * grid.dt * math.exp(-m.r(x) * v) \
                    * law.pdf(v) * inner
        got = float(np.asarray(stepped.slabs[i])[(xi,) + y_idx + (s_idx,)])
        # the solver floors each slab at zero (positivity invariant)
        assert got == pytest.approx(max(total, 0.0), rel=2e-3, abs=2e-3)


def test_smoother_general_path_matches_diagonal():
    # the n-D tap builder on a diagonal model: one 2-D stencil over the
    # tensor nodes must agree with the per-axis path
    from regimehedge.volterra_pricer import _Smoother, _build_taps
    m = build_market(2, 2, 2, 0.03, np.zeros(2),
                     np.diag([0.2, 0.3]))
    claim = Claim("basket-call", weights=[0.5, 0.5], strike=100.0)
    grid = Grid(m, 1.0, np.array([[100.0, 100.0]]),
                GridSpec(time_steps=6, price_nodes=31, age_nodes=3))
    cov = m.a_integral(0.0, 0.25, (1, 1))
    zbar = 0.03 * 0.25 - 0.5 * np.diag(cov)
    chol = np.linalg.cholesky(cov)
    sm_d = _Smoother(zbar[None], chol[None], grid, 8)
    assert [t.ndim for t in sm_d.taps[0]] == [1, 1]
    xi, w = np.polynomial.hermite.hermgauss(8)
    xi = xi * math.sqrt(2.0)
    w = w / math.sqrt(math.pi)
    grids = np.meshgrid(xi, xi, indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    shifts = zbar + nodes @ chol.T
    sm_g = _Smoother(zbar[None], chol[None], grid, 8)
    sm_g.taps = [_build_taps(shifts[None], np.kron(w, w), grid.h)]
    assert [t.ndim for t in sm_g.taps[0]] == [2]

    rng = np.random.default_rng(0)
    arr = rng.uniform(0.0, 50.0, size=(2, grid.spec.price_nodes,
                                       grid.spec.price_nodes))
    out_d = sm_d.apply(arr, 0)
    out_g = sm_g.apply(arr, 0)
    np.testing.assert_allclose(out_d, out_g, rtol=1e-10, atol=1e-10)


def _ref_loop_apply(zbar, chol, grid, gh_nodes, arr, deriv_axis=None):
    """The per-node smoothing that the n-D stencil replaced: every tensor
    Gauss-Hermite node is an explicit multilinear blend of the edge-padded
    slab at its fractional shift, weighted by the node weight (times the
    node factor (L^-T xi)_d for the derivative along d)."""
    n = grid.n
    lead = arr.ndim - n
    nodes, weights = tensor_normal_nodes(n, gh_nodes)
    shifts = zbar + nodes @ chol.T
    factors = weights if deriv_axis is None \
        else weights * (nodes @ np.linalg.inv(chol)[:, deriv_axis])
    cells = shifts / np.asarray(grid.h)
    i0 = np.floor(cells).astype(int)
    pads = np.abs(i0).max(axis=0) + 2
    padded = np.pad(arr, [(0, 0)] * lead + [(p, p) for p in pads],
                    mode="edge")
    starts, fracs = (i0 + pads).tolist(), (cells - i0).tolist()
    size = arr.shape[lead:]
    out = np.zeros(arr.shape)
    for q, factor in enumerate(factors):
        piece = padded
        for d in range(n):
            start, f = starts[q][d], fracs[q][d]
            sl_lo = [slice(None)] * piece.ndim
            sl_hi = [slice(None)] * piece.ndim
            sl_lo[lead + d] = slice(start, start + size[d])
            sl_hi[lead + d] = slice(start + 1, start + 1 + size[d])
            piece = (1.0 - f) * piece[tuple(sl_lo)] + f * piece[tuple(sl_hi)]
        out += factor * piece
    return out


@pytest.mark.parametrize("case", ["n2_short", "n2_long", "n3_short",
                                  "n3_long", "wider_than_5_nodes"])
def test_correlated_stencil_matches_node_loop(case):
    # the correlated kernel is one n-D stencil; the per-node blend loop is
    # the reference, for the kernel and for its derivative along every axis
    from regimehedge.volterra_pricer import _Smoother
    n = 3 if case.startswith("n3") else 2
    vol = {2: [[0.25, 0.0], [0.12, 0.22]],
           3: [[0.2, 0.0, 0.0], [0.1, 0.25, 0.0], [-0.08, 0.15, 0.3]]}[n]
    nodes, span, v = {"n2_short": (21, 8.0, 0.02), "n2_long": (21, 8.0, 1.0),
                      "n3_short": (11, 8.0, 0.05), "n3_long": (11, 8.0, 1.0),
                      "wider_than_5_nodes": (5, 2.0, 1.0)}[case]
    vol = np.array(vol) * (3.0 if case == "wider_than_5_nodes" else 1.0)
    m = build_market(n, 2, 1, 0.03, np.full(n, 0.05), vol)
    grid = Grid(m, 1.0, np.full((1, n), 100.0),
                GridSpec(time_steps=2, price_nodes=nodes, age_nodes=2,
                         span_stds=span))
    kern = build_kernel(m, 0.0, (1,), np.array([v]))
    sm = _Smoother(kern.zbar, kern.chol, grid, 8)
    assert [t.ndim for t in sm.taps[0]] == [n]
    if case == "wider_than_5_nodes":
        assert max(sm.taps[0][0].shape) > nodes
    lead = (3, 4) if n == 2 else (2, 3)
    arr = np.random.default_rng(17).uniform(-5.0, 50.0,
                                            size=lead + grid.s_shape)
    for d in (None,) + tuple(range(n)):
        want = _ref_loop_apply(kern.zbar[0], kern.chol[0], grid, 8, arr, d)
        np.testing.assert_allclose(sm.apply(arr, 0, deriv_axis=d), want,
                                   rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(want)))


@st.composite
def _lower_triangular_kernel(draw):
    n = draw(st.integers(2, 3))
    diag = [draw(st.floats(0.05, 0.5)) for _ in range(n)]
    chol = np.diag(diag)
    for a in range(1, n):
        for b in range(a):
            sign = draw(st.sampled_from([-1.0, 1.0]))
            chol[a, b] = sign * draw(st.floats(0.01, 0.3))
    zbar = np.array([draw(st.floats(-0.2, 0.2)) for _ in range(n)])
    h = [draw(st.floats(0.02, 0.2)) for _ in range(n)]
    return zbar, chol, h, draw(st.integers(4, 10))


@settings(derandomize=True, database=None, deadline=None)
@given(case=_lower_triangular_kernel())
def test_correlated_taps_have_unit_mass_and_exact_first_moment(case):
    # splatting a node onto its cell's corners reproduces affine functions
    # of ln s, so the stencil keeps the rule's mass and first moment; the
    # derivative taps integrate constants to 0
    from regimehedge.volterra_pricer import _Smoother, _kernel_taps
    zbar, chol, h, gh = case
    n = len(zbar)
    grid = SimpleNamespace(n=n, h=h)
    sm = _Smoother(zbar[None], chol[None], grid, gh)
    taps, = sm.taps[0]
    assert taps.ndim == n
    nodes, w = tensor_normal_nodes(n, gh)
    assert abs(taps.sum() - 1.0) <= 1e-13
    shifts = zbar + nodes @ chol.T
    for d in range(n):
        offsets = np.arange(taps.shape[d]) - taps.shape[d] // 2
        moment = np.moveaxis(taps, d, -1).sum(
            axis=tuple(range(n - 1))) @ offsets * h[d]
        assert moment == pytest.approx(w @ shifts[:, d], rel=1e-12,
                                       abs=1e-13)
        d_taps, = _kernel_taps(zbar[None], chol[None], grid, gh, d)[0]
        assert abs(d_taps.sum()) <= 1e-12


def _interp_smoothing(arr, axes, shifts, weights):
    """Brute-force kernel smoothing: per log-price axis d, the sum over the
    Gauss-Hermite nodes of weights[d][q] times the line interpolated at
    ln s + shifts[d][q].  np.interp holds the end values beyond the axis."""
    out = arr
    for d, ax in enumerate(axes):
        moved = np.moveaxis(out, arr.ndim - len(axes) + d, -1)
        acc = np.zeros(moved.shape)
        for sh, w in zip(shifts[d], weights[d]):
            acc += w * np.apply_along_axis(
                lambda line: np.interp(ax + sh, ax, line), -1, moved)
        out = np.moveaxis(acc, -1, arr.ndim - len(axes) + d)
    return out


@pytest.mark.parametrize("case", ["one_asset", "drift_past_taps",
                                  "taps_wider_than_axis", "two_assets",
                                  "wide_window_161_nodes"])
def test_diagonal_smoother_matches_interp_oracle(case):
    from regimehedge.volterra_pricer import _Smoother
    if case == "one_asset":
        vol, nodes = 0.25 * np.eye(1), 41
        zbar, sd = np.array([0.03 * 0.25 - 0.5 * 0.0625 * 0.25]), [0.125]
    elif case == "drift_past_taps":
        # sigma = 0.02, r = 0.5, v = 1: every node shifts the same way, by
        # more than the nodes spread
        vol, nodes = 0.2 * np.eye(1), 61
        zbar, sd = np.array([0.5 - 0.5 * 0.02 ** 2]), [0.02]
    elif case == "taps_wider_than_axis":
        vol, nodes = 0.1 * np.eye(1), 5
        zbar, sd = np.array([-0.9]), [0.6]
    elif case == "wide_window_161_nodes":
        # the nodes spread over more than a third of the axis, so the
        # smoother takes the dense product
        vol, nodes = 0.25 * np.eye(1), 161
        zbar, sd = np.array([-0.1]), [0.5]
    else:
        vol, nodes = np.diag([0.2, 0.3]), 21
        zbar, sd = np.array([-0.01, 0.5 - 0.5 * 0.02 ** 2]), [0.1, 0.02]
    n = len(sd)
    m = build_market(n, 2, 1, 0.03, np.zeros(n), vol)
    grid = Grid(m, 1.0, np.full((1, n), 100.0),
                GridSpec(time_steps=2, price_nodes=nodes, age_nodes=2))
    sm = _Smoother(zbar[None], np.diag(sd)[None], grid, 8)
    assert [t.ndim for t in sm.taps[0]] == [1] * n
    xi, w = np.polynomial.hermite.hermgauss(8)
    xi, w = xi * math.sqrt(2.0), w / math.sqrt(math.pi)
    if case == "drift_past_taps":
        spread = sd[0] * np.max(np.abs(xi))
        assert zbar[0] - spread > spread + grid.h[0]
    if case == "taps_wider_than_axis":
        assert len(sm.taps[0][0]) > nodes
    if case == "wide_window_161_nodes":
        assert 3 * len(sm.taps[0][0]) >= nodes

    shifts = [zbar[d] + sd[d] * xi for d in range(n)]
    arr = np.random.default_rng(3).uniform(-5.0, 50.0,
                                           size=(2, 3) + grid.s_shape)
    tol = dict(rtol=1e-12, atol=1e-12 * np.max(np.abs(arr)))
    np.testing.assert_allclose(
        sm.apply(arr, 0),
        _interp_smoothing(arr, grid.lns_axes, shifts, [w] * n),
        **tol)
    for d in range(n):
        wts = [w * xi / sd[d] if e == d else w for e in range(n)]
        np.testing.assert_allclose(
            sm.apply(arr, 0, deriv_axis=d),
            _interp_smoothing(arr, grid.lns_axes, shifts, wts), **tol)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_shift_axis_matches_clamped_interp(axis):
    from regimehedge.volterra_pricer import _shift_axis
    arr = np.random.default_rng(5).uniform(-1.0, 1.0, size=(6, 7, 8))
    size = arr.shape[axis]
    count = size - 2
    # the shifts whose rows all lie on the axis, whole and fractional
    for cells in (0.0, 0.3, 1.0, 1.75, 2.0):
        want = np.apply_along_axis(
            lambda line: np.interp(np.arange(count) + cells,
                                   np.arange(size), line), axis, arr)
        got = _shift_axis(arr, axis, cells, count)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("n", [2, 3])
def test_price_terms_take_each_mixed_derivative_once(n):
    # one term per pair l < l' must equal the sum over ordered pairs, where
    # (l, l') differentiates d_l phi along l' and (l', l) the reverse
    from regimehedge.volterra_pricer import (_add_price_terms, _d1_ds,
                                             _d2_ds, _on_axis)
    rng = np.random.default_rng(40 + n)
    s_axes = [np.exp(np.linspace(3.5, 5.5, 7 + 2 * d)) for d in range(n)]
    sub = rng.uniform(0.0, 50.0, size=(2, 3) + tuple(len(a) for a in s_axes))
    b = rng.uniform(-0.3, 0.3, size=(n, n))
    a = b @ b.T
    rx = 0.04
    res0 = rng.normal(size=sub.shape)
    # the terms are added into the array passed, in place
    got = _add_price_terms(res0.copy(), sub, s_axes, rx, a)

    lead = sub.ndim - n
    want = res0
    d1s = []
    for l in range(n):
        ax = lead + l
        d1, d2 = _d1_ds(sub, s_axes[l], ax), _d2_ds(sub, s_axes[l], ax)
        d1s.append(d1)
        pad = [(0, 0)] * sub.ndim
        pad[ax] = (1, 1)
        smid = _on_axis(s_axes[l][1:-1], ax, sub.ndim)
        want = want + rx * np.pad(smid * d1, pad) \
            + 0.5 * a[l, l] * np.pad(smid ** 2 * d2, pad)
    for l in range(n):
        for lp in range(n):
            if l == lp:
                continue
            axl, axp = lead + l, lead + lp
            dcross = _d1_ds(d1s[l], s_axes[lp], axp)
            svl = _on_axis(s_axes[l][1:-1], axl, sub.ndim)
            svp = _on_axis(s_axes[lp][1:-1], axp, sub.ndim)
            pad = [(0, 0)] * sub.ndim
            pad[axl] = (1, 1)
            pad[axp] = (1, 1)
            want = want + 0.5 * a[l, lp] * np.pad(svl * svp * dcross, pad)
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(want)))


def test_pde_residual_linear_claim_tiny():
    m = build_market(1, 2, 2, 0.04, np.array([0.08]), 0.25 * np.eye(1))
    claim = Claim("linear", weights=[1.0])
    h = HazardModel(2, {(1, 2): ConstantRate(0.4), (2, 1): ConstantRate(0.6)})
    grid = Grid(m, 1.0, np.array([[100.0]]),
                GridSpec(time_steps=10, price_nodes=41, age_nodes=4))
    field, _ = solve_price_field(m, claim, [h, h], grid, tol=1e-7,
                                 settings=SolverSettings(gh_nodes=32))
    res = pde_residual(field)
    assert res.max_scaled < 1e-6


def test_pde_residual_reports_unchecked_slabs_as_none():
    m, claim, models, grid = regime_setup(price_nodes=41, time_steps=12,
                                          age_nodes=4)
    field, _ = solve_price_field(m, claim, models, grid, tol=1e-3)
    res = pde_residual(field, maturity_margin_steps=1)
    by_time = res.to_dict()["max_by_time"]
    assert len(by_time) == 11
    # early slabs store too few ages for any age to advance by dt inside
    # the next slab, so none of their nodes is checked
    unchecked = [v for v in by_time if v is None]
    assert 0 < len(unchecked) < len(by_time)
    assert by_time[:len(unchecked)] == unchecked
    checked = by_time[len(unchecked):]
    assert all(math.isfinite(v) for v in checked)
    assert max(checked) == res.max_scaled


def test_pde_residual_keeps_the_ages_that_advance_inside_the_next_slab(
        monkeypatch):
    # dt = dy (T = 1, 4 steps, 5 age nodes): the characteristic moves the
    # ages by one whole cell, the shift's view path (f = 0).  Each slab
    # keeps the ages whose advance by dt stays inside the next slab, counted
    # here on the age nodes themselves, and every shift reads stored rows
    from regimehedge import volterra_pricer
    m, claim, models, grid = regime_setup(price_nodes=21, time_steps=4,
                                          age_nodes=5)
    assert grid.dt == grid.dy
    field, _ = solve_price_field(m, claim, models, grid, tol=1e-3)
    shift, calls = volterra_pricer._shift_axis, []

    def spy(arr, axis, cells, count):
        out = shift(arr, axis, cells, count)
        assert out.shape[axis] == count
        calls.append((arr.shape[axis], cells, count))
        return out
    monkeypatch.setattr(volterra_pricer, "_shift_axis", spy)
    res = pde_residual(field)
    want = [int(np.sum(grid.age_nodes[:c] + grid.dt
                       <= grid.age_nodes[c_next - 1] + 1e-12))
            for c, c_next in zip(grid.c_counts[:-1], grid.c_counts[1:])]
    assert want == [1, 2, 3, 4]
    # component 1 ages in both states and moves; component 0 is memoryless
    per_slab = len(grid.x_tuples)
    assert calls == [(int(grid.c_counts[i + 1]), 1.0, keep)
                     for i, keep in enumerate(want) for _ in range(per_slab)]
    assert all(v is not None for v in res.max_by_time)
    # each tuple's stored rows stand for keep ** 2 nodes, on the 17
    # interior price nodes
    assert res.n_nodes == sum(per_slab * keep ** 2 * 17 for keep in want)


def test_pde_residual_first_order_in_dt():
    m, claim, models, _ = degenerate_setup()
    reports = []
    for M, S in ((20, 161), (40, 321)):
        grid = Grid(m, 1.0, np.array([[100.0]]),
                    GridSpec(time_steps=M, price_nodes=S, age_nodes=4))
        field, _ = solve_price_field(m, claim, models, grid, tol=1e-3)
        margin = max(1, round(0.15 * M))
        reports.append(pde_residual(field, maturity_margin_steps=margin))
    ratio = reports[0].mean_scaled / reports[1].mean_scaled
    assert ratio >= 1.7
    assert reports[1].max_scaled < 5e-2


def test_two_discretizations_agree_within_budgets():
    m, claim, models, _ = regime_setup()
    pt = (0.0, np.array([100.0]), (1, 1), np.array([0.0, 0.0]))
    vals, budgets = [], []
    for M, S, A in ((16, 61, 5), (24, 91, 7)):
        grid = Grid(m, 1.0, np.array([[100.0]]),
                    GridSpec(time_steps=M, price_nodes=S, age_nodes=A))
        field, rep = solve_price_field(m, claim, models, grid, tol=1e-4)
        vals.append(field.value(*pt))
        budgets.append(rep.error_budget)
    scale = 1.0 + 100.0
    assert abs(vals[0] - vals[1]) / scale <= budgets[0] + budgets[1]


def test_fresh_and_warm_solvers_step_alike():
    # a fresh solver builds its frozen-regime slabs and survival tables on
    # the first step; one that built them for the initial field reuses them
    m, claim, models, grid = degenerate_setup(price_nodes=21, time_steps=4,
                                              age_nodes=3)
    solver = VolterraSolver(m, claim, models, grid)
    f0 = solver.initial_field()
    f1 = VolterraSolver(m, claim, models, f0.grid).step(f0)
    f1b = solver.step(f0)
    for a, b in zip(f1.slabs, f1b.slabs):
        np.testing.assert_array_equal(a, b)


def test_lumped_three_state_components_match_two_state_model():
    # states 2 and 3 of each 3-state component share their coefficients and
    # their exit to 1, and 2 <-> 3 is omitted, so {2, 3} lumps into one
    # state entered at the summed rate: the grid solver, the hedge pass and
    # the PDE residual must agree with the lumped 2-state model tuple by
    # tuple
    from regimehedge.hedging import hedge_field

    def model(k):
        def rate(x):
            return 0.02 if x[0] == 1 else 0.05

        def vol(x):
            return (0.2 if x[1] == 1 else 0.32) * np.eye(1)
        return build_market(1, k, 2, rate, np.array([0.07]), vol)

    enter = [(0.4, 0.3), (0.2, 0.5)]     # per component: 1 -> 2, 1 -> 3
    leave = [0.6, 0.8]                   # per component: 2 -> 1 and 3 -> 1
    full = [HazardModel(3, {(1, 2): ConstantRate(a), (1, 3): ConstantRate(b),
                            (2, 1): ConstantRate(c), (3, 1): ConstantRate(c)})
            for (a, b), c in zip(enter, leave)]
    lumped = [HazardModel(2, {(1, 2): ConstantRate(a + b),
                              (2, 1): ConstantRate(c)})
              for (a, b), c in zip(enter, leave)]
    claim = Claim("basket-call", weights=[1.0], strike=100.0)
    spec = GridSpec(time_steps=8, price_nodes=41, age_nodes=4)
    runs = []
    for k, models in ((3, full), (2, lumped)):
        m = model(k)
        grid = Grid(m, 1.0, np.array([[100.0]]), spec)
        field, _ = solve_price_field(m, claim, models, grid, tol=1e-6)
        runs.append((grid, field, hedge_field(field),
                     pde_residual(field, maturity_margin_steps=1)))
    (g3, f3, h3, r3), (g2, f2, h2, r2) = runs
    lump = [g2.x_index[tuple(min(v, 2) for v in x)] for x in g3.x_tuples]
    for i in range(spec.time_steps + 1):
        np.testing.assert_allclose(f3.slabs[i], np.asarray(f2.slabs[i])[lump],
                                   rtol=0, atol=1e-10)
        np.testing.assert_allclose(h3.xi[i], np.asarray(h2.xi[i])[lump],
                                   rtol=0, atol=1e-10)
    assert r3.n_nodes == 9 * r2.n_nodes // 4
    assert r3.max_scaled == pytest.approx(r2.max_scaled, rel=1e-9)
    for a, b in zip(r3.max_by_time, r2.max_by_time):
        assert (a is None and b is None) or a == pytest.approx(b, rel=1e-9)


def test_far_and_near_panels_sum_to_the_full_switch_branch():
    m, claim, models, grid = regime_setup(price_nodes=31, time_steps=8,
                                          age_nodes=4)
    solver = VolterraSolver(m, claim, models, grid)
    field, _ = solver.solve(tol=1e-3)
    M = grid.spec.time_steps
    stack = field.stacked()
    for i in (0, 3, M - 2, M - 1):
        full, = solver.switch_branch(i, stack)
        far, = solver.switch_branch(i, stack, panels=range(1, M - i))
        near, = solver.switch_branch(i, stack, panels=range(1))
        scale = max(float(np.max(np.abs(part))) for part in full)
        for f_part, n_part, part in zip(far, near, full):
            np.testing.assert_allclose(f_part + n_part, part, rtol=1e-13,
                                       atol=1e-13 * scale)
            if i == M - 1:
                assert not np.any(f_part)


def test_report_residual_is_one_global_application():
    # the kept iterate of each slab carries its exact residual, so the
    # report's residual is |T phi - phi| without a further sweep
    m, claim, models, grid = regime_setup(price_nodes=31, time_steps=8,
                                          age_nodes=4)
    solver = VolterraSolver(m, claim, models, grid)
    field, report = solver.solve(tol=1e-4)
    assert 0.0 < report.residual < 1e-4
    assert report.converged_at <= report.iterations == len(report.deltas)
    assert report.ratios and all(r < 1.0 for r in report.ratios)
    assert linear_growth_norm(solver.step(field), field) \
        == pytest.approx(report.residual, rel=1e-12, abs=1e-16)


def test_march_applies_step_slab_by_slab(monkeypatch):
    # every local application of the march is one call of step(field, i),
    # from the last slab back, at least _MIN_REPORT_ITERS per slab
    from regimehedge.volterra_pricer import _MIN_REPORT_ITERS
    m, claim, models, grid = regime_setup(price_nodes=31, time_steps=8,
                                          age_nodes=4)
    calls = []
    original = VolterraSolver.step

    def spy(self, field, i=None, *args):
        calls.append(i)
        return original(self, field, i, *args)

    monkeypatch.setattr(VolterraSolver, "step", spy)
    _, report = solve_price_field(m, claim, models, grid, tol=1e-4)
    M = grid.spec.time_steps
    assert calls == sorted(calls, reverse=True)
    assert set(calls) == set(range(M))
    assert len(calls) >= _MIN_REPORT_ITERS * M
    assert max(calls.count(i) for i in range(M)) == report.iterations


def test_marched_field_within_certificate_of_picard_reference():
    m, claim, models, grid = regime_setup(price_nodes=31, time_steps=8,
                                          age_nodes=4)
    solver = VolterraSolver(m, claim, models, grid)
    field, report = solver.solve(tol=1e-3)
    ref = solver.initial_field()
    for _ in range(100):
        nxt = solver.step(ref)
        done = linear_growth_norm(nxt, ref) < 1e-10
        ref = nxt
        if done:
            break
    assert done
    gap = linear_growth_norm(field, ref)
    assert 0.0 < gap <= report.residual / (1.0 - report.contraction_bound)


def test_field_and_hedges_do_not_depend_on_memoryless_ages():
    # in a state whose exit rates are constant in age the holding time is
    # exponential and a jump resets the age, so neither the price nor the
    # hedge of a regime tuple can depend on the age of a component in a
    # memoryless state (the Markov-modulated case inside the semi-Markov
    # model); C3's component 0 is memoryless in both states, components 1
    # and 2 in state 2
    from regimehedge import acceptance
    from regimehedge.hedging import hedge_field
    field = acceptance._bundle_c3("fast")["field"]
    g = field.grid
    models = field.solver.models
    hf = hedge_field(field)
    checked = 0
    for i, slab in enumerate(field.slabs):
        fulls = [np.asarray(a) for a in (slab, hf.xi[i], hf.eps[i])]
        for xi, x in enumerate(g.x_tuples):
            axes = [m for m, h in enumerate(models) if h.memoryless(x[m])]
            for arr in (full[xi] for full in fulls):
                for m in axes:
                    row0 = arr[(slice(None),) * m + (slice(0, 1),)]
                    spread = float(np.max(np.abs(arr - row0)))
                    assert spread <= 1e-13 * np.max(np.abs(arr))
                    assert np.array_equal(arr,
                                          np.broadcast_to(row0, arr.shape))
                    checked += 1
    assert checked == 3 * len(field.slabs) * 16

    # the layout: a tuple's stored arrays have one row exactly on its
    # memoryless axes, so the slabs store the cells the field depends on
    depends = stored = grid_cells = 0
    for i, slab in enumerate(field.slabs):
        c = int(g.c_counts[i])
        assert slab.shape == (8,) + (c,) * 3 + g.s_shape
        for xi, x in enumerate(g.x_tuples):
            want = tuple(1 if h.memoryless(x[m]) else c
                         for m, h in enumerate(models))
            for full in (slab, hf.xi[i], hf.eps[i]):
                assert full[xi].shape[:3] == want
            depends += math.prod(want + g.s_shape)
        stored += sum(part.size for part in slab.parts)
        grid_cells += math.prod(slab.shape)
    assert stored == depends
    assert stored < grid_cells


def test_field_lookup_interpolation_and_extrapolation():
    m, claim, models, grid = degenerate_setup(price_nodes=41, time_steps=8,
                                              age_nodes=4)
    field, _ = solve_price_field(m, claim, models, grid, tol=1e-3)
    # beyond the top price edge the lookup extends with slope c1
    s_big = np.array([[math.exp(grid.lns_axes[0][-1]) * 2.0]])
    edge = np.array([[math.exp(grid.lns_axes[0][-1])]])
    v_big = field.values(np.array([0.5]), s_big, np.array([0]),
                         np.array([[0.2, 0.2]]))
    v_edge = field.values(np.array([0.5]), edge, np.array([0]),
                          np.array([[0.2, 0.2]]))
    assert v_big[0] == pytest.approx(v_edge[0] + (s_big[0, 0] - edge[0, 0]),
                                     rel=1e-9)
    # terminal queries return the payoff exactly
    vT = field.values(np.array([1.0]), np.array([[137.0]]), np.array([2]),
                      np.array([[0.3, 0.9]]))
    assert vT[0] == pytest.approx(37.0, abs=1e-12)


# ---------------------------------------------------------------------------
# The bulk switch branch against a per-edge reference
# ---------------------------------------------------------------------------

def _ref_build_taps(shifts, weights, h):
    """One kernel's taps, built on their own (the per-panel construction):
    shifts (Q,) on one axis of spacing h, or (Q, k) on k axes of spacings
    h.  Each weight is added to the 2^k corners of its cell, corner by
    corner (all lo first), with np.add.at."""
    cells = np.asarray(shifts, dtype=float) / np.asarray(h)
    cells = cells.reshape(len(cells), -1)
    i0 = np.floor(cells).astype(int)
    frac = cells - i0
    half = np.maximum(-i0.min(axis=0), i0.max(axis=0) + 1)
    taps = np.zeros(tuple(2 * half + 1))
    for corner in itertools.product((0, 1), repeat=cells.shape[1]):
        np.add.at(taps, tuple((i0 + half + corner).T),
                  weights * np.where(corner, frac, 1.0 - frac).prod(axis=1))
    return taps


def _ref_slab_tables(solver, i):
    """Per panel and regime tuple: a smoother built on its own and one
    (l, xpi, weight) entry per switch edge, each weight built from its own
    joint-survival and rate evaluation."""
    from regimehedge.volterra_pricer import _Smoother, _on_axis
    g = solver.grid
    nc = g.n_components
    c = int(g.c_counts[i])
    y_pad = (...,) + (None,) * g.n
    mass = np.zeros((len(g.x_tuples),) + (c,) * nc)
    v_mid = solver.v_mid[:g.spec.time_steps - i]
    kerns = [build_kernel(solver.market, g.t_nodes[i], x, v_mid)
             for x in g.x_tuples]
    tables = []
    for p, v in enumerate(v_mid):
        ages = g.age_nodes[:c] + v
        panel = []
        for xi, (x, kern) in enumerate(zip(g.x_tuples, kerns)):
            log_js = sum(_on_axis(solver.dlam[(m, x[m])][:c, 2 * p + 1], m, nc)
                         for m in range(nc))
            js = np.exp(-log_js)
            sm = _Smoother(kern.zbar[p:p + 1], kern.chol[p:p + 1], g,
                           solver.settings.gh_nodes)
            edges = []
            for l, _, xpi, fam in solver.edges[xi]:
                wt = g.dt * js * _on_axis(fam.rate(ages), l, nc)
                mass[xi] += wt
                edges.append((l, xpi, wt))
            panel.append((sm, edges))
        tables.append(panel)
    js_T = np.empty_like(mass)
    for xi, x in enumerate(g.x_tuples):
        js_T[xi] = np.exp(-sum(
            _on_axis(solver.dlam[(m, x[m])][:c, 2 * len(v_mid)], m, nc)
            for m in range(nc)))
    kappa = np.where(mass > 1e-300,
                     (1.0 - js_T) / np.maximum(mass, 1e-300), 1.0)
    for v, panel in zip(v_mid, tables):
        for xi, (sm, edges) in enumerate(panel):
            scale = kappa[xi] * math.exp(-solver.market.r(g.x_tuples[xi]) * v)
            panel[xi] = (sm, [(l, xpi, (scale * wt)[y_pad])
                              for l, xpi, wt in edges])
    return tables


def _ref_gather(solver, slabs, i, p, l):
    """Each bracketing slab moved on its own by the whole cells i0 along
    every age axis but l (l collapsed to age 0), its clamped rows copied
    out, then the mean of the two blended by the fraction once per axis."""
    g = solver.grid
    c = int(g.c_counts[i])
    cells = solver.v_mid[p] / g.dy
    i0 = math.floor(cells)
    f = cells - i0
    axes = [1 + m for m in range(g.n_components) if m != l]
    pieces = []
    for side in (i + p, i + p + 1):
        sel = [slice(None)] * slabs[side].ndim
        sel[1 + l] = slice(0, 1)
        arr = slabs[side][tuple(sel)]
        for ax in axes:
            arr = np.take(arr, np.minimum(np.arange(c + 1) + i0,
                                          arr.shape[ax] - 1), axis=ax)
        pieces.append(arr)
    mean = 0.5 * (pieces[0] + pieces[1])
    for ax in axes:
        mean = (1.0 - f) * np.take(mean, np.arange(c), axis=ax) \
            + f * np.take(mean, np.arange(1, c + 1), axis=ax)
    return mean


def _ref_switch_branch(solver, i, slabs, axes):
    """The switch branch with one gather per (panel, component) and one
    smoothing and weighted add per (panel, tuple, edge): against the kernel
    for axis None, against its s_m-derivative over s_m for axis m."""
    g = solver.grid
    tables = _ref_slab_tables(solver, i)
    c = int(g.c_counts[i])
    spots = g.s_mesh()
    accs = [np.zeros((len(g.x_tuples),) + (c,) * g.n_components + g.s_shape)
            for _ in axes]
    for p in range(len(tables)):
        gathered = [_ref_gather(solver, slabs, i, p, l)
                    for l in range(g.n_components)]
        for xi, (sm, edges) in enumerate(tables[p]):
            for l, xpi, w in edges:
                excess = gathered[l][xpi] - solver._lin
                for acc, axis in zip(accs, axes):
                    smoothed = sm.apply(excess, 0, deriv_axis=axis)
                    if axis is not None:
                        smoothed = smoothed / spots[..., axis]
                    acc[xi] += w * smoothed
    return accs


def _switch_case(case):
    if case == "1_asset_2_components":
        m, claim, models, grid = regime_setup(price_nodes=31, time_steps=8,
                                              age_nodes=4)
        return m, claim, models, grid, SolverSettings()
    if case in ("2_assets_3_components", "2_assets_correlated"):
        corr = case == "2_assets_correlated"

        def vol(x):
            s1, s2 = (0.2, 0.25) if x[1] == 1 else (0.3, 0.32)
            return np.array([[s1, 0.0], [0.12 if corr else 0.0, s2]])
        nc = 2 if corr else 3
        m = build_market(2, 2, nc, lambda x: 0.02 if x[0] == 1 else 0.05,
                         np.array([0.06, 0.07]), vol)
        claim = Claim("basket-call", weights=[0.5, 0.5], strike=100.0)
        models = [
            HazardModel(2, {(1, 2): ConstantRate(0.25),
                            (2, 1): ConstantRate(0.35)}),
            HazardModel(2, {(1, 2): WeibullRate(0.4, 2.0),
                            (2, 1): ConstantRate(0.3)}),
            HazardModel(2, {(1, 2): AffineRate(0.2, 0.15),
                            (2, 1): ConstantRate(0.25)}),
        ][:nc]
        grid = Grid(m, 1.0, np.array([[100.0, 100.0]]),
                    GridSpec(time_steps=6, price_nodes=13, age_nodes=4))
        return m, claim, models, grid, SolverSettings(gh_nodes=6)
    if case == "markov_modulated":
        # every state memoryless (constant, affine with b = 0, Weibull with
        # kappa = 1), so every age axis of every tuple collapses
        def vol(x):
            return np.diag([0.2 if x[0] == 1 else 0.3,
                            0.25 if x[1] == 1 else 0.32])
        m = build_market(2, 2, 2, lambda x: 0.02 if x[1] == 1 else 0.05,
                         np.array([0.06, 0.07]), vol)
        claim = Claim("basket-call", weights=[0.5, 0.5], strike=100.0)
        models = [
            HazardModel(2, {(1, 2): ConstantRate(0.4),
                            (2, 1): AffineRate(0.3, 0.0)}),
            HazardModel(2, {(1, 2): WeibullRate(0.5, 1.0),
                            (2, 1): ConstantRate(0.6)}),
        ]
        grid = Grid(m, 1.0, np.array([[100.0, 100.0]]),
                    GridSpec(time_steps=6, price_nodes=13, age_nodes=4))
        return m, claim, models, grid, SolverSettings(gh_nodes=6)
    # one 3-state component: every (tuple, component) pair has two edges
    m = build_market(1, 3, 1, lambda x: 0.02 + 0.01 * x[0], np.array([0.07]),
                     lambda x: (0.15 + 0.05 * x[0]) * np.eye(1))
    claim = Claim("basket-call", weights=[1.0], strike=100.0)
    models = [HazardModel(3, {(1, 2): WeibullRate(0.6, 1.5),
                              (1, 3): ConstantRate(0.3),
                              (2, 1): AffineRate(0.2, 0.4),
                              (2, 3): ConstantRate(0.5),
                              (3, 1): ConstantRate(0.7),
                              (3, 2): WeibullRate(0.5, 2.0)})]
    grid = Grid(m, 1.0, np.array([[100.0]]),
                GridSpec(time_steps=8, price_nodes=31, age_nodes=4))
    return m, claim, models, grid, SolverSettings()


@pytest.mark.parametrize("case", ["1_asset_2_components",
                                  "2_assets_3_components",
                                  "2_assets_correlated",
                                  "one_3_state_component",
                                  "markov_modulated"])
def test_switch_branch_matches_per_edge_reference(case):
    from regimehedge.volterra_pricer import _Smoother
    m, claim, models, grid, settings = _switch_case(case)
    solver = VolterraSolver(m, claim, models, grid, settings)
    if case == "one_3_state_component":
        assert all(len(edges) == 2 for edges in solver.edges)
    if case == "markov_modulated":
        assert [frozen for _, frozen in solver.groups] == [(True, True)]
    if case == "2_assets_correlated":
        chol = np.linalg.cholesky(m.a_integral(0.0, 0.5, (1, 2)))
        sm = _Smoother(np.zeros((1, 2)), chol[None], grid, 6)
        assert [t.ndim for t in sm.taps[0]] == [2]
    field, _ = solver.solve(tol=1e-3)
    axes = (None,) + tuple(range(grid.n))
    # the reference runs on the full broadcast of the stored slabs
    full = [np.asarray(slab) for slab in field.slabs]
    for i in range(grid.spec.time_steps):
        got = solver.switch_branch(i, field.stacked(), axes)
        want = _ref_switch_branch(solver, i, full, axes)
        c = int(grid.c_counts[i])
        for g_parts, w_arr in zip(got, want):
            # the one member of the stack
            g_parts = [part[0] for part in g_parts]
            np.testing.assert_allclose(Slab(solver, g_parts, c), w_arr,
                                       rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(w_arr)))


def test_bulk_taps_equal_per_panel_taps():
    # a broad kernel on a 5-node axis: the late panels' taps are wider than
    # the axis
    from regimehedge.quadrature import gauss_hermite_standard
    from regimehedge.volterra_pricer import _Smoother, _kernel_taps
    m = build_market(2, 2, 1, 0.03, np.zeros(2), np.diag([0.9, 0.2]))
    grid = Grid(m, 1.0, np.full((1, 2), 100.0),
                GridSpec(time_steps=8, price_nodes=5, age_nodes=2,
                         span_stds=2.0))
    v_mid = (np.arange(8) + 0.5) * grid.dt
    kern = build_kernel(m, 0.0, (1,), v_mid)
    sm = _Smoother(kern.zbar, kern.chol, grid, 16)
    assert len(sm.taps) == 8
    assert all([t.ndim for t in taps] == [1, 1] for taps in sm.taps)
    widths = [len(taps[0]) for taps in sm.taps]
    assert min(widths) <= grid.spec.price_nodes < max(widths)
    derivs = [_kernel_taps(kern.zbar, kern.chol, grid, 16, d)
              for d in range(2)]
    xi, w = gauss_hermite_standard(16)
    for p, taps in enumerate(sm.taps):
        for d in range(2):
            shifts = kern.zbar[p, d] + kern.chol[p, d, d] * xi
            want = _ref_build_taps(shifts, w, grid.h[d])
            assert taps[d].shape == want.shape
            assert np.array_equal(taps[d], want)
            want_d = _ref_build_taps(shifts, w * xi / kern.chol[p, d, d],
                                     grid.h[d])
            assert np.array_equal(derivs[d][p][0], want_d)


def _mixed_stack():
    """A kernel stack whose off-diagonal vol is zero on its first two
    panels and nonzero on the last two, on a two-asset grid."""
    m = build_market(2, 2, 1, 0.03, np.zeros(2), np.diag([0.3, 0.2]))
    grid = Grid(m, 1.0, np.full((1, 2), 100.0),
                GridSpec(time_steps=4, price_nodes=11, age_nodes=2))
    v = np.array([0.1, 0.2, 0.4, 0.8])
    chol = np.zeros((4, 2, 2))
    chol[:, 0, 0], chol[:, 1, 1] = 0.3 * np.sqrt(v), 0.2 * np.sqrt(v)
    chol[2:, 1, 0] = 0.1 * np.sqrt(v[2:])
    return grid, SimpleNamespace(zbar=-0.01 * v[:, None] * np.ones(2),
                                 chol=chol)


def test_bulk_taps_keep_each_panels_path():
    # each panel of a mixed stack keeps the taps, 1-D or n-D, that a
    # smoother built on its own gets
    from regimehedge.volterra_pricer import _Smoother
    grid, kern = _mixed_stack()
    sm = _Smoother(kern.zbar, kern.chol, grid, 8)
    assert [len(taps) == 2 for taps in sm.taps] == [True, True, False, False]
    for p, taps in enumerate(sm.taps):
        alone = _Smoother(kern.zbar[p:p + 1], kern.chol[p:p + 1], grid, 8)
        assert len(alone.taps[0]) == len(taps)
        assert all(np.array_equal(a, b) for a, b in zip(taps, alone.taps[0]))


def test_bulk_derivative_taps_equal_per_kernel_taps():
    # the s_m-derivative taps of a mixed stack, built in bulk for every axis
    # m: a diagonal panel's 1-D array on axis m (weights w xi / L_mm), a
    # correlated panel's n-D array (weights w (L^-T xi)_m), each equal to
    # its kernel's taps built on their own
    from regimehedge.volterra_pricer import _kernel_taps
    grid, kern = _mixed_stack()
    for m in range(2):
        got = _kernel_taps(kern.zbar, kern.chol, grid, 8, m)
        for p, (zbar, chol) in enumerate(zip(kern.zbar, kern.chol)):
            if p < 2:
                xi, w = tensor_normal_nodes(1, 8)
                want = _ref_build_taps(zbar[m] + chol[m, m] * xi[:, 0],
                                       w * xi[:, 0] / chol[m, m], grid.h[m])
            else:
                xi, w = tensor_normal_nodes(2, 8)
                want = _ref_build_taps(zbar + xi @ chol.T,
                                       w * (xi @ np.linalg.inv(chol)[:, m]),
                                       grid.h)
            d_tap, = got[p]
            assert d_tap.shape == want.shape
            assert np.array_equal(d_tap, want)


def _interp_ages(arr, axes, cells, count):
    """arr interpolated along each of axes at the nodes k + cells, k < count,
    holding its end values beyond the stored ages."""
    for ax in axes:
        size = arr.shape[ax]
        arr = np.apply_along_axis(
            lambda line: np.interp(np.arange(count) + cells,
                                   np.arange(size), line), ax, arr)
    return arr


@pytest.mark.parametrize("clamps", ["neither", "one"])
def test_gather_matches_per_slab_interp(clamps):
    m, claim, models, grid = regime_setup(price_nodes=11, time_steps=16,
                                          age_nodes=5)
    # component 1's hazards age in both states, so no state is memoryless
    # and every age axis is stored in full and moved
    solver = VolterraSolver(m, claim, [models[1]] * 2, grid)
    rng = np.random.default_rng(8)
    slabs = [rng.uniform(0.0, 50.0, (4, int(c), int(c)) + grid.s_shape)
             for c in grid.c_counts]
    stored = PriceField(solver, [Slab(solver, [slab], int(grid.c_counts[i]))
                                 for i, slab in enumerate(slabs)]).stacked()
    cc = grid.c_counts
    found = 0
    for i in range(16):
        c = int(cc[i])
        for p in range(16 - i):
            cells = solver.v_mid[p] / grid.dy
            top = math.floor(cells) + c     # the highest age row read
            clamped = [top > int(cc[side]) - 1 for side in (i + p, i + p + 1)]
            if sum(clamped) != {"neither": 0, "one": 1}[clamps]:
                continue
            found += 1
            for l in range(2):
                # the reset axis l is read at age 0 and dropped
                want = 0.5 * sum(
                    _interp_ages(slabs[side][:, 0] if l == 0
                                 else slabs[side][:, :, 0], [1], cells, c)
                    for side in (i + p, i + p + 1))
                got, = solver._gather(stored, i, p, l)
                got = got[0]
                assert got.shape == (4, c) + grid.s_shape
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-12)
    assert found > 0


def test_gather_of_grouped_slabs_equals_full_gather_of_their_broadcast():
    # C3's pattern: component 0 is memoryless in both states, components 1
    # and 2 in state 2, so the tuples fall into four groups.  Random slabs
    # in each group's stored shape: the gather, which moves only the axes a
    # group stores in full, equals the per-slab gather of their full
    # broadcast, which moves every age axis but the reset one
    m, claim, models, grid, _ = _switch_case("2_assets_3_components")
    solver = VolterraSolver(m, claim, models, grid)
    assert len(solver.groups) == 4
    rng = np.random.default_rng(11)
    M = grid.spec.time_steps
    slabs = []
    for i in range(M + 1):
        c = int(grid.c_counts[i])
        slabs.append(Slab(solver, [
            rng.uniform(0.0, 50.0, js.shape + grid.s_shape)
            for js in solver.js_T(i)], c))
    full = [np.asarray(slab) for slab in slabs]
    stack = PriceField(solver, slabs).stacked()
    for i in range(M):
        c = int(grid.c_counts[i])
        for p in range(M - i):
            for l in range(3):
                got = [part[0] for part in solver._gather(stack, i, p, l)]
                want = _ref_gather(solver, full, i, p, l)
                for xi, x in enumerate(grid.x_tuples):
                    gi, k = solver.where[xi]
                    kept = tuple(1 if models[m].memoryless(x[m]) else c
                                 for m in range(3) if m != l)
                    assert got[gi][k].shape == kept + grid.s_shape
                    w_arr = want[xi][(slice(None),) * l + (0,)]
                    np.testing.assert_allclose(
                        np.broadcast_to(got[gi][k], w_arr.shape), w_arr,
                        rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("ages", ["y <= t", "all", "whole cells"])
def test_gather_equals_reference_bit_for_bit_where_shifts_clamp(ages):
    # no state is memoryless, so every age axis but the reset one moves.
    # With ages y <= t the whole shift clamps on some bracketing slabs; with
    # every slab storing all age_nodes ages (c = age_nodes, a grid whose
    # ages are not cut at t) it clamps on every panel.  With dt = 2 dy (4
    # steps, 9 age nodes) panel p moves the ages by v_p / dy = 2p + 1 whole
    # cells, so the mean's blend is the shift's view path (f = 0)
    m, claim, _, grid, _ = _switch_case("2_assets_3_components")
    h = HazardModel(2, {(1, 2): WeibullRate(0.4, 2.0),
                        (2, 1): AffineRate(0.2, 0.15)})
    A = grid.spec.age_nodes
    if ages == "all":
        grid.c_counts = np.full_like(grid.c_counts, A)
    if ages == "whole cells":
        grid = Grid(m, 1.0, np.array([[100.0, 100.0]]),
                    GridSpec(time_steps=4, price_nodes=13, age_nodes=9))
    solver = VolterraSolver(m, claim, [h] * 3, grid)
    assert len(solver.groups) == 1
    rng = np.random.default_rng(12)
    M = grid.spec.time_steps
    if ages == "whole cells":
        assert [solver.v_mid[p] / grid.dy for p in range(M)] == [1, 3, 5, 7]
    full = [rng.uniform(0.0, 50.0, (8,) + (int(c),) * 3 + grid.s_shape)
            for c in grid.c_counts]
    slabs = PriceField(solver, [Slab(solver, [arr], int(c)) for arr, c
                                in zip(full, grid.c_counts)]).stacked()
    clamped = 0
    for i in range(M):
        c = int(grid.c_counts[i])
        for p in range(M - i):
            top = math.floor(solver.v_mid[p] / grid.dy) + c
            clamped += top > int(grid.c_counts[i + p]) - 1
            for l in range(3):
                got, = solver._gather(slabs, i, p, l)
                want = _ref_gather(solver, full, i, p, l)
                assert np.array_equal(got[0], np.take(want, 0, axis=1 + l))
    assert clamped == M * (M + 1) // 2 if ages == "all" else clamped > 0


def _mixed_corr_case():
    """One asset pair whose log covariance is diagonal in the tuples with
    x_0 = 1 and correlated in those with x_0 = 2."""
    def vol(x):
        return np.array([[0.2 if x[1] == 1 else 0.3, 0.0],
                         [0.0 if x[0] == 1 else 0.12, 0.25]])
    m = build_market(2, 2, 2, 0.03, np.array([0.06, 0.07]), vol)
    claim = Claim("basket-call", weights=[0.5, 0.5], strike=100.0)
    models = [HazardModel(2, {(1, 2): ConstantRate(0.4),
                              (2, 1): WeibullRate(0.5, 1.5)}),
              HazardModel(2, {(1, 2): WeibullRate(0.6, 2.0),
                              (2, 1): AffineRate(0.3, 0.2)})]
    grid = Grid(m, 1.0, np.array([[100.0, 100.0]]),
                GridSpec(time_steps=5, price_nodes=13, age_nodes=3))
    return VolterraSolver(m, claim, models, grid, SolverSettings(gh_nodes=6))


def test_slab_tap_batch_gives_each_tuple_its_own_taps():
    # the smoother of a slab holds the kernels of all regime tuples, tuple
    # xi's panel p at row xi * P + p; each tuple's rows hold the taps, and
    # the derivative taps of every axis, that _kernel_taps builds for that
    # tuple's kernels alone
    from regimehedge.volterra_pricer import _kernel_taps
    solver = _mixed_corr_case()
    g = solver.grid
    kinds = set()
    for i in (0, 2, g.spec.time_steps - 1):
        sm, weights, _ = solver._slab_tables(i)
        v_mid = solver.v_mid[:g.spec.time_steps - i]
        P = len(v_mid)
        assert len(sm.taps) == len(weights) * P == len(g.x_tuples) * P
        excess = np.zeros((1,) + g.s_shape)
        for d in range(2):
            sm.apply(excess, 0, deriv_axis=d)
        for xi, x in enumerate(g.x_tuples):
            kern = build_kernel(solver.market, g.t_nodes[i], x, v_mid)
            alone = [_kernel_taps(kern.zbar, kern.chol, g, 6)] + [
                _kernel_taps(kern.zbar, kern.chol, g, 6, d) for d in range(2)]
            rows = slice(xi * P, (xi + 1) * P)
            got = [sm.taps[rows]] + [sm._deriv[d][rows] for d in range(2)]
            for got_k, want_k in zip(got, alone):
                assert len(got_k) == len(want_k) == len(v_mid)
                for g_taps, w_taps in zip(got_k, want_k):
                    assert len(g_taps) == len(w_taps)
                    kinds.add(g_taps[0].ndim)
                    for a, b in zip(g_taps, w_taps):
                        assert a.shape == b.shape and np.array_equal(a, b)
    assert kinds == {1, 2}


def test_switch_branch_buffers_carry_nothing_between_calls():
    # slab i, then slab j, then slab i again, with the price axis before
    # and after the hedge axes: the two results of slab i are equal, the
    # price result read after the hedge axes have used the shared output
    # buffer is that read before, and each axis gives the bytes of a call
    # with that axis alone
    for solver in (_mixed_corr_case(), VolterraSolver(
            *_switch_case("2_assets_3_components")[:4], SolverSettings(6))):
        g = solver.grid
        field, _ = solver.solve(tol=1e-3)
        axes = (None,) + tuple(range(g.n)) + (None,)
        runs = [solver.switch_branch(i, field.stacked(), axes)
                for i in (1, 3, 1)]
        for first, again in zip(runs[0], runs[2]):
            assert all(np.array_equal(a, b) for a, b in zip(first, again))
        for run in runs:
            assert all(np.array_equal(a, b) for a, b in zip(run[0], run[-1]))
        for axis, got in zip(axes, runs[0]):
            alone, = solver.switch_branch(1, field.stacked(), (axis,))
            assert all(np.array_equal(a, b) for a, b in zip(got, alone))


def _per_panel_switch_branch(solver, i, stack, axes, panels):
    """The switch branch of slab i summed panel by panel, each edge adding
    its weighted share elementwise: the reference for the blocked
    products.  One member, its own tables."""
    g = solver.grid
    sm, weights, _ = solver._slab_tables(i)
    P = g.spec.time_steps - i
    accs = [[np.zeros((1,) + js.shape + g.s_shape) for js in solver.js_T(i)]
            for _ in axes]
    for p in panels:
        gathered = [solver._gather(stack, i, p, l)
                    for l in range(g.n_components)]
        for xi, edges in enumerate(solver.edges):
            gi, k = solver.where[xi]
            for e, (l, _, xpi, _) in enumerate(edges):
                gj, kj = solver.where[xpi]
                excess = gathered[l][gj][:, kj] - solver._lin
                w = weights[xi][:, e, ..., p][(...,) + (None,) * g.n]
                for acc, axis in zip(accs, axes):
                    smoothed = sm.apply(excess, xi * P + p, axis)
                    if axis is not None:
                        smoothed = smoothed / solver._mesh[axis]
                    acc[gi][:, k] += w * np.expand_dims(smoothed, 1 + l)
    return accs


def _spy_blocks(monkeypatch):
    """Record the panel count and blocks of every _panel_blocks call."""
    from regimehedge import volterra_pricer as vp
    calls = []
    original = vp._panel_blocks

    def spy(panels, panel_bytes):
        blocks = original(panels, panel_bytes)
        calls.append((panel_bytes, [len(b) for b in blocks]))
        return blocks

    monkeypatch.setattr(vp, "_panel_blocks", spy)
    return calls


def _check_blocked_products(monkeypatch, solver, i, panels, axes, length,
                            sizes):
    """The panels of slab i in forced blocks of length panels split into
    blocks of sizes, and every axis matches the panel-by-panel elementwise
    sum."""
    from regimehedge import volterra_pricer as vp
    field, _ = solver.solve(tol=1e-3)
    stack = field.stacked()
    calls = _spy_blocks(monkeypatch)
    solver.switch_branch(i, stack, panels=panels)
    panel_bytes = calls[0][0]
    monkeypatch.setattr(vp, "_PANEL_BLOCK_BYTES", length * panel_bytes)
    monkeypatch.setattr(vp, "_PANEL_BLOCK_MAX", len(panels))
    got = solver.switch_branch(i, stack, axes, panels=panels)
    assert calls[-1] == (panel_bytes, sizes)
    want = _per_panel_switch_branch(solver, i, stack, axes, panels)
    for g_parts, w_parts in zip(got, want):
        scale = max(float(np.max(np.abs(part))) for part in w_parts)
        for g_part, w_part in zip(g_parts, w_parts):
            np.testing.assert_allclose(g_part, w_part, rtol=1e-13,
                                       atol=1e-13 * scale)


@pytest.mark.parametrize("length, sizes", [
    (1, [1] * 7), (2, [2, 2, 2, 1]), (3, [3, 3, 1]), (7, [7])])
def test_blocked_products_match_per_panel_reference(monkeypatch, length,
                                                    sizes):
    # the 7 far panels of slab 0 in blocks of 1, of 2, unevenly and all in
    # one: each matches the panel-by-panel elementwise sum, for the price
    # and the hedge axis
    m, claim, models, grid = regime_setup(price_nodes=31, time_steps=8,
                                          age_nodes=4)
    _check_blocked_products(monkeypatch, VolterraSolver(m, claim, models,
                                                        grid),
                            0, range(1, 8), (None, 0), length, sizes)


@pytest.mark.parametrize("length, sizes", [
    (1, [1] * 4), (2, [2, 2]), (3, [3, 1]), (4, [4])])
def test_blocked_products_match_per_panel_reference_two_assets(
        monkeypatch, length, sizes):
    # two assets and three components: all 4 panels of slab 2, whose
    # regime tuples hold stacks of one to three shapes, in the same kinds
    # of blocks, for the price and both hedge axes
    m, claim, models, grid, settings = _switch_case("2_assets_3_components")
    _check_blocked_products(monkeypatch, VolterraSolver(m, claim, models,
                                                        grid, settings),
                            2, range(4), (None, 0, 1), length, sizes)


def test_blocks_stay_within_the_panel_cap(monkeypatch):
    from regimehedge import volterra_pricer as vp
    m, claim, models, grid = regime_setup(price_nodes=11, time_steps=20,
                                          age_nodes=4)
    solver = VolterraSolver(m, claim, models, grid)
    calls = _spy_blocks(monkeypatch)
    solver.switch_branch(0, solver.initial_field().stacked(),
                         panels=range(1, 20))
    (panel_bytes, sizes), = calls
    assert vp._PANEL_BLOCK_BYTES // panel_bytes > vp._PANEL_BLOCK_MAX
    assert sizes == [vp._PANEL_BLOCK_MAX] * 2 + [19 - 2 * vp._PANEL_BLOCK_MAX]


def test_block_partition_ignores_member_count_and_axes(monkeypatch):
    # the far panels of a slab split into the same blocks for one member
    # and two, for the price alone and with the hedge axis
    from regimehedge import volterra_pricer as vp
    m, claim, models, grid = regime_setup(price_nodes=31, time_steps=8,
                                          age_nodes=4)
    tilde = [h.scaled(1.3) for h in models]
    field, _, (other_field, _) = solve_price_field(m, claim, models, grid,
                                                   1e-3, also=[tilde])
    solver, other = field.solver, other_field.solver
    stack = field.stacked()
    pair = [[np.concatenate([a, b]) for a, b in zip(sa, sb)]
            for sa, sb in zip(stack, other_field.stacked())]
    calls = _spy_blocks(monkeypatch)
    solver.switch_branch(0, stack, panels=range(1, 8))
    monkeypatch.setattr(vp, "_PANEL_BLOCK_BYTES", 3 * calls[0][0])
    runs = []
    for axes in ((None,), (None, 0)):
        for st, tables in ((stack, solver._slab_tables(0)),
                           (pair, solver._slab_tables(0, [solver, other]))):
            solver.switch_branch(0, st, axes, range(1, 8), tables)
            runs.append(calls[-1])
    assert runs == [runs[0]] * 4
    assert runs[0][1] == [3, 3, 1]


@pytest.mark.parametrize("case", ["1_asset_2_components",
                                  "2_assets_3_components",
                                  "2_assets_correlated",
                                  "one_3_state_component",
                                  "markov_modulated"])
def test_switch_branch_of_two_members_equals_two_calls_bit_for_bit(case):
    # every slab, the price and every hedge axis: each member of a
    # two-member stack gets the bytes of a call with it alone
    m, claim, models, grid, settings = _switch_case(case)
    tilde = [h.scaled(1.3) for h in models]
    field, _, (other_field, _) = solve_price_field(
        m, claim, models, grid, 1e-3, settings=settings, also=[tilde])
    solver, other = field.solver, other_field.solver
    pair = [[np.concatenate([a, b]) for a, b in zip(sa, sb)]
            for sa, sb in zip(field.stacked(), other_field.stacked())]
    axes = (None,) + tuple(range(grid.n))
    for i in range(grid.spec.time_steps):
        both = solver.switch_branch(i, pair, axes,
                                    tables=solver._slab_tables(
                                        i, [solver, other]))
        alone = [s.switch_branch(i, f.stacked(), axes)
                 for s, f in ((solver, field), (other, other_field))]
        for b, runs in enumerate(alone):
            for got, want in zip(both, runs):
                assert all(np.array_equal(g_part[b], w_part[0])
                           for g_part, w_part in zip(got, want))


@pytest.mark.parametrize("correlated, n_assets, v", [
    (False, 2, 0.7), (True, 2, 0.7), (False, 2, 0.02), (False, 1, 0.02),
    (False, 1, 0.7)], ids=["False", "True", "two_assets_narrow",
                           "one_asset_narrow", "one_asset_wide"])
def test_smoother_writes_into_out_what_it_returns_without(correlated,
                                                          n_assets, v):
    # for the price and every derivative axis, apply with out fills and
    # returns out with the bytes of apply without it, also when out is the
    # input itself (switch_branch smooths its first axis in place)
    from regimehedge.volterra_pricer import _Smoother
    vol = np.array([[0.25, 0.0], [0.12 if correlated else 0.0, 0.22]])
    vol = vol[:n_assets, :n_assets]
    m = build_market(n_assets, 2, 1, 0.03, np.full(n_assets, 0.05), vol)
    grid = Grid(m, 1.0, np.full((1, n_assets), 100.0),
                GridSpec(time_steps=2, price_nodes=15, age_nodes=2))
    kern = build_kernel(m, 0.0, (1,), np.array([0.2, v]))
    sm = _Smoother(kern.zbar, kern.chol, grid, 8)
    if correlated:
        assert [t.ndim for t in sm.taps[1]] == [2]
    else:
        # over v = 0.02 a diagonal kernel's taps are 3 of 15 nodes wide
        # (correlate1d), over v = 0.7 9 nodes (the dense product)
        assert [len(t) for t in sm.taps[1]] == [3 if v < 0.1 else 9] * n_assets
    arr = np.random.default_rng(5).uniform(-5.0, 50.0,
                                           size=(3, 2) + grid.s_shape)
    for axis in (None,) + tuple(range(n_assets)):
        buf = np.full(arr.shape, np.nan)
        got = sm.apply(arr, 1, axis, out=buf)
        assert got is buf
        assert np.array_equal(buf, sm.apply(arr, 1, axis))
        same = arr.copy()
        assert sm.apply(same, 1, axis, out=same) is same
        assert np.array_equal(same, buf)


def test_smoother_smooths_one_asset_in_place():
    # one asset, a diagonal kernel with taps of 19 of 41 nodes: one dense
    # product reads and writes the same array (np.matmul copies an input
    # that overlaps its output), for the price and the hedge axis
    from regimehedge.volterra_pricer import _Smoother
    m = build_market(1, 2, 1, 0.03, np.full(1, 0.05), np.array([[0.25]]))
    grid = Grid(m, 1.0, np.full((1, 1), 100.0),
                GridSpec(time_steps=2, price_nodes=41, age_nodes=2))
    kern = build_kernel(m, 0.0, (1,), np.array([0.2, 0.7]))
    sm = _Smoother(kern.zbar, kern.chol, grid, 8)
    assert [t.ndim for t in sm.taps[1]] == [1]
    arr = np.random.default_rng(6).uniform(-5.0, 50.0,
                                           size=(3, 2) + grid.s_shape)
    for axis in (None, 0):
        same = arr.copy()
        assert sm.apply(same, 1, axis, out=same) is same
        assert np.array_equal(same, sm.apply(arr, 1, axis))


def _odd_widths(n):
    """Tap widths around the switch to the dense product at 3 w >= n, as
    odd widths: 1, 3, ceil(n/3) - 2, ceil(n/3), n, 2n + 1 and 4n + 1."""
    third = -(-n // 3)
    return sorted({w | 1 for w in (1, 3, third - 2, third, n, 2 * n + 1,
                                   4 * n + 1) if w > 0})


@pytest.mark.parametrize("place", ["last", "second_last", "first_of_three"])
@pytest.mark.parametrize("n", [2, 5, 31, 161])
def test_smoother_dense_product_matches_correlate1d(monkeypatch, n, place):
    # a diagonal kernel's taps on one price axis of n nodes, the identity
    # tap on the others: apply equals correlate1d(mode="nearest") on that
    # axis up to round-off, through the dense n x n operator when 3 w >= n
    # and through correlate1d below, with out absent, a separate buffer
    # and the input itself.  The worst measured difference over these
    # cases was 2.0e-16 max|arr| sum|taps|.
    from scipy.ndimage import correlate1d
    from regimehedge import volterra_pricer as vp
    built = []
    band = vp._band_operator
    monkeypatch.setattr(vp, "_band_operator",
                        lambda taps, m: built.append(m) or band(taps, m))
    sizes, d = {"last": ([4, n], 1), "second_last": ([3, n, 4], 1),
                "first_of_three": ([n, 4, 3], 0)}[place]
    rng = np.random.default_rng(n)
    arr = rng.uniform(-5.0, 50.0, size=(2, 3) + tuple(sizes))
    # the smoother's taps set directly: a stack of one kernel
    sm = object.__new__(vp._Smoother)
    sm.grid = SimpleNamespace(n=len(sizes))
    for w in _odd_widths(n):
        tap = rng.uniform(-1.0, 1.0, w)
        sm.taps = [[tap if e == d else np.ones(1) for e in range(len(sizes))]]
        want = correlate1d(arr, tap, axis=2 + d, mode="nearest")
        tol = 1e-13 * np.max(np.abs(arr)) * np.sum(np.abs(tap))
        before = built.count(n)
        got = sm.apply(arr, 0)
        assert (built.count(n) > before) == (3 * w >= n)
        np.testing.assert_allclose(got, want, rtol=0, atol=tol)
        buf = np.full(arr.shape, np.nan)
        assert sm.apply(arr, 0, out=buf) is buf
        assert np.array_equal(buf, got)
        same = arr.copy()
        assert sm.apply(same, 0, out=same) is same
        assert np.array_equal(same, got)


def test_permuting_components_permutes_age_axes():
    # components permuted together with their hazard models and the
    # coefficient maps that read them: the solved field is the same field
    # with its age axes permuted
    def rate(x):
        return 0.02 if x[0] == 1 else 0.05

    def vol(x):
        return (0.2 if x[1] == 1 else 0.32) * np.eye(1)

    def drift(x):
        return np.array([0.07 if x[2] == 1 else 0.04])

    models = [
        HazardModel(2, {(1, 2): ConstantRate(0.5), (2, 1): ConstantRate(0.7)}),
        HazardModel(2, {(1, 2): WeibullRate(0.6, 2.0),
                        (2, 1): AffineRate(0.3, 0.2)}),
        HazardModel(2, {(1, 2): AffineRate(0.1, 0.6),
                        (2, 1): WeibullRate(0.9, 1.5)}),
    ]
    claim = Claim("basket-call", weights=[1.0], strike=100.0)
    spec = GridSpec(time_steps=8, price_nodes=21, age_nodes=4)
    perm = (2, 0, 1)        # new component j is old component perm[j]

    def old_x(x_new):
        x = [0] * 3
        for j, pj in enumerate(perm):
            x[pj] = x_new[j]
        return tuple(x)

    fields = []
    for coeffs, hms in (((rate, drift, vol), models),
                        ((lambda x: rate(old_x(x)), lambda x: drift(old_x(x)),
                          lambda x: vol(old_x(x))),
                         [models[pj] for pj in perm])):
        m = build_market(1, 2, 3, coeffs[0], coeffs[1], coeffs[2])
        grid = Grid(m, 1.0, np.array([[100.0]]), spec)
        field, report = solve_price_field(m, claim, hms, grid, tol=1e-6)
        fields.append((grid, field, report))
    (g0, f0, r0), (g1, f1, r1) = fields
    assert r0.iterations == r1.iterations
    order = [g0.x_index[old_x(x)] for x in g1.x_tuples]
    axes = (0,) + tuple(1 + pj for pj in perm) + (4,)
    for i in range(spec.time_steps + 1):
        want = np.transpose(np.asarray(f0.slabs[i])[order], axes)
        np.testing.assert_allclose(f1.slabs[i], want, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(want)))


def _config_case(name, **grid):
    import json
    import os
    from regimehedge.scenario import parse_scenario
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", name)
    with open(path) as fh:
        doc = json.load(fh)
    doc["grid"].update(grid)
    scn = parse_scenario(doc)
    g = Grid(scn.market, scn.horizon,
             np.stack([ep[1] for ep in scn.eval_points]), scn.grid_spec)
    return scn.market, scn.claim, scn.models, g, scn.solver


@pytest.mark.parametrize("case, scale, tol", [
    ("demo", 1.1, 1e-4),
    ("2_assets_3_components", 1.3, 1e-4),
    ("correlated_config", 1.1, 1e-4),
    ("demo_stops_apart", 10.0, 1e-6),
    ("whole_cell_shifts", 1.3, 1e-4),
])
def test_pair_march_equals_separate_solves_bit_for_bit(case, scale, tol):
    # the base and the scaled hazards marched as members of one stack: each
    # member's slabs and report are those of its own solve, bit for bit,
    # and so is the hedge field read off the perturbed member
    from regimehedge.hedging import hedge_field
    if case.startswith("demo"):
        m, claim, models, grid, settings = _config_case(
            "two_state_call.json", time_steps=8, price_nodes=31, age_nodes=4)
    elif case == "correlated_config":
        m, claim, models, grid, settings = _config_case(
            "two_asset_correlated_call.json", time_steps=6)
    elif case == "whole_cell_shifts":
        # dt = 2 dy: every age shift of the gather is a whole one (f = 0)
        m, claim, models, grid = regime_setup(price_nodes=21, time_steps=4,
                                              age_nodes=9)
        settings = SolverSettings()
    else:
        m, claim, models, grid, settings = _switch_case(case)
    tilde = [h.scaled(scale) for h in models]
    field, report, perturbed = solve_price_field(
        m, claim, models, grid, tol, settings=settings, also=[tilde])
    if case == "2_assets_3_components":
        assert len(field.solver.groups) == 4
    for hazards, (got, got_rep) in zip((models, tilde),
                                       ((field, report), perturbed)):
        assert got.solver.models is hazards
        want, want_rep = solve_price_field(m, claim, hazards, grid, tol,
                                           settings=settings)
        assert got_rep.to_dict() == want_rep.to_dict()
        for a, b in zip(got.slabs, want.slabs):
            assert len(a.parts) == len(b.parts)
            assert all(np.array_equal(pa, pb)
                       for pa, pb in zip(a.parts, b.parts))
    if case == "demo_stops_apart":
        # the base settles in 4 local applications, the scaled hazards in 7
        assert (report.converged_at, perturbed[1].converged_at) == (4, 7)
    h_got, h_want = hedge_field(perturbed[0]), hedge_field(want)
    for slabs_got, slabs_want in ((h_got.xi, h_want.xi),
                                  (h_got.eps, h_want.eps)):
        for a, b in zip(slabs_got, slabs_want):
            assert all(np.array_equal(pa, pb)
                       for pa, pb in zip(a.parts, b.parts))


def test_pair_march_names_the_hazard_set_that_does_not_converge():
    m, claim, models, grid, settings = _config_case(
        "two_state_call.json", time_steps=8, price_nodes=31, age_nodes=4)
    tilde = [h.scaled(10.0) for h in models]
    # alone, the base settles within 4 local applications
    solve_price_field(m, claim, models, grid, 1e-6, 4, settings)
    with pytest.raises(NoConvergence, match="^hazard set 1: ") as info:
        solve_price_field(m, claim, models, grid, 1e-6, 4, settings,
                          also=[tilde])
    assert info.value.report.iterations == 4


def test_pair_march_rejects_hazard_sets_of_another_layout():
    m, claim, models, grid = regime_setup(price_nodes=21, time_steps=4,
                                          age_nodes=3)
    # constant rates make every state memoryless: other slab shapes
    other = [HazardModel(2, {(1, 2): ConstantRate(0.3),
                             (2, 1): ConstantRate(0.4)})] * 2
    with pytest.raises(ConfigError, match="memoryless states"):
        solve_price_field(m, claim, models, grid, 1e-3, also=[other])


def _config_field(name):
    """The field of a shipped config, solved at its own grid, tol, max_iter
    and solver settings."""
    import os
    from regimehedge.scenario import load_scenario
    scn = load_scenario(os.path.join(os.path.dirname(__file__), os.pardir,
                                     "configs", name + ".json"))
    grid = Grid(scn.market, scn.horizon,
                np.stack([ep[1] for ep in scn.eval_points]), scn.grid_spec)
    field, _ = solve_price_field(scn.market, scn.claim, scn.models, grid,
                                 scn.tol, scn.max_iter, scn.solver)
    return field


def _least_slope_change(field, m):
    """Per inner node k of price axis m, the least change of the slope in
    s_m across it, slope(k, k + 1) - slope(k - 1, k), over every slab,
    regime tuple, age and node of the other price axes: entry k - 1 holds
    node k's."""
    s = field.grid.s_axes[m]
    least = np.inf
    for slab in field.slabs:
        for part in slab.parts:
            ax = part.ndim - field.grid.n + m
            shape = [1] * part.ndim
            shape[ax] = -1
            slope = np.diff(part, axis=ax) / np.diff(s).reshape(shape)
            change = np.moveaxis(np.diff(slope, axis=ax), ax, -1)
            least = np.minimum(least, change.reshape(-1, len(s) - 2).min(0))
    return least


_CALL_CONFIGS = ["two_state_call", "markov_modulated_call",
                 "two_asset_correlated_call"]


@pytest.mark.parametrize("name", _CALL_CONFIGS)
def test_call_field_is_nondecreasing_in_every_price(name):
    # the discounted asset is a martingale in every regime, so a call's
    # price cannot fall as any s_m rises: at every node of every slab,
    # regime tuple and age
    field = _config_field(name)
    for slab in field.slabs:
        for part in slab.parts:
            for m in range(field.grid.n):
                assert np.diff(part, axis=part.ndim - field.grid.n + m
                               ).min() >= 0.0


@pytest.mark.parametrize("name, first", [
    ("two_state_call", 1), ("markov_modulated_call", 1),
    ("two_asset_correlated_call", 6)])
def test_call_field_is_convex_in_every_price(name, first):
    # a call's price is convex in each s_m: the slope never drops by more
    # than 1e-12 across any node from node `first` on.  Measured worst
    # drops: 2.1e-14 on the one-asset configs at every node; on two assets
    # 0.067 at node 1, then 1.4e-2, 3.0e-3, 1.7e-7 and 9.1e-8 at nodes 2-5
    # (the lower edge of the box, ROADMAP item 3), and 2.7e-13 from node 6
    field = _config_field(name)
    for m in range(field.grid.n):
        assert _least_slope_change(field, m)[first - 1:].min() >= -1e-12


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_two_asset_call_field_is_convex_up_to_the_lower_edge():
    field = _config_field("two_asset_correlated_call")
    for m in range(field.grid.n):
        assert _least_slope_change(field, m).min() >= -1e-12
