"""Built-in acceptance suite: the criteria behind `regimehedge selftest`.

Each criterion builds its own scenario, runs the relevant pipeline at a
pinned tolerance and returns a structured pass/fail row.  The tolerances
are module constants, so nothing outside the code can loosen a gate; the
suite is deterministic for fixed seeds.

The ``full`` profile runs every criterion at its stated scale; the ``fast``
profile shrinks grids and path counts for smoke runs and the determinism
criterion, which replays the fast suite twice and compares report bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy import integrate

from .analysis import residual_risk, sensitivity_check
from .hedging import hedge_field, strategy_at
from .market import (
    Claim,
    TimeCoeff,
    build_kernel,
    build_market,
    kernel_density,
    kernel_expectation,
)
from .mc_oracle import mc_price
from .semi_markov import (
    AffineRate,
    ConstantRate,
    CsmState,
    HazardModel,
    TabulatedRate,
    WeibullRate,
    next_jump_component_prob,
    next_jump_time_law,
)
from .volterra_pricer import (
    Grid,
    GridSpec,
    SolverSettings,
    linear_growth_norm,
    pde_residual,
    solve_price_field,
)


TOL_C1_IDENTITY = 1e-8
TOL_C2_NORM = 1e-8
TOL_C2_MOMENTS = 1e-6
TOL_C3_ENVELOPE = 1e-9
TOL_C4_DEGENERATE = 1e-3
TOL_C5_LINEAR = 1e-6
# the stated C7 tolerance applies at the full scale; the fast profile runs
# on a deliberately rough grid
TOL_C7_HEDGE = 1e-2
TOL_C7_HEDGE_FAST = 3e-2
TOL_C8_SLACK = 0.05
TOL_C9_RESIDUAL = 5e-2
TOL_C9_RATIO = 1.7


def _plain(obj):
    """Recursively convert numpy scalars/arrays for JSON round-tripping."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    details: dict = dc_field(default_factory=dict)

    def to_dict(self):
        return {"criterion": self.cid, "name": self.name,
                "passed": bool(self.passed), "details": _plain(self.details)}


def render_table(results) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] C{r.cid:02d} {r.name}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} criteria passed")
    return "\n".join(lines)


def report_bytes(results) -> bytes:
    doc = {"suite": "regimehedge-acceptance",
           "results": [r.to_dict() for r in results]}
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


# ---------------------------------------------------------------------------
# Scenario bundles (shared between criteria)
# ---------------------------------------------------------------------------

_BUNDLES: dict = {}


def _random_hazard(rng) -> HazardModel:
    fams = [
        lambda: ConstantRate(0.2 + rng.uniform(0.0, 1.5)),
        lambda: AffineRate(rng.uniform(0.05, 0.8), rng.uniform(0.0, 0.8)),
        lambda: WeibullRate(0.2 + rng.uniform(0.0, 1.5),
                            1.0 + rng.uniform(0.0, 1.5)),
        lambda: TabulatedRate(
            np.concatenate([[0.0], np.cumsum(rng.uniform(0.3, 1.0, 3))]),
            rng.uniform(0.3, 1.8, 4)),
    ]
    k = int(rng.integers(2, 4))
    rates = {}
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            if i != j:
                rates[(i, j)] = fams[int(rng.integers(0, len(fams)))]()
    return HazardModel(k, rates)


def _bundle_c3(profile: str):
    key = ("c3", profile)
    if key in _BUNDLES:
        return _BUNDLES[key]

    def rate(x):
        return 0.02 if x[0] == 1 else 0.05

    def vol(x):
        s1 = 0.2 if x[1] == 1 else 0.3
        s2 = 0.25 if x[2] == 1 else 0.32
        return np.diag([s1, s2])

    market = build_market(2, 2, 3, rate, np.array([0.06, 0.07]), vol)
    claim = Claim("basket-call", weights=[0.5, 0.5], strike=100.0)
    models = [
        HazardModel(2, {(1, 2): ConstantRate(0.25), (2, 1): ConstantRate(0.35)}),
        HazardModel(2, {(1, 2): WeibullRate(0.4, 2.0), (2, 1): ConstantRate(0.3)}),
        HazardModel(2, {(1, 2): AffineRate(0.2, 0.15), (2, 1): ConstantRate(0.25)}),
    ]
    if profile == "full":
        spec = GridSpec(time_steps=40, price_nodes=41, age_nodes=11)
        settings = SolverSettings(gh_nodes=8, bsm_outer_nodes=8)
        tol = 5e-4
    else:
        spec = GridSpec(time_steps=10, price_nodes=15, age_nodes=4)
        settings = SolverSettings(gh_nodes=6, bsm_outer_nodes=8)
        tol = 2e-3
    grid = Grid(market, 1.0, np.array([[100.0, 100.0]]), spec)
    field, report = solve_price_field(market, claim, models, grid, tol,
                                      settings=settings)
    _BUNDLES[key] = dict(field=field, report=report)
    return _BUNDLES[key]


def _c4_pieces(spec: GridSpec, tol: float):
    market = build_market(1, 2, 2, 0.04, np.array([0.08]), 0.25 * np.eye(1))
    claim = Claim("basket-call", weights=[1.0], strike=100.0)
    h = HazardModel(2, {(1, 2): ConstantRate(0.3), (2, 1): ConstantRate(0.4)})
    models = [h, h]
    grid = Grid(market, 1.0, np.array([[100.0]]), spec)
    settings = SolverSettings(gh_nodes=16)
    field, report = solve_price_field(market, claim, models, grid, tol,
                                      settings=settings)
    return dict(field=field, report=report)


def _bundle_c4(profile: str):
    key = ("c4", profile)
    if key in _BUNDLES:
        return _BUNDLES[key]
    if profile == "full":
        spec = GridSpec(time_steps=40, price_nodes=81, age_nodes=5)
    else:
        spec = GridSpec(time_steps=10, price_nodes=41, age_nodes=3)
    _BUNDLES[key] = _c4_pieces(spec, 1e-3)
    return _BUNDLES[key]


def _bundle_c6(profile: str):
    key = ("c6", profile)
    if key in _BUNDLES:
        return _BUNDLES[key]

    def rate(x):
        return 0.03 if x[0] == 1 else 0.06

    def vol(x):
        if x[1] == 1:
            return TimeCoeff([0.0, 1.0], np.array([[[0.2]], [[0.3]]]))
        return TimeCoeff([0.0, 1.0], np.array([[[0.3]], [[0.22]]]))

    market = build_market(1, 2, 2, rate, np.array([0.07]), vol)
    claim = Claim("basket-call", weights=[1.0], strike=100.0)
    models = [
        HazardModel(2, {(1, 2): WeibullRate(0.6, 1.7),
                        (2, 1): WeibullRate(0.9, 1.4)}),
        HazardModel(2, {(1, 2): WeibullRate(0.5, 2.0),
                        (2, 1): WeibullRate(0.7, 1.3)}),
    ]
    if profile == "full":
        spec = GridSpec(time_steps=48, price_nodes=161, age_nodes=13)
        tol, paths = 2e-4, 100_000
    else:
        spec = GridSpec(time_steps=12, price_nodes=61, age_nodes=5)
        tol, paths = 1e-3, 20_000
    grid = Grid(market, 1.0, np.array([[100.0]]), spec)
    settings = SolverSettings(gh_nodes=16)
    field, report = solve_price_field(market, claim, models, grid, tol,
                                      settings=settings)
    out = dict(field=field, report=report, mc_paths=paths, mc_seed=20240801,
               start=(0.0, np.array([100.0]), (1, 1), np.array([0.0, 0.0])))
    _BUNDLES[key] = out
    return out


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def criterion_1(profile: str) -> CriterionResult:
    """Competing-jump probabilities sum to one; the zero-time density
    identity pdf(0) P(l first) = exit rate holds for randomized draws."""
    tol = TOL_C1_IDENTITY
    draws = 50 if profile == "full" else 12
    rng = np.random.default_rng(1810)
    worst_sum = 0.0
    worst_id = 0.0
    for _ in range(draws):
        n_comp = int(rng.integers(1, 4))
        models = [_random_hazard(rng) for _ in range(n_comp)]
        x = tuple(int(rng.integers(1, m.k + 1)) for m in models)
        y = tuple(float(rng.uniform(0.0, 1.2)) for _ in models)
        state = CsmState(x, y)
        probs = next_jump_component_prob(models, state)
        worst_sum = max(worst_sum, abs(float(probs.sum()) - 1.0))
        l = int(rng.integers(0, n_comp))
        law = next_jump_time_law(models, state, l)
        lhs = law.pdf(0.0) * probs[l]
        rhs = float(models[l].exit_rate(x[l], np.asarray(y[l])))
        worst_id = max(worst_id, abs(lhs - rhs) / max(1.0, abs(rhs)))
    passed = worst_sum <= tol and worst_id <= tol
    return CriterionResult(1, "competing-jump law identities", passed,
                           {"draws": draws, "max_sum_error": worst_sum,
                            "max_identity_error": worst_id, "tol": tol})


def criterion_2(profile: str) -> CriterionResult:
    """Kernel normalization and first/second moments against the
    conditional-law formulas, with time-varying volatility."""
    tol_norm = TOL_C2_NORM
    tol_mom = TOL_C2_MOMENTS
    n_models = 20 if profile == "full" else 6
    rng = np.random.default_rng(95)
    worst_norm = 0.0
    worst_mean = 0.0
    worst_cov = 0.0
    worst_density = 0.0
    for trial in range(n_models):
        n = 1 if trial % 2 == 0 else 2
        r = float(rng.uniform(0.0, 0.08))
        mu = rng.uniform(-0.05, 0.12, size=n)
        base = np.diag(rng.uniform(0.15, 0.3, size=n))
        if n == 2:
            base[1, 0] = rng.uniform(0.0, 0.1)
        end = base * rng.uniform(0.7, 1.4)
        vol = TimeCoeff([0.0, 1.5], np.stack([base, end]))
        market = build_market(n, 2, 2, r, mu, lambda x: vol)
        x = (1, 2)
        v = float(rng.uniform(0.2, 1.0))
        t0 = float(rng.uniform(0.0, 0.4))
        s0 = rng.uniform(60.0, 140.0, size=n)
        kern = build_kernel(market, t0, x, v, mode="physical")

        one = kernel_expectation(kern, s0, lambda sig: np.ones(sig.shape[0]))
        worst_norm = max(worst_norm, abs(one - 1.0))
        if n == 1 and trial < 6:
            sd = math.sqrt(kern.cov[0, 0])
            lo = s0[0] * math.exp(kern.zbar[0] - 8.5 * sd)
            hi = s0[0] * math.exp(kern.zbar[0] + 8.5 * sd)
            total, _ = integrate.quad(
                lambda u: kernel_density(kern, s0, np.array([u])), lo, hi,
                limit=400)
            worst_density = max(worst_density, abs(total - 1.0))

        mu_int = market.mu_integral(t0, t0 + v, x)
        a_int = market.a_integral(t0, t0 + v, x)
        for l in range(n):
            got = kernel_expectation(kern, s0,
                                     lambda sig, l=l: sig[:, l] / s0[l])
            worst_mean = max(worst_mean,
                             abs(got - math.exp(mu_int[l]))
                             / math.exp(mu_int[l]))
        for l in range(n):
            for lp in range(n):
                got = kernel_expectation(
                    kern, s0, lambda sig, l=l, lp=lp:
                    (sig[:, l] / s0[l]) * (sig[:, lp] / s0[lp]))
                got_cov = got - math.exp(mu_int[l] + mu_int[lp])
                want = math.exp(mu_int[l] + mu_int[lp]) \
                    * math.expm1(a_int[l, lp])
                scale = max(abs(want), 1e-3)
                worst_cov = max(worst_cov, abs(got_cov - want) / scale)
    passed = worst_norm <= tol_norm and worst_mean <= tol_mom \
        and worst_cov <= tol_mom and worst_density <= 1e-6
    return CriterionResult(2, "kernel moment checks", passed,
                           {"models": n_models, "max_norm_error": worst_norm,
                            "max_mean_rel_error": worst_mean,
                            "max_cov_rel_error": worst_cov,
                            "max_density_norm_error": worst_density,
                            "tol_norm": tol_norm, "tol_moments": tol_mom})


def criterion_3(profile: str) -> CriterionResult:
    """Terminal exactness, positivity and the linear-growth envelope for a
    two-asset basket call driven by three components."""
    b = _bundle_c3(profile)
    field = b["field"]
    claim, grid = field.claim, field.grid
    pay = claim(grid.s_mesh())
    # a slab's stored cells stand for every grid node they broadcast to
    terminal_gap = max(float(np.max(np.abs(part - pay)))
                       for part in field.slabs[-1].parts)
    parts = [part for slab in field.slabs for part in slab.parts]
    min_phi = min(float(np.min(part)) for part in parts)
    lin = sum(c * m for c, m in zip(claim.c1,
                                    np.meshgrid(*grid.s_axes, indexing="ij")))
    worst_env = max(float(np.max(np.abs(part - lin))) for part in parts)
    passed = terminal_gap == 0.0 and min_phi >= 0.0 \
        and worst_env <= claim.c2 + TOL_C3_ENVELOPE
    return CriterionResult(3, "terminal and envelope bounds", passed,
                           {"terminal_gap": terminal_gap, "min_phi": min_phi,
                            "max_envelope_gap": worst_env, "c2": claim.c2,
                            "iterations": b["report"].iterations,
                            "converged_at": b["report"].converged_at})


def criterion_4(profile: str) -> CriterionResult:
    """Regime-independent coefficients collapse the field to the
    frozen-regime price within 1e-3 in the weighted sup norm."""
    b = _bundle_c4(profile)
    rho_field = b["field"].solver.initial_field()
    gap = linear_growth_norm(b["field"], rho_field)
    tol = TOL_C4_DEGENERATE
    passed = gap < tol and b["report"].converged_at is not None \
        and b["report"].converged_at <= 2
    return CriterionResult(4, "degenerate regime equivalence", passed,
                           {"sup_gap_scaled": gap,
                            "converged_at": b["report"].converged_at,
                            "tol": tol})


def criterion_5(profile: str) -> CriterionResult:
    """Linear claims are priced and hedged exactly: phi = c1.s, xi = c1,
    eps = 0, and the residual risk vanishes."""
    def rate(x):
        return 0.02 if x[0] == 1 else 0.05

    def vol(x):
        return (0.2 if x[1] == 1 else 0.3) * np.eye(1)

    market = build_market(1, 2, 2, rate, np.array([0.07]), vol)
    claim = Claim("linear", weights=[1.2])
    models = [
        HazardModel(2, {(1, 2): ConstantRate(0.5), (2, 1): ConstantRate(0.7)}),
        HazardModel(2, {(1, 2): ConstantRate(0.6), (2, 1): ConstantRate(0.4)}),
    ]
    if profile == "full":
        spec = GridSpec(time_steps=16, price_nodes=61, age_nodes=5)
        paths = 2000
    else:
        spec = GridSpec(time_steps=8, price_nodes=31, age_nodes=3)
        paths = 600
    grid = Grid(market, 1.0, np.array([[100.0]]), spec)
    settings = SolverSettings(gh_nodes=32)
    field, report = solve_price_field(market, claim, models, grid, 1e-7,
                                      settings=settings)
    smesh = grid.s_mesh()[..., 0]
    worst_phi = max(float(np.max(np.abs(part - 1.2 * smesh) / (1.0 + smesh)))
                    for slab in field.slabs for part in slab.parts)
    start = (0.0, np.array([100.0]), (1, 1), np.array([0.0, 0.0]))
    xi, eps = strategy_at(hedge_field(field), start)
    rr = residual_risk(field, start, paths, seed=7)
    tol = TOL_C5_LINEAR
    passed = worst_phi <= tol and abs(xi[0] - 1.2) <= tol \
        and abs(eps) <= tol and rr.r0 <= 3 * rr.se + 1e-12
    return CriterionResult(5, "linear claim exactness", passed,
                           {"max_phi_gap_scaled": worst_phi,
                            "xi_gap": abs(float(xi[0]) - 1.2),
                            "eps": float(eps), "r0": rr.r0, "r0_se": rr.se,
                            "tol": tol})


def criterion_6(profile: str) -> CriterionResult:
    """Fixed-point price agrees with the exact-path Monte Carlo oracle
    within three standard errors, at sub-percent standard error."""
    b = _bundle_c6(profile)
    solver = b["field"].solver
    price = b["field"].value(*b["start"])
    est, se = mc_price(solver.market, solver.claim, solver.models, b["start"],
                       1.0, b["mc_paths"], b["mc_seed"])
    rel_se_cap = 0.01 if profile == "full" else 0.03
    passed = abs(price - est) <= 3 * se and se / est < rel_se_cap
    return CriterionResult(6, "cross-method price agreement", passed,
                           {"volterra": price, "mc": est, "se": se,
                            "abs_diff": abs(price - est),
                            "rel_se": se / est, "paths": b["mc_paths"]})


def criterion_7(profile: str) -> CriterionResult:
    """The hedge field matches a central finite difference of the solved
    field at randomized interior grid nodes."""
    b = _bundle_c6(profile)
    field = b["field"]
    hedge = hedge_field(field)
    grid = field.grid
    tol = TOL_C7_HEDGE if profile == "full" else TOL_C7_HEDGE_FAST
    n_points = 100 if profile == "full" else 20
    rng = np.random.default_rng(1234)
    M = grid.spec.time_steps
    S = grid.spec.price_nodes
    worst = 0.0
    checked = 0
    attempts = 0
    while checked < n_points and attempts < 10 * n_points:
        attempts += 1
        i = int(rng.integers(1, int(0.85 * M)))
        t = float(grid.t_nodes[i])
        c = int(grid.c_counts[i])
        a_idx = [int(rng.integers(0, c)) for _ in range(2)]
        y = grid.age_nodes[a_idx]
        x = grid.x_tuples[int(rng.integers(0, len(grid.x_tuples)))]
        s_idx = int(rng.integers(int(0.3 * S), int(0.7 * S)))
        vals = [field.value(t, np.array([grid.s_axes[0][s_idx + kk]]), x, y)
                for kk in (-2, -1, 1, 2)]
        dz = (-vals[3] + 8.0 * vals[2] - 8.0 * vals[1] + vals[0]) \
            / (12.0 * grid.h[0])
        fd = dz / grid.s_axes[0][s_idx]
        if abs(fd) < 0.05:
            continue
        arr = hedge.xi[i][grid.x_index[x]]
        eta = float(arr[tuple(min(a, n - 1) for a, n in zip(a_idx, arr.shape))
                        + (s_idx, 0)])
        worst = max(worst, abs(eta - fd) / abs(fd))
        checked += 1
    passed = checked >= n_points and worst <= tol
    return CriterionResult(7, "hedge vs finite difference", passed,
                           {"points": checked, "max_rel_error": worst,
                            "tol": tol})


def criterion_8(profile: str) -> CriterionResult:
    """Every solve certifies a strict contraction: successive-difference
    ratios stay below one and below the joint-survival bound plus slack."""
    rows = {}
    ok = True
    for tag, bundle in (("c3", _bundle_c3(profile)),
                        ("c4", _bundle_c4(profile)),
                        ("c6", _bundle_c6(profile))):
        rep = bundle["report"]
        bound = rep.contraction_bound
        ratios = rep.ratios
        good = all(r < 1.0 and r <= bound + TOL_C8_SLACK for r in ratios)
        ok = ok and good and bound < 1.0
        rows[tag] = {"ratios": [float(r) for r in ratios],
                     "bound": bound, "ok": good}
    return CriterionResult(8, "contraction certificates", ok, rows)


def criterion_9(profile: str) -> CriterionResult:
    """The non-local equation residual of the converged field decays at
    first order under grid refinement and is small on the fine grid."""
    if profile == "full":
        coarse = GridSpec(time_steps=24, price_nodes=161, age_nodes=4)
        fine = GridSpec(time_steps=48, price_nodes=321, age_nodes=4)
    else:
        coarse = GridSpec(time_steps=10, price_nodes=81, age_nodes=3)
        fine = GridSpec(time_steps=20, price_nodes=161, age_nodes=3)
    reports = []
    for spec in (coarse, fine):
        bundle = _c4_pieces(spec, 1e-3)
        margin = max(1, round(0.15 * spec.time_steps))
        reports.append(pde_residual(bundle["field"],
                                    maturity_margin_steps=margin))
    ratio = reports[0].mean_scaled / reports[1].mean_scaled
    passed = ratio >= TOL_C9_RATIO \
        and reports[1].max_scaled < TOL_C9_RESIDUAL
    return CriterionResult(9, "pde residual refinement", passed,
                           {"coarse_mean": reports[0].mean_scaled,
                            "fine_mean": reports[1].mean_scaled,
                            "ratio": ratio,
                            "fine_max": reports[1].max_scaled,
                            "tol_ratio": TOL_C9_RATIO,
                            "tol_abs": TOL_C9_RESIDUAL})


def criterion_10(profile: str) -> CriterionResult:
    """Hazard perturbations move the price by no more than the Lipschitz
    bound 2 c2 T sum |dlam|_sup."""
    b = _bundle_c6(profile)
    solver = b["field"].solver
    scales = (1.1, 1.5)
    tildes = [[h.scaled(scale) for h in solver.models] for scale in scales]
    # the base field is the c6 bundle's, solved at the bundle's tol (2e-4
    # full, 1e-3 fast); both perturbed fields are marched together at 1e-4,
    # and each solve's error budget enters the check's numerical floor
    field, report, *others = solve_price_field(
        solver.market, solver.claim, tildes[0], b["field"].grid, 1e-4, 200,
        solver.settings, also=tildes[1:])
    rows = {}
    ok = True
    for scale, pert in zip(scales, [(field, report), *others]):
        rep = sensitivity_check((b["field"], b["report"]), pert)
        ok = ok and rep.satisfied and rep.phi_sup_diff <= rep.bound_summed
        rows[f"scale_{scale}"] = rep.to_dict()
    return CriterionResult(10, "hazard perturbation bound", ok, rows)


def criterion_11(profile: str) -> CriterionResult:
    """The fast suite produces byte-identical reports across repeated
    runs."""
    _BUNDLES.clear()
    run_a = report_bytes(_run_core("fast"))
    _BUNDLES.clear()
    run_b = report_bytes(_run_core("fast"))
    passed = run_a == run_b
    return CriterionResult(11, "selftest determinism", passed,
                           {"bytes": len(run_a), "rerun_match": passed})


_CORE = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
         criterion_6, criterion_7, criterion_8, criterion_9, criterion_10]


def _run_core(profile: str):
    return [fn(profile) for fn in _CORE]


def run_all(profile: str = "full"):
    """All criteria; the fast profile omits the (self-referential)
    determinism criterion, which itself replays the fast profile."""
    results = _run_core(profile)
    if profile == "full":
        results.append(criterion_11(profile))
    return results
