"""Scenario configs: parsing, validation and resolution into model objects.

A scenario is a JSON document describing the market coefficients, the
hazard tables of each driving component, the claim, grid and solver
settings, Monte Carlo settings, evaluation points and requested outputs.
Regime-dependent coefficients are given either per regime tuple
(``table``), factored over components with a ``sum``/``product``
combination rule, or as constants; time dependence enters through
``knots`` arrays interpolated linearly.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConfigError
from .market import Claim, MarketModel, QuadratureSettings, TimeCoeff
from .semi_markov import HazardModel, make_rate
from .volterra_pricer import GridSpec, SolverSettings

ALL_OUTPUTS = ("price-field", "hedge-field", "mc-check", "pde-residual",
               "sensitivity", "residual-risk")


def _fail(msg, path):
    raise ConfigError(msg, path=path)


def _count(spec, key, default, path, least=1):
    """spec[key] as an integer >= least."""
    v = spec.get(key, default)
    if isinstance(v, bool) or not isinstance(v, int) or v < least:
        _fail(f"{key} must be an integer >= {least}, got {v!r}",
              f"{path}.{key}")
    return v


def _positive(spec, key, default, path):
    """spec[key] as a finite number > 0."""
    v = spec.get(key, default)
    if isinstance(v, bool) or not isinstance(v, (int, float)) \
            or not math.isfinite(v) or v <= 0:
        _fail(f"{key} must be a finite number > 0, got {v!r}",
              f"{path}.{key}")
    return float(v)


def _scalar_coeff(spec, k, n_components, path):
    """Resolve a scalar coefficient spec to a map x -> TimeCoeff."""
    tuples = list(itertools.product(range(1, k + 1), repeat=n_components))

    def as_time_coeff(v, p):
        try:
            if isinstance(v, (int, float)):
                return TimeCoeff.constant(np.array(float(v)))
            if isinstance(v, dict) and "const" in v:
                return TimeCoeff.constant(np.array(float(v["const"])))
            if isinstance(v, dict) and "knots" in v:
                pts = v["knots"]
                return TimeCoeff([float(t) for t, _ in pts],
                                 np.array([[float(val)] for _, val in pts])[:, 0])
        except (TypeError, ValueError):
            _fail(f"coefficient values must be numbers, got {v!r}", p)
        _fail(f"cannot interpret scalar coefficient {v!r}", p)

    if isinstance(spec, (int, float)) or (isinstance(spec, dict)
                                          and ("const" in spec or "knots" in spec)):
        coeff = as_time_coeff(spec, path)
        return {x: coeff for x in tuples}
    if isinstance(spec, dict) and "table" in spec:
        out = {}
        for row_i, row in enumerate(spec["table"]):
            x = tuple(int(v) for v in row.get("x", ()))
            if len(x) != n_components:
                _fail("table entry needs a full regime tuple x",
                      f"{path}.table[{row_i}]")
            out[x] = as_time_coeff(row.get("value"), f"{path}.table[{row_i}]")
        for x in tuples:
            if x not in out:
                _fail(f"missing table entry for regime tuple {x}", path)
        return out
    if isinstance(spec, dict) and ("factored" in spec or "by_component" in spec):
        if "by_component" in spec:
            bc = spec["by_component"]
            terms = [{"component": bc.get("component"),
                      "values": bc.get("values")}]
            combine = "sum"
        else:
            combine = spec["factored"].get("combine", "sum")
            terms = spec["factored"].get("terms", [])
        if combine not in ("sum", "product"):
            _fail(f"combine must be 'sum' or 'product', got {combine!r}", path)
        resolved_terms = []
        for t_i, term in enumerate(terms):
            mcomp = term.get("component")
            vals = term.get("values")
            if not isinstance(mcomp, int) or not 0 <= mcomp < n_components:
                _fail("term needs a valid component index",
                      f"{path}.terms[{t_i}]")
            if not isinstance(vals, list) or len(vals) != k:
                _fail(f"term needs one value per state (k={k})",
                      f"{path}.terms[{t_i}]")
            resolved_terms.append(
                (mcomp, [as_time_coeff(v, f"{path}.terms[{t_i}]") for v in vals]))
        out = {}
        for x in tuples:
            coeffs = [vals[x[mcomp] - 1] for mcomp, vals in resolved_terms]
            knots = sorted({float(kk) for c in coeffs for kk in c.knots})
            vals_at = []
            for t in knots:
                parts = [float(c(t)) for c in coeffs]
                agg = sum(parts) if combine == "sum" else float(np.prod(parts))
                vals_at.append(agg)
            out[x] = TimeCoeff(knots, np.asarray(vals_at))
        return out
    _fail(f"cannot interpret coefficient spec {spec!r}", path)


def _matrix_coeff(spec, n, k, n_components, path):
    """Resolve an n x n matrix coefficient spec to a map x -> TimeCoeff."""
    tuples = list(itertools.product(range(1, k + 1), repeat=n_components))

    def as_mat(v, p):
        arr = np.asarray(v, dtype=float)
        if arr.shape != (n, n):
            _fail(f"matrix must be {n}x{n}, got {arr.shape}", p)
        return arr

    def as_time_coeff(v, p):
        try:
            if isinstance(v, list):
                return TimeCoeff.constant(as_mat(v, p))
            if isinstance(v, dict) and "const" in v:
                return TimeCoeff.constant(as_mat(v["const"], p))
            if isinstance(v, dict) and "knots" in v:
                pts = v["knots"]
                return TimeCoeff([float(t) for t, _ in pts],
                                 np.stack([as_mat(mat, p) for _, mat in pts]))
        except (TypeError, ValueError):
            _fail(f"matrix entries must be numbers, got {v!r}", p)
        _fail(f"cannot interpret matrix coefficient {v!r}", p)

    if isinstance(spec, list) or (isinstance(spec, dict)
                                  and ("const" in spec or "knots" in spec)):
        coeff = as_time_coeff(spec, path)
        return {x: coeff for x in tuples}
    if isinstance(spec, dict) and "table" in spec:
        out = {}
        for row_i, row in enumerate(spec["table"]):
            x = tuple(int(v) for v in row.get("x", ()))
            if len(x) != n_components:
                _fail("table entry needs a full regime tuple x",
                      f"{path}.table[{row_i}]")
            out[x] = as_time_coeff(row.get("value"), f"{path}.table[{row_i}]")
        for x in tuples:
            if x not in out:
                _fail(f"missing table entry for regime tuple {x}", path)
        return out
    if isinstance(spec, dict) and "by_component" in spec:
        bc = spec["by_component"]
        mcomp = bc.get("component")
        mats = bc.get("matrices")
        if not isinstance(mcomp, int) or not 0 <= mcomp < n_components:
            _fail("by_component needs a valid component index", path)
        if not isinstance(mats, list) or len(mats) != k:
            _fail(f"by_component needs one matrix per state (k={k})", path)
        coeffs = [as_time_coeff(v, f"{path}.matrices[{j}]")
                  for j, v in enumerate(mats)]
        return {x: coeffs[x[mcomp] - 1] for x in tuples}
    _fail(f"cannot interpret volatility spec {spec!r}", path)


@dataclass
class Scenario:
    name: str
    horizon: float
    n: int
    k: int
    n_components: int
    market: MarketModel
    models: list
    claim: Claim
    grid_spec: GridSpec
    solver: SolverSettings
    tol: float
    max_iter: int
    mc_paths: int
    mc_seed: int | None
    mc_antithetic: bool
    rr_paths: int
    rr_seed: int | None
    sensitivity_scale: float
    eval_points: list
    outputs: tuple
    threads: int
    raw: dict = dc_field(repr=False, default_factory=dict)

    def resolved_dict(self):
        """Round-trippable echo of the configuration."""
        return json.loads(json.dumps(self.raw, sort_keys=True))


def parse_scenario(doc: dict, path: str = "scenario") -> Scenario:
    if not isinstance(doc, dict):
        _fail("config root must be an object", path)
    name = doc.get("name", "scenario")
    horizon = doc.get("horizon")
    if not isinstance(horizon, (int, float)) or horizon <= 0:
        _fail("horizon must be a positive number", f"{path}.horizon")

    assets = doc.get("assets", {})
    n = assets.get("n")
    if not isinstance(n, int) or n < 1:
        _fail("assets.n must be a positive integer", f"{path}.assets.n")

    comps = doc.get("components")
    if not isinstance(comps, list) or not comps:
        _fail("components must be a non-empty list", f"{path}.components")
    n_components = len(comps)
    k = doc.get("states_per_component")
    if not isinstance(k, int) or k < 2:
        _fail("states_per_component must be an integer >= 2",
              f"{path}.states_per_component")

    models = []
    for l, comp in enumerate(comps):
        if not isinstance(comp, dict):
            _fail("component must be an object", f"{path}.components[{l}]")
        hz = comp.get("hazards")
        if not isinstance(hz, dict) or not hz:
            _fail("component needs a hazards table",
                  f"{path}.components[{l}].hazards")
        rates = {}
        for key, spec in hz.items():
            try:
                i_s, j_s = key.split("->")
                i, j = int(i_s), int(j_s)
            except ValueError:
                _fail(f"hazard key must look like 'i->j', got {key!r}",
                      f"{path}.components[{l}].hazards")
            try:
                rates[(i, j)] = make_rate(spec)
            except ConfigError as exc:
                _fail(f"invalid hazard for pair ({i}, {j}): {exc}",
                      f"{path}.components[{l}].hazards['{key}']")
        try:
            models.append(HazardModel(k, rates))
        except ConfigError as exc:
            _fail(str(exc), f"{path}.components[{l}]")

    mkt = doc.get("market", {})
    rate_map = _scalar_coeff(mkt.get("rate", 0.0), k, n_components,
                             f"{path}.market.rate")
    rate_d = {}
    for x, coeff in rate_map.items():
        if not coeff.is_constant:
            _fail("the short rate may depend on the regime but not on time",
                  f"{path}.market.rate")
        rate_d[x] = float(coeff(0.0))

    drift_spec = mkt.get("drift", 0.0)
    if isinstance(drift_spec, list) and len(drift_spec) == n \
            and not (n == 1 and isinstance(drift_spec[0], list)):
        per_asset = [_scalar_coeff(ds, k, n_components,
                                   f"{path}.market.drift[{l}]")
                     for l, ds in enumerate(drift_spec)]
    else:
        shared = _scalar_coeff(drift_spec, k, n_components,
                               f"{path}.market.drift")
        per_asset = [shared] * n
    drift_d = {}
    for x in rate_d:
        knots = sorted({float(kk) for pa in per_asset for kk in pa[x].knots})
        vals = np.array([[float(pa[x](t)) for pa in per_asset] for t in knots])
        drift_d[x] = TimeCoeff(knots, vals)

    vol_d = _matrix_coeff(mkt.get("vol"), n, k, n_components,
                          f"{path}.market.vol")
    try:
        market = MarketModel(n, k, n_components, rate_d, drift_d, vol_d)
        market.validate(horizon)
    except ConfigError as exc:
        raise ConfigError(str(exc), path=f"{path}.market") from None

    cl = doc.get("claim", {})
    try:
        claim = Claim(cl.get("kind", ""), cl.get("weights", []),
                      strike=cl.get("strike", 0.0), knots=cl.get("knots"),
                      values=cl.get("values"),
                      final_slope=cl.get("final_slope", 0.0))
    except ConfigError as exc:
        raise ConfigError(str(exc), path=f"{path}.claim") from None
    if claim.weights.size != n:
        _fail(f"claim needs {n} weights", f"{path}.claim.weights")
    claim.check_envelope(np.random.default_rng(doc.get("envelope_check_seed", 0)))

    gr = doc.get("grid", {})
    gr_path = f"{path}.grid"
    # the smallest grid Grid accepts: 2 time steps, 5 price and 2 age nodes
    grid_spec = GridSpec(
        time_steps=_count(gr, "time_steps", 40, gr_path, least=2),
        price_nodes=_count(gr, "price_nodes", 81, gr_path, least=5),
        age_nodes=_count(gr, "age_nodes", 11, gr_path, least=2),
        span_stds=_positive(gr, "span_stds", 8.0, gr_path))

    sv = doc.get("solver", {})
    sv_path = f"{path}.solver"
    quad = QuadratureSettings(
        sparse_level=sv.get("sparse_level"),
        payoff_outer_nodes=_count(sv, "bsm_outer_nodes", 24, sv_path))
    threads = _count(doc, "threads", 1, path)
    solver = SolverSettings(gh_nodes=_count(sv, "gh_nodes", 16, sv_path),
                            bsm_quad=quad)
    tol = _positive(sv, "tol", 1e-4, sv_path)
    max_iter = _count(sv, "max_iter", 200, sv_path)

    outputs = tuple(doc.get("outputs", ["price-field"]))
    for o in outputs:
        if o not in ALL_OUTPUTS:
            _fail(f"unknown output {o!r}; choose from {ALL_OUTPUTS}",
                  f"{path}.outputs")

    # path counts are integers; a requested output needs at least 100 paths
    mc = doc.get("mc", {})
    mc_seed = mc.get("seed")
    if "mc-check" in outputs and mc_seed is None:
        _fail("mc.seed is required for the mc-check output (stochastic "
              "outputs need explicit seeds)", f"{path}.mc.seed")
    mc_paths = _count(mc, "paths", 0, f"{path}.mc",
                      least=100 if "mc-check" in outputs else 0)
    rr = doc.get("residual_risk", {})
    rr_seed = rr.get("seed")
    if "residual-risk" in outputs and rr_seed is None:
        _fail("residual_risk.seed is required for the residual-risk "
              "output", f"{path}.residual_risk.seed")
    rr_paths = _count(rr, "paths", 0, f"{path}.residual_risk",
                      least=100 if "residual-risk" in outputs else 0)

    sens_scale = _positive(doc.get("sensitivity", {}), "scale", 1.1,
                           f"{path}.sensitivity")

    eps = doc.get("eval_points", [])
    if not isinstance(eps, list) or not eps:
        _fail("eval_points must be a non-empty list", f"{path}.eval_points")
    eval_points = []
    for e_i, ep in enumerate(eps):
        p = f"{path}.eval_points[{e_i}]"
        if not isinstance(ep, dict):
            _fail("eval point must be an object", p)
        t = ep.get("t", 0.0)
        if isinstance(t, bool) or not isinstance(t, (int, float)):
            _fail(f"t must be a number, got {t!r}", f"{p}.t")
        try:
            s = np.asarray(ep.get("s", []), dtype=float)
            x = tuple(int(v) for v in ep.get("x", ()))
            y = np.asarray(ep.get("y", [0.0] * n_components), dtype=float)
        except (TypeError, ValueError):
            _fail("eval point s, x and y must be numbers", p)
        if s.shape != (n,):
            _fail(f"eval point needs {n} prices", p)
        if np.any(s <= 0):
            _fail("eval point prices must be positive", p)
        if len(x) != n_components or any(not 1 <= v <= k for v in x):
            _fail("eval point regime tuple out of range", p)
        if y.shape != (n_components,) or np.any(y < 0) \
                or np.any(y > t + 1e-12):
            _fail("eval point ages must satisfy 0 <= y <= t", p)
        if not 0 <= t <= horizon:
            _fail("eval point time outside [0, horizon]", p)
        eval_points.append((t, s, x, y))

    return Scenario(
        name=str(name), horizon=float(horizon), n=n, k=k,
        n_components=n_components, market=market, models=models, claim=claim,
        grid_spec=grid_spec, solver=solver, tol=tol, max_iter=max_iter,
        mc_paths=mc_paths, mc_seed=mc_seed,
        mc_antithetic=bool(mc.get("antithetic", False)),
        rr_paths=rr_paths, rr_seed=rr_seed,
        sensitivity_scale=sens_scale, eval_points=eval_points,
        outputs=outputs, threads=threads, raw=doc)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", path=path) from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column "
                          f"{exc.colno}: {exc.msg}", path=path) from None
    return parse_scenario(doc)
