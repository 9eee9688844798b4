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
from .market import Claim, MarketModel, TimeCoeff
from .regime_bsm import OUTER_NODES
from .semi_markov import HazardModel, make_rate
from .volterra_pricer import GridSpec, SolverSettings

ALL_OUTPUTS = ("price-field", "hedge-field", "mc-check", "pde-residual",
               "sensitivity", "residual-risk")
_MAX_PATHS = 2 ** 32   # path ids 0..paths-1 are 32-bit, keyed (w, 2 id + k)


def _fail(msg, path):
    raise ConfigError(msg, path=path)


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _count(spec, key, default, path, least=1, most=None):
    """spec[key] as an integer >= least (and <= most when given)."""
    v = spec.get(key, default)
    if not _is_int(v) or v < least:
        _fail(f"{key} must be an integer >= {least}, got {v!r}",
              f"{path}.{key}")
    if most is not None and v > most:
        _fail(f"{key} must be at most {most}, got {v!r}", f"{path}.{key}")
    return v


def _seed(spec, path, required, output):
    """spec["seed"] as an integer >= 0, or None when absent."""
    if spec.get("seed") is None:
        if required:
            _fail(f"seed is required for the {output} output (stochastic "
                  "outputs need explicit seeds)", f"{path}.seed")
        return None
    return _count(spec, "seed", None, path, least=0)


def _ints(v, path, what):
    """v as a tuple of integers."""
    if not isinstance(v, list) or not all(_is_int(u) for u in v):
        _fail(f"{what} must be a list of integers, got {v!r}", path)
    return tuple(v)


def _is_real(v):
    """v is a JSON number (not a boolean) or nested lists of them."""
    if isinstance(v, list):
        return all(_is_real(u) for u in v)
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# the real-valued parameters of the hazard families
_HAZARD_LEAVES = ("c", "kappa", "a", "b", "knots", "values")


def _reals(v, path):
    """v, a number or nested lists of numbers, as a finite float array."""
    try:
        arr = np.asarray(v, dtype=float) if _is_real(v) else None
    except (ValueError, OverflowError):  # ragged lists, huge integers
        arr = None
    if arr is None or not np.all(np.isfinite(arr)):
        _fail(f"expected finite numbers, got {v!r}", path)
    return arr


def _number(spec, key, default, path, positive=False):
    """spec[key] as a finite number, > 0 if positive."""
    v = spec.get(key, default)
    try:
        bad = isinstance(v, bool) or not isinstance(v, (int, float)) \
            or not math.isfinite(v) or (positive and v <= 0)
    except OverflowError:  # an integer beyond the float range
        bad = True
    if bad:
        _fail(f"{key} must be a finite number{' > 0' if positive else ''}, "
              f"got {v!r}", f"{path}.{key}")
    return float(v)


def _section(spec, key, path, keys=None, retired=()):
    """spec[key] as an object, {} when absent; with keys, every key of it
    must be one of keys or retired."""
    v = spec.get(key, {})
    if not isinstance(v, dict):
        _fail(f"{key} must be an object, got {v!r}", f"{path}.{key}")
    if keys is not None:
        _known(v, keys, f"{path}.{key}", retired)
    return v


def _known(spec, keys, path, retired=()):
    """Fail on the first key of spec that is neither one of keys nor a
    retired key (read by no code, still accepted: see README)."""
    for key in spec:
        if key not in keys and key not in retired:
            _fail(f"unknown key {key!r}; expected one of "
                  f"{', '.join(sorted(keys))}", f"{path}.{key}")


def _union(coeffs):
    """The union of the coefficients' knots and their values there, (K, m)."""
    knots = sorted({float(kk) for c in coeffs for kk in c.knots})
    return knots, np.array([[float(c(t)) for c in coeffs] for t in knots])


def _coeff(spec, k, n_components, path, shape=()):
    """Resolve a coefficient spec to a map x -> TimeCoeff of value shape
    () or (n, n): one value for every tuple, a table per regime tuple, one
    value per state of a component (by_component) or, for a scalar, a sum
    or product over components of such terms (factored)."""
    tuples = list(itertools.product(range(1, k + 1), repeat=n_components))
    plain = list if shape else (int, float)
    entries = "matrices" if shape else "values"

    def value(v, p):
        arr = _reals(v, p)
        if arr.shape != shape:
            _fail(f"value must have shape {shape}, got {v!r}", p)
        return arr

    def as_time_coeff(v, p):
        if isinstance(v, plain):
            return TimeCoeff.constant(value(v, p))
        if isinstance(v, dict) and "const" in v:
            return TimeCoeff.constant(value(v["const"], p))
        if isinstance(v, dict) and "knots" in v:
            try:
                times, vals = zip(*v["knots"])
            except (TypeError, ValueError):
                _fail(f"knots must be [time, value] pairs, got {v!r}", p)
            times = _reals(list(times), p)
            vals = np.stack([value(u, p) for u in vals])
            try:
                return TimeCoeff(times, vals)
            except ConfigError as exc:
                raise ConfigError(str(exc), path=p) from None
        _fail(f"cannot interpret coefficient {v!r}", p)

    def per_state(term, p):
        """(component, [TimeCoeff per state]) of a term."""
        mcomp, vals = term.get("component"), term.get(entries)
        if not _is_int(mcomp) or not 0 <= mcomp < n_components:
            _fail("term needs a valid component index", p)
        if not isinstance(vals, list) or len(vals) != k:
            _fail(f"term needs one of {entries} per state (k={k})", p)
        return mcomp, [as_time_coeff(v, f"{p}.{entries}[{j}]")
                       for j, v in enumerate(vals)]

    if isinstance(spec, plain) or (isinstance(spec, dict)
                                   and ("const" in spec or "knots" in spec)):
        coeff = as_time_coeff(spec, path)
        return {x: coeff for x in tuples}
    if isinstance(spec, dict) and "table" in spec:
        if not isinstance(spec["table"], list):
            _fail("table must be a list", f"{path}.table")
        out = {}
        for row_i, row in enumerate(spec["table"]):
            p = f"{path}.table[{row_i}]"
            if not isinstance(row, dict):
                _fail("table entry must be an object", p)
            x = _ints(row.get("x"), p, "table entry x")
            if len(x) != n_components:
                _fail("table entry needs a full regime tuple x", p)
            out[x] = as_time_coeff(row.get("value"), p)
        for x in tuples:
            if x not in out:
                _fail(f"missing table entry for regime tuple {x}", path)
        return out
    if isinstance(spec, dict) and "by_component" in spec:
        mcomp, coeffs = per_state(_section(spec, "by_component", path), path)
        return {x: coeffs[x[mcomp] - 1] for x in tuples}
    if isinstance(spec, dict) and "factored" in spec and not shape:
        fac = _section(spec, "factored", path)
        combine, terms = fac.get("combine", "sum"), fac.get("terms", [])
        if combine not in ("sum", "product"):
            _fail(f"combine must be 'sum' or 'product', got {combine!r}", path)
        if not isinstance(terms, list) or not terms:
            _fail("terms must be a non-empty list", f"{path}.terms")
        resolved = []
        for t_i, term in enumerate(terms):
            if not isinstance(term, dict):
                _fail("term must be an object", f"{path}.terms[{t_i}]")
            resolved.append(per_state(term, f"{path}.terms[{t_i}]"))
        agg = np.sum if combine == "sum" else np.prod
        out = {}
        for x in tuples:
            knots, parts = _union([vals[x[m] - 1] for m, vals in resolved])
            out[x] = TimeCoeff(knots, agg(parts, axis=1))
        return out
    _fail(f"cannot interpret coefficient spec {spec!r}", path)


@dataclass
class Scenario:
    name: str
    horizon: float
    market: MarketModel
    models: list
    claim: Claim
    grid_spec: GridSpec
    solver: SolverSettings
    tol: float
    max_iter: int
    mc_paths: int
    mc_seed: int | None
    rr_paths: int
    rr_seed: int | None
    sensitivity_scale: float
    eval_points: list
    outputs: tuple
    raw: dict = dc_field(repr=False, default_factory=dict)

    def resolved_dict(self):
        """Round-trippable echo of the configuration."""
        return json.loads(json.dumps(self.raw, sort_keys=True))


def parse_scenario(doc: dict, path: str = "scenario") -> Scenario:
    if not isinstance(doc, dict):
        _fail("config root must be an object", path)
    _known(doc, ("name", "horizon", "assets", "components",
                 "states_per_component", "market", "claim", "grid", "solver",
                 "outputs", "mc", "residual_risk", "sensitivity",
                 "eval_points"), path,
           retired=("envelope_check_seed", "threads"))
    name = doc.get("name", "scenario")
    horizon = _number(doc, "horizon", None, path, positive=True)
    n = _count(_section(doc, "assets", path, ("n",)), "n", None,
               f"{path}.assets")

    comps = doc.get("components")
    if not isinstance(comps, list) or not comps:
        _fail("components must be a non-empty list", f"{path}.components")
    n_components = len(comps)
    k = _count(doc, "states_per_component", None, path, least=2)

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
            where = f"{path}.components[{l}].hazards['{key}']"
            for leaf in _HAZARD_LEAVES:
                if isinstance(spec, dict) and leaf in spec:
                    _reals(spec[leaf], where)
            try:
                rates[(i, j)] = make_rate(spec)
            except ConfigError as exc:
                _fail(f"invalid hazard for pair ({i}, {j}): {exc}", where)
        try:
            models.append(HazardModel(k, rates))
        except ConfigError as exc:
            _fail(str(exc), f"{path}.components[{l}]")

    mkt = _section(doc, "market", path)
    rate_map = _coeff(mkt.get("rate", 0.0), k, n_components,
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
        per_asset = [_coeff(ds, k, n_components, f"{path}.market.drift[{l}]")
                     for l, ds in enumerate(drift_spec)]
    else:
        shared = _coeff(drift_spec, k, n_components, f"{path}.market.drift")
        per_asset = [shared] * n
    drift_d = {x: TimeCoeff(*_union([pa[x] for pa in per_asset]))
               for x in rate_d}

    vol_d = _coeff(mkt.get("vol"), k, n_components, f"{path}.market.vol",
                   shape=(n, n))
    try:
        market = MarketModel(n, k, n_components, rate_d, drift_d, vol_d)
        market.validate(horizon)
    except ConfigError as exc:
        raise ConfigError(str(exc), path=f"{path}.market") from None

    cl = _section(doc, "claim", path)
    cl_path = f"{path}.claim"
    strike, slope = (_number(cl, key, 0.0, cl_path)
                     for key in ("strike", "final_slope"))
    arrays = {key: _reals(cl[key], f"{cl_path}.{key}")
              for key in ("weights", "knots", "values") if key in cl}
    try:
        claim = Claim(cl.get("kind", ""), arrays.get("weights", []),
                      strike=strike, knots=arrays.get("knots"),
                      values=arrays.get("values"), final_slope=slope)
    except ConfigError as exc:
        raise ConfigError(str(exc), path=cl_path) from None
    if claim.weights.shape != (n,):
        _fail(f"claim needs {n} weights", f"{cl_path}.weights")

    gr = _section(doc, "grid", path,
                  ("time_steps", "price_nodes", "age_nodes", "span_stds"))
    gr_path = f"{path}.grid"
    # the smallest grid Grid accepts: 2 time steps, 5 price and 2 age nodes
    grid_spec = GridSpec(
        time_steps=_count(gr, "time_steps", 40, gr_path, least=2),
        price_nodes=_count(gr, "price_nodes", 81, gr_path, least=5),
        age_nodes=_count(gr, "age_nodes", 11, gr_path, least=2),
        span_stds=_number(gr, "span_stds", 8.0, gr_path, positive=True))

    sv = _section(doc, "solver", path,
                  ("tol", "max_iter", "gh_nodes", "bsm_outer_nodes"),
                  retired=("bsm_gl_nodes", "bsm_gh_nodes", "panel_nodes",
                           "sparse_level"))
    sv_path = f"{path}.solver"
    solver = SolverSettings(
        gh_nodes=_count(sv, "gh_nodes", 16, sv_path),
        bsm_outer_nodes=_count(sv, "bsm_outer_nodes", OUTER_NODES, sv_path))
    tol = _number(sv, "tol", 1e-4, sv_path, positive=True)
    max_iter = _count(sv, "max_iter", 200, sv_path)

    outputs = doc.get("outputs", ["price-field"])
    if not isinstance(outputs, list) \
            or not all(isinstance(o, str) for o in outputs):
        _fail(f"outputs must be a list of names, got {outputs!r}",
              f"{path}.outputs")
    outputs = tuple(outputs)
    for o in outputs:
        if o not in ALL_OUTPUTS:
            _fail(f"unknown output {o!r}; choose from {ALL_OUTPUTS}",
                  f"{path}.outputs")

    # path counts are integers; a requested output needs at least 100 paths
    mc = _section(doc, "mc", path, ("paths", "seed"), retired=("antithetic",))
    mc_on = "mc-check" in outputs
    mc_seed = _seed(mc, f"{path}.mc", mc_on, "mc-check")
    mc_paths = _count(mc, "paths", 0, f"{path}.mc", least=100 if mc_on else 0,
                      most=_MAX_PATHS)
    rr = _section(doc, "residual_risk", path, ("paths", "seed"))
    rr_on = "residual-risk" in outputs
    rr_seed = _seed(rr, f"{path}.residual_risk", rr_on, "residual-risk")
    rr_paths = _count(rr, "paths", 0, f"{path}.residual_risk",
                      least=100 if rr_on else 0, most=_MAX_PATHS)

    sens_scale = _number(_section(doc, "sensitivity", path, ("scale",)),
                         "scale", 1.1, f"{path}.sensitivity", positive=True)
    if sens_scale == 1.0:
        # the scaled hazards would be the config's own: the check's ratio
        # is then 0/0
        _fail("scale must not be 1", f"{path}.sensitivity.scale")

    eps = doc.get("eval_points", [])
    if not isinstance(eps, list) or not eps:
        _fail("eval_points must be a non-empty list", f"{path}.eval_points")
    eval_points = []
    for e_i, ep in enumerate(eps):
        p = f"{path}.eval_points[{e_i}]"
        if not isinstance(ep, dict):
            _fail("eval point must be an object", p)
        _number(ep, "t", 0.0, p)
        t = ep.get("t", 0.0)  # the report echoes t as written
        s = _reals(ep.get("s", []), p)
        x = _ints(ep.get("x", []), p, "eval point x")
        y = _reals(ep.get("y", [0.0] * n_components), p)
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
        name=str(name), horizon=float(horizon), market=market, models=models,
        claim=claim, grid_spec=grid_spec, solver=solver, tol=tol,
        max_iter=max_iter, mc_paths=mc_paths, mc_seed=mc_seed,
        rr_paths=rr_paths, rr_seed=rr_seed,
        sensitivity_scale=sens_scale, eval_points=eval_points,
        outputs=outputs, raw=doc)


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
