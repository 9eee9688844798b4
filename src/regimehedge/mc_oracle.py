"""Monte Carlo pricing from the exact stochastic representation.

Between regime switches the asset vector is exactly lognormal, so paths are
sampled without any time-discretization error: ``semi_markov.simulate_csm``
draws the switch history by hazard-clock inversion, and the oracle overlays
one multivariate normal log-increment (and the discount) per no-switch
interval.  Under the pricing drift the discounted payoff average is an
unbiased estimate of the price; under the physical drift the same paths
feed the residual-risk accounting.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .market import Claim, MarketModel, build_kernel
from .semi_markov import CsmState, RegimePath, simulate_csm


@dataclass
class PathRecord(RegimePath):
    """A switch history with the asset prices and discounts along it."""

    s_at_jumps: np.ndarray        # (m, n)
    discount_at_jumps: np.ndarray  # (m,) exp(-int_t0^{T_m} r)
    s_terminal: np.ndarray        # (n,)
    discount: float               # exp(-int_t0^T r)


def _spawn_rngs(seed: int, path_id: int):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(path_id,))
    kids = ss.spawn(2)
    return (np.random.Generator(np.random.Philox(kids[0])),
            np.random.Generator(np.random.Philox(kids[1])))


def map_chunks(fn, ids, n_jobs: int):
    """[fn(chunk)] over n_jobs contiguous chunks of ids, in chunk order."""
    if n_jobs <= 1:
        return [fn(ids)]
    with ThreadPoolExecutor(max_workers=n_jobs) as ex:
        return list(ex.map(fn, np.array_split(ids, n_jobs)))


def simulate_path(market: MarketModel, models, start, horizon: float,
                  rng_regime: np.random.Generator,
                  rng_gauss: np.random.Generator,
                  mode: str = "risk-neutral",
                  gauss_sign: float = 1.0) -> PathRecord:
    """Exact path over [t0, horizon] from start = (t0, s, x, y).

    Regime randomness and Gaussian increments come from separate streams so
    antithetic pairs (gauss_sign = -1) share the same switch history.
    """
    t0, s0, x0, y0 = start
    y0 = np.asarray(y0, dtype=float).tolist()  # plain floats check faster
    reg = simulate_csm(models, CsmState(x0, y0), horizon, rng_regime,
                       start=t0)
    m = reg.n_jumps
    s = np.asarray(s0, dtype=float).copy()
    bounds = [reg.start_time, *reg.jump_times.tolist(), horizon]
    s_jumps, disc_jumps = [], []
    log_disc = 0.0
    for k, x in enumerate(map(tuple, reg.states.tolist())):
        t = bounds[k]
        d = bounds[k + 1] - t
        if d > 0:
            kern = build_kernel(market, t, x, d, mode=mode)
            z = kern.zbar + kern.chol @ (gauss_sign
                                         * rng_gauss.standard_normal(market.n))
            s = s * np.exp(z)
            log_disc -= market.r(x) * d
        if k < m:
            s_jumps.append(s.copy())
            disc_jumps.append(math.exp(log_disc))

    return PathRecord(
        **vars(reg),
        s_at_jumps=np.asarray(s_jumps).reshape(m, market.n),
        discount_at_jumps=np.asarray(disc_jumps),
        s_terminal=s, discount=math.exp(log_disc))


def simulate_risk_neutral(market, models, start, horizon, seed=0, path_id=0,
                          gauss_sign=1.0) -> PathRecord:
    rr, rg = _spawn_rngs(seed, path_id)
    return simulate_path(market, models, start, horizon, rr, rg,
                         mode="risk-neutral", gauss_sign=gauss_sign)


def _discounted_payoffs(market, claim, models, start, horizon, seed, ids,
                        antithetic):
    signs = (1.0, -1.0) if antithetic else (1.0,)
    out = np.empty(len(ids) * len(signs))
    k = 0
    for pid in ids:
        for sign in signs:
            rr, rg = _spawn_rngs(seed, pid)
            path = simulate_path(market, models, start, horizon, rr, rg,
                                 gauss_sign=sign)
            out[k] = path.discount * float(claim(path.s_terminal))
            k += 1
    return out


def mc_price(market: MarketModel, claim: Claim, models, start, horizon: float,
             n_paths: int, seed: int, antithetic: bool = False,
             n_jobs: int = 1):
    """Discounted-payoff mean and standard error over n_paths exact paths.

    Reproducible for a fixed seed: each path owns counter-derived streams
    and the aggregation order is fixed regardless of the worker count.
    """
    if n_paths < 100:
        raise ValueError("n_paths must be at least 100")
    n_ids = n_paths // 2 if antithetic else n_paths
    vals = np.concatenate(map_chunks(
        lambda ids: _discounted_payoffs(market, claim, models, start, horizon,
                                        seed, ids, antithetic),
        np.arange(n_ids), n_jobs))
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    return mean, se


def dump_paths(paths, fileobj) -> None:
    """Jump log as CSV: path-id, jump time, component, from, to, prices."""
    close = False
    if isinstance(fileobj, (str, bytes)):
        fileobj = open(fileobj, "w")
        close = True
    try:
        n = paths[0].s_terminal.shape[0] if paths else 0
        cols = ["path", "t", "component", "from_state", "to_state"]
        cols += [f"s{l + 1}" for l in range(n)]
        fileobj.write(",".join(cols) + "\n")
        for pid, p in enumerate(paths):
            for m in range(p.n_jumps):
                row = [str(pid), f"{p.jump_times[m]:.17g}",
                       str(int(p.jump_component[m])),
                       str(int(p.jump_from[m])), str(int(p.jump_to[m]))]
                row += [f"{v:.17g}" for v in p.s_at_jumps[m]]
                fileobj.write(",".join(row) + "\n")
    finally:
        if close:
            fileobj.close()
