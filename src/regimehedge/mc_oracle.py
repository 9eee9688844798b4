"""Monte Carlo pricing from the exact stochastic representation.

Between regime switches the asset vector is exactly lognormal, so paths are
sampled without any time-discretization error: ``semi_markov.simulate_csm``
draws the switch history by hazard-clock inversion, and the oracle overlays
one multivariate normal log-increment (and the discount) per no-switch
segment.  Paths are simulated in blocks: the switch histories and Gaussian
draws of a block first, then one ``build_kernel`` call per regime tuple over
all of the block's segments.  Each path owns its streams, and a segment's
kernel does not depend on the block it sits in, so the block size and the
worker count never change a result.  Under the pricing drift the discounted
payoff average is an unbiased estimate of the price; under the physical
drift the same paths feed the residual-risk accounting.

Path ``pid`` of a run with seed ``seed`` draws its switch history from the
Philox stream with key ``(w, 2 pid)`` and its Gaussian increments from the
one with key ``(w, 2 pid + 1)``, where ``w`` is the first 64-bit word of
``SeedSequence(seed)``.  Philox is counter based and keyed (Salmon, Moraes,
Dror and Shaw, SC'11): a stream is fixed by its 128-bit key alone, and
distinct keys give independent streams.  So one pair of generators is
re-keyed for each path instead of building two generators per path.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .market import Claim, MarketModel, build_kernel
from .semi_markov import CsmState, simulate_csm

_BLOCK = 1024   # path ids simulated together


@dataclass
class PathBlock:
    """Exact paths of a block, flat per path and per jump.

    Jumps are ordered by path, then by time.
    """

    n_jumps: np.ndarray            # (P,)
    s_terminal: np.ndarray         # (P, n)
    discount: np.ndarray           # (P,) exp(-int_t0^T r)
    jump_path: np.ndarray          # (J,) row of the jump's path
    jump_times: np.ndarray         # (J,)
    pre_index: np.ndarray          # (J,) regime-tuple index before the jump
    post_index: np.ndarray         # (J,) and after it
    ages_before: np.ndarray        # (J, c)
    ages_after: np.ndarray         # (J, c) the jumper's age at 0
    s_at_jumps: np.ndarray         # (J, n)
    discount_at_jumps: np.ndarray  # (J,) exp(-int_t0^{T_m} r)


_ZERO4 = np.zeros(4, dtype=np.uint64)


def _stream_keys(seed: int, ids, k: int) -> np.ndarray:
    """(P, 2) uint64 Philox keys of stream k of the paths ids: row p is
    (w, 2 ids[p] + k), w the first word of SeedSequence(seed), which
    rejects a negative seed."""
    ids = np.asarray(ids).reshape(-1)
    if ids.size and (ids.min() < 0 or ids.max() >= 2 ** 32):
        raise ValueError("path ids must lie in [0, 2**32)")
    w = np.random.SeedSequence(int(seed)).generate_state(1, np.uint64)[0]
    return np.stack([np.full(len(ids), w),
                     2 * ids.astype(np.uint64) + k], axis=1)


def _stream_pair():
    """A (regime, Gaussian) pair of generators, to be re-keyed per path."""
    return tuple(np.random.Generator(np.random.Philox(0)) for _ in (0, 1))


def _rekey(pair, keys):
    """Point pair at the streams keys, at counter 0 with empty buffers."""
    for rng, key in zip(pair, keys):
        rng.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZERO4, "key": key},
            "buffer": _ZERO4, "buffer_pos": 4, "has_uint32": 0,
            "uinteger": 0}
    return pair


def stream_blocks(seed: int, ids):
    """The streams of ids in consecutive blocks of _BLOCK, made lazily.

    Each block is an iterator of (regime, Gaussian) generator pairs, one
    per id.  The keys of a block are made together, and every pair this
    call yields is the same two generators re-keyed for the next id, so a
    pair is valid only until the next one is drawn: use each path's streams
    completely before advancing.  Separate calls own separate generators.
    """
    pair = _stream_pair()
    for lo in range(0, len(ids), _BLOCK):
        block = ids[lo:lo + _BLOCK]
        keys = zip(*(_stream_keys(seed, block, k) for k in (0, 1)))
        yield (_rekey(pair, path_keys) for path_keys in keys)


def map_chunks(fn, ids, n_jobs: int):
    """[fn(chunk)] over at most n_jobs contiguous chunks of ids, none empty
    unless ids is, in chunk order."""
    n_jobs = min(n_jobs, len(ids))
    if n_jobs <= 1:
        return [fn(ids)]
    with ThreadPoolExecutor(max_workers=n_jobs) as ex:
        return list(ex.map(fn, np.array_split(ids, n_jobs)))


def simulate_path(market: MarketModel, models, start, horizon: float, rngs,
                  mode: str = "risk-neutral") -> PathBlock:
    """Exact paths over [t0, horizon] from start = (t0, s, x, y), one per
    (rng_regime, rng_gauss) pair of rngs.

    Pass 1 runs simulate_csm on each path's regime stream and draws
    standard_normal((k, n)) from its Gaussian stream, k the number of its
    segments of positive length.  Pass 2 builds the kernels of the block's
    segments with one build_kernel call per regime tuple and compounds
    prices and log-discounts in segment order.
    """
    t0, s0, x0, y0 = start
    init = CsmState(x0, np.asarray(y0, dtype=float).tolist())
    n = market.n
    seg_t, seg_v, seg_x, n_segs, draws = [], [], [], [], []
    j_times, ages_b, ages_a = [], [], []
    for rng_regime, rng_gauss in rngs:
        reg = simulate_csm(models, init, horizon, rng_regime, start=t0)
        bounds = [reg.start_time, *reg.jump_times.tolist(), horizon]
        lengths = [b - a for a, b in zip(bounds[:-1], bounds[1:])]
        seg_t += bounds[:-1]
        seg_v += lengths
        seg_x += [market.x_index[x] for x in map(tuple, reg.states.tolist())]
        n_segs.append(len(lengths))
        draws.append(rng_gauss.standard_normal(
            (sum(d > 0 for d in lengths), n)))
        j_times.append(reg.jump_times)
        ages_b.append(reg.ages_before)
        ages_a.append(reg.ages_after)

    seg_t, seg_v = np.array(seg_t), np.array(seg_v)
    seg_x, n_segs = np.array(seg_x, dtype=int), np.array(n_segs, dtype=int)
    eps = np.concatenate(draws)
    live = np.flatnonzero(seg_v > 0)     # the segments that own a draw
    growth = np.ones((len(seg_v), n))
    rate_dt = np.zeros(len(seg_v))
    live_x = seg_x[live]
    for xi in np.unique(live_x):
        rows = np.flatnonzero(live_x == xi)
        seg = live[rows]
        x = market.x_tuples[xi]
        kern = build_kernel(market, seg_t[seg], x, seg_v[seg], mode=mode)
        # chol @ eps per segment, summed in column order
        e = eps[rows]
        shock = kern.chol[..., 0] * e[:, None, 0]
        for col in range(1, n):
            shock = shock + kern.chol[..., col] * e[:, None, col]
        growth[seg] = np.exp(kern.zbar + shock)
        rate_dt[seg] = market.r(x) * seg_v[seg]

    P = len(n_segs)
    first = np.cumsum(n_segs) - n_segs
    jump_first = first - np.arange(P)
    J = len(seg_v) - P
    jump_path = np.repeat(np.arange(P), n_segs - 1)
    s = np.broadcast_to(np.asarray(s0, dtype=float), (P, n)).copy()
    log_disc = np.zeros(P)
    s_jumps = np.empty((J, n))
    log_disc_jumps = np.empty(J)
    for k in range(int(n_segs.max(initial=0))):
        alive = np.flatnonzero(n_segs > k)
        seg = first[alive] + k
        s[alive] = s[alive] * growth[seg]
        log_disc[alive] = log_disc[alive] - rate_dt[seg]
        jumping = alive[n_segs[alive] > k + 1]
        jrow = jump_first[jumping] + k
        s_jumps[jrow] = s[jumping]
        log_disc_jumps[jrow] = log_disc[jumping]

    pre_seg = np.arange(J) + jump_path    # jump m of path p ends segment m
    return PathBlock(
        n_jumps=n_segs - 1, s_terminal=s, discount=np.exp(log_disc),
        jump_path=jump_path, jump_times=np.concatenate(j_times),
        pre_index=seg_x[pre_seg], post_index=seg_x[pre_seg + 1],
        ages_before=np.concatenate(ages_b), ages_after=np.concatenate(ages_a),
        s_at_jumps=s_jumps, discount_at_jumps=np.exp(log_disc_jumps))


def _discounted_payoffs(market, claim, models, start, horizon, seed, ids):
    out = []
    for rngs in stream_blocks(seed, ids):
        blk = simulate_path(market, models, start, horizon, rngs)
        out.append(blk.discount * claim(blk.s_terminal))
    return np.concatenate(out)


def mc_price(market: MarketModel, claim: Claim, models, start, horizon: float,
             n_paths: int, seed: int, n_jobs: int = 1):
    """Discounted-payoff mean and standard error over n_paths exact paths.

    Reproducible for a fixed seed: each path owns counter-derived streams
    and the aggregation order is fixed regardless of the worker count.
    """
    if n_paths < 100:
        raise ValueError("n_paths must be at least 100")
    vals = np.concatenate(map_chunks(
        lambda ids: _discounted_payoffs(market, claim, models, start, horizon,
                                        seed, ids),
        np.arange(n_paths), n_jobs))
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    return mean, se
