"""Monte Carlo pricing from the exact stochastic representation.

Between regime switches the asset vector is exactly lognormal, so paths are
sampled without any time-discretization error: ``semi_markov.simulate_csm``
draws the switch histories by hazard-clock inversion, and the oracle
overlays one multivariate normal log-increment (and the discount) per
no-switch segment.  A block of path ids is the one unit of work:
``map_blocks`` cuts the ids 0..n-1 into blocks of ``_BLOCK`` and hands them
to ``fn`` one after another, in block order.  ``simulate_path`` simulates a
block's switch histories one jump round at a time, then its Gaussian draws,
then makes one ``build_kernel`` call per regime tuple over all of the
block's segments.  Each path owns its streams, and a segment's kernel does
not depend on the block it sits in, so the block size never changes a
result.  Under the pricing drift the discounted payoff average is an
unbiased estimate of the price; under the physical drift the same paths
feed the residual-risk accounting (``analysis.residual_risk``).  Both take
their mean and standard error from ``estimate``.

Path ``pid`` of a run with seed ``seed`` reads the Philox4x64-10 stream
with key ``(w, 2 pid)`` for its switch history and the one with key
``(w, 2 pid + 1)`` for its Gaussian increments, where ``w`` is the first
64-bit word of ``SeedSequence(seed)``.  Philox is counter based and keyed
(Salmon, Moraes, Dror and Shaw, SC'11): word 4b + j of a stream is output j
of the cipher applied to the counter (b + 1, 0, 0, 0), the layout of
numpy's ``Philox(key=...).random_raw()``.  So the words of every path of a
block are computed at once in numpy (``semi_markov._philox_words``).  A
word becomes

* U = (word >> 11) 2**-53 in [0, 1), numpy's ``Generator.random()``;
* E = -log1p(-U), an Exp(1) draw;
* Z = ndtri(((word >> 12) + 0.5) 2**-52), an N(0, 1) draw from the
  midpoint of one of 2**52 equal cells, a float that is never 0 or 1.

The regime stream gives one E per component for the initial clocks, then
one U (the destination) and one E (the new clock) per jump.  The Gaussian
stream gives one Z per asset of each segment of positive length, in segment
order and then asset order.  E is not numpy's
``standard_exponential(method="inv")``: that method calls libm's ``log``,
which differs in the last bit from numpy's ``log1p`` ufunc on a few percent
of draws.  The ufuncs used here give the same bits for an element alone as
at any position of an array, which keeps a path's draws independent of its
block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .market import Claim, MarketModel, build_kernel
from .semi_markov import CsmState, SwitchBlock, _philox_words, simulate_csm

_BLOCK = 1024   # path ids simulated together


@dataclass
class PathBlock(SwitchBlock):
    """Exact paths of a block: its switch histories with the asset and
    discount overlay, flat per path and per jump."""

    pre_index: np.ndarray          # (J,) regime-tuple index before the jump
    post_index: np.ndarray         # (J,) and after it
    s_terminal: np.ndarray         # (P, n)
    discount: np.ndarray           # (P,) exp(-int_t0^T r)
    s_at_jumps: np.ndarray         # (J, n)
    discount_at_jumps: np.ndarray  # (J,) exp(-int_t0^{T_m} r)


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


def _normals(keys, counts):
    """The first counts[p] N(0, 1) draws Z of the stream keyed keys[p], for
    every row p, concatenated in row order."""
    n_ctr = -(-int(counts.max(initial=0)) // 4)
    words = np.zeros((len(keys), 4 * n_ctr), dtype=np.uint64)
    for b in range(n_ctr):
        rows = np.flatnonzero(counts > 4 * b)
        words[rows, 4 * b:4 * b + 4] = _philox_words(keys[rows], b)
    used = words[np.arange(4 * n_ctr) < counts[:, None]]
    return ndtri(((used >> np.uint64(12)) + 0.5) * 2.0 ** -52)


def map_blocks(fn, n_paths: int):
    """[fn(ids)] over the path ids 0..n_paths-1 in consecutive blocks of
    _BLOCK, in block order."""
    if n_paths < 100:
        raise ValueError("n_paths must be at least 100")
    ids = np.arange(n_paths)
    return [fn(ids[lo:lo + _BLOCK]) for lo in range(0, n_paths, _BLOCK)]


def estimate(vals):
    """Mean and standard error of the per-path values vals."""
    return (float(np.mean(vals)),
            float(np.std(vals, ddof=1) / math.sqrt(len(vals))))


def simulate_path(market: MarketModel, models, start, horizon: float,
                  seed: int, ids, mode: str = "risk-neutral") -> PathBlock:
    """Exact paths over [t0, horizon] from start = (t0, s, x, y), one per
    path id of ids, on the streams of seed.

    Pass 1 runs simulate_csm on the block's regime streams and draws
    n Gaussians per segment of positive length from the Gaussian streams.
    Pass 2 builds the kernels of the block's segments with one build_kernel
    call per regime tuple and compounds prices and log-discounts in segment
    order.
    """
    t0, s0, x0, y0 = start
    n = market.n
    sw = simulate_csm(models, CsmState(x0, np.asarray(y0, float).tolist()),
                      horizon, _stream_keys(seed, ids, 0), start=t0)
    P, J = len(sw.n_jumps), len(sw.jump_times)
    # segments by path, then by time: segment 0 of a path starts at t0 and
    # segment m + 1 at its jump m
    n_segs = sw.n_jumps + 1
    first = np.cumsum(n_segs) - n_segs
    at_jump = np.ones(P + J, dtype=bool)
    at_jump[first] = False
    seg_t = np.full(P + J, float(t0))
    seg_t[at_jump] = sw.jump_times
    seg_end = np.append(seg_t[1:], float(horizon))
    seg_end[first + n_segs - 1] = float(horizon)
    seg_v = seg_end - seg_t
    # x_tuples run in itertools.product order: a tuple's index is its flat
    # index in the (k,) * c array of states
    seg_x = np.full(P + J, market.x_index[tuple(x0)])
    seg_x[at_jump] = np.ravel_multi_index(
        tuple((sw.states_after - 1).T), (market.k,) * market.n_components)
    live = np.flatnonzero(seg_v > 0)     # the segments that own a draw
    per_path = np.bincount(np.repeat(np.arange(P), n_segs)[live],
                           minlength=P)
    eps = _normals(_stream_keys(seed, ids, 1), n * per_path).reshape(-1, n)
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

    jump_first = first - np.arange(P)
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

    pre_seg = np.arange(J) + sw.jump_path  # jump m of path p ends segment m
    return PathBlock(
        **vars(sw), pre_index=seg_x[pre_seg], post_index=seg_x[pre_seg + 1],
        s_terminal=s, discount=np.exp(log_disc), s_at_jumps=s_jumps,
        discount_at_jumps=np.exp(log_disc_jumps))


def mc_price(market: MarketModel, claim: Claim, models, start, horizon: float,
             n_paths: int, seed: int):
    """Discounted-payoff mean and standard error over n_paths exact paths.

    Reproducible for a fixed seed: each path owns counter-derived streams
    and the blocks are aggregated in path order.  The claim is evaluated
    once over all terminal prices, because its basket (a matrix product)
    rounds a lone row differently from the same row among others.
    """
    def terminal(ids):
        blk = simulate_path(market, models, start, horizon, seed, ids)
        return blk.discount, blk.s_terminal

    disc, s_T = map(np.concatenate, zip(*map_blocks(terminal, n_paths)))
    return estimate(disc * claim(s_T))
