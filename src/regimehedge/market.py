"""Regime- and time-dependent market coefficients and the inter-jump kernel.

Between regime switches the asset vector is a multivariate geometric
Brownian motion with coefficients frozen at the current regime tuple x, so
the transition law over an interval of length v is lognormal with log-mean
``zbar = int (mu - a_ll/2)`` (or with mu replaced by r(x) under the pricing
measure) and log-covariance ``Sigma = int a``, where ``a = sigma sigma^T``.
sigma and mu are piecewise linear in time, so both integrals are read from
a per-piece polynomial table built once per regime tuple.  This module owns
those coefficient maps, the kernel (the law zbar, Sigma and the Cholesky
factor of Sigma; the density and the quadrature-based expectation take the
reference price s as an argument), and the claims.  Every claim is one
hinge form in the basket, so its expectation is closed form given the
other assets: the pivot asset's integral is a Black formula per hinge and
only the head assets need quadrature, a tensor Gauss-Hermite rule with
``outer_nodes`` per axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import ConfigError, SingularCovariance
from .quadrature import tensor_normal_nodes

_COND_LIMIT = 1e12

# per-axis Gauss-Hermite nodes of kernel_expectation
_EXPECTATION_NODES = 32


# ---------------------------------------------------------------------------
# Piecewise-linear time coefficient
# ---------------------------------------------------------------------------

class TimeCoeff:
    """Scalar/vector/matrix coefficient, piecewise linear in t.

    A single knot means a constant; outside the knot range the value is held
    flat, keeping the coefficient continuous on [0, T].
    """

    def __init__(self, knots, values):
        self.knots = np.atleast_1d(np.asarray(knots, dtype=float))
        self.values = np.asarray(values, dtype=float)
        if not self.knots.size or self.values.shape[0] != self.knots.size:
            raise ConfigError("coefficient needs knots, each with a value")
        if not np.all(np.isfinite(self.knots)) \
                or np.any(np.diff(self.knots) <= 0):
            raise ConfigError(
                "coefficient knots must be finite and strictly increasing")

    @classmethod
    def constant(cls, value):
        return cls([0.0], np.asarray(value, dtype=float)[None, ...])

    @property
    def is_constant(self):
        return self.knots.size == 1

    def __call__(self, t: float):
        if self.is_constant:
            return self.values[0]
        t = min(max(float(t), self.knots[0]), self.knots[-1])
        idx = np.searchsorted(self.knots, t, side="right") - 1
        idx = min(max(idx, 0), self.knots.size - 2)
        w = (t - self.knots[idx]) / (self.knots[idx + 1] - self.knots[idx])
        return (1.0 - w) * self.values[idx] + w * self.values[idx + 1]


def _piece_table(coeff: TimeCoeff, shape, square: bool):
    """Polynomial pieces of c(u), or of c(u) c(u)^T when square.

    Piece j spans [edges[j], edges[j+1]], edges = [-inf, knots..., inf], and
    holds its left end lefts[j] (the knot of a flat end piece) and the rows
    polys[j] = (P0, P1, P2) of its polynomial in w = u - lefts[j].
    """
    knots = coeff.knots.tolist()
    c = coeff.values.reshape((len(knots),) + shape)
    zero = np.zeros(shape)
    lines = [(knots[0], c[0], zero)] + [
        (knots[j - 1], c[j - 1], (c[j] - c[j - 1]) / (knots[j] - knots[j - 1]))
        for j in range(1, len(knots))] + [(knots[-1], c[-1], zero)]
    # (c0 + c1 w)(c0 + c1 w)^T, or c0 + c1 w; a knot gap near the float
    # minimum overflows them
    with np.errstate(over="ignore"):
        polys = [np.reshape((c0 @ c0.T, c0 @ c1.T + c1 @ c0.T, c1 @ c1.T)
                            if square else (c0, c1, zero), (3, -1))
                 for _, c0, c1 in lines]
    if not np.all(np.isfinite(polys)):
        raise ConfigError("coefficient knots too close for a finite slope")
    return (np.array([-math.inf] + knots + [math.inf]),
            np.array([u for u, _, _ in lines]), np.stack(polys), shape)


def _integrate_pieces(table, t0, t1):
    """int_{t0}^{t1} of a piece table, zero where t1 <= t0.

    t0 and t1 are scalars or equal-length 1-D arrays; arrays add a leading
    axis to the result.  Each piece adds d (P0 + P1 (w0 + w1)/2 +
    P2 (w1^2 + w1 w0 + w0^2)/3) over its part [w0, w1] of length d; the
    product form keeps a short segment's digits, where a difference of
    antiderivatives would not.  The terms are elementwise, so an entry's
    bits do not depend on the other entries of the call.
    """
    edges, lefts, polys, shape = table
    t0, t1 = np.asarray(t0, dtype=float), np.asarray(t1, dtype=float)
    first = np.searchsorted(edges, t0, side="right") - 1
    stop = np.maximum(np.searchsorted(edges, t1, side="left"), first + 1)
    total = np.zeros(np.broadcast(t0, t1).shape + polys.shape[-1:])
    for q in range(int((stop - first).max(initial=0))):
        j = np.minimum(first + q, stop - 1)
        a = np.maximum(t0, edges[j])
        b = np.minimum(t1, edges[j + 1])
        d = np.where((first + q < stop) & (t1 > t0), b - a, 0.0)[..., None]
        w0, w1 = a - lefts[j], b - lefts[j]
        m1 = (0.5 * (w0 + w1))[..., None]
        m2 = ((w1 * w1 + w1 * w0 + w0 * w0) / 3.0)[..., None]
        p = polys[j]
        total = total + d * (p[..., 0, :] + p[..., 1, :] * m1
                             + p[..., 2, :] * m2)
    return total.reshape(total.shape[:-1] + shape)


# ---------------------------------------------------------------------------
# Market model
# ---------------------------------------------------------------------------

class MarketModel:
    """Coefficient maps r(x), mu(t, x), sigma(t, x) over regime tuples.

    Parameters
    ----------
    n : int
        Number of risky assets.
    k : int
        States per component (tuples live in {1..k}^(n_components)).
    n_components : int
        Number of driving semi-Markov components (assets + 1 in the usual
        setup, but any positive count is accepted).
    rate : dict[tuple, float]
    drift : dict[tuple, TimeCoeff]      values shaped (n,)
    vol : dict[tuple, TimeCoeff]        values shaped (n, n)
    """

    def __init__(self, n: int, k: int, n_components: int,
                 rate: dict, drift: dict, vol: dict):
        self.n = int(n)
        self.k = int(k)
        self.n_components = int(n_components)
        self.x_tuples = list(_all_tuples(k, n_components))
        self.x_index = {x: i for i, x in enumerate(self.x_tuples)}
        for x in self.x_tuples:
            if x not in rate or x not in drift or x not in vol:
                raise ConfigError(f"missing coefficients for regime tuple {x}")
            if rate[x] < 0:
                raise ConfigError(f"rate must be nonnegative at {x}")
        self._rate = {x: float(rate[x]) for x in self.x_tuples}
        self._sigma = vol
        # per regime tuple, the pieces of mu and of a = sigma sigma^T
        self._mu_pieces = {x: _piece_table(drift[x], (self.n,), False)
                           for x in self.x_tuples}
        self._a_pieces = {x: _piece_table(vol[x], (self.n, self.n), True)
                          for x in self.x_tuples}

    # -- pointwise evaluation --------------------------------------------------

    def r(self, x) -> float:
        return self._rate[tuple(x)]

    def sigma(self, t: float, x) -> np.ndarray:
        return np.asarray(self._sigma[tuple(x)](t), dtype=float).reshape(self.n, self.n)

    def a(self, t: float, x) -> np.ndarray:
        s = self.sigma(t, x)
        return s @ s.T

    # -- exact time integrals ----------------------------------------------------

    def a_integral(self, t0, t1, x) -> np.ndarray:
        """int_{t0}^{t1} a(u, x) du, exact for piecewise-linear sigma.

        Zero where t1 <= t0; array t0, t1 add a leading axis."""
        return _integrate_pieces(self._a_pieces[tuple(x)], t0, t1)

    def mu_integral(self, t0, t1, x) -> np.ndarray:
        """int_{t0}^{t1} mu(u, x) du, exact for piecewise-linear mu.

        Zero where t1 <= t0; array t0, t1 add a leading axis."""
        return _integrate_pieces(self._mu_pieces[tuple(x)], t0, t1)

    # -- validation ---------------------------------------------------------------

    def validate(self, horizon: float):
        """Invertibility and SPD checks on all regime tuples over [0, horizon]."""
        for x in self.x_tuples:
            knots = list(self._sigma[x].knots) + [0.0, horizon]
            for t in sorted(set(float(k) for k in knots if 0.0 <= k <= horizon)):
                sig = self.sigma(t, x)
                cond = np.linalg.cond(sig)
                if not np.isfinite(cond) or cond > _COND_LIMIT:
                    raise ConfigError(
                        f"volatility matrix at t={t}, x={x} is numerically "
                        f"singular (cond={cond:.3e})")
                try:
                    np.linalg.cholesky(sig @ sig.T)
                except np.linalg.LinAlgError as exc:
                    raise ConfigError(
                        f"diffusion matrix not SPD at t={t}, x={x}") from exc


def _all_tuples(k: int, n_components: int):
    import itertools
    return itertools.product(range(1, k + 1), repeat=n_components)


def build_market(n: int, k: int, n_components: int, rate, drift, vol) -> MarketModel:
    """Convenience constructor from callables or constants.

    rate: callable(x)->float or scalar; drift: callable(x)->vector/TimeCoeff
    or constant vector; vol: callable(x)->matrix/TimeCoeff or constant matrix.
    """
    def as_coeff(v, shape):
        if isinstance(v, TimeCoeff):
            return v
        arr = np.asarray(v, dtype=float)
        return TimeCoeff.constant(arr.reshape(shape))

    tuples = list(_all_tuples(k, n_components))
    rate_d, mu_d, vol_d = {}, {}, {}
    for x in tuples:
        rate_d[x] = float(rate(x)) if callable(rate) else float(rate)
        mv = drift(x) if callable(drift) else drift
        vv = vol(x) if callable(vol) else vol
        mu_d[x] = as_coeff(mv, (n,))
        vol_d[x] = as_coeff(vv, (n, n))
    return MarketModel(n, k, n_components, rate_d, mu_d, vol_d)


# ---------------------------------------------------------------------------
# Claims
# ---------------------------------------------------------------------------

class Claim:
    """Nonnegative Lipschitz payoff of the terminal asset vector.

    Supported kinds: ``basket-call`` (w.s - strike)^+, ``basket-put``
    (strike - w.s)^+, ``linear`` w.s, and ``custom-piecewise-linear``
    (a piecewise-linear function of the basket value b = w.s given by
    (knot, value) pairs plus a final slope beyond the last knot).

    Every kind is one hinge form,
    K = offset + slope * b + sum_j hinge_slopes[j] * (b - hinge_strikes[j])^+,
    which the payoff, its envelope and the frozen-regime pricer's closed
    form all read.

    Derived attributes: ``c1`` (asymptotic linear coefficient) and ``c2``
    (envelope half-width with |K(s) - c1.s| <= c2 on the nonnegative
    orthant).
    """

    def __init__(self, kind: str, weights, strike: float = 0.0,
                 knots=None, values=None, final_slope: float = 0.0):
        self.kind = kind
        self.weights = np.asarray(weights, dtype=float)
        if np.any(self.weights < 0):
            raise ConfigError("claim weights must be nonnegative")
        self.strike = float(strike)
        self.knots = None
        self.values = None
        self.final_slope = float(final_slope)

        if kind in ("basket-call", "basket-put"):
            if self.strike < 0:
                raise ConfigError("strike must be nonnegative")
            # the put is K - b + (b - K)^+
            put = kind == "basket-put"
            self.offset, self.slope = (self.strike, -1.0) if put else (0.0, 0.0)
            self.hinge_strikes = np.array([self.strike])
            self.hinge_slopes = np.ones(1)
        elif kind == "linear":
            self.offset, self.slope = 0.0, 1.0
            self.hinge_strikes = self.hinge_slopes = np.zeros(0)
        elif kind == "custom-piecewise-linear":
            self.knots = np.asarray(knots, dtype=float)
            self.values = np.asarray(values, dtype=float)
            if self.knots.ndim != 1 or self.knots.size < 1 \
                    or self.values.shape != self.knots.shape:
                raise ConfigError("custom claim needs matching knots and values")
            if np.any(np.diff(self.knots) <= 0):
                raise ConfigError("custom claim knots must be strictly increasing")
            if np.any(self.values < 0) or self.final_slope < 0:
                raise ConfigError("custom claim must stay nonnegative")
            slopes = np.diff(self.values) / np.diff(self.knots)
            self.offset, self.slope = float(self.values[0]), 0.0
            self.hinge_strikes = self.knots
            self.hinge_slopes = np.diff(
                np.concatenate([[0.0], slopes, [self.final_slope]]))
            # tiny knot gaps lose the final slope to cancellation
            if not math.isclose(self.hinge_slopes.sum(), self.final_slope,
                                rel_tol=1e-6, abs_tol=1e-6):
                raise ConfigError(
                    "custom claim knots too close for its hinge form")
        else:
            raise ConfigError(f"unknown claim kind {kind!r}")

        final = self.slope + self.hinge_slopes.sum()  # beyond the last hinge
        self.c1 = final * self.weights
        # K - c1.s is piecewise linear in b and flat beyond the last hinge,
        # so its supremum over b >= 0 sits at b = 0 or at a hinge
        b = np.concatenate([[0.0], self.hinge_strikes[self.hinge_strikes > 0]])
        self.c2 = max(float(np.max(np.abs(self._hinge_sum(b) - final * b))),
                      1e-12)

    def basket(self, s):
        return np.asarray(s, dtype=float) @ self.weights

    def _hinge_sum(self, b):
        ramps = np.maximum(b[..., None] - self.hinge_strikes, 0.0)
        return self.offset + self.slope * b + ramps @ self.hinge_slopes

    def __call__(self, s):
        return self._hinge_sum(self.basket(s))


# ---------------------------------------------------------------------------
# Inter-jump lognormal kernel
# ---------------------------------------------------------------------------

@dataclass
class LognormalKernel:
    """Lognormal law of S_{t+v}/S_t over a no-jump interval, or over a batch
    of intervals along a leading segment axis."""

    zbar: np.ndarray           # (n,) log-mean
    cov: np.ndarray            # (n, n) log-covariance
    chol: np.ndarray           # (n, n) lower Cholesky factor of cov

    @property
    def n(self):
        return self.zbar.shape[-1]


def build_kernel(market: MarketModel, t, x, v,
                 mode: str = "risk-neutral") -> LognormalKernel:
    """Kernel over [t, t+v] in regime x; v must be positive.

    t and v are scalars or equal-length 1-D arrays (one of them may be a
    scalar).  With arrays zbar, cov and chol carry a leading segment axis,
    and each segment's kernel equals the scalar call bit for bit.
    """
    t, v = np.asarray(t, dtype=float), np.asarray(v, dtype=float)
    if np.any(v <= 0):
        raise ValueError("kernel horizon v must be positive")
    x = tuple(x)
    cov = market.a_integral(t, t + v, x)
    diag = np.diagonal(cov, axis1=-2, axis2=-1)
    if mode == "risk-neutral":
        zbar = market.r(x) * v[..., None] - 0.5 * diag
    elif mode == "physical":
        zbar = market.mu_integral(t, t + v, x) - 0.5 * diag
    else:
        raise ValueError(f"unknown drift mode {mode!r}")
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        t, v = np.broadcast_arrays(t, v)
        k = next(k for k in np.ndindex(t.shape) if not _is_spd(cov[k]))
        raise SingularCovariance(
            f"log covariance not SPD at t={t[k]}, x={x}, v={v[k]}") from exc
    return LognormalKernel(zbar=zbar, cov=cov, chol=chol)


def _is_spd(mat) -> bool:
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return False
    return True


def kernel_density(kern: LognormalKernel, s, sig) -> np.ndarray | float:
    """Density of S_{t+v} at sig given S_t = s."""
    s = np.asarray(s, dtype=float)
    sig = np.asarray(sig, dtype=float)
    scalar = sig.ndim == 1
    pts = np.atleast_2d(sig)
    z = np.log(pts / s)
    dev = z - kern.zbar
    sol = np.linalg.solve(kern.cov, dev.T).T
    quad_form = np.sum(dev * sol, axis=-1)
    det = np.prod(np.diag(kern.chol)) ** 2
    norm = math.sqrt((2.0 * math.pi) ** kern.n * det)
    dens = np.exp(-0.5 * quad_form) / (norm * np.prod(pts, axis=-1))
    return float(dens[0]) if scalar else dens


def kernel_nodes(kern: LognormalKernel, s):
    """Gauss-Hermite nodes of S_{t+v} given S_t = s: sig (Q, n), w (Q,)."""
    xi, w = tensor_normal_nodes(kern.n, _EXPECTATION_NODES)
    return np.asarray(s, dtype=float) * np.exp(kern.zbar + xi @ kern.chol.T), w


def kernel_expectation(kern: LognormalKernel, s, g) -> float:
    """E[g(S_{t+v}) | S_t = s] for g of at most linear growth."""
    sig, w = kernel_nodes(kern, s)
    return float(np.dot(w, np.asarray(g(sig), dtype=float)))


# ---------------------------------------------------------------------------
# Conditional closed form for piecewise-linear claims
# ---------------------------------------------------------------------------

def claim_nodes(kern: LognormalKernel, claim: Claim, s_batch,
                outer_nodes: int):
    """Outer nodes for E[K(S_{t+v})] with the pivot asset integrated exactly.

    The pivot asset (largest claim weight) is ordered last in the Cholesky
    factor.  Given the other (head) assets at an outer Gauss-Hermite node,
    the basket is head + w_pivot * S_pivot with S_pivot lognormal, so each
    hinge of the claim is a Black formula in S_pivot (Curran 1994).  The
    likelihood-ratio score E[K * Sigma^-1 dev] takes the head coordinates
    times the value and, by Stein's identity E[f(xi) xi] = E[f'(xi)], the
    pivot part w_pivot * sd * E[K'(b) S_pivot], which is F N(d1) per hinge.

    Parameters
    ----------
    s_batch : (B, n) reference prices.
    outer_nodes : per-axis Gauss-Hermite nodes over the n - 1 head assets.

    Returns
    -------
    w : (Qo,) outer weights, value : (B, Qo) conditional claim values,
    score : (B, Qo, n) conditional E[K * Sigma^-1 (z - zbar)].
    """
    s_batch = np.atleast_2d(np.asarray(s_batch, dtype=float))
    B = s_batch.shape[0]
    n = kern.n
    pivot = int(np.argmax(claim.weights))
    perm = [i for i in range(n) if i != pivot] + [pivot]
    chol_p = np.linalg.cholesky(kern.cov[np.ix_(perm, perm)])
    zbar_p = kern.zbar[perm]
    s_p = s_batch[:, perm]
    w_pivot = claim.weights[pivot]

    if n == 1:
        outer_xi, outer_w = np.zeros((1, 0)), np.ones(1)
    else:
        outer_xi, outer_w = tensor_normal_nodes(n - 1, outer_nodes)
    Qo = outer_xi.shape[0]
    if w_pivot == 0.0:
        # all weights are zero: the basket is 0 on every path
        value = np.full((B, Qo), float(claim(np.zeros(n))))
        return outer_w, value, np.zeros((B, Qo, n))

    sig_heads = s_p[:, None, :n - 1] \
        * np.exp(zbar_p[:n - 1] + outer_xi @ chol_p[:n - 1, :n - 1].T)
    head = sig_heads @ claim.weights[perm[:-1]]                 # (B, Qo)
    sd = chol_p[-1, -1]
    # w_pivot times the conditional forward of the pivot asset
    fwd = w_pivot * s_p[:, -1:] * np.exp(
        zbar_p[-1] + outer_xi @ chol_p[-1, :n - 1] + 0.5 * sd * sd)

    gap = claim.hinge_strikes - head[..., None]                 # (B, Qo, J)
    itm = gap <= 0.0     # the hinge is active on every path
    # log 0 = -inf at a zero price, and inf at a gap near the float minimum
    with np.errstate(divide="ignore", over="ignore"):
        d1 = np.log(fwd[..., None] / np.where(itm, 1.0, gap)) / sd + 0.5 * sd
    n1 = np.where(itm, 1.0, ndtr(d1))
    n2 = np.where(itm, 1.0, ndtr(d1 - sd))
    value = claim.offset + claim.slope * (head + fwd) \
        + (fwd[..., None] * n1 - gap * n2) @ claim.hinge_slopes
    pivot_part = sd * fwd * (claim.slope + n1 @ claim.hinge_slopes)

    lr = np.empty((B, Qo, n))
    lr[..., :n - 1] = outer_xi * value[..., None]
    lr[..., n - 1] = pivot_part
    # Sigma_p^-1 dev = L^-T xi, as row vectors xi @ L^-1
    score = lr @ np.linalg.inv(chol_p)
    return outer_w, value, score[..., np.argsort(perm)]
