"""Age-dependent semi-Markov components.

Each component lives on states ``{1, .., k}`` and is described by hazard
rates ``lam[i][j](age)`` for ``i != j``: the instantaneous intensity of a
switch from ``i`` to ``j`` after holding for ``age`` time units.  From the
hazards we derive the cumulative hazard, the holding-time law, the
conditional destination probabilities, the competing-jump distributions
across several independent components, and an exact path simulator based
on inverting the exponential clock.

States are labelled 1..k in the public API; asset/component positions are
plain 0-based indices.

``scipy.integrate``, ``scipy.optimize`` and ``scipy.interpolate`` are
imported inside the functions that use them: the competing-jump laws
(quadrature), the bracketing clock inversion of rows without a closed form
(brentq) and tabulated hazards (PCHIP).  A priced scenario with parametric
hazards reaches none of them, and at module level every run would pay
their import time and memory at start-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, RootFindFailure, TruncationFailure

# Tail handling for the improper competing-risk integrals: truncate where the
# joint survival drops below SURVIVAL_CUTOFF, never farther than CAP_MULTIPLE
# times the joint e-folding time.
SURVIVAL_CUTOFF = 1e-14
CAP_MULTIPLE = 50.0

_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-11, limit=200)


# ---------------------------------------------------------------------------
# Hazard-rate families
# ---------------------------------------------------------------------------

class ConstantRate:
    """lam(age) = c with c > 0."""

    def __init__(self, c: float):
        if not 0 < c < math.inf:
            raise ConfigError(f"constant hazard requires finite c > 0, got {c}")
        self.c = float(c)

    def rate(self, y):
        y = np.asarray(y, dtype=float)
        return np.full(y.shape, self.c)

    def integral(self, y):
        return self.c * np.asarray(y, dtype=float)


class AffineRate:
    """lam(age) = a + b*age with a, b >= 0 and a + b > 0."""

    def __init__(self, a: float, b: float):
        if not (0 <= a < math.inf and 0 <= b < math.inf) or a + b == 0:
            raise ConfigError(
                f"affine hazard requires finite a >= 0, b >= 0, a + b > 0, "
                f"got a={a}, b={b}")
        self.a = float(a)
        self.b = float(b)

    def rate(self, y):
        y = np.asarray(y, dtype=float)
        return self.a + self.b * y

    def integral(self, y):
        y = np.asarray(y, dtype=float)
        return self.a * y + 0.5 * self.b * y * y


class WeibullRate:
    """lam(age) = c * age**(kappa - 1) with c > 0, kappa >= 1.

    kappa = 1 degenerates to the constant family; kappa > 1 gives an
    increasing (aging) hazard that vanishes at age zero.
    """

    def __init__(self, c: float, kappa: float):
        if not 0 < c < math.inf:
            raise ConfigError(f"weibull hazard requires finite c > 0, got {c}")
        if not 1 <= kappa < math.inf:
            raise ConfigError(
                f"weibull hazard requires finite kappa >= 1, got {kappa}")
        self.c = float(c)
        self.kappa = float(kappa)

    def rate(self, y):
        y = np.asarray(y, dtype=float)
        if self.kappa == 1.0:
            return np.full(y.shape, self.c)
        return self.c * np.power(y, self.kappa - 1.0)

    def integral(self, y):
        y = np.asarray(y, dtype=float)
        return (self.c / self.kappa) * np.power(y, self.kappa)


class TabulatedRate:
    """Monotone-cubic (PCHIP) interpolation of (age, rate) knots.

    The interpolant is C1 and stays within the local data range, so strictly
    positive knot values give a strictly positive rate.  Beyond the last knot
    the rate is extrapolated as the constant last value (below the first knot,
    the constant first value), which keeps the cumulative hazard unbounded.
    """

    def __init__(self, knots, values):
        knots = np.asarray(knots, dtype=float)
        values = np.asarray(values, dtype=float)
        if knots.ndim != 1 or knots.size < 2:
            raise ConfigError("tabulated hazard needs at least two knots")
        if not np.all(np.isfinite(knots)) or np.any(np.diff(knots) <= 0):
            raise ConfigError(
                "tabulated hazard knots must be finite and strictly increasing")
        if not np.all((values > 0) & np.isfinite(values)):
            raise ConfigError(
                "tabulated hazard values must be finite and strictly positive")
        if knots[0] < 0:
            raise ConfigError("tabulated hazard knots must be >= 0")
        from scipy.interpolate import PchipInterpolator
        self.knots = knots
        self.values = values
        # a knot gap near the float minimum overflows the PCHIP slopes
        with np.errstate(all="ignore"):
            self._interp = PchipInterpolator(knots, values, extrapolate=False)
            self._anti = self._interp.antiderivative()
        if not np.all(np.isfinite(self._anti.c)):
            raise ConfigError(
                "tabulated hazard knots too close for a finite interpolant")

    def rate(self, y):
        y = np.asarray(y, dtype=float)
        yc = np.clip(y, self.knots[0], self.knots[-1])
        return np.asarray(self._interp(yc), dtype=float)

    def integral(self, y):
        # Exact integral of the piecewise cubic, plus constant-rate tails.
        y = np.asarray(y, dtype=float)
        k0, k1 = self.knots[0], self.knots[-1]
        yc = np.clip(y, k0, k1)
        out = self._anti(yc) - self._anti(k0)
        out = out + self.values[0] * (np.minimum(y, k0) - 0.0)
        out = out + self.values[-1] * np.maximum(y - k1, 0.0)
        return np.asarray(out, dtype=float)


_CLOSED_FORM_AFFINE = (ConstantRate, AffineRate)


def make_rate(spec: dict):
    """Build a rate family from a config mapping."""
    if not isinstance(spec, dict):
        raise ConfigError(f"hazard spec must be an object, got {spec!r}")
    fam = spec.get("family")
    try:
        if fam == "constant":
            return ConstantRate(spec["c"])
        if fam == "affine":
            return AffineRate(spec.get("a", 0.0), spec.get("b", 0.0))
        if fam == "weibull":
            return WeibullRate(spec["c"], spec.get("kappa", 1.0))
        if fam == "tabulated":
            return TabulatedRate(spec["knots"], spec["values"])
    except KeyError as exc:
        raise ConfigError(f"{fam} hazard needs parameter {exc.args[0]!r}") \
            from None
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{fam} hazard parameters must be numbers, "
                          f"got {spec!r}") from None
    raise ConfigError(f"unknown hazard family {fam!r}")


# ---------------------------------------------------------------------------
# HazardModel
# ---------------------------------------------------------------------------

class HazardModel:
    """Hazard description of a single age-dependent component.

    Parameters
    ----------
    k : int
        Number of states; states are labelled 1..k.
    rates : dict[(int, int), rate family]
        One entry per ordered pair (i, j), i != j, giving lam_ij(age).
        Omitted pairs have zero rate, but the support pattern must remain
        irreducible (every state reachable from every other).
    """

    def __init__(self, k: int, rates: dict):
        if k < 2:
            raise ConfigError(f"component needs k >= 2 states, got {k}")
        self.k = int(k)
        self.rates = {}
        for (i, j), fam in rates.items():
            if not (1 <= i <= k and 1 <= j <= k) or i == j:
                raise ConfigError(f"invalid hazard pair ({i}, {j}) for k={k}")
            self.rates[(int(i), int(j))] = fam
        self._rows = {i: sorted(j for (ii, j) in self.rates if ii == i)
                      for i in range(1, k + 1)}
        for i in range(1, k + 1):
            if not self._rows[i]:
                raise ConfigError(f"state {i} has no exit hazard")
        self._check_irreducible()
        self._row_kind = {i: self._classify_row(i) for i in range(1, k + 1)}

    # -- construction helpers ------------------------------------------------

    def _check_irreducible(self):
        k = self.k
        adj = np.zeros((k, k), dtype=bool)
        for (i, j) in self.rates:
            adj[i - 1, j - 1] = True
        reach = adj | np.eye(k, dtype=bool)
        for _ in range(k):
            reach = reach | (reach @ reach)
        if not reach.all():
            raise ConfigError("hazard support pattern is not irreducible")

    def _classify_row(self, i):
        fams = [self.rates[(i, j)] for j in self._rows[i]]
        if all(isinstance(f, _CLOSED_FORM_AFFINE)
               or (isinstance(f, WeibullRate) and f.kappa == 1.0) for f in fams):
            a = sum(f.c if isinstance(f, (ConstantRate, WeibullRate)) else f.a
                    for f in fams)
            b = sum(f.b for f in fams if isinstance(f, AffineRate))
            return ("affine", float(a), float(b))
        if all(isinstance(f, WeibullRate) for f in fams):
            kappas = {f.kappa for f in fams}
            if len(kappas) == 1:
                return ("weibull", float(sum(f.c for f in fams)), kappas.pop())
        return ("numeric",)

    def memoryless(self, i: int) -> bool:
        """Whether every exit rate of state i is constant in age: constant,
        affine with b = 0 or Weibull with kappa = 1.  The holding time is
        then exponential, so nothing that follows depends on the age in i.
        A tabulated rate counts as age-dependent even with equal knots."""
        kind = self._row_kind[i]
        return kind[0] == "affine" and kind[2] == 0.0

    # -- elementary laws ------------------------------------------------------

    def rate(self, i: int, j: int, y):
        fam = self.rates.get((i, j))
        if fam is None:
            return np.zeros(np.shape(np.asarray(y, dtype=float)))
        return fam.rate(y)

    def exit_rate(self, i: int, y):
        """Total exit rate sum_{j != i} lam_ij(y); equals |lam_ii|."""
        y = np.asarray(y, dtype=float)
        out = np.zeros(y.shape)
        for j in self._rows[i]:
            out = out + self.rates[(i, j)].rate(y)
        return out

    def cumulative_hazard(self, i: int, y):
        y = np.asarray(y, dtype=float)
        out = np.zeros(y.shape)
        for j in self._rows[i]:
            out = out + self.rates[(i, j)].integral(y)
        return out

    def residual_log_survival(self, i: int, y: float, s):
        """log P(holding > y + s | holding > y) = -(Lambda(y+s) - Lambda(y))."""
        s = np.asarray(s, dtype=float)
        return -(self.cumulative_hazard(i, y + s) - self.cumulative_hazard(i, float(y)))

    def transition_probs(self, i: int, y):
        """Destination distribution given a jump out of i at age y, shaped
        y.shape + (k,): each destination's rate over the row's rates summed
        in ascending destination order."""
        y = np.asarray(y, dtype=float)

        def rates(age):
            lam = [self.rates[(i, j)].rate(age) for j in self._rows[i]]
            tot = lam[0]
            for r in lam[1:]:
                tot = tot + r
            return lam, tot
        lam, tot = rates(y)
        flat = tot <= 0
        if flat.any():
            # only reachable when every exit rate vanishes at y (weibull or
            # affine rows at age 0): the embedded ratio is the limit of
            # rate ratios
            lam, tot = rates(np.where(flat, y + 1e-9, y))
        p = np.zeros(y.shape + (self.k,))
        for j, r in zip(self._rows[i], lam):
            p[..., j - 1] = r / tot
        return p

    def draw_destination(self, i: int, y, u):
        """Destinations of jumps out of i at ages y, for uniform draws u.

        Elementwise over the arrays y and u.  A jump goes to the first state
        whose cumulative probability, summed in ascending order, exceeds u,
        so a state of zero probability is never drawn; a u at or above a
        cumulative sum that rounds below 1 goes to the row's last
        destination.
        """
        row = self._rows[i]
        y, u = np.broadcast_arrays(np.asarray(y, dtype=float),
                                   np.asarray(u, dtype=float))
        if len(row) == 1:
            return np.full(y.shape, row[0])
        p = self.transition_probs(i, y)
        cum, below = np.zeros(y.shape), np.zeros(y.shape, dtype=int)
        for j in row[:-1]:
            cum = cum + p[..., j - 1]
            below = below + (cum <= u)
        return np.asarray(row)[below]

    # -- clock inversion -------------------------------------------------------

    def invert_clock(self, i: int, y, e):
        """Solve Lambda_i(y + tau) - Lambda_i(y) = e for tau >= 0,
        elementwise over the arrays y and e.

        Affine and one-shape Weibull rows invert in closed form; other rows
        bracket each root and refine it with brentq, one element at a time.
        """
        y, e = np.broadcast_arrays(np.asarray(y, dtype=float),
                                   np.asarray(e, dtype=float))
        kind = self._row_kind[i]
        if kind[0] == "affine":
            _, a, b = kind
            if b == 0.0:
                return e / a
            r = a + b * y
            return 2.0 * e / (r + np.sqrt(r * r + 2.0 * b * e))
        if kind[0] == "weibull":
            _, c, kap = kind
            return np.power(np.power(y, kap) + kap * e / c, 1.0 / kap) - y
        from scipy import optimize
        tau = np.empty(y.shape)
        for idx in np.ndindex(y.shape):
            yy, ee = float(y[idx]), float(e[idx])
            base = float(self.cumulative_hazard(i, np.asarray(yy)))

            def g(t):
                return float(self.cumulative_hazard(i, np.asarray(yy + t))) \
                    - base - ee

            # first-order guess e / rate, capped so that it stays finite
            # when the exit rate vanishes at y
            rate = float(self.exit_rate(i, np.asarray(yy)))
            hi = max(min(ee / rate, 1e12) if rate > 0 else 1e12, 1e-12)
            for _ in range(200):
                if g(hi) >= 0.0:
                    break
                hi *= 2.0
            else:
                raise RootFindFailure(
                    f"cumulative hazard failed to reach {ee} from age {yy} "
                    f"in state {i}")
            # a guess past the root by more than a millionfold (a rate
            # rising from near zero at y) leaves brentq a bracket it cannot
            # close
            while hi > 1e-12 and g(1e-6 * hi) >= 0.0:
                hi *= 1e-6
            tau[idx] = optimize.brentq(g, 0.0, hi, xtol=1e-12)
        return tau

    def clock_scale(self, i: int, y: float) -> float:
        """Residual time to accumulate one unit of hazard (e-folding time)."""
        return float(self.invert_clock(i, y, 1.0))

    def scaled(self, factor: float) -> "HazardModel":
        """New model with every rate multiplied by a positive factor."""
        if factor <= 0:
            raise ConfigError("hazard scale factor must be positive")
        out = {}
        for (i, j), fam in self.rates.items():
            if isinstance(fam, ConstantRate):
                out[(i, j)] = ConstantRate(factor * fam.c)
            elif isinstance(fam, AffineRate):
                out[(i, j)] = AffineRate(factor * fam.a, factor * fam.b)
            elif isinstance(fam, WeibullRate):
                out[(i, j)] = WeibullRate(factor * fam.c, fam.kappa)
            else:
                out[(i, j)] = TabulatedRate(fam.knots, factor * fam.values)
        return HazardModel(self.k, out)


# ---------------------------------------------------------------------------
# Joint state of a componentwise semi-Markov vector
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CsmState:
    """States and ages of all components: x[l] in 1..k, y[l] >= 0."""

    x: tuple
    y: tuple

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ConfigError("state and age vectors must have equal length")
        if any(a < 0 for a in self.y):
            raise ConfigError("ages must be nonnegative")


def switch_edges(models, x_tuples):
    """The single-component switches out of each regime tuple.

    edges[xi] lists (l, j, xpi, fam) for every component l and destination
    j with a hazard x_l -> j: xpi indexes the landing tuple (x with
    component l set to j) in x_tuples and fam is the rate family of
    lam^l_{x_l j}.  Components come in order and destinations ascending.
    """
    index = {tuple(x): xi for xi, x in enumerate(x_tuples)}
    return [[(l, j, index[x[:l] + (j,) + x[l + 1:]], h.rates[(x[l], j)])
             for l, h in enumerate(models) for j in h._rows[x[l]]]
            for x in map(tuple, x_tuples)]


# ---------------------------------------------------------------------------
# Competing-jump laws across components
# ---------------------------------------------------------------------------

def _joint_log_survival(models, state):
    """Vectorized s -> log prod_m P(comp m holds s more | age y_m)."""
    def ls(s):
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape)
        for m, h in enumerate(models):
            out = out + h.residual_log_survival(state.x[m], state.y[m], s)
        return out
    return ls


def _truncation_horizon(models, state):
    scales = [h.clock_scale(state.x[m], state.y[m])
              for m, h in enumerate(models)]
    cap = CAP_MULTIPLE * max(scales)
    ceiling = 20.0 * cap
    ls = _joint_log_survival(models, state)
    s = min(scales)
    cutoff = math.log(SURVIVAL_CUTOFF)
    while True:
        lsv = float(ls(np.asarray(s)))
        if lsv <= cutoff:
            return s
        if s >= cap:
            # decaying-but-positive tails legitimately need more than the
            # nominal multiple of the holding scale (the cutoff is ~32
            # hazard units); project the remaining depth from the current
            # joint exit rate and extend, flagging only a genuine collapse
            h_now = sum(float(h.exit_rate(state.x[m],
                                          np.asarray(state.y[m] + s)))
                        for m, h in enumerate(models))
            needed = (lsv - cutoff) / max(h_now, 1e-300)
            target = s + 1.2 * needed
            if h_now <= 0.0 or target > ceiling:
                raise TruncationFailure(
                    f"joint survival still {math.exp(lsv):.3e} at "
                    f"{s / max(scales):.0f} holding-time scales; check the "
                    f"hazard tables")
            cap = min(target, ceiling)
        s = min(2.0 * s, cap)


def _component_integrand(models, state, l):
    ls = _joint_log_survival(models, state)
    h = models[l]
    xl, yl = state.x[l], state.y[l]

    def f(s):
        s = np.asarray(s, dtype=float)
        return np.exp(ls(s)) * h.exit_rate(xl, yl + s)
    return f


def _breakpoints(models, state, s_max):
    """Knot offsets of tabulated hazards inside (0, s_max), for quadrature."""
    pts = set()
    for m, h in enumerate(models):
        for fam in h.rates.values():
            if isinstance(fam, TabulatedRate):
                for t in fam.knots:
                    off = float(t) - state.y[m]
                    if 0.0 < off < s_max:
                        pts.add(off)
    return sorted(pts)


def next_jump_component_prob(models, state: CsmState) -> np.ndarray:
    """P(the next jump happens in component l), for l = 0..n.

    Computed by adaptive quadrature of the joint-survival-weighted exit rate
    of each component, truncated where the joint survival falls below
    SURVIVAL_CUTOFF.  Entries sum to one within quadrature tolerance.
    """
    from scipy import integrate
    s_max = _truncation_horizon(models, state)
    pts = _breakpoints(models, state, s_max)
    out = np.empty(len(models))
    for l in range(len(models)):
        f = _component_integrand(models, state, l)
        val, _ = integrate.quad(f, 0.0, s_max, points=pts or None, **_QUAD_OPTS)
        out[l] = val
    return out


@dataclass
class JumpTimeLaw:
    """Conditional law of the waiting time given which component jumps first."""

    component: int
    prob: float                 # P(l jumps first)
    _models: list = field(repr=False)
    _state: CsmState = field(repr=False)
    _denom: float = field(repr=False)
    _s_max: float = field(repr=False)

    def cdf(self, v):
        from scipy import integrate
        f = _component_integrand(self._models, self._state, self.component)
        pts = _breakpoints(self._models, self._state, self._s_max)

        def one(vv):
            hi = min(float(vv), self._s_max)
            if hi <= 0.0:
                return 0.0
            cut = [p for p in pts if p < hi]
            num, _ = integrate.quad(f, 0.0, hi, points=cut or None, **_QUAD_OPTS)
            return num / self._denom
        if np.ndim(v) == 0:
            return one(v)
        return np.array([one(vv) for vv in np.asarray(v, dtype=float)])

    def pdf(self, v):
        f = _component_integrand(self._models, self._state, self.component)
        out = f(np.asarray(v, dtype=float)) / self._denom
        return float(out) if np.ndim(v) == 0 else out


def next_jump_time_law(models, state: CsmState, l: int) -> JumpTimeLaw:
    """Waiting-time law of component l's jump given it is the first to jump."""
    from scipy import integrate
    s_max = _truncation_horizon(models, state)
    f = _component_integrand(models, state, l)
    pts = _breakpoints(models, state, s_max)
    denom, _ = integrate.quad(f, 0.0, s_max, points=pts or None, **_QUAD_OPTS)
    return JumpTimeLaw(component=l, prob=denom, _models=list(models),
                       _state=state, _denom=denom, _s_max=s_max)


# ---------------------------------------------------------------------------
# Exact simulation
# ---------------------------------------------------------------------------

# Philox4x64 multipliers and key increments, one row per half of the state
_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_LO32, _S32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_M0, _M1 = _M & _LO32, _M >> _S32


def _mulhilo(x):
    """High and low 64-bit words of _M * x, from 32-bit halves."""
    x0, x1 = x & _LO32, x >> _S32
    p00, p01, p10, p11 = _M0 * x0, _M0 * x1, _M1 * x0, _M1 * x1
    mid = (p00 >> _S32) + (p01 & _LO32) + (p10 & _LO32)
    return p11 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32), _M * x


def _philox_words(keys, b: int) -> np.ndarray:
    """(P, 4) uint64 words 4b .. 4b + 3 of the Philox streams keyed by the
    rows of the (P, 2) uint64 keys: Philox4x64-10 of the counter
    (b + 1, 0, 0, 0), as numpy's Philox(key=keys[p]).random_raw() gives
    them."""
    key = np.array(np.asarray(keys).T, dtype=np.uint64)
    ctr = np.zeros((4, key.shape[1]), dtype=np.uint64)
    ctr[0] = b + 1
    for rnd in range(10):
        if rnd:
            key += _W
        hi, lo = _mulhilo(ctr[0::2])
        out = np.empty_like(ctr)
        out[0::2] = hi[::-1] ^ ctr[1::2] ^ key
        out[1::2] = lo[::-1]
        ctr = out
    return ctr.T


def _uniform(words):
    """U = (word >> 11) 2**-53 in [0, 1), numpy's Generator.random()."""
    return (words >> np.uint64(11)) * 2.0 ** -53


def _exponential(words):
    """E = -log1p(-U), an Exp(1) draw."""
    return -np.log1p(-_uniform(words))


@dataclass
class SwitchBlock:
    """Switch histories of a block of paths, flat per path and per jump.

    Jumps are ordered by path, then by time.
    """

    n_jumps: np.ndarray          # (P,)
    jump_path: np.ndarray        # (J,) row of the jump's path
    jump_times: np.ndarray       # (J,) absolute times in (start, horizon]
    jump_component: np.ndarray   # (J,)
    states_after: np.ndarray     # (J, c) state tuple after the jump
    ages_before: np.ndarray      # (J, c) ages just before the jump
    ages_after: np.ndarray       # (J, c) the same with the jumper's age at 0


def simulate_csm(models, initial: CsmState, horizon: float, keys,
                 start: float = 0.0,
                 max_jumps: int | None = None) -> SwitchBlock:
    """Switch histories of all components, exact by clock inversion, for a
    block of paths: one per row of the (P, 2) uint64 Philox keys.

    Times are absolute: every path holds ``initial`` at time ``start`` and
    runs to ``horizon``.  Each component draws E ~ Exp(1) and solves
    Lambda(age + tau) - Lambda(age) = E for its next jump.  The block
    advances one jump round at a time: in each round, each path whose
    earliest candidate jump lies within the horizon fires it (ties broken by
    lowest component index), draws its destination from the age-dependent
    transition probabilities, resets the jumper's age to zero while the
    others keep running, and draws the jumper's next clock.

    Path p reads the words of the stream keyed keys[p] in order: one E per
    component for the initial clocks, then for each jump one U for the
    destination and one E for the new clock.  Every path of a round reads
    the same word positions, and a path's history depends on its key alone,
    never on the block it is simulated in.

    max_jumps stops each path after that many jumps (first-jump studies).
    """
    start = float(start)
    if horizon <= 0 or horizon < start:
        raise ConfigError("horizon must be positive and not before the start")
    keys = np.asarray(keys, dtype=np.uint64).reshape(-1, 2)
    P, n_comp = len(keys), len(models)
    x = np.tile(np.asarray(initial.x, dtype=int), (P, 1))
    reset = np.tile(start - np.asarray(initial.y, dtype=float), (P, 1))
    cached = [-1, None]   # a counter and its words, for the rows then live

    def word(q, rows):
        b, j = divmod(q, 4)
        if cached[0] != b:
            cached[1] = np.zeros((P, 4), dtype=np.uint64)
            cached[1][rows] = _philox_words(keys[rows], b)
            cached[0] = b
        return cached[1][rows, j]

    live = np.arange(P)
    next_time = np.empty((P, n_comp))   # age(t) = t - reset
    for m, h in enumerate(models):
        next_time[:, m] = start + h.invert_clock(
            initial.x[m], initial.y[m], _exponential(word(m, live)))

    rounds = []
    q = n_comp
    while live.size and (max_jumps is None or len(rounds) < max_jumps):
        comp = np.argmin(next_time[live], axis=1)     # lowest on ties
        t = next_time[live, comp]
        fire = t <= horizon
        live, comp, t = live[fire], comp[fire], t[fire]
        if not live.size:
            break
        u, e = _uniform(word(q, live)), _exponential(word(q + 1, live))
        q += 2
        before = t[:, None] - reset[live]
        after = before.copy()
        after[np.arange(len(live)), comp] = 0.0
        x_from = x[live, comp]
        dest, tau = np.empty(len(live), dtype=int), np.empty(len(live))
        for m, h in enumerate(models):
            for i in range(1, h.k + 1):
                g = np.flatnonzero((comp == m) & (x_from == i))
                if g.size:
                    dest[g] = h.draw_destination(i, before[g, m], u[g])
            for j in range(1, h.k + 1):
                g = np.flatnonzero((comp == m) & (dest == j))
                if g.size:
                    tau[g] = h.invert_clock(j, 0.0, e[g])
        x[live, comp] = dest
        reset[live, comp] = t
        next_time[live, comp] = t + tau
        rounds.append((live, t, comp, x[live], before, after))

    none = (np.empty(0, dtype=int), np.empty(0), np.empty(0, dtype=int),
            np.empty((0, n_comp), dtype=int), np.empty((0, n_comp)),
            np.empty((0, n_comp)))
    path, t, comp, states, before, after = (
        np.concatenate(a) for a in zip(none, *rounds))
    order = np.argsort(path, kind="stable")    # by path, then by round
    return SwitchBlock(
        n_jumps=np.bincount(path, minlength=P), jump_path=path[order],
        jump_times=t[order], jump_component=comp[order],
        states_after=states[order], ages_before=before[order],
        ages_after=after[order])
