"""Grid solver for the pricing fixed-point equation.

The price field phi(t, s, x, y) satisfies a second-kind Volterra relation:
the no-switch branch contributes the frozen-regime value weighted by the
joint probability that no component jumps before maturity, and each possible
first switch contributes the kernel-smoothed continuation value weighted by
the joint survival up to the switch time and the switching hazard,

    phi(t,s,x,y) = rho_x(t,s) * JS(T-t; x,y)
      + int_0^{T-t} e^{-r(x) v} JS(v; x,y)
          sum_l sum_{j != x_l} lam^l_{x_l j}(y_l + v)
             E[ phi(t+v, S_{t+v}, x with l->j, ages y+v with l reset) ] dv,

where JS(v; x,y) = prod_m P(component m holds v more | age y_m) and the
expectation is over the inter-jump lognormal kernel.  This is the
competing-risk form of the equation: conditioning on which component jumps
first and on the jump time turns the per-component laws into exactly the
joint-survival-times-hazard weights above, so both formulations give the
same operator (the tests check this against the conditional-law route).

The v-integral uses the midpoint rule on panels aligned with the time grid:
panel p contributes the switch time v_p = (p + 1/2) dt with weight dt, where
the continuation field is the mean of slabs i + p and i + p + 1.  So the
discrete operator T is triangular in time: slab i reads only slabs i..M,
and itself only through the first panel (p = 0).  The solver
therefore marches backward from maturity (the step-by-step method for
second-kind Volterra equations): the panels p >= 1 of slab i are computed
once from the final later slabs, and only the p = 0 panel is iterated on
slab i, starting from rho, until the local residual |(T phi)_i - phi_i| in
the weighted sup norm |.| / (1 + |s|_1) drops below tol.  The kept iterate
is the one whose residual was measured, so the report certifies the exact
|T phi - phi| without a further global application.

The switches out of each regime tuple come from ``semi_markov.switch_edges``.
Slab i builds its switch tables once, for all panels at once
(``_slab_tables``): the joint survival at every panel midpoint as one
array, each hazard family's rate over the (panel, age) grid in one call,
and one smoother (_Smoother) of the kernels of all panels and regime
tuples, whose taps are one _kernel_taps call (the derivative taps of each
axis one more, on first use).  Per panel, regime tuple and switch edge,
one weight carries the discount e^{-r(x) v_p}, dt, JS(v_p), the hazard
and the mass normalization.  The switch branch takes the panels in
blocks bounded in bytes and in panels (_panel_blocks).  A block gathers
the continuation of each panel once per resetting component and
subtracts the linear part c1.s once; then, per regime tuple, the edges
whose excesses have the same shape copy them into one stack array made
for the block, a row per edge and panel, smoothed together panel by panel
(one correlation with taps per derivative axis asked for: None for the
price, m for the hedge in asset m).  Each edge adds its weighted share of
all the panels of the block at once, one matrix product of its weights
(ages x panels) and its smoothed rows (panels x prices) batched over the
other ages (Goto and van de Geijn, ACM TOMS 34(3), 2008: a contraction
blocked over the panels in place of one pass over the result per panel).
No stack outlives its block.

The hazards enter the operator only through these weights (JS, lambda,
kappa and JS(T - t_i)), so one march solves several hazard sets on the
same market, claim, grid and settings at once (VolterraSolver.solve's
also; the sensitivity check's scaled hazards, for one).  Its arrays carry
a leading member axis, one row per hazard set.  Shared by all members and
built once per slab: the kernels and their smoother, rho, the terminal
payoff and c1.s.  Per member: the weights, JS(T - t_i), each member's
solver (its hazard models, edges and report) and its stop.  Each gather
and stacked smoothing call acts on all members at once, and each acts on a
member's rows alone; each member makes its own weighted products, of the
same shapes for any member count, in blocks that do not depend on it.  So
a member's field is that of its own solve bit for bit.  Each member stops
its local iteration at its own tol; its slab then stays as it is while
the others iterate on.  A plain solve is the one-member case of the same
march.

A component in a memoryless state (HazardModel.memoryless: every exit rate
constant in age) has an exponential holding time, and a jump resets its
age, so the price in that regime tuple does not depend on its age: the
Markov-modulated case of Deshpande and Ghosh (Stoch. Anal. Appl. 26, 2008)
inside the semi-Markov model of Ghosh and Goswami (SIAM J. Control Optim.
48, 2009).  So a slab stores a regime tuple with one age row on each of
those axes (Slab), and the solver's arrays take that shape by themselves: a
memoryless state's survival increments are its age-0 row, an edge of
component l keeps every other component's state, and the gather moves only
the age axes a tuple stores in full.  Readers clip ages to the stored rows,
so every output keeps the full grid.

The kernel expectation smooths the multilinearly interpolated field with
tensor Gauss-Hermite nodes, each splatted onto the corners of its grid
cell, so the nodes collapse into taps centred on offset 0 (the QUAD idea
of Andricopoulos et al., 2003).  A diagonal log covariance gives one 1-D
tap array per log-price axis: a narrow one is one
``scipy.ndimage.correlate1d``, a wide one (at least a third of the axis)
one BLAS product with its dense n x n operator.  Any other covariance
gives one n-D tap array, correlated with the edge-padded slab by FFT.
All replicate the edges and write into the caller's output buffer.  The
kernel's s_m-derivative splats the same nodes, each weighted by its
score, so the hedge is the same smoothing with other taps, divided by
s_m.

Moving a slab along the age axes (ages grow by v between t and t + v) is
one linear shift per age axis, ``_shift_axis``, shared by the gather and
the PDE residual; it blends two slices of the slab and reads stored rows
only.  The gather takes the mean of the rows of both bracketing slabs,
each clamped to its own stored ages (a clamped row is read from the edge
row in place), and blends that mean once per age axis; the PDE residual
keeps the ages whose advance stays inside the next slab.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.ndimage import correlate1d, map_coordinates

from .errors import ConfigError, NoConvergence
from .market import Claim, MarketModel, build_kernel
from .quadrature import tensor_normal_nodes
from .regime_bsm import OUTER_NODES, bsm_price_grid
from .semi_markov import switch_edges


# ---------------------------------------------------------------------------
# Grid and field containers
# ---------------------------------------------------------------------------

# the largest |ln s| of a node price s at which s**2 and 1 / s**2 are both
# finite, about 354.9
_LNS_MAX = 0.5 * math.log(np.finfo(float).max)
# the widest spacing h of a log-price axis.  The switch branch smooths the
# excess phi - c1.s, rounded to about 1e-16 s at a node, and hands each node
# a share of its neighbours' excess, at e^h times its price: with nodes far
# apart the rounding grows node by node toward the money until it swamps
# the price (from h = 6 with volatility 0.6 and hazards 10).
_H_MAX = 3.0

@dataclass(frozen=True)
class GridSpec:
    time_steps: int = 40
    price_nodes: int = 81
    age_nodes: int = 11
    span_stds: float = 8.0


class Grid:
    """Tensor grid in (t, ln s per asset, age per component).

    Ages are restricted to y <= t: the slab at time node i stores only the
    first c_counts[i] age nodes per component.  The log-price box spans the
    evaluation points plus span_stds total standard deviations of ln S over
    the full horizon; a box with a node beyond |ln s| = _LNS_MAX, where the
    solver's s**2 or 1 / s**2 overflows, or with nodes more than _H_MAX
    apart in ln s, is a ConfigError.
    """

    def __init__(self, market: MarketModel, horizon: float, eval_prices,
                 spec: GridSpec):
        if spec.time_steps < 2 or spec.price_nodes < 5 or spec.age_nodes < 2:
            raise ConfigError("grid too small: need >=2 steps, >=5 price nodes, "
                              ">=2 age nodes")
        self.spec = spec
        self.horizon = float(horizon)
        M = spec.time_steps
        self.t_nodes = np.linspace(0.0, horizon, M + 1)
        self.dt = horizon / M
        self.n = market.n
        self.n_components = market.n_components
        self.x_tuples = market.x_tuples
        self.x_index = market.x_index

        pts = np.atleast_2d(np.asarray(eval_prices, dtype=float))
        if pts.shape[1] != market.n:
            raise ConfigError("evaluation prices must have one column per asset")
        if np.any(pts <= 0):
            raise ConfigError("evaluation prices must be positive")
        stds = np.sqrt([max(market.a_integral(0.0, horizon, x)[l, l]
                            for x in market.x_tuples) for l in range(market.n)])
        self.lns_axes = []
        for l in range(market.n):
            lo = float(np.min(np.log(pts[:, l]))) - spec.span_stds * stds[l]
            hi = float(np.max(np.log(pts[:, l]))) + spec.span_stds * stds[l]
            if not max(-lo, hi) <= _LNS_MAX:
                raise ConfigError(
                    f"the price box of asset {l + 1} spans ln s in "
                    f"[{lo:.6g}, {hi:.6g}], past +-{_LNS_MAX:.4g} where s**2 "
                    "or 1/s**2 overflows: lower span_stds, the horizon or "
                    "the volatility", path="grid.span_stds")
            h = (hi - lo) / (spec.price_nodes - 1)
            if not h <= _H_MAX:
                raise ConfigError(
                    f"the price nodes of asset {l + 1} lie {h:.4g} apart in "
                    f"ln s, past {_H_MAX:g}: lower span_stds or raise "
                    "price_nodes", path="grid.span_stds")
            self.lns_axes.append(np.linspace(lo, hi, spec.price_nodes))
        self.s_axes = [np.exp(a) for a in self.lns_axes]
        self.h = [a[1] - a[0] for a in self.lns_axes]

        self.age_nodes = np.linspace(0.0, horizon, spec.age_nodes)
        self.dy = self.age_nodes[1] - self.age_nodes[0]
        self.c_counts = np.minimum(
            np.floor(self.t_nodes / self.dy + 1e-12).astype(int) + 1,
            spec.age_nodes)

    @property
    def s_shape(self):
        return tuple(len(a) for a in self.lns_axes)

    def s_mesh(self):
        mesh = np.meshgrid(*self.s_axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def inv_weight(self):
        """1 / (1 + |s|_1) over the price grid."""
        mesh = np.meshgrid(*self.s_axes, indexing="ij")
        return 1.0 / (1.0 + sum(mesh))

    def interp(self, slabs, t, s, x_idx, y) -> np.ndarray:
        """slabs read at scattered points: linear in t between time nodes,
        multilinear in (y, ln s), with ages clipped to the rows a regime
        tuple stores and ln s clamped to the box.

        slabs[i][xi] is regime tuple xi's array at time node i, of shape
        (c_i or 1 per component, S_1, .., S_n, k..); t : (B,) in [0, T],
        s : (B, n) prices, x_idx : (B,) regime-tuple indices,
        y : (B, n_components) ages.  Returns (B, k..).  The points of one
        (time interval, regime tuple) share one map_coordinates call per
        bracketing slab and trailing index.
        """
        nc = self.n_components
        i_lo = np.clip(np.searchsorted(self.t_nodes, t, side="right") - 1,
                       0, len(self.t_nodes) - 2)
        theta = (t - self.t_nodes[i_lo]) / self.dt
        lns = np.log(s)
        coords_s = [np.clip((lns[:, l] - ax[0]) / self.h[l], 0.0,
                            len(ax) - 1.0)
                    for l, ax in enumerate(self.lns_axes)]

        tail = slabs[0].shape[1 + nc + self.n:]
        out = np.empty(t.shape + tail)
        keys = i_lo * len(self.x_tuples) + x_idx
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        bounds = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
        bounds = np.r_[bounds, len(sorted_keys)]
        for b0, b1 in zip(bounds[:-1], bounds[1:]):
            sel = order[b0:b1]
            i, xi = int(i_lo[sel[0]]), int(x_idx[sel[0]])
            res = np.zeros((len(sel),) + tail)
            for side, wgt in ((i, 1.0 - theta[sel]), (i + 1, theta[sel])):
                arr = slabs[side][xi]
                coords = [np.clip(y[sel, m] / self.dy, 0.0, arr.shape[m] - 1.0)
                          for m in range(nc)]
                coords = np.array(coords + [cs[sel] for cs in coords_s])
                for k in np.ndindex(tail):
                    res[(slice(None),) + k] += wgt * map_coordinates(
                        arr[(...,) + k], coords, order=1, mode="nearest")
            out[sel] = res
        return out

    def describe(self):
        return {
            "time_steps": self.spec.time_steps,
            "price_nodes": self.spec.price_nodes,
            "age_nodes": self.spec.age_nodes,
            "span_stds": self.spec.span_stds,
            "horizon": self.horizon,
            "lns_bounds": [[float(a[0]), float(a[-1])] for a in self.lns_axes],
        }


class Slab:
    """The field at one time node, one array per group of regime tuples
    in a memoryless state on the same components (VolterraSolver.groups):
    parts[g] has shape (n_group, c_i or 1 per component, S_1, ..., S_n,
    ...), one age row on a memoryless axis.  shape is the full grid shape
    (n_x, c_i, ..., c_i, S_1, ..., S_n, ...), slab[xi] regime tuple xi's
    stored array and np.asarray(slab) the full broadcast.
    """

    def __init__(self, solver: VolterraSolver, parts, c: int):
        g = solver.grid
        self.solver = solver
        self.parts = parts
        self.shape = (len(g.x_tuples),) + (c,) * g.n_components \
            + parts[0].shape[1 + g.n_components:]

    def __getitem__(self, xi: int):
        gi, k = self.solver.where[xi]
        return self.parts[gi][k]

    def __array__(self, dtype=None, copy=None):
        out = np.empty(self.shape, dtype=dtype)
        for (members, _), part in zip(self.solver.groups, self.parts):
            out[members] = part
        return out


class PriceField:
    """Price values on the grid with multilinear interpolation.

    slabs[i] is the Slab of time node i.  Interpolation (Grid.interp) is
    linear in t between slabs and multilinear in (ln s, y); ages clamp to
    the rows a regime tuple stores (one on a memoryless axis) and prices
    beyond the box extrapolate with slope c1.

    The field holds the VolterraSolver that produced it and takes its grid
    and claim from it, so whatever reads the field (hedges, residual risk,
    sensitivity, the PDE residual) reads the market, hazard models,
    settings and switch edges of the very model it was solved under.
    """

    def __init__(self, solver: VolterraSolver, slabs):
        self.solver = solver
        self.grid = solver.grid
        self.claim = solver.claim
        self.slabs = slabs

    def stacked(self):
        """The field as a stack of one member, the form the solver's
        operators read (VolterraSolver._gather): per time node, each
        group's stored part with a leading member axis of length one, as
        views."""
        return [[part[None] for part in slab.parts] for slab in self.slabs]

    def values(self, t, s, x_idx, y) -> np.ndarray:
        """Interpolated field at scattered points.

        t : (B,), s : (B, n) prices, x_idx : (B,) regime-tuple indices,
        y : (B, n_components) ages.
        """
        g = self.grid
        t = np.asarray(t, dtype=float)
        s = np.atleast_2d(np.asarray(s, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        x_idx = np.asarray(x_idx, dtype=int)
        out = np.empty(t.shape[0])

        at_T = t >= g.horizon - 1e-13
        if np.any(at_T):
            out[at_T] = self.claim(s[at_T])
        todo = ~at_T
        if not np.any(todo):
            return out

        excess = np.zeros(todo.sum())
        for l, ax in enumerate(g.lns_axes):
            over = np.clip(s[todo, l] - math.exp(ax[-1]), 0.0, None)
            under = np.clip(s[todo, l] - math.exp(ax[0]), None, 0.0)
            excess += self.claim.c1[l] * (over + under)
        vals = g.interp(self.slabs, t[todo], s[todo], x_idx[todo], y[todo])
        out[todo] = np.maximum(vals + excess, 0.0)
        return out

    def value(self, t: float, s, x, y) -> float:
        xi = self.grid.x_index[tuple(x)]
        return float(self.values(np.array([t]), np.asarray(s, dtype=float)[None, :],
                                 np.array([xi]), np.asarray(y, dtype=float)[None, :])[0])


def linear_growth_norm(field: PriceField, other: PriceField | None = None) -> float:
    """sup over grid nodes of |phi| / (1 + |s|_1), or of a field difference."""
    w = field.grid.inv_weight()
    worst = 0.0
    for i, slab in enumerate(field.slabs):
        for xi in range(len(field.grid.x_tuples)):
            diff = slab[xi] if other is None else slab[xi] - other.slabs[i][xi]
            worst = max(worst, float(np.max(np.abs(diff) * w)))
    return worst


# ---------------------------------------------------------------------------
# Solver settings and report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverSettings:
    """The two node counts that set the solver's quadrature error."""

    gh_nodes: int = 16          # per-axis Gauss-Hermite for field smoothing
    # per-axis Gauss-Hermite over the head assets of the frozen-regime
    # price; one asset is priced exactly
    bsm_outer_nodes: int = OUTER_NODES


# a block of panels (VolterraSolver.switch_branch) spans at most this many
# bytes of one member's panel stacks (all regime tuples, per axis), and at
# most _PANEL_BLOCK_MAX panels: the far panels of a fine one-asset slab come in blocks of
# several, the wide slabs of a three-component age tensor one panel at a
# time, and the small slabs that end a march, when the field is at its
# largest, keep short blocks (longer ones gained no time and held the
# buffers at the peak of the memory)
_PANEL_BLOCK_BYTES = 1 << 20
_PANEL_BLOCK_MAX = 8

# local applications every slab makes before it may stop, so the report
# always carries at least one contraction ratio
_MIN_REPORT_ITERS = 2


@dataclass
class ConvergenceReport:
    """How the backward march settled the field.

    deltas[k-1] is the largest k-th local residual over the slabs that made
    a k-th local application, and ratios are the quotients of successive
    deltas.  converged_at is the most local applications any slab needed to
    bring its residual below tol, iterations the most any slab ran (at
    least _MIN_REPORT_ITERS).  residual is |T phi - phi| of the returned
    field: each slab keeps the iterate whose residual its last application
    measured.
    """

    tol: float
    iterations: int = 0
    converged_at: int | None = None
    deltas: list = dc_field(default_factory=list)
    ratios: list = dc_field(default_factory=list)
    contraction_bound: float | None = None
    residual: float | None = None
    age_clamp_events: int = 0
    error_budget: float | None = None
    grid: dict = dc_field(default_factory=dict)

    def to_dict(self):
        return dataclasses.asdict(self)


# ---------------------------------------------------------------------------
# Smoothing and age-shift primitives
# ---------------------------------------------------------------------------

def _build_taps(shifts, weights, h):
    """Collapse fractional shifts into taps on a uniform grid, one tap array
    per row of shifts (P, Q, k) on k axes of spacings h; weights is (Q,) or
    (P, Q).

    Each tap array has odd length per axis and is centred on offset 0, so
    correlating arr with taps[p] (mode="nearest") gives
    sum_q weights[p, q] * (arr interpolated multilinearly at x + shifts[p, q]),
    with the axes held at their edge values beyond the box.  Each weight is
    splatted onto the 2^k corners of its cell, corner by corner (all lo,
    then all hi, for k = 1), for all rows, which share one flat array; the
    adds reach each tap in the order of a one-row build, so a row's taps do
    not depend on the rows built with it.
    """
    cells = shifts / np.asarray(h)
    i0 = np.floor(cells).astype(int)
    frac = cells - i0
    half = np.maximum(-i0.min(axis=1), i0.max(axis=1) + 1)      # (P, k)
    width = 2 * half + 1
    # size[:, j] is the product of width[:, j:], so a row's box has the
    # row-major strides size // width
    size = np.cumprod(width[:, ::-1], axis=1)[:, ::-1]
    strides = size // width
    ends = np.cumsum(size[:, 0])
    lo = (ends - size[:, 0])[:, None] \
        + ((i0 + half[:, None]) * strides[:, None]).sum(axis=2)
    corners = np.array(list(itertools.product((0, 1), repeat=cells.shape[2])))
    # one bincount over the corners in turn adds like one np.add.at each
    flat = np.bincount(
        (lo + (corners @ strides.T)[:, :, None]).ravel(),
        (weights * np.where(corners[:, None, None], frac, 1.0 - frac).prod(
            axis=3)).ravel(), minlength=ends[-1])
    return [flat[e - n[0]:e].reshape(w)
            for w, n, e in zip(width.tolist(), size.tolist(), ends.tolist())]


def _shift_axis(arr, axis, cells, count):
    """out[k] = (1 - f) arr[k + i0] + f arr[k + i0 + 1] for k < count, where
    cells = i0 + f with 0 <= f < 1 and every row read is stored (the
    callers keep 0 <= i0 and i0 + count + (f > 0) within the axis).  A
    whole shift (f = 0) returns its rows unblended, as a view of arr."""
    i0 = math.floor(cells)
    f = cells - i0

    def rows(a):
        sel = [slice(None)] * arr.ndim
        sel[axis] = slice(a, a + count)
        return tuple(sel)

    if f == 0:
        return arr[rows(i0)]
    out = (1.0 - f) * arr[rows(i0)]
    out += f * arr[rows(i0 + 1)]
    return out


def _panel_blocks(panels, panel_bytes: int):
    """panels, a range, cut into consecutive blocks of as many panels as
    _PANEL_BLOCK_BYTES holds at panel_bytes each, at least one and at most
    _PANEL_BLOCK_MAX."""
    size = min(max(1, _PANEL_BLOCK_BYTES // panel_bytes), _PANEL_BLOCK_MAX)
    return [panels[a:a + size] for a in range(0, len(panels), size)]


def _next_to_last(arr, axis: int):
    """arr with axis (not negative) moved next to the last axis, a view."""
    order = list(range(arr.ndim))
    order.insert(-1, order.pop(axis))
    return arr.transpose(order)


class _Smoother:
    """Kernel smoothing operators on the log-price axes of a slab, one per
    kernel of a stack (zbar (K, n), chol (K, n, n)); _slab_tables stacks
    the panels of all regime tuples of a slab.

    apply(arr, k) integrates the multilinearly interpolated slab against
    kernel k, apply(arr, k, deriv_axis=m) against its s_m-derivative.  Both
    correlate the slab with taps from _kernel_taps, which builds the taps
    of the whole stack in one call and each kernel's taps as if built on
    their own; the derivative taps of axis m are built the same way, in
    one call on that axis' first use, and kept.  A diagonal kernel has one
    1-D tap array per log-price axis; a correlated kernel has one n-D array
    over its tensor nodes, correlated with the slab by FFT (_correlate_nd).
    A 1-D array of width w on an axis of n nodes is one correlate1d when
    3 w < n, else one matrix product with its dense n x n operator
    (_band_operator), which BLAS runs at a cost that does not grow with w
    and correlate1d at one multiply-add per tap, zero or not.  The path
    depends on w and n alone, and each product is a batch of matrices of
    arr's last axes, so a member's rows are smoothed as in a call on their
    own.  The operator is built on each call, not kept: most are used
    once, and kept ones would hold 8 n^2 bytes per kernel of the stack.
    The smoother acts on the excess over the linear part c1.s, which
    PriceField holds at its edge value beyond the box, so all paths
    replicate the edges.
    """

    def __init__(self, zbar, chol, grid: Grid, gh_nodes: int):
        self.grid = grid
        self.kernels = (zbar, chol, grid, gh_nodes)
        self.taps = _kernel_taps(*self.kernels)
        self._deriv = {}

    def apply(self, arr, k: int, deriv_axis: int | None = None, out=None):
        """arr has age axes first, then the n log-price axes (last).

        With deriv_axis = m the result is the expectation against
        d(kernel k)/d s_m, still to be divided by s_m by the caller.  The
        result is written into out when it is given (an array of arr's
        shape, arr itself allowed: each correlation reads a line of its
        input, or the whole slab, before it writes there, and np.matmul
        copies an input that overlaps its output), else into a new array.
        On the last axis the product is arr @ A.T; on an earlier axis m it
        is A @ arr viewed as (..., n_m, the product of the later price
        axes), a view since the price axes are contiguous: every matrix
        np.matmul gets has a unit stride, which BLAS takes (see
        switch_branch's contract).
        """
        taps = self.taps[k]
        if deriv_axis is not None:
            if deriv_axis not in self._deriv:
                self._deriv[deriv_axis] = _kernel_taps(*self.kernels,
                                                       deriv_axis)
            d_tap, = self._deriv[deriv_axis][k]
            taps = [d_tap] if d_tap.ndim > 1 else \
                taps[:deriv_axis] + [d_tap] + taps[deriv_axis + 1:]
        if taps[0].ndim > 1:
            return _correlate_nd(arr, taps[0], out)
        lead = arr.ndim - self.grid.n
        for d, tap in enumerate(taps):
            axis, n = lead + d, arr.shape[lead + d]
            if 3 * len(tap) < n:
                arr = correlate1d(arr, tap, axis=axis, mode="nearest",
                                  output=out if d == len(taps) - 1 else None)
            elif d == len(taps) - 1:
                arr = np.matmul(arr, _band_operator(tap, n).T, out=out)
            else:
                arr = np.matmul(_band_operator(tap, n), arr.reshape(
                    arr.shape[:axis] + (n, -1))).reshape(arr.shape)
        return arr


def _band_operator(taps, n: int):
    """The n x n matrix of correlating an axis of n nodes with the centred
    1-D taps (odd width w), edges held (ndimage's mode="nearest"): row k
    holds taps[j - k + w // 2] at column j, with the taps that fall below
    column 0 summed into column 0 and those beyond n - 1 into column n - 1.
    One copy of a Toeplitz view of the zero-padded taps, then the two edge
    columns from running sums of the taps, each from its own end."""
    w = len(taps)
    half = w // 2
    pad = np.zeros(2 * n - 1)
    lo, hi = max(-half, 1 - n), min(half, n - 1)
    pad[n - 1 + lo:n + hi] = taps[half + lo:half + hi + 1]
    op = np.ndarray((n, n), buffer=pad, offset=8 * (n - 1),
                    strides=(-8, 8)).copy()
    sums = np.zeros(w + 1)
    np.cumsum(taps, out=sums[1:])
    m = min(half + 1, n)
    op[:m, 0] = sums[half + 2 - m:half + 2][::-1]
    np.cumsum(taps[::-1], out=sums[1:])
    k = max(n - 1 - half, 0)
    op[k:, -1] = sums[half + k - n + 2:half + 2]
    return op


def _kernel_nodes(zbar, chol, axes, gh_nodes: int):
    """The tensor Gauss-Hermite nodes xi (Q, k) and weights w (Q,) on the k
    log-price axes `axes`, and per kernel of a stack (zbar (P, n), chol
    (P, n, n)) their shifts zbar + L xi on those axes, (P, Q, k)."""
    xi, w = tensor_normal_nodes(len(axes), gh_nodes)
    sub = chol[:, axes][:, :, axes]
    return xi, w, zbar[:, None, axes] + xi @ sub.swapaxes(1, 2)


def _kernel_taps(zbar, chol, grid: Grid, gh_nodes: int,
                 deriv_axis: int | None = None):
    """Per kernel of a stack (zbar (P, n), chol (P, n, n)), its taps: one
    1-D array per log-price axis when its chol has no off-diagonal entry
    above 1e-14, else one n-D array.  With deriv_axis = m, the taps of the
    kernel's s_m-derivative instead, its nodes weighted by
    w (Sigma^-1 (z - zbar))_m = w (L^-T xi)_m: a correlated kernel's n-D
    array, or a diagonal kernel's 1-D array on axis m alone (w xi / L_mm),
    which stands in for that axis' kernel taps.  Each tap array is built
    for all the diagonal, or all the correlated, kernels of the stack at
    once."""
    n = grid.n
    off = np.abs(chol[:, ~np.eye(n, dtype=bool)]).max(axis=1, initial=0.0)
    diag_axes = range(n) if deriv_axis is None else [deriv_axis]
    taps = [None] * len(chol)
    for corr, groups in ((False, [[d] for d in diag_axes]),
                         (True, [list(range(n))])):
        sel = np.flatnonzero((off > 1e-14) == corr)
        if len(sel) == 0:
            continue
        built = []
        for g in groups:
            xi, w, shifts = _kernel_nodes(zbar[sel], chol[sel], g, gh_nodes)
            if deriv_axis is not None and corr:
                w = np.stack([w * (xi @ inv_l[:, deriv_axis])
                              for inv_l in np.linalg.inv(chol[sel])])
            elif deriv_axis is not None:
                w = w * xi[:, 0] / chol[sel, deriv_axis, deriv_axis][:, None]
            built.append(_build_taps(shifts, w, [grid.h[e] for e in g]))
        for p, t in zip(sel.tolist(), zip(*built)):
            taps[p] = list(t)
    return taps


def _correlate_nd(arr, taps, out=None):
    """Correlate the last taps.ndim axes of arr with the centred n-D taps,
    holding the edge values beyond the box (ndimage's mode="nearest"), by
    FFT of the edge-padded slab, into out (a new array when not given):
    the cost does not grow with the number of taps, and with all but the
    last transform in place the peak memory is about twice the padded
    slab.  (ndimage.correlate would keep a table of prod(min(S, width)) x
    (nonzero taps) offsets, 0.3 GB for n = 3 on 31 nodes.)  The result
    changes at round-off only, about 1e-15 of its largest value.
    """
    lead = arr.ndim - taps.ndim
    half = [w // 2 for w in taps.shape]
    size = arr.shape[lead:]
    shape = [s + 2 * h for s, h in zip(size, half)]
    spec = np.fft.rfft(np.pad(arr, [(0, 0)] * lead + [(h, h) for h in half],
                              mode="edge"), axis=-1)
    for a in range(lead, arr.ndim - 1):
        np.fft.fft(spec, axis=a, out=spec)
    spec *= np.fft.rfftn(taps[(slice(None, None, -1),) * taps.ndim], s=shape,
                         axes=range(taps.ndim))
    for a in range(lead, arr.ndim - 1):
        np.fft.ifft(spec, axis=a, out=spec)
    # the circular convolution with the reversed taps is exact from index
    # 2 half on, where the output of slab node 0 sits
    full = np.fft.irfft(spec, n=shape[-1], axis=-1)
    if out is None:
        out = np.empty(arr.shape)
    out[...] = full[(...,) + tuple(slice(2 * h, 2 * h + s)
                                   for h, s in zip(half, size))]
    return out


# ---------------------------------------------------------------------------
# The solver
# ---------------------------------------------------------------------------

class VolterraSolver:
    def __init__(self, market: MarketModel, claim: Claim, models,
                 grid: Grid, settings: SolverSettings | None = None):
        if len(models) != market.n_components:
            raise ConfigError("one hazard model per component is required")
        self.market = market
        self.claim = claim
        self.models = models
        self.grid = grid
        self.settings = settings or SolverSettings()
        self._build_tables()

    # -- precomputed tables ---------------------------------------------------

    def _build_tables(self):
        g = self.grid
        M = g.spec.time_steps
        # the switch time of panel p is its midpoint v_p = (p + 1/2) dt
        self.v_mid = (np.arange(M) + 0.5) * g.dt
        half_steps = np.arange(2 * M + 1) * (0.5 * g.dt)
        ages = g.age_nodes

        # per-component residual hazard increments at every (age node,
        # half-step offset k dt/2) pair: panel midpoints are the odd columns,
        # whole steps the even ones
        self.dlam = {}       # (m, state) -> (A, 2M+1)
        for m, h in enumerate(self.models):
            for a in range(1, h.k + 1):
                inc = (h.cumulative_hazard(a, ages[:, None] + half_steps[None, :])
                       - h.cumulative_hazard(a, ages)[:, None])
                # constant in age up to rounding in a memoryless state: its
                # age-0 row stands for every age
                self.dlam[(m, a)] = inc[:1] if h.memoryless(a) else inc
        self.edges = switch_edges(self.models, g.x_tuples)
        # the regime tuples grouped by their memoryless components (see
        # Slab); where[xi] is tuple xi's (group, position)
        groups = {}
        for xi, x in enumerate(g.x_tuples):
            groups.setdefault(tuple(h.memoryless(x[m]) for m, h in enumerate(
                self.models)), []).append(xi)
        self.groups = [(members, frozen) for frozen, members in groups.items()]
        self.where = {xi: (gi, k) for gi, (members, _) in enumerate(self.groups)
                      for k, xi in enumerate(members)}

        # c1 . s on the price grid; its discounted kernel mean is c1 . s
        self._mesh = np.meshgrid(*g.s_axes, indexing="ij")
        self._lin = sum(c * m for c, m in zip(self.claim.c1, self._mesh))
        self._rho = None
        self._terminal = None
        self._js_T = {}

    def _rho_slabs(self):
        if self._rho is None:
            # slabs 0..M-1: the payoff slab M is _terminal_slab's
            g = self.grid
            spots = g.s_mesh()
            self._rho = [np.stack([bsm_price_grid(
                self.market, self.claim, x, float(t), g.horizon, spots,
                self.settings.bsm_outer_nodes) for x in g.x_tuples])
                for t in g.t_nodes[:-1]]
        return self._rho

    def _broadcast(self, values, i):
        """The Slab of time node i whose regime tuple xi holds values[xi]
        (an array over the price axes) at every age, as broadcast views in
        the stored shape, which is that of the survival weights."""
        nc = self.grid.n_components
        return Slab(self, [
            np.broadcast_to(values[members][(slice(None),) + (None,) * nc],
                            js.shape + values.shape[1:])
            for (members, _), js in zip(self.groups, self.js_T(i))],
            int(self.grid.c_counts[i]))

    def _terminal_slab(self):
        if self._terminal is None:
            g = self.grid
            payoff = self.claim(g.s_mesh())
            self._terminal = self._broadcast(
                np.broadcast_to(payoff, (len(g.x_tuples),) + payoff.shape),
                g.spec.time_steps)
        return self._terminal

    def _joint_survival(self, i, ks):
        """exp(-sum_m dLam) over the offsets k dt/2 for k in ks, on the age
        sub-grid of slab i: per group of regime tuples an array
        (n_group, len(ks), c_i or 1 per component), in the stored shape
        (a memoryless state's dLam is one row)."""
        g = self.grid
        c = int(g.c_counts[i])
        nc = g.n_components

        def survival(x):
            return np.exp(-sum(_on_axis(self.dlam[(m, x[m])][:c, ks].T,
                                        (0, 1 + m), 1 + nc) for m in range(nc)))
        return [np.stack([survival(g.x_tuples[xi]) for xi in members])
                for members, _ in self.groups]

    def js_T(self, i):
        """JS(T - t_i; x, y) on the age sub-grid of slab i, per group of
        regime tuples in the stored shape."""
        js = self._js_T.get(i)
        if js is None:
            js = [part[:, 0] for part in self._joint_survival(
                i, [2 * (self.grid.spec.time_steps - i)])]
            self._js_T[i] = js
        return js

    def _slab_tables(self, i, members=None):
        """The switch-branch tables of slab i for the hazard sets of members
        (solvers that share this one's market, claim, grid, settings and
        layout; [self] by default): (sm, weights, js_T).  sm is one
        smoother of the kernels of all regime tuples over the P panel
        midpoints v_p, regime tuple xi's kernel of panel p at row
        xi * P + p, so the taps of the slab, and its derivative taps per
        axis, are one _kernel_taps call each.  weights[xi] holds the
        weights of tuple xi's switch edges (self.edges order), an array
        (B, E, ages, P) over members, edges, the tuple's stored age shape
        (c_i or 1 per component) and panels, panels last so that a block of
        panels is a matrix with unit column stride (see switch_branch),
        where

            w = kappa e^{-r(x) v_p} dt JS(v_p; x, y) lam^l(y_l + v_p).

        kappa is the mass normalization
        (1 - JS(T - t_i)) over the quadrature mass of all panels; it keeps
        linear claims exact and the operator a strict sub-probability
        mixture.  js_T holds that JS(T - t_i) per group of regime tuples,
        an array (B, n_group, ages) over members.  All panels are built at
        once: per member one joint-survival array and one rate call per
        hazard family, and one kernel call per regime tuple for all
        members.  Whoever applies slab i builds its tables once and drops
        them after."""
        g = self.grid
        members = members or [self]
        nc = g.n_components
        c = int(g.c_counts[i])
        P = g.spec.time_steps - i
        v_mid = self.v_mid[:P]
        js = [s._joint_survival(i, range(1, 2 * P, 2)) for s in members]
        js_T = [s.js_T(i) for s in members]
        ages = v_mid[:, None] + g.age_nodes[:c]
        # the smoother acts on the excess over the linear part c1.s, which
        # clamps at the box edges, so no growth correction in the kernels
        kerns = [build_kernel(self.market, g.t_nodes[i], x, v_mid)
                 for x in g.x_tuples]
        sm = _Smoother(np.concatenate([k.zbar for k in kerns]),
                       np.concatenate([k.chol for k in kerns]), g,
                       self.settings.gh_nodes)
        rates = {}
        weights = []
        for xi, x in enumerate(g.x_tuples):
            gi, k = self.where[xi]
            stored = js[0][gi].shape[2:]
            disc = _on_axis(np.exp(-self.market.r(x) * v_mid), (0,), 1 + nc)
            wt = np.empty((len(members), P, len(self.edges[xi])) + stored)
            for b, s in enumerate(members):
                base = g.dt * js[b][gi][k]
                for e, (l, _, _, fam) in enumerate(s.edges[xi]):
                    if id(fam) not in rates:
                        rates[id(fam)] = fam.rate(ages)
                    # a memoryless state's rate is constant: one age column
                    wt[b, :, e] = base * _on_axis(
                        rates[id(fam)][:, :stored[l]], (0, 1 + l), 1 + nc)
                mass = wt[b].reshape((-1,) + stored).sum(axis=0)
                kappa = np.where(mass > 1e-300, (1.0 - js_T[b][gi][k])
                                 / np.maximum(mass, 1e-300), 1.0)
                wt[b] *= (kappa * disc)[:, None]
            weights.append(np.ascontiguousarray(np.moveaxis(wt, 1, -1)))
        return sm, weights, [np.stack(parts) for parts in zip(*js_T)]

    # -- gathering the continuation slab ---------------------------------------

    def age_clamp_events(self) -> int:
        """Age blends that run past the stored ages of a bracketing slab, one
        per (slab, panel, bracketing slab); depends on the grid only."""
        g = self.grid
        count = 0
        for i in range(g.spec.time_steps):
            c = int(g.c_counts[i])
            for p in range(g.spec.time_steps - i):
                cells = self.v_mid[p] / g.dy
                i0 = math.floor(cells)
                if cells - i0 > 1e-14:
                    count += sum(c + i0 > int(g.c_counts[side]) - 1
                                 for side in (i + p, i + p + 1))
        return count

    def _gather(self, stack, i, p, l):
        """Continuation values at ages (y + v_p with component l reset to 0).

        stack is the field over a member axis (PriceField.stacked): per time
        node, per group of regime tuples, an array (B, n_group, ages, S...)
        in the group's stored shape.  Returns per group an array (B,
        n_group, ages, S...) over the ages of every component but l (the
        reset axis is dropped): the mean of the time slabs i + p and
        i + p + 1, which bracket t_i + v_p at its midpoint.  Each bracketing
        slab gives the rows i0..i0 + c_i of its own stored ages, clamped to
        them, and the mean of the two is blended once per age axis.  The
        mean is taken run by run: along each moved axis the rows split into
        runs where each slab reads rows k + i0 or its last stored row, so a
        clamped row is read from the edge row without copying it out first.
        Only the axes a group stores in full move; a memoryless axis keeps
        its one row.
        """
        g = self.grid
        c = int(g.c_counts[i])
        cells = self.v_mid[p] / g.dy
        i0 = math.floor(cells)
        # the runs of rows k < c + 1 of a moved axis, each with the rows
        # both bracketing slabs read there
        sizes = [int(g.c_counts[side]) for side in (i + p, i + p + 1)]
        ends = sorted({0, c + 1} | {min(max(s - i0, 0), c + 1) for s in sizes})
        runs = [(slice(a, b), [slice(a + i0, b + i0) if b + i0 <= s
                               else slice(s - 1, s) for s in sizes])
                for a, b in zip(ends[:-1], ends[1:])]
        out = []
        for gi, (_, frozen) in enumerate(self.groups):
            axes = [2 + m - (m > l) for m in range(g.n_components)
                    if m != l and not frozen[m]]
            sides = [stack[side][gi][(slice(None),) * (2 + l) + (0,)]
                     for side in (i + p, i + p + 1)]
            shape = list(sides[0].shape)
            for ax in axes:
                shape[ax] = c + 1
            mean = np.empty(shape)
            for run in itertools.product(runs, repeat=len(axes)):
                dst = [slice(None)] * len(shape)
                src = [list(dst), list(dst)]
                for ax, (rows, reads) in zip(axes, run):
                    dst[ax] = rows
                    src[0][ax], src[1][ax] = reads
                np.add(sides[0][tuple(src[0])], sides[1][tuple(src[1])],
                       out=mean[tuple(dst)])
            mean *= 0.5
            for ax in axes:
                mean = _shift_axis(mean, ax, cells - i0, c)
            out.append(mean)
        return out

    # -- the switch-branch operator ------------------------------------------

    def switch_branch(self, i, stack, axes=(None,), panels=None,
                      tables=None):
        """The switch-branch integral of slab i, one result per entry of
        axes, each a list of arrays (B, ...) in the stored shape of the
        groups of regime tuples (see Slab), over the member axis of stack
        (see _gather) and of the tables' weights.

        Axis None integrates the excess of the gathered continuation over
        c1.s against the kernel (pricing), axis m against the kernel's
        s_m-derivative, divided by s_m (the hedge in asset m).  All axes
        share the gathers and the weights of slab i's tables (see
        _slab_tables), built afresh for self alone when not given.  panels,
        a range of consecutive v-panels, selects the panels to sum (all by
        default); the panels p >= 1 read only slabs after i.

        The panels are taken in blocks (_panel_blocks) of at most
        _PANEL_BLOCK_BYTES of a member's panel stacks of all regime tuples,
        per axis, or one panel.  The switch edges out of a regime tuple
        whose excesses have the same shape share a stack.  A block first
        gathers the excesses of all its panels.  Then, per regime tuple and
        stack shape, it fills one array (members, edges, panels of the
        block, ages, prices) with them and smooths each panel by one call
        per axis, every later axis into a new array of that shape, the
        first axis last and in place; and each member and edge adds its
        weighted share of the whole block at once: one matrix product of
        its weights (ages of the reset component x panels) and its smoothed
        rows (panels x prices), batched over the other ages (of a one-panel
        block, the outer product).  Each member makes its own products, of
        the same shapes and layouts for any member count, and every other
        operation acts on each member's rows alone, so a member's result is
        that of a call on its own.  The blocks depend on slab i's shapes
        and on panels only.

        A regime tuple's result does not depend on the age of a component
        in a memoryless state (see the module docstring); the discrete
        operator keeps this by backward induction: rho and the terminal
        slab do not depend on age, the survival weights and hazards are
        constant along a memoryless axis, an edge of another component
        keeps that component's state, and the gather reads a clamped age
        from the edge row.  So the edge weights, the gathered excesses and
        the result have one row on the tuple's memoryless axes.
        """
        g = self.grid
        nc = g.n_components
        sm, weights, js_T = tables or self._slab_tables(i)
        P = g.spec.time_steps - i
        if panels is None:
            panels = range(P)
        B = len(js_T[0])
        axes = list(axes)
        # the price axes flattened into one: the columns of the products
        flat = (math.prod(g.s_shape),)
        accs = [[np.zeros(js.shape + flat) for js in js_T] for _ in axes]
        # per regime tuple, its edges grouped by the shape of their excess
        # (the landing group's stored ages without the reset axis)
        stacks = []
        for edges in self.edges:
            by_shape = {}
            for e, (l, _, xpi, _) in enumerate(edges):
                gj, kj = self.where[xpi]
                ages = js_T[gj].shape[2:]
                by_shape.setdefault(ages[:l] + ages[l + 1:],
                                    []).append((e, l, gj, kj))
            stacks.append(list(by_shape.items()))
        blocks = _panel_blocks(panels, 8 * flat[0] * sum(
            len(group) * math.prod(ages)
            for by_shape in stacks for ages, group in by_shape))
        for block in blocks:
            # the linear part of the field integrates in closed form
            # (discounted kernel mean of c1.S is c1.s exactly); only the
            # excess is smoothed
            excess = []
            for p in block:
                gathered = [self._gather(stack, i, p, l) for l in range(nc)]
                for parts in gathered:
                    for part in parts:
                        part -= self._lin
                excess.append(gathered)
            cols = slice(block[0], block[-1] + 1)
            # over one panel the product is an outer product: np.multiply
            # forms it with the same bytes, where np.matmul takes a slow
            # loop outside BLAS for an inner size of 1
            contract = np.matmul if len(block) > 1 else np.multiply
            for xi, by_shape in enumerate(stacks):
                gi, k = self.where[xi]
                for ages, group in by_shape:
                    lead = (B, len(group), len(block)) + ages
                    stacked = np.empty(lead + g.s_shape)
                    for j, p in enumerate(block):
                        for r, (_, l, gj, kj) in enumerate(group):
                            stacked[:, r, j] = excess[j][l][gj][:, kj]
                    # the first axis last, in place
                    smoothed = [stacked] + [np.empty_like(stacked)
                                            for _ in axes[1:]]
                    for j, p in enumerate(block):
                        for out, axis in zip(smoothed[::-1], axes[::-1]):
                            sm.apply(stacked[:, :, j], xi * P + p, axis,
                                     out[:, :, j])
                    for acc, rows, axis in zip(accs, smoothed, axes):
                        if axis is not None:
                            rows /= self._mesh[axis]
                        rows = rows.reshape(lead + flat)
                        for r, (e, l, _, _) in enumerate(group):
                            w = _next_to_last(weights[xi][:, e], 1 + l)
                            share = _next_to_last(acc[gi][:, k], 1 + l)
                            own = _next_to_last(rows[:, r], 1)
                            for b in range(B):
                                share[b] += contract(w[b, ..., cols], own[b])
        return [[acc.reshape(acc.shape[:-1] + g.s_shape) for acc in parts]
                for parts in accs]

    # -- the operator T -------------------------------------------------------

    def apply(self, i, stack, frozen, axes=(None,), panels=None, tables=None):
        """Slab i of T applied to stack (see _gather), before the clamp at
        0, per entry a of axes and group of regime tuples over the member
        axis (the hazard sets the tables were built for, self alone when
        they are not given; see _slab_tables):

            JS(T - t_i) frozen[k] + switch branch_a + (1 - JS) d_a(c1.s)

        frozen[k], for the k-th entry of axes, is over (regime tuple,
        prices): rho_i for a = None, its s_m-derivative for a = m, whose
        linear part d_m(c1.s) is c1_m.  Each member's JS(T - t_i) is read
        from the tables.  The linear part integrates in closed form,
        switch_branch (over panels, with tables) its excess.
        The march's fixed part is the call over the panels p >= 1, the
        hedge field the call over all panels with one axis per asset.
        """
        nc = self.grid.n_components
        y_pad = (...,) + (None,) * self.grid.n
        tables = tables or self._slab_tables(i)
        branch = self.switch_branch(i, stack, axes, panels, tables)
        js_T = [js[y_pad] for js in tables[2]]
        out = []
        for axis, values, parts in zip(axes, frozen, branch):
            lin = self._lin if axis is None else self.claim.c1[axis]
            res = []
            for (group, _), js, f in zip(self.groups, js_T, parts):
                part = js * values[group][(None, slice(None)) + (None,) * nc]
                part += f + (1.0 - js) * lin
                res.append(part)
            out.append(res)
        return out

    def step(self, phi, i: int | None = None, fixed=None, tables=None):
        """One application of T, clamped at 0.

        Without i, to every slab of the PriceField phi (apply over all
        panels): returns the PriceField T phi.  With i, to slab i of the
        march's stack over members (see solve): returns (T phi)_i per group
        of regime tuples over the member axis, fixed (the part that does
        not read slab i: apply over the panels p >= 1) plus the panel p = 0
        summed with slab i's tables.  The march makes one such call per
        local application, for all its members at once.
        """
        g = self.grid
        if i is None:
            stack = phi.stacked()
            rho = self._rho_slabs()
            new_slabs = []
            for j in range(g.spec.time_steps):
                new, = self.apply(j, stack, [rho[j]])
                for part in new:
                    np.maximum(part, 0.0, out=part)
                new_slabs.append(Slab(self, [part[0] for part in new],
                                      int(g.c_counts[j])))
            new_slabs.append(self._terminal_slab())
            return PriceField(self, new_slabs)
        near, = self.switch_branch(i, phi, panels=range(1), tables=tables)
        new = [f + n for f, n in zip(fixed, near)]
        for part in new:
            np.maximum(part, 0.0, out=part)
        return new

    def initial_field(self) -> PriceField:
        rho = self._rho_slabs()
        return PriceField(self, [self._broadcast(rho[i], i) for i in range(
            self.grid.spec.time_steps)] + [self._terminal_slab()])

    def contraction_bound(self) -> float:
        """max over grid nodes of 1 - JS(T - t; x, y)."""
        return max(float(np.max(1.0 - js))
                   for i in range(self.grid.spec.time_steps)
                   for js in self.js_T(i))

    def _layout(self):
        """What the shape of the march's arrays depends on besides the grid:
        the groups of regime tuples and every switch edge's component,
        destination and landing tuple."""
        return self.groups, [[e[:3] for e in edges] for edges in self.edges]

    def solve(self, tol: float, max_iter: int = 200, also=()):
        """March backward from maturity; iterate only the p = 0 panel of
        each slab, at most max_iter local applications per slab.

        Returns (field, report), then one (field, report) per hazard set
        of also (one hazard model per component each), marched with this
        one as a member of the stack (see the module docstring): each gets
        the field and report of its own solve with this solver's market,
        claim, grid and settings, bit for bit.  The hazard sets must share
        this one's memoryless states and switch edges, as scaled hazards
        do.
        """
        if not tol > 0:
            raise ConfigError("tol must be positive")
        if max_iter < 1:
            raise ConfigError("max_iter must be at least 1")
        members = [self] + [VolterraSolver(self.market, self.claim, models,
                                           self.grid, self.settings)
                            for models in also]
        if any(s._layout() != self._layout() for s in members[1:]):
            raise ConfigError("hazard sets solved together must share their "
                              "memoryless states and switch edges")
        g = self.grid
        B = len(members)
        reports = [ConvergenceReport(tol=tol, grid=g.describe())
                   for _ in members]
        # settled in place, from the last slab back
        stack = [[np.broadcast_to(part, (B,) + part.shape)
                  for part in slab.parts]
                 for slab in self.initial_field().slabs]
        w = g.inv_weight()
        least = min(_MIN_REPORT_ITERS, max_iter)
        residual = [0.0] * B
        converged_at = [0] * B
        rho = self._rho_slabs()
        for i in range(g.spec.time_steps - 1, -1, -1):
            tables = self._slab_tables(i, members)
            fixed, = self.apply(i, stack, [rho[i]],
                                panels=range(1, g.spec.time_steps - i),
                                tables=tables)
            settled = [None] * B
            active = list(range(B))
            for k in range(max_iter):
                new = self.step(stack, i, fixed, tables)
                deltas = np.max([(np.abs(a - old) * w).reshape(B, -1).max(1)
                                 for a, old in zip(new, stack[i])], axis=0)
                for b in list(active):
                    rep, delta = reports[b], float(deltas[b])
                    if k == len(rep.deltas):
                        rep.deltas.append(delta)
                    else:
                        rep.deltas[k] = max(rep.deltas[k], delta)
                    rep.iterations = max(rep.iterations, k + 1)
                    if settled[b] is None and delta < tol:
                        settled[b] = k + 1
                    if delta < tol and k + 1 >= least:
                        # keep slab i: delta is then exactly (T phi - phi)_i
                        converged_at[b] = max(converged_at[b], settled[b])
                        residual[b] = max(residual[b], delta)
                        active.remove(b)
                if not active:
                    break
                # a member that has stopped keeps its slab i
                for b in range(B):
                    if b not in active:
                        for part, old in zip(new, stack[i]):
                            part[b] = old[b]
                stack[i] = new
            else:
                b = active[0]
                rep = reports[b]
                rep.ratios = _ratios(rep.deltas)
                rep.contraction_bound = members[b].contraction_bound()
                who = f"hazard set {b}: " if B > 1 else ""
                raise NoConvergence(
                    f"{who}no convergence in {max_iter} local iterations at "
                    f"time node {i} (last residual {deltas[b]:.3e}, tol "
                    f"{tol:.3e})", rep)
        out = []
        for b, (s, rep) in enumerate(zip(members, reports)):
            field = PriceField(s, [
                Slab(s, [part[b] for part in parts], int(c))
                for parts, c in zip(stack, g.c_counts)])
            rep.converged_at = converged_at[b]
            rep.ratios = _ratios(rep.deltas)
            rep.residual = residual[b]
            rep.contraction_bound = s.contraction_bound()
            rep.age_clamp_events = s.age_clamp_events()
            rep.error_budget = s._error_budget(rep, field)
            out.append((field, rep))
        return out[0] + tuple(out[1:])

    def _error_budget(self, report, field: PriceField) -> float:
        """Crude certified-style budget: the a-posteriori iteration error
        |T phi - phi| / (1 - bound) plus curvature terms."""
        # a bound that reaches 1 certifies nothing; cap the factor at 1000
        tail = report.residual / max(1.0 - report.contraction_bound, 1e-3)
        curv = 0.0
        w = self.grid.inv_weight()
        for slab in (field.slabs[0], field.slabs[len(field.slabs) // 2]):
            for part in slab.parts:
                for d in range(part.ndim - self.grid.n, part.ndim):
                    ds = d - (part.ndim - self.grid.n)
                    trim = tuple(slice(1, -1) if a == ds else slice(None)
                                 for a in range(self.grid.n))
                    second = np.abs(np.diff(part, n=2, axis=d)) * w[trim]
                    curv = max(curv, float(np.max(second)) / 8.0)
        return float(tail + 2.0 * curv)


def _ratios(deltas):
    return [d / prev for prev, d in zip(deltas, deltas[1:]) if prev > 0]


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def solve_price_field(market, claim, models, grid: Grid, tol: float = 1e-4,
                      max_iter: int = 200,
                      settings: SolverSettings | None = None, also=()):
    """Solve for the fixed point of the pricing operator by backward
    marching (see VolterraSolver.solve): (field, report), then one
    (field, report) per further hazard set of also, marched with it."""
    solver = VolterraSolver(market, claim, models, grid, settings)
    return solver.solve(tol, max_iter, also)


@dataclass
class PdeResidualReport:
    max_scaled: float
    mean_scaled: float
    n_nodes: int
    max_by_time: list = dc_field(default_factory=list)

    def to_dict(self):
        return dataclasses.asdict(self)


def _on_axis(vec, axis, ndim):
    """vec reshaped to broadcast along one axis of an ndim-array, or along
    each of a tuple of increasing axes (one dimension of vec per axis)."""
    axes = (axis,) if isinstance(axis, int) else axis
    shape = [1] * ndim
    for ax, size in zip(axes, np.shape(vec)):
        shape[ax] = size
    return np.reshape(vec, shape)


def _three_point(arr, sv, axis):
    """Spacings and (dn, mid, up) neighbours of the central 3-point stencil
    at the interior nodes of one axis of arr, on the exponentially spaced
    s-axis sv."""
    hm = _on_axis(sv[1:-1] - sv[:-2], axis, arr.ndim)
    hp = _on_axis(sv[2:] - sv[1:-1], axis, arr.ndim)
    part = [slice(None)] * arr.ndim
    part[axis] = slice(2, None)
    up = arr[tuple(part)]
    part[axis] = slice(1, -1)
    mid = arr[tuple(part)]
    part[axis] = slice(0, -2)
    dn = arr[tuple(part)]
    return hm, hp, dn, mid, up


def _d1_ds(arr, sv, axis):
    """First s-derivative at the interior nodes; exact for quadratics."""
    hm, hp, dn, mid, up = _three_point(arr, sv, axis)
    return (hm ** 2 * up - hp ** 2 * dn
            - (hm ** 2 - hp ** 2) * mid) / (hm * hp * (hm + hp))


def _d2_ds(arr, sv, axis):
    """Second s-derivative at the interior nodes; exact for quadratics."""
    hm, hp, dn, mid, up = _three_point(arr, sv, axis)
    return 2.0 * (hm * up + hp * dn - (hm + hp) * mid) \
        / (hm * hp * (hm + hp))


def _add_price_terms(res, sub, s_axes, rx, a):
    """res + r sum_l s_l d_l phi + 1/2 sum_{l,l'} a_ll' s_l s_l' d_l d_l' phi,
    added into res in place.

    phi = sub, whose last len(s_axes) axes are the price axes; every term
    is zero on the price-axis edges it cannot reach, so each is added into
    the interior of the axes it differentiates.  a is symmetric, so the
    two ordered terms of a mixed derivative are one term a_ll' d_l' d_l phi,
    taken once per pair l < l' with the first-derivative stencil.
    """
    n = len(s_axes)
    lead = sub.ndim - n

    def inner(*axes):
        sel = [slice(None)] * sub.ndim
        for ax in axes:
            sel[ax] = slice(1, -1)
        return res[tuple(sel)]

    d1s = []
    for l in range(n):
        ax = lead + l
        d1 = _d1_ds(sub, s_axes[l], ax)
        d2 = _d2_ds(sub, s_axes[l], ax)
        d1s.append(d1)
        smid = _on_axis(s_axes[l][1:-1], ax, sub.ndim)
        part = inner(ax)
        part += rx * (smid * d1)
        part += 0.5 * a[l, l] * (smid ** 2 * d2)
    for l in range(n):
        for lp in range(l + 1, n):
            axl, axp = lead + l, lead + lp
            dcross = _d1_ds(d1s[l], s_axes[lp], axp)
            svl = _on_axis(s_axes[l][1:-1], axl, sub.ndim)
            svp = _on_axis(s_axes[lp][1:-1], axp, sub.ndim)
            part = inner(axl, axp)
            part += a[l, lp] * (svl * svp * dcross)
    return res


# price nodes per side of the box that the residual skips: the difference
# stencils are cut off at the edge nodes
_INTERIOR_MARGIN = 2


def pde_residual(field: PriceField,
                 maturity_margin_steps: int = 0) -> PdeResidualReport:
    """Discrete residual of the non-local pricing equation on interior nodes.

    The directional (t, y) derivative is a one-sided difference along the
    characteristic (t + dt, y + dt); price derivatives are second-order
    central in ln s; the switch coupling evaluates the field at the jumped
    regime tuples with the jumping component's age reset to zero.
    maturity_margin_steps excludes the last time slabs, where the payoff
    kink dominates any fixed-order difference scheme.  The market and the
    switch edges are those of the solver that produced the field.
    """
    g = field.grid
    market = field.solver.market
    M = g.spec.time_steps
    n = g.n
    worst = 0.0
    total = 0.0
    count = 0
    inv_w = g.inv_weight()
    core = tuple(slice(_INTERIOR_MARGIN, -_INTERIOR_MARGIN) for _ in range(n))
    max_by_time = []
    edges = field.solver.edges
    cells = float(g.dt / g.dy)
    i0 = math.floor(cells)
    f = cells - i0

    for i in range(M - maturity_margin_steps):
        t = float(g.t_nodes[i])
        c = int(g.c_counts[i])
        # restrict to ages whose advance by dt (cells = i0 + f age steps)
        # reads only rows the next slab stores
        keep = min(c, int(g.c_counts[i + 1]) - i0 - (f > 0))
        if keep <= 0:
            max_by_time.append(None)    # no node of this slab is checked
            continue
        slab_max = 0.0

        for xi, x in enumerate(g.x_tuples):
            # c_{i+1} >= 2: an axis of one stored row is memoryless
            sub = field.slabs[i][xi][(slice(0, keep),) * g.n_components]
            adv = field.slabs[i + 1][xi]
            for m in range(g.n_components):
                if adv.shape[m] > 1:
                    adv = _shift_axis(adv, m, cells, keep)
            d_char = (adv - sub) / g.dt

            rx = market.r(x)
            res = _add_price_terms(d_char - rx * sub, sub, g.s_axes, rx,
                                   market.a(t, x))

            # non-local switch coupling at the node itself
            ages = g.age_nodes[:keep]
            for l, _, xpi, fam in edges[xi]:
                lam = _on_axis(fam.rate(ages[:sub.shape[l]]), l, sub.ndim)
                jumped = field.slabs[i][xpi][tuple(
                    slice(0, 1 if m == l else keep) for m in range(g.n_components))]
                res = res + lam * (jumped - sub)

            scaled = np.abs(res) * inv_w
            trimmed = scaled[(slice(None),) * g.n_components + core]
            # each stored row of a memoryless axis stands for keep nodes
            mult = keep ** g.n_components // math.prod(sub.shape[:g.n_components])
            if trimmed.size:
                slab_max = max(slab_max, float(np.max(trimmed)))
                total += float(np.sum(trimmed)) * mult
                count += trimmed.size * mult
        worst = max(worst, slab_max)
        max_by_time.append(slab_max)
    return PdeResidualReport(max_scaled=worst,
                             mean_scaled=total / max(count, 1),
                             n_nodes=count,
                             max_by_time=max_by_time)
