"""Evaluation of the Epstein zeta / Xi functions of diagonal quadratic forms.

The Xi-function of the positive scales (a_1 .. a_n) at real s is

    Xi_n(s; a) = -V/s - (1/V)/(n/2 - s) + V * S(s; a) + (1/V) * S(n/2 - s; 1/a)

with V = sqrt(prod a_i) and

    S(beta; c) = sum_{k in Z^n, k != 0} (pi Q_c(k))^{-beta} Gamma(beta, pi Q_c(k)),
    Q_c(k) = sum_i (c_i k_i)^2,

the closed incomplete-gamma form of the theta-integral continuation.  The
representation converges for every real s away from the simple poles at 0 and
n/2, which is what makes sign analysis inside the critical range possible.

Lattice sums are truncated at pi Q <= T with T chosen so that the tail bound

    (2/T) e^{-(1-c)T} prod_groups theta(c a^2)^count

falls below the configured tolerance; it holds for every split 0 < c < 1.
T0 >= 8, the split c (from theta(t) <= 1 + t^{-1/2}) and the theta product
(a closed-form majorant) depend on the scales and tol alone; a sum of order
beta takes T = max(T0, 4|beta|).  An engine call computes them once per
distinct (scales, tol) key, in one array pass per group-count pattern over
those keys, or on floats, key by key, in a call of fewer than `_VECTOR_KEYS`
nodes.  Both forms take math's log, log1p and exp and sum in group order, so
a key gets the same bits in either.  Equal scales are summed radially
through exact representation counts: isotropic directions cost O(T) terms.

Every kernel sum goes through one batched engine, `_kernel_sums`.  A job is
one kernel sum, (order, scales, tol); the orders of one difference quotient
share one T, so their truncations cancel.  Jobs with one pattern of group
counts share a bucket, whose integer tables (squares for single axes,
representation counts for groups) are built once and whose lattices are
enumerated together, each job's points contiguous with its origin, of weight
zero, first.  Chunks of whole jobs hold at most `_CHUNK_POINTS` points, which
bounds memory; a larger single lattice runs alone.  Each chunk makes one
kernel call and sums each job by np.add.reduceat over its segment, whose
pairwise summation errs by less than 5e-15 sum|terms| on large lattices
(np.bincount sums sequentially and would not).  The rounding allowance of a
job, `_kernel_allowance` sum|terms| at the order of its gammaincc call, is a
swept bound of the kernel's relative error with a margin for the summation;
the rounding of x = pi Q adds (G + 3) eps (|beta| + 1) sum|terms| for G
groups.  A job of at least `_SERIES_POINTS` points whose series meets a
32nd of its tail bound takes, at its points x >= 16, the
integration-by-parts series of the kernel in a few numpy multiply-adds, and
its err gains the series remainder and rounding; every other point makes
one gammaincc call per chunk.  A job's value and err do not depend on the
batch it is evaluated in.  A sum past double range stops the engine with
PrecisionError; only a positive order can leave it, since a negative
order's kernel is at most e^{-x}/|beta|.

Every node goes through `_kernel_parts`, one engine call per dimension n,
which takes the nodes as a row of s values and their scales.  A job sees
the scales only through their groups, and V is a product over the sorted
scales, so the call evaluates each distinct row (s, sorted scales) once:
repeated nodes share its bits, and the mirror nodes of a symmetric chart
cost one evaluation.  Each row makes two jobs, S(s; a) and S(n/2 - s; 1/a),
of one bucket, and `_xi_value` adds the pole terms to their sum, which stays
finite at the poles.  A call of `_VECTOR_KEYS` or more nodes works on
arrays (`_row_parts`): it sorts the scale rows, finds the distinct rows by
one lexsort, and computes V, the reciprocals, the truncation keys, the job
thresholds and the parts column by column, with no Python object per node
until the XiValue of each distinct row.  A smaller call loops over its
nodes on floats with the same IEEE operations, so a node gets the same bits
in either form.  Its memo holds per sorted scale vector the reciprocals and
smallest reciprocal lattice value, and per (sorted scales or their
reciprocals, tol) the groups and truncation; a caller of many small calls,
such as the sign certificates of `analysis`, may pass one memo to all of
them.  `xi_many` and `xi` (a batch of one), `analysis.decide_signs`
and `regions.scan` all evaluate through it.  The one other way in is
`gamma_kernel_sum_d2` of `analysis.hat_xi_second_derivative`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import expn, gammaincc

from .config import DEFAULT_CONFIG, EvalConfig
from .errors import DomainError, PoleError, PrecisionError, SpecialPointError
from .specfun import _EPS, Approximation

__all__ = ["EvalConfig", "ScaleVector", "XiValue", "xi", "xi_many", "z", "hat_xi"]

_POLE_GUARD = 1e-6
# hard caps on the integer steps along one lattice direction (and per-group
# table sizes) and on the enumerated lattice; past them PrecisionError
_MAX_RADIUS = 2_000_000
_MAX_POINTS = 60_000_000
# lattice points per enumeration chunk of a batch; one larger lattice runs alone
_CHUNK_POINTS = 1 << 13
# orders up to this skip `_check_range`: on every lattice the caps admit,
# x_min > T / _MAX_RADIUS^2 >= 2e-12, so x_min^{-18}, Gamma(18) and the
# weights stay far inside double range; negative orders never leave it
_SAFE_ORDER = 18.0


@dataclass(frozen=True)
class ScaleVector:
    """Positive scales (a_1 .. a_n) with the cached volume V = sqrt(prod a_i).

    The product runs over the scales in ascending order, kept as `ascending`,
    so V, like Xi, does not depend on their order, bit for bit."""

    a: tuple[float, ...]
    V: float
    ascending: tuple[float, ...] = field(repr=False, compare=False)

    def __init__(self, a) -> None:
        vals = tuple(map(float, a))
        if len(vals) == 0:
            raise DomainError("scale vector must be nonempty")
        if any(not (x > 0) or math.isinf(x) for x in vals):
            raise DomainError(f"all scales must be positive finite reals, got {vals}")
        ascending = tuple(sorted(vals))
        object.__setattr__(self, "a", vals)
        object.__setattr__(self, "V", math.sqrt(math.prod(ascending)))
        object.__setattr__(self, "ascending", ascending)

    def __len__(self) -> int:
        return len(self.a)

    @staticmethod
    def unit(n: int) -> "ScaleVector":
        return ScaleVector((1.0,) * n)

    @staticmethod
    def ensure(value) -> "ScaleVector":
        return value if isinstance(value, ScaleVector) else ScaleVector(value)

    def reciprocal(self) -> "ScaleVector":
        return ScaleVector(tuple(1.0 / x for x in self.a))

    def scaled(self, lam: float) -> "ScaleVector":
        return ScaleVector(tuple(lam * x for x in self.a))


@dataclass(frozen=True)
class XiValue(Approximation):
    """Xi_n(s; a) with its absolute error bound."""

    n: int
    s: float


# ---------------------------------------------------------------------------
# Representation counts: r_dim(m) = #{k in Z^dim : |k|^2 = m}
# ---------------------------------------------------------------------------


def _radial_counts(dim: int, mmax: int) -> np.ndarray:
    """Coefficients of theta(q)^dim up to q^mmax, as float64.

    theta(q) = 1 + 2 sum_j q^{j^2} has about sqrt(mmax) terms, so each of
    the dim products costs O(mmax^{3/2}).  Tables are cached per (dim, mmax)
    by `_radial_table`.  Counts are exact integers; float64 loses exactness
    only beyond 2^53, far above anything a truncated lattice sum needs.
    """
    result = np.zeros(mmax + 1)
    result[0] = 1.0
    for _ in range(dim):
        twice = 2.0 * result
        for j in range(1, math.isqrt(mmax) + 1):
            result[j * j :] += twice[: mmax + 1 - j * j]
    return result


@lru_cache(maxsize=None)
def _radial_table(dim: int, mmax: int) -> tuple[np.ndarray, np.ndarray]:
    """(m, r_dim(m)) over the m <= mmax that are sums of dim squares."""
    counts = _radial_counts(dim, mmax)
    keep = counts > 0
    return np.arange(mmax + 1, dtype=np.float64)[keep], counts[keep]


def _group_scales(a: tuple[float, ...]) -> list[tuple[float, int]]:
    groups: dict[float, int] = {}
    for x in a:
        groups[x] = groups.get(x, 0) + 1
    # ordered by count, so a and 1/a share one pattern of counts, then
    # largest scales first: their tables are shortest and prune hardest
    return sorted(groups.items(), key=lambda kv: (kv[1], -kv[0]))


def _group_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_group_scales` of every row of a: (scales, counts), with row k's groups
    in its first columns, in the same order, and count 0 after them."""
    n = a.shape[1]
    desc = -np.sort(-a, axis=1)
    start = np.ones(desc.shape, dtype=bool)
    start[:, 1:] = desc[:, 1:] != desc[:, :-1]
    # a group's count runs from its first column to the next group's
    at = np.arange(n)
    following = np.full(desc.shape, n)
    following[:, :-1] = np.minimum.accumulate(np.where(start, at, n)[:, :0:-1], axis=1)[:, ::-1]
    counts = np.where(start, following - at, 0)
    # by count, stably, so equal counts keep descending scales; non-groups last
    order = np.argsort(np.where(start, counts, n + 1), axis=1, kind="stable")
    return np.take_along_axis(desc, order, 1), np.take_along_axis(counts, order, 1)


def _group_table(count: int, scale: np.ndarray, qmax: np.ndarray):
    """Sorted (m, weight) table of one group level, shared by a bucket's jobs.

    m runs over the sums of `count` integer squares with scale^2 m <= qmax for
    some job, weight over their representation counts; a single axis takes
    m = k^2, k >= 0, with weight 2 off the origin.
    """
    if count == 1:
        kmax = int(np.floor(np.sqrt(qmax) / scale).max())
        if kmax + 1 > _MAX_RADIUS:
            raise PrecisionError(f"per-axis range {kmax} exceeds {_MAX_RADIUS}")
        ks = np.arange(kmax + 1, dtype=np.float64)
        w = np.full(kmax + 1, 2.0)
        w[0] = 1.0
        return ks * ks, w
    mmax = int(np.floor(qmax / (scale * scale)).max())
    if mmax + 1 > _MAX_RADIUS:
        raise PrecisionError(f"radial table size {mmax} exceeds {_MAX_RADIUS}")
    return _radial_table(count, mmax)


def _enumerate(pattern: tuple[int, ...], scales: np.ndarray, qmax: np.ndarray):
    """Lattice points Q(k) <= qmax[j] of every job j of one bucket.

    scales[level, j] is job j's scale in the level-th group of `pattern`.
    Yields chunks (q, w, first, counts) of the whole jobs first, first + 1,
    ..., each job's counts[i] points contiguous with its origin first; a
    chunk holds at most _CHUNK_POINTS points unless it is a single job.
    """
    tables = [_group_table(count, scales[level], qmax) for level, count in enumerate(pattern)]
    a2 = scales * scales

    def expand(level: int, q, w, node, lens=None):
        while True:
            m, weight = tables[level]
            # one job: its qmax and scale are scalars, else one per partial
            at = node[0] if node[0] == node[-1] else node
            a2p = a2[level][at]
            if lens is None:
                # per-partial admissible prefix of the (sorted) shared table
                lens = m.searchsorted((qmax[at] - q) / a2p, side="right")
            cuts = _cuts(node, lens)
            if len(cuts) > 1:
                for lo, hi in cuts:
                    yield from expand(level, q[lo:hi], w[lo:hi], node[lo:hi], lens[lo:hi])
                return
            idx = np.arange(int(lens.sum()))
            idx -= (lens.cumsum() - lens).repeat(lens)
            nq, nw = m[idx], weight[idx]
            del idx
            nq *= a2p if np.ndim(a2p) == 0 else a2p.repeat(lens)
            nq += q.repeat(lens)
            nw *= w.repeat(lens)
            level += 1
            if level == len(tables):
                break
            q, w, node, lens = nq, nw, node.repeat(lens), None
        first = int(node[0])
        # points per job; float sums of integers, exact far beyond _MAX_POINTS
        counts = np.bincount(node - first, weights=lens).astype(np.int64)
        del q, w, node, a2p, lens
        yield nq, nw, first, counts

    jobs = len(qmax)
    yield from expand(0, np.zeros(jobs), np.ones(jobs), np.arange(jobs, dtype=np.int32))


def _cuts(node: np.ndarray, lens: np.ndarray) -> list[tuple[int, int]]:
    """Partial-index ranges of whole jobs whose expansions fit _CHUNK_POINTS."""
    total = int(lens.sum())
    if total <= _CHUNK_POINTS or node[0] == node[-1]:
        if total > _MAX_POINTS:
            raise PrecisionError(
                f"lattice enumeration would need {total} points (cap {_MAX_POINTS})"
            )
        return [(0, len(lens))]
    first = int(node[0])
    sizes = np.bincount(node - first, weights=lens).astype(np.int64)
    starts = node.searchsorted(np.arange(first, first + len(sizes)))
    cuts, lo, acc = [], 0, 0
    for at, size in zip(starts.tolist(), sizes.tolist()):
        if acc and acc + size > _CHUNK_POINTS:
            cuts.append((lo, at))
            lo, acc = at, 0
        acc += size
    cuts.append((lo, len(lens)))
    return cuts


# ---------------------------------------------------------------------------
# Vectorised incomplete-gamma kernel g(beta, x) = x^{-beta} Gamma(beta, x)
# ---------------------------------------------------------------------------

# the series takes the points x >= _SERIES_X of a job with at least
# _SERIES_POINTS points, with at most _SERIES_TERMS + 1 terms; a smaller
# job would pay more in planning than it saves
_SERIES_X = 16.0
_SERIES_POINTS = 2048
_SERIES_TERMS = 40


def _series_plan(beta: float, weight: float, budget: float) -> tuple[int, float] | None:
    """(m, bound) for the series of a job of order beta and weight sum `weight`,
    or None if no order m <= _SERIES_TERMS meets `budget`.

    m is the smallest order >= max(0, ceil(beta - 2)) whose bound is at most
    budget.  The bound is the remainder weight |(beta-1)...(beta-m-1)|
    X^{-m-2} e^{-X} at X = _SERIES_X, plus the rounding of the series terms:
    term j of the sum passes through at most 5j + 5 roundings of unit
    roundoff eps/2 (the rounded 1/x and its j powers, j coefficients
    beta - i, three operations in each of j Horner steps, exp and the last
    two products), so a point's error is at most
    eps sum_j (3j + 3) |(beta-1)...(beta-j)| x^{-j} e^{-x}/x.  Both fall in
    x, so at X they hold for all the job's points x >= X; 1 + 1e-12 covers
    rounding the bound itself.
    """
    x = _SERIES_X
    scale = weight * math.exp(-x) / x * (1.0 + 1e-12)
    # |(beta-1)...(beta-j)| X^{-j} at j = m, and sum_{i<=m} (3i + 3) of those
    term, rounding = 1.0, 3.0
    for m in range(_SERIES_TERMS + 1):
        omitted = term * abs(beta - (m + 1)) / x
        bound = scale * (omitted + _EPS * rounding)
        if m >= beta - 2.0 and bound <= budget:
            return m, bound
        term = omitted
        rounding += (3 * m + 6) * term
    return None


def _g_kernel(orders, x: np.ndarray, lens, series=None):
    """(g, mag) with g(beta, x) = x^{-beta} Gamma(beta, x) at every point of x.

    The 1-d x is split into consecutive segments of lengths `lens`, one per
    entry of `orders`.  `series` gives per segment a series order m or None
    (the default: None for all).  The points x >= _SERIES_X of a segment with
    an order take the integration-by-parts series

        g(beta, x) = (e^{-x}/x) sum_{j=0..m} (beta-1)...(beta-j) x^{-j} + R_m,

    |R_m| <= |(beta-1)...(beta-m-1)| x^{-m-2} e^{-x} for m >= beta - 2, by
    m Horner steps g *= 1/x; g *= beta - j; g += 1 per point, so a scalar
    and a per-point order round alike; `_series_plan` bounds R_m and the
    rounding.  The other points go through `_gammaincc_kernel`; mag is |g|
    at the series points.
    """
    if series is None or series.count(None) == len(series):
        return _gammaincc_kernel(orders, x, lens)
    top = max(m for m in series if m is not None)
    sel = x >= _SERIES_X
    if None in series:
        sel &= np.array([m is not None for m in series]).repeat(lens)
    # 1/x at the series points, 0 elsewhere, where the Horner steps leave 1
    u = np.divide(1.0, x, out=np.zeros_like(x), where=sel)
    g = np.ones_like(x)
    # one (order, m) steps with scalar coefficients, else with one per point,
    # 0 past a segment's own m
    steps = {(b, m) for b, m in zip(orders, series) if m is not None}
    beta = orders[series.index(top)] if len(steps) == 1 else None
    for j in range(top, 0, -1):
        if beta is not None:
            coef = beta - j
        else:
            coef = np.array([b - j if m is not None and j <= m else 0.0
                             for b, m in zip(orders, series)]).repeat(lens)
        g *= u
        g *= coef
        g += 1.0
    g *= u
    # e^{-x} into the 1/x buffer: the series adds no third full-size array
    np.negative(x, out=u)
    np.exp(u, out=u)
    g *= u
    del u
    sel = ~sel
    counts = np.add.reduceat(sel, np.cumsum(lens) - lens, dtype=np.int64)
    other, other_mag = _gammaincc_kernel(orders, x[sel], counts)
    g[sel] = other
    mag = None
    if other_mag is not None:
        mag = np.abs(g)
        mag[sel] = other_mag
    return g, mag


def _gammaincc_kernel(orders, x: np.ndarray, lens):
    """`_g_kernel` through one gammaincc call for every point: an order
    beta <= 0 enters it shifted to b0 = beta + k in (0, 1] and comes down
    through g(b, x) = (x g(b + 1, x) - e^{-x}) / b (DLMF 8.8.2 divided by
    x^{b+1}), except the integers -m, whose kernel is E_{m+1}(x) itself.  No
    step leaves double range: g(b, x) <= e^{-x} / |b| for b < 0.  mag is that
    recurrence run on (x |g(b + 1, x)| + e^{-x}) / |b| if any order is
    shifted, else None: it exceeds |g| by about 2 (x + 1) / |b| where b nears 0.
    """
    # one order for all points (a lone large lattice) stays a scalar, which
    # saves the per-point order arrays; the results are bit-equal
    uniform = min(orders) == max(orders)

    def spread(values):
        return np.float64(values[0]) if uniform else np.array(values).repeat(lens)

    def full(values):
        return np.broadcast_to(spread(values), x.shape)

    shifted, shifts = [], []
    for b in orders:
        if b > 0:
            k = 0
        elif b == round(b):
            k = -1  # E_{m+1}; its gammaincc slot takes the harmless order 1
        else:
            k = int(math.floor(-b)) + 1  # smallest shift making beta + k > 0
            if min(abs(b + j) for j in range(k)) < 1e-8:
                raise DomainError(f"kernel order beta={b} too close to a nonpositive integer")
        shifted.append(b + k if k >= 0 else 1.0)
        shifts.append(k)
    start = spread(shifted)
    g = gammaincc(start, x)
    g *= spread([math.gamma(b) for b in shifted])
    g *= np.power(x, -start)
    mag = None
    if max(shifts) > 0:
        ex = np.exp(-x)
        mag = np.abs(g)
        beta, steps, betas = spread(orders), full(shifts), full(orders)
        for j in range(max(shifts) - 1, -1, -1):
            # one order steps every point with a scalar order, without masks
            sel = slice(None) if uniform else steps > j
            b = (beta if uniform else betas[sel]) + j
            xs = x[sel]
            g[sel] = (xs * g[sel] - ex[sel]) / b
            mag[sel] = (xs * mag[sel] + ex[sel]) / np.abs(b)
    if min(shifts) < 0:
        sel = full(shifts) < 0
        g[sel] = expn(full([1 - int(b) if k < 0 else 0 for b, k in zip(orders, shifts)])[sel], x[sel])
    return g, mag


# ---------------------------------------------------------------------------
# Truncation threshold from the theta-product tail bound
# ---------------------------------------------------------------------------


class _Ops(NamedTuple):
    """The elementary functions of `_truncation` on one kind of operand."""

    log: Callable
    log1p: Callable
    exp: Callable
    sqrt: Callable
    high: Callable  # max
    low: Callable  # min
    where: Callable  # where(cond, x, y): x where cond holds, else y
    every: Callable  # whether cond holds for every key


def _column_op(f: Callable) -> Callable:
    """f of every entry of a 1-d array, as a new array."""
    return lambda x: np.fromiter(map(f, x.tolist()), float, x.size)


# the array form takes math's log, log1p and exp entry by entry, and + - * /
# and sqrt are correctly rounded in numpy and Python alike, so a key gets the
# bits of the float form in a column of any length, on any host; numpy's own
# log, log1p and exp would run the columns faster but cost a single call
# more, since on a Python float they take about three times math's time
_FLOAT_OPS = _Ops(
    math.log, math.log1p, math.exp, math.sqrt, max, min,
    lambda cond, x, y: x if cond else y, bool,
)
_ARRAY_OPS = _Ops(
    _column_op(math.log), _column_op(math.log1p), _column_op(math.exp), np.sqrt,
    np.maximum, np.minimum, np.where, np.all,
)


def _theta_majorant(t, ops: _Ops = _FLOAT_OPS):
    """A majorant of theta(t) = sum_k exp(-pi t k^2), within 6e-10 relative.

    As k^2 >= 3k - 2, theta(t) <= max(1, t^{-1/2}) (1 + 2q/(1 - q^3)) with
    q = e^{-pi max(t, 1/t)}; 1 + 8 eps covers the rounding of t = c a^2, of
    this expression and of one product by it."""
    q = ops.exp(-math.pi * ops.high(t, 1.0 / t))
    return ops.high(1.0, 1.0 / ops.sqrt(t)) * (1.0 + 2.0 * q / (1.0 - q * q * q)) * (1.0 + 8.0 * _EPS)


def _tail_bound(big_t, c, theta_prod, ops: _Ops = _FLOAT_OPS):
    # For x = pi Q >= T >= max(8, 4|beta|) and any split 0 < c < 1:
    #   g(beta, x) <= 2 x^{-1} e^{-x} <= (2/T) e^{-(1-c)T} e^{-c x}
    # and sum_k e^{-c pi Q(k)} <= theta_prod.  The bound falls in T.
    return (2.0 / big_t) * ops.exp(-(1.0 - c) * big_t) * theta_prod


def _truncation(scales, counts: tuple[int, ...], tol):
    """(T0, c, theta_prod, tail) with T0 >= 8 and tail = _tail_bound(T0, c,
    theta_prod) < tol, for the keys (scales, tol) of one group-count pattern.

    scales[g] is the scale of the g-th group, of counts[g] equal axes.  It
    and tol are floats for one key, or arrays with one entry per key; the
    same operations, summed in group order, give each key the same bits in
    both forms and in any batch.

    The split c comes from the majorant theta(t) <= 1 + t^{-1/2}, so log P(c)
    is about h(c) = sum count log(1 + 1/(a sqrt c)).  The minimiser of
    T(c) = (log(2/(T tol)) + h(c)) / (1 - c) satisfies c = S(c) / (2T) with
    S(c) = -2c h'(c) = sum count / (1 + a sqrt c); two fixed-point steps from
    c = 1/2 land within 1% of the optimal T for n <= 10 and within 3% for
    n <= 21.  c is capped at 1/2, so that phi below is a contraction.
    theta_prod is the product of `_theta_majorant(c a^2)` over the axes.
    The bound meets tol at the fixed point of
    phi(T) = log(2 theta_prod / (T tol)) / (1 - c), |phi'| <= 1/4 on T >= 8,
    whose odd iterates from a point below the crossing stay above it: three
    steps of max(8, phi) from 8 give T0, doubled while the bound misses tol.
    """
    ops = _ARRAY_OPS if isinstance(tol, np.ndarray) else _FLOAT_OPS
    log, log1p, _, sqrt, high, low, where, every = ops
    c, big_t = 0.5, 8.0
    for _ in range(2):
        r = sqrt(c)
        h = total = 0.0
        for a, count in zip(scales, counts):
            h = h + count * log1p(1.0 / (a * r))
            total = total + count / (1.0 + a * r)
        big_t = high(8.0, (log(2.0 / (big_t * tol)) + h) / (1.0 - c))
        c = low(0.5, total / (2.0 * big_t))
    theta_prod = 1.0
    for a, count in zip(scales, counts):
        factor = _theta_majorant(c * a * a, ops)
        for _ in range(count):
            theta_prod = theta_prod * factor
    big_t = 8.0
    for _ in range(3):
        big_t = high(8.0, log(2.0 * theta_prod / (big_t * tol)) / (1.0 - c))
    for _ in range(60):
        tail = _tail_bound(big_t, c, theta_prod, ops)
        met = tail < tol
        if every(met):
            return big_t, c, theta_prod, tail
        big_t = where(met, big_t, 2.0 * big_t)
    raise PrecisionError(f"no truncation threshold reaches tol={tol}")


def _truncate(keys, memo: dict) -> None:
    """Put the groups and `_truncation` of the (scales, tol) keys that `memo`
    lacks into it, on floats, as (group scales, pattern, T0, c, theta_prod,
    tail).  A truncation past double range, as from a scale whose square
    leaves it, raises PrecisionError."""
    try:
        for a, tol in dict.fromkeys(keys):
            scales, counts = zip(*_group_scales(a))
            memo[a, tol] = (scales, counts, *_truncation(scales, counts, tol))
    except ArithmeticError as exc:
        raise PrecisionError(f"a truncation threshold overflows double precision ({exc})") from None


def _distinct(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, at): the distinct rows of the 2-d array x in lexicographic
    order and the index in rows of each row of x, as np.unique(x, axis=0,
    return_inverse=True) finds them; np.lexsort takes a fifth of the time of
    its sort over a structured view."""
    order = np.lexsort(x.T[::-1])
    x = x[order]
    new = np.empty(len(x), dtype=bool)
    new[:1] = True
    np.any(x[1:] != x[:-1], axis=1, out=new[1:])
    at = np.empty(len(x), dtype=np.intp)
    at[order] = np.cumsum(new) - 1
    return x[new], at


def _truncate_rows(scales: np.ndarray, tols: np.ndarray):
    """`_truncate` of the keys (scales[k], tols[k]) in one `_truncation` array
    pass per group-count pattern, to be run under raising numpy flags:
    (patterns, pattern, groups, T0, c, theta_prod, tail) with key k of
    pattern patterns[pattern[k]], whose group scales lead row k of groups."""
    groups, counts = _group_rows(scales)
    rows, pattern = _distinct(counts)
    patterns = [tuple(count for count in row if count) for row in rows.tolist()]
    entry = np.empty((4, len(tols)))
    for p, counts in enumerate(patterns):
        keys = np.flatnonzero(pattern == p)
        entry[:, keys] = _truncation(list(groups[keys, : len(counts)].T), counts, tols[keys])
    return patterns, pattern, groups, *entry


# ---------------------------------------------------------------------------
# The batched kernel-sum engine
# ---------------------------------------------------------------------------


def _job(beta: float, a: tuple[float, ...], tol: float, memo: dict) -> tuple:
    """The `_job_of` S(beta; a) at tol, truncating (a, tol) into `memo` if
    it lacks it."""
    if (a, tol) not in memo:
        _truncate([(a, tol)], memo)
    return _job_of(beta, memo[a, tol])


def _job_of(beta: float, entry: tuple) -> tuple:
    """The job of S(beta; a) from the memo entry of (a, tol): order,
    group-count pattern, group scales, qmax = T/pi and tail bound at
    T = max(T0, 4|beta|)."""
    scales, pattern, t0, c, theta_prod, tail = entry
    big_t = 4.0 * abs(beta)
    if big_t > t0:
        return beta, pattern, scales, big_t / math.pi, _tail_bound(big_t, c, theta_prod)
    return beta, pattern, scales, t0 / math.pi, tail


def _check_range(job: tuple) -> None:
    """Compute the job's term at its smallest lattice value x_min =
    pi min(scales)^2 as the engine computes it there, under the engine's
    flags, so that a term past double range raises before any table is
    built: the gammaincc kernel of that one point times its weight
    r_count(1) = 2 count.  The enumeration admits x_min when
    qmax / min(scales)^2 >= 1, and the series, which could take the point
    instead, only x >= _SERIES_X.  Only `_kernel_sums` calls it, for orders
    past _SAFE_ORDER: a negative order's kernel is at most e^{-x}/|beta|."""
    beta, pattern, scales, qmax, _ = job
    i = scales.index(min(scales))
    a2 = scales[i] * scales[i]
    x = a2 * math.pi
    if qmax / a2 >= 1.0 and x < _SERIES_X:
        g, _ = _gammaincc_kernel((beta,), np.array([x]), [1])
        g *= 2.0 * pattern[i]


def _jobs(orders: tuple[float, ...], a: tuple[float, ...], tol: float) -> list[tuple]:
    """Jobs of all orders over a at one T, the largest |order|'s: differences cancel the tail."""
    _, *shared = _job(max(orders, key=abs), a, tol, {})
    return [(beta, *shared) for beta in orders]


def _kernel_sums(jobs) -> tuple[list[float], list[float]]:
    """(values, errs) of S(beta; a) for every `_jobs` job, in job order.

    Each job sums over its own truncated lattice, so its results do not
    depend on the other jobs of the batch; jobs with one group-count pattern
    share one enumeration and one kernel call per chunk.  Numpy's overflow
    and invalid-operation flags raise here, as does math.gamma: a sum past
    double range, through Gamma(beta), x^{-beta}, the terms or their total,
    raises PrecisionError, and a sum that completes is bit for bit the one
    computed without the flags.  A job of order past _SAFE_ORDER first passes
    `_check_range`, so that one whose term at x_min overflows stops the call
    before its tables are built.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            for job in jobs:
                if job[0] > _SAFE_ORDER:
                    _check_range(job)
            return _bucket_sums(jobs)
    except (FloatingPointError, OverflowError) as exc:
        raise PrecisionError(f"a kernel sum overflows double precision ({exc})") from None


def _kernel_allowance(b: float) -> float:
    """The relative error allowance of the terms of gammaincc order b > 0 in
    `_gammaincc_kernel`, with their pairwise summation.

    It is 1.5 times the largest relative error of the kernel against 30-digit
    mpmath over a sweep of b in (0, 2] by 0.005 (by 0.001 on [0.48, 0.52]),
    (2, 10] by 0.05 and (10, 170] by 1, at 550 points x in [1e-6, 30], 300 of
    them on [0.2, 4], where scipy's gammaincc changes method: 9.3e-14 on
    (0.48, 0.52], from scipy's series just above order 1/2; 1.8e-14 elsewhere
    on (0, 1.5]; 1.05e-14 on (1.5, 2]; 5.3e-15 on (2, 10]; 9e-15 above.  The
    margin leaves at least 2.6e-15, 24 units of roundoff, for the summation.
    Past x = 30 the error grows like x eps, on terms below e^{-30}/30.
    """
    if 0.48 < b <= 0.52:
        return 1.4e-13
    if b <= 1.5:
        return 2.7e-14
    return 1.6e-14 if b <= 2.0 or b > 10.0 else 8e-15


def _bucket_sums(jobs) -> tuple[list[float], list[float]]:
    values, errs = [0.0] * len(jobs), [0.0] * len(jobs)
    buckets: dict[tuple[int, ...], list[int]] = {}
    for i, job in enumerate(jobs):
        buckets.setdefault(job[1], []).append(i)
    for pattern, members in buckets.items():
        # x = pi Q is rounded: a^2, m a^2, the level sums (the first adds 0)
        # and the product by fl(pi) put it within (G + 3) u relative for G
        # groups, u = eps/2, and as x d/dx log g = -beta - e^{-x}/g a term
        # moves by up to (|beta| + x + 1) times that.  delta (|beta| + 1),
        # delta = (G + 3) eps, covers the points x <= |beta| + 1, which carry
        # a large order's mass; at small orders the kernel allowance takes x
        delta = (len(pattern) + 3) * _EPS
        scales = np.array([jobs[i][2] for i in members]).T
        qmax = np.array([jobs[i][3] for i in members])
        for q, w, first, counts in _enumerate(pattern, scales, qmax):
            starts = np.cumsum(counts) - counts
            # the origin's term is zero: it keeps every segment nonempty
            q[starts] = 1.0
            w[starts] = 0.0
            chunk = members[first : first + len(counts)]
            orders = [jobs[i][0] for i in chunk]
            # a job with enough points of its own plans its series from its
            # order, weight sum (exact: the weights are integers) and tail
            # alone, whatever the batch; the budget of a 32nd of the tail
            # grows its err by at most that much
            plans = series = None
            if len(q) >= _SERIES_POINTS and counts.max() >= _SERIES_POINTS:
                weights = np.add.reduceat(w, starts).tolist()
                plans = [
                    _series_plan(jobs[i][0], weight, jobs[i][4] / 32.0) if size >= _SERIES_POINTS else None
                    for i, weight, size in zip(chunk, weights, counts.tolist())
                ]
                series = [plan and plan[0] for plan in plans]
            q *= math.pi
            terms, mag = _g_kernel(orders, q, counts, series)
            terms *= w
            mags = None if mag is None else np.add.reduceat(mag * w, starts).tolist()
            del q, w, mag
            sums = np.add.reduceat(terms, starts).tolist()
            # terms of a positive order are nonnegative: there the sum is the mass
            mass = sums if min(orders) > 0 else np.add.reduceat(np.abs(terms), starts).tolist()
            for i, beta, total, m, big in zip(chunk, orders, sums, mass, mags or mass):
                values[i] = total
                # terms share one sign except far outside the critical strip, so
                # the kernel's relative error and pairwise summation cost a few
                # ulps of the mass: `_kernel_allowance` at the gammaincc order,
                # which a shifted order pays on its magnitudes with 5e-15 for
                # each of its k steps; E_{m+1} pays 4 x 5e-15
                if beta > 0:
                    rounding = _kernel_allowance(beta)
                elif beta == round(beta):
                    rounding = 2e-14
                else:
                    steps = math.floor(-beta) + 1.0
                    rounding = _kernel_allowance(beta + steps) + 5e-15 * steps
                    m = big
                errs[i] = jobs[i][4] + (rounding + delta * (abs(beta) + 1.0)) * m
            for i, plan in zip(chunk, plans or ()):
                if plan is not None:
                    errs[i] += plan[1]  # the series remainder and rounding
    return values, errs


# ---------------------------------------------------------------------------
# Kernel sums and the public operations
# ---------------------------------------------------------------------------

# order step of the second difference in gamma_kernel_sum_d2
_D2_STEP = 1e-3


def gamma_kernel_sum_d2(beta: float, scales, cfg: EvalConfig = DEFAULT_CONFIG) -> Approximation:
    """d^2 S(beta; a) / d beta^2, a central difference of step h = _D2_STEP in the order.

    The three orders share one lattice, so the truncation tails cancel to
    first order instead of being amplified by 1/h^2.  The second
    derivative equals the log^2-weighted kernel sum
    sum_k integral_1^inf t^{beta-1} (log t)^2 exp(-pi Q(k) t) dt.
    """
    sv = ScaleVector.ensure(scales)
    h = _D2_STEP
    orders = (float(beta), float(beta + h), float(beta - h))
    (f0, fp, fm), (e0, _, _) = _kernel_sums(_jobs(orders, sv.a, cfg.tol / 4.0))
    d2 = (fp - 2.0 * f0 + fm) / (h * h)
    # residual tail after cancellation, roundoff amplified by 1/h^2, and
    # the h^2 truncation of the difference quotient
    err = (
        e0
        + 4.0 * _EPS * (abs(fp) + 2.0 * abs(f0) + abs(fm)) / (h * h)
        + 0.2 * h * h * abs(d2)
    )
    return Approximation(d2, err)


def _check_not_pole(n: int, s: float) -> None:
    if min(abs(s), abs(s - n / 2.0)) < _POLE_GUARD:
        raise PoleError(f"s={s} is inside the guard band around a pole of Xi_{n}")


def _reflected_err(n: int, s, value, err, x_min, ops: _Ops = _FLOAT_OPS):
    """The err of S(n/2 - s; 1/a) = value +- err plus the rounding of its order,
    on floats or, with `_ARRAY_OPS`, on columns of the same bits.

    The order beta = fl(n/2 - s) is off by dbeta, recovered exactly by TwoSum.
    dS/dbeta sums dg/dbeta = integral_1^inf t^{beta-1} log t e^{-xt} dt > 0; by
    Jensen, dg/dbeta <= g log(g(beta+1, x) / g(beta, x)) <= g log(1 + max(beta, 1)/x),
    so |dS/dbeta| <= (value + err) log(1 + max(beta, 1)/x_min) with x_min =
    pi min(1/a)^2 the smallest lattice value.  At strong anisotropy the factor
    log(1/x_min) amplifies the half-ulp of dbeta well past the roundoff allowance.
    """
    half = n / 2.0
    beta = half - s
    dbeta = (half - (beta - (beta - half))) + (-s - (beta - half))
    return err + abs(dbeta) * ((abs(value) + err) * ops.log1p(ops.high(beta, 1.0) / x_min))


# an engine call with fewer nodes takes the float form, node by node: the
# array form's fixed cost is more than its savings there
_VECTOR_KEYS = 16


def _kernel_parts(n: int, s, a, cfg: EvalConfig, memo: dict | None = None) -> tuple:
    """(s_rows, a_rows, parts, at) for the nodes (n, s[i], a[i]) of one
    dimension in one engine call, finite at s = 0 (the E_1 kernel) and n/2.

    A job sees the scales only through their groups, and V is a product over
    the sorted scales, so the nodes are evaluated once per distinct row
    (s, sorted scales): s_rows and a_rows hold the rows, parts[r] = (V,
    V S(s; a), S(n/2 - s; 1/a) / V, err) is row r's, and at[i] is node i's row.
    S(s; a) gets tol/(8V) and S(n/2 - s; 1/a) tol V/8, so that their
    V-weighted errors meet tol.  The scales a[i] are sequences, ScaleVectors
    or the rows of an (N, n) array.

    With fewer than `_VECTOR_KEYS` nodes the float form keys each node on
    (s, sorted scales) and keeps in `memo` per sorted scale vector its
    reciprocals and x_min, and per (sorted scales or their reciprocals, tol)
    the groups and truncation; a caller of many such calls, such as the sign
    certificates of `analysis`, may pass one memo to all of them.  Larger
    calls take the array form, `_row_parts`, which gives every row the same
    bits.
    """
    if len(s) >= _VECTOR_KEYS:
        return _row_parts(n, s, a, cfg)
    memo = {} if memo is None else memo
    s = s.tolist() if isinstance(s, np.ndarray) else s
    a = a.tolist() if isinstance(a, np.ndarray) else a
    orders, keys, rows, at = [], [], [], []
    s_rows, a_rows = [], []
    first: dict[tuple, int] = {}  # (s, sorted scales) -> its row
    for x, scales in zip(s, a):
        sv = ScaleVector.ensure(scales)
        asc, v = sv.ascending, sv.V
        if len(asc) != n:
            raise DomainError(f"expected {n} scales, got {len(asc)}")
        x = float(x)
        if not math.isfinite(x):
            raise DomainError(f"s must be finite, got {x}")
        row = first.setdefault((x, asc), len(rows))
        if row == len(rows):
            if not 0.0 < v < math.inf:
                raise PrecisionError(f"the volume of the scales {asc} leaves double range")
            recip = memo.get(asc)
            if recip is None:
                inv = tuple(1.0 / y for y in asc)
                recip = memo[asc] = inv, _smallest_value(min(inv))
            orders += [x, n / 2.0 - x]
            keys += [(asc, cfg.tol * (0.5 / v) / 4.0), (recip[0], cfg.tol * (0.5 * v) / 4.0)]
            rows.append((v, recip[1]))
            s_rows.append(x)
            a_rows.append(asc)
        at.append(row)
    missing = [key for key in keys if key not in memo]
    if missing:
        _truncate(missing, memo)
    values, errs = _kernel_sums([_job_of(beta, memo[key]) for beta, key in zip(orders, keys)])
    sums = iter(zip(values, errs))
    parts = [
        (v, v * v1, v2 / v, v * e1 + _reflected_err(n, x, v2, e2, x_min) / v)
        for x, (v, x_min), (v1, e1), (v2, e2) in zip(s_rows, rows, sums, sums)
    ]
    return s_rows, a_rows, parts, at


def _smallest_value(inv_min: float) -> float:
    """x_min = pi min(1/a)^2, the smallest lattice value of the reciprocal
    sum, squared by float pow in both forms: numpy's square may part from it
    by an ulp."""
    try:
        return math.pi * inv_min**2
    except OverflowError:
        raise PrecisionError(f"the reciprocal scale {inv_min} squared leaves double range") from None


def _row_parts(n: int, s, a, cfg: EvalConfig) -> tuple:
    """`_kernel_parts` on arrays: one row per distinct (s, sorted scales) by
    `_distinct`, V as a column-by-column product (the sequential product over
    the ascending scales of math.prod), reciprocals, x_min and tols by the
    float form's IEEE operations, and one `_truncate_rows` pass over the
    distinct truncation keys."""
    s = np.asarray(s, dtype=float).reshape(-1)
    if not isinstance(a, np.ndarray):
        a = [x.a if isinstance(x, ScaleVector) else x for x in a]
        for x in a:
            if len(x) != n:
                raise DomainError(f"expected {n} scales, got {len(x)}")
    a = np.asarray(a, dtype=float).reshape(len(s), -1)
    if a.shape[1] != n or n == 0:
        raise DomainError(f"expected {n} scales, got {a.shape[1]}")
    bad = ~((a > 0.0) & (a < math.inf)).all(axis=1)
    if bad.any():
        raise DomainError(f"all scales must be positive finite reals, got {tuple(a[bad][0].tolist())}")
    if not np.isfinite(s).all():
        raise DomainError(f"s must be finite, got {s[~np.isfinite(s)][0]}")
    rows, at = _distinct(np.column_stack((s, np.sort(a, axis=1))))
    s_rows, a_rows = rows[:, 0], rows[:, 1:]
    v = a_rows[:, 0]
    with np.errstate(over="ignore", under="ignore"):
        for k in range(1, n):
            v = v * a_rows[:, k]
    v = np.sqrt(v)
    bad = ~((v > 0.0) & (v < math.inf))
    if bad.any():
        raise PrecisionError(f"the volume of the scales {tuple(a_rows[bad][0].tolist())} leaves double range")
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            # the reciprocals in ascending order, so that unit scales and
            # their reciprocals share one key
            recip = 1.0 / a_rows[:, ::-1]
            x_min = np.fromiter(map(_smallest_value, recip[:, 0].tolist()), float, len(v))
            keys = np.concatenate((
                np.column_stack((a_rows, cfg.tol * (0.5 / v) / 4.0)),
                np.column_stack((recip, cfg.tol * (0.5 * v) / 4.0)),
            ))
            keys, key_at = _distinct(keys)
            patterns, pattern, groups, t0, c, theta_prod, tail = _truncate_rows(keys[:, :-1], keys[:, -1])
    except ArithmeticError as exc:
        raise PrecisionError(f"a truncation threshold overflows double precision ({exc})") from None
    # the jobs S(s; a) of every row, then S(n/2 - s; 1/a), as `_job_of` makes them
    orders = np.concatenate((s_rows, n / 2.0 - s_rows))
    t0, c, theta_prod, tail = t0[key_at], c[key_at], theta_prod[key_at], tail[key_at]
    big_t = 4.0 * np.abs(orders)
    over = big_t > t0
    qmax = np.where(over, big_t, t0) / math.pi
    tail[over] = _tail_bound(big_t[over], c[over], theta_prod[over], _ARRAY_OPS)
    counts = [patterns[p] for p in pattern.tolist()]
    scales = [tuple(row[: len(k)]) for row, k in zip(groups.tolist(), counts)]
    values, errs = _kernel_sums([
        (beta, counts[k], scales[k], q, t)
        for beta, k, q, t in zip(orders.tolist(), key_at.tolist(), qmax.tolist(), tail.tolist())
    ])
    values, errs = np.array(values), np.array(errs)
    r = len(v)
    # inf and nan pass on to `_xi_value`, as in float arithmetic
    with np.errstate(all="ignore"):
        k1, k2 = v * values[:r], values[r:] / v
        kerr = v * errs[:r] + _reflected_err(n, s_rows, values[r:], errs[r:], x_min, _ARRAY_OPS) / v
    parts = list(zip(v.tolist(), k1.tolist(), k2.tolist(), kerr.tolist()))
    return s_rows.tolist(), a_rows, parts, at.tolist()


def _xi_value(n: int, s: float, v: float, k1: float, k2: float, kerr: float) -> XiValue:
    """Xi's pole terms at s plus a kernel part k1 + k2 +- kerr of `_kernel_parts`."""
    try:
        value = math.fsum((-v / s, -(1.0 / v) / (n / 2.0 - s), k1, k2))
    except (OverflowError, ValueError):  # a partial sum or V S(s; a) is past double range
        value = math.inf
    err = kerr + 4.0 * _EPS * (v / abs(s) + 1.0 / (v * abs(n / 2.0 - s)) + abs(value))
    if not err < math.inf:
        raise PrecisionError(f"Xi_{n}({s}) overflows double precision")
    return XiValue(value, err, n, s)


def _xi_rows(n: int, s, a, cfg: EvalConfig) -> tuple:
    """(s_rows, a_rows, values, at): `_kernel_parts` with the XiValue of each
    distinct row in place of its parts.  The caller checks the poles."""
    s_rows, a_rows, parts, at = _kernel_parts(n, s, a, cfg)
    return s_rows, a_rows, [_xi_value(n, x, *part) for x, part in zip(s_rows, parts)], at


def _dimensions(nodes) -> dict[int, tuple[list[int], list[float], list]]:
    """The nodes (n, s, scales) per dimension n: their indices, s and scales.
    A node inside the guard band of a pole raises PoleError, before any node
    is evaluated."""
    dims: dict[int, tuple[list[int], list[float], list]] = {}
    for i, (n, s, scales) in enumerate(nodes):
        s = float(s)
        _check_not_pole(n, s)
        at, ss, aa = dims.setdefault(n, ([], [], []))
        at.append(i)
        ss.append(s)
        aa.append(scales)
    return dims


def xi_many(nodes, cfg: EvalConfig = DEFAULT_CONFIG) -> list[XiValue]:
    """Xi_n(s; a) at every node (n, s, scales), in one batched engine call per
    dimension; each value and err is the one `xi` returns at that node, bit
    for bit."""
    nodes = list(nodes)
    values: list = [None] * len(nodes)
    for n, (at, s, a) in _dimensions(nodes).items():
        _, _, rows, row_at = _xi_rows(n, s, a, cfg)
        for i, row in zip(at, row_at):
            values[i] = rows[row]
    return values


def xi(n: int, s: float, scales, cfg: EvalConfig = DEFAULT_CONFIG) -> XiValue:
    """Xi_n(s; a): pole terms plus the V-weighted kernel sums."""
    return xi_many([(n, s, scales)], cfg)[0]


def z(n: int, s: float, scales, cfg: EvalConfig = DEFAULT_CONFIG) -> Approximation:
    """Z_n(s; a) = Xi_n / (V pi^{-s} Gamma(s)).

    At negative integers the Gamma factor's pole forces an exact zero; s = 0
    has a finite limit that this package does not compute.
    """
    if not math.isfinite(s):
        raise DomainError(f"s must be finite, got {s}")
    sv = ScaleVector.ensure(scales)
    if s < 0 and s == round(s):
        return Approximation(0.0, 0.0)  # no Xi needed
    if s == 0.0 or abs(s) < _POLE_GUARD:
        raise SpecialPointError(
            "Z_n at s = 0 is finite but requires the constant term; not provided"
        )
    return _z_from_xi(xi(n, s, sv, cfg), sv.V)


def _z_from_xi(value_xi: XiValue, volume: float) -> Approximation:
    """Z_n(s; a) from Xi_n(s; a) and V, for s away from 0."""
    s = value_xi.s
    if s < 0 and s == round(s):
        return Approximation(0.0, 0.0)
    factor = volume * math.pi ** (-s) * math.gamma(s)
    value = value_xi.value / factor
    err = value_xi.err / abs(factor) + 4.0 * _EPS * abs(value)
    return Approximation(value, err)


def hat_xi(n: int, s_hat: float, cfg: EvalConfig = DEFAULT_CONFIG) -> XiValue:
    """Unit-scale Xi in normalised coordinates: Xi_n(n s_hat / 2; 1 .. 1).

    The functional equation becomes the reflection s_hat <-> 1 - s_hat, the
    same for every dimension.
    """
    if not 0.0 < s_hat < 1.0:
        raise DomainError(f"normalised argument must lie in (0, 1), got {s_hat}")
    return xi(n, n * s_hat / 2.0, ScaleVector.unit(n), cfg)
