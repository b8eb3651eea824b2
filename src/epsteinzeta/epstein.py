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
beta takes T = max(T0, 4|beta|).  Equal scales are summed radially through
exact representation counts: isotropic directions cost O(T) terms.

Every kernel sum goes through one batched engine, `_kernel_sums`.  A job is
one kernel sum, (order, scales, tol); the orders of one difference quotient
share one T, so their truncations cancel.  Jobs with one pattern of group
counts share a bucket, whose integer tables (squares for single axes,
representation counts for groups) are built once and whose lattices are
enumerated together, each job's points contiguous with its origin, of weight
zero, first.  Chunks of whole jobs hold at most `_CHUNK_POINTS` points, which
bounds memory; a larger single lattice runs alone.  Each chunk makes one
kernel call and sums each job by np.add.reduceat over its segment, whose
pairwise summation keeps the flat rounding allowance 5e-15 sum|terms| on
large lattices (np.bincount sums sequentially and would not).  A job of at
least `_SERIES_POINTS` points whose series meets a 32nd of its tail bound
takes, at its points x >= 16, the integration-by-parts series of the kernel
in a few numpy multiply-adds, and its err gains the series remainder and
rounding; every other point makes one gammaincc call per chunk.  A job's
value and err do not depend on the batch it is evaluated in.  A sum past
double range stops the engine with PrecisionError.

`xi_many` evaluates many nodes in one engine call; `xi` is a batch of one.
A flat loop in `_kernel_parts` makes each node's two jobs, S(s; a) and
S(n/2 - s; 1/a), of one bucket, and `_xi_value` adds the pole terms to their
sum, which stays finite at the poles.  The call's memo holds per scale
vector its reciprocal and smallest reciprocal lattice value, and per
(scales, tol) the groups and truncation; a caller that makes several engine
calls, such as the sign certificates of `analysis`, may pass one memo to
all of them.  The one other way in is `gamma_kernel_sum_d2` of
`analysis.hat_xi_second_derivative`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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


@dataclass(frozen=True)
class ScaleVector:
    """Positive scales (a_1 .. a_n) with the cached volume V = sqrt(prod a_i)."""

    a: tuple[float, ...]
    V: float

    def __init__(self, a) -> None:
        vals = tuple(float(x) for x in a)
        if len(vals) == 0:
            raise DomainError("scale vector must be nonempty")
        if any(not (x > 0) or math.isinf(x) for x in vals):
            raise DomainError(f"all scales must be positive finite reals, got {vals}")
        object.__setattr__(self, "a", vals)
        object.__setattr__(self, "V", math.sqrt(math.prod(vals)))

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
    beta <= 0 enters it shifted to beta + k > 0 and comes down through
    Gamma(b, x) = (Gamma(b + 1, x) - x^b e^{-x}) / b, except the integers -m,
    whose kernel is E_{m+1}(x) itself.  mag is x^{-beta} times that
    recurrence run on (|Gamma(b + 1, x)| + x^b e^{-x}) / |b| if any order is
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
    beta = spread(orders)
    g = gammaincc(spread(shifted) if any(shifts) else beta, x)
    g *= spread([math.gamma(b) for b in shifted])
    # x^{-beta} before the recurrence, so that its overflow stops the engine first
    power = np.power(x, -beta)
    mag = None
    if max(shifts) > 0:
        ex = np.exp(-x)
        mag = np.abs(g)
        steps, betas = full(shifts), full(orders)
        for j in range(max(shifts) - 1, -1, -1):
            # one order steps every point with a scalar order, without masks
            sel = slice(None) if uniform else steps > j
            b = (beta if uniform else betas[sel]) + j
            p = np.power(x[sel], b) * ex[sel]
            g[sel] = (g[sel] - p) / b
            mag[sel] = (mag[sel] + p) / np.abs(b)
        mag *= power
    g *= power
    if min(shifts) < 0:
        sel = full(shifts) < 0
        g[sel] = expn(full([1 - int(b) if k < 0 else 0 for b, k in zip(orders, shifts)])[sel], x[sel])
    return g, mag


# ---------------------------------------------------------------------------
# Truncation threshold from the theta-product tail bound
# ---------------------------------------------------------------------------


def _theta_product(groups: list[tuple[float, int]], c: float) -> float:
    """A majorant of sum_k exp(-c pi Q(k)) = prod over groups of theta(c a^2)^count.

    As k^2 >= 3k - 2, theta(t) <= max(1, t^{-1/2}) (1 + 2q/(1 - q^3)) with
    q = e^{-pi max(t, 1/t)}, within 6e-10 relative; 1 + 8 eps covers rounding."""
    prod = 1.0
    for a, count in groups:
        t = c * a * a
        q = math.exp(-math.pi * max(t, 1.0 / t))
        prod *= (max(1.0, t**-0.5) * (1.0 + 2.0 * q / (1.0 - q**3)) * (1.0 + 8.0 * _EPS)) ** count
    return prod


def _tail_bound(big_t: float, c: float, theta_prod: float) -> float:
    # For x = pi Q >= T >= max(8, 4|beta|) and any split 0 < c < 1:
    #   g(beta, x) <= 2 x^{-1} e^{-x} <= (2/T) e^{-(1-c)T} e^{-c x}
    # and sum_k e^{-c pi Q(k)} <= theta_prod.  The bound falls in T.
    return (2.0 / big_t) * math.exp(-(1.0 - c) * big_t) * theta_prod


def _choose_split(groups: list[tuple[float, int]], tol: float) -> float:
    """Split c minimising the threshold T at which the tail bound meets tol.

    Uses the majorant theta(t) <= 1 + t^{-1/2}, so log P(c) is about
    h(c) = sum count log(1 + 1/(a sqrt c)).  The minimiser of
    T(c) = (log(2/(T tol)) + h(c)) / (1 - c) satisfies c = S(c) / (2T) with
    S(c) = -2c h'(c) = sum count / (1 + a sqrt c); two fixed-point steps
    from c = 1/2 land within 1% of the optimal T for n <= 10 and within 3%
    for n <= 21.  c is capped at 1/2, which keeps _choose_T's iteration a
    contraction.
    """
    c, big_t = 0.5, 8.0
    for _ in range(2):
        r = math.sqrt(c)
        h = math.fsum(count * math.log1p(1.0 / (a * r)) for a, count in groups)
        big_t = max(8.0, (math.log(2.0 / (big_t * tol)) + h) / (1.0 - c))
        c = min(0.5, math.fsum(count / (1.0 + a * r) for a, count in groups) / (2.0 * big_t))
    return c


def _choose_T(groups: list[tuple[float, int]], tol: float) -> tuple[float, ...]:
    """(T0, c, theta_prod, tail) with T0 >= 8 and tail = _tail_bound(T0, c, theta_prod) < tol."""
    c = _choose_split(groups, tol)
    theta_prod = _theta_product(groups, c)

    # the crossing of the bound with tol is the fixed point of the
    # contraction phi (|phi'| <= 1/4 on T >= 8), whose odd iterates from a
    # point below the crossing stay above it
    def phi(t: float) -> float:
        return math.log(2.0 * theta_prod / (t * tol)) / (1.0 - c)

    big_t = phi(8.0)
    big_t = 8.0 if big_t <= 8.0 else phi(phi(big_t))
    for _ in range(60):
        tail = _tail_bound(big_t, c, theta_prod)
        if tail < tol:
            return big_t, c, theta_prod, tail
        big_t *= 2.0
    raise PrecisionError(f"no truncation threshold reaches tol={tol}")


# ---------------------------------------------------------------------------
# The batched kernel-sum engine
# ---------------------------------------------------------------------------


def _job(beta: float, a: tuple[float, ...], tol: float, memo: dict) -> tuple:
    """The job of S(beta; a): order, group-count pattern, group scales, qmax =
    T/pi and tail bound at T = max(T0, 4|beta|); `memo` holds the groups and
    `_choose_T` per (a, tol)."""
    entry = memo.get((a, tol))
    if entry is None:
        groups = _group_scales(a)
        entry = memo[a, tol] = (*zip(*groups), *_choose_T(groups, tol))
    scales, pattern, t0, c, theta_prod, tail = entry
    big_t = 4.0 * abs(beta)
    if big_t > t0:
        return beta, pattern, scales, big_t / math.pi, _tail_bound(big_t, c, theta_prod)
    return beta, pattern, scales, t0 / math.pi, tail


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
    double range, through Gamma(beta), x^{+-beta}, the terms or their total,
    raises PrecisionError, and a sum that completes is bit for bit the one
    computed without the flags.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _bucket_sums(jobs)
    except (FloatingPointError, OverflowError) as exc:
        raise PrecisionError(f"a kernel sum overflows double precision ({exc})") from None


def _bucket_sums(jobs) -> tuple[list[float], list[float]]:
    values, errs = [0.0] * len(jobs), [0.0] * len(jobs)
    buckets: dict[tuple[int, ...], list[int]] = {}
    for i, job in enumerate(jobs):
        buckets.setdefault(job[1], []).append(i)
    for pattern, members in buckets.items():
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
                # pairwise summation costs a few ulps of the mass; a shifted order
                # pays k + 3 (summation, gammaincc, k steps, power) on its magnitudes
                shifted = beta < 0 and beta != round(beta)
                factor = math.floor(-beta) + 4.0 if shifted else 4.0 if beta <= 0 else 1.0
                errs[i] = jobs[i][4] + 5e-15 * (big if shifted else m) * factor
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


def _reflected_err(n: int, s: float, value: float, err: float, x_min: float) -> float:
    """The err of S(n/2 - s; 1/a) = value +- err plus the rounding of its order.

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
    return err + abs(dbeta) * ((abs(value) + err) * math.log1p(max(beta, 1.0) / x_min))


def _kernel_parts(nodes, cfg: EvalConfig, memo: dict | None = None) -> list[tuple]:
    """(n, s, V, V S(s; a), S(n/2 - s; 1/a) / V, err) at every node (n, s, scales)
    in one engine call, finite at s = 0 (the E_1 kernel) and n/2.  S(s; a) gets
    tol/(8V) and S(n/2 - s; 1/a) tol V/8, so that their V-weighted errors meet tol.
    `memo`, keyed on scales and on (scales, tol), may be shared by several calls."""
    jobs, rows = [], []
    memo = {} if memo is None else memo
    for n, s, scales in nodes:
        sv = ScaleVector.ensure(scales)
        a, v = sv.a, sv.V
        if len(a) != n:
            raise DomainError(f"expected {n} scales, got {len(a)}")
        s = float(s)
        if not math.isfinite(s):
            raise DomainError(f"s must be finite, got {s}")
        recip = memo.get(a)
        if recip is None:
            inv = tuple(1.0 / x for x in a)
            recip = memo[a] = inv, math.pi * min(inv) ** 2
        jobs.append(_job(s, a, cfg.tol * (0.5 / v) / 4.0, memo))
        jobs.append(_job(n / 2.0 - s, recip[0], cfg.tol * (0.5 * v) / 4.0, memo))
        rows.append((n, s, v, recip[1]))
    values, errs = _kernel_sums(jobs)
    sums = iter(zip(values, errs))
    return [
        (n, s, v, v * v1, v2 / v, v * e1 + _reflected_err(n, s, v2, e2, x_min) / v)
        for (n, s, v, x_min), (v1, e1), (v2, e2) in zip(rows, sums, sums)
    ]


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


def xi_many(nodes, cfg: EvalConfig = DEFAULT_CONFIG) -> list[XiValue]:
    """Xi_n(s; a) at every node (n, s, scales), in one batched engine call;
    each value and err is the one `xi` returns at that node, bit for bit."""
    nodes = list(nodes)
    for n, s, _ in nodes:
        _check_not_pole(n, float(s))
    return [_xi_value(*row) for row in _kernel_parts(nodes, cfg)]


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
