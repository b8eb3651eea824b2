"""Convexity machinery: log-convexity of theta, product-function Hessians,
and the minimum of Xi at equal scales.

The chain of custody runs: positivity of h(v) = theta'' theta - theta'^2
+ theta theta' / v on [1, inf) gives strict convexity of u -> log theta(e^u);
the closed-form determinant of diagonal-plus-rank-structure matrices turns
that into positive semidefiniteness of the Hessian of products of theta
factors (Sylvester criterion on leading principal minors).  Every link reads
theta, theta' and theta'' at t = e^{|u|} >= 1 from one call of
`specfun.theta_with_derivatives`, and the reflection theta(e^u) =
e^{-u/2} theta(e^{-u}) carries the result to u < 0; affine invariance
then yields convexity of Xi on constant-log-volume hyperplanes, checked here
end to end through midpoint inequalities, and the unique minimum at equal
scales, checked by randomised sampling.
"""

from __future__ import annotations

import math
import sys
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_CONFIG, EvalConfig
from .epstein import ScaleVector, XiValue, _check_node_count, xi_many
from .errors import DomainError, PrecisionError
from .specfun import _EPS, Approximation, theta_with_derivatives

__all__ = [
    "JnInput",
    "HyperplaneChart",
    "standard_chart",
    "h_of_v",
    "coefficient_positivity_check",
    "CoefficientReport",
    "det_jn",
    "jn_recursion",
    "jn_closed_form",
    "sylvester_check",
    "SylvesterReport",
    "midpoint_convexity_xi",
    "MidpointReport",
    "log_theta_convexity",
    "LogConvexityReport",
    "verify_minimum_at_equal_scales",
    "MinimumReport",
]


@dataclass(frozen=True)
class JnInput:
    """Diagonal entries z_i and rank-structure weights w_i of a symmetric
    matrix with off-diagonal entries w_i w_j."""

    z: tuple[float, ...]
    w: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.z) != len(self.w):
            raise ValueError("z and w must have equal length")


@dataclass(frozen=True)
class HyperplaneChart:
    """Affine chart b -> exp(v + A b) into the constant-log-volume surface.

    Every column of A sums to zero, so prod_i a_i is constant along the
    chart; j is the number of free coordinates.
    """

    A: np.ndarray
    v: np.ndarray
    j: int = field(init=False)

    def __init__(self, A, v=None) -> None:
        A = np.atleast_2d(np.asarray(A, dtype=float))
        n, j = A.shape
        if v is None:
            v = np.zeros(n)
        v = np.asarray(v, dtype=float)
        if v.shape != (n,):
            raise DomainError(f"offset must have length {n}, got shape {v.shape}")
        if j > n - 1:
            raise DomainError(f"chart can have at most {n - 1} free coordinates, got {j}")
        colsums = np.abs(A.sum(axis=0))
        if colsums.max(initial=0.0) > 1e-10 * max(1.0, float(np.abs(A).max())):
            raise DomainError("every chart column must sum to zero")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "j", j)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def scales(self, b):
        """The ScaleVector exp(v + A b) at a chart point b of j coordinates,
        or the list of them at the rows of an (N, j) array b."""
        b = np.asarray(b, dtype=float)
        points = b.reshape(-1 if b.ndim == 2 else 1, self.j)
        vectors = [ScaleVector(row) for row in self._rows(points).tolist()]
        return vectors if b.ndim == 2 else vectors[0]

    def _rows(self, points: np.ndarray) -> np.ndarray:
        """exp(v + A b) at every row b of the (N, j) array points, as an (N, n) array.

        v + A b is summed column by column, v + A[:, 0] b_0 + A[:, 1] b_1 + ...,
        in the same IEEE operations for every row, so a row of a batch gives
        the bits of the point alone.  A scale past double range is inf or nan,
        with no warning, for the scale checks of the callers to refuse.
        """
        logs = np.repeat(self.v[None, :], len(points), axis=0)
        with np.errstate(over="ignore", invalid="ignore"):
            for d in range(self.j):
                logs += points[:, d, None] * self.A[:, d]
            return np.exp(logs)


def standard_chart(n: int, v=None) -> HyperplaneChart:
    """The n x (n-1) chart [I; -1 .. -1]: free log-scales with the last
    coordinate balancing the sum."""
    if n < 2:
        raise DomainError("standard chart needs n >= 2")
    A = np.vstack([np.eye(n - 1), -np.ones((1, n - 1))])
    return HyperplaneChart(A, v)


# ---------------------------------------------------------------------------
# h(v) and the coefficient claims behind it
# ---------------------------------------------------------------------------


# from |u| = 6 on, t = e^|u| > 400 and every term e^{-pi t k^2} of the theta
# series underflows, so theta = 1 and theta' = theta'' = 0 there exactly: the
# limits as |u| -> inf
_U_FLAT = 6.0


def _theta_at(u: float) -> tuple[float, tuple[Approximation, Approximation, Approximation]]:
    """t = e^{|u|} >= 1, with |u| capped at _U_FLAT, and (theta, theta', theta'') at t."""
    if math.isnan(u):
        raise DomainError(f"u must be a number, got {u}")
    t = math.exp(min(abs(u), _U_FLAT))
    return t, theta_with_derivatives(t)


def h_of_v(v: float) -> Approximation:
    """h(v) = theta''(v) theta(v) - theta'(v)^2 + theta(v) theta'(v) / v.

    Positivity of h on [1, inf) is the computational core of the strict
    log-convexity of theta(e^u); the reflection symmetry of log theta(e^u)
    reduces u < 0 to this range, hence v >= 1 is required here.  h decays
    like e^{-pi v}; once it falls below the normal double range (v near 225)
    its value and err are no longer resolved, and PrecisionError is raised.
    """
    if not v >= 1.0:
        raise DomainError(f"h(v) is evaluated on v >= 1 only, got {v}")
    h = _h(v, *theta_with_derivatives(v))
    if not abs(h.value) >= sys.float_info.min:
        raise PrecisionError(f"h({v}) = {h.value} is below the normal double range")
    return h


def _h(v: float, th: Approximation, thp: Approximation, thpp: Approximation) -> Approximation:
    """h(v) from theta, theta' and theta'' at v >= 1."""
    value = thpp.value * th.value - thp.value * thp.value + th.value * thp.value / v
    err = (
        abs(thpp.value) * th.err
        + th.value * thpp.err
        + 2.0 * abs(thp.value) * thp.err
        + (abs(thp.value) * th.err + th.value * thp.err) / v
        + 4.0 * _EPS * (abs(thpp.value) * th.value + thp.value**2 + abs(thp.value) / v)
    )
    return Approximation(value, err)


def _c_coeff(j: int, k: int, v: float) -> float:
    """pi (k^2 - j^2)^2 - (j^2 + k^2)/v, the coefficient of exp(-pi v (j^2+k^2))
    in the symmetrised double-series form of 2 h(v) / pi."""
    return math.pi * (k * k - j * j) ** 2 - (j * j + k * k) / v


@dataclass(frozen=True)
class CoefficientReport:
    kmax: int
    min_offdiagonal: float  # min over 0 <= j < k <= kmax of C(j, k)
    min_pair: float  # min over k >= 1 of C(k-1, k) + C(k, k)/2
    q1: float  # the k = 1 pair value, pi - 2
    all_positive: bool


def coefficient_positivity_check(kmax: int) -> CoefficientReport:
    """Verify the two coefficient claims at the worst case v = 1.

    (a) C(j, k) > 0 whenever j != k; (b) C(k-1, k) + C(k, k)/2 > 0 for all
    k >= 1.  Together they force every block of the rearranged double series
    for h(v) to be positive.
    """
    if kmax < 2:
        raise DomainError(f"kmax must be at least 2, got {kmax}")
    min_off = math.inf
    for k in range(1, kmax + 1):
        for j in range(0, k):
            min_off = min(min_off, _c_coeff(j, k, 1.0))
    min_pair = min(
        _c_coeff(k - 1, k, 1.0) + 0.5 * _c_coeff(k, k, 1.0) for k in range(1, kmax + 1)
    )
    q1 = _c_coeff(0, 1, 1.0) + 0.5 * _c_coeff(1, 1, 1.0)
    return CoefficientReport(
        kmax=kmax,
        min_offdiagonal=min_off,
        min_pair=min_pair,
        q1=q1,
        all_positive=min_off > 0.0 and min_pair > 0.0,
    )


# ---------------------------------------------------------------------------
# Determinant identity and recursion
# ---------------------------------------------------------------------------


def det_jn(inp: JnInput) -> float:
    """Closed-form determinant of the matrix with diagonal z_i and
    off-diagonal w_i w_j:

        prod_i (z_i - w_i^2) + sum_i w_i^2 prod_{j != i} (z_j - w_j^2).

    Both summands are nonnegative whenever z_i >= w_i^2, which is exactly the
    log-convexity condition on each factor.  A determinant past double range
    raises PrecisionError.
    """
    return _det([zi - wi * wi for zi, wi in zip(inp.z, inp.w)], inp.w)


def _det(d: list[float], w) -> float:
    """prod_i d_i + sum_i w_i^2 prod_{j != i} d_j: the determinant of the
    matrix with diagonal d_i + w_i^2 and off-diagonal w_i w_j."""
    terms = [math.prod(d)]
    for i, wi in enumerate(w):
        terms.append(wi * wi * math.prod(d[:i] + d[i + 1 :]))
    with suppress(OverflowError, ValueError):  # a partial sum past double range, or inf - inf
        total = math.fsum(terms)
        if math.isfinite(total):
            return total
    raise PrecisionError(f"the determinant of the diagonal {d} and weights {w} leaves double range")


def assemble_jn(inp: JnInput) -> np.ndarray:
    """The dense matrix itself, for oracle comparisons."""
    w = np.asarray(inp.w)
    m = np.outer(w, w)
    np.fill_diagonal(m, inp.z)
    return m


def jn_closed_form(alphas) -> float:
    """prod_i (alpha_i - 1) + sum_i prod_{j != i} (alpha_j - 1): `det_jn` with
    every weight 1, the all-ones matrix with diagonal alphas."""
    return det_jn(JnInput(tuple(alphas), (1.0,) * len(alphas)))


def jn_recursion(alphas) -> float:
    """Determinant of the all-ones matrix with diagonal replaced by alphas,
    through the elimination recursion

        D(a_1 .. a_n) = (a_1 - 1) D(a_2 .. a_n) + (-1)^{n-1} prod_{i>=2} (1 - a_i),

    unrolled from D(a_n) = a_n up.
    """
    alphas = list(alphas)
    if len(alphas) < 1:
        raise DomainError("need at least one diagonal entry")
    det = alphas[-1]
    for i in range(len(alphas) - 2, -1, -1):
        sign = -1.0 if (len(alphas) - i - 1) % 2 else 1.0
        det = (alphas[i] - 1.0) * det + sign * math.prod(1.0 - a for a in alphas[i + 1 :])
    return det


# ---------------------------------------------------------------------------
# Sylvester minors of the product-function Hessian
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SylvesterReport:
    xs: tuple[float, ...]
    minors: tuple[float, ...]
    all_nonnegative: bool


def sylvester_check(xs) -> SylvesterReport:
    """Leading principal minors of the reduced Hessian of prod_i theta(e^{x_i}).

    With f(x) = theta(e^x) and F = log f, the reduced Hessian has diagonal
    f''/f = F'' + F'^2 and off-diagonal F'(x_i) F'(x_j); its minors are
    evaluated through the closed form of `det_jn` with d_i = F''(x_i) > 0
    passed as it is, which makes every minor a sum of nonnegative products.
    F is evaluated at t = e^{|x|} >= 1 only: theta(e^u) = e^{-u/2}
    theta(e^{-u}) gives F'(-u) = -1/2 - F'(u) and F''(-u) = F''(u).
    """
    xs = tuple(float(x) for x in xs)
    ds: list[float] = []
    ws: list[float] = []
    for x in xs:
        t, (th, thp, thpp) = _theta_at(x)
        w = t * thp.value / th.value  # F'(|x|)
        ws.append(w if x >= 0.0 else -0.5 - w)
        ds.append(t * t * _h(t, th, thp, thpp).value / th.value**2)
    minors = tuple(_det(ds[:i], ws[:i]) for i in range(1, len(xs) + 1))
    return SylvesterReport(xs=xs, minors=minors, all_nonnegative=all(m >= 0.0 for m in minors))


# ---------------------------------------------------------------------------
# Midpoint convexity and the minimum at equal scales
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MidpointReport:
    left: XiValue
    right: XiValue
    mid: XiValue
    slack: float  # (left + right)/2 - mid, before error allowance
    holds: bool


def midpoint_convexity_xi(
    n: int,
    s: float,
    chart: HyperplaneChart,
    b1,
    b2,
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> MidpointReport:
    """Check Xi(mid) <= (Xi(b1) + Xi(b2))/2 + combined error along a chart."""
    if chart.n != n:
        raise DomainError(f"chart is {chart.n}-dimensional, expected {n}")
    b1 = np.asarray(b1, dtype=float).reshape(chart.j)
    b2 = np.asarray(b2, dtype=float).reshape(chart.j)
    left, right, mid = xi_many(
        [(n, s, scales) for scales in chart.scales(np.array([b1, b2, 0.5 * (b1 + b2)]))], cfg
    )
    slack = 0.5 * (left.value + right.value) - mid.value
    allowance = 0.5 * (left.err + right.err) + mid.err
    return MidpointReport(left, right, mid, slack, holds=slack >= -allowance)


@dataclass(frozen=True)
class LogConvexityReport:
    us: tuple[float, ...]
    second_derivatives: tuple[Approximation, ...]
    all_positive: bool


def log_theta_convexity(us) -> LogConvexityReport:
    """Second derivative of u -> log theta(e^u) at each grid point, with error
    bounds that must exclude zero.

    With t = e^u the derivative is t^2 h(t) / theta(t)^2.  The symmetry
    (log theta(e^u))'' = (log theta(e^{-u}))'' maps negative grid points to
    positive ones, so t >= 1 and h(t) applies; like h_of_v, a point past
    u of about 5.4 raises PrecisionError rather than report an unresolved 0.
    """
    us = tuple(float(u) for u in us)
    if not us:
        raise DomainError("grid must be nonempty")
    results = []
    for u in us:
        t, (th, thp, thpp) = _theta_at(u)
        h = _h(t, th, thp, thpp)
        if not abs(h.value) >= sys.float_info.min:
            raise PrecisionError(f"h(e^|u|) = {h.value} at u = {u} is below the normal double range")
        value = t * t * h.value / th.value**2
        err = t * t * (h.err + 2.0 * abs(h.value) * th.err / th.value) / th.value**2
        # t = fl(e^|u|) is off by up to an ulp, amplified by
        # |d/dt (t^2 h / theta^2)| <= slope, which is about pi t |value|; the
        # series errs hold the rounding of each pi t k^2.  -theta''' = 2 pi^3 S_6
        # <= 1.004 pi theta'', as S_6 / S_4, a mean of k^2 under weights
        # k^4 e^{-pi t k^2}, falls in t from 1.0039 at t = 1
        d0, d1, d2 = th.value, -thp.value, thpp.value
        d3 = 1.004 * math.pi * d2
        dh = d3 * d0 + d1 * d2 + (d1 * d1 + d0 * d2) / t + d0 * d1 / (t * t)
        slope = (2.0 * t * abs(h.value) + t * t * dh) / d0**2 + 2.0 * abs(value) * d1 / d0
        err += _EPS * t * slope
        results.append(Approximation(value, err + 8.0 * _EPS * abs(value)))
    all_pos = all(r.value > 0.0 and r.excludes_zero() for r in results)
    return LogConvexityReport(us=us, second_derivatives=tuple(results), all_positive=all_pos)


@dataclass(frozen=True)
class MinimumReport:
    n: int
    s: float
    samples: int
    failures: int
    min_margin: float | None  # smallest Xi(a) - Xi(1..1) over draws clear of the origin, if any
    holds: bool


def verify_minimum_at_equal_scales(
    n: int,
    s: float,
    samples: int,
    cfg: EvalConfig = DEFAULT_CONFIG,
    seed: int = 0,
) -> MinimumReport:
    """Randomised check that equal scales minimise Xi at fixed volume.

    Draws product-one scale vectors through `standard_chart` (log a_i
    uniform on [-1, 1], last coordinate balancing) and requires
    Xi(s; a) >= Xi(s; 1 .. 1) - 2 err for every draw, strictly so whenever
    the draw is at least 0.05 away from the equal-scale point in max
    log-coordinates.  A draw fails at most once.
    min_margin is None when no draw is that far.
    """
    if n < 2:
        raise DomainError("minimum check needs n >= 2")
    _check_node_count(samples, "the minimum check")
    b = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(samples, n - 1))
    # a draw's log-scales are b and the balancing -sum(b)
    fars = np.maximum(np.abs(b).max(axis=1), np.abs(b.sum(axis=1))) > 0.05
    base, *values = xi_many(
        [(n, s, scales) for scales in [ScaleVector.unit(n), *standard_chart(n).scales(b)]], cfg
    )
    failures = 0
    margins = []
    for far, value in zip(fars.tolist(), values):
        gap = value.value - base.value
        combined = value.err + base.err
        if far:
            margins.append(gap)
        # a far draw must also clear the base strictly; undecidable counts as failure
        if gap < -2.0 * combined or (far and gap <= combined):
            failures += 1
    return MinimumReport(
        n=n,
        s=s,
        samples=samples,
        failures=failures,
        min_margin=min(margins, default=None),
        holds=failures == 0,
    )
