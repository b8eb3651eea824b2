"""Convexity machinery: log-convexity of theta, product-function Hessians,
and the minimum of Xi at equal scales.

The chain of custody runs: positivity of h(v) = theta'' theta - theta'^2
+ theta theta' / v on [1, inf) gives strict convexity of u -> log theta(e^u);
the closed-form determinant of diagonal-plus-rank-structure matrices turns
that into positive semidefiniteness of the Hessian of products of theta
factors (Sylvester criterion on leading principal minors); affine invariance
then yields convexity of Xi on constant-log-volume hyperplanes, checked here
end to end through midpoint inequalities, and the unique minimum at equal
scales, checked by randomised sampling.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_CONFIG, EvalConfig
from .epstein import ScaleVector, XiValue, xi_many
from .errors import DomainError, PrecisionError
from .specfun import (
    _EPS,
    Approximation,
    _gauss_series,
    theta_log_derivatives,
    theta_with_derivatives,
)

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

    def scales(self, b) -> ScaleVector:
        b = np.asarray(b, dtype=float).reshape(self.j)
        return ScaleVector(np.exp(self.v + self.A @ b))


def standard_chart(n: int, v=None) -> HyperplaneChart:
    """The n x (n-1) chart [I; -1 .. -1]: free log-scales with the last
    coordinate balancing the sum."""
    A = np.vstack([np.eye(n - 1), -np.ones((1, n - 1))])
    return HyperplaneChart(A, v)


# ---------------------------------------------------------------------------
# h(v) and the coefficient claims behind it
# ---------------------------------------------------------------------------


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
    th, thp, thpp = theta_with_derivatives(v)
    value = thpp.value * th.value - thp.value * thp.value + th.value * thp.value / v
    err = (
        abs(thpp.value) * th.err
        + th.value * thpp.err
        + 2.0 * abs(thp.value) * thp.err
        + (abs(thp.value) * th.err + th.value * thp.err) / v
        + 4.0 * _EPS * (abs(thpp.value) * th.value + thp.value**2 + abs(thp.value) / v)
    )
    if not abs(value) >= sys.float_info.min:
        raise PrecisionError(f"h({v}) = {value} is below the normal double range")
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
    log-convexity condition on each factor.
    """
    d = [zi - wi * wi for zi, wi in zip(inp.z, inp.w)]
    terms = [math.prod(d)]
    for i, wi in enumerate(inp.w):
        terms.append(wi * wi * math.prod(d[:i] + d[i + 1 :]))
    return math.fsum(terms)


def assemble_jn(inp: JnInput) -> np.ndarray:
    """The dense matrix itself, for oracle comparisons."""
    w = np.asarray(inp.w)
    m = np.outer(w, w)
    np.fill_diagonal(m, inp.z)
    return m


def jn_closed_form(alphas) -> float:
    """prod_i (alpha_i - 1) + sum_i prod_{j != i} (alpha_j - 1)."""
    d = [a - 1.0 for a in alphas]
    terms = [math.prod(d)]
    for i in range(len(d)):
        terms.append(math.prod(d[:i] + d[i + 1 :]))
    return math.fsum(terms)


def jn_recursion(alphas) -> float:
    """Determinant of the all-ones matrix with diagonal replaced by alphas,
    through the elimination recursion

        D(a_1 .. a_n) = (a_1 - 1) D(a_2 .. a_n) + (-1)^{n-1} prod_{i>=2} (1 - a_i).
    """
    alphas = list(alphas)
    if len(alphas) < 1:
        raise DomainError("need at least one diagonal entry")
    if len(alphas) == 1:
        return alphas[0]
    n = len(alphas)
    rest = alphas[1:]
    sign = -1.0 if (n - 1) % 2 else 1.0
    return (alphas[0] - 1.0) * jn_recursion(rest) + sign * math.prod(
        1.0 - a for a in rest
    )


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

    With f(x) = theta(e^x), the reduced Hessian has diagonal f''/f and
    off-diagonal (f'/f)_i (f'/f)_j; its minors are evaluated through the
    closed determinant form, where z_i - w_i^2 = (log f)'' > 0 makes every
    minor a sum of positive products.
    """
    xs = tuple(float(x) for x in xs)
    zs: list[float] = []
    ws: list[float] = []
    for x in xs:
        t = math.exp(x)
        g1, g2 = theta_log_derivatives(t)
        w = t * g1  # (log f)'
        log_second = t * t * g2 + t * g1  # (log f)''
        ws.append(w)
        zs.append(log_second + w * w)  # f''/f
    minors = tuple(det_jn(JnInput(tuple(zs[:i]), tuple(ws[:i]))) for i in range(1, len(xs) + 1))
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
        [(n, s, chart.scales(b)) for b in (b1, b2, 0.5 * (b1 + b2))], cfg
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
    positive ones, so t >= 1 and h_of_v applies; like h_of_v, a point past
    u of about 5.4 raises PrecisionError rather than report an unresolved 0.
    """
    us = tuple(float(u) for u in us)
    if not us:
        raise DomainError("grid must be nonempty")
    results = []
    for u in us:
        t = math.exp(abs(u))
        h = h_of_v(t)
        th, thp, thpp = theta_with_derivatives(t)
        value = t * t * h.value / th.value**2
        err = t * t * (h.err + 2.0 * abs(h.value) * th.err / th.value) / th.value**2
        # t = fl(e^|u|) is off by up to an ulp, and each e^{-pi t k^2} sees t
        # through the rounding of pi t k^2: 3 eps t in all, amplified by
        # |d/dt (t^2 h / theta^2)| <= slope, which is about pi t |value|
        d0, d1, d2 = th.value, -thp.value, thpp.value
        d3 = 2.0 * math.pi**3 * _gauss_series(t, 6).value  # -theta'''(t)
        dh = d3 * d0 + d1 * d2 + (d1 * d1 + d0 * d2) / t + d0 * d1 / (t * t)
        slope = (2.0 * t * abs(h.value) + t * t * dh) / d0**2 + 2.0 * abs(value) * d1 / d0
        err += 3.0 * _EPS * t * slope
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

    Draws product-one scale vectors (log a_i uniform on [-1, 1], last
    coordinate balancing) and requires Xi(s; a) >= Xi(s; 1 .. 1) - 2 err for
    every draw, strictly so whenever the draw is at least 0.05 away from the
    equal-scale point in max log-coordinates.  A draw fails at most once.
    min_margin is None when no draw is that far.
    """
    if n < 2:
        raise DomainError("minimum check needs n >= 2")
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(samples):
        logs = rng.uniform(-1.0, 1.0, size=n - 1)
        draws.append(np.append(logs, -logs.sum()))
    base, *values = xi_many(
        [(n, s, ScaleVector.unit(n))] + [(n, s, ScaleVector(np.exp(logs))) for logs in draws],
        cfg,
    )
    failures = 0
    margins = []
    for logs, value in zip(draws, values):
        gap = value.value - base.value
        combined = value.err + base.err
        far = float(np.abs(logs).max()) > 0.05
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
