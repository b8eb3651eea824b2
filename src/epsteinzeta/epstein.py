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

falls below the configured tolerance.  It holds for every split 0 < c < 1;
c is chosen per kernel sum from the majorant theta(t) <= 1 + t^{-1/2} in a few
arithmetic steps, and the exact product then costs one theta call per group
of equal scales.  Equal scales are also summed radially through exact
representation counts, so isotropic directions cost O(T) terms instead of
O(T^{n/2}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import expn, gammaincc

from .config import DEFAULT_CONFIG, EvalConfig
from .errors import DomainError, PoleError, PrecisionError, SpecialPointError
from .specfun import Approximation, theta

__all__ = [
    "EvalConfig",
    "ScaleVector",
    "XiValue",
    "gamma_kernel_sum",
    "gamma_kernel_sum_multi",
    "lambda_n",
    "xi",
    "z",
    "hat_xi",
    "functional_equation_residual",
]

_EPS = 2.2204460492503131e-16
_POLE_GUARD = 1e-6
# hard caps on the integer steps along one lattice direction (and per-group
# table sizes) and on the enumerated lattice; past them PrecisionError
_MAX_RADIUS = 2_000_000
_MAX_POINTS = 60_000_000
# radial tables up to this length are cheaper as dense binary powers
_DENSE_COUNTS_MAX = 256


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
class XiValue:
    """Xi_n(s; a) with its absolute error bound."""

    value: float
    err: float
    n: int
    s: float

    def __post_init__(self) -> None:
        if not self.err >= 0:
            raise ValueError(f"error bound must be nonnegative, got {self.err}")

    def __float__(self) -> float:
        return self.value

    def excludes_zero(self) -> bool:
        return abs(self.value) > self.err


# ---------------------------------------------------------------------------
# Representation counts: r_dim(m) = #{k in Z^dim : |k|^2 = m}
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _radial_counts(dim: int, mmax: int) -> np.ndarray:
    """Coefficients of theta(q)^dim up to q^mmax, as float64.

    theta(q) = 1 + 2 sum_j q^{j^2} has about sqrt(mmax) terms.  Small tables
    take binary powers through dense convolutions, O(mmax^2 log dim) in a few
    numpy calls; longer ones take dim sparse products of O(mmax^{3/2}) each,
    since dense squaring would cost O(mmax^2) per step.
    Counts are exact integers; float64 loses exactness only beyond 2^53,
    far above anything a truncated lattice sum needs.
    """
    result = np.zeros(mmax + 1)
    result[0] = 1.0
    if mmax > _DENSE_COUNTS_MAX:
        for _ in range(dim):
            twice = 2.0 * result
            for j in range(1, math.isqrt(mmax) + 1):
                result[j * j :] += twice[: mmax + 1 - j * j]
        return result
    power = np.zeros(mmax + 1)
    power[0] = 1.0
    power[np.arange(1, math.isqrt(mmax) + 1) ** 2] = 2.0
    e = dim
    while e:
        if e & 1:
            result = np.convolve(result, power)[: mmax + 1]
        e >>= 1
        if e:
            power = np.convolve(power, power)[: mmax + 1]
    return result


def _group_scales(a: tuple[float, ...]) -> list[tuple[float, int]]:
    groups: dict[float, int] = {}
    for x in a:
        groups[x] = groups.get(x, 0) + 1
    # largest scales first: their tables are shortest and prune hardest
    return sorted(groups.items(), key=lambda kv: -kv[0])


def _group_table(scale: float, count: int, qmax: float):
    """Sorted (q, weight) arrays for one group of equal scales.

    q runs over scale^2 * m with m a sum of `count` integer squares and
    weight the number of representations; singleton groups enumerate k >= 0
    directly with weight 2 off the origin.
    """
    if count == 1:
        kmax = int(math.floor(math.sqrt(qmax) / scale))
        if kmax + 1 > _MAX_RADIUS:
            raise PrecisionError(f"per-axis range {kmax} exceeds {_MAX_RADIUS}")
        ks = np.arange(kmax + 1, dtype=np.float64)
        q = (scale * ks) ** 2
        w = np.full(kmax + 1, 2.0)
        w[0] = 1.0
        return q, w
    mmax = int(math.floor(qmax / (scale * scale)))
    if mmax + 1 > _MAX_RADIUS:
        raise PrecisionError(f"radial table size {mmax} exceeds {_MAX_RADIUS}")
    counts = _radial_counts(count, mmax)
    m = np.arange(mmax + 1, dtype=np.float64)
    keep = counts > 0
    return (scale * scale) * m[keep], counts[keep]


def _enumerate_q(groups: list[tuple[float, int]], qmax: float):
    """All nonzero values Q(k) <= qmax with multiplicities, as flat arrays."""
    q = np.array([0.0])
    w = np.array([1.0])
    for scale, count in groups:
        gq, gw = _group_table(scale, count, qmax)
        # per-partial admissible prefix of the (sorted) group table
        lens = np.searchsorted(gq, qmax - q, side="right")
        total = int(lens.sum())
        if total > _MAX_POINTS:
            raise PrecisionError(
                f"lattice enumeration would need {total} points (cap {_MAX_POINTS})"
            )
        starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
        idx = np.arange(total) - np.repeat(starts, lens)
        q = np.repeat(q, lens) + gq[idx]
        w = np.repeat(w, lens) * gw[idx]
    mask = q > 0.0
    return q[mask], w[mask]


# ---------------------------------------------------------------------------
# Vectorised incomplete-gamma kernel g(beta, x) = x^{-beta} Gamma(beta, x)
# ---------------------------------------------------------------------------


def _g_kernel(beta: float, x: np.ndarray) -> np.ndarray:
    if beta > 0:
        return x ** (-beta) * gammaincc(beta, x) * math.gamma(beta)
    if beta == round(beta):
        # Gamma(-m, x) = x^{-m} E_{m+1}(x), hence the kernel is E_{m+1} itself
        return expn(int(round(-beta)) + 1, x)
    k = int(math.floor(-beta)) + 1  # smallest shift making beta + k > 0
    if min(abs(beta + j) for j in range(k)) < 1e-8:
        raise DomainError(
            f"kernel order beta={beta} too close to a nonpositive integer"
        )
    g = gammaincc(beta + k, x) * math.gamma(beta + k)
    ex = np.exp(-x)
    for j in range(k - 1, -1, -1):
        b = beta + j
        g = (g - x**b * ex) / b
    return x ** (-beta) * g


# ---------------------------------------------------------------------------
# Truncation threshold from the theta-product tail bound
# ---------------------------------------------------------------------------


def _theta_product(groups: list[tuple[float, int]], c: float) -> float:
    """sum_k exp(-c pi Q(k)) = prod over scale groups of theta(c a^2)^count."""
    return math.prod(theta(c * a * a).value ** count for a, count in groups)


def _tail_bound(big_t: float, c: float, theta_prod: float) -> float:
    # For x = pi Q >= T >= max(8, 4(beta-1), 4|beta|) and any split 0 < c < 1:
    #   g(beta, x) <= 2 x^{-1} e^{-x} <= (2/T) e^{-(1-c)T} e^{-c x}
    # and sum_k e^{-c pi Q(k)} = theta_prod.
    return (2.0 / big_t) * math.exp(-(1.0 - c) * big_t) * theta_prod


def _choose_split(groups: list[tuple[float, int]], tol: float, tmin: float) -> float:
    """Split c minimising the threshold T at which the tail bound meets tol.

    Uses the majorant theta(t) <= 1 + t^{-1/2}, so log P(c) is about
    h(c) = sum count log(1 + 1/(a sqrt c)).  The minimiser of
    T(c) = (log(2/(T tol)) + h(c)) / (1 - c) satisfies c = S(c) / (2T) with
    S(c) = -2c h'(c) = sum count / (1 + a sqrt c); two fixed-point steps
    from c = 1/2 land within 1% of the optimal T for n <= 10 and within 3%
    for n <= 21.  c is capped at 1/2, which keeps _choose_T's iteration a
    contraction.
    """
    c, big_t = 0.5, tmin
    for _ in range(2):
        r = math.sqrt(c)
        h = math.fsum(count * math.log1p(1.0 / (a * r)) for a, count in groups)
        big_t = max(tmin, (math.log(2.0 / (big_t * tol)) + h) / (1.0 - c))
        c = min(0.5, math.fsum(count / (1.0 + a * r) for a, count in groups) / (2.0 * big_t))
    return c


def _choose_T(
    betas: tuple[float, ...], groups: list[tuple[float, int]], tol: float
) -> tuple[float, float, float]:
    """(T, c, theta_prod) with _tail_bound(T, c, theta_prod) < tol."""
    tmin = max(8.0, max(4.0 * (b - 1.0) for b in betas), max(4.0 * abs(b) for b in betas))
    c = _choose_split(groups, tol, tmin)
    theta_prod = _theta_product(groups, c)

    # the bound falls in T; its crossing with tol is the fixed point of the
    # contraction phi (|phi'| <= 1/4 on T >= 8), whose odd iterates from a
    # point below the crossing stay above it
    def phi(t: float) -> float:
        return math.log(2.0 * theta_prod / (t * tol)) / (1.0 - c)

    big_t = phi(tmin)
    big_t = tmin if big_t <= tmin else phi(phi(big_t))
    for _ in range(60):
        if _tail_bound(big_t, c, theta_prod) < tol:
            return big_t, c, theta_prod
        big_t *= 2.0
    raise PrecisionError(f"no truncation threshold reaches tol={tol}")


# ---------------------------------------------------------------------------
# Kernel sums and the public operations
# ---------------------------------------------------------------------------


def gamma_kernel_sum(
    beta: float, scales, cfg: EvalConfig = DEFAULT_CONFIG
) -> Approximation:
    """S(beta; a) = sum_{k != 0} (pi Q(k))^{-beta} Gamma(beta, pi Q(k))."""
    return gamma_kernel_sum_multi((beta,), scales, cfg)[0]


def gamma_kernel_sum_multi(
    betas, scales, cfg: EvalConfig = DEFAULT_CONFIG
) -> list[Approximation]:
    """Kernel sums for several orders over one shared truncated lattice.

    Sharing the point set matters when the results are differenced in beta:
    truncation sets that differ between evaluations would not cancel.
    """
    sv = ScaleVector.ensure(scales)
    betas = tuple(float(b) for b in betas)
    groups = _group_scales(sv.a)
    big_t, c, theta_prod = _choose_T(betas, groups, cfg.tol / 4.0)
    q, w = _enumerate_q(groups, big_t / math.pi)
    x = math.pi * q
    tail = _tail_bound(big_t, c, theta_prod)
    out = []
    for b in betas:
        terms = w * _g_kernel(b, x)
        value = float(terms.sum())
        # terms share one sign except far outside the critical strip, so
        # pairwise summation costs a few ulps of the absolute mass
        rounding = 5e-15 * float(np.abs(terms).sum()) * (4.0 if b <= 0 else 1.0)
        out.append(Approximation(value, tail + rounding))
    return out


def gamma_kernel_sum_d2(
    beta: float, scales, cfg: EvalConfig = DEFAULT_CONFIG, step: float = 1e-3
) -> tuple[Approximation, Approximation]:
    """(S(beta), d^2 S / d beta^2) with a central difference in the order.

    The difference quotient runs over one shared lattice, so the truncation
    tails cancel to first order instead of being amplified by 1/step^2.  The
    second derivative equals the log^2-weighted kernel sum
    sum_k integral_1^inf t^{beta-1} (log t)^2 exp(-pi Q(k) t) dt.
    """
    f0, fp, fm = gamma_kernel_sum_multi((beta, beta + step, beta - step), scales, cfg)
    d2 = (fp.value - 2.0 * f0.value + fm.value) / (step * step)
    # residual tail after cancellation, roundoff amplified by 1/step^2, and
    # the h^2 truncation of the difference quotient
    err = (
        f0.err
        + 4.0 * _EPS * (abs(fp.value) + 2.0 * abs(f0.value) + abs(fm.value)) / (step * step)
        + 0.2 * step * step * abs(d2)
    )
    return f0, Approximation(d2, err)


def _check_not_pole(n: int, s: float) -> None:
    if abs(s) < _POLE_GUARD:
        raise PoleError(f"s={s} is inside the guard band around the pole at 0")
    if abs(s - n / 2.0) < _POLE_GUARD:
        raise PoleError(f"s={s} is inside the guard band around the pole at n/2")


def _reflected_kernel_sum(n: int, s: float, recip: ScaleVector, cfg: EvalConfig) -> Approximation:
    """S(n/2 - s; 1/a), with the rounding of the order n/2 - s in its err.

    The order is evaluated at beta = fl(n/2 - s), off the exact order by
    dbeta (recovered exactly by TwoSum).  dS/dbeta is a sum of positive
    terms dg/dbeta = integral_1^inf t^{beta-1} log t e^{-xt} dt; by Jensen,
    dg/dbeta <= g log(g(beta+1, x) / g(beta, x)) <= g log(1 + max(beta, 1)/x),
    so |dS/dbeta| <= S log(1 + max(beta, 1)/x_min), where
    x_min = pi min(1/a)^2 is the smallest lattice value and S <= value + err.
    The factor reaches log(1/x_min) at strong anisotropy, where it amplifies
    the half-ulp of dbeta well past the roundoff allowance.
    """
    half = n / 2.0
    beta = half - s
    dbeta = (half - (beta - (beta - half))) + (-s - (beta - half))
    kernel = gamma_kernel_sum(beta, recip, cfg)
    x_min = math.pi * min(recip.a) ** 2
    slope = (abs(kernel.value) + kernel.err) * math.log1p(max(beta, 1.0) / x_min)
    return Approximation(kernel.value, kernel.err + abs(dbeta) * slope)


def lambda_n(s: float, scales, cfg: EvalConfig = DEFAULT_CONFIG) -> Approximation:
    """Pole-free part: S(s; a) + S(n/2 - s; 1/a), symmetric under
    (s, a) -> (n/2 - s, 1/a)."""
    sv = ScaleVector.ensure(scales)
    n = len(sv)
    _check_not_pole(n, s)
    first = gamma_kernel_sum(s, sv, cfg)
    second = _reflected_kernel_sum(n, s, sv.reciprocal(), cfg)
    value = first.value + second.value
    return Approximation(value, first.err + second.err + 2.0 * _EPS * abs(value))


def xi(n: int, s: float, scales, cfg: EvalConfig = DEFAULT_CONFIG) -> XiValue:
    """Xi_n(s; a): pole terms plus the V-weighted kernel sums."""
    sv = ScaleVector.ensure(scales)
    if len(sv) != n:
        raise DomainError(f"expected {n} scales, got {len(sv)}")
    _check_not_pole(n, s)
    v = sv.V
    # split the tolerance by the V-weights so the assembled error meets tol
    first = gamma_kernel_sum(s, sv, cfg.tighter(0.5 / v))
    second = _reflected_kernel_sum(n, s, sv.reciprocal(), cfg.tighter(0.5 * v))
    value = math.fsum(
        (-v / s, -(1.0 / v) / (n / 2.0 - s), v * first.value, second.value / v)
    )
    err = v * first.err + second.err / v + 4.0 * _EPS * (
        v / abs(s) + 1.0 / (v * abs(n / 2.0 - s)) + abs(value)
    )
    return XiValue(value, err, n, s)


def z(n: int, s: float, scales, cfg: EvalConfig = DEFAULT_CONFIG) -> Approximation:
    """Z_n(s; a) = Xi_n / (V pi^{-s} Gamma(s)).

    At negative integers the Gamma factor's pole forces an exact zero; s = 0
    has a finite limit that this package does not compute.
    """
    sv = ScaleVector.ensure(scales)
    if s < 0 and s == round(s):
        return Approximation(0.0, 0.0)
    if s == 0.0 or abs(s) < _POLE_GUARD:
        raise SpecialPointError(
            "Z_n at s = 0 is finite but requires the constant term; not provided"
        )
    value_xi = xi(n, s, sv, cfg)
    factor = sv.V * math.pi ** (-s) * math.gamma(s)
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


def functional_equation_residual(
    n: int, s: float, scales, cfg: EvalConfig = DEFAULT_CONFIG
) -> float:
    """|Xi_n(s; a) - Xi_n(n/2 - s; 1/a)|, a correctness diagnostic.

    Both sides are evaluated independently (different kernel orders and
    different lattices), so agreement is evidence, not tautology.
    """
    sv = ScaleVector.ensure(scales)
    left = xi(n, s, sv, cfg)
    right = xi(n, n / 2.0 - s, sv.reciprocal(), cfg)
    return abs(left.value - right.value)
