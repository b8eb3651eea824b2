"""Self-contained real-argument special functions with tracked error bounds.

Provides the theta function theta(t) = sum_k exp(-pi t k^2) and its first two
t-derivatives, the Riemann zeta function for real argument, closed-form
partial-sum upper/lower bounds on the upper incomplete gamma function
Gamma(beta, x), and the modified Bessel function K_nu(z) over a float or an
array of z.  Gamma(beta, x) itself is evaluated by the lattice engine through
scipy (epstein._g_kernel).

Every tolerance-driven routine returns an :class:`Approximation` (bessel_k on
an array: arrays of values and errors): a double precision value paired with
an absolute error bound derived from the truncation analysis of the series or
quadrature used.  The bounds are truncation bounds plus small roundoff
allowances, not directed-rounding enclosures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, EvalConfig
from .errors import BoundInapplicableError, DomainError, PoleError, PrecisionError

__all__ = [
    "Approximation",
    "theta",
    "theta_with_derivatives",
    "theta_log_derivatives",
    "riemann_zeta",
    "incgamma_bound",
    "bessel_k",
]

_EPS = 2.2204460492503131e-16
# Keep theta-series errors close to roundoff so downstream error budgets are
# dominated by lattice tails.
_SERIES_FLOOR = 1e-17
# riemann_zeta(s) for -1e-6 < s < 0 is zeta(0) + s zeta'(0), within 1.01 s^2;
# the functional equation's err there grows like 4e-17/|s| (4e-11 at -1e-6)
_TAYLOR_AT_ZERO = 1e-6


@dataclass(frozen=True)
class Approximation:
    """A computed value together with a rigorous absolute error bound."""

    value: float
    err: float

    def __post_init__(self) -> None:
        if not self.err >= 0.0:
            raise ValueError(f"error bound must be nonnegative, got {self.err}")

    def __float__(self) -> float:
        return self.value

    def excludes_zero(self) -> bool:
        return abs(self.value) > self.err

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.value!r} ± {self.err:.3g}"


def _gauss_series(t: float, power: int) -> Approximation:
    """sum_{k>=1} k^power exp(-pi t k^2) for t > 0.

    Terms eventually decay faster than geometrically; summation stops once the
    next term is below ``_SERIES_FLOOR`` and less than half of its predecessor,
    so the tail is majorised by twice the first omitted term.
    """
    total = 0.0
    comp = 0.0  # Kahan compensation
    k = 1
    prev = math.inf
    while True:
        term = float(k) ** power * math.exp(-math.pi * t * k * k)
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
        nxt = float(k + 1) ** power * math.exp(-math.pi * t * (k + 1) * (k + 1))
        if nxt == 0.0 or (nxt < _SERIES_FLOOR and nxt < 0.5 * term):
            return Approximation(total, 2.0 * nxt)
        prev = term
        k += 1
        if k > 200_000:
            raise PrecisionError(
                f"theta-type series did not converge for t={t}, power={power}",
                achieved=2.0 * prev,
            )


def theta(t: float) -> Approximation:
    """theta(t) = 1 + 2 sum_{k>=1} exp(-pi t k^2), t > 0.

    For t < 1 the value is obtained through the reflection identity
    theta(t) = t^{-1/2} theta(1/t), so the series is always summed with
    argument >= 1 where it converges in a handful of terms.
    """
    if not t > 0:
        raise DomainError(f"theta requires t > 0, got {t}")
    if t < 1.0:
        inner = _gauss_series(1.0 / t, 0)
        scale = 1.0 / math.sqrt(t)
        value = scale * (1.0 + 2.0 * inner.value)
        err = scale * 2.0 * inner.err + 4.0 * _EPS * value
        return Approximation(value, err)
    inner = _gauss_series(t, 0)
    value = 1.0 + 2.0 * inner.value
    return Approximation(value, 2.0 * inner.err + 2.0 * _EPS * value)


def theta_with_derivatives(t: float) -> tuple[Approximation, Approximation, Approximation]:
    """(theta(t), theta'(t), theta''(t)) by termwise differentiation.

    theta'(t)  = -2 pi   sum k^2 exp(-pi t k^2)
    theta''(t) =  2 pi^2 sum k^4 exp(-pi t k^2)

    The differentiated series converge for every t > 0; no reflection is
    applied here, so small t just costs more terms.
    """
    if not t > 0:
        raise DomainError(f"theta derivatives require t > 0, got {t}")
    s0 = _gauss_series(t, 0)
    s2 = _gauss_series(t, 2)
    s4 = _gauss_series(t, 4)
    th = Approximation(1.0 + 2.0 * s0.value, 2.0 * s0.err + 2.0 * _EPS * (1.0 + 2.0 * s0.value))
    pi = math.pi
    thp = Approximation(-2.0 * pi * s2.value, 2.0 * pi * s2.err + 4.0 * _EPS * pi * s2.value)
    thpp = Approximation(
        2.0 * pi * pi * s4.value, 2.0 * pi * pi * s4.err + 4.0 * _EPS * pi * pi * s4.value
    )
    return th, thp, thpp


def theta_log_derivatives(t: float) -> tuple[float, float]:
    """(theta'/theta, (theta'' theta - theta'^2)/theta^2) at t > 0.

    These are the first two derivatives of log theta, the quantities entering
    every log-convexity computation downstream.
    """
    th, thp, thpp = theta_with_derivatives(t)
    g1 = thp.value / th.value
    g2 = (thpp.value * th.value - thp.value * thp.value) / (th.value * th.value)
    return g1, g2


# ---------------------------------------------------------------------------
# Riemann zeta
# ---------------------------------------------------------------------------

def _zeta_direct(s: float, tol: float) -> tuple[float, float]:
    """Euler-Maclaurin tail-corrected direct series, s >= 0, s != 1.

    For real s >= 0 every derivative of x^{-s} keeps one sign, so the
    remainder is at most the first omitted correction term.  Below s = 2 the
    head and the pole term N^{1-s}/(s-1) cancel, so the roundoff allowance
    is taken on both rather than on their sum.
    """
    n = 24
    while True:
        # first omitted correction term bounds the remainder
        rem = abs(s * (s + 1) * (s + 2) * (s + 3) * (s + 4)) * n ** (-s - 5.0) / 30240.0
        if rem < tol or n >= 1 << 16:
            break
        n *= 2
    head = math.fsum(float(k) ** (-s) for k in range(1, n))
    nf = float(n)
    tail = (
        nf ** (1.0 - s) / (s - 1.0)
        + 0.5 * nf ** (-s)
        + s * nf ** (-s - 1.0) / 12.0
        - s * (s + 1.0) * (s + 2.0) * nf ** (-s - 3.0) / 720.0
    )
    value = head + tail
    return value, rem + 4.0 * _EPS * (head + abs(tail))


def riemann_zeta(s: float, cfg: EvalConfig = DEFAULT_CONFIG) -> Approximation:
    """Riemann zeta for real s != 1.

    s >= 0 : direct series with Euler-Maclaurin tail correction.
    s < 0  : classical functional equation, recursing on zeta(1 - s);
             trivial zeros at negative even integers are returned as exact
             zeros; s above -_TAYLOR_AT_ZERO takes the first-order Taylor
             term at 0.
    """
    if s == 1.0:
        raise PoleError("zeta has a pole at s = 1")
    tol = min(cfg.tol, 1e-13)
    if s >= 0.0:
        value, err = _zeta_direct(s, tol)
        return Approximation(value, err)
    # s < 0
    if s == round(s) and int(round(s)) % 2 == 0:
        return Approximation(0.0, 0.0)
    if s > -_TAYLOR_AT_ZERO:
        # 1 - s rounds to 1 below half an ulp, and beyond it the rounding of
        # 1 - s next to the pole of zeta(1 - s) costs far more than the
        # Taylor remainder: zeta(s) = zeta(0) + s zeta'(0) + s^2 zeta''(x)/2
        # with zeta(0) = -1/2, zeta'(0) = -log(2 pi)/2, |zeta''| < 2.01 here
        value = -0.5 - 0.5 * s * math.log(2.0 * math.pi)
        return Approximation(value, 1.01 * s * s + _EPS * abs(value))
    sig = 1.0 - s
    rec = riemann_zeta(sig, cfg)
    # sig is off 1 - s by dsig (TwoSum); near the pole zeta moves by up to
    # dsig |zeta'| between them.  |zeta'(x)| = sum_{k>=2} log k k^{-x} falls
    # in x, and its terms fall in k from k = 3 on, so at h = x - 1 > 0
    # |zeta'(x)| <= (log 2) 2^{-x} + (log 3) 3^{-x} + int_3^inf log t t^{-x} dt;
    # h is taken at the end nearer the pole
    dsig = (1.0 - (sig - (sig - 1.0))) + (-s - (sig - 1.0))
    h = (sig - 1.0) - abs(dsig)
    log3 = math.log(3.0)
    slope = (
        math.log(2.0) * 2.0 ** (-1.0 - h)
        + log3 * 3.0 ** (-1.0 - h)
        + 3.0**-h * (log3 / h + 1.0 / (h * h))
    )
    # sin(pi s/2) through the offset of s/2 from its nearest integer m, so the
    # zeros at even s cost no relative accuracy
    m = round(s / 2.0)
    sine = math.sin(math.pi * (s / 2.0 - m)) * (-1.0 if m % 2 else 1.0)
    factor = 2.0**s * math.pi ** (s - 1.0) * sine * math.gamma(sig)
    value = factor * rec.value
    err = abs(factor) * (rec.err + abs(dsig) * slope) + 8.0 * _EPS * abs(value)
    return Approximation(value, err)


# ---------------------------------------------------------------------------
# Partial-sum bounds on the upper incomplete gamma
# ---------------------------------------------------------------------------


def incgamma_bound(beta: float, x: float, side: str) -> float:
    """Closed-form partial-sum bound on Gamma(beta, x) from integration by parts.

    x^{beta-1} e^{-x} sum_{j<=m} prod_{i=1..j}(beta - i) / x^j
    is an upper bound for m = floor(beta) and a lower bound for
    m = floor(beta) + 1.  Requires beta > 0 and x > beta so that the partial
    sums form a positive decreasing sequence of brackets.
    """
    if side not in ("upper", "lower"):
        raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")
    if not beta > 0:
        raise BoundInapplicableError(f"bound needs beta > 0, got {beta}")
    if not x > beta:
        raise BoundInapplicableError(f"bound needs x > beta, got x={x}, beta={beta}")
    m = math.floor(beta) + (0 if side == "upper" else 1)
    return x ** (beta - 1.0) * math.exp(-x) * ibp_partial_sum(beta, x, m)


def ibp_partial_sum(beta: float, x: float, m: int) -> float:
    """sum_{j=0..m} prod_{i=1..j}(beta - i) / x^j (the bracketed factor above)."""
    total = 1.0
    prod = 1.0
    for j in range(1, m + 1):
        prod *= beta - j
        total += prod / x**j
    return total


# ---------------------------------------------------------------------------
# Modified Bessel K
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_GL_PANELS = 10
_GL_BLOCK = 4096
_ASYMPTOTIC_SWITCH = 30.0


def _k_quadrature(nu: float, z: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """K_nu(z) = int_0^inf exp(-z cosh u) cosh(nu u) du, truncated quadrature.

    The integrand decays doubly exponentially; truncation at
    u* = arccosh((ln(1/tol) + 40)/z), per z, leaves a tail below twice the
    integrand there.  Ten equal 64-point Gauss-Legendre panels on [0, u*]
    resolve the rest to roundoff.
    """
    ustar = np.arccosh(np.maximum((math.log(1.0 / tol) + 40.0) / z, 1.5))
    width = ustar / _GL_PANELS
    total = np.zeros_like(z)
    # blocks of z keep the (block, 64) node arrays small
    for lo in range(0, z.size, _GL_BLOCK):
        zb, wb = z[lo : lo + _GL_BLOCK, None], width[lo : lo + _GL_BLOCK, None]
        for i in range(_GL_PANELS):
            u = wb * (i + 0.5 + 0.5 * _GL_NODES)
            f = np.exp(-zb * np.cosh(u)) * np.cosh(nu * u)
            total[lo : lo + _GL_BLOCK] += (f * _GL_WEIGHTS).sum(axis=1)
    total *= 0.5 * width
    tail = 2.0 * np.exp(-z * np.cosh(ustar)) * np.cosh(nu * ustar)
    return total, tail + 1e-14 * total


def _k_asymptotic(nu: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Large-argument expansion, summed for each z until a term falls below
    1e-18; the first omitted term bounds the truncation."""
    mu = 4.0 * nu * nu
    term = np.ones_like(z)
    total = np.ones_like(z)
    omitted = np.zeros_like(z)
    live = np.ones(z.shape, dtype=bool)
    for k in range(1, 40):
        term = term * ((mu - (2.0 * k - 1.0) ** 2) / (8.0 * z * k))
        omitted = np.where(live, np.abs(term), omitted)
        live &= omitted >= 1e-18
        if not live.any():
            break
        total = np.where(live, total + term, total)
    scale = np.sqrt(math.pi / (2.0 * z)) * np.exp(-z)
    # rounding: up to 39 additions of half an ulp each, a few ulps in the
    # term ratios, scale and product
    return scale * total, scale * (omitted + 24.0 * _EPS * np.abs(total))


def bessel_k(nu: float, z, cfg: EvalConfig = DEFAULT_CONFIG):
    """Modified Bessel function of the second kind, K_nu(z), z > 0, real nu.

    ``z`` is a float or an array.  A float gives an :class:`Approximation`;
    an array gives the pair (values, errs) of arrays of its shape.  Arguments
    above ``_ASYMPTOTIC_SWITCH`` take the large-argument expansion, the rest
    the quadrature, each branch evaluated once over all of its arguments.

    Evenness in the order is structural: both branches see the order only
    through cosh(nu u) or nu^2, so K_{-nu} = K_nu by construction.
    """
    zs = np.asarray(z, dtype=float)
    if not np.all(zs > 0):
        raise DomainError(f"bessel_k requires z > 0, got {z}")
    nu = abs(nu)
    tol = min(cfg.tol * 1e-3, 1e-15)
    values = np.empty_like(zs)
    errs = np.empty_like(zs)
    far = zs > _ASYMPTOTIC_SWITCH
    values[far], errs[far] = _k_asymptotic(nu, zs[far])
    values[~far], errs[~far] = _k_quadrature(nu, zs[~far], tol)
    if zs.ndim == 0:
        return Approximation(float(values), float(errs))
    return values, errs
