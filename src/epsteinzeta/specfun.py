"""Self-contained real-argument special functions with tracked error bounds.

Provides the theta function theta(t) = sum_k exp(-pi t k^2) and its first two
t-derivatives, the Riemann zeta function for real argument, closed-form
partial-sum upper/lower bounds on the upper incomplete gamma function
Gamma(beta, x), and the modified Bessel function K_nu(z).  Gamma(beta, x)
itself is evaluated by the lattice engine through scipy (epstein._g_kernel).

Every tolerance-driven routine returns an :class:`Approximation`: a double
precision value paired with an absolute error bound derived from the
truncation analysis of the series or quadrature used.  The bounds are
truncation bounds plus small roundoff allowances, not directed-rounding
enclosures.
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
# Floor used when a caller does not supply a tolerance: keep series errors
# close to roundoff so downstream error budgets are dominated by lattice tails.
_SERIES_FLOOR = 1e-17


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


def _gauss_series(t: float, power: int, floor: float = _SERIES_FLOOR) -> Approximation:
    """sum_{k>=1} k^power exp(-pi t k^2) for t > 0.

    Terms eventually decay faster than geometrically; summation stops once the
    next term is below ``floor`` and less than half of its predecessor, so the
    tail is majorised by twice the first omitted term.
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
        if nxt == 0.0 or (nxt < floor and nxt < 0.5 * term):
            return Approximation(total, 2.0 * nxt)
        prev = term
        k += 1
        if k > 200_000:
            raise PrecisionError(
                f"theta-type series did not converge for t={t}, power={power}",
                achieved=2.0 * prev,
            )


def theta(t: float, cfg: EvalConfig | None = None) -> Approximation:
    """theta(t) = 1 + 2 sum_{k>=1} exp(-pi t k^2), t > 0.

    For t < 1 the value is obtained through the reflection identity
    theta(t) = t^{-1/2} theta(1/t), so the series is always summed with
    argument >= 1 where it converges in a handful of terms.
    """
    if not t > 0:
        raise DomainError(f"theta requires t > 0, got {t}")
    floor = min(_SERIES_FLOOR, (cfg.tol if cfg else 1.0) * 1e-3)
    if t < 1.0:
        inner = _gauss_series(1.0 / t, 0, floor)
        scale = 1.0 / math.sqrt(t)
        value = scale * (1.0 + 2.0 * inner.value)
        err = scale * 2.0 * inner.err + 4.0 * _EPS * value
        return Approximation(value, err)
    inner = _gauss_series(t, 0, floor)
    value = 1.0 + 2.0 * inner.value
    return Approximation(value, 2.0 * inner.err + 2.0 * _EPS * value)


def theta_with_derivatives(
    t: float, cfg: EvalConfig | None = None
) -> tuple[Approximation, Approximation, Approximation]:
    """(theta(t), theta'(t), theta''(t)) by termwise differentiation.

    theta'(t)  = -2 pi   sum k^2 exp(-pi t k^2)
    theta''(t) =  2 pi^2 sum k^4 exp(-pi t k^2)

    The differentiated series converge for every t > 0; no reflection is
    applied here, so small t just costs more terms.
    """
    if not t > 0:
        raise DomainError(f"theta derivatives require t > 0, got {t}")
    floor = min(_SERIES_FLOOR, (cfg.tol if cfg else 1.0) * 1e-3)
    s0 = _gauss_series(t, 0, floor)
    s2 = _gauss_series(t, 2, floor)
    s4 = _gauss_series(t, 4, floor)
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

_SQRT8 = math.sqrt(8.0)


def _zeta_alternating(s: float, n: int) -> tuple[float, float]:
    """Accelerated alternating series for (1 - 2^{1-s}) zeta(s), s > 0.

    Chebyshev-weighted acceleration; with n terms the eta-series error is
    at most 3 / d_n where d_n = ((3+sqrt 8)^n + (3-sqrt 8)^n)/2.
    """
    dn = ((3.0 + _SQRT8) ** n + (3.0 - _SQRT8) ** n) / 2.0
    b = -1.0
    c = -dn
    eta = 0.0
    for k in range(n):
        c = b - c
        eta += c * float(k + 1) ** (-s)
        b = (k + n) * (k - n) * b / ((k + 0.5) * (k + 1.0))
    eta /= dn
    scale = 1.0 - 2.0 ** (1.0 - s)
    return eta / scale, 3.0 / dn / abs(scale)


def _zeta_direct(s: float, tol: float) -> tuple[float, float]:
    """Euler-Maclaurin tail-corrected direct series, s > 2."""
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
    return value, rem + 4.0 * _EPS * abs(value)


def riemann_zeta(s: float, cfg: EvalConfig | None = None) -> Approximation:
    """Riemann zeta for real s != 1.

    s > 2        : direct series with Euler-Maclaurin tail correction.
    0 <= s <= 2  : accelerated alternating series.
    s < 0        : classical functional equation, recursing on zeta(1 - s);
                   trivial zeros at negative even integers are returned as
                   exact zeros.
    """
    if s == 1.0:
        raise PoleError("zeta has a pole at s = 1")
    tol = min((cfg or DEFAULT_CONFIG).tol, 1e-13)
    if s > 2.0:
        value, err = _zeta_direct(s, tol)
        return Approximation(value, err)
    if s >= 0.0:
        n = 36
        value, err = _zeta_alternating(s, n)
        while err > tol:
            n += 12
            value, err = _zeta_alternating(s, n)
            if n > 400:
                raise PrecisionError(f"zeta acceleration stalled at s={s}", achieved=err)
        return Approximation(value, err + 4.0 * _EPS * abs(value))
    # s < 0
    if s == round(s) and int(round(s)) % 2 == 0:
        return Approximation(0.0, 0.0)
    rec = riemann_zeta(1.0 - s, cfg)
    factor = 2.0**s * math.pi ** (s - 1.0) * math.sin(math.pi * s / 2.0) * math.gamma(1.0 - s)
    value = factor * rec.value
    err = abs(factor) * rec.err + 8.0 * _EPS * abs(value)
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
_ASYMPTOTIC_SWITCH = 30.0


def _bessel_k_quadrature(nu: float, z: float, tol: float) -> tuple[float, float]:
    """K_nu(z) = int_0^inf exp(-z cosh u) cosh(nu u) du, truncated quadrature.

    The integrand decays doubly exponentially; truncation at
    u* = arccosh((ln(1/tol) + 40)/z) leaves a tail below the integrand there.
    Composite 64-point Gauss-Legendre panels resolve the rest to roundoff.
    """
    cut = (math.log(1.0 / tol) + 40.0) / z
    ustar = math.acosh(max(cut, 1.5))
    npanels = 10
    total = 0.0
    for i in range(npanels):
        a = ustar * i / npanels
        b = ustar * (i + 1) / npanels
        u = 0.5 * (b - a) * _GL_NODES + 0.5 * (a + b)
        w = 0.5 * (b - a) * _GL_WEIGHTS
        total += float(np.dot(w, np.exp(-z * np.cosh(u)) * np.cosh(nu * u)))
    tail = math.exp(-z * math.cosh(ustar)) * math.cosh(nu * ustar) * 2.0
    return total, tail + 1e-14 * abs(total)


def _bessel_k_asymptotic(nu: float, z: float) -> tuple[float, float]:
    """Large-argument expansion; first omitted term bounds the truncation."""
    mu = 4.0 * nu * nu
    term = 1.0
    total = 1.0
    omitted = 0.0
    for k in range(1, 40):
        term *= (mu - (2.0 * k - 1.0) ** 2) / (8.0 * z * k)
        if abs(term) < 1e-18:
            omitted = abs(term)
            break
        total += term
        omitted = abs(term)
    scale = math.sqrt(math.pi / (2.0 * z)) * math.exp(-z)
    return scale * total, scale * (omitted + 4.0 * _EPS * abs(total))


def bessel_k(nu: float, z: float, cfg: EvalConfig | None = None) -> Approximation:
    """Modified Bessel function of the second kind, K_nu(z), z > 0, real nu.

    Evenness in the order is structural: the integral representation only
    sees cosh(nu u), so K_{-nu} = K_nu by construction.
    """
    if not z > 0:
        raise DomainError(f"bessel_k requires z > 0, got {z}")
    nu = abs(nu)
    tol = min((cfg or DEFAULT_CONFIG).tol * 1e-3, 1e-15)
    if z > _ASYMPTOTIC_SWITCH:
        value, err = _bessel_k_asymptotic(nu, z)
    else:
        value, err = _bessel_k_quadrature(nu, z, tol)
    return Approximation(value, err)
