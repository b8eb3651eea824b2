"""Self-contained real-argument special functions with tracked error bounds.

Provides the theta function theta(t) = sum_k exp(-pi t k^2) and its first two
t-derivatives, from one fixed series of four terms at argument >= 1 and the
reflection theta(t) = t^{-1/2} theta(1/t) below 1, the Riemann zeta function
for real argument, the
integration-by-parts partial sum behind the closed-form bounds of the sign
certificates on the upper incomplete gamma function Gamma(beta, x), and the
modified Bessel function K_nu(z) over floats or arrays of nu and z, by one
trapezoidal rule for every z > 0 whose error bound comes from the strip of
analyticity of its integrand.  The engine (epstein._theta_sums) applies the
same kind of rule to the theta integrals of Xi, so no incomplete gamma
function is evaluated.

theta, riemann_zeta and bessel_k return an :class:`Approximation` (bessel_k on
arrays: arrays of values and errors): a double precision value paired with
an absolute error bound derived from the truncation analysis of the series or
quadrature used.  The bounds are truncation bounds plus small roundoff
allowances, not directed-rounding enclosures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_CONFIG, EvalConfig
from .errors import DomainError, PoleError, PrecisionError

__all__ = [
    "Approximation",
    "theta",
    "theta_with_derivatives",
    "riemann_zeta",
    "bessel_k",
]

_EPS = 2.2204460492503131e-16
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


def _theta_rows(t: float, rows: int) -> list[Approximation]:
    """theta(t) and its first rows - 1 derivatives, t > 0, from the sums
    S_p = sum_{k>=1} k^p exp(-pi x k^2), p = 0, 2, 4, at x = max(t, 1/t) >= 1.

    Each S_p is summed over k = 1..4, smallest term first.  Past k = 4 each
    term is below (6/5)^4 e^{-11 pi} < 1e-14 of the one before, so the
    omitted terms add at most 2 5^p e^{-25 pi x}.  y = pi x k^2 rounds to
    within 2 eps y, which moves e^{-y} by 2 y eps of itself; exp, the
    product with k^p and the additions add 4 eps more of each term, and an
    exponential that underflows or is subnormal the least subnormal.

    At t >= 1 the rows are 1 + 2 S_0, -2 pi S_2 and 2 pi^2 S_4.  Below 1
    they differentiate the reflection theta(t) = T^{1/2} theta(T), T = 1/t:

        theta'(t)  = -T^{3/2} (1/2 + S_0 - 2 pi T S_2)
        theta''(t) =  T^{5/2} (3/4 + 3/2 S_0 - 6 pi T S_2 + 2 pi^2 T^2 S_4),

    and add 8 eps of the magnitudes of their parts to the propagated series
    errs (2 eps at t >= 1): some 3 eps of operations, and 1.6 eps for the
    rounding of T, as t |theta^(j+1)(t)| <= 3.2 |theta^(j)(t)| on (0, 1].
    A row past double range, theta'' below t of about 1e-123, raises
    PrecisionError.
    """
    if not t > 0:
        raise DomainError(f"theta requires t > 0, got {t}")
    T, tiny = 1.0 / t, math.ulp(0.0)
    x = max(t, T)
    sums = [1.0, 0.0, 0.0, 0.0]  # 1, S_0, S_2, S_4
    errs = [0.0] + [2.0 * 5.0**p * (math.exp(-25.0 * math.pi * x) + tiny) for p in (0, 2, 4)]
    for k in (4, 3, 2, 1):
        y = math.pi * x * (k * k)
        term = math.exp(-y)
        # y is inf at x = inf, where term is 0
        slack = (2.0 * y + 4.0) * _EPS * term + tiny if term else tiny
        for i, weight in enumerate((1, k * k, k**4), 1):
            sums[i] += weight * term
            errs[i] += weight * slack
    pi = math.pi
    if t >= 1.0:
        rounding = 2.0 * _EPS
        table = [(1.0, (1.0, 2.0)), (1.0, (0.0, 0.0, -2.0 * pi)), (1.0, (0.0, 0.0, 0.0, 2.0 * pi * pi))]
    else:
        rounding, scale = 8.0 * _EPS, 1.0 / math.sqrt(t)
        table = [
            (scale, (1.0, 2.0)),
            (-scale * T, (0.5, 1.0, -2.0 * pi * T)),
            (scale * T * T, (0.75, 1.5, -6.0 * pi * T, 2.0 * pi * pi * T * T)),
        ]
    out = []
    for factor, coefs in table[:rows]:
        parts = [c * v for c, v in zip(coefs, sums)]
        err = abs(factor) * (
            math.fsum(abs(c) * e for c, e in zip(coefs, errs)) + rounding * math.fsum(map(abs, parts))
        )
        if not err < math.inf:
            raise PrecisionError(f"derivative {len(out)} of theta at t = {t} leaves double range")
        out.append(Approximation(factor * math.fsum(parts), err))
    return out


def theta(t: float) -> Approximation:
    """theta(t) = 1 + 2 sum_{k>=1} exp(-pi t k^2), t > 0.

    For t < 1 the value is obtained through the reflection identity
    theta(t) = t^{-1/2} theta(1/t), so the series is always summed with
    argument >= 1, where its first four terms suffice.
    """
    return _theta_rows(t, 1)[0]


def theta_with_derivatives(t: float) -> tuple[Approximation, Approximation, Approximation]:
    """(theta(t), theta'(t), theta''(t)), t > 0, by termwise differentiation
    of the series at t >= 1 and of the reflection below (`_theta_rows`)."""
    th, thp, thpp = _theta_rows(t, 3)
    return th, thp, thpp


# ---------------------------------------------------------------------------
# Riemann zeta
# ---------------------------------------------------------------------------

def _zeta_direct(s: float, tol: float) -> tuple[float, float]:
    """Euler-Maclaurin tail-corrected direct series, s >= 0, s != 1.

    For real s >= 0 every derivative of x^{-s} keeps one sign, so the
    remainder is at most the first omitted correction term.  Below s = 2 the
    head and the pole term N^{1-s}/(s-1) cancel, so the roundoff allowance
    is taken on both rather than on their sum.  From s = 1075 on, where that
    term's s^5 may overflow, zeta(s) - 1 <= 2^-s (1 + 2/(s - 1)) is below the
    least subnormal.
    """
    if s >= 1075.0:
        return 1.0, math.ulp(0.0)
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
    s < 0  : classical functional equation, recursing on zeta(1 - s), with
             its factor in logs where Gamma(1 - s) overflows;
             trivial zeros at negative even integers are returned as exact
             zeros; s above -_TAYLOR_AT_ZERO takes the first-order Taylor
             term at 0.
    """
    if not math.isfinite(s):
        raise DomainError(f"s must be finite, got {s}")
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
    try:
        factor = 2.0**s * math.pi ** (s - 1.0) * sine * math.gamma(sig)
        # fl(pi) is within eps/4 of pi, relative, which the power amplifies
        # |s - 1| times: some 30 eps at s = -170
        rounding = (8.0 + 0.25 * abs(s - 1.0)) * _EPS
    except OverflowError:
        # Gamma(1 - s) past double range: the factor in logs, as
        # epstein._z_from_xi takes it, with the rounding of its exponent
        log_factor = s * math.log(2.0) + (s - 1.0) * math.log(math.pi)
        log_factor += math.log(abs(sine)) + math.lgamma(sig)
        try:
            factor = math.copysign(math.exp(log_factor), sine)
        except OverflowError as exc:
            raise PrecisionError(f"zeta({s}) leaves double range") from exc
        rounding = 8.0 * _EPS * (abs(log_factor) + 4.0)
    value = factor * rec.value
    err = abs(factor) * (rec.err + abs(dsig) * slope) + rounding * abs(value)
    return Approximation(value, err)


# ---------------------------------------------------------------------------
# Partial-sum bounds on the upper incomplete gamma
# ---------------------------------------------------------------------------


def ibp_partial_sum(beta: float, x: float, m: int) -> float:
    """sum_{j=0..m} prod_{i=1..j}(beta - i) / x^j, from integration by parts.

    Gamma(beta, x) is x^{beta-1} e^{-x} times this sum plus the remainder
    prod_{i=1..m+1}(beta - i) Gamma(beta - m - 1, x), which has the sign of
    its last factor.  So for every beta >= 0 and x > 0, x^{beta-1} e^{-x}
    times the sum bounds Gamma(beta, x) from above at m = floor(beta) and
    from below at m = floor(beta) + 1, exactly at integer beta.  The sign
    certificates of `analysis` take the upper bound at beta in [0, 4.5] and
    x in {pi, 2 pi}.
    """
    total = 1.0
    prod = 1.0
    for j in range(1, m + 1):
        prod *= beta - j
        total += prod / x**j
    return total


# ---------------------------------------------------------------------------
# Modified Bessel K
# ---------------------------------------------------------------------------

# half-width d of the strip |Im u| < d that bounds the trapezoidal error, at
# most this; any 0 < d < pi/2 is valid, and 1.2 takes the fewest nodes near z = 50
_K_STRIP = 1.2
# truncation and discretisation each aim at e^-_K_AIM (about eps) of K
_K_AIM = 36.0
# nodes per block of one call, which bounds the temporaries of a long call
_K_BLOCK = 1 << 13


def _k_majorant(runs, x: np.ndarray) -> np.ndarray:
    """M_nu(x) = c e^{-x} (sqrt(pi/(2x)) + Gamma(m)/2 (2/x)^m) >= K_nu(x) for
    nu >= 0, x > 0, with m = max(nu, 1/2) and c = max(1, 2^{m - 3/2}).

    K_nu increases with nu >= 0, so K_nu <= K_m.  For m >= 1/2,

        K_m(x) = sqrt(pi/(2x)) e^{-x} / Gamma(m + 1/2)
                 int_0^inf e^{-t} t^{m-1/2} (1 + t/(2x))^{m-1/2} dt,

    and (1 + y)^p <= max(1, 2^{p-1}) (1 + y^p) for p >= 0 leaves the two
    integrals Gamma(m + 1/2) and Gamma(2m) (2x)^{1/2-m}, which the
    duplication formula turns into the Gamma(m)/2 (2/x)^m term.  Each
    integral alone is a lower bound on the whole, so M/(2c) <= K_m <= M.

    ``runs`` is the list of `_KOrder` of `_k_trapezoid`, whose slices cover x.
    """
    power = 2.0 / x
    for run in runs:
        # a float exponent, as numpy takes x ** 0.5 by sqrt and x ** 2 by square
        power[run.lo:run.hi] = power[run.lo:run.hi] ** run.m
    c, half_gamma = _k_spread(runs, "c"), _k_spread(runs, "half_gamma")
    return c * np.exp(-x) * (np.sqrt(math.pi / (2.0 * x)) + half_gamma * power)


def _k_log_majorant(nu: float, x: float) -> float:
    """log M_nu(x) of `_k_majorant` for nu >= 0 and a float x > 0, taken in
    logs, so that it is finite wherever x is."""
    m = max(nu, 0.5)
    near = 0.5 * math.log(math.pi / (2.0 * x))
    far = math.lgamma(m) - math.log(2.0) + m * math.log(2.0 / x)
    top = max(near, far)
    log_c = max(0.0, (m - 1.5) * math.log(2.0))
    return log_c - x + top + math.log1p(math.exp(min(near, far) - top))


class _KOrder(NamedTuple):
    """The constants of one order nu >= 0 of a `bessel_k` call, for its z in
    the slice lo:hi."""

    nu: float
    lo: int
    hi: int
    m: float
    c: float
    lead: float
    half_gamma: float


def _k_order(nu: float, lo: int, hi: int, z: np.ndarray) -> _KOrder:
    """The constants of order nu >= 0 at z[lo:hi], once both range checks
    have passed at the least of those z."""
    m = max(nu, 0.5)
    try:
        c = max(1.0, 2.0 ** (m - 1.5))
    except OverflowError as exc:
        # 2^(m - 3/2) from nu of about 1025
        raise PrecisionError(f"the majorant constant of K_{nu} leaves double range") from exc
    # h puts the strip bound near e^-_K_AIM of K: K >= M/(2c) for nu >= 1/2
    # (each Gamma integral alone is a lower bound), and M(z cos d) / M(z) is
    # at most e^{z (1 - cos d)} cos(d)^-m.  d shrinks like z^-1/2 past z of
    # about 50, which holds the nodes near 12 however large z is
    lead = _K_AIM + math.log(4.0 * c)
    # from z = (2 lead + 710 nu)/1e308 up, 2 lead/z and the last node u* below
    # stay in double range, and cosh and sinh at u* + 2h < 709.9
    z0 = float(z[lo:hi].min())
    if z0 < (2.0 * lead + 710.0 * nu) / 1e308:
        raise PrecisionError(f"the nodes of K_{nu} at z = {z0} leave double range")
    # u* falls in z and h <= 2 pi _K_STRIP / lead, so no node passes u* at z0
    # plus that step.  While nu u < 708 there, cosh(nu u), the sums and the
    # rounding terms (up to e^8 K) stay in double range; near 709.5 the last
    # nodes' cosh(nu u) overflows, or, at orders near 1, the rounding terms
    # of K_nu(z0), about (2/z0)^nu, do
    top = math.acosh(1.0 + (_K_AIM + nu * math.acosh(1.0 + _K_AIM / z0)) / z0)
    top += 2.0 * math.pi * _K_STRIP / lead
    if nu * top > 708.0:
        # caused by the overflow it pre-empts, as the majorant's are, so that
        # chowla_selberg_terms names the term it left double range in
        raise PrecisionError(f"K_{nu}(z) at z = {z0} leaves double range") from OverflowError(
            f"cosh({nu} u) at u = {top}"
        )
    try:
        half_gamma = 0.5 * math.gamma(m)
    except OverflowError as exc:
        # Gamma(m) from 171.6 on
        raise PrecisionError(f"the majorant constant of K_{nu} leaves double range") from exc
    return _KOrder(nu, lo, hi, m, c, lead, half_gamma)


def _k_spread(runs, name: str):
    """The constant ``name`` of each run, as a float for one run and else as
    an array over the run slices."""
    if len(runs) == 1:
        return getattr(runs[0], name)
    return np.repeat([getattr(r, name) for r in runs], [r.hi - r.lo for r in runs])


def _k_trapezoid(nu, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The trapezoidal rule of `bessel_k` at every z of a 1-d array: nu >= 0
    is a float, or an array like z whose equal orders stand in runs.

    Each run gets its constants and range checks once, from `_k_order`; every
    other step is elementwise, so each z gets the bits of a call on it alone.
    """
    if np.ndim(nu) == 0:
        runs = [_k_order(float(nu), 0, z.size, z)]
    else:
        cuts = [0, *(np.flatnonzero(nu[1:] != nu[:-1]) + 1).tolist(), z.size]
        runs = [_k_order(float(nu[lo]), lo, hi, z) for lo, hi in zip(cuts, cuts[1:])]
    nu, m, lead = _k_spread(runs, "nu"), _k_spread(runs, "m"), _k_spread(runs, "lead")
    d = np.minimum(_K_STRIP, np.sqrt(2.0 * lead / z))
    cos_d = np.cos(d)
    h = (2.0 * math.pi) * d / (lead - m * np.log(cos_d) + (1.0 - cos_d) * z)
    # the last node u* has z (cosh u* - 1) - nu u* near _K_AIM, from one step
    # of its fixed point: err bounds the omitted nodes whatever u* is
    ustar = np.arccosh(1.0 + _K_AIM / z)
    ustar = np.arccosh(1.0 + (_K_AIM + nu * ustar) / z)
    last = np.ceil(ustar / h)  # nodes 0, h, ..., last h
    counts = last.astype(np.int64) + 1
    values = np.empty_like(z)
    moment = np.empty_like(z)  # sum_k f(kh) z cosh(kh), for the rounding
    ends = np.cumsum(counts)
    cuts = [0, *np.searchsorted(ends, np.arange(_K_BLOCK, ends[-1], _K_BLOCK)).tolist(), z.size]
    for lo, hi in zip(cuts, cuts[1:]):
        if lo == hi:
            continue
        size = counts[lo:hi]
        starts = ends[lo:hi] - size - (ends[lo] - size[0])
        k = np.arange(int(size.sum()), dtype=float)
        k -= starts.repeat(size)
        u = k * h[lo:hi].repeat(size)
        x = np.cosh(u)
        x *= z[lo:hi].repeat(size)
        f = np.exp(-x)
        u *= nu if np.ndim(nu) == 0 else nu[lo:hi].repeat(size)
        f *= np.cosh(u)
        f[starts] *= 0.5
        values[lo:hi] = np.add.reduceat(f, starts)
        f *= x
        moment[lo:hi] = np.add.reduceat(f, starts)
    values *= h
    # strip bound 2 K_nu(z cos d) / (e^{2 pi d / h} - 1), with K_nu <= M_nu
    q = (2.0 * math.pi) * d / h
    strip = 2.0 * _k_majorant(runs, z * cos_d) * np.exp(-q) / -np.expm1(-q)
    # past the last node, log f <= g(u) = nu u - z cosh u, concave: the sum
    # from the first omitted node u1 on is at most e^{g(u1)} / (1 - e^{h g'(u1)})
    top = last * h
    u1 = top + h
    slope = z * np.sinh(u1) - nu
    tail = np.divide(
        h * np.exp(nu * u1 - z * np.cosh(u1)),
        -np.expm1(-h * slope),
        out=np.full_like(z, np.inf),
        where=slope > 0,
    )
    # the term at node u, x = z cosh u, is off by at most
    # eps (x (9/2 + u/2) + 17/2 + nu u) of itself through 4-ulp cosh and exp;
    # the sum of counts terms and the product with h add counts/2 eps of it
    rounding = _EPS * (h * moment * (4.5 + 0.5 * top) + values * (8.5 + nu * top + 0.5 * counts))
    return values, strip + tail + rounding


def bessel_k(nu, z):
    """Modified Bessel function of the second kind, K_nu(z), z > 0, real nu.

    ``nu`` and ``z`` are floats or arrays that broadcast together.  Two
    floats give an :class:`Approximation`; otherwise the result is the pair
    (values, errs) of arrays of the broadcast shape.  Each element has the
    bits of the call on its own order and argument alone: the constants and
    range checks of each distinct order are taken once, and every other step
    is elementwise.

    K_nu(z) = int_0^inf f(u) du with f(u) = e^{-z cosh u} cosh(nu u) is
    evaluated by one trapezoidal rule, T_h = h (f(0)/2 + sum_{k>=1} f(kh)),
    over all z of a call as one flat ragged array of nodes summed by
    np.add.reduceat.  f is entire and even, and in the strip |Im u| < d < pi/2
    |f(x + iy)| <= e^{-z cos d cosh x} cosh(nu x), so (Trefethen & Weideman,
    SIAM Review 56, 2014, Thm 5.1)

        |K_nu(z) - T_h| <= 2 K_nu(z cos d) / (e^{2 pi d / h} - 1),

    with K_nu(z cos d) bounded by the closed form M_nu of `_k_majorant`.
    The strip d <= 1.2, the step h and the last node u* are chosen per z so
    that this term and the omitted nodes past u* stay near e^-36 of K, with
    12 to 17 nodes from z = 10 up and 69 to 85 at z = 1e-4 for |nu| <= 4.2;
    err adds those two bounds and the rounding of the nodes' terms and their
    sum.  The condition number of e^{-z cosh u} in its argument sets the
    rounding part, about 5 z eps of K, so there is no tolerance to choose:
    every call gets this accuracy.

    Evenness in the order is structural: the rule sees the order only
    through |nu|, so K_{-nu} = K_nu by construction.
    """
    orders = np.abs(np.asarray(nu, dtype=float))
    if not np.all(np.isfinite(orders)):
        bad = orders.ravel()[~np.isfinite(orders.ravel())][0]
        raise DomainError(f"bessel_k requires a finite order, got {bad}")
    zs = np.asarray(z, dtype=float)
    if not np.all(zs > 0):
        raise DomainError(f"bessel_k requires z > 0, got {z}")
    if orders.ndim == 0:
        orders = float(orders)
    else:
        try:
            orders, zs = np.broadcast_arrays(orders, zs)
        except ValueError as exc:
            raise DomainError(f"orders of shape {orders.shape} do not broadcast with z of shape {zs.shape}") from exc
    flat = zs.ravel()
    if not flat.size:
        values, errs = flat, flat
    elif np.ndim(orders) == 0:
        values, errs = _k_trapezoid(orders, flat)
    else:
        # each distinct order in one run, keeping the order of the z within it
        flat_nu = orders.ravel()
        heads = flat_nu[np.flatnonzero(flat_nu[1:] != flat_nu[:-1]) + 1].tolist()
        if len(set(heads)) == len(heads) and flat_nu[0] not in heads:
            values, errs = _k_trapezoid(flat_nu, flat)
        else:
            perm = np.argsort(flat_nu, kind="stable")
            values, errs = np.empty_like(flat), np.empty_like(flat)
            values[perm], errs[perm] = _k_trapezoid(flat_nu[perm], flat[perm])
    if zs.ndim == 0:
        return Approximation(float(values[0]), float(errs[0]))
    return values.reshape(zs.shape), errs.reshape(zs.shape)
