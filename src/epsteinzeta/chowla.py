"""Independent Xi evaluation through the Chowla-Selberg expansion.

Splits pi^{-s} Gamma(s) Z_n(s; a) into a leading Riemann-zeta term, a tower
of n-1 lower-dimensional zeta terms, and an exponentially convergent double
sum of modified Bessel K factors.  Each tower level j cuts its Bessel sum
at its own Z_j, the least z whose omitted terms carry a proven bound within
tol / (16 V (n - 1)) (`_tail_cutoff`), so the tails of all levels add at
most tol/16 to the err of Xi.  At unit scales, s = 1.3 and tol 1e-9, Z_j
runs from 28 (n = 2) to 45 (level 6 of n = 7).  The Bessel arguments of
all levels go to `specfun.bessel_k` in one call, with one order per level:
a trapezoidal rule whose err stays within about 5 z eps of K, so the Bessel
err is the coefficient-weighted sum of those.  The route shares nothing with the
theta-integral rule of `epstein`, which makes agreement between the two a
real consistency check rather than a tautology.  The expansion takes the
scales in ascending order, so that, like `xi`, its value is the same bit for
bit in any order of the scales, and so is its cost: the smallest scale
leads, which keeps the Bessel sums short.

Generic s only: the expansion's Gamma and zeta factors hit poles at
half-integer lattice points of s, where the two poles cancel in a limiting
form this module does not implement.  Those inputs are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, EvalConfig
from .epstein import ScaleVector, XiValue, _check_not_pole
from .errors import DomainError, NotGenericError, PrecisionError
from .specfun import _k_log_majorant, _k_order, bessel_k, riemann_zeta

__all__ = ["CSTerms", "chowla_selberg_terms", "xi_chowla_selberg"]

_GUARD = 1e-4
# Bessel terms one tower level may enumerate; beyond this the expansion is
# no longer the cheap cross-check it is meant to be
_MAX_TERMS = 2_000_000
# the tail bound is evaluated in logs of magnitude up to about 1e3, so to
# within 1e-12; it is reported this much above, and kept this much in budget
_LOG_SLACK = 2.0**-30


@dataclass(frozen=True)
class CSTerms:
    """The three term groups of the expansion, before the V weight."""

    leading: float
    tower: tuple[float, ...]
    bessel_tail: float
    err: float


def _check_generic(n: int, s: float) -> None:
    for j in range(n):
        if abs(2.0 * s - j - 1.0) < 2.0 * _GUARD:
            raise NotGenericError(
                f"s={s}: zeta factor at 2s-{j} collides with the pole at 1; "
                "use epstein.xi for this point"
            )
        d = s - j / 2.0
        if d < 0.5 and abs(d - round(d)) < _GUARD and round(d) <= 0:
            raise NotGenericError(
                f"s={s}: Gamma factor at s-{j}/2 collides with a pole; "
                "use epstein.xi for this point"
            )


def _check_terms(count: float) -> None:
    if count > _MAX_TERMS:
        raise PrecisionError(f"Bessel sum would need {count:.0f} terms (cap {_MAX_TERMS})")


def _finite(x: float) -> float:
    """x, or OverflowError if it is not finite."""
    if not math.isfinite(x):
        raise OverflowError(x)
    return x


def _k_points(a: tuple[float, ...], cap: float) -> np.ndarray:
    """Squared a-weighted norms sum (k_i / a_i)^2 <= cap^2 of the nonzero k in Z^j."""
    cap_sq = cap * cap
    q = np.zeros(1)
    for ai in a:
        lim = int(cap * ai)
        _check_terms(q.size * (2.0 * lim + 1.0))
        q = (q[:, None] + (np.arange(-lim, lim + 1) / ai) ** 2).ravel()
        q = q[q <= cap_sq]
    return q[q > 0.0]


def _log_tail(a: tuple[float, ...], j: int, nu: float, cut: float) -> float:
    """log of the bound of `_tail_cutoff` on the Bessel terms of level j past
    z = cut, for the ascending scales a; -inf where the level has no terms."""
    b, mu = a[j], abs(nu)
    # no term of the level lies below z_min (p = 1, k a unit vector of a_j),
    # so the bound there serves every cut below it too
    x = max(cut, 2.0 * math.pi * b / a[j - 1])
    if math.isinf(x):
        return -math.inf
    g = max(mu - 0.5, 0.0)
    log_r = math.log(b) if nu >= 0.0 else -math.log(a[j - 1])
    # e_k(y) of y_i = x a_i / (pi b) <= x / pi, weighted by w_k
    e = [1.0] + [0.0] * j
    for ai in a[:j]:
        y = x * ai / (math.pi * b)
        for k in range(j, 0, -1):
            e[k] += y * e[k - 1]
    ell = math.log(max(x * a[j - 1] / (2.0 * math.pi * b), 1.0))
    weighted = e[1] * (1.0 + ell + (2.0 + ell) / (x - g - 0.5))
    for k in range(2, j + 1):
        weighted += e[k] * k / (k - 1.0) * (1.0 + k / (x - g - k + 1.0))
    log_coeff = math.log(4.0) - math.fsum(map(math.log, a[:j]))
    log_coeff += mu * (math.log(x) - math.log(2.0 * math.pi) - 2.0 * log_r)
    return log_coeff + _k_log_majorant(mu, x) + math.log(weighted)


def _tail_cutoff(a: tuple[float, ...], j: int, nu: float, log_budget: float) -> tuple[float, float]:
    """(Z, T): a cutoff Z for the Bessel double sum of tower level j, of order
    nu, and a proven bound T <= e^log_budget on the terms with z > Z.

    The terms are (4/P) (|k|_a / (p b))^nu K_nu(z) at z = 2 pi p b |k|_a, for
    k in Z^j \\ 0 and p >= 1, with b = a_{j+1}, P = a_1 .. a_j and the scales
    ascending.  Writing |k|_a / (p b) through z, the coefficient is at most
    (4/P) (z / (2 pi r^2))^|nu| with r = b for nu >= 0 and r = 1/a_j, the
    least |k|_a, for nu < 0; and K_nu <= M_|nu| (`specfun._k_majorant`).
    So each term is at most (4/P) phi(z), phi(x) = (x / (2 pi r^2))^|nu|
    M_|nu|(x), whose log-derivative is at most g/x - 1, g = max(|nu| - 1/2, 0).

    Count.  #{k != 0 : |k|_a <= R} <= prod (2 R a_i + 1) - 1
    = sum_k e_k(2 R a), and it is 0 below R = 1/a_j.  Summing over p <= X a_j
    at R = X/p, X = x / (2 pi b), the number N(x) of terms with z <= x is at
    most sum_k e_k(y) c_k, y_i = 2 X a_i, with c_1 = 1 + log+(X a_j) (the
    harmonic sum) and c_k = k/(k - 1) >= zeta(k); its derivative is at most
    (1/x) sum_k e_k(y) d_k, d_1 = 2 + log+(X a_j), d_k = k c_k.

    Stieltjes.  phi decreases past Z > g, so for any bound Nbar >= N that
    does not decrease, the terms with z >= Z sum to
    int_[Z, inf) phi dN = -phi(Z) N(Z-) + int_Z^inf N (-dphi)
    <= phi(Z) Nbar(Z) + int_Z^inf phi Nbar' dx.  The k-th integrand has
    log-derivative at most -kappa_k = -(1 - (g + delta_k)/Z), delta_1 = 1/2
    and delta_k = k - 1, so its integral is at most its value at Z over
    kappa_k.  Hence

        T(Z) = (4/P) phi(Z) sum_k e_k(y(Z)) (c_k + d_k / (Z kappa_k)).

    No term has z below z_min = 2 pi b / a_j, so T(max(Z, z_min)) bounds the
    terms past Z as well, and there y_j >= 2, so the logs stay finite.  Past
    z_min, log T has slope at most -(1 - (g + j + 1)/Z) in Z.  Two Newton
    steps from Z = 40 - log(budget) come close to the root; then each step
    up by the excess over that slope is sure to clear it.  The returned T is
    evaluated at the returned Z, Z >= g + j + 2 keeps every kappa_k positive,
    and the Bessel sum of the level is cut at Z.
    """
    floor = max(abs(nu) - 0.5, 0.0) + j + 2.0
    cut = max(floor, 40.0 - log_budget)
    for _ in range(2):
        # a Newton step, with the slope -(1 - (g + j)/Z) log T nearly has
        step = (_log_tail(a, j, nu, cut) - log_budget) / (1.0 - (floor - 2.0) / cut)
        cut = max(floor, cut + step)
    excess = _log_tail(a, j, nu, cut) - log_budget + _LOG_SLACK
    if excess > 0.0:
        # the bound is flat below z_min, and has that slope from there on
        cut = max(cut, 2.0 * math.pi * a[j] / a[j - 1])
    while excess > 0.0:
        # 2^-20 more, so that rounding cannot stall the step
        cut += excess / (1.0 - (floor - 1.0) / cut) + 2.0**-20
        excess = _log_tail(a, j, nu, cut) - log_budget + _LOG_SLACK
    return cut, math.exp(excess + log_budget)


def chowla_selberg_terms(
    n: int, s: float, scales, cfg: EvalConfig = DEFAULT_CONFIG
) -> CSTerms:
    """Assemble the expansion of pi^{-s} Gamma(s) Z_n(s; a) term group by group.

    The expansion runs over the scales in ascending order, whatever order
    they are given in: its total is symmetric in them, its cost is not, and
    the smallest scales first keep the Bessel sums short.
    """
    if not math.isfinite(s):
        raise DomainError(f"s must be finite, got {s}")
    sv = ScaleVector.ensure(scales)
    if len(sv) != n:
        raise DomainError(f"expected {n} scales, got {len(sv)}")
    _check_not_pole(n, s)
    _check_generic(n, s)
    a = sv.ascending
    err = 0.0
    term = "leading term"
    try:
        with np.errstate(over="raise"):
            z2s = riemann_zeta(2.0 * s, cfg)
            lead_coeff = 2.0 * a[0] ** (-2.0 * s) * math.pi ** (-s) * math.gamma(s)
            leading = _finite(lead_coeff * z2s.value)
            err += abs(lead_coeff) * z2s.err

            # each level omits at most tol / (16 V (n - 1)) of its Bessel sum,
            # so all of them together at most tol/16 of Xi
            log_budget = math.log(cfg.tol / (16.0 * max(n - 1, 1))) - 0.5 * math.fsum(map(math.log, a))
            tower = []
            orders, coeffs, args = [], [], []
            prod_a = 1.0
            for j in range(1, n):
                term = f"zeta term of level {j}"
                prod_a *= a[j - 1]
                zj = riemann_zeta(2.0 * s - j, cfg)
                coeff = (
                    2.0
                    * math.pi ** (-s + j / 2.0)
                    * math.gamma(s - j / 2.0)
                    / (a[j] ** (2.0 * s - j) * prod_a)
                )
                tower.append(_finite(coeff * zj.value))
                err += abs(coeff) * zj.err

                term = f"Bessel sum of level {j}"
                nu = s - j / 2.0
                cutoff, omitted = _tail_cutoff(a, j, nu, log_budget)
                err += omitted
                # every (k, p) with z = 2 pi p a_{j+1} |k|_a <= cutoff, and a few
                # ulps past it, so that rounding drops no term the bound counts;
                # p = 1 admits the widest k-shells
                cutoff *= 1.0 + 2.0**-40
                norms = np.sqrt(_k_points(a[:j], cutoff / (2.0 * math.pi * a[j])))
                reps = np.floor(cutoff / (2.0 * math.pi * a[j] * norms))
                _check_terms(float(reps.sum()))
                reps = reps.astype(np.int64)
                p = np.arange(1, int(reps.sum()) + 1) - np.repeat(np.cumsum(reps) - reps, reps)
                norms = np.repeat(norms, reps)
                pa = p * a[j]
                coeffs.append((4.0 / prod_a) * (norms / pa) ** nu)
                args.append(2.0 * math.pi * pa * norms)
                orders.append(nu)
                if norms.size:
                    # the range checks of bessel_k, here, so that an order it
                    # cannot take names its level
                    _k_order(abs(nu), 0, norms.size, args[-1])
            term = "sum of the Bessel terms"
            bessel_tail = 0.0
            if n > 1:
                coeffs = np.concatenate(coeffs)
                kv, kerr = bessel_k(np.repeat(orders, [c.size for c in args]), np.concatenate(args))
                bessel_tail = _finite(math.fsum((coeffs * kv).tolist()))
                err += float(coeffs @ kerr)
            err += 1e-15 * (abs(leading) + sum(abs(t) for t in tower))
            term = "error bound"
            _finite(err)
    except (OverflowError, ZeroDivisionError, FloatingPointError, PrecisionError) as exc:
        # zeta and Bessel K raise their overflows typed, from the OverflowError;
        # a coefficient over a denominator that underflowed to 0 overflows too;
        # the term cap of _check_terms is no overflow and keeps its message
        if isinstance(exc, PrecisionError) and not isinstance(exc.__cause__, OverflowError):
            raise
        raise PrecisionError(f"the {term} of the Chowla-Selberg expansion of Xi_{n}({s}) leaves double range") from exc
    return CSTerms(leading, tuple(tower), bessel_tail, err)


def xi_chowla_selberg(
    n: int, s: float, scales, cfg: EvalConfig = DEFAULT_CONFIG
) -> XiValue:
    """Xi_n(s; a) through the Chowla-Selberg route (generic s only)."""
    sv = ScaleVector.ensure(scales)
    terms = chowla_selberg_terms(n, s, sv, cfg)
    try:
        total = math.fsum((terms.leading, *terms.tower, terms.bessel_tail))
        return XiValue(_finite(sv.V * total), _finite(sv.V * terms.err), n, s)
    except OverflowError as exc:
        raise PrecisionError(f"Xi_{n}({s}) by the Chowla-Selberg expansion leaves double range") from exc
