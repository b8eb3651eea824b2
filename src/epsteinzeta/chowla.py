"""Independent Xi evaluation through the Chowla-Selberg expansion.

Splits pi^{-s} Gamma(s) Z_n(s; a) into a leading Riemann-zeta term, a tower
of n-1 lower-dimensional zeta terms, and an exponentially convergent double
sum of modified Bessel K factors.  Each tower level evaluates all of its
Bessel arguments in one `specfun.bessel_k` call, a trapezoidal rule whose
err stays within about 5 z eps of K, so the level's Bessel err is the
coefficient-weighted sum of those.  The route shares nothing with the
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
from .specfun import bessel_k, riemann_zeta

__all__ = ["CSTerms", "chowla_selberg_terms", "xi_chowla_selberg"]

_GUARD = 1e-4
# Bessel terms one tower level may enumerate; beyond this the expansion is
# no longer the cheap cross-check it is meant to be
_MAX_TERMS = 2_000_000


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

            cutoff = math.log(1.0 / cfg.tol) + 40.0
            tower = []
            bessel_terms: list[float] = []
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

                # every (k, p) with z = 2 pi p a_{j+1} |k|_a <= cutoff; p = 1 admits
                # the widest k-shells
                term = f"Bessel sum of level {j}"
                nu = s - j / 2.0
                norms = np.sqrt(_k_points(a[:j], cutoff / (2.0 * math.pi * a[j])))
                reps = np.floor(cutoff / (2.0 * math.pi * a[j] * norms))
                _check_terms(float(reps.sum()))
                reps = reps.astype(np.int64)
                p = np.arange(1, int(reps.sum()) + 1) - np.repeat(np.cumsum(reps) - reps, reps)
                norms = np.repeat(norms, reps)
                pa = p * a[j]
                coeffs = (4.0 / prod_a) * (norms / pa) ** nu
                kv, kerr = bessel_k(nu, 2.0 * math.pi * pa * norms)
                bessel_terms.extend((coeffs * kv).tolist())
                err += float(coeffs @ kerr)
            term = "sum of the Bessel terms"
            bessel_tail = _finite(math.fsum(bessel_terms))
            # everything past the cutoff decays like e^{-z}; the +40 margin makes the
            # omitted block negligible against tol
            err += cfg.tol * 1e-12 + 1e-15 * (abs(leading) + sum(abs(t) for t in tower))
            term = "error bound"
            _finite(err)
    except (OverflowError, FloatingPointError, PrecisionError) as exc:
        # zeta and Bessel K raise their overflows typed, from the OverflowError;
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
