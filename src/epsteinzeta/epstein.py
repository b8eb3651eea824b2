"""Evaluation of the Epstein zeta / Xi functions of diagonal quadratic forms.

The Xi-function of the positive scales (a_1 .. a_n) at real s is

    Xi_n(s; a) = -V/s - (1/V)/(n/2 - s) + V * S(s; a) + (1/V) * S(n/2 - s; 1/a)

with V = sqrt(prod a_i) and the theta integral of the paper's continuation

    S(beta; c) = integral_1^inf t^{beta-1} (prod_i theta(c_i^2 t) - 1) dt,

finite for every real beta, so Xi is finite away from its poles at 0 and n/2.
Equal scales form one group, one theta series each, summed in three terms
after theta(x) = x^{-1/2} theta(1/x).

`_theta_sums` evaluates many sums at once by the trapezoidal rule in u with
t = 1 + exp(u - e^{-u}), whose error the strip of analyticity of the
integrand bounds (Trefethen & Weideman, SIAM Review 56, 2014, Thm 5.1), as
`specfun.bessel_k` does for K_nu.  Each sum picks its strip, step and nodes
from its order, scales and tolerance alone, so its value and err do not
depend on the batch; the err adds the strip bound, the omitted nodes and the
rounding, all proven there.  Sums are kept in logs, with log V added before
the exponential, so Xi is returned whenever it and its err are in range.

Every node goes through `_kernel_parts`, one engine call for nodes of any
dimensions and tolerances, which evaluates each distinct (s, sorted scales,
tol) once: V is a product over the sorted scales, so repeated nodes share
bits, and the mirror nodes of a symmetric chart cost one evaluation.  A node
makes two sums, S(s; a) at tol/(8V) and S(n/2 - s; 1/a) at tol V/8.
`xi_many`, `xi`, `analysis.decide_signs` and `regions.scan` evaluate through
it; `gamma_kernel_sum_d2` takes the same rule with the weight (log t)^2.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from contextlib import nullcontext
from itertools import accumulate
from dataclasses import dataclass, field
from functools import lru_cache
from math import ceil, exp, expm1, floor, inf, log, log1p, sqrt

import numpy as np

from .config import DEFAULT_CONFIG, EvalConfig
from .errors import DomainError, PoleError, PrecisionError, SpecialPointError
from .specfun import _EPS, Approximation

__all__ = ["EvalConfig", "ScaleVector", "XiValue", "xi", "xi_many", "z", "hat_xi"]

_POLE_GUARD = 1e-6


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
# The theta-integral rule
# ---------------------------------------------------------------------------


def _strip_kappa(d: float) -> float:
    """kappa > 0 with Re t >= kappa (1 + |t - 1|) for t = 1 + exp(u - e^{-u})
    on the strip |Im u| <= d < pi/2.

    At u = -log w + iy, zeta = |t - 1| = e^{-w cos y}/w and t - 1 = zeta e^{i phi}
    with phi = y + w sin y, so Re t / (1 + zeta) = 1 - Z (1 - cos phi) with
    Z = zeta / (1 + zeta).  Both Z and 1 - cos min(phi, pi) grow with |y|, so
    |y| = d is the worst case; there Z falls and phi grows with w.  On each
    cell [w_k, w_{k+1}] of a geometric grid the loss is at most
    Z(w_k) (1 - cos min(phi(w_{k+1}), pi)), below the grid at most
    1 - cos phi(w_0) and above it at most 2 Z(w_K); kappa is one minus the
    largest, less a margin for their rounding.
    """
    cos_d, sin_d = math.cos(d), math.sin(d)
    w = np.geomspace(1e-6, 200.0, 4000)
    zeta = np.exp(-w * cos_d) / w
    share = zeta / (1.0 + zeta)
    bend = 1.0 - np.cos(np.minimum(d + w * sin_d, math.pi))
    loss = max(float((share[:-1] * bend[1:]).max()), 1.0 - math.cos(d + w[0] * sin_d), 2.0 * float(share[-1]))
    return (1.0 - loss) * (1.0 - 1e-12)


# the strips |Im u| < d a sum may take, with -log kappa(d), -log cos d and
# log(1 - kappa(d)); the strip bound grows like kappa^{-(1 + |beta - 1|)},
# and the smallest 1 + |beta - 1| at which each narrower strip takes the
# fewest nodes, h = 2 pi d / (36 + (1 + |beta - 1|) (-log kappa) - log cos d)
_STRIPS = tuple(
    (d, -math.log(k), -math.log(math.cos(d)), math.log1p(-k))
    for d, k in ((d, _strip_kappa(d)) for d in (1.2 * 0.8**r for r in range(10)))
)
_KAPPA0 = math.exp(-_STRIPS[0][1])
_RUNG = np.argmin([(36.0 + np.geomspace(1.0, 1e4, 4000) * k + c) / d for d, k, c, _ in _STRIPS], axis=0)
_RUNG_KEYS = [float(np.geomspace(1.0, 1e4, 4000)[np.argmax(_RUNG >= r)]) for r in range(1, _RUNG.max() + 1)]
_LOG_EPS, _LOG2, _PI, _TWO_PI = math.log(_EPS), math.log(2.0), math.pi, 2.0 * math.pi
# steps are multiples of _STEP_UNIT, so every node u = k h is exact; log h per step count
_STEP_UNIT = 2.0**-10
_LOG_STEPS = [-inf] + [math.log(k * _STEP_UNIT) for k in range(1, 1025)]
# past pi x_0 = 700, where e^{-pi x} leaves the normal range, log(Theta - 1)
# takes its asymptotic form
_X_FAR = 700.0 / math.pi
# up to x = _X_WIDE, pi x stays in double range
_X_WIDE = 1e307
# nodes per evaluation block, which bounds the temporaries of a long call
_BLOCK = 1 << 12
_KEYS: dict[tuple, tuple] = {}  # see `_key_data`


def _log_theta(x: np.ndarray, m: np.ndarray, far: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(L, log(Theta - 1)) with L = log Theta, Theta = prod_g theta(x_g)^{m_g}
    over the last axis of x, summed in its order.

    log theta(x) = log1p(2q (1 + q^3 (1 + q^5))) with q = e^{-pi max(x, 1/x)},
    less log(x)/2 below x = 1, as theta(x) = x^{-1/2} theta(1/x); the omitted
    2 sum_{k >= 4} q^{k^2} is below e^{-15 pi} of 2q.  Where no x is below 1
    the reflection is skipped: it would subtract zeros.  With `far`, a row
    whose first x, the smallest, is past _X_FAR takes log(Theta - 1) =
    -pi x_0 + log(2 sum_g m_g e^{-pi (x_g - x_0)}), exact in double precision
    there, as the terms of order q_0^2 are below e^{-700} of it.
    """
    if far:
        with np.errstate(divide="ignore"):
            big_l, ex = _log_theta(x, m)
        tail = np.add.accumulate(np.exp((x[..., :1] - x) * _PI) * m, axis=-1)[..., -1]
        return big_l, np.where(x[..., 0] > _X_FAR, np.log(2.0 * tail) - _PI * x[..., 0], ex)
    low = x.min() < 1.0
    q = np.exp((np.maximum(x, 1.0 / x) if low else x) * -math.pi)
    q3 = q * q * q
    lth = np.log1p((q3 * (q3 * q * q + 1.0) + 1.0) * q * 2.0)
    if low:
        lth -= 0.5 * np.minimum(np.log(x), 0.0)
    lth *= m
    big_l = np.add.accumulate(lth, axis=-1)[..., -1] if lth.shape[-1] > 1 else lth[..., 0]
    if big_l.max() <= 700.0:
        return big_l, np.log(np.expm1(big_l))
    # log(e^L - 1) = L in double precision past L = 700, where e^L overflows
    top = np.minimum(big_l, 700.0)
    return big_l, np.log(np.expm1(top)) + (big_l - top)


def _key_data(keys) -> list[tuple]:
    """The data of each group key (scales, counts), from _KEYS (emptied past
    2^14 keys) or computed and put there: c_0^2, lam = pi c_0^2, log bounds on
    Theta(1) - 1 (P1) and Theta(kappa_0) - 1 from above and Theta(2) - 1 from
    below, rounding coefficients, log(2 m_0 / lam), log lam, the squared
    scales and the counts.  The upper bounds take Theta(t) - 1 <= (Theta(s) -
    1) e^{-lam (t - s)}, s = min(t, 100/lam), each term falling at least at the
    rate of the smallest Q = c_0^2.  The scales are padded with c_0 and the
    counts with 0, as in `_evaluate`; at t = 2, x_0 = 2 c_0^2 may pass
    _X_FAR.  The rows are returned, so a clearing of _KEYS cannot lose them."""
    rows = [_KEYS.get(key) for key in keys]
    if None not in rows:
        return rows
    missing = list(dict.fromkeys(key for key, row in zip(keys, rows) if row is None))
    if len(_KEYS) + len(missing) > 1 << 14:
        _KEYS.clear()
    width = max(len(counts) for _, counts in missing)
    c2 = np.array([sc + sc[:1] * (width - len(sc)) for sc, _ in missing], dtype=float) ** 2
    m = np.array([ct + (0,) * (width - len(ct)) for _, ct in missing], dtype=float)
    at = np.minimum(100.0 / math.pi / c2[:, :1] * [1.0, math.inf, 1.0], [1.0, 2.0, _KAPPA0])
    lg, ex = _log_theta(c2[:, None, :] * at[:, :, None], m[:, None, :], bool(c2[:, 0].max() > 0.5 * _X_FAR))
    c0, lg, lam, n, m0 = c2[:, 0], lg[:, 0], math.pi * c2[:, 0], m.sum(axis=1), m[:, 0]
    log_p1 = ex[:, 0] - lam * (1.0 - at[:, 0]) + 1e-12
    small = (m * (c2 < 1.0)).sum(axis=1)
    # the sensitivity of log(Theta - 1) to x: per unit of x_0, and fixed
    amp = 3.4 * (1.0 + lg)
    spread = 0.12 * (n / m0 - 1.0) * amp + np.where(small > 0.0, 3.6 * n + 6.6 * small, 0.0)
    base = ((m > 0.0).sum(axis=1) + 8.0) * (1.0 + lg) + 13.0 * small + 2.5 * np.abs(log_p1) + 25.0
    columns = (
        c0, lam, log_p1, ex[:, 2] - lam * (_KAPPA0 - at[:, 2]) + 1e-12, ex[:, 1] - 1e-9, amp, spread, base,
        np.log(2.0 * m0 / lam), np.log(lam),
    )
    found = {}
    for key, row, squares in zip(missing, zip(*(column.tolist() for column in columns)), c2.tolist()):
        found[key] = _KEYS[key] = (*row, tuple(squares[: len(key[1])]), key[1])
    return [found[key] if row is None else row for key, row in zip(keys, rows)]


def _plan(beta: float, tol: float, row: tuple, squared_log: bool) -> tuple:
    """The rule for one sum with the key data `row`, weighted by (log t)^2 if
    squared_log: (h, k_lo, k_hi, beta - 1, log I+, log tails, eps P, R, log J,
    log strip factor, -log kappa, far, wide) with nodes u = k h for k_lo <= k
    <= k_hi, one at least, the bounds of `_theta_sums`, whether c_0^2 t is
    past _X_FAR at the node after the last and whether pi c_g^2 t of the
    largest group may pass double range there; the step and the ends only aim
    at tol, and I+ bounds the unweighted sum."""
    c0, lam, log_p1, log_tk, log_t2, amp, spread, base, log_pair, log_lam, _, _ = row
    bm1 = beta - 1.0
    b, low = (bm1, 0.0) if bm1 > 0.0 else (0.0, bm1)
    # I <= P1 int_1^inf t^b e^{-lam (t - 1)} dt, log t under its tangent at tp
    tp = (b + sqrt(b)) / lam if b > 0.0 else 0.0
    if tp > 1.0:
        log_tp = log(tp)
        log_i = log_p1 + b * (log_tp - 1.0 + 1.0 / tp) - log(lam - b / tp)
    else:
        tp, log_tp = 1.0, 0.0
        log_i = log_p1 - (log(lam - b) if b > 0.0 else log_lam)
    d, loss, sec, log_1mk = _STRIPS[bisect_right(_RUNG_KEYS, 1.0 + abs(bm1))]
    log_a = (b + 1.0) * loss + sec
    log_j = log_1mk - low * loss + log_tk
    # the strip term within tol/2, or eps I where that is larger, with I above
    # its part on [1, 2] and that of the points +-e_0 on [tp, tp + 1/lam]
    log_tol = log(tol)
    aim = log_tol - (log_i if log_i > log_j else log_j)
    if aim < _LOG_EPS + 2.0:
        log_lo = max(log_t2 + low * _LOG2, log_pair + bm1 * log_tp - lam * tp - 1.0 + low * log1p(1.0 / (lam * tp)))
        log_tol = max(log_tol, _LOG_EPS + log_lo)
        aim = max(aim, _LOG_EPS + log_lo - max(log_lo, log_j))
    cost = log_a - (aim if aim < 0.0 else 0.0) + 3.0 * _LOG2  # e_h A <= 1/8 at any tol
    steps = int(_TWO_PI / _STEP_UNIT * d / (cost if cost > _LOG2 else _LOG2))
    steps = 1 if steps < 1 else 1024 if steps > 1024 else steps
    h, log_h = steps * _STEP_UNIT, _LOG_STEPS[steps]
    # the tails within tol/32 each: on the left t - 1 <= 1 and log(t - 1) +
    # log1p(w) = -w + log(1 + 1/w) at u = -log w; on the right t - 1 = z with
    # lam z - b log1p z - log z = gap + log 2 and u - e^{-u} = log z, by Newton
    # steps from below, where they stay; past lam z = 2 the right bound falls
    gap = log_p1 + log_h - log_tol + 3.5
    w = gap + b * _LOG2
    u_lo = -log(w) if w > 1.0 else 0.0
    g = gap + _LOG2 if gap > 1.0 else 1.0 + _LOG2
    z = (g + 2.0 * b + log(g / lam + 1.0)) / lam
    z = (g + b * log1p(z) + log(z)) / lam
    z = z if z * lam > 2.0 else 2.0 / lam
    y = log(z)
    if z >= 1.0:
        u = y + 1.0 / (z + 1.0)
    else:
        u = -log(1.0 - y)
        for _ in range(2):
            e = exp(-u)
            u += (y - u + e) / (1.0 + e)
    top = 709.75 - 2.0 * h  # t - 1 = e^{u - e^-u} is a double at the node after the last
    u = u if u < top else top
    k_lo = ceil((u_lo if u_lo < u else u) / h)
    k_hi = floor(u / h) + 1  # a node past the end
    k_hi = k_hi if k_hi > k_lo else k_lo
    # right of u = (k_hi + 1) h, Theta - 1 <= P1 e^{-lam (t - 1)}, log t (and
    # log log t) lie under their tangents in t, and psi = log(t - 1) +
    # log1p(w), concave and rising with psi' = 1 + w^2/(1 + w), is at most u
    u = (k_hi + 1) * h
    w = exp(-u)
    e = exp(u - w)
    far = c0 * (e + 1.0) > _X_FAR
    wide = row[-2][-1] * (e + 1.0) > _X_WIDE
    lt = log1p(e)
    g, bb = log_p1 + b * lt + u - lam * e, b
    if squared_log:
        g, bb = g + 2.0 * log(lt), bb + 2.0 / lt
    slope = 1.0 + w * w / (1.0 + w) - (lam - bb / (1.0 + e)) * e * (1.0 + w)
    tails = log_h + g - log(-expm1(h * slope)) if slope < 0.0 else inf
    # left of u = (k_lo - 1) h, t^{beta - 1} <= t^b, log t <= t - 1 = e,
    # Theta - 1 <= P1 and psi <= -w + 1/w
    u = (k_lo - 1) * h
    w = exp(-u)
    e = exp(u - w)
    g = log_p1 + b * e - w + 1.0 / w + (2.0 * (u - w) if squared_log else 0.0)
    g = log_h + g - log(-expm1(-h * (1.0 + w * w / (1.0 + w))))
    tails = (tails if tails > g else g) + _LOG2 + 1e-9
    # w is now at the node before the first, above the first's
    u = k_hi * h
    grow = (u if u > 0.0 else 0.0) / 2.0 + 6.0
    fixed = (
        abs(bm1) * (grow + 3.0 * (u + 1.0 if u > 0.0 else 1.0)) + spread * grow + base + 0.45 * (k_hi - k_lo + 1)
        + 2.5 * (3.0 * w + abs(k_lo * h) + u) + (2.0 * grow if squared_log else 0.0)
    )
    # ea = log 2 A / (e^{2 pi d/h} - 1) and the factor ea - log(1 - e^ea), with
    # 2 e^ea for (log t)^2; log(1 - e^-y) and log(1 - e^ea) lie within 2e-13
    # of 0 past y = 30 and below ea = -30
    y = _TWO_PI * d / h
    ea = log_a + _LOG2 - (y - 2e-13 if y > 30.0 else log(expm1(y)))
    if squared_log:
        ea += _LOG2
    factor = (ea + 2e-13 if ea < -30.0 else ea - log(-expm1(ea))) if ea < 0.0 else inf
    factor -= _LOG2 if squared_log else 0.0
    return h, k_lo, k_hi, bm1, log_i, tails, (1.25 * fixed + 4.0) * _EPS, 1.25 * _EPS * (amp * grow + 2.5 * _PI), log_j, factor, loss, far, wide


def _theta_sums(orders, scales, counts, tols, squared_log: bool = False) -> tuple[list[float], list[float]]:
    """(log values, log errs) of S(beta; c) = int_1^inf t^{beta-1} (Theta(t) - 1) dt,
    Theta(t) = prod_g theta(c_g^2 t)^{m_g}, for the sums (orders[j], scales[j],
    counts[j], tols[j]): ascending group scales, their counts and a
    tolerance; with squared_log, of d^2 S / d beta^2, weighted by (log t)^2.

    With t = 1 + exp(u - e^{-u}), S = int f du over the real line, f =
    t^{beta-1} (Theta(t) - 1) t'(u), t'(u) = (t - 1)(1 + e^{-u}), and T_h =
    h sum_k f(k h).  On the line Im u = y, |y| <= d <= 1.2, zeta = |t - 1| =
    e^{x - e^{-x} cos y} rises from 0 to infinity in x, Re t >= kappa (1 + zeta)
    (`_strip_kappa`), |t| <= 1 + zeta, |t'| dx <= dzeta / cos d, |t^{beta-1}|
    = |t|^{beta-1}, and term by term |Theta(t) - 1| <= Theta(Re t) - 1, which
    falls in Re t; with rho = kappa (1 + zeta) the line integral of |f| is at
    most M = A (I + J), A = kappa^{-max(beta, 1)} / cos d, I = S and
    J = int_kappa^1 rho^{beta-1} (Theta(rho) - 1) drho <= (1 - kappa)
    max(1, kappa^{beta-1}) (Theta(kappa_0) - 1).  So (Trefethen & Weideman,
    SIAM Review 56, 2014, Thm 5.1) |S - T_h| <= e_h M, e_h = 2/(e^{2 pi d/h} - 1),
    and with I <= T + err this is at most e_h A (T + J + rest)/(1 - e_h A).
    With (log t)^2, |log t|^2 <= (log(1 + zeta) - log kappa)^2 + pi^2/4 makes
    M = A (2 I2 + (8 l^2 + pi^2/4) I + (4 l^2 + pi^2/4) J), l = -log kappa,
    with I below the I+ of `_plan`.

    Every sum has its nodes, one at least.  A block whose plans let a node
    reach pi c_0^2 t = 700 takes the asymptotic form of log(Theta - 1) of
    `_log_theta` at the nodes past it.  The omitted nodes are bounded in
    `_plan`.  Every term is positive, so rounding is relative, eps (P + R
    c_0^2 t) per node: u = k h is exact; t is off by at most max(u, 0)/2 + 3
    units; log(Theta - 1) moves by at most 3.4 (1 + L) (x_0 + 0.12 (n/m_0 -
    1)) per unit of relative error in x, plus 3.6 n + 6.6 n_small if a scale
    is below 1, and its sums and logs add (G + 8)(1 + L) + 13 n_small; (beta -
    1) log t, log t'(u), the shift by the largest log term and the pairwise
    sums add the rest of P.
    """
    rows = _key_data(list(zip(scales, counts)))
    plans = [_plan(beta, tol, row, squared_log) for beta, tol, row in zip(orders, tols, rows)]
    sizes = [plan[2] - plan[1] + 1 for plan in plans]
    values, errs, first, size = [], [], 0, 0
    for j, nodes in enumerate(sizes, 1):
        size += nodes
        if size >= _BLOCK or j == len(plans):
            found = _evaluate(plans[first:j], rows[first:j], sizes[first:j], squared_log)
            values += found[0]
            errs += found[1]
            first, size = j, 0
    return values, errs


def _evaluate(plans, rows, sizes, squared_log: bool) -> tuple[list[float], list[float]]:
    """(log values, log errs) of the sums with these plans, key data and node
    counts, with the weight (log t)^2 if squared_log, as the plans are."""
    starts = list(accumulate(sizes, initial=0))
    width = max(len(row[-1]) for row in rows)
    # per sum: k less the index of its first node, h, beta - 1, 1.25 eps R,
    # its bounds, and its squared group scales padded with c_0^2 and their
    # counts padded with 0
    table = np.array([
        (p[1] - start, p[0], p[3], p[7], p[5], p[6], p[8], p[9], p[10], p[4]) + row[-2]
        + (row[0],) * (width - len(row[-1])) + row[-1] + (0,) * (width - len(row[-1]))
        for p, row, start in zip(plans, rows, starts)
    ])
    _, h, _, _, tails, fixed, log_j, factor, loss, log_i = table[:, :10].T
    node = table.repeat(sizes, axis=0)
    starts = starts[:-1]
    u = np.arange(len(node), dtype=float)
    u += node[:, 0]
    u *= node[:, 1]
    w = np.exp(-u)
    v = u - w
    e = np.exp(v)
    lt = np.log1p(e)
    m = node[:, 10 + width :]
    # x = c_g^2 t, and pi x, overflow only in a group far above c_0, where
    # x = inf is exact: theta(inf) = 1, and the far form's e^{-pi (x_g - x_0)}
    # is 0; only a block with a wide plan pays for the errstate
    with np.errstate(over="ignore") if any(p[12] for p in plans) else nullcontext():
        x = node[:, 10 : 10 + width] * (e + 1.0)[:, None]
        _, lf = _log_theta(x, m, any(p[11] for p in plans))
    lf += node[:, 2] * lt
    lf += v
    lf += np.log1p(w)
    if squared_log:
        lf += 2.0 * np.log(lt)
    log_t, rnd = _node_sums(lf, starts, sizes, node[:, 3] * x[:, 0], h, fixed)
    base = np.logaddexp(tails, rnd)
    if squared_log:
        strip = np.logaddexp(
            np.logaddexp(_LOG2 + np.logaddexp(log_t, base), np.log(4.0 * loss**2 + _PI**2 / 4.0) + log_j),
            np.log(8.0 * loss**2 + _PI**2 / 4.0) + log_i,
        )
    else:
        strip = np.logaddexp(np.logaddexp(log_t, log_j), base)
    return log_t.tolist(), np.logaddexp(factor + strip, base).tolist()


def _node_sums(lf, starts, sizes, weight, h, fixed):
    """(log T, log rounding) per sum from the nodes' log terms lf, which it
    spends, and their rounding weights: T = h sum e^lf, and the rounding
    h sum e^lf weight + T (fixed + eps |log T|)."""
    top = np.maximum.reduceat(lf, starts)
    lf -= top.repeat(sizes)
    f = np.exp(lf, out=lf)
    total = np.add.reduceat(f, starts)
    f *= weight
    rounding = np.add.reduceat(f, starts)
    log_t = np.log(h * total)
    log_t += top
    rounding += (np.abs(log_t) * _EPS + fixed) * total
    return log_t, top + np.log(h * rounding)


# ---------------------------------------------------------------------------
# The public operations
# ---------------------------------------------------------------------------


def gamma_kernel_sum_d2(beta: float, scales, cfg: EvalConfig = DEFAULT_CONFIG) -> Approximation:
    """d^2 S(beta; a) / d beta^2 = integral_1^inf t^{beta-1} (log t)^2 (Theta(t) - 1) dt,
    by the rule of `_theta_sums` at tol/4 with one plan, whose strip bound
    takes a bound on |log t|^2 in the strip and the plan's bound I+ on S."""
    (group_scales, counts), _, _ = _scale_data(ScaleVector.ensure(scales).ascending)
    [value], [err] = _theta_sums([float(beta)], [group_scales], [counts], [cfg.tol / 4.0], squared_log=True)
    value, err = _scaled(value, err, 0.0)
    if not err < math.inf:
        raise PrecisionError(f"the second derivative of S at order {beta} overflows double precision")
    return Approximation(value, err)


def _check_not_pole(n: int, s: float) -> None:
    if min(abs(s), abs(s - n / 2.0)) < _POLE_GUARD:
        raise PoleError(f"s={s} is inside the guard band around a pole of Xi_{n}")


def _reflected_err(n: int, s: float, value: float, err: float, x_min: float) -> float:
    """The err of S(n/2 - s; 1/a) = value +- err plus the rounding of its order.

    The order beta = fl(n/2 - s) is off by dbeta, recovered exactly by TwoSum.
    dS/dbeta sums dg/dbeta = integral_1^inf t^{beta-1} log t e^{-xt} dt > 0 over
    the lattice values x = pi Q(k); by Jensen,
    dg/dbeta <= g log(g(beta+1, x) / g(beta, x)) <= g log(1 + max(beta, 1)/x),
    so |dS/dbeta| <= (value + err) log(1 + max(beta, 1)/x_min) with x_min =
    pi min(1/a)^2 the smallest lattice value.  At strong anisotropy the factor
    log(1/x_min) amplifies the half-ulp of dbeta well past the roundoff allowance.
    """
    half = n / 2.0
    beta = half - s
    dbeta = (half - (beta - (beta - half))) + (-s - (beta - half))
    return err + abs(dbeta) * ((abs(value) + err) * math.log1p(max(beta, 1.0) / x_min))


def _groups(asc: tuple[float, ...]) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """The distinct scales of an ascending scale tuple and their counts."""
    scales = tuple(dict.fromkeys(asc))
    return scales, (1,) * len(asc) if len(scales) == len(asc) else tuple(map(asc.count, scales))


@lru_cache(maxsize=1 << 12)
def _scale_data(asc: tuple[float, ...]) -> tuple:
    """The groups of the ascending scales and of their reciprocals, and x_min
    = pi min(1/a)^2 of `_reflected_err`, the smallest lattice value of the
    reciprocal sum; PrecisionError if a scale or a reciprocal squared, times
    the 2 pi of the rule's pi c^2 t at t = 2, leaves double range."""
    inv = tuple(1.0 / y for y in reversed(asc))
    for what, y in (("scale", asc[-1]), ("reciprocal scale", inv[-1])):
        if not _TWO_PI * y * y < math.inf:
            raise PrecisionError(f"the {what} {y} squared overflows double precision (times 2 pi)")
    return _groups(asc), _groups(inv), math.pi * inv[0] ** 2


def _scaled(log_value: float, log_err: float, shift: float) -> tuple[float, float]:
    """(e^{log_value + shift}, its err): e^{log_err + shift} plus the rounding
    of the exponent and of log V in shift; inf past double range."""
    try:
        value = math.exp(log_value + shift)
        err = math.exp(log_err + shift)
    except OverflowError:
        return math.inf, math.inf
    return value, err + _EPS * (abs(log_value + shift) + abs(shift) + 2.0) * value


def _kernel_parts(s, a, tol) -> tuple:
    """(parts, at) for the nodes (s[i], a[i], tol[i]) in one engine call:
    finite s, ascending scale tuples of any length n and a tolerance each.
    Each distinct node is evaluated once, into its parts row (n, s, V,
    V S(s; a), S(n/2 - s; 1/a) / V, err), finite at s = 0 and n/2, and
    at[i] is node i's row.  S(s; a) gets tol/(8V) and S(n/2 - s; 1/a) tol V/8,
    so that their V-weighted errors meet tol.  A volume past double range, or
    a scale or reciprocal whose square is, raises PrecisionError per node."""
    orders, scales, counts, tols = [], [], [], []
    rows, at = [], []
    first: dict[tuple, int] = {}  # (s, scales, tol) -> its row
    for x, asc, t in zip(s, a, tol):
        row = first.setdefault((x, asc, t), len(rows))
        if row == len(rows):
            n = len(asc)
            v = math.sqrt(math.prod(asc))  # as ScaleVector takes it
            if not 0.0 < v < math.inf:
                raise PrecisionError(f"the volume of the scales {asc} leaves double range")
            (g1, m1), (g2, m2), x_min = _scale_data(asc)
            orders += [x, n / 2.0 - x]
            scales += [g1, g2]
            counts += [m1, m2]
            tols += [t * (0.5 / v) / 4.0, t * (0.5 * v) / 4.0]
            rows.append((n, x, v, x_min))
        at.append(row)
    values, errs = _theta_sums(orders, scales, counts, tols)
    parts = []
    for r, (n, x, v, x_min) in enumerate(rows):
        shift = math.log(v)
        k1, e1 = _scaled(values[2 * r], errs[2 * r], shift)
        k2, e2 = _scaled(values[2 * r + 1], errs[2 * r + 1], -shift)
        parts.append((n, x, v, k1, k2, e1 + _reflected_err(n, x, k2, e2, x_min)))
    return parts, at


def _nodes(nodes) -> tuple[list[float], list[tuple[float, ...]]]:
    """The s and ascending scales of the nodes (n, s, scales), checked before
    any node is evaluated: a node inside the guard band of a pole raises
    PoleError, then bad scales, a count other than n or a non-finite s
    DomainError."""
    nodes = [(n, float(x), scales) for n, x, scales in nodes]
    for n, x, _ in nodes:
        _check_not_pole(n, x)
    s, a = [], []
    for n, x, scales in nodes:
        asc = ScaleVector.ensure(scales).ascending
        if len(asc) != n:
            raise DomainError(f"expected {n} scales, got {len(asc)}")
        if not math.isfinite(x):
            raise DomainError(f"s must be finite, got {x}")
        s.append(x)
        a.append(asc)
    return s, a


def _array_nodes(a: np.ndarray) -> list[tuple[float, ...]]:
    """The ascending scales of the rows of an (N, n) array, checked and
    sorted as a whole, with no ScaleVector per row."""
    bad = ~((a > 0.0) & (a < math.inf)).all(axis=1)
    if bad.any():
        raise DomainError(f"all scales must be positive finite reals, got {tuple(a[bad][0].tolist())}")
    return list(map(tuple, np.sort(a, axis=1).tolist()))


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


def _xi_nodes(s, a, cfg: EvalConfig) -> list[XiValue]:
    """The XiValue at each node (s[i], a[i]) of `_kernel_parts` at cfg.tol, one
    object shared by repeated nodes.  The caller checks the poles."""
    parts, at = _kernel_parts(s, a, [cfg.tol] * len(s))
    values = [_xi_value(*part) for part in parts]
    return [values[row] for row in at]


def xi_many(nodes, cfg: EvalConfig = DEFAULT_CONFIG) -> list[XiValue]:
    """Xi_n(s; a) at every node (n, s, scales), of any dimensions, in one
    batched engine call; each value and err is the one `xi` returns at that
    node, bit for bit."""
    return _xi_nodes(*_nodes(nodes), cfg)


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
    try:
        factor = volume * math.pi ** (-s) * math.gamma(s)
    except OverflowError:
        factor = math.inf
    if 0.0 < abs(factor) < math.inf:
        value = value_xi.value / factor
        return Approximation(value, value_xi.err / abs(factor) + 4.0 * _EPS * abs(value))
    # the factor past double range: divide in logs; Gamma(s) < 0 where floor(s) is odd
    log_factor = math.log(volume) - s * math.log(math.pi) + math.lgamma(s)
    scale = math.exp(-log_factor) * (-1.0 if math.floor(s) % 2 else 1.0)
    value = value_xi.value * scale
    return Approximation(value, value_xi.err * abs(scale) + 8.0 * _EPS * (abs(log_factor) + 4.0) * abs(value))


def hat_xi(n: int, s_hat: float, cfg: EvalConfig = DEFAULT_CONFIG) -> XiValue:
    """Unit-scale Xi in normalised coordinates: Xi_n(n s_hat / 2; 1 .. 1).

    The functional equation becomes the reflection s_hat <-> 1 - s_hat, the
    same for every dimension.
    """
    if not 0.0 < s_hat < 1.0:
        raise DomainError(f"normalised argument must lie in (0, 1), got {s_hat}")
    return xi(n, n * s_hat / 2.0, ScaleVector.unit(n), cfg)
