"""Sign analysis of the unit-scale Xi-function on the critical range.

Covers the three computational pillars of that analysis:

* positivity intervals: for n >= 10 the set where Xi_n > 0 is one interval
  (gamma, n/2 - gamma) symmetric about n/4; signs are certified on the
  continuum outside one bracket of width <= 1e-5, which pins gamma down;
* negativity for n <= 9: a staircase of closed-form bounds certifies
  Xi_9 < 0 on all of (0, 9/4], monotonicity in the dimension carries it to
  every n < 9, and the same continuum certificate of Xi_n checks each case;
* extremum classification at the symmetry point n/4 through the second
  derivative in normalised coordinates.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .config import DEFAULT_CONFIG, EvalConfig
from .epstein import ScaleVector, XiValue, _kernel_parts, _nodes, _xi_nodes, _xi_value, gamma_kernel_sum_d2
from .errors import AnalysisError, DomainError, IndeterminateSignError, PrecisionError
from .specfun import _EPS, Approximation, ibp_partial_sum

__all__ = [
    "SignInterval",
    "BoundReport",
    "decide_sign",
    "decide_signs",
    "find_positive_interval",
    "verify_negative_range",
    "critical_sign_certificates",
    "hat_xi_second_derivative",
    "classify_critical_point",
    "large_scale_positivity",
]

_BRACKET_TARGET = 1e-5
_REFINEMENTS = 3


@dataclass(frozen=True)
class SignInterval:
    """Certified positivity interval (gamma, n/2 - gamma) at unit scales."""

    n: int
    gamma: float
    mirror: float
    bracket_width: float

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < self.n / 4.0:
            raise ValueError(f"gamma={self.gamma} outside (0, n/4) for n={self.n}")
        if self.mirror != self.n / 2.0 - self.gamma:
            raise ValueError("mirror endpoint must equal n/2 - gamma exactly")
        if not self.bracket_width > 0:
            raise ValueError("bracket width must be positive")


@dataclass(frozen=True)
class BoundReport:
    """A named bound together with the sign conclusion it certifies.

    The conclusion is re-derivable by pure comparison: an upper bound below
    ``threshold`` certifies 'negative', a lower bound above it certifies
    'positive'.  Component entries that only feed a combined bound carry no
    threshold.
    """

    quantity: str
    bound_value: float
    direction: str  # 'upper' | 'lower'
    conclusion_sign: str  # 'positive' | 'negative'
    threshold: float | None = None

    def holds(self) -> bool:
        if self.threshold is None:
            return True
        if self.direction == "upper":
            return self.bound_value < self.threshold
        return self.bound_value > self.threshold


def decide_signs(nodes, cfg: EvalConfig = DEFAULT_CONFIG) -> list[tuple[int, XiValue]]:
    """Sign of Xi_n(s; a) at every node (n, s, scales), with its evaluation,
    by `_decide`."""
    return _decide(*_nodes(nodes), cfg)


def _decide(s, a, cfg: EvalConfig) -> list[tuple[int, XiValue]]:
    """(sign, evaluation) of Xi at each node (s[i], a[i]) of `_xi_nodes`.

    All nodes are evaluated in one batched call; the tolerance is then refined
    tenfold, up to three times, on the nodes whose error bound does not yet
    exclude zero.  A node still undecided gets sign 0 and keeps its tightest
    evaluation.  The caller checks the poles.
    """
    values = _xi_nodes(s, a, cfg)
    c = cfg
    for _ in range(_REFINEMENTS):
        pending = [i for i, v in enumerate(values) if not v.excludes_zero()]
        if not pending:
            break
        c = c.tighter(0.1)
        for i, v in zip(pending, _xi_nodes([s[i] for i in pending], [a[i] for i in pending], c)):
            values[i] = v
    return [((1 if v.value > 0 else -1) if v.excludes_zero() else 0, v) for v in values]


def decide_sign(n: int, s: float, scales, cfg: EvalConfig = DEFAULT_CONFIG) -> tuple[int, XiValue]:
    """Sign of Xi_n(s; a) by `decide_signs`, with its evaluation; undecided raises."""
    [(sign, value)] = decide_signs([(n, s, scales)], cfg)
    if sign == 0:
        raise IndeterminateSignError(f"sign of Xi_{n}({s}) undecided: {value.value} +- {value.err}")
    return sign, value


def _sign_pieces(n: int, cfg: EvalConfig) -> list[tuple[float, float, int, float]]:
    """Pieces (lo, hi, sign, bound) covering [0, n/4] in order: sign -1 under an
    upper bound < 0, +1 over a lower bound > 0, else 0 with bound nan.

    At unit scales Xi = pole + K with the pole part rising on (0, n/4] and K
    convex and symmetric about n/4, so pole(lo) + K(hi) <= Xi <= pole(hi) + K(lo)
    on [lo, hi].  Each round decides its pieces by `_round`: undecided pieces
    are halved down to _BRACKET_TARGET / 4, and where err rather than width
    keeps a piece undecided, its ends are refined tenfold, up to _REFINEMENTS
    times.  Every end is evaluated once per refinement level, each at its own
    tolerance.  A round whose ends are not all known makes one engine call,
    which also carries the ends that `_forecast` expects later rounds to ask
    for; the pieces depend only on the rounds, so they are the same bits with
    or without the forecast.
    """
    unit = (1.0,) * n
    known = {}  # (end, refinements) -> its K terms (V, k1, k2, err, F)
    level = {}  # end -> the refinements its K terms took
    todo = {0.0: 0, n / 4.0: 0}  # end -> refinements to evaluate it at
    pending, pieces = [(0.0, n / 4.0)], []

    def bounds(lo, hi):
        upper = _xi_value(n, hi, *known[lo, level[lo]])
        if lo == 0:
            return upper.value, upper.err, -math.inf, 0.0
        lower = _xi_value(n, lo, *known[hi, level[hi]])
        return upper.value, upper.err, lower.value, lower.err

    while pending:
        ends = [end for end in todo.items() if end not in known]
        if ends:
            ends += _forecast(n, pending, {**level, **todo}, known)
            found, at = _kernel_parts(
                [s for s, _ in ends], [unit] * len(ends), [cfg.tighter(0.1**k).tol for _, k in ends]
            )
            known.update((end, found[row][2:]) for end, row in zip(ends, at))
        level.update(todo)
        decided, todo, pending = _round(pending, bounds, level)
        pieces += decided
    return sorted(pieces)


def _round(pending, bounds, level):
    """(pieces, todo, split) of one round over the pieces (lo, hi) of `pending`.

    bounds(lo, hi) gives (upper, its err, lower, its err) on [lo, hi] for ends
    at the refinements of `level`.  A piece is negative under upper + err < 0,
    positive over lower - err > 0; otherwise its ends are refined (todo: end
    -> refinements) where err outweighs the width term, or it is halved down
    to _BRACKET_TARGET / 4, or it stays undecided.
    """
    pieces, todo, split = [], {}, []
    for lo, hi in pending:
        upper, upper_err, lower, lower_err = bounds(lo, hi)
        refine = [s for s in (lo, hi) if level[s] < _REFINEMENTS]
        if upper + upper_err < 0:
            pieces.append((lo, hi, -1, upper + upper_err))
        elif lower - lower_err > 0:
            pieces.append((lo, hi, 1, lower - lower_err))
        elif refine and upper_err + lower_err > upper - lower:
            todo.update((s, level[s] + 1) for s in refine)
            split.append((lo, hi))
        elif hi - lo > _BRACKET_TARGET / 4:
            mid = 0.5 * (lo + hi)
            todo[mid] = max(level[lo], level[hi])
            split += [(lo, mid), (mid, hi)]
        else:
            pieces.append((lo, hi, 0, math.nan))
    return pieces, todo, split


def _forecast(n: int, pending, level, known) -> list[tuple[float, int]]:
    """Ends (s, refinements), none of them in `known`, that the rounds after
    the one over `pending` (ends at the refinements of `level`) will ask for.

    The rounds run by `_round` on plain float bounds.  An end takes the K of
    its finest known refinement level; an unknown end takes the chord of that
    K at the two known ends around it (K is convex) and the nearer one's err.
    Either err is scaled by 0.1 per level it lacks.  The forecast holds at
    most as many ends as `known`, so one engine call at most doubles the ends
    known however poor the model.
    """
    best = {}  # end -> (refinements, K, err) at its finest known level
    for (s, k), (_, k1, k2, err, _) in known.items():
        if k >= best.get(s, (-1,))[0]:
            best[s] = (k, k1 + k2, err)
    xs = sorted(best)
    half = n / 2.0

    def end(s, k):  # (K, err) of the end s at k refinements
        if s in best:
            kb, kk, err = best[s]
        else:
            i = bisect.bisect(xs, s)  # 0 and n/4 are known, so 0 < i < len(xs)
            a, b = xs[i - 1], xs[i]
            kb, _, err = best[a if s - a <= b - s else b]
            kk = best[a][1] + (best[b][1] - best[a][1]) * (s - a) / (b - a)
        return kk, err * 0.1 ** (k - kb)

    def bounds(lo, hi):
        k_lo, e_lo = end(lo, level[lo])
        upper = k_lo - 1.0 / hi - 1.0 / (half - hi)
        if lo == 0:
            return upper, e_lo, -math.inf, 0.0
        k_hi, e_hi = end(hi, level[hi])
        return upper, e_lo, k_hi - 1.0 / lo - 1.0 / (half - lo), e_hi

    level, ends = dict(level), []
    while pending and len(ends) < len(known):
        _, todo, pending = _round(pending, bounds, level)
        ends += [new for new in todo.items() if new not in known][: len(known) - len(ends)]
        level.update(todo)
    return ends


def find_positive_interval(n: int, cfg: EvalConfig = DEFAULT_CONFIG) -> SignInterval | None:
    """The positivity interval (gamma, n/2 - gamma) of Xi_n at unit scales.

    Returns None for n <= 9 after the negativity verification passes.  For
    n >= 10 the signs are certified negative on (0, lo] and positive on
    [hi, n/4] around one bracket [lo, hi] of width <= 1e-5, whose midpoint is
    gamma.  Any other sign pattern, a bracket reaching s = 0 included, raises
    AnalysisError; a wider bracket IndeterminateSignError.  The pieces come
    from `_sign_pieces`, whose forecast evaluates the ends of some 22
    bisection rounds in 4 or 5 engine calls.
    """
    if n <= 9:
        verify_negative_range(n, cfg)
        return None
    pieces = _sign_pieces(n, cfg)
    signs = [sign for _, _, sign, _ in pieces]
    if signs != sorted(signs) or signs[0] == 0 or signs[-1] <= 0:
        raise AnalysisError(f"Xi_{n} is not certified negative, one bracket, then positive")
    lo, hi = pieces[signs.count(-1) - 1][1], pieces[len(signs) - signs.count(1)][0]
    if hi - lo > _BRACKET_TARGET:
        raise IndeterminateSignError(f"sign of Xi_{n} undecided on [{lo}, {hi}] after refinement")
    gamma = 0.5 * (lo + hi)
    return SignInterval(n=n, gamma=gamma, mirror=n / 2.0 - gamma, bracket_width=hi - lo)


# ---------------------------------------------------------------------------
# Closed-form bound machinery for n = 9 / 10
# ---------------------------------------------------------------------------

_PI = math.pi


def _tail_factor_dim9() -> float:
    """sum over Z^9 minus the |k| <= 1 shells, bounded through e^{-pi |k|^2}
    <= e^{-pi sum |k_i|}: ((e^pi + 1)/(e^pi - 1))^9 - 1 - 18 e^{-pi}."""
    ep = math.exp(_PI)
    return ((ep + 1.0) / (ep - 1.0)) ** 9 - 1.0 - 18.0 * math.exp(-_PI)


def _kernel_upper_dim9(beta: float) -> tuple[float, float]:
    """Upper bound on sum_{k != 0} (pi|k|^2)^{-beta} Gamma(beta, pi|k|^2) in Z^9,
    as the pair (shell, tail) whose sum is the bound.

    First shell (18 points at |k| = 1) exactly, remaining shells through the
    partial-sum bound at x = 2 pi times the closed-form tail factor.
    """
    m = math.floor(beta)
    shell1 = (18.0 / _PI) * math.exp(-_PI) * ibp_partial_sum(beta, _PI, m)
    tail = (1.0 / (2.0 * _PI)) * ibp_partial_sum(beta, 2.0 * _PI, m) * _tail_factor_dim9()
    return shell1, tail


def _pole_part_dim9(s: float) -> float:
    return -1.0 / s - 1.0 / (4.5 - s)


def critical_sign_certificates() -> list[BoundReport]:
    """Closed-form certificates for Xi_9(9/4) < 0 and Xi_10(5/2) > 0.

    Xi_9(9/4) = -8/9 + 2 S with S the order-9/4 kernel sum; S is bounded
    above by the 18-point first shell plus the tail factor, and the combined
    bound staying below 4/9 settles the sign.  For Xi_10(5/2) the first-shell
    lower partial sum alone already clears -4/5.
    """
    shell1, tail = _kernel_upper_dim9(9.0 / 4.0)
    combined = shell1 + tail
    lower10 = -4.0 / 5.0 + (40.0 / _PI) * math.exp(-_PI) * ibp_partial_sum(
        5.0 / 2.0, _PI, 3
    )
    return [
        BoundReport("first_shell_9", shell1, "upper", "negative"),
        BoundReport("tail_9", tail, "upper", "negative"),
        BoundReport("kernel_sum_9", combined, "upper", "negative", threshold=4.0 / 9.0),
        BoundReport("xi10_first_shell", lower10, "lower", "positive", threshold=0.0),
    ]


_STAIRS = ((0.0, 0.95), (0.95, 1.55), (1.55, 2.0), (2.0, 2.25))


def verify_negative_range(n: int, cfg: EvalConfig = DEFAULT_CONFIG) -> list[BoundReport]:
    """Certify Xi_n < 0 on (0, n/4] for 1 <= n <= 9.

    The certificate is the four-stair argument at n = 9: the pole part is
    increasing and the kernel part decreasing on (0, 9/4], so on each stair
    [lo, hi] the value is at most pole(hi) + kernel_upper(lo), and each of
    those four sums is negative.  It covers every n < 9 as well, since
    Xi_n(s) = XiHat_n(2s/n) < XiHat_9(2s/n) = Xi_9(9s/n) is monotone in the
    dimension at fixed normalised argument, so the twelve stair reports are
    the same for every n.  The continuum certificate of Xi_n itself
    (`_sign_pieces`) is reported as well, by its largest upper bound.
    """
    if not 1 <= n <= 9:
        raise DomainError(f"negativity verification covers 1 <= n <= 9, got {n}")
    reports: list[BoundReport] = []
    for lo, hi in _STAIRS:
        kern = sum(_kernel_upper_dim9(lo)) + sum(_kernel_upper_dim9(4.5 - lo))
        pole = _pole_part_dim9(hi)
        reports.append(BoundReport(f"kernel_upper({lo})", kern, "upper", "negative"))
        reports.append(BoundReport(f"pole_part({hi})", pole, "upper", "negative"))
        reports.append(
            BoundReport(f"stair({lo},{hi}]", pole + kern, "upper", "negative", threshold=0.0)
        )

    pieces = _sign_pieces(n, cfg)
    if any(sign >= 0 for _, _, sign, _ in pieces):
        raise AnalysisError(f"Xi_{n} is not certified negative on all of (0, n/4]")
    worst = max(bound for _, _, _, bound in pieces)
    reports.append(BoundReport(f"continuum_negativity_n{n}", worst, "upper", "negative", 0.0))
    return reports


# ---------------------------------------------------------------------------
# Second derivative and extremum classification
# ---------------------------------------------------------------------------


def hat_xi_second_derivative(
    n: int, s_hat: float, cfg: EvalConfig = DEFAULT_CONFIG
) -> Approximation:
    """Second derivative of the normalised Xi at s_hat in (0, 1).

    The pole part differentiates in closed form to
    -(4/n)(1/s^3 + 1/(1-s)^3); each kernel sum's second derivative in the
    order is its theta integral weighted by (log t)^2, evaluated by the
    engine's rule with its own strip bound (`gamma_kernel_sum_d2`), once at
    the symmetry point.
    """
    if not 0.0 < s_hat < 1.0:
        raise DomainError(f"normalised argument must lie in (0, 1), got {s_hat}")
    unit = ScaleVector.unit(n)
    pole = -(4.0 / n) * (1.0 / s_hat**3 + 1.0 / (1.0 - s_hat) ** 3) if s_hat**3 else -math.inf
    if not pole > -math.inf:  # 1/s_hat^3 overflows from s_hat of about 6e-104
        raise PrecisionError(f"the pole part of hat-Xi''_{n} at s_hat = {s_hat} leaves double range")
    beta_a, beta_b = n * s_hat / 2.0, n * (1.0 - s_hat) / 2.0
    d2a = gamma_kernel_sum_d2(beta_a, unit, cfg)
    d2b = d2a if beta_b == beta_a else gamma_kernel_sum_d2(beta_b, unit, cfg)
    half_n_sq = (n / 2.0) ** 2
    value = pole + half_n_sq * (d2a.value + d2b.value)
    err = half_n_sq * (d2a.err + d2b.err) + 8.0 * _EPS * (abs(pole) + abs(value))
    return Approximation(value, err)


def classify_critical_point(n: int, cfg: EvalConfig = DEFAULT_CONFIG) -> str:
    """'local_max' or 'local_min' of Xi_n at its symmetry point n/4."""
    return _critical_point_kind(n, hat_xi_second_derivative(n, 0.5, cfg))


def _critical_point_kind(n: int, d2: Approximation) -> str:
    """The classification of n/4 by the sign of hat-Xi''_n(1/2) = d2."""
    if not d2.excludes_zero():
        raise IndeterminateSignError(
            f"second derivative at n={n} is {d2.value} with bound {d2.err}; sign undecided"
        )
    return "local_max" if d2.value < 0 else "local_min"


def large_scale_positivity(n: int, s: float, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """Smallest power-of-two value of one scale (the others at 1) making Xi
    positive; Xi is symmetric in the scales, so every axis gives it.

    Doubling search; the sign at each probe must exclude zero.  Failure to
    turn positive by 2^60 contradicts the large-anisotropy positivity
    guarantee and is reported as an error.
    """
    if n < 2:
        raise DomainError("anisotropy search needs n >= 2")
    if not 0.0 < s < n / 2.0:
        raise DomainError(f"s must lie in the critical range (0, {n / 2}), got {s}")
    a = 2.0
    while a <= 2.0**60:
        sign, _ = decide_sign(n, s, ScaleVector((a,) + (1.0,) * (n - 1)), cfg)
        if sign > 0:
            return a
        a *= 2.0
    raise AnalysisError(
        f"Xi_{n}({s}) still negative at a scale of 2^60; this contradicts the "
        "large-anisotropy positivity guarantee and indicates a bug"
    )
