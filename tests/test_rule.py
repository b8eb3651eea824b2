"""The theta-integral rule of the engine: its theta series, the honesty of
its err against a 30-digit mpmath reference, and its err against the rule
itself at a finer step."""

import math
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from epsteinzeta import PrecisionError, ScaleVector, xi
from epsteinzeta import epstein
from epsteinzeta.analysis import classify_critical_point
from epsteinzeta.epstein import _groups, _log_theta, gamma_kernel_sum_d2
from epsteinzeta.specfun import theta

DPS = 30


def _mp_log_theta(x):
    """log theta(x) at the working precision, from the series at x >= 1
    (so that theta - 1 does not cancel) and reflected below."""
    import mpmath

    if x >= 1:
        q = mpmath.exp(-mpmath.pi * x)
        return mpmath.log1p(2 * mpmath.fsum(q ** (j * j) for j in range(1, 7)))
    return mpmath.log(mpmath.jtheta(3, 0, mpmath.exp(-mpmath.pi / x)) / mpmath.sqrt(x))


def _mp_integral(beta, scales, power=0):
    """int_1^inf t^{beta-1} (log t)^power (prod_i theta(c_i^2 t) - 1) dt at
    DPS digits, by Gauss-Legendre mpmath.quad on doubling breakpoints past
    the decay length 1/(pi min c^2) and the peak of t^{beta-1} e^{-t/decay}."""
    import mpmath

    with mpmath.workdps(DPS):
        squares = [(mpmath.mpf(c) ** 2, k) for c, k in Counter(scales).items()]
        decay = 1 / (mpmath.pi * min(c2 for c2, _ in squares))
        end = decay * (abs(beta) + 80) * 2
        points = [mpmath.mpf(1)]
        while points[-1] < end:
            points.append(points[-1] * 2)

        def f(t):
            excess = mpmath.expm1(mpmath.fsum(k * _mp_log_theta(c2 * t) for c2, k in squares))
            return t ** (mpmath.mpf(beta) - 1) * mpmath.log(t) ** power * excess

        return mpmath.quad(f, points, method="gauss-legendre")


def _mp_xi(n, s, a):
    """Xi_n(s; a) from the theta integrals at DPS digits, as in the oracle."""
    import mpmath

    with mpmath.workdps(DPS):
        am = [mpmath.mpf(x) for x in a]
        v = mpmath.sqrt(mpmath.fprod(am))
        sm, half = mpmath.mpf(s), mpmath.mpf(n) / 2
        return (
            v * _mp_integral(s, a)
            + _mp_integral(half - sm, [1 / x for x in am]) / v
            - v / sm
            - 1 / (v * (half - sm))
        )


def _nodes():
    """Seeded nodes of n <= 4: random scales, volumes 2^+-9, s near the
    half-integers, and orders of both signs up to |s| of about 170."""
    rng = np.random.default_rng(20261019)
    for n in (1, 2, 3, 4):
        # random scales, s next to a half-integer inside the critical strip or past it
        a = tuple(np.exp(rng.uniform(-1.0, 1.0, n)).tolist())
        yield n, 0.5 * int(rng.integers(-2, n + 3)) + 1e-3 * float(rng.choice((-1.0, 1.0))), a
        # a volume 2^9 or 2^-9
        if n > 1:
            big = (2.0 ** (18.0 / n),) * n
            yield n, float(rng.uniform(0.05, n / 2.0 - 0.05)), big if n % 2 else tuple(1.0 / x for x in big)
    for n, s in ((1, -120.9), (1, 167.2)):
        yield n, s, tuple(np.exp(rng.uniform(-0.3, 0.3, n)).tolist())


# equal large scales, a 2^18 scale ratio, a value near the top of double
# range, and strong anisotropy next to unit scales; the last two with their
# `_mp_xi` values, which take seconds each to compute
_TABLE = [
    (2, 0.25, (512.0, 512.0), None),
    (2, 0.3, (2.0**18, 1.0), None),
    (10, -58.43, (100.0,) * 10, "5.7224402992232313034e299"),
    (10, 0.9698635322674956, (2.0**10, 2.0**-10) + (1.0,) * 8, "2.2783887763942009805e23"),
]


@pytest.mark.parametrize("n, s, a, known", [(*node, None) for node in _nodes()] + _TABLE)
def test_err_covers_mpmath_theta_integral(n, s, a, known):
    import mpmath

    try:
        v = xi(n, s, ScaleVector(a))
    except PrecisionError:
        pytest.fail(f"Xi_{n}({s}; {a}) is in double range but raised")
    with mpmath.workdps(DPS):
        exact = mpmath.mpf(known) if known else _mp_xi(n, s, a)
        assert math.isfinite(v.err) and abs(v.value - exact) <= v.err


def test_log_theta_matches_specfun_theta():
    x = np.geomspace(1e-6, 1e6, 241)
    # past x of about 225, theta - 1 underflows and its log is -inf
    with np.errstate(divide="ignore"):
        big_l, log_excess = _log_theta(x[:, None], np.ones((x.size, 1)))
    for xv, lv, ev in zip(x.tolist(), big_l.tolist(), log_excess.tolist()):
        ref = theta(xv)
        assert abs(math.exp(lv) - ref.value) <= ref.err + 4e-16 * ref.value
        # theta - 1 without cancellation: 2 e^{-pi x} past x of about 12
        if 12.0 < xv < 200.0:
            assert ev == pytest.approx(math.log(2.0) - math.pi * xv, rel=1e-12)


def _mp_log_excess(x, m):
    """log(prod_g jtheta(3, 0, e^{-pi x_g})^{m_g} - 1) with 40 digits past
    the size of the leading term 2 e^{-pi x_0}, so that nothing cancels."""
    import mpmath

    with mpmath.workdps(40 + int(math.pi * min(x) / math.log(10.0))):
        theta3 = [mpmath.jtheta(3, 0, mpmath.exp(-mpmath.pi * mpmath.mpf(xg))) for xg in x]
        return mpmath.log(mpmath.fprod(t**k for t, k in zip(theta3, m)) - 1)


# one group, and several with the second close enough to x_0 to count
_GROUPS = [((1.0,), (1,)), ((1.0, 1.0 + 1e-4, 1.5, 3.0), (2, 1, 3, 1))]


@pytest.mark.parametrize("ratios, counts", _GROUPS)
@pytest.mark.parametrize("pi_x0", [690.0, 699.9, 700.1, 745.0, 800.0, 1e4])
def test_log_theta_far_form_matches_jtheta(pi_x0, ratios, counts):
    # past pi x_0 = 700 log(Theta - 1) takes its asymptotic form; below it
    # the far switch leaves the bits of the series form
    x0 = pi_x0 / math.pi
    x = np.array([[x0 * r for r in ratios]])
    m = np.array([counts], dtype=float)
    _, [log_excess] = _log_theta(x, m, True)
    exact = _mp_log_excess(x[0].tolist(), counts)
    assert abs(log_excess - float(exact)) <= 4.0 * np.finfo(float).eps * abs(float(exact))
    if pi_x0 < 700.0:
        assert _log_theta(x, m)[1][0] == log_excess


@pytest.mark.parametrize("ratios, counts", _GROUPS)
def test_log_theta_is_continuous_across_the_far_switch(ratios, counts):
    # at the last double below the switch and the first above it, the two
    # forms agree to a few eps of log(Theta - 1), the change of pi x_0 included
    x0 = np.array([np.nextafter(epstein._X_FAR, 0.0), np.nextafter(epstein._X_FAR, np.inf)])
    x = x0[:, None] * np.array(ratios)
    _, (below, above) = _log_theta(x, np.array([counts] * 2, dtype=float), True)
    assert abs(above - below) <= 4.0 * np.finfo(float).eps * 700.0


def _refined(plan, factor):
    """The plan with the step divided by factor, over its range of u widened
    by 2 at each end, so that its own omitted nodes are negligible."""
    h, k_lo, k_hi, *rest = plan
    wide = math.ceil(2.0 / h)
    return (h / factor, (k_lo - wide) * factor, (k_hi + wide) * factor, *rest)


@pytest.mark.parametrize("beta, a", [(0.7, (1.0,) * 3), (2.5, (0.5, 1.0, 2.0)), (-1.3, (1.0, 1.0)), (12.5, (1.0,) * 4)])
def test_err_bounds_the_step_error(beta, a):
    # over a sweep of tols, and so of steps, the reported err of the step h
    # is at least the change to the step h/4 over a wider range
    key = _groups(tuple(sorted(a)))
    [row] = epstein._key_data([key])
    steps = set()
    for tol in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
        plan = epstein._plan(beta, tol, row, False)
        steps.add(plan[0])
        [log_t], [log_err] = epstein._evaluate([plan], [row], [plan[2] - plan[1] + 1], None)
        fine = _refined(plan, 4)
        [log_fine], _ = epstein._evaluate([fine], [row], [fine[2] - fine[1] + 1], None)
        assert abs(math.exp(log_t) - math.exp(log_fine)) <= math.exp(log_err)
    assert len(steps) >= 4


def test_second_derivative_is_the_log_squared_integral():
    import mpmath

    for beta, a in ((2.5, (1.0,) * 10), (2.75, (1.0,) * 11), (0.9, (0.5, 2.0))):
        d2 = gamma_kernel_sum_d2(beta, ScaleVector(a))
        exact = _mp_integral(beta, a, power=2)
        assert abs(d2.value - exact) <= d2.err
        assert d2.err <= 1e-9 * max(1.0, abs(float(exact)))
    with mpmath.workdps(15):
        assert classify_critical_point(10) == "local_max"
        assert classify_critical_point(11) == "local_min"


def test_package_import_leaves_scipy_special_unloaded():
    code = "import sys, epsteinzeta; sys.exit('scipy.special' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], check=False).returncode == 0


@pytest.mark.parametrize("s, a", [(500.0, 8.0), (300.5, 3.0), (0.3, 40.0)])
def test_err_stays_finite_where_tol_is_loose(s, a):
    # S(s; a) is far below tol here, so the step aims only at the strip
    # factor: the err stays finite and covers the closed form
    # Xi_1(s; a) = sqrt(a) pi^{-s} Gamma(s) 2 a^{-2s} zeta(2s)
    import mpmath

    v = xi(1, s, ScaleVector((a,)))
    with mpmath.workdps(DPS):
        sm, am = mpmath.mpf(s), mpmath.mpf(a)
        exact = mpmath.sqrt(am) * mpmath.pi**-sm * mpmath.gamma(sm) * 2 * am ** (-2 * sm) * mpmath.zeta(2 * sm)
        assert math.isfinite(v.err) and abs(v.value - exact) <= v.err


def _closed_form_nodes():
    """Seeded (s, a) for n = 1 with s in (-900, 1500) away from the integers
    and from 1/2, a = e^U(-4, 4), and Xi_1(700; 10) = 2.16e-61."""
    rng = np.random.default_rng(20261019)
    for _ in range(200):
        s, a = float(rng.uniform(-900.0, 1500.0)), float(math.exp(rng.uniform(-4.0, 4.0)))
        if abs(s - round(s)) > 1e-3 and abs(s - 0.5) > 1e-3:
            yield s, a
    yield 700.0, 10.0


def test_err_covers_one_dimensional_closed_form():
    # Xi_1(s; a) = 2 sqrt(a) pi^-s Gamma(s) a^-2s zeta(2s): every returned
    # err covers it, and no node in double range raises
    import mpmath

    for s, a in _closed_form_nodes():
        with mpmath.workdps(DPS):
            sm, am = mpmath.mpf(s), mpmath.mpf(a)
            exact = 2 * mpmath.sqrt(am) * mpmath.pi**-sm * mpmath.gamma(sm) * am ** (-2 * sm) * mpmath.zeta(2 * sm)
            try:
                v = xi(1, s, ScaleVector((a,)))
            except PrecisionError:
                assert abs(exact) >= 1e300, f"Xi_1({s}; {a}) = {exact} raised"
                continue
            assert abs(v.value - exact) <= v.err, (s, a)
