import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from epsteinzeta import (
    Approximation,
    DomainError,
    PoleError,
    PrecisionError,
    bessel_k,
    riemann_zeta,
    theta,
)
from epsteinzeta.analysis import _STAIRS
from epsteinzeta.specfun import ibp_partial_sum, theta_with_derivatives


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------


def theta_log_derivatives(t):
    """(theta'/theta, (theta'' theta - theta'^2)/theta^2): the first two
    derivatives of log theta at t, from `theta_with_derivatives`."""
    th, thp, thpp = theta_with_derivatives(t)
    g1 = thp.value / th.value
    return g1, thpp.value / th.value - g1 * g1


def theta_oracle(t, kmax=10):
    # direct summation; terms beyond |k| = 10 are below exp(-100 pi t)
    return 1.0 + 2.0 * math.fsum(math.exp(-math.pi * t * k * k) for k in range(1, kmax + 1))


def test_theta_huge_argument_is_one():
    v = theta(1e12)
    assert v.value == 1.0
    assert v.err < 1e-15


def test_theta_reflection_is_exact_at_quarter():
    # theta(1/4) = 2 theta(4): the reflection factor is exactly t^{-1/2} = 2
    assert theta(0.25).value == 2.0 * theta(4.0).value


def test_theta_at_one_matches_direct_summation():
    expected = theta_oracle(1.0)
    assert expected == pytest.approx(1.086434811213308, abs=1e-15)
    v = theta(1.0)
    assert abs(v.value - expected) <= v.err + 1e-16


@pytest.mark.parametrize("t", [0.01, 0.1, 0.5, 1.0, 2.0, 17.3, 100.0])
def test_theta_reflection_identity(t):
    lhs = theta(t)
    rhs = theta(1.0 / t)
    assert abs(lhs.value - rhs.value / math.sqrt(t)) <= lhs.err + rhs.err / math.sqrt(t)


@pytest.mark.parametrize("t", [0.05, 0.3, 1.0, 4.0, 10.0])
def test_theta_above_one_and_decreasing(t):
    # strict excess over 1 is representable up to t ~ 11; beyond that the
    # 2 exp(-pi t) excess drops below machine epsilon
    assert theta(t).value > 1.0
    g1, _ = theta_log_derivatives(t)
    assert g1 < 0.0
    assert theta(25.0).value >= 1.0


def test_theta_rejects_nonpositive():
    with pytest.raises(DomainError):
        theta(0.0)
    with pytest.raises(DomainError):
        theta(-2.0)


def test_log_derivative_value_at_one():
    # differentiating the reflection identity at t = 1 gives theta'(1) = -theta(1)/4
    g1, _ = theta_log_derivatives(1.0)
    assert g1 == pytest.approx(-0.25, abs=1e-13)
    # cross-check by central finite differences of theta itself
    h = 1e-6
    fd = (theta(1.0 + h).value - theta(1.0 - h).value) / (2.0 * h) / theta(1.0).value
    assert g1 == pytest.approx(fd, abs=1e-9)


def test_log_derivative_second_vs_finite_difference():
    h = 1e-5
    g1p = theta_log_derivatives(2.0 + h)[0]
    g1m = theta_log_derivatives(2.0 - h)[0]
    fd = (g1p - g1m) / (2.0 * h)
    _, g2 = theta_log_derivatives(2.0)
    assert g2 == pytest.approx(fd, abs=1e-8)


def test_log_derivative_large_t_leading_term():
    t = 30.0
    g1, _ = theta_log_derivatives(t)
    assert g1 < 0.0
    assert g1 == pytest.approx(-2.0 * math.pi * math.exp(-math.pi * t), rel=1e-8)


def test_theta_with_derivatives_err_bounds_are_tiny():
    th, thp, thpp = theta_with_derivatives(1.0)
    for approx in (th, thp, thpp):
        assert isinstance(approx, Approximation)
        assert approx.err < 1e-13 * max(1.0, abs(approx.value))


def test_theta_and_derivatives_within_err_of_mpmath():
    # 60-digit references: the differentiated series at t >= 1, and below 1
    # mpmath.diff of jtheta through theta(t) = t^{-1/2} theta(1/t), which
    # shares nothing with the reflected derivative forms
    import mpmath

    ts = np.concatenate([10.0 ** np.random.default_rng(51).uniform(-12.0, 3.0, 40), [1e-10, 1.0]])
    with mpmath.workdps(60):
        pi = mpmath.pi

        def reflected(x):
            return mpmath.jtheta(3, 0, mpmath.exp(-pi / x)) / mpmath.sqrt(x)

        for t in ts.tolist():
            got = theta_with_derivatives(t)
            assert theta(t) == got[0]
            x = mpmath.mpf(t)
            if t >= 1.0:
                s0, s2, s4 = (
                    mpmath.fsum(k**p * mpmath.exp(-pi * x * k * k) for k in range(1, 30))
                    for p in (0, 2, 4)
                )
                exact = (1 + 2 * s0, -2 * pi * s2, 2 * pi**2 * s4)
            else:
                exact = tuple(mpmath.diff(reflected, x, j) for j in range(3))
            for j, (approx, ref) in enumerate(zip(got, exact)):
                assert abs(mpmath.mpf(approx.value) - ref) <= approx.err, (t, j)


def test_theta_derivatives_past_double_range_raise():
    # theta''(t) is about (3/4) t^{-5/2}, past double range below t = 1e-123
    assert theta(1e-200).value == pytest.approx(1e100, rel=1e-15)
    with pytest.raises(PrecisionError):
        theta_with_derivatives(1e-200)


# ---------------------------------------------------------------------------
# Riemann zeta
# ---------------------------------------------------------------------------


def test_zeta_at_two():
    v = riemann_zeta(2.0)
    assert v.value == pytest.approx(math.pi**2 / 6.0, abs=1e-12)


@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
def test_zeta_negative_between_zero_and_one(s):
    assert riemann_zeta(s).value < 0.0


def test_zeta_at_half():
    # zeta(1/2) = -1.46035450880958681..., to 1e-9
    v = riemann_zeta(0.5)
    assert v.value == pytest.approx(-1.4603545088095868, abs=1e-9)


@pytest.mark.parametrize(
    "s, exact",
    [
        (1.0001, 10000.57722294753897031),
        (0.999, -999.4228571557879018316),
        (0.014466440796139013, -0.5135067872466210977659),
        (-0.002236218178305882, -0.4979500583458920129807),
        (-5.993042927312626, -4.10361348914761839299e-5),
    ],
)
def test_zeta_err_covers_cancellation(s, exact):
    # the pole at 1, the head/tail cancellation of the series near s = 0,
    # the rounding of 1 - s next to the pole of zeta(1 - s) and the trivial
    # zeros each cost relative accuracy; references are mpmath.zeta at 40 digits
    v = riemann_zeta(s)
    assert abs(v.value - exact) <= v.err


@pytest.mark.parametrize(
    "k,bern",
    [(1, 1.0 / 6.0), (2, 1.0 / 30.0), (3, 1.0 / 42.0), (4, 1.0 / 30.0)],
)
def test_zeta_even_values_match_bernoulli(k, bern):
    expected = (2.0 * math.pi) ** (2 * k) * bern / (2.0 * math.factorial(2 * k))
    assert riemann_zeta(2.0 * k).value == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("s", [-1.08e-16, 1e-300, -1e-300, -5e-7, -2.7])
def test_zeta_near_zero_matches_mpmath(s):
    # below half an ulp of 1 the functional equation would evaluate zeta(1)
    import mpmath

    with mpmath.workdps(40):
        exact = mpmath.zeta(mpmath.mpf(s))
        v = riemann_zeta(s)
        assert abs(mpmath.mpf(v.value) - exact) <= v.err


def test_zeta_pole():
    with pytest.raises(PoleError):
        riemann_zeta(1.0)


@pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan])
def test_zeta_non_finite_s_is_a_domain_error(s):
    with pytest.raises(DomainError, match="s must be finite"):
        riemann_zeta(s)


def test_zeta_gamma_factor_past_double_range_raises():
    # the factor of the functional equation, with Gamma(1 - s) = Gamma(301.5),
    # takes zeta(-300.5) to about 1.7e375
    with pytest.raises(PrecisionError):
        riemann_zeta(-300.5)


@pytest.mark.parametrize("s", [-171.0, -200.5, -259.4])
def test_zeta_in_range_where_gamma_overflows_matches_mpmath(s):
    # Gamma(1 - s) alone leaves double range, zeta(s) does not: the factor of
    # the functional equation is taken in logs
    import mpmath

    with mpmath.workdps(40):
        exact = mpmath.zeta(mpmath.mpf(s))
        v = riemann_zeta(s)
        assert abs(mpmath.mpf(v.value) - exact) <= v.err
        assert v.err <= 1e-11 * abs(exact)


def test_zeta_err_covers_the_power_of_pi():
    # fl(pi)^(s - 1) is off pi^(s - 1) by up to |s - 1| eps/4, relative:
    # about 30 eps next to where Gamma(1 - s) overflows
    import mpmath

    with mpmath.workdps(40):
        for s in np.linspace(-170.55, -60.3, 24).tolist():
            v = riemann_zeta(s)
            assert abs(mpmath.mpf(v.value) - mpmath.zeta(mpmath.mpf(s))) <= v.err


@pytest.mark.parametrize("s", [1075.0, 1e62, 1e308])
def test_zeta_at_huge_s_is_one(s):
    # zeta(s) - 1 <= 2^-s (1 + 2/(s - 1)) lies below the least subnormal;
    # past s of about 4.5e61 the series' remainder term used to overflow
    v = riemann_zeta(s)
    assert v.value == 1.0 and v.err == math.ulp(0.0)


def test_zeta_functional_equation_branch():
    # zeta(-3) = 1/120 classically; the negative-axis branch must hit it
    assert riemann_zeta(-3.0).value == pytest.approx(1.0 / 120.0, abs=1e-12)
    # trivial zeros are exact
    assert riemann_zeta(-2.0).value == 0.0
    assert riemann_zeta(-6.0).err == 0.0


# ---------------------------------------------------------------------------
# Upper incomplete gamma: the closed-form bounds of the sign certificates
# against a 30-digit reference
# ---------------------------------------------------------------------------


def upper_incomplete_gamma(beta, x):
    """Gamma(beta, x) from mpmath at 30 digits, rounded to a float."""
    import mpmath

    with mpmath.workdps(30):
        return float(mpmath.gammainc(mpmath.mpf(beta), mpmath.mpf(x)))


@pytest.mark.parametrize("x", [1.0, math.pi, 10.0])
def test_incomplete_gamma_order_one(x):
    assert upper_incomplete_gamma(1.0, x) == pytest.approx(math.exp(-x), rel=1e-13)


def test_incomplete_gamma_vs_quadrature_oracle():
    oracle, quad_err = quad(
        lambda t: t**1.25 * math.exp(-t), math.pi, math.pi + 50.0, epsabs=1e-14
    )
    v = upper_incomplete_gamma(2.25, math.pi)
    assert abs(v - oracle) <= 1e-10 + quad_err


def ibp_bound(beta, x, m):
    """x^{beta-1} e^{-x} times the partial sum: above Gamma(beta, x) at
    m = floor(beta), below it at m = floor(beta) + 1."""
    return x ** (beta - 1.0) * math.exp(-x) * ibp_partial_sum(beta, x, m)


def test_incomplete_gamma_sandwiched_by_bounds():
    beta, x = 9.0 / 4.0, math.pi
    v = upper_incomplete_gamma(beta, x)
    assert ibp_bound(beta, x, 3) <= v <= ibp_bound(beta, x, 2)


def test_incomplete_gamma_grid_recurrence_and_sandwich():
    # Gamma(beta+1, x) = beta Gamma(beta, x) + x^beta e^{-x}; the sandwich
    # holds for every x > 0, x <= beta included
    for beta in np.arange(0.25, 6.01, 0.5):
        m = math.floor(beta)
        for x in np.arange(0.3, 20.0, 1.7):
            left = upper_incomplete_gamma(beta + 1.0, x)
            right = beta * upper_incomplete_gamma(beta, x) + x**beta * math.exp(-x)
            assert left == pytest.approx(right, rel=1e-10)
            v = upper_incomplete_gamma(beta, x)
            assert ibp_bound(beta, x, m + 1) <= v <= ibp_bound(beta, x, m)


@pytest.mark.parametrize("beta", [-2.5, -1.0, 0.0, -0.3])
def test_incomplete_gamma_nonpositive_order(beta):
    for x in (0.4, 2.0, 9.0):
        oracle, quad_err = quad(
            lambda t: t ** (beta - 1.0) * math.exp(-t), x, x + 60.0, epsabs=1e-15
        )
        v = upper_incomplete_gamma(beta, x)
        assert abs(v - oracle) <= 1e-11 + 10.0 * quad_err


# ---------------------------------------------------------------------------
# Partial-sum bounds
# ---------------------------------------------------------------------------


def test_incgamma_bound_degenerate_at_integer_order():
    # floor(1) term has factor beta - 1 = 0, killing everything past j = 0
    assert ibp_bound(1.0, 5.0, 1) == pytest.approx(math.exp(-5.0), rel=1e-14)
    assert ibp_bound(1.0, 5.0, 2) == pytest.approx(math.exp(-5.0), rel=1e-14)


def test_incgamma_bound_hand_expansion():
    x = math.pi
    expected = 1.0 + 1.5 / x + 0.75 / x**2
    assert ibp_partial_sum(2.5, x, 2) == pytest.approx(expected, rel=1e-14)


def test_ibp_bounds_hold_at_the_stairs_inputs():
    # every order the n <= 9 certificates bound, at both of their arguments:
    # x <= beta at (4.5, pi) and (3.55, pi), and beta = 0
    import mpmath

    betas = {lo for lo, _ in _STAIRS} | {4.5 - lo for lo, _ in _STAIRS} | {2.25, 2.5}
    assert min(betas) == 0.0 and max(betas) == 4.5 and len(betas) == 9
    with mpmath.workdps(40):
        for beta in sorted(betas):
            for x in (math.pi, 2.0 * math.pi):
                exact = mpmath.gammainc(mpmath.mpf(beta), mpmath.mpf(x))
                # each bound's double evaluation rounds by a few eps of it
                slack = 4.0 * 2.0**-52 * exact
                m = math.floor(beta)
                assert ibp_bound(beta, x, m) >= exact - slack, (beta, x)
                assert ibp_bound(beta, x, m + 1) <= exact + slack, (beta, x)


# ---------------------------------------------------------------------------
# Bessel K
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "zval", [1.0, 2.0 * math.pi, np.array([1.0, 2.0 * math.pi, 29.9, 30.1, 35.0, 60.0])]
)
def test_bessel_k_half_order_closed_form(zval):
    # K_{1/2}(z) = sqrt(pi / (2z)) e^{-z}; one array call equals its scalar calls
    expected = np.sqrt(math.pi / (2.0 * zval)) * np.exp(-zval)
    if np.ndim(zval) == 0:
        v = bessel_k(0.5, zval)
        assert isinstance(v, Approximation)
        values, errs = v.value, v.err
    else:
        values, errs = bessel_k(0.5, zval)
        scalars = [bessel_k(0.5, float(x)) for x in zval]
        assert np.array_equal(values, [v.value for v in scalars])
        assert np.array_equal(errs, [v.err for v in scalars])
    assert values == pytest.approx(expected, rel=1e-12)
    # the closed form itself is good to a few ulps
    assert np.all(np.abs(values - expected) <= errs + 8.0 * 2.2e-16 * expected)


def test_bessel_k_even_in_order():
    assert bessel_k(0.7, 3.0).value == bessel_k(-0.7, 3.0).value


def test_bessel_k_zero_order_vs_quadrature_oracle():
    oracle, quad_err = quad(
        lambda u: math.exp(-math.cosh(u)), 0.0, 12.0, epsabs=1e-13, limit=200
    )
    assert oracle == pytest.approx(0.4210244382, abs=1e-9)
    v = bessel_k(0.0, 1.0)
    assert abs(v.value - oracle) <= 1e-9 + quad_err


def test_bessel_k_oracle_at_z35():
    z = 35.0
    oracle, quad_err = quad(
        lambda u: math.exp(-z * math.cosh(u)) * math.cosh(1.3 * u),
        0.0,
        6.0,
        epsabs=1e-22,
        limit=200,
    )
    v = bessel_k(1.3, z)
    assert abs(v.value - oracle) <= v.err + 1e-18 + quad_err


def test_bessel_k_oracle_at_z41():
    # the reference is mpmath.besselk at 50 digits
    v = bessel_k(1.0314815005156186, 41.5254098286656)
    assert abs(v.value - 1.814900380893020276585279e-19) <= v.err


@pytest.mark.parametrize("nu", [0.0, 0.3, 0.5, 1.1, 2.7, 4.2])
def test_bessel_k_err_covers_mpmath_and_stays_tight(nu):
    # err must hold, and must stay within 1e-13 of K so that the
    # Chowla-Selberg cross-checks built on it keep their resolution
    import mpmath

    z = np.geomspace(0.02, 61.0, 40)
    values, errs = bessel_k(nu, z)
    with mpmath.workdps(30):
        refs = [mpmath.besselk(nu, x) for x in z.tolist()]
    for value, err, ref in zip(values.tolist(), errs.tolist(), refs):
        assert abs(mpmath.mpf(value) - ref) <= err
        assert err <= 1e-13 * ref


def test_bessel_k_domain():
    with pytest.raises(DomainError):
        bessel_k(0.5, -1.0)
    with pytest.raises(DomainError):
        bessel_k(0.5, np.array([1.0, 0.0]))


def test_bessel_k_below_the_node_range_raises_precision_error():
    # below z of about 2e-307, 36/z overflows and the node count would wrap;
    # the call is decided before any array is sized, with no warning
    for z in (1e-310, np.array([1.0, 1e-310])):
        with pytest.raises(PrecisionError, match="z = 1e-310"):
            bessel_k(0.5, z)
    # above the limit the rule still holds: K_{1/2}(z) = sqrt(pi / (2z)) e^{-z}
    v = bessel_k(0.5, 1e-305)
    assert abs(v.value - math.sqrt(math.pi / 2e-305)) <= v.err


@pytest.mark.parametrize("nu, z", [(2.0, 1e-160), (1.5, 1e-250), (-2.0, np.array([1.0, 1e-160]))])
def test_bessel_k_past_double_range_raises_precision_error(nu, z):
    # K_nu(z) is about Gamma(nu)/2 (2/z)^nu, past double range here, where
    # cosh(nu u) at the last nodes would overflow: the call is decided before
    # any array is sized, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PrecisionError, match=rf"K_{abs(nu)}\(z\) at z = 1e-"):
            bessel_k(nu, z)
    # inside double range the rule still holds: K_2(z) = 2/z^2 - 1/2 + O(z^2 log z)
    v = bessel_k(2.0, 1e-150)
    assert abs(v.value - 2e300) <= v.err


def test_bessel_k_is_finite_or_a_precision_error():
    # from z = 1e-308 up to 1e308, each order gives a finite value and err or
    # raises PrecisionError, with no overflow warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for nu in (0.0, 0.5, 1.0, 1.5, 2.0, 4.2, 10.0, 50.0, 150.0):
            for z in [*np.geomspace(1e-308, 100.0, 64), *np.geomspace(1e3, 1e308, 16)]:
                try:
                    v = bessel_k(nu, float(z))
                except PrecisionError:
                    continue
                assert math.isfinite(v.value) and math.isfinite(v.err), (nu, z)


@pytest.mark.parametrize("nu", [math.nan, math.inf, -math.inf])
def test_bessel_k_non_finite_order_is_a_domain_error(nu):
    # checked before the step and node count, which a NaN order would size
    with pytest.raises(DomainError, match="finite order"):
        bessel_k(nu, 1.0)


@pytest.mark.parametrize("nu, z", [(2000.0, 1.0), (-2000.0, np.array([1.0, 2.0])), (200.0, 500.0)])
def test_bessel_k_order_past_the_majorant_range_raises(nu, z):
    # 2^(|nu| - 3/2) overflows past |nu| of about 1025, Gamma(|nu|) past 171.6
    with pytest.raises(PrecisionError):
        bessel_k(nu, z)


def test_bessel_k_array_of_orders_equals_its_scalar_calls():
    # each element keeps the bits of the call on its own order and argument,
    # whether the orders come in runs or interleaved, and K_{-nu} = K_nu
    rng = np.random.default_rng(11)
    z = np.exp(rng.uniform(-4.0, 4.5, 400))
    for nus in (
        np.repeat([0.2, -0.3, 0.8, 1.5], 100),
        rng.choice([0.0, 0.5, -0.5, 1.0, 2.0, -1.7, 4.2], 400),
    ):
        values, errs = bessel_k(nus, z)
        for nu, x, value, err in zip(nus.tolist(), z.tolist(), values.tolist(), errs.tolist()):
            for order in (nu, -nu):
                one = bessel_k(order, x)
                assert (one.value, one.err) == (value, err)
    # an array of orders broadcasts with z, and one order with an array of z
    values, errs = bessel_k(np.array([[0.5], [1.5]]), np.array([1.0, 2.0, 3.0]))
    assert values.shape == errs.shape == (2, 3)
    row, row_errs = bessel_k(1.5, np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(values[1], row) and np.array_equal(errs[1], row_errs)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bessel_k_non_finite_order_in_an_array_is_a_domain_error(bad):
    with pytest.raises(DomainError, match="finite order"):
        bessel_k(np.array([0.5, bad, 1.0]), np.array([1.0, 2.0, 3.0]))


def test_bessel_k_array_of_orders_names_the_order_past_double_range():
    # K_2(1e-160) leaves double range; the order in range beside it does not
    # hide it, and the error names that order and its least z
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PrecisionError, match=r"K_2\.0\(z\) at z = 1e-160"):
            bessel_k(np.array([0.5, 0.5, -2.0]), np.array([1.0, 1e-160, 1e-160]))
