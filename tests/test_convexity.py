import math

import numpy as np
import pytest

from epsteinzeta import (
    DomainError,
    EvalConfig,
    HyperplaneChart,
    JnInput,
    PrecisionError,
    ScaleVector,
    XiValue,
    coefficient_positivity_check,
    det_jn,
    h_of_v,
    jn_closed_form,
    jn_recursion,
    log_theta_convexity,
    midpoint_convexity_xi,
    scan,
    standard_chart,
    sylvester_check,
    verify_minimum_at_equal_scales,
    xi,
)
from epsteinzeta import convexity
from epsteinzeta.convexity import CoefficientReport, assemble_jn, _c_coeff
from epsteinzeta.specfun import theta


# ---------------------------------------------------------------------------
# h(v)
# ---------------------------------------------------------------------------


def h_double_sum_oracle(v, kmax=6):
    total = 0.0
    for j in range(-kmax, kmax + 1):
        for k in range(-kmax, kmax + 1):
            c = math.pi * (k * k - j * j) ** 2 - (j * j + k * k) / v
            total += 0.5 * math.pi * c * math.exp(-math.pi * v * (j * j + k * k))
    return total


def test_h_positive_on_grid():
    for v in np.arange(1.0, 10.01, 0.1):
        hv = h_of_v(float(v))
        assert hv.value > 0.0
        assert hv.excludes_zero()


def test_h_at_one_matches_double_sum():
    oracle = h_double_sum_oracle(1.0)
    hv = h_of_v(1.0)
    assert hv.value == pytest.approx(oracle, abs=1e-13)


def test_h_large_v_asymptote():
    # keeping only the |k| = 1, j = 0 family (4 symmetric terms) of the
    # double series gives (pi/2) * 4 * (pi - 1/v) e^{-pi v}
    v = 8.0
    asym = 2.0 * math.pi * (math.pi - 1.0 / v) * math.exp(-math.pi * v)
    assert h_of_v(v).value == pytest.approx(asym, rel=1e-2)


def test_h_domain():
    with pytest.raises(DomainError):
        h_of_v(0.5)


# ---------------------------------------------------------------------------
# coefficient claims
# ---------------------------------------------------------------------------


def test_claims_at_worst_case():
    report = coefficient_positivity_check(12)
    assert report.all_positive
    assert report.q1 == pytest.approx(math.pi - 2.0, abs=1e-14)
    assert report.min_offdiagonal > 0.0
    assert report.min_pair > 0.0


def test_diagonal_coefficient_value():
    assert _c_coeff(3, 3, 1.0) == pytest.approx(-2.0 * 9.0)  # -2 k^2 / v at k = 3
    assert _c_coeff(0, 2, 1.0) == pytest.approx(16.0 * math.pi - 4.0)


def test_claims_equal_the_double_loop():
    # both minima sit at k = 1 for every kmax: the report is the same bits as
    # the minima taken over every 0 <= j < k <= kmax
    for kmax in range(2, 61):
        min_off = min(_c_coeff(j, k, 1.0) for k in range(1, kmax + 1) for j in range(k))
        min_pair = min(_c_coeff(k - 1, k, 1.0) + 0.5 * _c_coeff(k, k, 1.0) for k in range(1, kmax + 1))
        q1 = _c_coeff(0, 1, 1.0) + 0.5 * _c_coeff(1, 1, 1.0)
        expected = CoefficientReport(kmax, min_off, min_pair, q1, min_off > 0.0 and min_pair > 0.0)
        assert coefficient_positivity_check(kmax) == expected, kmax


def test_claims_domain():
    with pytest.raises(DomainError):
        coefficient_positivity_check(1)


# ---------------------------------------------------------------------------
# determinant identity
# ---------------------------------------------------------------------------


def test_det_two_by_two():
    inp = JnInput((3.0, 5.0), (1.0, 2.0))
    assert det_jn(inp) == pytest.approx(3.0 * 5.0 - (1.0 * 2.0) ** 2)
    assert det_jn(inp) == pytest.approx(11.0)


def test_det_diagonal_case():
    inp = JnInput((2.0, 3.0, 4.0), (0.0, 0.0, 0.0))
    assert det_jn(inp) == pytest.approx(24.0)


def test_det_vs_dense_oracle():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        inp = JnInput(tuple(rng.normal(size=n) * 3.0), tuple(rng.normal(size=n)))
        dense = float(np.linalg.det(assemble_jn(inp)))
        closed = det_jn(inp)
        assert closed == pytest.approx(dense, rel=1e-10, abs=1e-10)


def test_det_nonnegative_under_hypothesis():
    rng = np.random.default_rng(22)
    for _ in range(100):
        n = int(rng.integers(1, 8))
        w = rng.normal(size=n)
        zvals = w**2 + rng.uniform(0.0, 2.0, size=n)
        assert det_jn(JnInput(tuple(zvals), tuple(w))) >= 0.0


def test_determinant_past_double_range_raises_precision_error():
    # a partial sum of fsum past double range, and a product that is inf
    with pytest.raises(PrecisionError, match="determinant"):
        jn_closed_form([1e308, 2.0])
    with pytest.raises(PrecisionError, match="determinant"):
        det_jn(JnInput((1e200, 1e200), (1.0, 1.0)))
    assert jn_closed_form([1e300, 2.0]) == 2e300


def test_jn_base_cases():
    assert jn_recursion([7.0]) == pytest.approx(7.0)
    a1, a2 = 1.7, -0.4
    assert jn_recursion([a1, a2]) == pytest.approx(a1 * a2 - 1.0)
    assert jn_recursion([1.0] * 5) == pytest.approx(0.0, abs=1e-14)


def jn_recursive_reference(alphas):
    """The elimination recursion as written, one call per level."""
    if len(alphas) == 1:
        return alphas[0]
    rest = alphas[1:]
    sign = -1.0 if (len(alphas) - 1) % 2 else 1.0
    return (alphas[0] - 1.0) * jn_recursive_reference(rest) + sign * math.prod(1.0 - a for a in rest)


def test_jn_recursion_gives_the_bits_of_the_recursive_form():
    rng = np.random.default_rng(24)
    for _ in range(50):
        alphas = list(rng.normal(size=int(rng.integers(1, 40))) * 2.0)
        assert jn_recursion(alphas) == jn_recursive_reference(alphas)


def test_jn_recursion_past_the_recursion_limit():
    alphas = list(np.random.default_rng(25).uniform(1.5, 2.5, size=2000))
    assert jn_recursion(alphas) == pytest.approx(jn_closed_form(alphas), rel=1e-9)


def test_jn_recursion_matches_closed_form():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(1, 11))
        alphas = list(rng.normal(size=n) * 2.0)
        rec = jn_recursion(alphas)
        closed = jn_closed_form(alphas)
        assert rec == pytest.approx(closed, rel=1e-12, abs=1e-12)
        dense = float(np.linalg.det(np.ones((n, n)) + np.diag(np.array(alphas) - 1.0)))
        assert rec == pytest.approx(dense, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# Sylvester minors
# ---------------------------------------------------------------------------


def dense_hessian_oracle(xs, h=1e-4):
    """Reduced Hessian of prod theta(e^{x_i}) assembled from finite
    differences of theta itself; shares nothing with the analytic path."""

    def f(x):
        return theta(math.exp(x)).value

    n = len(xs)
    m = np.empty((n, n))
    for i, x in enumerate(xs):
        fpp = (f(x + h) - 2.0 * f(x) + f(x - h)) / h**2
        m[i, i] = fpp / f(x)
    for i in range(n):
        fpi = (f(xs[i] + h) - f(xs[i] - h)) / (2.0 * h) / f(xs[i])
        for j in range(n):
            if i != j:
                fpj = (f(xs[j] + h) - f(xs[j] - h)) / (2.0 * h) / f(xs[j])
                m[i, j] = fpi * fpj
    return m


def test_sylvester_single_point():
    report = sylvester_check([0.0])
    assert report.minors[0] >= 0.0


def test_sylvester_three_points_vs_dense():
    xs = [-0.5, 0.0, 0.7]
    report = sylvester_check(xs)
    assert report.all_nonnegative
    dense = dense_hessian_oracle(xs)
    for i in range(1, 4):
        oracle = float(np.linalg.det(dense[:i, :i]))
        assert report.minors[i - 1] == pytest.approx(oracle, rel=5e-4, abs=1e-8)


def test_sylvester_full_determinant_permutation_invariant():
    xs = [-1.2, 0.3, 0.9, -0.1]
    base = sylvester_check(xs).minors[-1]
    rng = np.random.default_rng(31)
    for _ in range(4):
        perm = list(rng.permutation(4))
        shuffled = sylvester_check([xs[i] for i in perm]).minors[-1]
        assert shuffled == pytest.approx(base, rel=1e-10)


def test_sylvester_random_points():
    rng = np.random.default_rng(32)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        xs = rng.uniform(-2.0, 2.0, size=n)
        assert sylvester_check(xs).all_nonnegative


@pytest.mark.parametrize("lo, hi", [(-30.0, 30.0), (-8.0, -2.0)])
def test_sylvester_minors_nonnegative_far_from_zero(lo, hi):
    # F''(x_i) enters the closed form as it is; taken back out of
    # F'' + F'^2 it cancels at negative x, where F' is near -1/2
    rng = np.random.default_rng(34)
    for _ in range(1000):
        xs = rng.uniform(lo, hi, size=int(rng.integers(2, 6)))
        assert sylvester_check(xs).all_nonnegative, xs
    assert sylvester_check([-5.0, -5.0]).all_nonnegative
    assert sylvester_check([-20.0, 0.0]).all_nonnegative


@pytest.mark.parametrize("x", [-4.0, -1.7, -0.3, 0.3, 1.7])
def test_sylvester_one_by_one_minor_matches_mpmath(x):
    # the 1 x 1 minor is f''/f with f(x) = theta(e^x); a negative x goes
    # through F'(-u) = -1/2 - F'(u) and F''(-u) = F''(u)
    import mpmath

    with mpmath.workdps(40):

        def f(y):
            return mpmath.jtheta(3, 0, mpmath.exp(-mpmath.pi * mpmath.exp(y)))

        exact = mpmath.diff(f, x, 2) / f(x)
    [minor] = sylvester_check([x]).minors
    assert minor == pytest.approx(float(exact), rel=1e-12)


def test_chain_edges_return_limits_or_typed_errors():
    # past |x| of about 5.5, F' and F'' are 0 in double precision at t = e^|x|
    assert sylvester_check([800.0]).minors == (0.0,)
    assert sylvester_check([-800.0]).minors == (0.25,)
    assert sylvester_check([-800.0, 800.0]).minors == (0.25, 0.0)
    with pytest.raises(PrecisionError):
        log_theta_convexity([800.0])
    with pytest.raises(PrecisionError):
        log_theta_convexity([-math.inf])
    with pytest.raises(DomainError, match="^u must be a number"):
        log_theta_convexity([0.5, math.nan])
    with pytest.raises(DomainError, match="^u must be a number"):
        sylvester_check([math.nan, 0.0])


def test_chart_point_past_double_range_is_a_domain_error():
    # e^800 overflows and e^-800 underflows: the scale checks refuse the
    # point, with no numpy warning, alone, in a midpoint triple and in a scan
    chart = standard_chart(3)
    with pytest.raises(DomainError, match="positive finite"):
        chart.scales([800.0, 0.0])
    with pytest.raises(DomainError, match="positive finite"):
        midpoint_convexity_xi(3, 0.7, chart, [800.0, 0.0], [0.0, 0.0])
    with pytest.raises(DomainError, match="positive finite"):
        scan(3, 0.7, chart, [(-800.0, 800.0)] * 2, [3, 3])
    # 1e308 + 1e308 overflows to the midpoint inf, refused as its scales are
    with pytest.raises(DomainError, match="positive finite"):
        midpoint_convexity_xi(3, 0.7, chart, [1e308, 0.0], [1e308, 0.0])


def test_chart_point_of_the_wrong_length_is_a_domain_error():
    chart = standard_chart(3)
    with pytest.raises(DomainError, match="2 coordinates"):
        chart.scales([1.0, 2.0, 3.0])
    with pytest.raises(DomainError, match="2 coordinates"):
        midpoint_convexity_xi(3, 0.7, chart, [1.0, 2.0, 3.0], [0.0, 0.0])
    with pytest.raises(DomainError, match="2 coordinates"):
        midpoint_convexity_xi(3, 0.7, chart, [0.0, 0.0], [1.0])
    with pytest.raises(DomainError, match="2 coordinates"):
        midpoint_convexity_xi(3, 0.7, chart, [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


def test_chart_of_another_dimension_is_a_domain_error():
    # the one array check counts the scales of every chart row against n
    chart = standard_chart(3)
    with pytest.raises(DomainError, match="expected 4 scales, got 3"):
        midpoint_convexity_xi(4, 0.7, chart, [0.0, 0.0], [0.5, 0.5])
    with pytest.raises(DomainError, match="expected 4 scales, got 3"):
        scan(4, 0.7, chart, [(-1.0, 1.0)] * 2, [3, 3])


# ---------------------------------------------------------------------------
# log-theta convexity
# ---------------------------------------------------------------------------


def test_log_theta_convexity_at_zero_and_grid():
    report = log_theta_convexity([0.0, 0.5, -0.5, 1.3, -1.3, 3.0])
    assert report.all_positive


def test_log_theta_convexity_large_u_asymptote():
    # with t = e^u large, f''(u) ~ 2 pi t (pi t - 1) e^{-pi t}
    u = 3.0
    t = math.exp(u)
    expected = 2.0 * math.pi * t * (math.pi * t - 1.0) * math.exp(-math.pi * t)
    report = log_theta_convexity([u])
    assert report.second_derivatives[0].value == pytest.approx(expected, rel=1e-6)


def test_log_theta_convexity_symmetry():
    report = log_theta_convexity([1.3, -1.3])
    a, b = report.second_derivatives
    assert abs(a.value - b.value) <= a.err + b.err


def test_log_theta_convexity_raises_past_the_normal_range():
    # h(v) ~ 2 pi^2 e^{-pi v} leaves the normal doubles near v = 225 (u = 5.42);
    # a 0.0 or subnormal value there is no evidence of convexity
    with pytest.raises(PrecisionError):
        h_of_v(240.0)
    with pytest.raises(PrecisionError):
        log_theta_convexity([5.5])
    report = log_theta_convexity([5.0])
    assert report.all_positive


@pytest.mark.parametrize("u", [2.0, 3.0, 4.0, 4.5, 5.0, 5.4])
def test_log_theta_convexity_err_covers_mpmath_series(u):
    # 80-digit series of t^2 h(t) / theta(t)^2 at the exact t = e^u; the
    # rounding of t = fl(e^u) moves the value by about pi t ulps
    import mpmath

    [got] = log_theta_convexity([u]).second_derivatives
    with mpmath.workdps(80):
        t = mpmath.exp(mpmath.mpf(u))

        def series(power):
            return mpmath.nsum(
                lambda k: k**power * mpmath.exp(-mpmath.pi * t * k * k), [1, mpmath.inf]
            )

        th, thp, thpp = 1 + 2 * series(0), -2 * mpmath.pi * series(2), 2 * mpmath.pi**2 * series(4)
        exact = t * t * (thpp * th - thp * thp + th * thp / t) / th**2
        assert abs(mpmath.mpf(got.value) - exact) <= got.err


def test_log_theta_convexity_empty_grid():
    with pytest.raises(DomainError):
        log_theta_convexity([])


# ---------------------------------------------------------------------------
# midpoint convexity and the minimum
# ---------------------------------------------------------------------------


def test_chart_validation():
    with pytest.raises(DomainError):
        HyperplaneChart(np.array([[1.0], [0.5]]))  # column sum 1.5
    chart = standard_chart(3)
    assert chart.j == 2
    assert np.allclose(chart.A.sum(axis=0), 0.0)
    with pytest.raises(DomainError, match="standard chart needs n >= 2"):
        standard_chart(1)


def test_midpoint_at_symmetric_pair_touches_minimum():
    chart = standard_chart(2)
    report = midpoint_convexity_xi(2, 0.6, chart, [-0.8], [0.8])
    assert report.holds
    center = xi(2, 0.6, ScaleVector.unit(2))
    assert report.mid.value == pytest.approx(center.value, abs=1e-12)
    assert report.mid.value <= 0.5 * (report.left.value + report.right.value)


def test_midpoint_random_pairs():
    rng = np.random.default_rng(41)
    chart = standard_chart(3)
    for _ in range(20):
        b1 = rng.uniform(-1.0, 1.0, size=2)
        b2 = rng.uniform(-1.0, 1.0, size=2)
        assert midpoint_convexity_xi(3, 1.1, chart, b1, b2).holds


def test_midpoint_batch_rows_equal_one_pair_calls():
    # the pairs of one engine call get the reports of one call per pair, bit for bit
    chart = standard_chart(4)
    b1, b2 = np.random.default_rng(5).uniform(-1.0, 1.0, size=(2, 6, chart.j))
    batch = convexity._midpoints(4, 1.3, chart, b1, b2, EvalConfig())
    assert batch == [midpoint_convexity_xi(4, 1.3, chart, x, y) for x, y in zip(b1, b2)]


def test_midpoint_degenerate_pair():
    chart = standard_chart(3)
    report = midpoint_convexity_xi(3, 1.1, chart, [0.3, -0.2], [0.3, -0.2])
    assert abs(report.slack) <= 2.0 * report.mid.err + report.left.err + report.right.err


def test_minimum_at_equal_scales_small():
    report = verify_minimum_at_equal_scales(3, 0.9, samples=40, seed=1)
    assert report.holds
    assert report.min_margin > 0.0


def test_minimum_margin_is_none_without_a_far_draw():
    # the one draw at n = 2, seed 1 lies within 0.05 of the equal-scale point
    report = verify_minimum_at_equal_scales(2, 0.5, samples=1, seed=1)
    assert report.min_margin is None
    assert report.holds and report.failures == 0


def test_minimum_counts_one_failure_per_draw(monkeypatch):
    # every draw lies 1 below the base: far draws fail both tests, once each
    def below_base(s, a, cfg):
        return [XiValue(-float(i > 0), 1e-12, len(scales), x) for i, (x, scales) in enumerate(zip(s, a))]

    monkeypatch.setattr(convexity, "_xi_nodes", below_base)
    report = verify_minimum_at_equal_scales(3, 0.9, samples=5)
    assert report.failures == 5
    assert not report.holds


@pytest.mark.parametrize("n", [2, 5, 8])
def test_minimum_draws_match_one_draw_per_sample(n, monkeypatch):
    # one (samples, n - 1) draw through the chart gives the bits of drawing
    # each sample alone and balancing it by -sum, each row sorted ascending
    # for the engine; from n = 9 the chart's sequential sum and numpy's
    # pairwise sum may part by an ulp
    seen = []

    def record(s, a, cfg):
        seen.extend(a)
        return [XiValue(0.0, 0.0, n, 0.4)] * len(a)

    monkeypatch.setattr(convexity, "_xi_nodes", record)
    verify_minimum_at_equal_scales(n, 0.4, samples=7, seed=3)
    rng = np.random.default_rng(3)
    expected = [(1.0,) * n]
    for _ in range(7):
        logs = rng.uniform(-1.0, 1.0, size=n - 1)
        expected.append(tuple(sorted(np.exp(np.append(logs, -logs.sum())).tolist())))
    assert seen == expected


def test_minimum_with_more_samples_than_one_call_takes_is_a_domain_error():
    # refused before the draws are allocated: 4e8 of them would take gigabytes
    with pytest.raises(DomainError, match="131072"):
        verify_minimum_at_equal_scales(3, 0.9, 400_000_000)


def test_minimum_with_negative_samples_is_a_domain_error():
    # refused by the node-count check, not by numpy's draw; no draws stay vacuous
    with pytest.raises(DomainError, match="-1 nodes"):
        verify_minimum_at_equal_scales(3, 0.9, -1)
    report = verify_minimum_at_equal_scales(3, 0.9, 0)
    assert report.holds and report.failures == 0 and report.min_margin is None


def test_minimum_needs_two_dimensions():
    with pytest.raises(DomainError):
        verify_minimum_at_equal_scales(1, 0.2, samples=5)


def test_minimum_base_point_equality():
    base = xi(3, 0.9, ScaleVector.unit(3))
    again = xi(3, 0.9, ScaleVector([1.0, 1.0, 1.0]))
    assert base.value == again.value


def test_minimum_dimension_nine_above_unit_scale_floor():
    value = xi(9, 9.0 / 4.0, ScaleVector([2.0, 0.5] + [1.0] * 7))
    assert value.value > -0.065884758538
