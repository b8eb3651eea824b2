import itertools
import math

import numpy as np
import pytest

from epsteinzeta import (
    DomainError,
    EvalConfig,
    PoleError,
    PrecisionError,
    ScaleVector,
    SpecialPointError,
    decide_signs,
    hat_xi,
    midpoint_convexity_xi,
    standard_chart,
    verify_minimum_at_equal_scales,
    xi,
    xi_chowla_selberg,
    xi_many,
    z,
)
from epsteinzeta.epstein import _groups, _log_theta, _theta_sums

REF_XI_9 = -0.065884758538
REF_XI_10 = 0.205903040487


def test_scale_vector_volume_cache():
    sv = ScaleVector([1.3, 0.7, 2.1])
    assert sv.V == pytest.approx(math.sqrt(1.3 * 0.7 * 2.1), rel=1e-14)
    assert sv.ascending == (0.7, 1.3, 2.1) and sv.a == (1.3, 0.7, 2.1)
    with pytest.raises(DomainError):
        ScaleVector([1.0, -2.0])
    with pytest.raises(DomainError):
        ScaleVector([])


def test_golden_values():
    v9 = xi(9, 9.0 / 4.0, ScaleVector.unit(9))
    assert v9.value == pytest.approx(REF_XI_9, abs=1e-9)
    v10 = xi(10, 5.0 / 2.0, ScaleVector.unit(10))
    assert v10.value == pytest.approx(REF_XI_10, abs=1e-9)


def test_xi_homogeneity():
    n, s, lam = 2, 0.8, 3.0
    factor = lam ** (n / 2.0 - 2.0 * s)
    # small equal scales put every theta argument of S(s; a) below the
    # reflection x = 1 for the first nodes
    for a in (ScaleVector([1.0, 2.0]), ScaleVector([2.0**-7, 2.0**-7])):
        left = xi(n, s, a.scaled(lam))
        right = xi(n, s, a)
        assert abs(left.value - factor * right.value) <= left.err + factor * right.err + 1e-12


def test_xi_pole_guards():
    with pytest.raises(PoleError):
        xi(3, 0.0, ScaleVector.unit(3))
    with pytest.raises(PoleError):
        xi(3, 1.5, ScaleVector.unit(3))
    with pytest.raises(PoleError):
        xi(3, 1.5 - 1e-9, ScaleVector.unit(3))
    with pytest.raises(DomainError):
        xi(3, 0.7, ScaleVector.unit(4))


@pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan])
def test_non_finite_s_is_a_domain_error(s):
    unit = ScaleVector.unit(2)
    with pytest.raises(DomainError, match="finite"):
        xi(2, s, unit)
    with pytest.raises(DomainError, match="finite"):
        z(2, s, unit)
    with pytest.raises(DomainError, match="finite"):
        decide_signs([(2, 0.5, unit), (2, s, unit)])
    # the chart callers check their one array of nodes the same way
    with pytest.raises(DomainError, match="finite"):
        verify_minimum_at_equal_scales(2, s, 3)
    with pytest.raises(DomainError, match="finite"):
        midpoint_convexity_xi(2, s, standard_chart(2), [0.5], [-0.5])


@pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan])
def test_tolerance_that_is_not_positive_is_a_domain_error(tol):
    with pytest.raises(DomainError, match="tol must be positive"):
        EvalConfig(tol=tol)


def test_z_matches_one_dimensional_zeta():
    # Z_1(s; 1) = 2 zeta(2s); at s = 2 that is pi^4 / 45
    v = z(1, 2.0, ScaleVector.unit(1))
    assert v.value == pytest.approx(math.pi**4 / 45.0, abs=1e-10)


def test_z_trivial_zero():
    v = z(3, -1.0, ScaleVector([1.3, 0.7, 2.1]))
    assert v.value == 0.0
    assert v.err == 0.0


def test_z_special_point():
    with pytest.raises(SpecialPointError):
        z(2, 0.0, ScaleVector.unit(2))


def brute_force_z2_s3(radius=2000):
    ks = np.arange(-radius, radius + 1, dtype=float)
    total = 0.0
    for j in ks:
        q = j * j + ks * ks
        if j == 0:
            q = q[q > 0]
        total += float(np.sum(q**-3.0))
    # omitted mass ~ 2 pi integral_R^inf r^-6 r dr = pi / (2 R^4)
    return total, math.pi / (2.0 * radius**4)


def test_z_square_lattice_vs_brute_force():
    oracle, tail = brute_force_z2_s3()
    assert oracle == pytest.approx(4.6589136156, abs=1e-8)  # = 4 zeta(3) beta(3)
    v = z(2, 3.0, ScaleVector.unit(2))
    assert abs(v.value - oracle) <= 1e-8 + tail


def test_hat_xi_matches_xi():
    assert hat_xi(10, 0.5).value == xi(10, 2.5, ScaleVector.unit(10)).value


def test_hat_xi_reflection():
    left = hat_xi(7, 0.3)
    right = hat_xi(7, 0.7)
    assert abs(left.value - right.value) <= left.err + right.err


def test_hat_xi_monotone_in_dimension():
    v9 = hat_xi(9, 0.5).value
    v10 = hat_xi(10, 0.5).value
    v11 = hat_xi(11, 0.5).value
    assert v11 > v10 > v9


def test_hat_xi_domain():
    with pytest.raises(DomainError):
        hat_xi(5, 0.0)
    with pytest.raises(DomainError):
        hat_xi(5, 1.0)


@pytest.mark.parametrize(
    "n,s,scales",
    [
        (2, 0.6, (1.5, 0.8)),
        (5, 1.2, (1.0, 1.0, 1.0, 1.0, 1.0)),
        (3, 0.41, (2.0, 2.0, 0.25)),
    ],
)
def test_functional_equation_examples(n, s, scales):
    left = xi(n, s, ScaleVector(scales))
    right = xi(n, n / 2.0 - s, ScaleVector(scales).reciprocal())
    assert abs(left.value - right.value) <= left.err + right.err
    # both sides sum the same two kernel sums with their roles swapped, so
    # the Chowla-Selberg route is the independent check of the sums
    other = xi_chowla_selberg(n, s, ScaleVector(scales))
    assert abs(left.value - other.value) <= left.err + other.err


def test_functional_equation_random_sample():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        while True:
            s = float(rng.uniform(0.05, n / 2.0 - 0.05))
            if abs(s - n / 4.0) > 0.01:
                break
        scales = ScaleVector(np.exp(rng.uniform(-1.0, 1.0, size=n)))
        left = xi(n, s, scales)
        right = xi(n, n / 2.0 - s, scales.reciprocal())
        assert abs(left.value - right.value) <= left.err + right.err
        # the independent route where it is cheap and generic
        if n <= 4 and abs(s - round(2.0 * s) / 2.0) >= 0.02:
            other = xi_chowla_selberg(n, s, scales)
            assert abs(left.value - other.value) <= left.err + other.err


def test_homogeneity_random_sample():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        s = float(rng.uniform(0.1, n / 2.0 - 0.1))
        lam = float(rng.uniform(0.3, 3.0))
        a = ScaleVector(np.exp(rng.uniform(-1.0, 1.0, size=n)))
        factor = lam ** (n / 2.0 - 2.0 * s)
        left = xi(n, s, a.scaled(lam))
        right = xi(n, s, a)
        tol = left.err + abs(factor) * right.err + 1e-12 * abs(left.value)
        assert abs(left.value - factor * right.value) <= tol


def test_permutation_invariance():
    # V and both kernel sums see the scales only as a sorted vector, so xi is
    # invariant bit for bit; draws from a few values repeat some scales
    rng = np.random.default_rng(3)
    for n in range(1, 11):
        base = rng.choice(np.exp(rng.uniform(-1.0, 1.0, 4)), size=n).tolist()
        s = float(rng.uniform(0.1, n / 2.0 - 0.1))
        ref = xi(n, s, ScaleVector(base))
        for _ in range(3):
            perm = ScaleVector([base[i] for i in rng.permutation(n)])
            assert perm.V == ScaleVector(base).V
            shuffled = xi(n, s, perm)
            assert (shuffled.value, shuffled.err) == (ref.value, ref.err)


def direct_series_oracle(n, s, radius):
    """Brute-force sum of |k|^{-2s} over the integer ball, with the radial
    integral estimate of the omitted mass.  Independent of the package's
    theta integral."""
    axes = [np.arange(-radius, radius + 1, dtype=float)] * n
    grids = np.meshgrid(*axes, indexing="ij")
    q = sum(g * g for g in grids)
    q = q[q > 0]
    total = float(np.sum(q ** (-s)))
    surface = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    tail = surface * radius ** (n - 2.0 * s) / (2.0 * s - n)
    return total + tail, tail / radius


@pytest.mark.parametrize(
    "n,s,radius",
    [(1, 2.0, 3000), (2, 2.5, 1200), (3, 3.5, 60), (4, 5.0, 30)],
)
def test_agreement_with_direct_series(n, s, radius):
    oracle, slack = direct_series_oracle(n, s, radius)
    factor = math.pi ** (-s) * math.gamma(s)  # V = 1 at unit scales
    v = xi(n, s, ScaleVector.unit(n))
    assert abs(v.value - factor * oracle) <= 1e-8 + factor * 2.0 * slack


@pytest.mark.parametrize("n,s", [(2, 0.6), (4, 1.1), (8, 2.3)])
def test_monotone_in_dimension_unhatted(n, s):
    assert xi(n + 1, s, ScaleVector.unit(n + 1)).value > xi(n, s, ScaleVector.unit(n)).value


def test_lambda_vs_theta_product_quadrature():
    # independent oracle for the pole-free part of Xi: adaptive quadrature of
    # the theta-product integrals, S(s; a) and S(n/2 - s; 1/a),
    #   int_1^inf t^{s-1} (prod theta(t a_i^2) - 1) dt,
    #   int_1^inf t^{n/2-s-1} (prod theta(t / a_i^2) - 1) dt,
    # weighted by V and 1/V next to the pole terms
    from scipy.integrate import quad

    from epsteinzeta.specfun import theta

    def product_integrand(t, exponent, scales):
        prod = 1.0
        for a in scales:
            prod *= theta(t * a * a).value
        return t ** (exponent - 1.0) * (prod - 1.0)

    for n, s, a in [(2, 0.7, [1.0, 1.0]), (3, 1.1, [1.0, 1.5, 0.7])]:
        first, e1 = quad(product_integrand, 1.0, 40.0, args=(s, a), epsabs=1e-13, limit=300)
        second, e2 = quad(
            product_integrand, 1.0, 40.0, args=(n / 2.0 - s, [1.0 / x for x in a]),
            epsabs=1e-13, limit=300,
        )
        v = ScaleVector(a).V
        oracle = -v / s - (1.0 / v) / (n / 2.0 - s) + v * first + second / v
        ours = xi(n, s, ScaleVector(a))
        assert abs(ours.value - oracle) <= 1e-9 + v * e1 + e2 / v


LARGE_S = np.concatenate([np.arange(100.0, 200.5, 0.75), -np.arange(100.0, 200.5, 0.75)])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "n, scale_sets, s_values",
    [
        # the positive one of the orders n/2 - s and s leaves double range
        # through Gamma(beta) x_min^{-beta}: at unit scales past |s| of about
        # 171, where Gamma(beta) does, and sooner at a small scale
        (2, [(1.0, 1.0), (0.125, 8.0)], LARGE_S),
        (10, [(1.0,) * 10, (0.125, 8.0) + (1.0,) * 8], LARGE_S),
        # V = 0.05^{21/2} is about e^-31, and V S(s; a) leaves double range
        # between s = 87 (about 3.0e301) and s = 89 (about 3.7e309)
        (21, [(0.05,) * 21], [85.0, 86.0, 89.0, 90.0]),
        # V = 5^{1/2}: near s = 85.6 the kernel sum is finite but V times it is not
        (2, [(0.05, 100.0)], [85.0, 85.54, 85.58, 85.62]),
    ],
    ids=["2", "10", "21-small-volume", "2-volume-times-sum"],
)
def test_large_orders_are_finite_or_precision_errors(n, scale_sets, s_values):
    # nodes past double range raise PrecisionError, every other node is
    # finite; no warning escapes
    outcomes = set()
    for s in s_values:
        for scales in scale_sets:
            try:
                v = xi(n, float(s), ScaleVector(scales))
            except PrecisionError:
                outcomes.add("rejected")
                continue
            assert math.isfinite(v.value) and math.isfinite(v.err), (n, s, scales)
            outcomes.add("finite")
    assert outcomes == {"finite", "rejected"}


def test_overflowing_term_is_rejected_before_any_table():
    # a typed error exactly where Xi leaves double range, and no earlier:
    # Xi_10(-58.43; 100 .. 100) is 5.72e299 and is returned; at s = -80 V S
    # of the 1/a sum leaves double range, which is a PrecisionError from
    # the sum's log, after no more work than a node inside the range
    value = xi(10, -58.43, ScaleVector((100.0,) * 10))
    assert value.value == pytest.approx(5.7224e299, rel=1e-4)
    with pytest.raises(PrecisionError, match="overflows double precision"):
        xi(10, -80.0, ScaleVector((100.0,) * 10))


@pytest.mark.parametrize("scales", [(1e100, 1e-100), (1e120, 1.0, 1e-120)])
def test_group_far_above_the_least_scale_needs_no_overflow(scales):
    # c_g^2 t of the large scale passes double range at the nodes of the
    # small one; it is inf there, which is exact, and no warning escapes
    # the suite's filterwarnings = error.  Chowla-Selberg agrees:
    # 3.6178989755461e140 against 3.6178989755462e140 at (1e100, 1e-100)
    n = len(scales)
    v = xi(n, 0.3, ScaleVector(scales))
    other = xi_chowla_selberg(n, 0.3, ScaleVector(scales))
    assert math.isfinite(v.value) and math.isfinite(v.err)
    assert abs(v.value - other.value) <= v.err + other.err


def _mp_xi(s, terms):
    """pi^{-s} Gamma(s) times `terms`, at 40 digits, for a closed-form Xi."""
    import mpmath

    with mpmath.workdps(40):
        s = mpmath.mpf(s)
        return mpmath.pi**-s * mpmath.gamma(s) * terms(s)


@pytest.mark.parametrize("a", [1e30, 1e-30, 1e10, 1e100, 1.22e153, 1.0 / 1.22e153])
def test_extreme_volumes_match_one_dimensional_closed_form(a):
    # Xi_1(0.3; a) = 2 sqrt(a) pi^{-s} Gamma(s) a^{-2s} zeta(2s) is about
    # -8.3e-3 a^{-0.1}, while its pole terms are of order V = sqrt(a) or 1/V:
    # evaluated at 2^k a, of volume near 1, and scaled back by homogeneity,
    # the value lies within its err, and err is below 1e-10 of it; near
    # 1.22e153 the rule's tail bound at a itself would leave double range
    import mpmath

    v = xi(1, 0.3, ScaleVector((a,)))
    am = mpmath.mpf(a)
    exact = _mp_xi(0.3, lambda s: 2 * mpmath.sqrt(am) * am ** (-2 * s) * mpmath.zeta(2 * s))
    assert abs(v.value - exact) <= v.err
    assert v.err <= 1e-10 * abs(float(exact))


@pytest.mark.parametrize("s, a", [(-100.3, 0.01), (120.3, 1.0), (160.7, 1.0)])
def test_large_orders_match_one_dimensional_closed_form(s, a):
    # Xi_1(s; a) = sqrt(a) pi^{-s} Gamma(s) 2 a^{-2s} zeta(2s); the order
    # -100.3 has x_min = pi 1e-4, where x^{100.3} alone leaves double range
    import mpmath

    v = xi(1, s, ScaleVector((a,)))
    am = mpmath.mpf(a)
    exact = _mp_xi(s, lambda s: mpmath.sqrt(am) * 2 * am ** (-2 * s) * mpmath.zeta(2 * s))
    assert math.isfinite(v.err) and abs(v.value - exact) <= v.err


@pytest.mark.parametrize("s", [150.0, -150.0])
def test_large_orders_match_square_lattice_closed_form(s):
    # Z_2(s; 1, 1) = 4 zeta(s) L(s, chi_4), and Xi(s) = Xi(1 - s)
    import mpmath

    v = xi(2, s, ScaleVector.unit(2))
    exact = _mp_xi(max(s, 1 - s), lambda s: 4 * mpmath.zeta(s) * mpmath.dirichlet(s, [0, 1, 0, -1]))
    assert math.isfinite(v.err) and abs(v.value - exact) <= v.err


def test_negative_order_kernel_stays_in_double_range():
    # the theta integral of order -100.3 at c = 0.01, whose first lattice
    # value is x_min = pi 1e-4, where x^{100.3} alone leaves double range:
    # the rule sums logs, and its value and err stay finite and cover the
    # 1-d closed form 2 (pi c^2)^{-beta} Gamma(beta) zeta(2 beta) c^{...}
    import mpmath

    beta, c = -100.3, 0.01
    [value], [err] = _theta_sums([beta], [(c,)], [(1,)], [1e-10])
    value, err = math.exp(value), math.exp(err)
    assert math.isfinite(value) and 0.0 < err < 1e-9
    with mpmath.workdps(40):
        # Xi_1(s; c) = sqrt(c) pi^{-s} Gamma(s) 2 c^{-2s} zeta(2s) = V S(s; c)
        # - V/s - (1/V)/(1/2 - s) + S(1/2 - s; 1/c)/V, and the last sum, of
        # order 100.8 over the scale 100, is below e^{-30000}
        s, cm = mpmath.mpf(beta), mpmath.mpf(c)
        volume = mpmath.sqrt(cm)
        xi_1 = _mp_xi(beta, lambda s: volume * 2 * cm ** (-2 * s) * mpmath.zeta(2 * s))
        exact = (xi_1 + volume / s + 1 / (volume * (mpmath.mpf(0.5) - s))) / volume
        assert abs(value - exact) <= err


def test_precision_error_carries_bound():
    # the 2^+-20 axes need no lattice: their sums are theta integrals like
    # any other, and the node is finite within its err of Chowla-Selberg
    v = xi(2, 0.7, ScaleVector([2.0**20, 2.0**-20]))
    assert math.isfinite(v.value) and math.isfinite(v.err)
    # a scale whose square leaves double range is a PrecisionError of that
    # node, alone and in a batch, with no warning
    with pytest.raises(PrecisionError, match="squared"):
        xi(1, 0.3, ScaleVector([1e300]))
    batch = [(3, 0.7, (1.0 + 0.01 * i, 1.0, 1.0)) for i in range(20)]
    with pytest.raises(PrecisionError, match="squared"):
        xi_many(batch + [(3, 0.5, (1e160, 1e-160, 1.0))])
    # the reciprocal of the smallest scale squared past double range
    for count in (1, 16):
        with pytest.raises(PrecisionError, match="reciprocal"):
            xi_many([(1, 0.3, (1e-155,))] * count)
    # a product of the scales past double range, above or below
    for a in ((1e200, 1e200), (1e200, 1e200, 1e-200, 1e-200), (2.0**-540, 2.0**540) * 2):
        with pytest.raises(PrecisionError, match="volume"):
            xi(len(a), 0.3, ScaleVector(a))


@pytest.mark.parametrize("a", [(1e154,), (1e-154,)])
def test_scales_at_the_edge_of_double_range_raise_precision_error(a):
    # 2 pi a^2, or 2 pi / a^2, past double range: a PrecisionError with no
    # warning, next to a scale whose sums stay in range
    with pytest.raises(PrecisionError):
        xi(1, 0.3, ScaleVector(a))
    v = xi(1, 0.3, ScaleVector((8.2e152,)))
    assert math.isfinite(v.value) and math.isfinite(v.err)


@pytest.mark.parametrize("s", [1e100, -1e40])
def test_order_whose_decay_rate_rounds_to_zero_raises_precision_error(s):
    # from an order of about 2^106 on, b/tp rounds to lam in the plan's decay
    # rate lam - b/tp: a PrecisionError naming the order, through every entry
    # that evaluates the node, not a bare ValueError from log
    a = ScaleVector((1.0, 2.0))
    calls = [lambda: xi(2, s, a), lambda: decide_signs([(2, s, a)]), lambda: verify_minimum_at_equal_scales(2, s, 3)]
    if s > 0:  # z is exactly 0 at negative integers, with no Xi
        calls.append(lambda: z(2, s, a))
    for call in calls:
        with pytest.raises(PrecisionError, match="order 1e\\+(100|40)"):
            call()


@pytest.mark.parametrize("scales", [(2.437285730321045e153, 1.5256555806955473e153), (5e153,), (1.0 / 3e153,)])
def test_key_of_a_tiny_squared_scale_needs_no_overflow(scales):
    # below c_0^2 of about 1.8e-307, 100/(pi c_0^2) and pi/x of the key's
    # theta values pass double range, where their results are exact: no
    # warning escapes the suite's filterwarnings = error
    n = len(scales)
    for s in (0.3, 3.4276634033413362):
        try:
            v = xi(n, s, ScaleVector(scales))
        except PrecisionError:
            continue
        assert math.isfinite(v.value) and math.isfinite(v.err)


def test_precision_error_message_does_not_depend_on_the_batch():
    # one node past double range raises the same message alone and among
    # 20 copies of itself
    node = (2, 0.5, (1e160, 1e-160))
    messages = []
    for batch in ([node], [node] * 20):
        with pytest.raises(PrecisionError) as raised:
            xi_many(batch)
        messages.append(str(raised.value))
    with pytest.raises(PrecisionError) as raised:
        xi(*node)
    assert messages == [str(raised.value)] * 2
    assert "squared overflows double precision" in messages[0]


# the last two put x = 4/mmax far below the reflection x = 1
@pytest.mark.parametrize(
    "dim, mmax", [(1, 30), (2, 40), (3, 30), (4, 20), (5, 12), (2, 400), (3, 300)]
)
def test_radial_counts_match_enumeration(dim, mmax):
    # `dim` equal scales form one group, whose theta product theta(x)^dim
    # must equal the lattice sum over Z^dim, enumerated point by point, at
    # x on both sides of the reflection x = 1
    for x in (4.0 / mmax, 0.5, 1.0, 1.7):
        r = math.isqrt(int(40.0 / (math.pi * x))) + 2
        squares = np.arange(-r, r + 1, dtype=float) ** 2
        norms = squares
        for _ in range(dim - 1):
            norms = np.add.outer(norms, squares)
        brute = math.fsum(np.exp(-math.pi * x * norms).ravel().tolist())
        big_l, log_excess = _log_theta(np.array([[x]]), np.array([[float(dim)]]))
        assert math.exp(big_l[0]) == pytest.approx(brute, rel=4e-15 * dim)
        assert math.exp(log_excess[0]) == pytest.approx(brute - 1.0, rel=1e-13 * dim / (1.0 - 1.0 / brute))


def test_anisotropic_grouping_matches_plain_enumeration():
    # scales with repeats form groups of equal scales; a nested-loop
    # lattice sum over pi Q <= 34, through scipy's gammaincc, must agree
    from scipy.special import gammaincc

    def nested_oracle(n, s, a, big_t=34.0):
        def one_sum(beta, sc):
            qmax = big_t / math.pi
            points = []

            def rec(i, acc):
                if i == n:
                    if acc > 0:
                        points.append(acc)
                    return
                lim = int(math.floor(math.sqrt(max(qmax - acc, 0.0)) / sc[i]))
                for k in range(-lim, lim + 1):
                    rec(i + 1, acc + (sc[i] * k) ** 2)

            rec(0, 0.0)
            x = math.pi * np.array(points)
            return float(np.sum(x ** (-beta) * gammaincc(beta, x) * math.gamma(beta)))

        v = math.sqrt(np.prod(a))
        return (
            -v / s
            - (1.0 / v) / (n / 2.0 - s)
            + v * one_sum(s, a)
            + one_sum(n / 2.0 - s, [1.0 / x for x in a]) / v
        )

    for n, s, a in [(3, 1.1, [1.0, 1.5, 0.7]), (4, 0.9, [0.8, 0.8, 1.2, 1.2])]:
        ours = xi(n, s, ScaleVector(a), EvalConfig(tol=1e-11))
        oracle = nested_oracle(n, s, a)
        assert ours.value == pytest.approx(oracle, abs=5e-11)


def test_err_covers_rounded_reflected_order():
    # 5 - s rounds by 4.4e-16 here, and dS/dbeta carries a factor
    # log(1/x_min) of about 12.7 at the 2^-10 axis; the exact value is an
    # mpmath lattice sum with exact pi and exact order at 30 digits
    s = 0.9698635322674956
    v = xi(10, s, ScaleVector((2.0**10, 2.0**-10) + (1.0,) * 8))
    assert abs(v.value - 2.2783887763942010e23) <= v.err


def _mp_xi_direct(s, a):
    """Xi_n(s; a) for n <= 2 and s >= 8 at 40 digits: V pi^{-s} Gamma(s) times
    zeta(2s) in closed form for n = 1, else the Dirichlet series over the
    Q <= rho min(a)^2 with rho^{s-1} = 1e22, whose tail is below 1e-20 of it."""
    import mpmath

    am = [mpmath.mpf(x) for x in a]
    cap = min(a) ** 2 * 10.0 ** (22.0 / (s - 1.0))

    def z(s):
        if len(a) == 1:
            return 2 * am[0] ** (-2 * s) * mpmath.zeta(2 * s)
        return mpmath.fsum(
            (2 - (i == 0)) * (2 - (j == 0)) * ((am[0] * i) ** 2 + (am[1] * j) ** 2) ** -s
            for i in range(int(math.sqrt(cap) / a[0]) + 1)
            for j in range(int(math.sqrt(cap) / a[1]) + 1)
            if (i or j) and (a[0] * i) ** 2 + (a[1] * j) ** 2 <= cap
        )

    return _mp_xi(s, lambda s: mpmath.sqrt(mpmath.fprod(am)) * z(s))


def test_err_covers_rounding_of_x_at_large_orders():
    # x = pi Q is rounded, and a term of order beta moves by about
    # (|beta| + x + 1) times its relative rounding, so err must grow with |s|
    rng = np.random.default_rng(19)
    for lo, hi in ((8, 20), (20, 40), (40, 70), (70, 100), (100, 115), (115, 140), (140, 170)):
        for n in (1, 2, 1, 2):
            s = float(rng.uniform(lo, hi))
            a = tuple(np.exp(rng.uniform(-0.5, 0.5, n)).tolist())
            v = xi(n, s, ScaleVector(a))
            assert abs(v.value - _mp_xi_direct(s, a)) <= v.err, (n, s, a)


def _mp_xi_lattice(n, s, a, cut=80.0):
    """Xi_n(s; a) at 30 digits from its incomplete-gamma form, each kernel
    sum over the lattice points pi Q <= cut (a tail below 1e-30 for these
    nodes), with exact pi and exact orders; k and -k share one term."""
    import mpmath

    with mpmath.workdps(30):
        am = [mpmath.mpf(x) for x in a]
        volume = mpmath.sqrt(mpmath.fprod(am))

        def kernel_sum(beta, c):
            total = mpmath.mpf(0)
            reach = [range(int(math.sqrt(cut / math.pi) / float(x)) + 2) for x in c]
            for k in itertools.product(*reach):
                x = mpmath.pi * mpmath.fsum((ci * ki) ** 2 for ci, ki in zip(c, k))
                if any(k) and x <= cut:
                    total += 2 ** sum(map(bool, k)) * mpmath.gammainc(beta, x) / x**beta
            return total

        s = mpmath.mpf(s)
        half = mpmath.mpf(n) / 2
        return (
            -volume / s
            - 1 / (volume * (half - s))
            + volume * kernel_sum(s, am)
            + kernel_sum(half - s, [1 / x for x in am]) / volume
        )


@pytest.mark.parametrize(
    "n, s, a, tol",
    [
        # orders at and next to 1/2, the symmetry point of Xi_2, at tight tols
        (2, 0.5, (0.5, 2.0), 1e-15),
        (2, 0.5, (0.5, 2.0), 1e-14),
        (3, 0.5, (0.5, 1.0, 2.0), 1e-15),
        (2, 0.6, (0.5, 2.0), 1e-15),
        (2, 0.4, (1.0, 1.0), 1e-15),
    ],
)
def test_err_covers_kernel_error_at_tight_tol(n, s, a, tol):
    v = xi(n, s, ScaleVector(a), EvalConfig(tol=tol))
    assert abs(v.value - float(_mp_xi_lattice(n, s, a))) <= v.err


def split_cases():
    rng = np.random.default_rng(20240611)
    for n in range(1, 10):
        log_a = rng.normal(scale=0.7, size=n)
        signs = rng.choice([-1.0, 1.0], size=n)
        for a in ((1.0,) * n, tuple(np.exp(log_a - log_a.mean())), tuple(2.0 ** (3 * signs))):
            s = float(rng.uniform(0.05, n / 2.0 - 0.05)) if n > 1 else 0.3
            yield n, s, a


@pytest.mark.parametrize("n, s, a", list(split_cases()))
def test_default_tol_agrees_with_tight_reference(n, s, a):
    loose = xi(n, s, ScaleVector(a))
    tight = xi(n, s, ScaleVector(a), EvalConfig(tol=1e-13 * max(1.0, abs(loose.value))))
    assert abs(loose.value - tight.value) <= loose.err + tight.err


@pytest.mark.parametrize(
    "beta, a",
    [
        (2.25, (1.0,) * 9),
        (0.7, (1.0, 2.0, 0.5)),
        (-0.4, (2.0**3, 2.0**-3, 1.0)),
        (3.1, (0.6, 1.7, 0.9, 1.1)),
        # a large order, whose integrand peaks far right of t = 1
        (12.5, (1.0,) * 21),
    ],
)
def test_split_tail_bound_majorises_doubled_threshold(beta, a):
    # the rule's bound on its omitted nodes, left of its first node and
    # right of its last, against those nodes summed at 30 digits from
    # mpmath's jtheta until they fall below 1e-40 of the sum
    import mpmath

    from epsteinzeta import epstein

    key = _groups(tuple(sorted(a)))
    h, k_lo, k_hi, *_, = plan = epstein._plan(beta, 1e-10, epstein._key_data([key])[0], False)
    with mpmath.workdps(30):

        def node(k):
            u = mpmath.mpf(k) * h
            w = mpmath.exp(-u)
            t = 1 + mpmath.exp(u - w)
            excess = mpmath.expm1(mpmath.fsum(m * _mp_log_theta(c * c * t) for c, m in zip(*key)))
            return h * t ** (beta - 1) * excess * (t - 1) * (1 + w)

        omitted = mpmath.mpf(0)
        for ks in (range(k_lo - 1, k_lo - 80, -1), range(k_hi + 1, k_hi + 400)):
            for k in ks:
                term = node(k)
                omitted += term
                if term < omitted * mpmath.mpf(10) ** -40:
                    break
        assert omitted > 0 and mpmath.log(omitted) <= plan[5]


def _mp_log_theta(x):
    """log theta(x) at the working precision of mpmath, from its series at
    x >= 1, so theta - 1 suffers no cancellation, and reflected below."""
    import mpmath

    if x >= 1:
        q = mpmath.exp(-mpmath.pi * x)
        return mpmath.log1p(2 * mpmath.fsum(q ** (j * j) for j in range(1, 12)))
    return mpmath.log(mpmath.jtheta(3, 0, mpmath.exp(-mpmath.pi / x)) / mpmath.sqrt(x))


def test_theta_majorant_bounds_jtheta():
    # the planning bounds of a group key: P1 >= Theta(1) - 1 and the bound
    # on Theta(kappa_0) - 1 from above, log(Theta(2) - 1) from below, against
    # mpmath's jtheta at 30 digits, from tiny to huge scales
    import mpmath

    from epsteinzeta import epstein

    for a in ((1.0,) * 10, (0.5, 1.0, 2.0), (2.0**-10, 1.0, 2.0**10), (7.0, 9.0), (0.01,) * 3, (30.0,)):
        key = _groups(tuple(sorted(a)))
        [data] = epstein._key_data([key])
        with mpmath.workdps(30):

            def excess(t):
                return mpmath.expm1(mpmath.fsum(m * _mp_log_theta(mpmath.mpf(c) ** 2 * t) for c, m in zip(*key)))

            assert mpmath.log(excess(1)) <= data[2]
            assert mpmath.log(excess(epstein._KAPPA0)) <= data[3]
            assert data[4] <= mpmath.log(excess(2))


def _rule(beta, a, tol):
    """S(beta; a) and its err by the theta-integral rule of the engine."""
    group_scales, counts = _groups(tuple(sorted(a)))
    [value], [err] = _theta_sums([float(beta)], [group_scales], [counts], [tol])
    return math.exp(value), math.exp(err)


# the last three lie just below a nonpositive integer, the two before them
# just above one
@pytest.mark.parametrize(
    "beta", [-0.3, -1.7, -2.5, -3.6, -5.5, -1 + 3e-7, -3 + 1e-5, -1 - 1e-4, -2 - 1e-6, -2 - 2e-8]
)
@pytest.mark.parametrize("a", [(1.8,), (2.5,), (3.0, 3.0), (0.9, 1.7)])
def test_kernel_sum_err_covers_negative_order_recurrence(beta, a):
    # negative orders, some next to a nonpositive integer, where the
    # incomplete-gamma form needed a recurrence: the rule's err must cover
    # a 40-digit mpmath lattice sum over a box past pi Q = 120
    import mpmath

    box = [range(math.isqrt(int(120 / (math.pi * x * x))) + 2) for x in a]
    with mpmath.workdps(40):
        b = mpmath.mpf(beta)
        exact = mpmath.mpf(0)
        for k in itertools.product(*box):
            if any(k):
                x = mpmath.pi * mpmath.fsum((mpmath.mpf(c) * j) ** 2 for c, j in zip(a, k))
                exact += 2 ** sum(j > 0 for j in k) * mpmath.gammainc(b, x) / x**b
        for tol in (1e-9, 1e-13):
            value, err = _rule(beta, a, tol / 4.0)
            assert abs(mpmath.mpf(value) - exact) <= err


# ---------------------------------------------------------------------------
# The err of the rule against mpmath lattice sums
# ---------------------------------------------------------------------------


def _mp_kernel(beta, x):
    """g(beta, x) = x^{-beta} Gamma(beta, x) at the working precision of mpmath."""
    import mpmath

    b = mpmath.mpf(beta)
    return mpmath.gammainc(b, x) / x**b


@pytest.mark.parametrize("beta", [2.25, 10.5, 0.7, -0.3, -2.5, 1.0, 4.0])
def test_series_remainder_bound_at_points_just_above_the_switch(beta):
    # scales just above and below 1 put c^2 t on both sides of the switch
    # x = 1 of log theta from the first node on; the rule's err covers a
    # 40-digit mpmath lattice sum over pi Q <= 120
    import mpmath

    for a in ((1.0 + 1e-9,) * 3, (1.0 - 1e-9, 1.0 + 1e-9)):
        value, err = _rule(beta, a, 1e-12)
        with mpmath.workdps(40):
            exact = mpmath.fsum(w * _mp_kernel(beta, mpmath.pi * mpmath.mpf(q)) for q, w in _lattice(a, 120.0))
            assert abs(mpmath.mpf(value) - exact) <= err


def _rep_counts(dim: int, mmax: int) -> list[int]:
    """#{k in Z^dim : |k|^2 = m} for m <= mmax, by integer convolution."""
    theta = [0] * (mmax + 1)
    for j in range(-math.isqrt(mmax), math.isqrt(mmax) + 1):
        theta[j * j] += 1
    counts = [1] + [0] * mmax
    for _ in range(dim):
        counts = [sum(counts[i] * theta[m - i] for i in range(m + 1)) for m in range(mmax + 1)]
    return counts


def _lattice(a, xmax):
    """(Q(k), weight) over k != 0 with pi Q(k) <= xmax, independent of the
    engine: equal scales through representation counts, else a box over
    k >= 0 with weight 2 per nonzero coordinate."""
    if len(set(a)) == 1:
        a2 = a[0] * a[0]
        counts = _rep_counts(len(a), int(xmax / (math.pi * a2)))
        return [(a2 * m, c) for m, c in enumerate(counts) if m and c and math.pi * a2 * m <= xmax]
    box = [range(math.isqrt(int(xmax / (math.pi * c * c))) + 2) for c in a]
    points = []
    for k in itertools.product(*box):
        q = sum((c * j) ** 2 for c, j in zip(a, k))
        if any(k) and math.pi * q <= xmax:
            points.append((q, 2 ** sum(j > 0 for j in k)))
    return points


_JUST_ABOVE = math.sqrt(16.0 * (1.0 + 1e-12) / (5.0 * math.pi))


@pytest.mark.parametrize(
    "beta, a, tol",
    [
        # three equal scales put the 24 points of |k|^2 = 5 at x just above 16
        (2.25, (_JUST_ABOVE,) * 3, 1e-9),
        (0.7, (_JUST_ABOVE,) * 3, 1e-9),
        # the larger Table-1 order at n = 21
        (10.5, (1.2,) * 21, 1e-9),
        (10.5, (1.5,) * 21, 1e-9),
        # negative non-integer orders
        (-0.3, (0.9, 1.7), 1e-9),
        (-0.3, (0.7, 0.9), 1e-9),
        (-2.5, (0.7, 0.9), 1e-6),
        # integer orders
        (1.0, (0.6, 0.8), 1e-9),
        (4.0, (1.2,) * 21, 1e-9),
    ],
)
def test_series_kernel_sum_err_covers_mpmath_reference(beta, a, tol):
    # against 40-digit mpmath sums over all of pi Q <= 120 the rule is
    # within its err, and that err meets tol
    import mpmath

    value, err = _rule(beta, a, tol / 4.0)
    assert err <= tol
    with mpmath.workdps(40):
        exact = mpmath.fsum(w * _mp_kernel(beta, mpmath.pi * mpmath.mpf(q)) for q, w in _lattice(a, 120.0))
        assert abs(mpmath.mpf(value) - exact) <= err


def test_integer_orders_terminate_with_zero_remainder():
    # at integer orders the kernel is a finite sum, g(m, x) = e^{-x}
    # sum_{j < m} (m - 1)!/(m - 1 - j)! x^{-j - 1}: the rule's err covers it
    import mpmath

    for beta, a in ((1.0, (0.6, 0.8)), (4.0, (1.0, 1.0, 1.0)), (2.0, (0.5, 2.0))):
        value, err = _rule(beta, a, 1e-13)
        m = int(beta)
        with mpmath.workdps(40):
            exact = mpmath.mpf(0)
            for q, w in _lattice(a, 120.0):
                x = mpmath.pi * mpmath.mpf(q)
                exact += w * mpmath.exp(-x) * mpmath.fsum(
                    mpmath.factorial(m - 1) / mpmath.factorial(m - 1 - j) * x ** (-j - 1) for j in range(m)
                )
            assert abs(mpmath.mpf(value) - exact) <= err


@pytest.mark.parametrize(
    "beta, a",
    [
        # the order 12.5 at n = 21 and a large order on a small lattice
        (12.5, (1.0,) * 21),
        (45.5, (2.0, 2.5)),
    ],
)
def test_series_falls_back_to_gammaincc(beta, a):
    # large orders: the rule's err covers the mpmath lattice sum, and the
    # value does not depend on the batch the sum is evaluated in
    import mpmath

    value, err = _rule(beta, a, 1e-9 / 4.0)
    with mpmath.workdps(40):
        exact = mpmath.fsum(w * _mp_kernel(beta, mpmath.pi * mpmath.mpf(q)) for q, w in _lattice(a, 200.0))
        assert abs(mpmath.mpf(value) - exact) <= err
    group_scales, counts = _groups(tuple(sorted(a)))
    values, errs = _theta_sums([beta, 0.7, beta], [group_scales, (1.0,), group_scales], [counts, (3,), counts], [1e-9 / 4.0, 1e-9, 1e-9 / 4.0])
    assert (math.exp(values[0]), math.exp(errs[0])) == (value, err) == (math.exp(values[2]), math.exp(errs[2]))
