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
    xi,
    xi_chowla_selberg,
    xi_many,
    z,
)
from epsteinzeta.epstein import _g_kernel, _job, _kernel_sums

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
    # 2^-7 scales need a radial table of about 1.8e5 entries
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
    grouped-radial enumeration."""
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
        # V = 0.05^{21/2} is about e^-31: Gamma(s) x^{-s} at the smallest
        # lattice value leaves double range from s = 86 on, though V times it would not
        (21, [(0.05,) * 21], [85.0, 86.0, 86.5, 87.0]),
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


def test_overflowing_term_is_rejected_before_any_table(monkeypatch):
    # the 1/a lattice's term at x_min = pi 1e-4 overflows; its 0.01 scales
    # would need a radial table of about 8e5 entries first
    from epsteinzeta import epstein

    def no_table(dim, mmax):
        raise AssertionError(f"radial table ({dim}, {mmax}) built")

    monkeypatch.setattr(epstein, "_radial_table", no_table)
    with pytest.raises(PrecisionError, match="overflows double precision"):
        xi(10, -58.43, ScaleVector((100.0,) * 10))


def _mp_xi(s, terms):
    """pi^{-s} Gamma(s) times `terms`, at 40 digits, for a closed-form Xi."""
    import mpmath

    with mpmath.workdps(40):
        s = mpmath.mpf(s)
        return mpmath.pi**-s * mpmath.gamma(s) * terms(s)


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
    # g(-100.3, x) <= e^{-x} / 100.3 although x^{100.3} overflows at this x;
    # the kernel steps g itself, so no intermediate leaves double range
    import mpmath

    from epsteinzeta.epstein import _gammaincc_kernel

    beta, x = -100.3, math.pi * 1e-4
    with np.errstate(over="raise", invalid="raise"):
        [g], [mag] = _gammaincc_kernel((beta,), np.array([x]), [1])
    assert math.isfinite(g) and 0.0 < g <= mag
    # the allowance `_kernel_sums` charges a shifted order per unit magnitude
    allowance = 5e-15 * (math.floor(-beta) + 4.0) * mag
    with mpmath.workdps(40):
        assert abs(g - _mp_kernel(beta, mpmath.mpf(x))) <= allowance


def test_precision_error_carries_bound():
    # the 2^-20 axis needs more steps than the lattice engine's per-axis cap
    with pytest.raises(PrecisionError):
        xi(2, 0.7, ScaleVector([2.0**20, 2.0**-20]))
    # a scale whose square leaves double range stops the truncation, alone
    # and in a batch that takes the array pass, with no warning
    with pytest.raises(PrecisionError, match="truncation"):
        xi(1, 0.3, ScaleVector([1e300]))
    batch = [(3, 0.7, (1.0 + 0.01 * i, 1.0, 1.0)) for i in range(20)]
    with pytest.raises(PrecisionError, match="truncation"):
        xi_many(batch + [(3, 0.5, (1e160, 1e-160, 1.0))])
    # the smallest lattice value pi min(1/a)^2 past double range, in the
    # float form and in the array form
    for count in (1, 16):
        with pytest.raises(PrecisionError, match="reciprocal"):
            xi_many([(1, 0.3, (1e-155,))] * count)
    # a product of the scales past double range, above or below
    for a in ((1e200, 1e200), (1e200, 1e200, 1e-200, 1e-200), (2.0**-540, 2.0**540) * 2):
        with pytest.raises(PrecisionError, match="volume"):
            xi(len(a), 0.3, ScaleVector(a))


# the last two are tables of a few hundred entries
@pytest.mark.parametrize(
    "dim, mmax", [(1, 30), (2, 40), (3, 30), (4, 20), (5, 12), (2, 400), (3, 300)]
)
def test_radial_counts_match_enumeration(dim, mmax):
    import itertools

    from epsteinzeta.epstein import _radial_counts

    r = math.isqrt(mmax)
    brute = np.zeros(mmax + 1)
    for k in itertools.product(range(-r, r + 1), repeat=dim):
        m = sum(x * x for x in k)
        if m <= mmax:
            brute[m] += 1
    assert np.array_equal(_radial_counts(dim, mmax), brute)


def test_anisotropic_grouping_matches_plain_enumeration():
    # scales with repeats exercise the radial grouping; a nested-loop oracle
    # over the same truncation region must agree to roundoff
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
        # near order 1/2 scipy's gammaincc errs by up to 2.9e-14 relative
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
        # the order's floor 4 beta = 50 lies above T0 = 46.9 and sets T
        (12.5, (1.0,) * 21),
    ],
)
def test_split_tail_bound_majorises_doubled_threshold(beta, a):
    from epsteinzeta.epstein import _enumerate

    memo = {}
    _, pattern, scales, qmax, bound = _job(beta, a, 1e-10, memo)
    [(_, _, t0, c, _, tail0)] = memo.values()
    big_t = math.pi * qmax
    assert big_t == pytest.approx(max(t0, 4.0 * abs(beta)), rel=1e-15)
    # the memo's tail bound at T0 is the job's unless the order sets T
    assert (bound == tail0) == (4.0 * abs(beta) <= t0)
    assert 0.0 < c <= 0.5
    assert bound < 1e-10
    # one job enumerated alone: a single chunk, origin included
    [(q, w, _, _)] = list(_enumerate(pattern, np.array(scales)[:, None], np.array([2.0 * qmax])))
    x = math.pi * q
    beyond = x > big_t
    g, _ = _g_kernel([beta], x[beyond], [int(beyond.sum())])
    tail = float(np.sum(w[beyond] * g))
    assert 0.0 < tail <= bound


def test_theta_majorant_bounds_jtheta():
    # the reference is mpmath's jtheta at 30 digits
    import mpmath

    from epsteinzeta.epstein import _theta_majorant

    for t in np.geomspace(1e-3, 1e3, 61):
        majorant = _theta_majorant(float(t))
        with mpmath.workdps(30):
            exact = mpmath.jtheta(3, 0, mpmath.exp(-mpmath.pi * mpmath.mpf(float(t))))
            assert exact <= majorant <= (1 + mpmath.mpf(1e-9)) * exact


# the last three lie just below a nonpositive integer, where one recurrence
# step cancels; the two before them lie just above one
@pytest.mark.parametrize(
    "beta", [-0.3, -1.7, -2.5, -3.6, -5.5, -1 + 3e-7, -3 + 1e-5, -1 - 1e-4, -2 - 1e-6, -2 - 2e-8]
)
@pytest.mark.parametrize("a", [(1.8,), (2.5,), (3.0, 3.0), (0.9, 1.7)])
def test_kernel_sum_err_covers_negative_order_recurrence(beta, a):
    # the backward recurrence of _g_kernel at beta < 0 is off by up to 8e-8
    # relative per term; the sum-level err must still cover the error.  The
    # reference is a 40-digit mpmath lattice sum over a box past pi Q = 120
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
            [value], [err] = _kernel_sums([_job(beta, a, tol / 4.0, {})])
            assert abs(mpmath.mpf(value) - exact) <= err


# ---------------------------------------------------------------------------
# The integration-by-parts series of the kernel at x >= _SERIES_X
# ---------------------------------------------------------------------------


def _mp_kernel(beta, x):
    """g(beta, x) = x^{-beta} Gamma(beta, x) at the working precision of mpmath."""
    import mpmath

    b = mpmath.mpf(beta)
    return mpmath.gammainc(b, x) / x**b


@pytest.mark.parametrize("beta", [2.25, 10.5, 0.7, -0.3, -2.5, 1.0, 4.0])
def test_series_remainder_bound_at_points_just_above_the_switch(beta):
    # each admissible order m of the series at points just above X, where
    # its remainder bound |(beta-1)...(beta-m-1)| x^{-m-2} e^{-x} is largest,
    # against 40-digit mpmath: the kernel is within that bound plus the
    # rounding allowance eps sum_j (3j + 3) |(beta-1)...(beta-j)| x^{-j} e^{-x}/x
    import mpmath

    from epsteinzeta.epstein import _SERIES_X

    x = _SERIES_X * (1.0 + np.array([0.0, 1e-15, 1e-9, 1e-6, 1e-3, 0.05]))
    for m in range(max(0, math.ceil(beta - 2.0)), 16):
        g, _ = _g_kernel([beta], x, [x.size], [m])
        with mpmath.workdps(40):
            for xv, gv in zip(x.tolist(), g.tolist()):
                xm = mpmath.mpf(xv)
                coefs = [mpmath.mpf(1)]
                for j in range(1, m + 2):
                    coefs.append(coefs[-1] * (beta - j))
                scale = mpmath.exp(-xm) / xm
                remainder = abs(coefs[m + 1]) * xm ** (-m - 1) * scale
                rounding = 2.0**-52 * sum((3 * j + 3) * abs(c) * xm**-j for j, c in enumerate(coefs[:-1]))
                assert abs(gv - _mp_kernel(beta, xm)) <= remainder + rounding * scale


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
        # three equal scales put the 24 points of |k|^2 = 5 just above X = 16
        (2.25, (_JUST_ABOVE,) * 3, 1e-9),
        (0.7, (_JUST_ABOVE,) * 3, 1e-9),
        # the larger Table-1 order at n = 21; at unit scales its budget is
        # not met at this tol, and the order 12.5 never is (see below)
        (10.5, (1.2,) * 21, 1e-9),
        (10.5, (1.5,) * 21, 1e-9),
        # negative non-integer orders: the series needs no recurrence; -2.5
        # meets its budget only on a small lattice at a loose tol
        (-0.3, (0.9, 1.7), 1e-9),
        (-0.3, (0.7, 0.9), 1e-9),
        (-2.5, (0.7, 0.9), 1e-6),
        # terminating integer orders
        (1.0, (0.6, 0.8), 1e-9),
        (4.0, (1.2,) * 21, 1e-9),
    ],
)
def test_series_kernel_sum_err_covers_mpmath_reference(beta, a, tol, monkeypatch):
    # with the point-count gate lowered, these small lattices take the series;
    # against 40-digit mpmath sums over the same truncated lattice the error
    # is within err less the tail bound, and over all of pi Q <= 120 within err
    import mpmath

    from epsteinzeta import epstein

    real, plans = epstein._series_plan, []

    def recorded(*args):
        plans.append(real(*args))
        return plans[-1]

    monkeypatch.setattr(epstein, "_SERIES_POINTS", 1)
    monkeypatch.setattr(epstein, "_series_plan", recorded)
    job = _job(beta, a, tol / 4.0, {})
    [value], [err] = _kernel_sums([job])
    assert len(plans) == 1 and plans[0] is not None
    big_t = math.pi * job[3]
    with mpmath.workdps(40):
        inside = outside = mpmath.mpf(0)
        for q, weight in _lattice(a, 120.0):
            term = weight * _mp_kernel(beta, mpmath.pi * mpmath.mpf(q))
            if q <= job[3]:
                inside += term
            else:
                outside += term
        assert abs(mpmath.mpf(value) - inside) <= err - job[4]
        assert abs(mpmath.mpf(value) - inside - outside) <= err
    # the lattice reaches past X, so some of its points took the series
    assert math.pi * max(q for q, _ in _lattice(a, big_t)) > epstein._SERIES_X


def test_integer_orders_terminate_with_zero_remainder():
    # beta = 1 stops at m = 0 and beta = 4 at m = 3 with no remainder: even a
    # zero budget is met, by the rounding term alone, which scales with the weight
    from epsteinzeta.epstein import _series_plan

    for beta, order in ((1.0, 0), (4.0, 3)):
        m, bound = _series_plan(beta, 1.0, 1e-22)
        assert m == order and 0.0 < bound <= 1e-22
        assert _series_plan(beta, 1e6, 1e-22) is None
        assert _series_plan(beta, 1e6, 1e-16)[0] == order


@pytest.mark.parametrize(
    "beta, a",
    [
        # T = 4 beta = 50 leaves a tail of about 1e-22, which no order meets
        (12.5, (1.0,) * 21),
        # past the series range: m >= beta - 2 > _SERIES_TERMS
        (45.5, (2.0, 2.5)),
    ],
)
def test_series_falls_back_to_gammaincc(beta, a, monkeypatch):
    from epsteinzeta import epstein

    job = _job(beta, a, 1e-9 / 4.0, {})
    alone = _kernel_sums([job])
    monkeypatch.setattr(epstein, "_SERIES_POINTS", 1)
    _, pattern, scales, qmax, tail = job
    [(_, w, _, _)] = list(epstein._enumerate(pattern, np.array(scales)[:, None], np.array([qmax])))
    assert epstein._series_plan(beta, float(w.sum()), tail / 32.0) is None
    assert _kernel_sums([job]) == alone
