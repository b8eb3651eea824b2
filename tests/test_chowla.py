import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from epsteinzeta import (
    DomainError,
    bessel_k,
    EvalConfig,
    NotGenericError,
    PrecisionError,
    ScaleVector,
    xi,
    xi_chowla_selberg,
)
from epsteinzeta import chowla
from epsteinzeta.chowla import _k_points, _tail_cutoff, chowla_selberg_terms


def test_cross_check_unit_square():
    a = ScaleVector([1.0, 1.0])
    left = xi_chowla_selberg(2, 0.8, a)
    right = xi(2, 0.8, a)
    assert abs(left.value - right.value) <= left.err + right.err


def test_cross_check_anisotropic():
    a = ScaleVector([1.0, 1.5, 0.7])
    left = xi_chowla_selberg(3, 1.1, a)
    right = xi(3, 1.1, a)
    assert abs(left.value - right.value) <= left.err + right.err


def test_permutation_of_scales():
    # the expansion is asymmetric term by term, so it takes the scales in
    # ascending order: every order gives the same bits
    base = [1.0, 1.5, 0.7]
    ref = xi_chowla_selberg(3, 1.1, ScaleVector(base))
    for perm in ([1.5, 0.7, 1.0], [0.7, 1.0, 1.5]):
        other = xi_chowla_selberg(3, 1.1, ScaleVector(perm))
        assert (other.value, other.err) == (ref.value, ref.err)


def test_wrong_number_of_scales_is_a_domain_error():
    with pytest.raises(DomainError, match="expected 3 scales"):
        xi_chowla_selberg(3, 1.1, ScaleVector([1.0, 1.5]))
    with pytest.raises(DomainError, match="expected 2 scales"):
        chowla_selberg_terms(2, 0.7, ScaleVector([1.0, 1.5, 0.7]))


@pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan])
def test_non_finite_s_is_a_domain_error(s):
    with pytest.raises(DomainError, match="s must be finite"):
        xi_chowla_selberg(2, s, ScaleVector([1.0, 2.0]))


def test_bessel_tail_positive():
    rng = np.random.default_rng(5)
    for _ in range(8):
        n = int(rng.integers(2, 5))
        s = float(rng.uniform(0.3, n / 2.0 - 0.3))
        if abs(2.0 * s - round(2.0 * s)) < 1e-3:
            s += 0.01
        terms = chowla_selberg_terms(n, s, ScaleVector(np.exp(rng.uniform(-0.7, 0.7, n))))
        assert terms.bessel_tail > 0.0


def test_one_dimensional_reduces_to_zeta_term():
    terms = chowla_selberg_terms(1, 0.8, ScaleVector([1.3]))
    assert terms.tower == ()
    assert terms.bessel_tail == 0.0
    left = xi_chowla_selberg(1, 0.8, ScaleVector([1.3]))
    right = xi(1, 0.8, ScaleVector([1.3]))
    assert abs(left.value - right.value) <= left.err + right.err


@pytest.mark.parametrize(
    "n, s, a, term",
    [
        # Gamma(s) or a_1^-2s past double range
        (1, 200.0, (0.001,), "leading term"),
        (3, 180.0, (1.0,) * 3, "leading term"),
        (2, 172.3, (1.0, 2.0), "leading term"),
        # the reflected zeta(2s) of a negative order
        (2, -175.3, (1.0, 1.0), "leading term"),
        # cosh(nu u) of the Bessel K at a large order
        (4, 171.3, (1.0,) * 4, "Bessel sum of level 1"),
        # the coefficient 1/(a_3^(2s - 2) a_1 a_2) past double range
        (3, 0.7, (1e-200, 1.0, 1e200), "zeta term of level 2"),
        # a_2^(2s - 1) a_1 underflows to 0 under the coefficient of level 1
        (2, -3.71, (5.6e69, 2.0e-99), "zeta term of level 1"),
    ],
)
def test_terms_past_double_range_raise_precision_error(n, s, a, term):
    # under the suite's warnings-as-errors, an overflow is a PrecisionError
    # that names the term, not an OverflowError, a warning or an inf
    with pytest.raises(PrecisionError, match=term):
        xi_chowla_selberg(n, s, ScaleVector(a))


def test_oversized_bessel_sum_raises():
    # the last tower level of eight unit scales would need 2,998,409 terms
    with pytest.raises(PrecisionError, match="2998409 terms"):
        xi_chowla_selberg(8, 1.3, ScaleVector.unit(8))
    # in ascending order the 1/1024 axis leads and the sum stays short
    a = ScaleVector([1024.0, 1.0 / 1024.0])
    left, right = xi_chowla_selberg(2, 0.7, a), xi(2, 0.7, a)
    assert abs(left.value - right.value) <= left.err + right.err


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
def test_non_generic_arguments_rejected(s):
    with pytest.raises(NotGenericError):
        xi_chowla_selberg(4, s, ScaleVector.unit(4))


def test_generic_sample_agreement():
    rng = np.random.default_rng(12)
    cfg = EvalConfig(tol=1e-10)
    done = 0
    while done < 24:
        n = int(rng.integers(2, 5))
        s = float(rng.uniform(0.2, n / 2.0 - 0.2))
        if abs(2.0 * s - round(2.0 * s)) < 5e-3:
            continue
        scales = ScaleVector(np.exp(rng.uniform(-1.2, 1.2, size=n)))
        left = xi_chowla_selberg(n, s, scales, cfg)
        right = xi(n, s, scales, cfg)
        assert abs(left.value - right.value) <= left.err + right.err
        done += 1


def generic_s(n: int):
    """s in (-0.9, n/2 + 0.9) at least 0.02 from every multiple of 1/2: off
    the poles and the non-generic arguments of the Chowla-Selberg route."""
    return st.floats(-0.9, n / 2.0 + 0.9, exclude_min=True, exclude_max=True).filter(
        lambda s: abs(s - round(2.0 * s) / 2.0) >= 0.02
    )


@st.composite
def generic_points(draw, n: int):
    """Scales 2^u with u in [-3, 3], and a generic s."""
    a = tuple(2.0 ** u for u in draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    return draw(generic_s(n)), a


@st.composite
def extreme_points(draw, n: int):
    """Scales 2^u with u in [-10, 10], of product one from n = 2 on, and a
    generic s.  Product one keeps V = 1; xi at volumes up to 2^+-9 is
    checked against a 30-digit reference in tests/test_rule.py."""
    u = draw(st.lists(st.floats(-10.0, 10.0), min_size=max(n - 1, 1), max_size=max(n - 1, 1)))
    if n > 1:
        u.append(-math.fsum(u))
        assume(abs(u[-1]) <= 10.0)
    return draw(generic_s(n)), tuple(2.0**x for x in u)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_xi_agrees_with_chowla_selberg_and_under_reversed_scales(n, data):
    # both routes take the scales in any order
    s, a = data.draw(generic_points(n))
    ours = xi(n, s, a)
    other = xi_chowla_selberg(n, s, a)
    assert abs(ours.value - other.value) <= ours.err + other.err
    reversed_ = xi(n, s, a[::-1])
    assert abs(ours.value - reversed_.value) <= ours.err + reversed_.err


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_xi_agrees_with_chowla_selberg_at_scales_up_to_two_to_the_ten(n, data):
    s, a = data.draw(extreme_points(n))
    try:
        other = xi_chowla_selberg(n, s, a)
    except PrecisionError:  # more than chowla._MAX_TERMS Bessel terms
        reject()
    ours = xi(n, s, a)
    assert abs(ours.value - other.value) <= ours.err + other.err


@pytest.mark.parametrize(
    "n, a",
    [(3, (1e10,) * 3)] + [(2, (x, y)) for x in (1e150, 1e-150) for y in (1e150, 1e-150)],
)
def test_extreme_volumes_give_a_finite_value_or_a_precision_error(n, a):
    # each level omits at most tol / (16 V (n - 1)) of its Bessel sum, so the
    # omitted tail adds at most tol/16 to err at any volume; the cutoff is
    # solved in logs, without a warning or a bare ValueError/OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            v = xi_chowla_selberg(n, 0.7, a)
        except PrecisionError:
            return
    assert math.isfinite(v.value) and math.isfinite(v.err)
    # the rest of err is the zeta factors' and the rounding, near 1e-13 of the terms
    assert v.err <= 1e-9 / 16.0 + 1e-12 * abs(v.value)


def _tail_points():
    """Seeded (n, s, ascending scales) with n = 2..4: scales near 1, of
    product one at up to 2^+-10, and those at volume 2^+-20; s in
    (-1, n/2 + 1), so some levels have nu = s - j/2 < 0."""
    rng = np.random.default_rng(28)
    points = []
    for kind in range(3):
        for n in (2, 3, 4):
            for _ in range(3):
                if kind == 0:
                    u = rng.uniform(-1.0, 1.0, n)
                else:
                    u = rng.uniform(-10.0 / (n - 1), 10.0 / (n - 1), n - 1)
                    u = np.append(u, -u.sum())
                if kind == 2:
                    u += rng.choice([-20.0, 20.0]) * 2.0 / n
                s = float(rng.uniform(-1.0, n / 2.0 + 1.0))
                points.append((n, s, tuple(sorted(2.0**u))))
    return points


@pytest.mark.parametrize("n, s, a", _tail_points())
def test_tail_bound_covers_the_omitted_bessel_terms(n, s, a):
    # the Bessel terms of each level past its cutoff Z, up to the former cut
    # log(1/tol) + 40 (and at least Z + 20), sum to at most the level's bound,
    # and the bound stays within the level's budget tol / (16 V (n - 1))
    tol = 1e-9
    log_budget = math.log(tol / (16.0 * (n - 1))) - 0.5 * math.fsum(map(math.log, a))
    for j in range(1, n):
        nu = s - j / 2.0
        cut, bound = _tail_cutoff(a, j, nu, log_budget)
        assert bound <= math.exp(log_budget)
        top = max(math.log(1.0 / tol) + 40.0, cut + 20.0)
        b = a[j]
        norms = np.sqrt(_k_points(a[:j], top / (2.0 * math.pi * b)))
        if not norms.size:
            continue
        p = np.arange(1, int(top / (2.0 * math.pi * b * norms.min())) + 1)
        norms, p = (x.ravel() for x in np.meshgrid(norms, p))
        z = 2.0 * math.pi * p * b * norms
        keep = (z > cut) & (z <= top)
        if not keep.any():
            continue
        kv, kerr = bessel_k(nu, z[keep])
        coeffs = 4.0 / math.prod(a[:j]) * (norms[keep] / (p[keep] * b)) ** nu
        assert math.fsum((coeffs * (kv + kerr)).tolist()) <= bound, (j, cut)


def test_one_bessel_k_call_per_evaluation(monkeypatch):
    # every tower level's Bessel terms go to bessel_k in one call
    calls = []

    def counted(nu, z):
        calls.append(np.size(z))
        return bessel_k(nu, z)

    monkeypatch.setattr(chowla, "bessel_k", counted)
    for n in (2, 3, 4):
        calls.clear()
        xi_chowla_selberg(n, 1.1, ScaleVector([0.8, 1.3, 1.1, 0.9][:n]))
        assert len(calls) == 1 and calls[0] > 0
