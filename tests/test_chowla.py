import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsteinzeta import (
    EvalConfig,
    NotGenericError,
    PrecisionError,
    ScaleVector,
    chowla,
    chowla_selberg_terms,
    specfun,
    xi,
    xi_chowla_selberg,
)


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
    # the expansion is asymmetric term by term, but its total is not
    base = [1.0, 1.5, 0.7]
    ref = xi_chowla_selberg(3, 1.1, ScaleVector(base))
    for perm in ([1.5, 0.7, 1.0], [0.7, 1.0, 1.5]):
        other = xi_chowla_selberg(3, 1.1, ScaleVector(perm))
        assert abs(ref.value - other.value) <= ref.err + other.err


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


def test_oversized_bessel_sum_raises():
    # the 1/1024 axis would need about 2e7 Bessel terms
    with pytest.raises(PrecisionError):
        xi_chowla_selberg(2, 0.7, ScaleVector([1024.0, 1.0 / 1024.0]))


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
def test_non_generic_arguments_rejected(s):
    with pytest.raises(NotGenericError):
        xi_chowla_selberg(4, s, ScaleVector.unit(4))


def test_generic_sample_agreement(monkeypatch):
    # record every Bessel call: one per tower level, over all of its terms
    calls = []

    def recording_bessel_k(nu, z, cfg=None):
        calls.append(np.asarray(z))
        return specfun.bessel_k(nu, z, cfg)

    monkeypatch.setattr(chowla, "bessel_k", recording_bessel_k)
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
    switch = specfun._ASYMPTOTIC_SWITCH
    assert any(z.min() <= switch < z.max() for z in calls)


@st.composite
def generic_points(draw, n: int):
    """Scales 2^u with u in [-3, 3] in ascending order, and s in
    (-0.9, n/2 + 0.9) at least 0.02 from every multiple of 1/2: off the poles
    and the non-generic arguments of the Chowla-Selberg route."""
    a = sorted(2.0 ** u for u in draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    s = draw(
        st.floats(-0.9, n / 2.0 + 0.9, exclude_min=True, exclude_max=True).filter(
            lambda s: abs(s - round(2.0 * s) / 2.0) >= 0.02
        )
    )
    return s, tuple(a)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_xi_agrees_with_chowla_selberg_and_under_reversed_scales(n, data):
    # the ascending order keeps the Bessel sums short; xi takes any order
    s, a = data.draw(generic_points(n))
    ours = xi(n, s, a)
    other = xi_chowla_selberg(n, s, a)
    assert abs(ours.value - other.value) <= ours.err + other.err
    reversed_ = xi(n, s, a[::-1])
    assert abs(ours.value - reversed_.value) <= ours.err + reversed_.err
