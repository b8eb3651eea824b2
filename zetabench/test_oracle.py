"""The benchmark's mpmath oracle against closed forms of Xi in one and two dimensions.

    python3 -m pytest zetabench/test_oracle.py

Xi_1(s) = pi^-s Gamma(s) 2 zeta(2s) and Xi_2(s; 1, 1) = pi^-s Gamma(s) 4 zeta(s) beta(s),
with beta the Dirichlet beta function, since sum over Z^2 minus the origin
of |k|^(-2s) is 4 zeta(s) beta(s).
"""

import mpmath as mp
import pytest

import oracle

S_VALUES = [-1.3, -0.4, 0.05, 0.3, 0.7, 1.7, 2.6]


def closed_form_1(s):
    s = mp.mpf(s)
    return mp.pi**-s * mp.gamma(s) * 2 * mp.zeta(2 * s)


def closed_form_2(s):
    s = mp.mpf(s)
    return mp.pi**-s * mp.gamma(s) * 4 * mp.zeta(s) * mp.dirichlet(s, [0, 1, 0, -1])


@pytest.mark.parametrize("s", S_VALUES)
def test_dimension_one(s):
    with mp.workdps(oracle.DPS):
        expected = closed_form_1(s)
    value, err = oracle.xi(1, s, [1.0])
    assert err < 1e-15
    assert abs(value - float(expected)) <= err + 1e-15 * abs(value)


@pytest.mark.parametrize("s", S_VALUES)
def test_dimension_two(s):
    with mp.workdps(oracle.DPS):
        expected = closed_form_2(s)
    value, err = oracle.xi(2, s, [1.0, 1.0])
    assert err < 1e-15
    assert abs(value - float(expected)) <= err + 1e-15 * abs(value)


def test_scaling_and_reflection():
    # Xi_n(s; a) = Xi_n(n/2 - s; 1/a), and a common factor lam scales Z by lam^(-2s)
    value, err = oracle.xi(2, 0.3, [2.0, 0.5])
    mirror, err2 = oracle.xi(2, 0.7, [0.5, 2.0])
    assert abs(value - mirror) <= err + err2 + 1e-14 * abs(value)
    scaled, err3 = oracle.xi(1, 0.8, [3.0])
    # V = sqrt(3), so Xi_1(s; 3) = sqrt(3) 3^(-2s) Xi_1(s; 1)
    unit, err4 = oracle.xi(1, 0.8, [1.0])
    assert abs(scaled - 3**0.5 * 3 ** (-1.6) * unit) <= err3 + err4 + 1e-14 * abs(unit)


def test_rejects_wrong_length():
    with pytest.raises(ValueError):
        oracle.xi(3, 0.5, [1.0, 1.0])
