"""Independent mpmath reference for Xi_n(s; a), sharing no code with epsteinzeta.

Xi_n(s; a) is computed from the theta-integral form of the continuation,

    V * I(s; a) + I(n/2 - s; 1/a) / V - V/s - 1/(V (n/2 - s)),
    I(beta; c) = integral_1^inf (prod_i theta(c_i^2 t) - 1) t^(beta-1) dt,

with V = sqrt(prod a_i) and theta(x) = sum_k exp(-pi x k^2) taken from
mpmath.jtheta (through theta(x) = theta(1/x)/sqrt(x) when x < 1).  The
package instead sums incomplete-gamma kernels over a truncated lattice, so
agreement between the two is evidence about both.

Run as a script it regenerates oracle_values.json, the Table-1 roots of the
unit-scale Xi_n for n = 10..21:

    python3 zetabench/oracle.py > zetabench/oracle_values.json
"""

from __future__ import annotations

import json
import sys

import mpmath as mp

DPS = 25


def _theta(x):
    if x >= 1:
        return mp.jtheta(3, 0, mp.exp(-mp.pi * x))
    return mp.jtheta(3, 0, mp.exp(-mp.pi / x)) / mp.sqrt(x)


def _integral(beta, scales):
    """I(beta; c) and its quadrature error estimate."""
    groups: dict = {}
    for c in scales:
        groups[c] = groups.get(c, 0) + 1
    squares = [(mp.mpf(c) ** 2, k) for c, k in groups.items()]
    decay = 1 / (mp.pi * min(c2 for c2, _ in squares))
    # geometric breakpoints up to the decay length resolve the power-law
    # stretch of a small scale; past it the integrand falls like e^(-t/decay)
    points = [mp.mpf(1)]
    while points[-1] < decay:
        points.append(points[-1] * 4)
    points += [points[-1] + decay * 2**k for k in range(1, 9)]

    def f(t):
        return (mp.fprod(_theta(c2 * t) ** k for c2, k in squares) - 1) * t ** (beta - 1)

    return mp.quad(f, points, error=True)


def _xi(n: int, s, a):
    """Xi_n(s; a) and its error allowance, as mpf at the working precision."""
    v = mp.sqrt(mp.fprod(a))
    first, e1 = _integral(s, a)
    second, e2 = _integral(mp.mpf(n) / 2 - s, [1 / x for x in a])
    terms = (v * first, second / v, -v / s, -1 / (v * (mp.mpf(n) / 2 - s)))
    # the quadrature estimates plus the working precision on the terms
    err = v * e1 + e2 / v + sum(abs(t) for t in terms) * mp.mpf(10) ** (5 - DPS)
    return mp.fsum(terms), err


def xi(n: int, s: float, scales) -> tuple[float, float]:
    """(Xi_n(s; a), error allowance) for positive scales a and real s off the poles."""
    if len(scales) != n:
        raise ValueError(f"expected {n} scales, got {len(scales)}")
    with mp.workdps(DPS):
        value, err = _xi(n, mp.mpf(s), [mp.mpf(x) for x in scales])
        return float(value), float(err)


def unit_root(n: int, lo: float, hi: float) -> float:
    """The zero gamma_n of Xi_n(s; 1..1) in [lo, hi], by mpmath.findroot."""
    with mp.workdps(DPS):
        ones = [mp.mpf(1)] * n
        return float(mp.findroot(lambda s: _xi(n, s, ones)[0], (lo, hi), solver="illinois"))


def main() -> int:
    from workloads import PAPER_TABLE_1  # the paper's 4-digit values bracket each root

    roots = {str(n): unit_root(n, g - 1e-3, g + 1e-3) for n, g in PAPER_TABLE_1.items()}
    json.dump(
        {
            "command": "python3 zetabench/oracle.py > zetabench/oracle_values.json",
            "dps": DPS,
            "table1_roots": roots,
        },
        sys.stdout,
        indent=2,
    )
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
