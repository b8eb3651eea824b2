"""The batched lattice engine: a node's value and err do not depend on the
batch it is evaluated in, and the per-node reductions keep their rounding
allowance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsteinzeta import (
    EvalConfig,
    ScaleVector,
    kratio_chart,
    scan,
    xi,
    xi_many,
)
from epsteinzeta import epstein
from epsteinzeta.epstein import (
    _enumerate,
    _g_kernel,
    _group_scales,
    _job,
    _jobs,
    _kernel_sums,
)
from epsteinzeta.specfun import riemann_zeta

# repeated values make mixed group patterns such as (1, 2) or (1, 1, 3)
_SCALES = (1.0, 0.5, 2.0, 0.8, 1.25, 0.7)
# pi * 1024^2 lies far above any threshold T, so S(0.3; 1024) has no points
_EMPTY = (1, 0.3, (1024.0,))


def _regular(n: int, s: float) -> bool:
    """Off the poles, and neither order within 1e-6 of a nonpositive integer."""
    if abs(s) < 1e-3 or abs(s - n / 2.0) < 1e-3:
        return False
    return all(b > 0 or abs(b - round(b)) > 1e-6 for b in (s, n / 2.0 - s))


@st.composite
def nodes(draw):
    n = draw(st.integers(1, 6))
    a = tuple(draw(st.lists(st.sampled_from(_SCALES), min_size=n, max_size=n)))
    # s < 0 and s > n/2 give orders beta <= 0; the integers -1 and n/2 + 1
    # give the order -1 itself, whose kernel is E_2
    s = draw(
        st.one_of(
            st.floats(-1.5, n / 2.0 + 1.5).filter(lambda s: _regular(n, s)),
            st.sampled_from((-1.0, n / 2.0 + 1.0)),
        )
    )
    return n, s, a


def _pair(v):
    return v.value, v.err


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(nodes(), min_size=1, max_size=12), st.randoms(use_true_random=False))
def test_node_bit_identical_alone_and_in_any_batch(batch, rnd):
    batch = batch + [_EMPTY]
    rnd.shuffle(batch)
    alone = [_pair(xi(*node)) for node in batch]
    assert [_pair(v) for v in xi_many(batch)] == alone
    order = list(range(len(batch)))
    rnd.shuffle(order)
    shuffled = xi_many([batch[i] for i in order])
    assert [_pair(shuffled[order.index(k)]) for k in range(len(batch))] == alone


def test_chunk_cuts_leave_results_bit_identical(monkeypatch):
    chart = kratio_chart(3)
    batch = [(3, 0.7, chart.scales([x, y])) for x in (-1.5, 0.0, 0.8) for y in (-0.4, 0.0, 1.9)]
    whole = [_pair(v) for v in xi_many(batch)]
    # a budget below every lattice: each job is a chunk of its own
    monkeypatch.setattr(epstein, "_CHUNK_POINTS", 50)
    assert [_pair(v) for v in xi_many(batch)] == whole


def test_empty_lattice_sums_to_zero():
    assert _kernel_sums([_job(0.3, (1024.0,), EvalConfig().tol / 4.0, {})])[0] == [0.0]
    # followed in its bucket by a nonempty job, whose first term it must not take
    values, _ = _kernel_sums(_jobs((0.3,), (1024.0,), 1e-10) + _jobs((0.3,), (1.0,), 1e-10))
    assert values == [0.0, _kernel_sums([_job(0.3, (1.0,), 4e-10 / 4.0, {})])[0][0]]
    # Xi_1(s; a) = V pi^-s Gamma(s) 2 zeta(2s) a^-2s with V = sqrt(a)
    n, s, (a,) = _EMPTY
    v = xi(n, s, (a,))
    zeta = riemann_zeta(2.0 * s)
    factor = math.sqrt(a) * math.pi**-s * math.gamma(s) * 2.0 * a ** (-2.0 * s)
    assert abs(v.value - factor * zeta.value) <= v.err + abs(factor) * zeta.err + 1e-15


def test_reduction_within_rounding_allowance_on_large_lattice():
    # the engine's pairwise per-segment sums against exactly rounded sums of
    # the same terms, on a lattice of over 1e5 points, for two orders on one
    # shared lattice in a bucket with a small job
    orders = (0.7, -0.4)
    big = _jobs(orders, (0.03, 0.04, 0.05), 1e-10)
    values, _ = _kernel_sums(_jobs((1.1,), (1.0, 2.0, 0.5), 1e-10) + big)
    _, pattern, scales, qmax, _ = big[0]
    [(q, w, _, counts)] = list(_enumerate(pattern, np.array([[x] for x in scales]), np.array([qmax])))
    assert counts[0] >= 100_000
    x, w = math.pi * q[1:], w[1:]  # the origin carries no term
    for value, beta in zip(values[1:], orders):
        terms = w * _g_kernel([beta], x, [x.size])[0]
        assert abs(value - math.fsum(terms)) <= 5e-15 * math.fsum(np.abs(terms))


def test_difference_orders_share_one_lattice():
    # the orders of a second difference share T, hence qmax and the tail
    # bound, so the difference quotient cancels their truncation
    b, h = 2.25, 1e-3
    jobs = _jobs((b, b + h, b - h), (1.0,) * 9, 1e-10)
    assert [job[0] for job in jobs] == [b, b + h, b - h]
    assert len({job[1:] for job in jobs}) == 1


def test_one_enumeration_per_bucket(monkeypatch):
    calls = []
    real = epstein._enumerate

    def counted(pattern, scales, qmax):
        calls.append(pattern)
        return real(pattern, scales, qmax)

    monkeypatch.setattr(epstein, "_enumerate", counted)
    xi(10, 2.5, ScaleVector.unit(10))
    xi(10, 2.5, kratio_chart(10, 2).scales([0.3, -0.6]))
    # a and 1/a share a pattern, so one xi enumerates once
    assert calls == [(10,), (1, 1, 8)]
    calls.clear()
    chart = kratio_chart(3)
    grid = scan(3, 0.7, chart, [(-1.0, 1.0)] * 2, [5, 5])
    assert not (grid.labels == 0).any()  # no refinement pass
    patterns = {
        tuple(count for _, count in _group_scales(chart.scales([x, y]).a))
        for x in grid.axes()[0]
        for y in grid.axes()[1]
    }
    assert sorted(calls) == sorted(patterns)


def test_unit_scale_grid_makes_one_truncation(monkeypatch):
    calls = []
    real = epstein._choose_T

    def counted(groups, tol):
        calls.append(tol)
        return real(groups, tol)

    monkeypatch.setattr(epstein, "_choose_T", counted)
    nodes = [(10, float(s), ScaleVector.unit(10)) for s in np.linspace(0.02, 4.98, 200)]
    values = [_pair(v) for v in xi_many(nodes)]
    # at V = 1 the unit scales and their reciprocals share one (scales, tol)
    assert len(calls) == 1
    assert values == [_pair(xi(*node)) for node in nodes]
    assert len(calls) == 1 + len(nodes)
