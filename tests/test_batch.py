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
@given(
    st.lists(nodes(), min_size=1, max_size=12),
    st.randoms(use_true_random=False),
    st.sampled_from((1, epstein._VECTOR_KEYS)),
)
def test_node_bit_identical_alone_and_in_any_batch(batch, rnd, gate):
    # at gate 1 every batch takes the array form, and at the default gate
    # these batches, split by dimension, mostly take the float form, as a node
    # alone does.  Repeated nodes and nodes with permuted scales share their
    # parts with the first of them
    repeats = [rnd.choice(batch) for _ in range(3)]
    permuted = [(n, s, tuple(rnd.sample(a, n))) for n, s, a in repeats]
    batch = batch + repeats + permuted + [_EMPTY]
    rnd.shuffle(batch)
    alone = [_pair(xi(*node)) for node in batch]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(epstein, "_VECTOR_KEYS", gate)
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
    real = epstein._truncation

    def counted(scales, counts, tol):
        calls.extend(np.ravel(tol).tolist())  # one tol per key
        return real(scales, counts, tol)

    monkeypatch.setattr(epstein, "_truncation", counted)
    nodes = [(10, float(s), ScaleVector.unit(10)) for s in np.linspace(0.02, 4.98, 200)]
    values = [_pair(v) for v in xi_many(nodes)]
    # at V = 1 the unit scales and their reciprocals share one (scales, tol)
    assert len(calls) == 1
    assert values == [_pair(xi(*node)) for node in nodes]
    assert len(calls) == 1 + len(nodes)


def test_symmetric_chart_evaluates_each_distinct_node_once(monkeypatch):
    jobs = []
    real = epstein._kernel_sums

    def counted(batch):
        jobs.extend(batch)
        return real(batch)

    monkeypatch.setattr(epstein, "_kernel_sums", counted)
    chart = kratio_chart(3)
    grid = scan(3, 0.7, chart, [(-2.0, 2.0)] * 2, [41, 41])
    # of the 1681 nodes, 760 are distinct as sorted scale vectors: mirror
    # nodes share their two jobs, and so their bits
    distinct = {tuple(sorted(chart.scales([x, y]).a)) for x in grid.axes()[0] for y in grid.axes()[1]}
    assert len(distinct) == 760
    assert len(jobs) <= 2 * len(distinct)
    for field in (grid.labels, grid.values, grid.errs):
        assert np.array_equal(field, field.T)


def _patterns(n: int, least: int = 1):
    """Every group-count pattern of n axes, counts ascending."""
    if n == 0:
        yield ()
    for count in range(least, n + 1):
        for rest in _patterns(n - count, count):
            yield (count, *rest)


def test_group_rows_equal_group_scales():
    # repeated draws from a few values make every mix of group counts
    rng = np.random.default_rng(12)
    for n in range(1, 13):
        a = rng.choice(rng.uniform(0.1, 3.0, 4), size=(200, n))
        scales, counts = epstein._group_rows(a)
        for row, row_scales, row_counts in zip(a, scales.tolist(), counts.tolist()):
            groups = _group_scales(tuple(row.tolist()))
            assert list(zip(row_scales, row_counts))[: len(groups)] == groups
            assert not any(row_counts[len(groups) :])


def _doubling_key(scales, counts):
    """The tol at which the tail bound at T = 8 meets tol in floating point,
    where the threshold of three contraction steps misses tol and doubles."""
    tol = 1e-3
    for _ in range(40):
        _, c, theta_prod, _ = epstein._truncation(scales, counts, tol)
        tol, last = epstein._tail_bound(8.0, c, theta_prod), tol
        if tol == last:
            break
    return tol


def test_truncation_array_pass_equals_float_form_bit_for_bit():
    rng = np.random.default_rng(16)
    doubled = 0
    for n in range(1, 13):
        for counts in _patterns(n):
            keys = 12
            scales = np.exp(rng.uniform(-4.0, 4.0, (len(counts), keys)))
            tols = np.exp(rng.uniform(math.log(1e-14), math.log(1e-2), keys))
            if n <= 3:
                scales[:, 0] = np.linspace(1.0, 0.5, len(counts))
                tols[0] = _doubling_key(tuple(scales[:, 0].tolist()), counts)
            columns = epstein._truncation(list(scales), counts, tols)
            for k in range(keys):
                one = epstein._truncation(tuple(scales[:, k].tolist()), counts, float(tols[k]))
                assert tuple(x[k] for x in columns) == one
                t0, c, theta_prod, tail = one
                assert t0 >= 8.0 and 0.0 < c <= 0.5 and tail < tols[k]
                # T0 = 16 is the doubled floor 8, where the bound misses tol
                doubled += t0 == 16.0 and epstein._tail_bound(8.0, c, theta_prod) >= tols[k]
    assert doubled


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.lists(nodes(), min_size=1, max_size=10),
    st.randoms(use_true_random=False),
    st.sampled_from((1, 40)),
)
def test_series_jobs_bit_identical_alone_and_in_any_batch(batch, rnd, gate):
    # with the series gate lowered, jobs of several orders and series orders
    # share chunks, so one chunk mixes per-point series coefficients, scalar
    # ones and gammaincc points; a job's value and err still do not depend on
    # its batch, nor on the chunk cuts
    batch = batch + [(6, 1.3, (0.7, 0.8, 1.0, 1.25, 0.5, 2.0))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(epstein, "_SERIES_POINTS", gate)
        rnd.shuffle(batch)
        order = list(range(len(batch)))
        rnd.shuffle(order)
        shuffled = xi_many([batch[i] for i in order])
        alone = [_pair(xi(*node)) for node in batch]
        assert [_pair(shuffled[order.index(k)]) for k in range(len(batch))] == alone
        mp.setattr(epstein, "_CHUNK_POINTS", 50)
        assert [_pair(v) for v in xi_many(batch)] == alone
