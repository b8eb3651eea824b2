"""The batched theta-integral rule: a node's value and err do not depend on
the batch it is evaluated in, nor on the evaluation blocks of the batch, and
the per-sum reductions stay within their err."""

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
from epsteinzeta.epstein import _groups, _theta_sums
from epsteinzeta.specfun import riemann_zeta

# repeated values make mixed group patterns such as (1, 2) or (1, 1, 3);
# ten distinct values let draws of n up to 12 reach 8 groups and more
_SCALES = (1.0, 0.5, 2.0, 0.8, 1.25, 0.7, 1.6, 0.9, 3.0, 0.4)
# pi * 1024^2 t lies past 700 from t = 1 on, so every node of S(0.3; 1024)
# takes the asymptotic form of log(Theta - 1), and the sum is 0.0 in double
# precision
_EMPTY = (1, 0.3, (1024.0,))
# the same with 8 groups: one node of width 8, a block of its own at gate 1
_WIDE_EMPTY = tuple(1024.0 * 1.1**i for i in range(8))


def _regular(n: int, s: float) -> bool:
    """Off the poles."""
    return abs(s) >= 1e-3 and abs(s - n / 2.0) >= 1e-3


@st.composite
def nodes(draw):
    n = draw(st.integers(1, 12))
    a = tuple(draw(st.lists(st.sampled_from(_SCALES), min_size=n, max_size=n)))
    # s < 0 and s > n/2 give orders beta <= 0, the integers -1 and n/2 + 1
    # the order -1 itself
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
    st.sampled_from((1, epstein._BLOCK)),
)
def test_node_bit_identical_alone_and_in_any_batch(batch, rnd, gate):
    # at gate 1 every sum is a block of its own, and at the default gate
    # these batches, split by dimension, are one block each, as a node alone
    # is.  Repeated nodes and nodes with permuted scales share their parts
    # with the first of them
    repeats = [rnd.choice(batch) for _ in range(3)]
    permuted = [(n, s, tuple(rnd.sample(a, n))) for n, s, a in repeats]
    batch = batch + repeats + permuted + [_EMPTY]
    rnd.shuffle(batch)
    alone = [_pair(xi(*node)) for node in batch]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(epstein, "_BLOCK", gate)
        assert [_pair(v) for v in xi_many(batch)] == alone
        order = list(range(len(batch)))
        rnd.shuffle(order)
        shuffled = xi_many([batch[i] for i in order])
        assert [_pair(shuffled[order.index(k)]) for k in range(len(batch))] == alone


def test_mixed_dimensions_make_one_engine_call(monkeypatch):
    # a seeded batch of n = 1..6 with repeated nodes and permuted scales is
    # one call of the rule, one per dimension no longer, and every node gets
    # the bits of xi alone
    rnd = np.random.default_rng(26)
    batch = []
    for n in range(1, 7):
        for _ in range(3):
            s = float(rnd.uniform(0.1, n / 2.0 - 0.1))
            batch.append((n, s, tuple(rnd.choice(_SCALES, n).tolist())))
    batch += batch[:4] + [(n, s, a[::-1]) for n, s, a in batch[4:10]]
    batch = [batch[i] for i in rnd.permutation(len(batch))]
    alone = [_pair(xi(*node)) for node in batch]
    calls = []
    sums = epstein._theta_sums

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return sums(*args, **kwargs)

    monkeypatch.setattr(epstein, "_theta_sums", counting)
    values = xi_many(batch)
    assert len(calls) == 1
    assert [_pair(v) for v in values] == alone
    # repeated nodes, and nodes with permuted scales, share one evaluation
    first = {}
    for (_, s, a), v in zip(batch, values):
        assert first.setdefault((s, tuple(sorted(a))), v) is v
    assert len(first) == 18


def test_chunk_cuts_leave_results_bit_identical(monkeypatch):
    chart = kratio_chart(3)
    batch = [(3, 0.7, chart.scales([x, y])) for x in (-1.5, 0.0, 0.8) for y in (-0.4, 0.0, 1.9)]
    whole = [_pair(v) for v in xi_many(batch)]
    # a block below every sum: each sum is evaluated in a block of its own
    monkeypatch.setattr(epstein, "_BLOCK", 5)
    assert [_pair(v) for v in xi_many(batch)] == whole


def _rule(beta, a, tol):
    """S(beta; a) and its err by the rule, alone."""
    group_scales, counts = _groups(tuple(sorted(a)))
    [value], [err] = _theta_sums([beta], [group_scales], [counts], [tol])
    return math.exp(value), math.exp(err)


def test_empty_lattice_sums_to_zero():
    # every node of S(0.3; 1024) lies past pi c^2 t = 700: the sum is 0.0 in
    # double precision, and its log value and err are the same bits alone
    # and followed by a sum of unit scales.  Its err covers S = 2 lam^-beta
    # Gamma(beta, lam), lam = pi 1024^2, whose omitted terms e^{-pi k^2 t},
    # k >= 2, are below e^{-3 lam} of it
    import mpmath

    assert _rule(0.3, (1024.0,), EvalConfig().tol / 4.0)[0] == 0.0
    [alone], [alone_err] = _theta_sums([0.3], [(1024.0,)], [(1,)], [1e-10])
    values, errs = _theta_sums([0.3, 0.3], [(1024.0,), (1.0,)], [(1,), (1,)], [1e-10, 1e-10])
    assert values == [alone, math.log(_rule(0.3, (1.0,), 1e-10)[0])]
    assert errs[0] == alone_err
    with mpmath.workdps(30):
        lam = mpmath.pi * 1024**2
        exact = 2 * lam**-0.3 * mpmath.gammainc(0.3, lam)
        assert abs(mpmath.exp(alone) - exact) <= mpmath.exp(alone_err)
    # Xi_1(s; a) = V pi^-s Gamma(s) 2 zeta(2s) a^-2s with V = sqrt(a)
    n, s, (a,) = _EMPTY
    v = xi(n, s, (a,))
    zeta = riemann_zeta(2.0 * s)
    factor = math.sqrt(a) * math.pi**-s * math.gamma(s) * 2.0 * a ** (-2.0 * s)
    assert abs(v.value - factor * zeta.value) <= v.err + abs(factor) * zeta.err + 1e-15


def test_reduction_within_rounding_allowance_on_large_lattice():
    # small scales make the lattice sum long and the rule's sums wide: the
    # per-sum pairwise reductions against exactly rounded sums of the same
    # node terms, recomputed here, for two orders next to a small sum in
    # one block, are within the err
    a = (0.03, 0.04, 0.05)
    key = _groups(a)
    orders = [1.1, 0.7, -0.4]
    values, errs = _theta_sums(orders, [(0.5, 1.0, 2.0), *[key[0]] * 2], [(1, 1, 1), *[key[1]] * 2], [1e-10] * 3)
    for value, err, beta in zip(values[1:], errs[1:], orders[1:]):
        h, k_lo, k_hi = epstein._plan(beta, 1e-10, epstein._key_data([key])[0], False)[:3]
        assert k_hi - k_lo > 60
        u = np.arange(k_lo, k_hi + 1) * h
        w = np.exp(-u)
        e = np.exp(u - w)
        x = np.array([c * c for c in key[0]]) * (1.0 + e)[:, None]
        _, lf = epstein._log_theta(x, np.array([key[1]], dtype=float))
        lf += (beta - 1.0) * np.log1p(e) + (u - w) + np.log1p(w)
        exact = h * math.fsum(np.exp(lf).tolist())
        assert abs(math.exp(value) - exact) <= math.exp(err)


def test_symmetric_chart_evaluates_each_distinct_node_once(monkeypatch):
    jobs = []
    real = epstein._theta_sums

    def counted(orders, *rest, **kw):
        jobs.extend(orders)
        return real(orders, *rest, **kw)

    monkeypatch.setattr(epstein, "_theta_sums", counted)
    chart = kratio_chart(3)
    grid = scan(3, 0.7, chart, [(-2.0, 2.0)] * 2, [41, 41])
    # of the 1681 nodes, 760 are distinct as sorted scale vectors: mirror
    # nodes share their two sums, and so their bits
    distinct = {tuple(sorted(chart.scales([x, y]).a)) for x in grid.axes()[0] for y in grid.axes()[1]}
    assert len(distinct) == 760
    assert len(jobs) <= 2 * len(distinct)
    for field in (grid.labels, grid.values, grid.errs):
        assert np.array_equal(field, field.T)


def test_groups_are_runs_of_equal_scales():
    # repeated draws from a few values make every mix of group counts
    rng = np.random.default_rng(12)
    for n in range(1, 13):
        for row in rng.choice(rng.uniform(0.1, 3.0, 4), size=(200, n)).tolist():
            asc = tuple(sorted(row))
            scales, counts = _groups(asc)
            assert list(scales) == sorted(set(row)) and sum(counts) == n
            assert [asc.count(x) for x in scales] == list(counts)


@pytest.mark.parametrize("counted", [False, True])
def test_group_sum_of_a_node_alone_is_that_of_its_block(counted):
    # the groups' log theta are added one after another whatever the shape:
    # numpy's own reduction adds the contiguous group axis of a one-node
    # block pairwise from 8 groups on, and a node alone would then differ in
    # the last bit from the same node in a block
    rng = np.random.default_rng(29)
    for width in range(1, 41):
        x = rng.uniform(0.05, 3.0, (width, 16))  # group-major, as `_evaluate` lays it out
        m = rng.integers(1, 4, (width, 16)).astype(float) if counted else None
        block = epstein._log_theta(x.T, None if m is None else m.T)
        for j in range(16):
            alone = epstein._log_theta(x[:, j : j + 1].T, None if m is None else m[:, j : j + 1].T)
            assert [float(part[0]) for part in alone] == [float(part[j]) for part in block]


def test_unit_scale_grid_evaluates_its_key_once(monkeypatch):
    calls = []
    real = epstein._log_theta

    def counted(x, *rest):
        calls.append(x.shape)
        return real(x, *rest)

    monkeypatch.setattr(epstein, "_log_theta", counted)
    epstein._KEYS.clear()
    nodes = [(10, float(s), ScaleVector.unit(10)) for s in np.linspace(0.02, 4.98, 200)]
    values = [_pair(v) for v in xi_many(nodes)]
    # the unit scales are their own reciprocals: one key, planned once
    planned = [shape for shape in calls if shape[1:] == (3, 1)]
    assert len(planned) == 1
    assert values == [_pair(xi(*node)) for node in nodes]
    assert [shape for shape in calls if shape[1:] == (3, 1)] == planned


def test_full_key_cache_keeps_the_keys_of_the_call(monkeypatch):
    # a call whose new key empties the full cache of key data still has the
    # data of its keys that were cached before, and the same values
    nodes = [(3, 0.7, (1.0, 1.0, 1.0)), (3, 0.7, (0.5, 1.0, 2.0))]
    expected = [_pair(v) for v in xi_many(nodes)]
    monkeypatch.setattr(epstein, "_KEYS", {})
    xi(*nodes[0])
    for i in range((1 << 14) - len(epstein._KEYS)):
        epstein._KEYS[("filler", i)] = ()
    assert [_pair(v) for v in xi_many(nodes)] == expected
    assert len(epstein._KEYS) == 1


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(st.floats(-3.0, 12.0), st.lists(st.sampled_from(_SCALES), min_size=1, max_size=12)), min_size=1, max_size=10),
    st.randoms(use_true_random=False),
    st.sampled_from((1, 40)),
)
def test_theta_sums_bit_identical_alone_and_in_any_batch(jobs, rnd, gate):
    # sums of several orders and group patterns share blocks, and a block
    # cut anywhere; a sum's value and err do not depend on its batch.  The
    # key data of the far scale 1024, whose nodes all take the asymptotic
    # form of log(Theta - 1), is computed in the batch next to wider keys;
    # its 8-group twin has one node, so alone it sums its groups over a
    # block of one node
    jobs = [(beta, *_groups(tuple(sorted(a)))) for beta, a in jobs]
    jobs += [(1.3, (0.5, 0.7, 1.0), (1, 2, 3)), (0.3, (1024.0,), (1,)), (0.3, _WIDE_EMPTY, (1,) * 8)]
    order = list(range(len(jobs)))
    rnd.shuffle(order)
    epstein._KEYS.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(epstein, "_BLOCK", gate)
        values, errs = _theta_sums(*map(list, zip(*[jobs[i] for i in order])), [1e-10] * len(jobs))
    batched = [(values[order.index(k)], errs[order.index(k)]) for k in range(len(jobs))]
    alone = []
    for beta, sc, ct in jobs:
        epstein._KEYS.clear()
        [value], [err] = _theta_sums([beta], [sc], [ct], [1e-10])
        alone.append((value, err))
    assert batched == alone
