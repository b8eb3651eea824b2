import math

import pytest

from epsteinzeta import (
    AnalysisError,
    DomainError,
    EvalConfig,
    IndeterminateSignError,
    ScaleVector,
    classify_critical_point,
    decide_sign,
    find_positive_interval,
    hat_xi,
    hat_xi_second_derivative,
    large_scale_positivity,
    critical_sign_certificates,
    decide_signs,
    verify_negative_range,
    xi,
)

REFERENCE_INTERVALS = {
    10: (1.0899, 3.9101),
    21: (0.0034, 10.4966),
}


@pytest.mark.parametrize("n", [10, 21])
def test_positive_interval_endpoints(n):
    interval = find_positive_interval(n)
    lo, hi = REFERENCE_INTERVALS[n]
    assert interval.gamma == pytest.approx(lo, abs=5e-4)
    assert interval.mirror == pytest.approx(hi, abs=5e-4)
    assert interval.bracket_width <= 1e-5
    assert interval.mirror == n / 2.0 - interval.gamma


def test_positive_interval_empty_for_nine():
    assert find_positive_interval(9) is None


def test_positive_interval_empty_for_one():
    assert find_positive_interval(1) is None


# 28 and 30 have gamma below 1e-4, where no node grid starting at 1e-4 sees it
@pytest.mark.parametrize("n", [*range(10, 22), 28, 30])
def test_interval_endpoint_brackets_a_sign_change(n):
    interval = find_positive_interval(n)
    w = interval.bracket_width
    assert w <= 1e-5
    left, lv = decide_sign(n, interval.gamma - w, ScaleVector.unit(n))
    right, rv = decide_sign(n, interval.gamma + w, ScaleVector.unit(n))
    assert left < 0 < right
    assert lv.excludes_zero() and rv.excludes_zero()


# float.hex of the Table-1 gamma_10 .. gamma_21 at the default tol
TABLE1_GAMMA_HEX = [
    "0x1.1705880000000p+0", "0x1.47be280000000p-1", "0x1.971f900000000p-2",
    "0x1.ff80f00000000p-3", "0x1.3fda100000000p-3", "0x1.8af2900000000p-4",
    "0x1.df2a000000000p-5", "0x1.1cbde00000000p-5", "0x1.4ae8800000000p-6",
    "0x1.77bb800000000p-7", "0x1.a0cc000000000p-8", "0x1.c395000000000p-9",
]


def test_sign_certificate_plans_its_key_once(monkeypatch):
    # the planning data of the unit scales is computed once and serves
    # every engine call of every certificate run, at every tol
    from epsteinzeta import epstein

    planned = []
    real = epstein._log_theta

    def counted(x, m, far=False):
        if x.ndim == 3:
            planned.append(x.shape)
        return real(x, m, far)

    monkeypatch.setattr(epstein, "_log_theta", counted)
    epstein._KEYS.clear()
    gammas = [find_positive_interval(n).gamma.hex() for n in range(10, 22)]
    assert gammas == TABLE1_GAMMA_HEX
    # one key per dimension
    assert len(planned) == 12
    find_positive_interval(10, EvalConfig(tol=1e-3))
    assert len(planned) == 12


def test_interval_whose_bracket_reaches_zero_is_an_error():
    with pytest.raises(AnalysisError):
        find_positive_interval(32)


def test_sign_certificates_refine_a_coarse_tolerance():
    # at tol 1e-3 the err of the kernel part, not the piece width, keeps the
    # pieces next to gamma undecided until their ends are refined
    coarse = find_positive_interval(10, EvalConfig(tol=1e-3))
    fine = find_positive_interval(10)
    assert coarse.bracket_width <= 1e-5
    assert abs(coarse.gamma - fine.gamma) <= coarse.bracket_width + fine.bracket_width
    assert all(r.holds() for r in verify_negative_range(9, EvalConfig(tol=1e-2)))


def test_decide_sign_exhausts_its_refinements(monkeypatch):
    # gamma_10 lies within 1e-5 of this node, so tol 1 refined tenfold three
    # times still leaves |Xi| = 1.4e-5 inside its bound 2.5e-4
    from epsteinzeta import analysis

    tols = []
    nodes = analysis._xi_nodes

    def counting(s, a, cfg):
        tols.append(cfg.tol)
        return nodes(s, a, cfg)

    monkeypatch.setattr(analysis, "_xi_nodes", counting)
    node = (10, 1.0899267578125, ScaleVector.unit(10))
    cfgs = [EvalConfig(tol=1.0)]
    for _ in range(3):
        cfgs.append(cfgs[-1].tighter(0.1))
    with pytest.raises(IndeterminateSignError):
        decide_sign(*node, cfgs[0])
    assert tols == [c.tol for c in cfgs]
    # the batched form reports sign 0 with the tightest evaluation
    [(sign, value)] = decide_signs([node], cfgs[0])
    tightest = xi(*node, cfgs[-1])
    assert sign == 0 and (value.value, value.err) == (tightest.value, tightest.err)


def test_sign_pieces_evaluate_each_round_in_one_engine_call(monkeypatch):
    # a round whose ends are not all known makes one engine call, at each
    # end's own refinement level, which also carries the ends the forecast
    # expects later rounds to ask for: 7 calls at n = 11, tol 1, where one
    # call per round took 25
    from epsteinzeta import analysis, epstein

    calls = []
    sums = epstein._theta_sums

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return sums(*args, **kwargs)

    monkeypatch.setattr(epstein, "_theta_sums", counting)
    cfg = EvalConfig(tol=1.0)
    pieces = analysis._sign_pieces(11, cfg)
    monkeypatch.undo()
    assert len(calls) == 7
    assert [sign for _, _, sign, _ in pieces] == [-1] * 20 + [0] * 54 + [1] * 23
    assert pieces[0][0] == 0.0 and pieces[-1][1] == 11 / 4.0
    assert all(a[1] == b[0] for a, b in zip(pieces, pieces[1:]))
    # each bound is the same bits as its end evaluated alone at one of the
    # tolerances cfg.tighter(0.1 ** k) of the refinements
    unit = ScaleVector.unit(11).ascending
    tols = [cfg.tighter(0.1**k).tol for k in range(4)]

    def bounds(pole_at, end, side):
        parts, _ = epstein._kernel_parts([end] * 4, [unit] * 4, tols)
        values = [epstein._xi_value(11, pole_at, *part[2:]) for part in parts]
        return {v.value + side * v.err for v in values}

    for lo, hi, sign, bound in pieces:
        if sign < 0:
            assert bound in bounds(hi, lo, 1.0)
        elif sign > 0:
            assert bound in bounds(lo, hi, -1.0)
        else:
            assert math.isnan(bound)


_FORECAST_CASES = [
    (11, 1.0), (10, 1e-3), (10, 1e-9), (14, 0.5), (21, 1e-9), (9, 1e-2), (9, 1e-9), (5, 1e-9), (28, 1e-9), (30, 1e-9)
]


def test_sign_pieces_forecast_is_speculation(monkeypatch):
    # the forecast only chooses which ends an engine call carries: without it
    # every round decides the same pieces from the same bits
    from epsteinzeta import analysis

    def bits(pieces):
        return [(lo.hex(), hi.hex(), sign, bound.hex()) for lo, hi, sign, bound in pieces]

    cases = [(n, EvalConfig(tol=tol)) for n, tol in _FORECAST_CASES]
    forecast = [bits(analysis._sign_pieces(n, cfg)) for n, cfg in cases]
    monkeypatch.setattr(analysis, "_forecast", lambda *args: [])
    assert [bits(analysis._sign_pieces(n, cfg)) for n, cfg in cases] == forecast


def test_sign_pieces_forecast_cuts_engine_calls(monkeypatch):
    from epsteinzeta import analysis

    calls, extra = [], []
    kernel_parts, forecast = analysis._kernel_parts, analysis._forecast

    def counting(s, a, tol):
        calls.append(list(zip(s, tol)))
        return kernel_parts(s, a, tol)

    def recording(n, pending, level, known):
        ends = forecast(n, pending, level, known)
        extra.append(len(ends))
        return ends

    monkeypatch.setattr(analysis, "_kernel_parts", counting)
    monkeypatch.setattr(analysis, "_forecast", recording)
    for n in range(10, 22):
        calls.clear()
        analysis._sign_pieces(n, EvalConfig())
        assert len(calls) <= 8, n
    # the doubling guard: no call carries more forecast ends than the ends
    # known before it, and no end is evaluated twice
    calls.clear()
    extra.clear()
    analysis._sign_pieces(11, EvalConfig(tol=1.0))
    assert len(extra) == len(calls) and sum(extra) > 0
    known = set()
    for call, forecast_ends in zip(calls, extra):
        assert forecast_ends <= len(known)
        assert known.isdisjoint(call) and len(set(call)) == len(call)
        known.update(call)


def test_interval_symmetry_of_signs():
    interval = find_positive_interval(10)
    unit = ScaleVector.unit(10)
    for delta in (0.05, 0.3, 1.0):
        s1, _ = decide_sign(10, interval.gamma + delta, unit)
        s2, _ = decide_sign(10, 5.0 - interval.gamma - delta, unit)
        assert s1 == s2


def test_interval_nesting():
    i10 = find_positive_interval(10)
    i11 = find_positive_interval(11)
    assert i11.gamma < i10.gamma
    assert i11.mirror - 0.5 > i10.mirror - 0.5  # both grow with n/2


def test_certificate_constants():
    reports = {r.quantity: r for r in critical_sign_certificates()}
    assert reports["first_shell_9"].bound_value == pytest.approx(0.3540, abs=1e-3)
    assert reports["tail_9"].bound_value == pytest.approx(0.0769, abs=1e-3)
    combined = reports["kernel_sum_9"]
    assert combined.bound_value == pytest.approx(0.4309, abs=1e-3)
    assert combined.threshold == pytest.approx(4.0 / 9.0)
    assert combined.holds()
    lower = reports["xi10_first_shell"]
    assert lower.bound_value == pytest.approx(0.04808, abs=1e-4)
    assert lower.holds()


def test_bound_reports_rederivable():
    for report in critical_sign_certificates() + verify_negative_range(9):
        if report.threshold is None:
            continue
        if report.direction == "upper":
            assert report.holds() == (report.bound_value < report.threshold)
        else:
            assert report.holds() == (report.bound_value > report.threshold)


def test_staircase_constants():
    reports = {r.quantity: r.bound_value for r in verify_negative_range(9)}
    assert reports["kernel_upper(0.0)"] == pytest.approx(1.2926, abs=1e-3)
    assert reports["pole_part(0.95)"] == pytest.approx(-1.3343, abs=1e-4)
    assert reports["kernel_upper(0.95)"] == pytest.approx(0.9728, abs=1e-3)
    assert reports["pole_part(1.55)"] == pytest.approx(-0.9841, abs=1e-4)
    assert reports["kernel_upper(1.55)"] == pytest.approx(0.8943, abs=1e-3)
    assert reports["pole_part(2.0)"] == pytest.approx(-0.9, abs=1e-9)
    assert reports["kernel_upper(2.0)"] == pytest.approx(0.8649, abs=1e-3)
    assert reports["pole_part(2.25)"] == pytest.approx(-0.8889, abs=1e-4)
    assert reports["stair(0.0,0.95]"] == pytest.approx(-0.0417, abs=1e-3)
    assert reports["stair(0.95,1.55]"] == pytest.approx(-0.0113, abs=1e-3)
    assert reports["stair(1.55,2.0]"] == pytest.approx(-0.0057, abs=1e-3)
    assert reports["stair(2.0,2.25]"] == pytest.approx(-0.0240, abs=1e-3)


_STAIR_NAMES = ["stair(0.0,0.95]", "stair(0.95,1.55]", "stair(1.55,2.0]", "stair(2.0,2.25]"]


@pytest.mark.parametrize("n", [1, 4, 8])
def test_negative_range_small_dimensions(n):
    reports = verify_negative_range(n)
    continuum = next(r for r in reports if r.quantity.startswith("continuum_negativity"))
    assert continuum.holds()
    # the n = 9 stairs cover the continuum (0, n/4] for every n <= 9
    stairs = {r.quantity: r for r in reports if r.quantity.startswith("stair")}
    assert sorted(stairs) == sorted(_STAIR_NAMES)
    assert all(stairs[name].holds() and stairs[name].threshold == 0.0 for name in _STAIR_NAMES)


@pytest.mark.parametrize("n", range(1, 10))
def test_negative_range_reports_stairs_and_grid(n):
    reports = verify_negative_range(n)
    certified = [r.quantity for r in reports if r.threshold is not None]
    assert certified == _STAIR_NAMES + [f"continuum_negativity_n{n}"]
    assert len(reports) == 13
    assert all(r.holds() for r in reports)


def test_negative_range_domain():
    with pytest.raises(DomainError):
        verify_negative_range(10)


REFERENCE_XI_DD = {10: -0.101080515709, 11: 0.009568954836}


@pytest.mark.parametrize("n", [10, 11])
def test_second_derivative_values(n):
    d2 = hat_xi_second_derivative(n, 0.5)
    unhatted = d2.value / (n / 2.0) ** 2
    assert unhatted == pytest.approx(REFERENCE_XI_DD[n], abs=1e-6)
    assert d2.err / (n / 2.0) ** 2 < 1e-6


def test_first_derivative_vanishes_at_center():
    h = 0.01
    plus = hat_xi(7, 0.5 + h)
    minus = hat_xi(7, 0.5 - h)
    fd = (plus.value - minus.value) / (2.0 * h)
    assert abs(fd) <= 1e-6 + (plus.err + minus.err) / (2.0 * h)


@pytest.mark.parametrize("n,expected", [(2, "local_max"), (10, "local_max"), (11, "local_min")])
def test_classification(n, expected):
    assert classify_critical_point(n) == expected


def test_large_scale_positivity_exists():
    threshold = large_scale_positivity(2, 0.5)
    assert math.isfinite(threshold) and threshold >= 2.0


def test_large_scale_positivity_dimension_nine():
    # at unit scales Xi_9(9/4) < 0; with a_1 = 2^10 it is positive
    unit = xi(9, 9.0 / 4.0, ScaleVector.unit(9))
    assert unit.value < 0
    big = xi(9, 9.0 / 4.0, ScaleVector([2.0**10] + [1.0] * 8))
    assert big.value > 0
    threshold = large_scale_positivity(9, 9.0 / 4.0)
    assert threshold <= 2.0**10


def test_large_scale_domain():
    with pytest.raises(DomainError):
        large_scale_positivity(3, 2.0)
