"""The four benchmark workloads: seeded inputs, one pass, and output checks.

Each workload calls epsteinzeta only through its public functions.  A pass
is one whole round of the same operations; an operation is one public call.
Every output is checked against the mpmath oracle (oracle.py) or against a
property the mathematics guarantees, never against a stored copy of the
program's own output.  The allowance is always the program's reported err
plus the oracle's own error estimate.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from pathlib import Path

import numpy as np
from scipy.special import gammaincc

HERE = Path(__file__).resolve().parent

# Paper's Table 1: gamma_n, the left end of the positivity interval at unit scales
PAPER_TABLE_1 = {
    10: 1.0899, 11: 0.6401, 12: 0.3976, 13: 0.2498, 14: 0.1562, 15: 0.0964,
    16: 0.0585, 17: 0.0348, 18: 0.0202, 19: 0.0115, 20: 0.0064, 21: 0.0034,
}
PAPER_DIGITS = 5e-4
PROBE_POINTS = 100
PROBE_ROUND_S = 0.25


# The host's speed moves every timing of a run together, by up to 1.6x.  A
# fixed loop of interpreter and numpy work, timed every CALIBRATE_EVERY_S
# seconds through the run, measures it; timings are reported at the reference
# speed, where the loop's least time is CALIBRATION_REF_S (its least time on a
# 2.0 GHz Xeon with 2 vCPUs).
CALIBRATION_REF_S = 0.0103
CALIBRATE_EVERY_S = 0.5


def calibration_time() -> float:
    """Wall time of a fixed mix of interpreter work, numpy calls on small
    arrays and a scipy kernel on a large one, the kinds of work the package
    does: 10 to 17 ms on the reference host."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(30_000):
        acc += i * i
    x = np.linspace(0.1, 10.0, 64)
    for _ in range(600):
        x = np.sqrt(x * x + 1.0) - 0.5
    y = np.linspace(0.1, 30.0, 20_000)
    for _ in range(3):
        y = gammaincc(1.25, y) + y
    return time.perf_counter() - t0


class Ledger:
    """Counts operations, failed operations and wrong outputs of one run, and
    samples the host's speed between operations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = False
        self.problems: list[str] = []
        self.op_times: list[float] = []  # wall time of each call, in order
        self.calibrations: list[float] = []
        self._calibrated_at = -math.inf

    def calibrate(self, force: bool = False) -> None:
        if force or time.perf_counter() - self._calibrated_at >= CALIBRATE_EVERY_S:
            self.calibrations.append(calibration_time())
            self._calibrated_at = time.perf_counter()

    def speed(self) -> float:
        """Factor from this run's wall times to times at the reference speed."""
        return CALIBRATION_REF_S / min(self.calibrations)

    def call(self, fn, *args, **kwargs):
        """One public call; a raised exception fails the operation."""
        self.calibrate()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # any error of the library fails the operation
            self.failed += 1
            self.problems.append(f"{getattr(fn, '__name__', fn)}{args!r:.120}: {exc!r}")
            return None
        finally:
            self.op_times.append(time.perf_counter() - t0)

    def check(self, ok: bool, what: str) -> None:
        """A failed check fails one operation and makes the run incorrect."""
        if not ok:
            self.failed += 1
            self.wrong = True
            self.problems.append(what)

    def state(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "wrong": self.wrong, "problems": self.problems}

    def merge(self, state: dict) -> None:
        """Adds the counts of a ledger kept in another process."""
        self.attempted += state["attempted"]
        self.failed += state["failed"]
        self.wrong |= state["wrong"]
        self.problems += state["problems"]

    def timed(self, fn, *args):
        """One public call and its wall time in seconds."""
        out = self.call(fn, *args)
        return out, self.op_times[-1]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _oracle_agrees(ledger, oracle, n, s, scales, value, err, what) -> float:
    """Checks value +- err against the oracle; returns the oracle's value."""
    ref, ref_err = oracle.xi(n, s, [float(x) for x in scales])
    ledger.check(
        abs(value - ref) <= err + ref_err,
        f"{what}: Xi_{n}({s}) = {value!r} +- {err:.3g}, oracle {ref!r} +- {ref_err:.3g}",
    )
    return ref


class Probed:
    """A workload whose xi latency is probed at PROBE_POINTS of its own points,
    in rounds spread through the run."""

    def probe_round(self, ledger) -> None:
        """Rounds of one timed xi call at each probe point (n, s, scales),
        for PROBE_ROUND_S seconds and at least one round."""
        deadline = time.perf_counter() + PROBE_ROUND_S
        while True:
            for times, (n, s, scales) in zip(self.probe_times, self.probe):
                times.append(ledger.timed(self.ez.xi, n, s, scales)[1])
            if time.perf_counter() >= deadline:
                return

    def call_times(self) -> list[float]:
        """Per probe point, its least xi call time over the rounds."""
        return [min(times) for times in self.probe_times]


def _strata(rng, count: int) -> np.ndarray:
    """count values in [0, 1), one uniform draw in each of count equal strata."""
    return (np.arange(count) + rng.uniform(size=count)) / count


def _product_one(rng, n: int, radius: float) -> np.ndarray:
    """exp of a mean-zero log-scale vector whose largest entry is `radius`."""
    logs = rng.uniform(-1.0, 1.0, n)
    logs -= logs.mean()
    peak = np.abs(logs).max()
    return np.exp(logs * (radius / peak)) if peak > 0 else np.ones(n)


def _generic_s(rng, lo: float, hi: float) -> float:
    """s in [lo, hi] at least 0.02 from every multiple of 1/2, so off the
    poles 0 and n/2 and generic for the Chowla-Selberg route."""
    while True:
        s = float(rng.uniform(lo, hi))
        if abs(2.0 * s - round(2.0 * s)) >= 0.04:
            return s


class CriticalSigns(Probed):
    """n <= 9 negativity, the closed-form certificates and Table 1, at unit scales."""

    name = "critical_signs"

    def __init__(self, ez, seed: int) -> None:
        self.ez = ez
        roots = json.loads((HERE / "oracle_values.json").read_text())["table1_roots"]
        self.roots = {int(n): r for n, r in roots.items()}
        rng = _rng(seed, 1)
        grid = {n: [k / 100.0 for k in range(1, int(round(n * 25)) + 1)] for n in range(1, 22)}
        # five grid points of every n = 1..20, as the sign scans visit them
        self.probe = [
            (n, float(s), ez.ScaleVector.unit(n))
            for n in range(1, 21)
            for s in rng.choice(grid[n], size=PROBE_POINTS // 20, replace=False)
        ]
        self.probe_times = [[] for _ in self.probe]
        self.oracle_points = [
            (int(n), float(rng.choice(grid[n]))) for n in rng.choice(range(1, 10), 3, replace=False)
        ]

    def run_pass(self, ledger):
        ez = self.ez
        negative = {n: ledger.call(ez.verify_negative_range, n) for n in range(1, 10)}
        certificates = ledger.call(ez.critical_sign_certificates)
        intervals = {n: ledger.call(ez.find_positive_interval, n) for n in range(10, 22)}
        return negative, certificates, intervals

    def check_pass(self, out, ledger) -> None:
        negative, certificates, intervals = out
        for n, reports in negative.items():
            if reports is not None:
                bad = [r.quantity for r in reports if not r.holds()]
                ledger.check(not bad, f"verify_negative_range({n}) bounds fail: {bad}")
        if certificates is not None:
            bad = [r.quantity for r in certificates if not r.holds()]
            ledger.check(not bad, f"critical_sign_certificates fail: {bad}")
        for n, iv in intervals.items():
            if iv is None:
                continue
            ledger.check(
                abs(iv.gamma - self.roots[n]) <= iv.bracket_width,
                f"gamma_{n} = {iv.gamma} not within {iv.bracket_width} of oracle root {self.roots[n]}",
            )
            ledger.check(
                abs(iv.gamma - PAPER_TABLE_1[n]) <= PAPER_DIGITS,
                f"gamma_{n} = {iv.gamma} differs from Table 1 ({PAPER_TABLE_1[n]})",
            )
            ledger.check(iv.mirror == n / 2.0 - iv.gamma, f"mirror_{n} != n/2 - gamma")
            prev = intervals.get(n - 1)
            if prev is not None:
                ledger.check(
                    iv.gamma < prev.gamma and iv.mirror > prev.mirror,
                    f"intervals {n - 1} and {n} do not nest",
                )

    def verify(self, out, ledger, oracle) -> None:
        for n, s in self.oracle_points:
            ref, ref_err = oracle.xi(n, s, [1.0] * n)
            ledger.check(ref + ref_err < 0.0, f"oracle Xi_{n}({s}) = {ref} is not negative")


class MinConvexity(Probed):
    """Minimum at equal scales and midpoint convexity at large n, generic scales."""

    name = "min_convexity"
    CASES = ((9, 2.25), (10, 1.0))
    SAMPLES = 12
    # The sampler's own seed stays fixed: its draws reach log-scales of +-4.5,
    # and the largest of them sets the run's peak memory
    SAMPLER_SEED = 0
    PAIRS = 6
    HALF_WIDTH = 0.5  # chart coordinates of the midpoint pairs lie in [-w, w]

    def __init__(self, ez, seed: int) -> None:
        self.ez = ez
        rng = _rng(seed, 2)
        self.pairs = {
            n: [
                (rng.uniform(-self.HALF_WIDTH, self.HALF_WIDTH, n - 1),
                 rng.uniform(-self.HALF_WIDTH, self.HALF_WIDTH, n - 1))
                for _ in range(self.PAIRS)
            ]
            for n, _ in self.CASES
        }
        per_case = PROBE_POINTS // len(self.CASES)
        self.probe = [
            (n, s, ez.ScaleVector(_product_one(rng, n, r)))
            for n, s in self.CASES
            for r in 0.1 + 0.9 * _strata(rng, per_case)
        ]
        self.probe_times = [[] for _ in self.probe]

    def run_pass(self, ledger):
        ez = self.ez
        out = []
        for n, s in self.CASES:
            chart = ez.standard_chart(n)
            minimum = ledger.call(
                ez.verify_minimum_at_equal_scales, n, s, self.SAMPLES, seed=self.SAMPLER_SEED
            )
            mids = [ledger.call(ez.midpoint_convexity_xi, n, s, chart, b1, b2) for b1, b2 in self.pairs[n]]
            out.append((n, s, minimum, mids))
        return out

    def check_pass(self, out, ledger) -> None:
        for n, s, minimum, mids in out:
            if minimum is not None:
                ledger.check(
                    minimum.holds and minimum.failures == 0 and minimum.min_margin > 0.0,
                    f"minimum at equal scales fails at ({n}, {s}): {minimum}",
                )
            for k, mid in enumerate(mids):
                if mid is not None:
                    ledger.check(mid.holds, f"midpoint pair {k} at ({n}, {s}) not convex: slack {mid.slack}")

    def verify(self, out, ledger, oracle) -> None:
        ez = self.ez
        for n, s in self.CASES:
            b1 = self.pairs[n][0][0]
            for scales in (ez.ScaleVector.unit(n), ez.standard_chart(n).scales(b1)):
                value = ledger.call(ez.xi, n, s, scales)
                if value is not None:
                    _oracle_agrees(ledger, oracle, n, s, scales.a, value.value, value.err, "min_convexity")


class SignRegions(Probed):
    """Two 41x41 chart scans with the connectivity and convexity certifiers."""

    name = "sign_regions"
    BOUNDS = ((-2.0, 2.0), (-2.0, 2.0))
    STEPS = (41, 41)

    def __init__(self, ez, seed: int) -> None:
        self.ez = ez
        self.cases = [(3, 0.7, ez.kratio_chart(3)), (10, 2.5, ez.kratio_chart(10, 2))]
        axis = np.linspace(*self.BOUNDS[0], self.STEPS[0])
        rng = _rng(seed, 3)
        self.probe = []
        self.oracle_nodes = []
        # 30 and 70 nodes: an (n = 3) call is mostly cheaper than an (n = 10)
        # one, so the median falls inside the second group, not between them
        for (n, s, chart), count in zip(self.cases, (30, 70)):
            # a Latin-hypercube sample of the grid: one node per row stratum
            # and per column stratum, so every seed covers the grid alike
            rows = (self.STEPS[0] * _strata(rng, count)).astype(int)
            cols = (self.STEPS[1] * rng.permutation(_strata(rng, count))).astype(int)
            nodes = list(zip(rows.tolist(), cols.tolist()))
            self.probe += [(n, s, chart.scales(axis[list(idx)])) for idx in nodes]
            self.oracle_nodes += [(n, s, chart, idx) for idx in nodes[:: count // 2][:2]]
        self.probe_times = [[] for _ in self.probe]

    def run_pass(self, ledger):
        ez = self.ez
        out = []
        for n, s, chart in self.cases:
            grid = ledger.call(ez.scan, n, s, chart, self.BOUNDS, self.STEPS)
            if grid is None:
                out.append((n, s, None, None, None))
                continue
            out.append((
                n, s, grid,
                ledger.call(ez.certify_connected, grid),
                ledger.call(ez.certify_discrete_convex, grid),
            ))
        return out

    def check_pass(self, out, ledger) -> None:
        for n, s, grid, connected, convex in out:
            if grid is None:
                continue
            labels = grid.labels
            ledger.check(not (labels == 0).any(), f"scan ({n}, {s}) has indeterminate nodes")
            # swapping the two chart axes permutes two scales, which leaves Xi unchanged
            ledger.check(np.array_equal(labels, labels.T), f"scan ({n}, {s}) labels not symmetric")
            gap = np.abs(grid.values - grid.values.T) - (grid.errs + grid.errs.T)
            ledger.check(gap.max() <= 0.0, f"scan ({n}, {s}) values not symmetric within err")
            if n == 3:
                centre = tuple(k // 2 for k in self.STEPS)
                ledger.check(labels[centre] == -1, "origin of the (3, 0.7) chart is not negative")
                if connected is not None:
                    ledger.check(
                        connected.connected and not connected.empty and connected.components == 1,
                        f"negative region of (3, 0.7) not one component: {connected}",
                    )
                if convex is not None:
                    ledger.check(convex.ok, f"negative region of (3, 0.7) not convex: {convex.witness}")
            else:
                ledger.check(bool((labels == 1).all()), f"scan ({n}, {s}) has non-positive nodes")
                if convex is not None:
                    ledger.check(convex.ok, f"scan ({n}, {s}) convexity certificate fails")

    def verify(self, out, ledger, oracle) -> None:
        axis = np.linspace(*self.BOUNDS[0], self.STEPS[0])
        grids = {(n, s): grid for n, s, grid, _, _ in out}
        for n, s, chart, idx in self.oracle_nodes:
            grid = grids[(n, s)]
            if grid is None:
                continue
            value, err = float(grid.values[idx]), float(grid.errs[idx])
            scales = chart.scales(axis[list(idx)]).a
            ref = _oracle_agrees(ledger, oracle, n, s, scales, value, err, f"scan node {idx}")
            ledger.check(np.sign(ref) == grid.labels[idx], f"scan ({n}, {s}) node {idx} has the wrong sign")


class PointEvals:
    """A seeded stream of single xi calls, cross-checked by Chowla-Selberg."""

    name = "point_evals"
    # points of each kind per n; these counts put the median call inside the
    # n = 6 block and the 90th percentile inside the n = 10 block, so neither
    # percentile jumps between unlike points from one seed to the next
    UNIT = {1: 2, **{n: 1 for n in range(2, 11)}}
    PRODUCT_ONE = {2: 9, 3: 9, 4: 9, 5: 9, 6: 9, 7: 9, 8: 9, 9: 7, 10: 15}
    EXTREME_N = (2, 4, 7, 10)
    CS_MAX_N = 4

    def __init__(self, ez, seed: int) -> None:
        self.ez = ez
        rng = _rng(seed, 4)
        points = []  # (n, s, scales, kind)

        def strata(n: int, count: int):
            """count values of s, one per equal stratum of (-1, n/2 + 1)."""
            lo, width = -1.0, (n / 2.0 + 2.0) / count
            return [_generic_s(rng, lo + k * width, lo + (k + 1) * width) for k in range(count)]

        for n, count in self.UNIT.items():
            points += [(n, s, (1.0,) * n, "unit") for s in strata(n, count)]
        for n, count in self.PRODUCT_ONE.items():
            # s and the log-scale radius both stratified, in a seeded pairing
            radii = rng.permutation(_strata(rng, count))
            points += [
                (n, s, tuple(_product_one(rng, n, r)), "product_one")
                for s, r in zip(strata(n, count), radii)
            ]
        for n in self.EXTREME_N:
            scales = [2.0**10, 2.0**-10] + [1.0] * (n - 2)
            points.append((n, strata(n, 1)[0], tuple(rng.permutation(scales)), "extreme"))
        self.points = [(n, s, ez.ScaleVector(a), kind) for n, s, a, kind in points]
        # The Chowla-Selberg route gets every n <= 4 point, with the scales in
        # ascending order: Xi is symmetric in them, while the route's Bessel-K
        # sums grow like (1/a_last)^(n-1) and take seconds when a small scale
        # comes last
        self.cross = [
            (n, s, ez.ScaleVector(sorted(a.a))) if n <= self.CS_MAX_N else None
            for n, s, a, _ in self.points
        ]
        self.xi_times: list[list[float]] = [[] for _ in self.points]
        # one oracle point of each kind, n <= 4 and n > 4; the 2^+-10 points
        # with n > 4 are left out, where xi's err can fall short of its error
        # on some seeds (see CHANGES.md)
        picks = {}
        for i in rng.permutation(len(self.points)):
            n, _, _, kind = self.points[i]
            if kind != "extreme" or n <= self.CS_MAX_N:
                picks.setdefault((kind, n <= self.CS_MAX_N), int(i))
        self.oracle_picks = sorted(picks.values())

    def run_pass(self, ledger):
        ez = self.ez
        out = []
        for i, (n, s, scales, _) in enumerate(self.points):
            value, dt = ledger.timed(ez.xi, n, s, scales)
            self.xi_times[i].append(dt)
            cs = ledger.call(ez.xi_chowla_selberg, *self.cross[i]) if self.cross[i] else None
            out.append((value, cs))
        return out

    def check_pass(self, out, ledger) -> None:
        for (n, s, scales, _), (value, cs) in zip(self.points, out):
            if value is not None and cs is not None:
                ledger.check(
                    abs(value.value - cs.value) <= value.err + cs.err,
                    f"xi and xi_chowla_selberg differ at ({n}, {s}, {scales.a}): "
                    f"{value.value!r} +- {value.err:.3g} vs {cs.value!r} +- {cs.err:.3g}",
                )

    def probe_round(self, ledger) -> None:
        """Nothing: the passes themselves are the stream of single xi calls."""

    def call_times(self) -> list[float]:
        """Per point, its least xi call time over the warm passes."""
        return [min(t[1:] if len(t) > 1 else t) for t in self.xi_times]

    def verify(self, out, ledger, oracle) -> None:
        ez = self.ez
        for (n, s, scales, _), (value, _) in zip(self.points, out):
            if value is None:
                continue
            mirror = ledger.call(ez.xi, n, n / 2.0 - s, scales.reciprocal())
            if mirror is not None:
                ledger.check(
                    abs(value.value - mirror.value) <= value.err + mirror.err,
                    f"functional equation fails at ({n}, {s}, {scales.a})",
                )
        for i in self.oracle_picks:
            n, s, scales, kind = self.points[i]
            value = out[i][0]
            if value is not None:
                _oracle_agrees(ledger, oracle, n, s, scales.a, value.value, value.err, f"point_evals {kind}")


WORKLOADS = {w.name: w for w in (CriticalSigns, MinConvexity, SignRegions, PointEvals)}
