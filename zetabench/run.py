"""Benchmark of epsteinzeta on four workloads that reproduce the paper.

Run from the root of an epsteinzeta checkout; the package is imported from
its ./src tree, never from an installed copy:

    python3 zetabench/run.py --workload critical_signs --seed 1 --seconds 8 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the same object
and, for traced runs, the spans go to zetabench/out/.  Everything runs in one
process with one thread, apart from the fresh interpreters, one at a time,
that time the import and the first pass.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
MIN_FRESH = 3
# BLAS and OpenMP pools would add worker threads; the package needs none
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

PER_LAYER = [
    # (metric, span name, field); field "work" is the span's work count
    ("specfun.theta.calls", "specfun.theta", "calls"),
    ("specfun.theta.self_s", "specfun.theta", "self_s"),
    ("kernel.calls", "kernel", "calls"),
    ("kernel.points", "kernel", "work"),
    ("kernel.self_s", "kernel", "self_s"),
    ("epstein.xi.calls", "epstein.xi", "calls"),
    ("epstein.gamma_kernel_sum_multi.calls", "epstein.gamma_kernel_sum_multi", "calls"),
    ("epstein.gamma_kernel_sum_multi.self_s", "epstein.gamma_kernel_sum_multi", "self_s"),
    ("analysis.decide_sign.calls", "analysis.decide_sign", "calls"),
    ("analysis.decide_sign.refinements", "analysis.decide_sign", "refinements"),
    ("analysis.find_positive_interval.s", "analysis.find_positive_interval", "s"),
    ("analysis.verify_negative_range.s", "analysis.verify_negative_range", "s"),
    ("convexity.verify_minimum_at_equal_scales.s", "convexity.verify_minimum_at_equal_scales", "s"),
    ("convexity.midpoint_convexity_xi.s", "convexity.midpoint_convexity_xi", "s"),
    ("regions.scan.self_s", "regions.scan", "self_s"),
    ("regions.certify_connected.s", "regions.certify_connected", "s"),
    ("regions.certify_discrete_convex.s", "regions.certify_discrete_convex", "s"),
    ("regions.certify_discrete_convex.pairs_checked", "regions.certify_discrete_convex", "work"),
    ("chowla.xi_chowla_selberg.calls", "chowla.xi_chowla_selberg", "calls"),
    ("chowla.xi_chowla_selberg.self_s", "chowla.xi_chowla_selberg", "self_s"),
    ("specfun.bessel_k.calls", "specfun.bessel_k", "calls"),
    ("specfun.bessel_k.self_s", "specfun.bessel_k", "self_s"),
    ("specfun.riemann_zeta.calls", "specfun.riemann_zeta", "calls"),
    ("specfun.riemann_zeta.self_s", "specfun.riemann_zeta", "self_s"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--seconds", type=float, required=True,
        help="time spent in fresh interpreters, and again in warm passes (half each when traced)",
    )
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time the import and the first pass in this fresh process
    p.add_argument("--fresh", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def fail(message: str) -> int:
    print(f"zetabench: {message}", file=sys.stderr)
    return 2


def fresh_process(args, src: Path) -> dict:
    """Import time and first-pass time of the workload in a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--fresh"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def one_pass(workload, ledger) -> tuple[list[float], object]:
    """One pass with its outputs checked; the wall time of each operation."""
    ledger.op_times = []
    out = workload.run_pass(ledger)
    times, ledger.op_times = ledger.op_times, []
    workload.check_pass(out, ledger)
    return times, out


def passes(workload, ledger, seconds: float) -> list[list[float]]:
    """Warm passes until `seconds` have gone by, at least one."""
    runs = []
    deadline = time.perf_counter() + seconds
    while not runs or time.perf_counter() < deadline:
        runs.append(one_pass(workload, ledger)[0])
    return runs


def fastest_pass(runs: list[list[float]]) -> float:
    """The pass time with every operation at its least time over the passes.

    The host's speed flips between a fast and a slow mode within seconds,
    and the share of time in each varies from run to run.  An operation is
    short enough to meet the fast mode in one of the passes, where a whole
    pass of several seconds rarely runs in it throughout, so this is much
    steadier than the median or least time of whole passes.
    """
    return sum(min(op) for op in zip(*runs))


def percentile(values, q: int) -> float:
    """q-th percentile (of 100) with linear interpolation between samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, workload, ledger, src: Path, import_s: float) -> dict:
    """This process and fresh ones time the import and the first pass, at
    least MIN_FRESH fresh ones and `seconds` in all.  After each, this process
    runs warm passes for as long as the fresh process took, then a round of
    xi probes, so that every figure samples the whole run.  Times are
    reported at the reference host speed (see workloads.Ledger)."""
    first, out = one_pass(workload, ledger)
    setups, firsts, warm = [import_s], [first], []
    fresh_s = 0.0
    while len(firsts) < MIN_FRESH or fresh_s < args.seconds:
        ledger.calibrate(force=True)
        t0 = time.perf_counter()
        child = fresh_process(args, src)
        spent = time.perf_counter() - t0
        fresh_s += spent
        ledger.calibrate(force=True)
        setups.append(child["import_s"])
        firsts.append(child["op_times"])
        ledger.merge(child["ledger"])
        warm += passes(workload, ledger, spent)
        workload.probe_round(ledger)
    call_s = workload.call_times()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    k = ledger.speed()
    return {
        "setup_s": metric(k * statistics.median(setups), "s"),
        "pass_s": metric(k * fastest_pass(warm), "s"),
        "first_pass_s": metric(k * fastest_pass(firsts), "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
        "xi_call_p50_ms": metric(k * 1e3 * statistics.median(call_s), "ms"),
        "xi_call_p90_ms": metric(k * 1e3 * percentile(call_s, 90), "ms"),
    }, out


def per_layer(ez, workload, ledger, seconds: float, spans_path: Path) -> dict:
    from spans import Tracer

    out = one_pass(workload, ledger)[1]  # fills lazy imports and caches untraced
    plain = passes(workload, ledger, seconds / 2.0)
    tracer = Tracer()
    tracer.install(ez)
    summaries, traced = [], []
    try:
        deadline = time.perf_counter() + seconds / 2.0
        while not traced or time.perf_counter() < deadline:
            tracer.clear()
            times, out = one_pass(workload, ledger)
            traced.append(times)
            summaries.append(tracer.summary())
    finally:
        tracer.uninstall()
    tracer.write(spans_path, f"spans of the last traced pass of {spans_path.stem}")
    for name in tracer.missing:
        print(f"zetabench: traced name {name} is missing from the package", file=sys.stderr)

    k = ledger.speed()
    metrics = {}
    for name, layer, field in PER_LAYER:
        samples = [s.get(layer, {}).get(field, 0) for s in summaries]
        if field in ("calls", "work", "refinements"):
            metrics[name] = metric(samples[0], "count")
            if len(set(samples)) > 1:
                print(f"zetabench: {name} differs between traced passes: {samples}", file=sys.stderr)
        else:
            metrics[name] = metric(k * statistics.median(samples), "s")
    metrics["trace.overhead_s"] = metric(k * (fastest_pass(traced) - fastest_pass(plain)), "s")
    metrics["trace.missing_wraps"] = metric(len(tracer.missing), "count")
    return metrics, out


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path.cwd() / "src"
    init = src / "epsteinzeta" / "__init__.py"
    if not init.is_file():
        return fail(f"no package source at {init}; run from the root of an epsteinzeta checkout")
    os.environ.update(SINGLE_THREAD)
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import epsteinzeta as ez

    import_s = time.perf_counter() - t0
    from workloads import WORKLOADS, Ledger

    if Path(ez.__file__).resolve() != init.resolve():
        return fail(f"imported epsteinzeta from {ez.__file__}, not from {src}")
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    ledger = Ledger()
    workload = WORKLOADS[args.workload](ez, args.seed)
    label = f"{args.workload}-seed{args.seed}"
    if args.fresh:
        times, _ = one_pass(workload, ledger)
        print(json.dumps({"import_s": import_s, "op_times": times, "ledger": ledger.state()}))
        return 0
    if args.trace:
        metrics, out = per_layer(ez, workload, ledger, args.seconds, OUT / f"spans-{label}.csv.gz")
    else:
        metrics, out = end_to_end(args, workload, ledger, src, import_s)
    import oracle  # mpmath is imported only now, after the memory peak was read

    workload.verify(out, ledger, oracle)
    for problem in ledger.problems:
        print(f"zetabench: FAILED {problem}", file=sys.stderr)
    print(f"{'host speed factor (times below are multiplied by it)':48s} {ledger.speed():.4f}")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not ledger.wrong,
        "attempted": ledger.attempted,
        "failed": min(ledger.failed, ledger.attempted),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{label}-trace{args.trace}.json").write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
