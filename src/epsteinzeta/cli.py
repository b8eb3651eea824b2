"""Command-line front end.

Subcommands map one-to-one onto the library's analysis entry points:

    eval          Xi / Z at a point
    interval      positivity interval for one dimension (or a sweep for plots)
    table1        positivity intervals for n = 10 .. 21
    second-deriv  second derivative at the symmetry point and its sign
    bounds        closed-form bound certificates (dimensions 9 and 10)
    convexity     convexity test suite at one (n, s)
    scan          sign-region grid scan over a hyperplane chart
    verify-min    randomised minimum-at-equal-scales check

Exit codes: 0 success, 1 evaluation error (an --axes above n - 1 included)
or unwritable --out, 2 an indeterminate sign decision occurred, 64 usage
error, including a --tol that is not positive and finite and a --grid,
--samples, --sweep or --axes below 1.
Output is plain text by default; --format csv/json emit machine-readable
artifacts from one list of records per command, every number with its error
bound; csv writes each error to stderr as "error: <message>".  Reruns with
identical flags produce byte-identical output; the two sampling commands,
convexity and verify-min, take their draws from --seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import analysis, convexity, regions
from .config import EvalConfig
from .epstein import ScaleVector, _check_node_count, _z_from_xi, xi, xi_many
from .errors import DomainError, IndeterminateSignError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 64


@dataclass
class _Output:
    lines: list[str] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)  # csv rows; keys = header
    header: list[str] | None = None  # csv header when there may be no records
    results: dict = field(default_factory=dict)  # json payload
    indeterminate: bool = False

    def line(self, text: str) -> None:
        self.lines.append(text)


def _cell(x) -> str:
    """CSV cell: a float to 17 significant digits, None empty, else str."""
    if isinstance(x, float):
        return f"{x:.17g}"
    return "" if x is None else str(x)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; the contract is 64
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _parse_scales(text: str) -> list[float]:
    vals = [float(p) for p in text.split(",") if p.strip()]
    if not vals:
        raise argparse.ArgumentTypeError("empty scale list")
    return vals


def _parse_bounds(text: str) -> tuple[float, float]:
    lo, _, hi = text.partition(":")
    return float(lo), float(hi)


def _positive_float(text: str) -> float:
    x = float(text)
    if not 0.0 < x < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return x


def _positive_int(text: str) -> int:
    k = int(text)
    if k < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return k


def build_parser() -> _Parser:
    parser = _Parser(prog="epsteinzeta", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_n: bool = True, needs_s: bool = False) -> None:
        if needs_n:
            p.add_argument("--n", type=int, required=True)
        if needs_s:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--s", type=float)
            group.add_argument("--s-hat", dest="s_hat", type=float)
        p.add_argument("--tol", type=_positive_float, default=1e-9)
        p.add_argument("--format", dest="fmt", choices=("plain", "csv", "json"), default="plain")
        p.add_argument("--out", default=None)

    p = sub.add_parser("eval", help="evaluate Xi and Z at one point")
    common(p, needs_s=True)
    p.add_argument("--scales", type=_parse_scales, default=None)

    p = sub.add_parser("interval", help="positivity interval for one n")
    common(p)
    p.add_argument("--sweep", type=_positive_int, default=None, metavar="POINTS",
                   help="emit a (s, value, err) sweep over (0, n/2) instead")

    p = sub.add_parser("table1", help="positivity intervals for n = 10..21")
    common(p, needs_n=False)

    p = sub.add_parser("second-deriv", help="second derivative at the symmetry point")
    common(p)

    p = sub.add_parser("bounds", help="closed-form sign certificates (n = 9, 10)")
    common(p, needs_n=False)

    p = sub.add_parser("convexity", help="convexity suite at one (n, s)")
    common(p, needs_s=True)
    p.add_argument("--samples", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("scan", help="sign-region grid scan")
    common(p, needs_s=True)
    p.add_argument("--chart", choices=("standard", "kratio"), default="kratio")
    p.add_argument("--axes", type=_positive_int, default=2, help="free chart dimensions")
    p.add_argument("--bounds", type=_parse_bounds, default=(-2.0, 2.0), metavar="LO:HI")
    p.add_argument("--grid", type=_positive_int, default=41, help="nodes per axis")

    p = sub.add_parser("verify-min", help="minimum-at-equal-scales sampling")
    common(p, needs_s=True)
    p.add_argument("--samples", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    return parser


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------


def _resolve_s(args) -> float:
    if getattr(args, "s_hat", None) is not None:
        return args.n * args.s_hat / 2.0
    return args.s


def _cmd_eval(args, cfg: EvalConfig, out: _Output) -> None:
    s = _resolve_s(args)
    scales = ScaleVector(args.scales) if args.scales else ScaleVector.unit(args.n)
    value = xi(args.n, s, scales, cfg)
    for name, v in (("xi", value), ("z", _z_from_xi(value, scales.V))):
        point = f"{name.capitalize()}_{args.n}({s}; {list(scales.a)})"
        out.line(f"{point} = {v.value:.12f} ± {v.err:.2e}")
        out.results[name] = {"value": v.value, "err": v.err}
        out.records.append({"quantity": name, **out.results[name]})


def _cmd_interval(args, cfg: EvalConfig, out: _Output) -> None:
    if args.sweep:
        _check_node_count(args.sweep, "--sweep")
        unit = ScaleVector.unit(args.n)
        points = [(i + 0.5) / args.sweep * (args.n / 2.0) for i in range(args.sweep)]
        for s, v in zip(points, xi_many([(args.n, s, unit) for s in points], cfg)):
            out.records.append({"s": s, "value": v.value, "err": v.err})
            out.line(f"s={s:.6f}  Xi={v.value:.10g}  err={v.err:.2e}")
        out.results["sweep"] = out.records
        return
    interval = analysis.find_positive_interval(args.n, cfg)
    if interval is None:
        out.line(f"n={args.n}: empty (Xi_{args.n} < 0 on the whole critical range)")
        out.results["interval"] = None
        out.header = ["n", "gamma", "mirror", "bracket_width"]
    else:
        out.line(
            f"n={args.n}: ({interval.gamma:.4f}, {interval.mirror:.4f})"
            f"  bracket ±{interval.bracket_width:.1e}"
        )
        out.records.append(asdict(interval))
        out.results["interval"] = {k: v for k, v in out.records[0].items() if k != "n"}


def _cmd_table1(args, cfg: EvalConfig, out: _Output) -> None:
    for n in range(10, 22):
        iv = analysis.find_positive_interval(n, cfg)
        out.line(f"{n:3d}  ({iv.gamma:.4f}, {iv.mirror:.4f})")
        out.records.append(asdict(iv))
    out.results["table"] = out.records


def _cmd_second_deriv(args, cfg: EvalConfig, out: _Output) -> None:
    d2 = analysis.hat_xi_second_derivative(args.n, 0.5, cfg)
    chain = (args.n / 2.0) ** 2
    try:
        kind = analysis._critical_point_kind(args.n, d2)
    except IndeterminateSignError:
        kind = "indeterminate"
        out.indeterminate = True
    out.line(f"hat-Xi''_{args.n}(1/2) = {d2.value:.12g} ± {d2.err:.2e}")
    out.line(f"Xi''_{args.n}(n/4)    = {d2.value / chain:.12g} ± {d2.err / chain:.2e}")
    out.line(f"s = n/4 is a {kind.replace('_', ' ')}")
    hat = {"value": d2.value, "err": d2.err}
    unhatted = {"value": d2.value / chain, "err": d2.err / chain}
    out.results["second_derivative"] = {"hat": hat, "unhatted": unhatted, "classification": kind}
    out.records = [{"quantity": "hat_xi_dd", **hat}, {"quantity": "xi_dd", **unhatted},
                   {"quantity": "classification", "value": kind, "err": None}]


def _cmd_bounds(args, cfg: EvalConfig, out: _Output) -> None:
    reports = analysis.critical_sign_certificates() + analysis.verify_negative_range(9, cfg)
    for r in reports:
        out.records.append({**asdict(r), "holds": r.holds()})
        mark = "ok" if r.holds() else "FAIL"
        thr = "" if r.threshold is None else f" (threshold {r.threshold:.6g})"
        out.line(f"[{mark}] {r.quantity}: {r.direction} bound {r.bound_value:.6g}{thr}")
    out.results["bounds"] = out.records


def _cmd_convexity(args, cfg: EvalConfig, out: _Output) -> None:
    s = _resolve_s(args)
    _check_node_count(3 * args.samples, "--samples")  # three nodes per midpoint pair
    rng = np.random.default_rng(args.seed)
    checks: list[tuple[str, bool, str]] = []

    hs = [1.0 + 0.5 * k for k in range(39)]  # v = 1 .. 20
    hvals = [convexity.h_of_v(v) for v in hs]
    checks.append((
        "h_positive_[1,20]",
        all(a.value > 0 and a.excludes_zero() for a in hvals),
        f"min h = {min(a.value for a in hvals):.3g}",
    ))
    claim = convexity.coefficient_positivity_check(12)
    checks.append(("coefficient_claims", claim.all_positive, f"q(1) = {claim.q1:.6f}"))
    log_rep = convexity.log_theta_convexity([0.25 * k for k in range(-8, 9)])
    checks.append(("log_theta_convex", log_rep.all_positive, ""))
    # one draw per check gives the stream of drawing each sample in turn
    points = rng.uniform(-2.0, 2.0, size=(args.samples, min(args.n, 5)))
    syl_ok = all(convexity.sylvester_check(xs).all_nonnegative for xs in points)
    checks.append(("sylvester_minors", syl_ok, f"{args.samples} points"))
    chart = convexity.standard_chart(args.n)
    pairs = rng.uniform(-1.0, 1.0, size=(args.samples, 2, chart.j))
    mids = convexity._midpoints(args.n, s, chart, pairs[:, 0], pairs[:, 1], cfg)
    mid_ok = all(report.holds for report in mids)
    checks.append(("midpoint_convexity", mid_ok, f"{args.samples} pairs"))

    for name, passed, detail in checks:
        out.line(f"[{'ok' if passed else 'FAIL'}] {name} {detail}")
        out.records.append({"check": name, "passed": passed, "detail": detail})
    out.results["checks"] = out.records


def _cmd_scan(args, cfg: EvalConfig, out: _Output) -> None:
    s = _resolve_s(args)
    make = regions.kratio_chart if args.chart == "kratio" else convexity.standard_chart
    full = make(args.n).A
    if args.axes > full.shape[1]:
        raise DomainError(f"free dimensions must be in 1..{full.shape[1]}, got {args.axes}")
    chart = convexity.HyperplaneChart(full[:, : args.axes])
    grid = regions.scan(
        args.n, s, chart,
        bounds=[args.bounds] * chart.j,
        steps=[args.grid] * chart.j,
        cfg=cfg,
    )
    conn = regions.certify_connected(grid)
    conv = regions.certify_discrete_convex(grid)
    out.indeterminate = grid.indeterminate_fraction() > 0.0
    out.line(
        f"scan n={args.n} s={s}: {conn.negative_cells} negative cells, "
        f"{conn.indeterminate_cells} indeterminate, components={conn.components}"
    )
    out.line(f"connected: {conn.connected or conn.empty}; discrete convex: {conv.ok}")
    out.results["scan"] = regions.grid_to_json(grid)
    out.results["connectivity"] = {
        "negative_cells": conn.negative_cells,
        "components": conn.components,
        "connected": conn.connected,
        "empty": conn.empty,
    }
    out.results["discrete_convexity"] = {"ok": conv.ok, "pairs_checked": conv.pairs_checked}
    out.records = regions.grid_records(grid)


def _cmd_verify_min(args, cfg: EvalConfig, out: _Output) -> None:
    s = _resolve_s(args)
    rep = convexity.verify_minimum_at_equal_scales(args.n, s, args.samples, cfg, seed=args.seed)
    margin = (
        "no draw far from equal scales" if rep.min_margin is None
        else f"min margin {rep.min_margin:.3g}"
    )
    out.line(
        f"[{'ok' if rep.holds else 'FAIL'}] minimum at equal scales: "
        f"{rep.samples} samples, {rep.failures} failures, {margin}"
    )
    out.records = [{"samples": rep.samples, "failures": rep.failures,
                    "min_margin": rep.min_margin, "holds": rep.holds}]
    out.results["verify_min"] = out.records[0]


_HANDLERS = {
    "eval": _cmd_eval,
    "interval": _cmd_interval,
    "table1": _cmd_table1,
    "second-deriv": _cmd_second_deriv,
    "bounds": _cmd_bounds,
    "convexity": _cmd_convexity,
    "scan": _cmd_scan,
    "verify-min": _cmd_verify_min,
}


def _emit(args, out: _Output, errors: list[str]) -> bool:
    """Write the output in the chosen format; False if --out cannot be written."""
    if args.fmt == "json":
        spec = {k: v for k, v in vars(args).items() if k not in ("fmt", "out") and v is not None}
        payload = {"spec": spec, "results": out.results, "errors": errors}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.fmt == "csv":
        sys.stderr.writelines(f"error: {message}\n" for message in errors)
        header = out.header or (list(out.records[0]) if out.records else [])
        buf = io.StringIO()  # the csv writer quotes a cell that holds a comma
        csv.writer(buf, lineterminator="\n").writerows(
            [header] + [[_cell(r[k]) for k in header] for r in out.records])
        text = buf.getvalue()
    else:
        text = "\n".join(out.lines) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return True
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write --out: {exc}\n")
        return False
    return True


def run(args) -> int:
    out = _Output()
    errors: list[str] = []
    code = EXIT_OK
    try:
        _HANDLERS[args.command](args, EvalConfig(tol=args.tol), out)
    except IndeterminateSignError as exc:
        errors.append(str(exc))
        out.line(f"indeterminate: {exc}")
        out.indeterminate = True
    except (ValueError, RuntimeError) as exc:
        errors.append(str(exc))
        out.line(f"error: {exc}")
        code = EXIT_ERROR
    if code == EXIT_OK and out.indeterminate:
        code = EXIT_INDETERMINATE
    return code if _emit(args, out, errors) else EXIT_ERROR


def main(argv: list[str] | None = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
