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

Exit codes: 0 success, 1 evaluation error, 2 an indeterminate sign decision
occurred, 64 usage error.  Output is plain text by default; --format csv/json
emit machine-readable artifacts in which every number carries its error
bound.  Reruns with identical flags produce byte-identical output; the two
sampling commands, convexity and verify-min, take their draws from --seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import analysis, convexity, regions
from .config import EvalConfig
from .epstein import ScaleVector, xi, xi_many, z
from .errors import IndeterminateSignError, SpecialPointError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 64


@dataclass
class _Output:
    lines: list[str] = field(default_factory=list)
    rows: list[list] = field(default_factory=list)  # csv rows, first row = header
    results: dict = field(default_factory=dict)  # json payload
    indeterminate: bool = False

    def line(self, text: str) -> None:
        self.lines.append(text)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


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


def build_parser() -> _Parser:
    parser = _Parser(prog="epsteinzeta", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_s: bool = False) -> None:
        p.add_argument("--n", type=int, required=True)
        if needs_s:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--s", type=float)
            group.add_argument("--s-hat", dest="s_hat", type=float)
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--format", dest="fmt", choices=("plain", "csv", "json"), default="plain")
        p.add_argument("--out", default=None)

    p = sub.add_parser("eval", help="evaluate Xi and Z at one point")
    common(p, needs_s=True)
    p.add_argument("--scales", type=_parse_scales, default=None)

    p = sub.add_parser("interval", help="positivity interval for one n")
    common(p)
    p.add_argument("--sweep", type=int, default=None, metavar="POINTS",
                   help="emit a (s, value, err) sweep over (0, n/2) instead")

    p = sub.add_parser("table1", help="positivity intervals for n = 10..21")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--format", dest="fmt", choices=("plain", "csv", "json"), default="plain")
    p.add_argument("--out", default=None)

    p = sub.add_parser("second-deriv", help="second derivative at the symmetry point")
    common(p)

    p = sub.add_parser("bounds", help="closed-form sign certificates (n = 9, 10)")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--format", dest="fmt", choices=("plain", "csv", "json"), default="plain")
    p.add_argument("--out", default=None)

    p = sub.add_parser("convexity", help="convexity suite at one (n, s)")
    common(p, needs_s=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("scan", help="sign-region grid scan")
    common(p, needs_s=True)
    p.add_argument("--chart", choices=("standard", "kratio"), default="kratio")
    p.add_argument("--axes", type=int, default=2, help="free chart dimensions")
    p.add_argument("--bounds", type=_parse_bounds, default=(-2.0, 2.0), metavar="LO:HI")
    p.add_argument("--grid", type=int, default=41, help="nodes per axis")

    p = sub.add_parser("verify-min", help="minimum-at-equal-scales sampling")
    common(p, needs_s=True)
    p.add_argument("--samples", type=int, default=100)
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
    xiv = xi(args.n, s, scales, cfg)
    out.line(f"Xi_{args.n}({s}; {list(scales.a)}) = {xiv.value:.12f} ± {xiv.err:.2e}")
    out.results["xi"] = {"value": xiv.value, "err": xiv.err}
    out.rows = [["quantity", "value", "err"], ["xi", _fmt(xiv.value), _fmt(xiv.err)]]
    try:
        zv = z(args.n, s, scales, cfg)
    except SpecialPointError:
        return
    out.line(f"Z_{args.n}({s}; {list(scales.a)}) = {zv.value:.12f} ± {zv.err:.2e}")
    out.results["z"] = {"value": zv.value, "err": zv.err}
    out.rows.append(["z", _fmt(zv.value), _fmt(zv.err)])


def _cmd_interval(args, cfg: EvalConfig, out: _Output) -> None:
    if args.sweep:
        out.rows = [["s", "value", "err"]]
        out.results["sweep"] = []
        unit = ScaleVector.unit(args.n)
        points = [(i + 0.5) / args.sweep * (args.n / 2.0) for i in range(args.sweep)]
        for s, v in zip(points, xi_many([(args.n, s, unit) for s in points], cfg)):
            out.rows.append([_fmt(s), _fmt(v.value), _fmt(v.err)])
            out.results["sweep"].append({"s": s, "value": v.value, "err": v.err})
            out.line(f"s={s:.6f}  Xi={v.value:.10g}  err={v.err:.2e}")
        return
    interval = analysis.find_positive_interval(args.n, cfg)
    out.rows = [["n", "gamma", "mirror", "bracket_width"]]
    if interval is None:
        out.line(f"n={args.n}: empty (Xi_{args.n} < 0 on the whole critical range)")
        out.results["interval"] = None
    else:
        out.line(
            f"n={args.n}: ({interval.gamma:.4f}, {interval.mirror:.4f})"
            f"  bracket ±{interval.bracket_width:.1e}"
        )
        out.results["interval"] = {
            "gamma": interval.gamma,
            "mirror": interval.mirror,
            "bracket_width": interval.bracket_width,
        }
        out.rows.append([args.n, _fmt(interval.gamma), _fmt(interval.mirror),
                         _fmt(interval.bracket_width)])


def _cmd_table1(args, cfg: EvalConfig, out: _Output) -> None:
    out.rows = [["n", "gamma", "mirror", "bracket_width"]]
    out.results["table"] = []
    for n in range(10, 22):
        iv = analysis.find_positive_interval(n, cfg)
        out.line(f"{n:3d}  ({iv.gamma:.4f}, {iv.mirror:.4f})")
        out.rows.append([n, _fmt(iv.gamma), _fmt(iv.mirror), _fmt(iv.bracket_width)])
        out.results["table"].append(
            {"n": n, "gamma": iv.gamma, "mirror": iv.mirror, "bracket_width": iv.bracket_width}
        )


def _cmd_second_deriv(args, cfg: EvalConfig, out: _Output) -> None:
    d2 = analysis.hat_xi_second_derivative(args.n, 0.5, cfg)
    chain = (args.n / 2.0) ** 2
    try:
        kind = analysis.classify_critical_point(args.n, cfg)
    except IndeterminateSignError:
        kind = "indeterminate"
        out.indeterminate = True
    out.line(f"hat-Xi''_{args.n}(1/2) = {d2.value:.12g} ± {d2.err:.2e}")
    out.line(f"Xi''_{args.n}(n/4)    = {d2.value / chain:.12g} ± {d2.err / chain:.2e}")
    out.line(f"s = n/4 is a {kind.replace('_', ' ')}")
    out.results["second_derivative"] = {
        "hat": {"value": d2.value, "err": d2.err},
        "unhatted": {"value": d2.value / chain, "err": d2.err / chain},
        "classification": kind,
    }
    out.rows = [
        ["quantity", "value", "err"],
        ["hat_xi_dd", _fmt(d2.value), _fmt(d2.err)],
        ["xi_dd", _fmt(d2.value / chain), _fmt(d2.err / chain)],
        ["classification", kind, ""],
    ]


def _report_rows(reports) -> list[list]:
    rows = [["quantity", "bound_value", "direction", "conclusion_sign", "threshold", "holds"]]
    for r in reports:
        rows.append([
            r.quantity, _fmt(r.bound_value), r.direction, r.conclusion_sign,
            "" if r.threshold is None else _fmt(r.threshold), str(r.holds()),
        ])
    return rows


def _cmd_bounds(args, cfg: EvalConfig, out: _Output) -> None:
    reports = analysis.critical_sign_certificates(cfg) + analysis.verify_negative_range(9, cfg)
    out.rows = _report_rows(reports)
    out.results["bounds"] = [
        {
            "quantity": r.quantity,
            "bound_value": r.bound_value,
            "direction": r.direction,
            "conclusion_sign": r.conclusion_sign,
            "threshold": r.threshold,
            "holds": r.holds(),
        }
        for r in reports
    ]
    for r in reports:
        mark = "ok" if r.holds() else "FAIL"
        thr = "" if r.threshold is None else f" (threshold {r.threshold:.6g})"
        out.line(f"[{mark}] {r.quantity}: {r.direction} bound {r.bound_value:.6g}{thr}")


def _cmd_convexity(args, cfg: EvalConfig, out: _Output) -> None:
    s = _resolve_s(args)
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
    syl_ok = True
    for _ in range(args.samples):
        xs = rng.uniform(-2.0, 2.0, size=min(args.n, 5))
        syl_ok &= convexity.sylvester_check(xs).all_nonnegative
    checks.append(("sylvester_minors", syl_ok, f"{args.samples} points"))
    chart = convexity.standard_chart(args.n)
    mid_ok = True
    for _ in range(args.samples):
        b1 = rng.uniform(-1.0, 1.0, size=chart.j)
        b2 = rng.uniform(-1.0, 1.0, size=chart.j)
        mid_ok &= convexity.midpoint_convexity_xi(args.n, s, chart, b1, b2, cfg).holds
    checks.append(("midpoint_convexity", mid_ok, f"{args.samples} pairs"))

    out.rows = [["check", "passed", "detail"]]
    out.results["checks"] = []
    for name, passed, detail in checks:
        out.line(f"[{'ok' if passed else 'FAIL'}] {name} {detail}")
        out.rows.append([name, str(passed), detail])
        out.results["checks"].append({"check": name, "passed": passed, "detail": detail})


def _cmd_scan(args, cfg: EvalConfig, out: _Output) -> None:
    s = _resolve_s(args)
    if args.chart == "standard":
        chart = convexity.standard_chart(args.n)
        if args.axes < chart.j:
            chart = convexity.HyperplaneChart(chart.A[:, : args.axes])
    else:
        chart = regions.kratio_chart(args.n, min(args.axes, args.n - 1))
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
    out.rows = [r.split(",") for r in regions.grid_to_csv(grid).strip().split("\n")]


def _cmd_verify_min(args, cfg: EvalConfig, out: _Output) -> None:
    s = _resolve_s(args)
    rep = convexity.verify_minimum_at_equal_scales(args.n, s, args.samples, cfg, seed=args.seed)
    out.line(
        f"[{'ok' if rep.holds else 'FAIL'}] minimum at equal scales: "
        f"{rep.samples} samples, {rep.failures} failures, min margin {rep.min_margin:.3g}"
    )
    out.results["verify_min"] = {
        "samples": rep.samples,
        "failures": rep.failures,
        "min_margin": rep.min_margin,
        "holds": rep.holds,
    }
    out.rows = [
        ["samples", "failures", "min_margin", "holds"],
        [rep.samples, rep.failures, _fmt(rep.min_margin), str(rep.holds)],
    ]


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


def _emit(args, out: _Output, errors: list[str]) -> None:
    if args.fmt == "json":
        spec = {k: v for k, v in vars(args).items() if k not in ("fmt", "out") and v is not None}
        payload = {"spec": spec, "results": out.results, "errors": errors}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.fmt == "csv":
        text = "\n".join(",".join(str(c) for c in row) for row in out.rows) + "\n"
    else:
        text = "\n".join(out.lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run(args) -> int:
    out = _Output()
    errors: list[str] = []
    cfg = EvalConfig(tol=args.tol)
    try:
        _HANDLERS[args.command](args, cfg, out)
    except IndeterminateSignError as exc:
        errors.append(str(exc))
        out.indeterminate = True
    except (ValueError, RuntimeError) as exc:
        errors.append(str(exc))
        out.line(f"error: {exc}")
        _emit(args, out, errors)
        return EXIT_ERROR
    _emit(args, out, errors)
    return EXIT_INDETERMINATE if out.indeterminate else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
