import csv
import json
import math

import pytest

from epsteinzeta.cli import EXIT_ERROR, EXIT_INDETERMINATE, EXIT_OK, EXIT_USAGE, main
from epsteinzeta.specfun import riemann_zeta


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_eval_golden_value(capsys):
    # twelve printed digits need err well below the 3e-14 between the true
    # value 0.20590304048653 and the rounding boundary ...4865
    code, out = run_cli(["eval", "--n", "10", "--s", "2.5", "--tol", "1e-14"], capsys)
    assert code == EXIT_OK
    assert "0.205903040487" in out
    assert "±" in out
    # at the default tol the value is only promised to within its err
    code, out = run_cli(["eval", "--n", "10", "--s", "2.5", "--format", "json"], capsys)
    assert code == EXIT_OK
    xi_val = json.loads(out)["results"]["xi"]
    assert abs(xi_val["value"] - 0.20590304048653) <= xi_val["err"]


def test_eval_one_dimensional_zeta(capsys):
    code, out = run_cli(
        ["eval", "--n", "1", "--s", "2", "--scales", "1", "--format", "json"], capsys
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    expected = 2.0 * riemann_zeta(4.0).value
    assert payload["results"]["z"]["value"] == pytest.approx(expected, abs=1e-10)
    assert payload["results"]["z"]["err"] > 0.0
    xi_val = payload["results"]["xi"]["value"]
    assert xi_val == pytest.approx(expected * math.pi**-2 * math.gamma(2.0), abs=1e-10)


def test_interval_row(capsys):
    code, out = run_cli(["interval", "--n", "10", "--format", "csv"], capsys)
    assert code == EXIT_OK
    header, row = out.strip().split("\n")
    assert header == "n,gamma,mirror,bracket_width"
    cells = row.split(",")
    assert cells[0] == "10"
    assert float(cells[1]) == pytest.approx(1.0899, abs=5e-4)
    assert float(cells[2]) == pytest.approx(3.9101, abs=5e-4)


def test_interval_empty_for_small_n(capsys):
    code, out = run_cli(["interval", "--n", "5", "--format", "json"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["results"]["interval"] is None
    code, out = run_cli(["interval", "--n", "1"], capsys)
    assert code == EXIT_OK
    assert out == "n=1: empty (Xi_1 < 0 on the whole critical range)\n"


def test_interval_sweep_columns(capsys):
    code, out = run_cli(["interval", "--n", "3", "--sweep", "8", "--format", "csv"], capsys)
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "s,value,err"
    assert len(lines) == 9


def test_table1_rows(capsys):
    code, out = run_cli(["table1", "--tol", "1e-8", "--format", "csv"], capsys)
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "n,gamma,mirror,bracket_width"
    assert len(lines) == 13
    first = lines[1].split(",")
    assert first[0] == "10"
    assert float(first[1]) == pytest.approx(1.0899, abs=5e-4)
    assert float(first[2]) == pytest.approx(3.9101, abs=5e-4)


def test_second_deriv_json(capsys):
    code, out = run_cli(["second-deriv", "--n", "11", "--format", "json"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    block = payload["results"]["second_derivative"]
    assert block["classification"] == "local_min"
    assert block["unhatted"]["value"] == pytest.approx(0.009568954836, abs=1e-6)


def test_bounds_reports(capsys):
    code, out = run_cli(["bounds", "--format", "json"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    rows = {r["quantity"]: r for r in payload["results"]["bounds"]}
    assert rows["kernel_sum_9"]["holds"] is True
    assert all(r["holds"] for r in payload["results"]["bounds"])


def test_scan_and_rerun_byte_identical(tmp_path, capsys):
    args = [
        "scan", "--n", "3", "--s", "0.7", "--chart", "kratio",
        "--bounds=-1:1", "--grid", "7", "--format", "json",
    ]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(args + ["--out", str(first)]) == EXIT_OK
    assert main(args + ["--out", str(second)]) == EXIT_OK
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())
    assert payload["errors"] == []
    scan_block = payload["results"]["scan"]
    assert len(scan_block["values"]) == len(scan_block["errs"]) == 49
    assert "seed" not in payload["spec"]
    assert payload["results"]["discrete_convexity"] == {"ok": True, "pairs_checked": 0}


def test_scan_csv_has_error_column(capsys):
    code, out = run_cli(
        ["scan", "--n", "2", "--s", "0.5", "--chart", "kratio", "--axes", "1",
         "--bounds=-1:1", "--grid", "5", "--format", "csv"],
        capsys,
    )
    assert code == EXIT_OK
    header = out.strip().split("\n")[0]
    assert header.split(",") == ["b1", "sign", "value", "err"]


def test_verify_min_command(capsys):
    code, out = run_cli(
        ["verify-min", "--n", "3", "--s", "0.9", "--samples", "10", "--seed", "4",
         "--format", "json"],
        capsys,
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["results"]["verify_min"]["holds"] is True


def test_verify_min_without_a_far_draw_prints_no_infinity(capsys):
    argv = ["verify-min", "--n", "2", "--s", "0.5", "--samples", "1", "--seed", "1"]
    code, out = run_cli(argv + ["--format", "json"], capsys)
    assert code == EXIT_OK
    result = strict_json(out)["results"]["verify_min"]
    assert result["min_margin"] is None and result["holds"] is True
    code, out = run_cli(argv + ["--format", "csv"], capsys)
    assert out.splitlines()[1] == "1,0,,True"
    code, out = run_cli(argv, capsys)
    assert "no draw far from equal scales" in out and "inf" not in out


def test_convexity_command(capsys):
    code, out = run_cli(
        ["convexity", "--n", "3", "--s", "0.9", "--samples", "5", "--seed", "2"], capsys
    )
    assert code == EXIT_OK
    assert "FAIL" not in out


def test_convexity_command_evaluates_its_midpoints_in_one_engine_call(monkeypatch, capsys):
    from epsteinzeta import convexity, epstein

    calls = []
    inner = epstein._xi_nodes

    def counted(s, a, cfg):
        calls.append(len(s))
        return inner(s, a, cfg)

    monkeypatch.setattr(epstein, "_xi_nodes", counted)
    monkeypatch.setattr(convexity, "_xi_nodes", counted, raising=False)
    code, out = run_cli(["convexity", "--n", "3", "--s", "0.9", "--samples", "5"], capsys)
    assert code == EXIT_OK and "[ok] midpoint_convexity 5 pairs" in out
    assert calls == [15]  # the three nodes of each of the 5 pairs


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["eval", "--n", "10"])  # missing --s
    assert info.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as info:
        main(["eval", "--n", "10", "--s", "2.5", "--bogus", "1"])
    assert info.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as info:
        main(["--threads", "2", "eval", "--n", "10", "--s", "2.5"])
    assert info.value.code == EXIT_USAGE


def test_thread_environment_variable_is_ignored(monkeypatch, capsys):
    monkeypatch.setenv("EPSTEIN_THREADS", "two")
    code, out = run_cli(["eval", "--n", "2", "--s", "0.5"], capsys)
    assert code == EXIT_OK
    assert out.startswith("Xi_2(0.5;")


def test_eval_error_exit_code(capsys):
    code = main(["eval", "--n", "4", "--s", "2"])  # pole at n/2
    capsys.readouterr()
    assert code == 1


def test_order_past_double_range_is_an_evaluation_error(capsys):
    for argv in (
        ["eval", "--n", "2", "--s", "250"],
        ["second-deriv", "--n", "1400"],
        ["eval", "--n", "1", "--s", "0.3", "--scales", "1e300"],
    ):
        code, out = run_cli(argv, capsys)
        assert code == EXIT_ERROR
        assert out.startswith("error: ") and "double precision" in out


def test_plain_indeterminate_sign_prints_its_message(capsys):
    # at tol 1 the bracket stays wider than 1e-5 after every refinement
    code, out = run_cli(["interval", "--n", "10", "--tol", "1"], capsys)
    assert code == EXIT_INDETERMINATE
    assert out.startswith("indeterminate: sign of Xi_10 undecided on [")


@pytest.mark.parametrize("s", ["250", "0"])
def test_csv_evaluation_error_goes_to_stderr(s, capsys):
    code = main(["eval", "--n", "2", "--s", s, "--format", "csv"])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.err.startswith("error: ")
    assert "error" not in captured.out


def test_eval_and_second_deriv_compute_each_quantity_once(monkeypatch, capsys):
    from epsteinzeta import analysis, epstein

    calls = []

    def counted(target, name):
        inner = getattr(target, name)
        monkeypatch.setattr(target, name, lambda *a, **k: calls.append(name) or inner(*a, **k))

    counted(epstein, "xi_many")
    counted(analysis, "hat_xi_second_derivative")
    code, out = run_cli(["eval", "--n", "3", "--s", "0.7", "--scales", "0.5,1,2"], capsys)
    assert code == EXIT_OK and out.startswith("Xi_3(0.7;") and "\nZ_3(0.7;" in out
    assert calls == ["xi_many"]
    calls.clear()
    code, out = run_cli(["second-deriv", "--n", "11"], capsys)
    assert code == EXIT_OK and "local min" in out
    assert calls == ["hat_xi_second_derivative"]


def strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


SMALL_RUNS = {
    "eval": ["eval", "--n", "3", "--s", "0.7", "--scales", "0.5,1,2"],
    "interval": ["interval", "--n", "10"],
    "interval-empty": ["interval", "--n", "5"],
    "interval-sweep": ["interval", "--n", "3", "--sweep", "4"],
    "table1": ["table1", "--tol", "1e-8"],
    "second-deriv": ["second-deriv", "--n", "11"],
    "bounds": ["bounds"],
    "convexity": ["convexity", "--n", "3", "--s", "0.9", "--samples", "2"],
    "scan": ["scan", "--n", "3", "--s", "0.7", "--grid", "5"],
    "verify-min": ["verify-min", "--n", "3", "--s", "0.9", "--samples", "5"],
}


@pytest.mark.parametrize("argv", SMALL_RUNS.values(), ids=SMALL_RUNS.keys())
def test_json_is_strict_and_csv_rows_have_header_width(argv, capsys):
    code, out = run_cli(argv + ["--format", "json"], capsys)
    assert code == EXIT_OK
    assert strict_json(out)["errors"] == []
    code, out = run_cli(argv + ["--format", "csv"], capsys)
    assert code == EXIT_OK
    header, *rows = csv.reader(out.splitlines())
    assert len(header) >= 3
    assert all(len(row) == len(header) for row in rows)


@pytest.mark.parametrize("bad", [
    ["eval", "--n", "2", "--s", "0.5", "--tol", "0"],
    ["eval", "--n", "2", "--s", "0.5", "--tol", "inf"],
    ["eval", "--n", "2", "--s", "0.5", "--tol", "nan"],
    ["scan", "--n", "3", "--s", "0.7", "--axes", "0"],
    ["scan", "--n", "3", "--s", "0.7", "--chart", "standard", "--axes", "-1"],
    ["scan", "--n", "3", "--s", "0.7", "--grid", "0"],
    ["interval", "--n", "3", "--sweep", "0"],
    ["verify-min", "--n", "3", "--s", "0.9", "--samples", "0", "--format", "json"],
    ["convexity", "--n", "3", "--s", "0.9", "--samples", "0"],
])
def test_bad_numeric_flags_are_usage_errors(bad, capsys):
    with pytest.raises(SystemExit) as info:
        main(bad)
    assert info.value.code == EXIT_USAGE
    assert "error: argument" in capsys.readouterr().err


@pytest.mark.parametrize("chart", ["kratio", "standard"])
def test_scan_axes_beyond_the_chart_is_an_evaluation_error(chart, capsys):
    argv = ["scan", "--n", "3", "--s", "0.7", "--chart", chart, "--axes", "5", "--grid", "3"]
    code, out = run_cli(argv + ["--format", "json"], capsys)
    assert code == EXIT_ERROR
    payload = strict_json(out)
    assert payload["errors"] == ["free dimensions must be in 1..2, got 5"]
    assert payload["results"] == {}


def test_convexity_at_one_dimension_is_an_evaluation_error(capsys):
    code, out = run_cli(["convexity", "--n", "1", "--s", "0.2", "--samples", "2"], capsys)
    assert code == EXIT_ERROR
    assert out == "error: standard chart needs n >= 2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--n", "3", "--s", "0.7", "--grid", "20000"],
        ["interval", "--n", "3", "--sweep", "400000000"],
        ["verify-min", "--n", "3", "--s", "0.9", "--samples", "400000000"],
        ["convexity", "--n", "3", "--s", "0.9", "--samples", "400000000"],
    ],
)
def test_size_past_the_node_limit_is_an_evaluation_error(argv, capsys):
    # refused before anything is allocated or evaluated
    code, out = run_cli(argv, capsys)
    assert code == EXIT_ERROR
    assert out.startswith("error: ") and "more than the 131072" in out


def test_order_whose_decay_rate_rounds_to_zero_is_an_evaluation_error(capsys):
    code, out = run_cli(["eval", "--n", "2", "--s", "1e100"], capsys)
    assert code == EXIT_ERROR
    assert out == "error: the theta integral of order 1e+100 has no decay rate in double precision\n"


def test_non_finite_s_is_an_evaluation_error(capsys):
    code, out = run_cli(["eval", "--n", "2", "--s", "inf"], capsys)
    assert code == EXIT_ERROR
    assert out.startswith("error: ") and "finite" in out


def test_unwritable_out_exits_cleanly(tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt"
    code = main(["eval", "--n", "2", "--s", "0.5", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not target.exists()
