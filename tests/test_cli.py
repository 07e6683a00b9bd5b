"""Command-line interface: flag validation, exit codes, CSV schemas, and
artifact determinism."""

import os
import subprocess
import sys

import numpy as np
import pytest

import lvkernel
from lvkernel import (
    BSMModel,
    KernelSpec,
    SpatialGrid,
    bs_exact,
    curve_greeks,
    greeks,
    kernel_eval,
    price_call_closed,
    price_curve,
    CallPayoff,
    DomainError,
    model_from_file,
    model_from_json,
)
from lvkernel.cli import _COMMANDS, _FLAGS, main

BSM_JSON = '{"kind": "bsm", "sigma": 0.3, "r": 0.1}'
BSM = BSMModel(sigma=0.3, r=0.1)


def _parse_csv(text: str):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
    return header, rows


class TestPriceCommand:
    def test_single_spot_inline_model(self, capsys):
        rc = main(["price", "--model", BSM_JSON, "--order", "2", "--t", "0.1",
                   "--payoff", "call", "--strike", "15", "--spot", "16"])
        out, err = capsys.readouterr()
        assert rc == 0 and err == ""
        assert float(out) == price_call_closed(2, BSM, 0.1, 15.0, 16.0)

    def test_single_spot_model_file(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(BSM_JSON)
        rc = main(["price", "--model-file", str(path), "--order", "2", "--t", "0.1",
                   "--payoff", "call", "--strike", "15", "--spot", "16"])
        out, _ = capsys.readouterr()
        assert rc == 0
        assert float(out) == price_call_closed(2, BSM, 0.1, 15.0, 16.0)

    def test_curve_csv_round_trips_doubles(self, capsys):
        rc = main(["price", "--model", BSM_JSON, "--order", "2", "--t", "0.1",
                   "--payoff", "call", "--strike", "15", "--grid", "10:20:1"])
        out, _ = capsys.readouterr()
        assert rc == 0
        header, rows = _parse_csv(out)
        assert header == ["x", "price"]
        assert len(rows) == 11
        for x, price in rows:
            assert price == price_call_closed(2, BSM, 0.1, 15.0, x)

    def test_put_and_butterfly_payoffs(self, capsys):
        rc = main(["price", "--model", BSM_JSON, "--order", "1", "--t", "0.1",
                   "--payoff", "put", "--strike", "15", "--spot", "14"])
        out, _ = capsys.readouterr()
        assert rc == 0 and float(out) > 0.0
        rc = main(["price", "--model", BSM_JSON, "--order", "1", "--t", "0.1",
                   "--payoff", "butterfly", "--k1", "10", "--strike", "15",
                   "--k2", "20", "--spot", "15"])
        out, _ = capsys.readouterr()
        assert rc == 0 and float(out) > 0.0

    def test_bad_order_message_and_code(self, capsys):
        rc = main(["price", "--model", BSM_JSON, "--order", "3", "--t", "0.1",
                   "--payoff", "call", "--strike", "15", "--spot", "16"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert err == "kernel order must be 0, 1 or 2, got 3\n"

    def test_negative_time_is_domain_error(self, capsys):
        rc = main(["price", "--model", BSM_JSON, "--order", "2", "--t", "-0.5",
                   "--payoff", "call", "--strike", "15", "--spot", "16"])
        _, err = capsys.readouterr()
        assert rc == 1
        assert err != ""

    def test_missing_strike(self, capsys):
        rc = main(["price", "--model", BSM_JSON, "--order", "2", "--t", "0.1",
                   "--payoff", "call", "--spot", "16"])
        _, err = capsys.readouterr()
        assert rc == 2 and "--strike" in err

    def test_butterfly_needs_all_three_strikes(self, capsys):
        rc = main(["price", "--model", BSM_JSON, "--order", "2", "--t", "0.1",
                   "--payoff", "butterfly", "--strike", "15", "--spot", "16"])
        _, err = capsys.readouterr()
        assert rc == 2 and "butterfly" in err

    def test_spot_and_grid_are_exclusive(self, capsys):
        base = ["price", "--model", BSM_JSON, "--order", "2", "--t", "0.1",
                "--payoff", "call", "--strike", "15"]
        rc = main(base + ["--spot", "16", "--grid", "10:20:1"])
        capsys.readouterr()
        assert rc == 2
        rc = main(base)
        capsys.readouterr()
        assert rc == 2

    def test_quadrature_needs_grid(self, capsys):
        rc = main(["price", "--model", BSM_JSON, "--order", "2", "--t", "0.1",
                   "--payoff", "call", "--strike", "15", "--spot", "16",
                   "--method", "quadrature"])
        _, err = capsys.readouterr()
        assert rc == 2 and "--grid" in err

    def test_tiny_spot_is_a_domain_error(self, capsys):
        # z**(alpha - 2) overflows a double at this spot
        rc = main(["price", "--model", '{"kind": "cev", "sigma": 0.3, "alpha": 0.5}',
                   "--order", "2", "--t", "0.1", "--payoff", "call", "--strike", "15",
                   "--spot", "1e-250"])
        out, err = capsys.readouterr()
        assert (rc, out, err) == (1, "", "jet field d2a_dx2 is not finite\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spot", ["1e-100", "1e-200"])
    def test_tiny_spot_prices_its_intrinsic_part(self, capsys, spot):
        # the order-2 bracket is nan at 1e-100, and s^2 underflows at 1e-200
        rc = main(["price", "--model", BSM_JSON, "--order", "2", "--t", "0.1",
                   "--payoff", "call", "--strike", "15", "--spot", spot])
        assert (rc, *capsys.readouterr()) == (0, "0\n", "")

    @pytest.mark.filterwarnings("error")
    def test_non_finite_result_is_a_domain_error(self, capsys, tmp_path):
        out = tmp_path / "price.txt"
        rc = main(["price", "--model", BSM_JSON, "--order", "2", "--t", "1e308",
                   "--payoff", "call", "--strike", "15", "--spot", "16", "--out", str(out)])
        assert (rc, *capsys.readouterr()) == (1, "", "the result is not finite: inf\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("grid", ["1:2", "a:b:c", "0:10:1"])
    def test_malformed_grid(self, capsys, grid):
        rc = main(["price", "--model", BSM_JSON, "--order", "2", "--t", "0.1",
                   "--payoff", "call", "--strike", "15", "--grid", grid])
        capsys.readouterr()
        assert rc == 2


class TestModelErrors:
    def test_unknown_kind(self, capsys):
        rc = main(["price", "--model", '{"kind": "heston", "sigma": 0.3}',
                   "--order", "2", "--t", "0.1", "--payoff", "call",
                   "--strike", "15", "--spot", "16"])
        _, err = capsys.readouterr()
        assert rc == 2 and "heston" in err

    def test_unknown_key(self, capsys):
        rc = main(["price", "--model", '{"kind": "bsm", "sigma": 0.3, "vov": 1}',
                   "--order", "2", "--t", "0.1", "--payoff", "call",
                   "--strike", "15", "--spot", "16"])
        capsys.readouterr()
        assert rc == 2

    def test_bad_json(self, capsys):
        rc = main(["price", "--model", "{not json", "--order", "2", "--t", "0.1",
                   "--payoff", "call", "--strike", "15", "--spot", "16"])
        _, err = capsys.readouterr()
        assert rc == 2 and "JSON" in err

    @pytest.mark.parametrize("flag, value, prefix", [
        ("--model", "{not json", "model JSON is not valid JSON: "),
        ("--model", "[1, 2]", "model definition must be a JSON object"),
        ("--model-file", "absent.json", "[Errno 2] No such file or directory"),
    ], ids=["not-json", "not-an-object", "missing-file"])
    def test_unloadable_model_gets_the_loader_message(self, capsys, tmp_path,
                                                      flag, value, prefix):
        load = model_from_json
        if flag == "--model-file":
            value, load = str(tmp_path / value), model_from_file
        with pytest.raises((DomainError, OSError)) as info:
            load(value)
        rc = main(["price", flag, value, "--order", "2", "--t", "0.1",
                   "--payoff", "call", "--strike", "15", "--spot", "16"])
        out, err = capsys.readouterr()
        assert (rc, out, err) == (2, "", f"{info.value}\n")
        assert err.startswith(prefix)

    @pytest.mark.parametrize("text, message", [
        ('{"kind": "bsm", "sigma": "abc"}', "model key 'sigma' must be a number, got \"abc\""),
        ('{"kind": "bsm", "sigma": null}', "model key 'sigma' must be a number, got null"),
        ('{"kind": "bsm", "sigma": [0.3]}', "model key 'sigma' must be a number, got [0.3]"),
        ('{"kind": "bsm", "sigma": true}', "model key 'sigma' must be a number, got true"),
        (None, "is not UTF-8 text"),
    ], ids=["string", "null", "list", "bool", "not-utf8"])
    def test_non_numeric_model_value_is_a_usage_error(self, capsys, tmp_path, text, message):
        if text is None:
            path = tmp_path / "model.json"
            path.write_bytes(b'{"kind": "bsm", "sigma": 0.3\xff}')
            source = ["--model-file", str(path)]
        else:
            source = ["--model", text]
        rc = main(["price", *source, "--order", "2", "--t", "0.1",
                   "--payoff", "call", "--strike", "15", "--spot", "16"])
        out, err = capsys.readouterr()
        assert (rc, out, err.count("\n")) == (2, "", 1)
        assert message in err

    def test_integer_too_large_for_a_float_is_a_usage_error(self, capsys):
        text = '{"kind": "bsm", "sigma": 1' + "0" * 399 + "}"
        rc = main(["price", "--model", text, "--order", "2", "--t", "0.1",
                   "--payoff", "call", "--strike", "15", "--spot", "16"])
        out, err = capsys.readouterr()
        assert (rc, out, err) == (2, "", "model key 'sigma' is too large for a float\n")

    def test_missing_model_group(self, capsys):
        rc = main(["price", "--order", "2", "--t", "0.1", "--payoff", "call",
                   "--strike", "15", "--spot", "16"])
        capsys.readouterr()
        assert rc == 2


class TestArtifacts:
    ARGS = ["price", "--model", BSM_JSON, "--order", "2", "--t", "0.1",
            "--payoff", "call", "--strike", "15", "--grid", "10:20:1"]

    def test_output_file_and_atomicity(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        rc = main(self.ARGS + ["--out", str(out)])
        stdout, _ = capsys.readouterr()
        assert rc == 0 and stdout == ""
        assert out.exists()
        leftovers = [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
        assert leftovers == []

    def test_byte_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.ARGS + ["--out", str(a)]) == 0
        assert main(self.ARGS + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_matches_file(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        assert main(self.ARGS) == 0
        stdout, _ = capsys.readouterr()
        assert stdout == out.read_text()


class TestKernelCommand:
    def test_values_match_library(self, capsys):
        rc = main(["kernel", "--model", BSM_JSON, "--order", "2", "--t", "0.1",
                   "--x", "15", "--grid", "14:16:0.5"])
        out, _ = capsys.readouterr()
        assert rc == 0
        header, rows = _parse_csv(out)
        assert header == ["x", "y", "t", "order", "value"]
        spec = KernelSpec(BSM, order=2)
        ys = SpatialGrid(14.0, 16.0, 0.5).nodes
        want = kernel_eval(spec, 0.1, 15.0, ys)
        assert len(rows) == len(ys)
        for row, y, v in zip(rows, ys, want):
            assert row == [15.0, y, 0.1, 2.0, v]

    def test_nonfinite_x_is_domain_error(self, capsys):
        rc = main(["kernel", "--model", '{"kind": "bsm", "sigma": 0.3}', "--order", "2",
                   "--t", "0.1", "--x", "nan", "--grid", "14:16:1", "--basepoint", "aty"])
        out, err = capsys.readouterr()
        assert (rc, out) == (1, "")
        assert err == "basepoint requires finite x > 0 and y > 0\n"

    @pytest.mark.filterwarnings("error")
    def test_width_too_small_is_a_one_line_domain_failure(self, capsys):
        rc = main(["kernel", "--model", BSM_JSON, "--order", "2", "--t", "0.1",
                   "--x", "1e-200", "--grid", "14:16:1"])
        out, err = capsys.readouterr()
        assert (rc, out, err.count("\n")) == (1, "", 1)
        assert err.startswith("the kernel is not finite at t=0.1")


class TestGreeksCommand:
    def test_single_spot(self, capsys):
        rc = main(["greeks", "--model", BSM_JSON, "--order", "2", "--t", "0.5",
                   "--payoff", "call", "--strike", "20", "--spot", "18",
                   "--dx", "0.1"])
        out, _ = capsys.readouterr()
        assert rc == 0
        header, rows = _parse_csv(out)
        assert header == ["x", "delta", "gamma"]
        (x, delta, gamma), = rows
        fn = lambda t, xx: price_call_closed(2, BSM, t, 20.0, xx)
        d_ref, g_ref = greeks(fn, 0.5, 18.0, 0.1)
        assert (x, delta, gamma) == (18.0, d_ref, g_ref)

    def test_single_spot_needs_dx(self, capsys):
        rc = main(["greeks", "--model", BSM_JSON, "--order", "2", "--t", "0.5",
                   "--payoff", "call", "--strike", "20", "--spot", "18"])
        _, err = capsys.readouterr()
        assert rc == 2 and "--dx" in err

    def test_dx_with_grid_is_a_usage_error(self, capsys):
        # the grid's own spacing sets the step, so a --dx would go unused
        rc = main(["greeks", "--model", BSM_JSON, "--order", "2", "--t", "0.5",
                   "--payoff", "call", "--strike", "20", "--grid", "10:12:0.5",
                   "--dx", "0.001"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert "--dx" in err and "--grid" in err

    def test_curve_variant_matches_library(self, capsys):
        rc = main(["greeks", "--model", BSM_JSON, "--order", "2", "--t", "0.5",
                   "--payoff", "call", "--strike", "20", "--grid", "10:30:0.5"])
        out, _ = capsys.readouterr()
        assert rc == 0
        header, rows = _parse_csv(out)
        grid = SpatialGrid(10.0, 30.0, 0.5)
        curve = price_curve(KernelSpec(BSM, order=2), 0.5, CallPayoff(20.0), grid,
                            method="closed")
        xs, delta, gamma = curve_greeks(curve)
        assert len(rows) == len(xs)
        for row, x, d, g in zip(rows, xs, delta, gamma):
            assert row == [x, d, g]


class TestBootstrapCommand:
    def test_smoke_against_exact_oracle(self, capsys):
        rc = main(["bootstrap", "--model", '{"kind": "bsm", "sigma": 0.5, "r": 0.1}',
                   "--order", "2", "--t", "0.2", "--steps", "2", "--xmax", "80",
                   "--dx", "0.1", "--payoff", "call", "--strike", "20",
                   "--compare-oracle", "bs-exact"])
        out, _ = capsys.readouterr()
        assert rc == 0
        header, rows = _parse_csv(out)
        assert header == ["x", "value", "oracle", "abs_error"]
        arr = np.asarray(rows)
        np.testing.assert_allclose(arr[:, 3], np.abs(arr[:, 1] - arr[:, 2]),
                                   rtol=0, atol=1e-17)
        np.testing.assert_allclose(
            arr[:, 2], bs_exact(0.2, 20.0, arr[:, 0], 0.5, 0.1), rtol=1e-12
        )
        mask = (arr[:, 0] > 10.0) & (arr[:, 0] <= 30.0)
        assert np.max(arr[mask, 3]) < 1e-2

    def test_exact_oracle_needs_lognormal_model(self, capsys):
        rc = main(["bootstrap", "--model",
                   '{"kind": "cev", "sigma": 0.3, "alpha": 0.5}',
                   "--order", "2", "--t", "0.2", "--steps", "2", "--xmax", "40",
                   "--dx", "0.1", "--payoff", "call", "--strike", "20",
                   "--compare-oracle", "bs-exact"])
        _, err = capsys.readouterr()
        assert rc == 2 and "bsm" in err

    def test_bad_grid_is_a_usage_error(self, capsys):
        # --xmax/--dx get the exit code and message of price --grid
        rc = main(["bootstrap", "--model", BSM_JSON, "--order", "2", "--t", "0.2",
                   "--steps", "2", "--xmax", "20", "--dx", "0.3", "--payoff", "call",
                   "--strike", "15", "--compare-oracle", "bs-exact"])
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert main(["price", "--model", BSM_JSON, "--order", "2", "--t", "0.2",
                     "--payoff", "call", "--strike", "15", "--grid", "0.3:20:0.3"]) == 2
        assert capsys.readouterr() == ("", err)


class TestCompareCommand:
    def test_order_one_error_table_entries(self, capsys):
        rc = main(["compare", "--model", BSM_JSON, "--oracle", "bs-exact",
                   "--method", "order1", "--grid", "12:18:1", "--times",
                   "0.01,0.5", "--strike", "15"])
        out, _ = capsys.readouterr()
        assert rc == 0
        header, rows = _parse_csv(out)
        assert header == ["t", "x", "approx", "oracle", "abs_error"]
        table = {(t, x): err for t, x, _, _, err in rows}
        assert table[(0.5, 18.0)] == pytest.approx(116.8e-3, abs=5e-3)
        assert table[(0.01, 18.0)] == pytest.approx(3.0e-3, abs=1e-3)

    def test_equivalent_vol_oracle_needs_power_law_model(self, capsys):
        rc = main(["compare", "--model", BSM_JSON, "--oracle", "hagan-woodward",
                   "--method", "order2", "--grid", "12:18:1", "--times", "0.1",
                   "--strike", "15"])
        _, err = capsys.readouterr()
        assert rc == 2 and "cev" in err

    def test_pde_oracle_smoke(self, capsys):
        rc = main(["compare", "--model", BSM_JSON, "--oracle", "cn",
                   "--method", "order2", "--grid", "10:20:0.1", "--times", "0.1",
                   "--strike", "15"])
        out, _ = capsys.readouterr()
        assert rc == 0
        _, rows = _parse_csv(out)
        arr = np.asarray(rows)
        assert np.all(np.isfinite(arr))
        mask = (arr[:, 1] >= 13.0) & (arr[:, 1] <= 17.0)
        assert np.max(arr[mask, 4]) < 1e-2

    def test_bootstrap_rows_are_those_of_the_bootstrap_command(self, capsys):
        model = '{"kind": "bsm", "sigma": 0.5, "r": 0.1}'
        assert main(["compare", "--model", model, "--oracle", "bs-exact", "--method", "bootstrap",
                     "--grid", "0.1:30:0.1", "--times", "0.5,1", "--strike", "20",
                     "--steps", "10"]) == 0
        table = capsys.readouterr().out.splitlines()[1:]
        for t in ("0.5", "1"):
            assert main(["bootstrap", "--model", model, "--order", "2", "--t", t,
                         "--steps", "10", "--xmax", "30", "--dx", "0.1", "--payoff", "call",
                         "--strike", "20", "--compare-oracle", "bs-exact"]) == 0
            want = capsys.readouterr().out.splitlines()[1:]
            assert len(want) == 300
            assert [row.partition(",")[2] for row in table if row.startswith(t + ",")] == want

    def test_empty_times_rejected(self, capsys):
        rc = main(["compare", "--model", BSM_JSON, "--oracle", "bs-exact",
                   "--method", "order1", "--grid", "12:18:1", "--times", ",",
                   "--strike", "15"])
        _, err = capsys.readouterr()
        assert rc == 2 and "--times" in err


CEV_JSON = '{"kind": "cev", "sigma": 0.3, "alpha": 0.5}'
BOOTSTRAP_ARGS = ["--order", "2", "--t", "0.2", "--steps", "2", "--xmax", "40",
                  "--dx", "0.1", "--strike", "20"]
COMPARE_ARGS = ["--grid", "12:18:1", "--times", "0.1", "--strike", "15"]


class TestOracleFitsBeforeSolve:
    """An oracle that does not fit the model or the payoff exits 2 with its
    message before anything is composed or priced."""

    CASES = {
        "bootstrap-bs-exact-cev": (
            ["bootstrap", "--model", CEV_JSON, *BOOTSTRAP_ARGS, "--payoff", "call",
             "--compare-oracle", "bs-exact"],
            "the bs-exact oracle needs a 'bsm' model\n"),
        "bootstrap-bs-exact-put": (
            ["bootstrap", "--model", BSM_JSON, *BOOTSTRAP_ARGS, "--payoff", "put",
             "--compare-oracle", "bs-exact"],
            "the bs-exact oracle compares call payoffs only\n"),
        "compare-hagan-woodward-bsm": (
            ["compare", "--model", BSM_JSON, "--oracle", "hagan-woodward", "--method",
             "order2", *COMPARE_ARGS],
            "the hagan-woodward oracle needs a 'cev' model\n"),
        "compare-hagan-woodward-bsm-bootstrap": (
            ["compare", "--model", BSM_JSON, "--oracle", "hagan-woodward", "--method",
             "bootstrap", *COMPARE_ARGS],
            "the hagan-woodward oracle needs a 'cev' model\n"),
        "compare-bs-exact-cev": (
            ["compare", "--model", CEV_JSON, "--oracle", "bs-exact", "--method",
             "order1", *COMPARE_ARGS],
            "the bs-exact oracle needs a 'bsm' model\n"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_mismatch_exits_before_any_solve(self, case, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the oracle was checked")

        monkeypatch.setattr("lvkernel.cli.bootstrap_solve", no_solve)
        monkeypatch.setattr("lvkernel.cli._price_closed_dispatch", no_solve)
        argv, message = self.CASES[case]
        rc = main(argv)
        out, err = capsys.readouterr()
        assert (rc, out, err) == (2, "", message)


class TestOrderRange:
    """--order takes the kernel's range 0, 1 or 2 on every subcommand, and
    the closed forms need 1 or 2, as in the library."""

    QUOTE = ["--model", BSM_JSON, "--t", "0.1", "--payoff", "call", "--strike", "15"]
    ARGVS = {
        "price": ["price", *QUOTE, "--spot", "16"],
        "greeks": ["greeks", *QUOTE, "--spot", "16", "--dx", "0.1"],
        "kernel": ["kernel", "--model", BSM_JSON, "--t", "0.1", "--x", "15", "--grid", "14:16:1"],
        "bootstrap": ["bootstrap", "--model", BSM_JSON, *BOOTSTRAP_ARGS[2:], "--payoff", "call",
                      "--compare-oracle", "bs-exact"],
    }

    def test_order_zero_quadrature_prices_the_order_zero_kernel(self, capsys):
        rc = main(["price", *self.QUOTE, "--order", "0", "--method", "quadrature",
                   "--grid", "10:20:0.1"])
        out, err = capsys.readouterr()
        assert (rc, err) == (0, "")
        curve = price_curve(KernelSpec(BSM, order=0), 0.1, CallPayoff(15.0),
                            SpatialGrid(10.0, 20.0, 0.1))
        assert _parse_csv(out)[1] == [[x, v] for x, v in zip(curve.x, curve.values)]

    @pytest.mark.parametrize("argv", [
        ["greeks", *QUOTE, "--order", "0", "--method", "quadrature", "--grid", "10:20:0.1"],
        [*ARGVS["bootstrap"], "--order", "0"],
    ], ids=["greeks", "bootstrap"])
    def test_order_zero_runs(self, argv, capsys):
        rc = main(argv)
        out, err = capsys.readouterr()
        assert (rc, err) == (0, "")
        assert np.all(np.isfinite(np.asarray(_parse_csv(out)[1])))

    @pytest.mark.parametrize("argv", [
        [*ARGVS["price"], "--order", "0"],
        ["price", *QUOTE, "--order", "0", "--grid", "10:20:1"],
        [*ARGVS["greeks"], "--order", "0"],
    ], ids=["price-spot", "price-grid", "greeks-spot"])
    def test_closed_form_of_order_zero_is_a_domain_error(self, argv, capsys):
        assert (main(argv), *capsys.readouterr()) == (
            1, "", "price order must be 1 or 2, got 0\n")

    @pytest.mark.parametrize("command", ["bootstrap", "greeks", "kernel"])  # price: above
    def test_order_three_is_a_usage_error(self, command, capsys):
        assert (main([*self.ARGVS[command], "--order", "3"]), *capsys.readouterr()) == (
            2, "", "kernel order must be 0, 1 or 2, got 3\n")

    def test_kernel_help_shows_a_plain_order(self, capsys):
        assert main(["kernel", "--help"]) == 0
        assert " --order ORDER " in capsys.readouterr().out


class TestFlagTable:
    def test_every_flag_entry_is_used(self):
        # a bare "--flag" key must be listed by some command, and a
        # "command --flag" key by that command
        listed = {command: flags.split() for command, (_, _, flags) in _COMMANDS.items()}
        listed[""] = [flag for flags in listed.values() for flag in flags]
        unused = [key for key in _FLAGS
                  if key.rpartition(" ")[2] not in listed.get(key.rpartition(" ")[0], [])]
        assert unused == []


class TestModuleEntryPoint:
    def test_subprocess_smoke(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(lvkernel.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "lvkernel.cli", "price", "--model", BSM_JSON,
             "--order", "2", "--t", "0.1", "--payoff", "call", "--strike", "15",
             "--spot", "16"],
            capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) == pytest.approx(
            price_call_closed(2, BSM, 0.1, 15.0, 16.0), rel=1e-16
        )
