import csv
import importlib
import io
import json
import math
import os
import subprocess
import sys

import pytest

from bslab.cli import RunConfig, UsageError, execute, main, parse_args
from bslab.increments import KINDS, IncrementModel
from bslab.pricing import OptionSpec, PriceResult

PRICE_ARGS = ["price", "--spot", "50", "--strike", "52", "--rate", "0.04",
              "--expiry", "1", "--vol", "0.15"]
MC_ARGS = ["mc", "--spot", "50", "--strike", "52", "--rate", "0.04", "--expiry", "1",
           "--vol", "0.15", "--paths", "50000", "--seed", "42"]


def run_cli(argv):
    buf = io.StringIO()
    cfg = parse_args(argv)
    code = execute(cfg, out=buf)
    return code, buf.getvalue()


class TestParseArgs:
    def test_worked_example(self):
        cfg = parse_args(PRICE_ARGS)
        assert cfg.command == "price"
        assert cfg.option_spec == OptionSpec(50.0, 52.0, 0.04, 1.0, 0.15)
        assert cfg.output_format == "text" and cfg.output_path is None

    def test_empty_argv_lists_commands(self):
        with pytest.raises(UsageError) as err:
            parse_args([])
        message = str(err.value)
        for command in ("price", "mc", "tree", "clt-demo", "lindeberg", "var-linearity"):
            assert command in message

    def test_mc_round_trips_through_argv(self):
        cfg = parse_args(MC_ARGS + ["--format", "json"])
        assert parse_args(cfg.to_argv()) == cfg

    def test_ladder_commands_round_trip(self):
        cfg = parse_args(["clt-demo", "--model", "poisson_jump", "--jump-size", "1",
                          "--intensity", "2", "--samples", "1000", "--seed", "9",
                          "--n-ladder", "4,16,64", "--epsilon", "0.02", "--format", "csv"])
        assert cfg.model == IncrementModel.poisson_jump(1.0, 2.0)
        assert parse_args(cfg.to_argv()) == cfg
        cfg2 = parse_args(["var-linearity", "--model", "uniform", "--variance", "0.0225",
                           "--samples", "500", "--seed", "3"])
        assert parse_args(cfg2.to_argv()) == cfg2

    def test_unknown_flag_is_named(self):
        with pytest.raises(UsageError, match="--bogus"):
            parse_args(PRICE_ARGS + ["--bogus", "1"])

    def test_unparseable_number_is_named(self):
        with pytest.raises(UsageError, match="abc"):
            parse_args(["price", "--spot", "abc", "--strike", "52", "--rate", "0.04",
                        "--expiry", "1", "--vol", "0.15"])

    def test_missing_required_field(self):
        with pytest.raises(UsageError, match="--vol"):
            parse_args(["price", "--spot", "50", "--strike", "52", "--rate", "0.04",
                        "--expiry", "1"])

    def test_domain_validation_happens_at_parse_time(self):
        with pytest.raises(UsageError, match="spot"):
            parse_args(["price", "--spot", "-5", "--strike", "52", "--rate", "0.04",
                        "--expiry", "1", "--vol", "0.15"])
        with pytest.raises(UsageError, match="n-ladder|increasing"):
            parse_args(["clt-demo", "--model", "normal", "--variance", "1", "--samples",
                        "200", "--seed", "1", "--n-ladder", "16,8"])
        with pytest.raises(UsageError, match="variance"):
            parse_args(["lindeberg", "--model", "poisson_jump", "--jump-size", "1",
                        "--intensity", "2", "--variance", "3", "--samples", "200",
                        "--seed", "1"])

    def test_main_maps_usage_errors_to_exit_one(self, capsys):
        assert main([]) == 1
        assert main(["price", "--spot", "oops"]) == 1
        assert "error" in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("spot=50\nstrike=52\nrate=0.04\n# comment\nexpiry=1\nvol=0.15\n",
                        encoding="utf-8")
        cfg = parse_args(["price", "--config", str(path)])
        assert cfg.option_spec == OptionSpec(50.0, 52.0, 0.04, 1.0, 0.15)

    def test_command_line_beats_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("spot=50\nstrike=52\nrate=0.04\nexpiry=1\nvol=0.15\nformat=json\n",
                        encoding="utf-8")
        cfg = parse_args(["price", "--config", str(path), "--strike", "60"])
        assert cfg.option_spec.strike == 60.0
        assert cfg.output_format == "json"

    def test_malformed_line_is_reported(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("spot 50\n", encoding="utf-8")
        with pytest.raises(UsageError, match="key=value"):
            parse_args(["price", "--config", str(path)])

    def test_missing_file_is_usage_error(self):
        with pytest.raises(UsageError, match="cannot read"):
            parse_args(["price", "--config", "/nonexistent/file.cfg"])

    def test_dangling_config_flag(self):
        with pytest.raises(UsageError, match="--config"):
            parse_args(["price", "--config"])


class TestExecute:
    def test_price_text_contains_golden_values(self):
        code, text = run_cli(PRICE_ARGS)
        assert code == 0
        assert "price" in text and "d_plus" in text and "d_minus" in text
        price = float(next(line.split("=")[1] for line in text.splitlines()
                           if line.strip().startswith("price")))
        assert price == pytest.approx(3.04, abs=0.05)

    def test_price_json_schema(self):
        code, text = run_cli(PRICE_ARGS + ["--format", "json"])
        report = json.loads(text)
        assert report["command"] == "price"
        assert report["inputs"]["strike"] == 52.0
        assert report["results"]["price"] == pytest.approx(3.0076149434583624, abs=1e-10)
        assert report["diagnostics"]["method"] == "closed_form"

    def test_json_round_trip_is_byte_identical(self):
        for argv in (PRICE_ARGS, MC_ARGS,
                     ["lindeberg", "--model", "two_point", "--variance", "0.0225",
                      "--samples", "500", "--seed", "4", "--n-ladder", "16,64"]):
            _, text = run_cli(argv + ["--format", "json"])
            reparsed = json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
            assert reparsed == text

    def test_clt_demo_normal_model_verdict(self):
        code, text = run_cli(["clt-demo", "--model", "normal", "--variance", "0.0225",
                              "--samples", "2000", "--seed", "42", "--format", "json"])
        assert code == 0
        report = json.loads(text)
        assert report["results"]["verdict"] == "normal_limit"
        assert report["inputs"]["n_ladder"] == [16, 256, 4096]
        assert len(report["rows"]) == 3

    def test_lindeberg_poisson_csv_does_not_decay(self):
        code, text = run_cli(["lindeberg", "--model", "poisson_jump", "--jump-size", "1",
                              "--intensity", "2", "--samples", "2000", "--seed", "4",
                              "--format", "csv"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        values = [float(row["lindeberg"]) for row in rows]
        assert len(values) == 3
        assert all(v > 1.9 for v in values)
        assert values[-1] > 0.5 * values[0]

    # list-valued inputs appear in CSV through the corresponding row column
    _LIST_INPUT_ROW_KEY = {"n_ladder": "n", "horizons": "horizon"}

    @pytest.mark.parametrize("argv", [
        PRICE_ARGS,
        ["tree", "--spot", "50", "--strike", "52", "--rate", "0.04", "--expiry", "1",
         "--vol", "0.15", "--steps", "32"],
        ["mc", "--spot", "50", "--strike", "52", "--rate", "0.04", "--expiry", "1",
         "--vol", "0.15", "--paths", "5000", "--seed", "42"],
        ["clt-demo", "--model", "two_point", "--variance", "0.0225", "--samples", "1000",
         "--seed", "11", "--n-ladder", "4,16"],
        ["lindeberg", "--model", "poisson_jump", "--jump-size", "1", "--intensity", "2",
         "--samples", "1000", "--seed", "11", "--n-ladder", "4,16"],
        ["var-linearity", "--model", "normal", "--variance", "0.0225", "--samples", "1000",
         "--seed", "11"],
    ], ids=["price", "tree", "mc", "clt-demo", "lindeberg", "var-linearity"])
    def test_csv_and_json_carry_identical_numbers(self, argv):
        _, json_text = run_cli(argv + ["--format", "json"])
        _, csv_text = run_cli(argv + ["--format", "csv"])
        report = json.loads(json_text)
        csv_rows = list(csv.DictReader(io.StringIO(csv_text)))
        json_rows = report.get("rows", [{}])
        assert len(csv_rows) == len(json_rows)

        scalars = {}
        for section in ("inputs", "results", "diagnostics"):
            for key, value in report.get(section, {}).items():
                if isinstance(value, list):
                    row_key = self._LIST_INPUT_ROW_KEY[key]
                    assert [row[row_key] for row in json_rows] == value
                else:
                    scalars[key] = value

        for json_row, csv_row in zip(json_rows, csv_rows):
            expected = {**scalars, **json_row}
            assert set(expected) <= set(csv_row)
            for key, value in expected.items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    assert csv_row[key] == str(value)
                else:
                    assert float(csv_row[key]) == pytest.approx(value, abs=1e-9)

    def test_seeded_reports_are_byte_identical(self):
        _, first = run_cli(MC_ARGS + ["--format", "json"])
        _, second = run_cli(MC_ARGS + ["--format", "json"])
        assert first == second

    def test_output_file_matches_stdout(self, tmp_path):
        path = tmp_path / "report.json"
        _, stdout_text = run_cli(PRICE_ARGS + ["--format", "json"])
        cfg = parse_args(PRICE_ARGS + ["--format", "json", "--output", str(path)])
        assert execute(cfg, out=io.StringIO()) == 0
        assert path.read_text(encoding="utf-8") == stdout_text

    def test_numerical_failure_maps_to_exit_two(self, capsys):
        code = main(["tree", "--spot", "50", "--strike", "52", "--rate", "5", "--expiry",
                     "1", "--vol", "0.15", "--steps", "1"])
        assert code == 2
        assert "increase steps" in capsys.readouterr().err

    def test_ladder_text_rendering(self):
        code, text = run_cli(["clt-demo", "--model", "two_point", "--variance", "0.0225",
                              "--samples", "500", "--seed", "1", "--n-ladder", "4,16"])
        assert code == 0
        assert "rows:" in text and "verdict" in text and "ks_statistic" in text

    def test_var_linearity_report_fields(self):
        code, text = run_cli(["var-linearity", "--model", "normal", "--variance", "0.0225",
                              "--samples", "5000", "--seed", "7", "--format", "json"])
        assert code == 0
        report = json.loads(text)
        assert set(report["results"]) == {"slope", "intercept", "slope_std_error",
                                          "intercept_std_error", "max_residual"}
        assert report["results"]["slope"] == pytest.approx(0.0225, abs=0.005)
        assert len(report["rows"]) == 4


class TestCommandTable:
    def test_batch_size_flag_is_gone(self, capsys):
        assert main(MC_ARGS + ["--batch-size", "123"]) == 1
        assert "--batch-size" in capsys.readouterr().err

    def test_bad_domain_input_exits_one_at_parse_time(self):
        for argv in (MC_ARGS[:-1] + ["-1"],
                     ["clt-demo", "--model", "normal", "--variance", "1", "--samples", "200",
                      "--seed", "1", "--epsilon", "nan"],
                     ["lindeberg", "--model", "normal", "--variance", "1", "--samples", "200",
                      "--seed", "1", "--horizon", "inf"],
                     ["clt-demo", "--model", "normal", "--variance", "1", "--samples", "200",
                      "--seed", "1", "--n-ladder", "16,x"],
                     ["var-linearity", "--model", "normal", "--variance", "1", "--samples",
                      "200", "--seed", "1", "--horizons", "1,2,nan"]):
            with pytest.raises(UsageError):
                parse_args(argv)

    def test_run_steps_see_rebound_module_functions(self, monkeypatch):
        # a tracer rebinds the pricers in their home modules; the table must call the new binding
        import bslab.montecarlo as montecarlo
        calls = []
        original = montecarlo.mc_price

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(montecarlo, "mc_price", counting)
        code, _ = run_cli(MC_ARGS)
        assert code == 0 and len(calls) == 1

    def test_import_does_not_load_scipy_integrate(self):
        code = "import sys, bslab.cli; assert 'scipy.integrate' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})

    def test_unknown_model_exits_one_and_names_the_kinds(self, capsys):
        for extra in ([], ["--variance", "1"]):
            argv = ["clt-demo", "--model", "bogus", "--samples", "200", "--seed", "1"] + extra
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert "bogus" in err and all(kind in err for kind in KINDS)

    def test_too_few_samples_exit_one_at_parse_time(self, capsys):
        model = ["--model", "normal", "--variance", "1", "--seed", "1"]
        for argv in (["var-linearity", *model, "--samples", "1"],
                     ["lindeberg", *model, "--samples", "1"],
                     ["clt-demo", *model, "--samples", "99"]):
            with pytest.raises(UsageError, match="samples"):
                parse_args(argv)
            assert main(argv) == 1
        assert "samples must be >= 100" in capsys.readouterr().err
        parse_args(["lindeberg", *model, "--samples", "2"])
        parse_args(["clt-demo", *model, "--samples", "100"])

    def test_nan_report_exits_two_instead_of_emitting_json(self, monkeypatch, capsys):
        import bslab.pricing as pricing
        nan = PriceResult(price=math.nan, d_plus=0.0, d_minus=0.0, method="closed_form")
        monkeypatch.setattr(pricing, "bs_call_price", lambda spec: nan)
        assert main(PRICE_ARGS + ["--format", "json"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "NaN" in err

    def test_zero_volatility_json_keeps_infinite_d(self):
        code, text = run_cli(["price", "--spot", "100", "--strike", "90", "--rate", "0.05",
                              "--expiry", "1", "--vol", "0", "--format", "json"])
        report = json.loads(text)
        assert code == 0 and report["results"]["d_plus"] == math.inf


# a probe that fails when numpy or scipy has been imported
NO_NUMPY_OR_SCIPY = ("import sys\n"
                     "heavy = [m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')]\n"
                     "assert not heavy, heavy[:5]\n")


def run_python(code):
    return subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


class TestLazyImports:
    def test_import_loads_neither_numpy_nor_scipy(self):
        run_python("import bslab.cli\n" + NO_NUMPY_OR_SCIPY)

    def test_price_command_loads_neither_numpy_nor_scipy(self):
        proc = run_python(f"import bslab.cli\nassert bslab.cli.main({PRICE_ARGS!r}) == 0\n"
                          + NO_NUMPY_OR_SCIPY)
        assert "price = 3.00761494346" in proc.stdout

    def test_exports_are_their_home_module_objects(self):
        import bslab
        for name in bslab.__all__:
            value = getattr(bslab, name)
            assert value is getattr(importlib.import_module(value.__module__), name), name
            # kept in the package namespace, so the next lookup is a plain read
            assert vars(bslab)[name] is value, name

    def test_star_import_and_unknown_names(self):
        import bslab
        namespace = {}
        exec("from bslab import *", namespace)
        assert set(bslab.__all__) <= set(namespace)
        assert bslab.__version__ == "0.1.0" and set(bslab.__all__) <= set(dir(bslab))
        with pytest.raises(AttributeError, match="no_such_name"):
            bslab.no_such_name

    def test_submodules_are_package_attributes(self):
        run_python("import bslab\nassert bslab.montecarlo.mc_price is bslab.mc_price\n")
