import ast
import contextlib
import csv
import importlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bslab.cli import COMMANDS, RunConfig, UsageError, execute, main, parse_args
from bslab.increments import KINDS, IncrementModel
from bslab.pricing import OptionSpec, PriceResult, d_plus_minus

PRICE_ARGS = ["price", "--spot", "50", "--strike", "52", "--rate", "0.04",
              "--expiry", "1", "--vol", "0.15"]
# a positive real, log-uniform over [1e-320, 1e308], as a flag value
POSITIVE = st.floats(-320.0, 308.0).map(lambda e: repr(10.0 ** e))
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
        assert cfg.objects == {"option_spec": OptionSpec(50.0, 52.0, 0.04, 1.0, 0.15)}
        assert cfg.output_format == "text" and cfg.output_path is None

    def test_empty_argv_lists_commands(self):
        with pytest.raises(UsageError) as err:
            parse_args([])
        message = str(err.value)
        for command in ("price", "mc", "tree", "clt-demo", "lindeberg", "var-linearity"):
            assert command in message

    def test_ladder_commands_parse_into_their_fields(self):
        cfg = parse_args(["clt-demo", "--model", "poisson_jump", "--jump-size", "1",
                          "--intensity", "2", "--samples", "1000", "--seed", "9",
                          "--n-ladder", "4,16,64", "--epsilon", "0.02", "--format", "csv"])
        assert cfg.objects["model"] == IncrementModel.poisson_jump(1.0, 2.0)
        assert cfg.objects["n_ladder"] == (4, 16, 64) and cfg.objects["epsilon"] == 0.02
        cfg = parse_args(["var-linearity", "--model", "uniform", "--variance", "0.0225",
                          "--samples", "500", "--seed", "3"])
        assert cfg.objects == {"samples": 500, "model": IncrementModel("uniform", 0.0225),
                               "seed": 3, "horizons": (0.25, 0.5, 1.0, 2.0)}

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

    def test_negative_exponents_are_read_as_values(self, capsys):
        for rate in ("-1e-05", "-1E+2", "-.5e1"):
            outputs = []
            for flag in (["--rate", rate], [f"--rate={rate}"]):
                assert main([*PRICE_ARGS[:5], *flag, *PRICE_ARGS[7:], "--format", "json"]) == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1]
            assert json.loads(outputs[0])["inputs"]["rate"] == float(rate)

    @pytest.mark.parametrize("flag, value", [("--spot", "-inf"), ("--spot", "-Infinity"),
                                             ("--rate", "-nan")])
    def test_negative_non_finite_values_are_read_as_values(self, flag, value, capsys):
        # argparse read -inf as a flag and printed four lines of usage
        i = PRICE_ARGS.index(flag)
        errors = []
        for pair in ([flag, value], [f"{flag}={value}"]):
            assert main(PRICE_ARGS[:i] + pair + PRICE_ARGS[i + 2:]) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] and errors[0].count("\n") == 1
        assert errors[0].startswith(flag[2:] + " must be")

    def test_variance_model_without_variance_is_named(self, capsys):
        assert main(["clt-demo", "--model", "normal", "--samples", "200", "--seed", "1"]) == 1
        assert capsys.readouterr().err == "normal takes per_unit_variance alone\n"

    @pytest.mark.parametrize("wrong", ["missing", "foreign"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_a_model_refuses_inputs_of_another_kind_in_one_line(self, kind, wrong, capsys):
        # per_unit_variance, jump_size and intensity are --variance, --jump-size and --intensity
        inputs = ({"jump_size": 1.0, "intensity": 2.0} if kind == "poisson_jump"
                  else {"per_unit_variance": 0.0225})
        if wrong == "missing":
            inputs.popitem()
        else:
            inputs.update({"per_unit_variance": 2.0} if kind == "poisson_jump" else
                          {"jump_size": 1.0})
        with pytest.raises(ValueError, match=f"^{kind} takes "):
            IncrementModel(kind, **inputs)
        flags = {"per_unit_variance": "--variance", "jump_size": "--jump-size",
                 "intensity": "--intensity"}
        argv = ["lindeberg", "--model", kind, "--samples", "200", "--seed", "1"]
        for name, value in inputs.items():
            argv += [flags[name], str(value)]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"{kind} takes ") and err.count("\n") == 1
        assert "Traceback" not in err

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
        assert cfg.objects["option_spec"] == OptionSpec(50.0, 52.0, 0.04, 1.0, 0.15)

    def test_command_line_beats_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("spot=50\nstrike=52\nrate=0.04\nexpiry=1\nvol=0.15\nformat=json\n",
                        encoding="utf-8")
        cfg = parse_args(["price", "--config", str(path), "--strike", "60"])
        assert cfg.objects["option_spec"].strike == 60.0
        assert cfg.output_format == "json"

    def test_malformed_line_is_reported(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("spot 50\n", encoding="utf-8")
        with pytest.raises(UsageError, match="key=value"):
            parse_args(["price", "--config", str(path)])

    def test_missing_file_is_usage_error(self):
        with pytest.raises(UsageError, match="cannot read"):
            parse_args(["price", "--config", "/nonexistent/file.cfg"])

    def test_equals_form_is_read_like_the_separate_form(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("spot=50\nstrike=52\nrate=0.04\nexpiry=1\nvol=0.15\nformat=json\n",
                        encoding="utf-8")
        joined = parse_args(["price", f"--config={path}"])
        assert joined == parse_args(["price", "--config", str(path)])
        assert joined.output_format == "json"

    def test_equals_form_file_with_every_required_flag_runs(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("spot=50\nstrike=52\nrate=0.04\nexpiry=1\nvol=0.15\nformat=json\n",
                        encoding="utf-8")
        assert main(["price", f"--config={path}"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "price" and report["inputs"]["strike"] == 52.0

    def test_dangling_config_flag(self):
        with pytest.raises(UsageError, match="--config"):
            parse_args(["price", "--config"])

    @pytest.mark.parametrize("before, after", [(["--format", "json"], ["price"]), ([], [])])
    def test_config_before_any_subcommand_is_usage_error(self, before, after, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("spot=50\n", encoding="utf-8")
        assert main([*before, "--config", str(path), *after]) == 1
        assert capsys.readouterr().err == "--config requires a subcommand\n"

    @pytest.mark.parametrize("second", [["--config", "{other}"], ["--config=/nonexistent"]],
                             ids=["two_files", "equals_form_missing_file"])
    def test_repeated_config_is_usage_error(self, second, tmp_path, capsys):
        # the second file was skipped without a word, even one that does not exist
        path, other = tmp_path / "run.cfg", tmp_path / "other.cfg"
        path.write_text("spot=50\nstrike=52\nrate=0.04\nexpiry=1\nvol=0.15\n", encoding="utf-8")
        other.write_text("strike=60\n", encoding="utf-8")
        argv = ["price", "--config", str(path), *(a.format(other=other) for a in second)]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "--config may be given only once\n"

    def test_nested_config_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("spot=50\nconfig=other.cfg\n", encoding="utf-8")
        assert main(["price", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"{path}:2: config files cannot nest --config\n"


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
        ["tree", "--spot", "50", "--strike", "52", "--rate", "0.04", "--expiry", "1",
         "--vol", "0", "--steps", "32"],
        ["mc", "--spot", "50", "--strike", "52", "--rate", "0.04", "--expiry", "1",
         "--vol", "0.15", "--paths", "5000", "--seed", "42"],
        ["clt-demo", "--model", "two_point", "--variance", "0.0225", "--samples", "1000",
         "--seed", "11", "--n-ladder", "4,16"],
        ["lindeberg", "--model", "poisson_jump", "--jump-size", "1", "--intensity", "2",
         "--samples", "1000", "--seed", "11", "--n-ladder", "4,16"],
        ["var-linearity", "--model", "normal", "--variance", "0.0225", "--samples", "1000",
         "--seed", "11"],
    ], ids=["price", "tree", "tree-degenerate", "mc", "clt-demo", "lindeberg", "var-linearity"])
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
                if isinstance(value, bool):  # the tree's degenerate flag
                    assert csv_row[key] == str(value).lower()
                elif not isinstance(value, (int, float)):
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

    def test_unwritable_output_file_exits_one_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "missing" / "report.txt"
        assert main(PRICE_ARGS + ["--output", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"bslab price: cannot write output file {path}")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not path.exists()

    def test_steps_past_the_ceiling_exit_one_with_one_line(self, capsys):
        assert main(["tree", *PRICE_ARGS[1:], "--steps", "10000000000"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "steps must be at most 10**9, got 10000000000\n"

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

    def test_bad_domain_input_exits_one_at_parse_time(self, capsys):
        for argv in (MC_ARGS[:-1] + ["-1"],
                     ["clt-demo", "--model", "normal", "--variance", "1", "--samples", "200",
                      "--seed", "1", "--epsilon", "nan"],
                     ["lindeberg", "--model", "normal", "--variance", "1", "--samples", "200",
                      "--seed", "1", "--horizon", "inf"],
                     ["clt-demo", "--model", "normal", "--variance", "1", "--samples", "200",
                      "--seed", "1", "--n-ladder", "16,x"],
                     ["var-linearity", "--model", "normal", "--variance", "1", "--samples",
                      "200", "--seed", "1", "--horizons", "1,2,nan"],
                     ["clt-demo", "--model", "normal", "--variance", "1", "--samples", "200",
                      "--seed", "1", "--n-ladder", "4.5,8"],
                     MC_ARGS[:-3] + ["1", "--seed", "42"],
                     ["tree", *PRICE_ARGS[1:], "--steps", "0"],
                     ["lindeberg", "--model", "poisson_jump", "--jump-size", "inf",
                      "--intensity", "2", "--samples", "200", "--seed", "1"],
                     ["var-linearity", "--model", "normal", "--variance", "1", "--samples",
                      "200", "--seed", "-1"],
                     ["clt-demo", "--model", "normal", "--variance", "1", "--samples", "200",
                      "--seed", str(2 ** 64)],
                     ["price", "--spot", "-5", *PRICE_ARGS[3:]],
                     ["price", *PRICE_ARGS[1:3], "--strike", "0", *PRICE_ARGS[5:]]):
            with pytest.raises(UsageError):
                parse_args(argv)
            assert main(argv) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1 and "Traceback" not in err
        # spot and strike are checked like every other positive real
        assert main(["price", "--spot", "-5", *PRICE_ARGS[3:]]) == 1
        assert capsys.readouterr().err == "spot must be positive and finite, got -5.0\n"
        assert main(["price", *PRICE_ARGS[1:3], "--strike", "0", *PRICE_ARGS[5:]]) == 1
        assert capsys.readouterr().err == "strike must be positive and finite, got 0.0\n"

    def test_unparseable_horizons_exit_one_naming_the_flag(self, capsys):
        assert main(["var-linearity", "--model", "normal", "--variance", "1", "--samples",
                     "200", "--seed", "1", "--horizons", "1,2,x"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "--horizons takes comma-separated numbers, got '1,2,x'\n"

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

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_nan_report_exits_two_instead_of_emitting_json(self, monkeypatch, fmt, capsys):
        # refused before any renderer runs: text and csv printed "nan" with exit 0
        import bslab.pricing as pricing
        nan = PriceResult(price=math.nan)
        monkeypatch.setattr(pricing, "bs_call_price", lambda spec: nan)
        assert main(PRICE_ARGS + ["--format", fmt]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and "NaN" in err

    @pytest.mark.parametrize("argv", [
        # the n=1000 cell variance underflows to 0
        ["lindeberg", "--horizon", "1e-320", "--n-ladder", "1,1000"],
        ["clt-demo", "--horizon", "1e-320", "--n-ladder", "1,1000"],
        # the cell variance overflows to inf
        ["lindeberg", "--variance", "1e308", "--horizon", "1e10"],
        ["clt-demo", "--variance", "1e308", "--horizon", "1e10"],
    ], ids=["lindeberg_underflow", "clt_demo_underflow", "lindeberg_overflow",
            "clt_demo_overflow"])
    def test_unrepresentable_cell_variance_exits_two_with_one_line(self, argv, capsys):
        flags = ["--model", "normal", "--variance", "0.0225", "--samples", "200", "--seed", "1"]
        assert main(argv[:1] + flags + argv[1:]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert "variance" in err and "Traceback" not in err and "Warning" not in err

    def test_poisson_jump_names_its_bad_intensity(self, capsys):
        assert main(["lindeberg", "--model", "poisson_jump", "--jump-size", "1",
                     "--intensity", "-2", "--samples", "200", "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert "intensity must be positive" in err and "per_unit_variance" not in err

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    @pytest.mark.parametrize("argv, named", [
        (["clt-demo", "--intensity", "800"], "intensity 800.0 * cell length h 1.0"),
        (["lindeberg", "--intensity", "2", "--horizon", "400"],
         "intensity 2.0 * cell length h 400.0")], ids=["clt_demo", "lindeberg"])
    def test_poisson_cell_mean_out_of_range_names_its_inputs(self, argv, named, fmt, capsys):
        # the cell mean intensity*h is past the Poisson table's range; the line
        # gave only the mean, which no flag sets
        assert main([*argv, "--model", "poisson_jump", "--jump-size", "1", "--samples", "100",
                     "--seed", "1", "--n-ladder", "1", "--format", fmt]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert "poisson mean must be in (0, 700), got 800.0" in err and named in err

    @pytest.mark.parametrize("jump_size, got", [("1e200", "inf"), ("1e-200", "0.0")],
                             ids=["overflow", "underflow"])
    def test_unrepresentable_jump_variance_exits_one_with_one_line(self, jump_size, got,
                                                                   capsys):
        assert main(["var-linearity", "--model", "poisson_jump", "--jump-size", jump_size,
                     "--intensity", "2", "--samples", "200", "--seed", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("jump_size^2 * intensity") and err.endswith(f"got {got}\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("variance, horizons", [
        # the row sums at t = 1e7 have variance 1e307: var() and the fourth moment overflow
        ("1e300", "1,2,1e7"),
        # the spread of the horizons squares to 0, and the fit divides by it
        ("1", "1e-300,2e-300,3e-300"),
    ], ids=["overflow", "zero_spread"])
    def test_non_finite_variance_fit_exits_two_with_one_line(self, variance, horizons, fmt,
                                                             capsys):
        # warnings are errors here, so none may escape
        assert main(["var-linearity", "--model", "normal", "--variance", variance,
                     "--samples", "200", "--seed", "1", "--horizons", horizons,
                     "--format", fmt]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("bslab var-linearity: the variance fit over horizons")
        assert "Warning" not in err and "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    @pytest.mark.parametrize("paths", ["10000", "1000000"], ids=["one_piece", "pooled"])
    def test_overflowing_mc_payoff_exits_two_with_one_line(self, paths, fmt, capsys):
        # at the largest spot the estimate spot * mean(g) passes the largest
        # double once the sample mean of g exceeds 1 (1.098 and 1.021 here);
        # warnings are errors here, so none may escape from either thread
        assert main(["mc", "--spot", "1.7976931348623157e308", "--strike", "1e-308",
                     "--rate", "0.04", "--expiry", "1", "--vol", "2.5", "--paths", paths,
                     "--seed", "42", "--format", fmt]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("bslab mc: the Monte Carlo estimate")
        assert "Warning" not in err and "Traceback" not in err

    @pytest.mark.parametrize("exc", [OverflowError("math range error"),
                                     ZeroDivisionError("float division by zero")])
    def test_arithmetic_error_exits_two_with_one_line(self, monkeypatch, exc, capsys):
        import bslab.pricing as pricing

        def failing(spec):
            raise exc

        monkeypatch.setattr(pricing, "bs_call_price", failing)
        assert main(PRICE_ARGS) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"bslab price: numerical failure ({type(exc).__name__}: {exc})")

    @pytest.mark.parametrize("argv, named", [
        (["price", "--spot", "50", "--strike", "52", "--rate", "-1000", "--expiry", "1",
          "--vol", "0.15"], "discounted strike strike*exp(-rate*expiry) overflows"),
        (["mc", "--spot", "50", "--strike", "52", "--rate", "-1000", "--expiry", "1",
          "--vol", "0.15", "--paths", "100", "--seed", "1"],
         "discounted strike strike*exp(-rate*expiry) overflows"),
        (["tree", "--spot", "50", "--strike", "52", "--rate", "0.04", "--expiry", "1",
          "--vol", "1000", "--steps", "1"],
         "vol*sqrt(expiry/steps) = 1000 passes 8.0 at vol=1000.0, expiry=1.0, steps=1; "
         "increase steps to at least 15625"),
        (["tree", "--spot", "50", "--strike", "52", "--rate", "100000", "--expiry", "1",
          "--vol", "0.15", "--steps", "1"], "no step count up to 10**9 fits"),
    ], ids=["price_rate_overflow", "mc_rate_overflow", "tree_too_coarse", "tree_rate_too_large"])
    def test_out_of_range_input_exits_two_naming_it(self, argv, named, capsys):
        # these reached the ArithmeticError backstop, whose line names no input
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"bslab {argv[0]}: ") and named in err
        assert "numerical failure" not in err

    @pytest.mark.parametrize("method", [["price"], ["tree", "--steps", "10000"],
                                        ["mc", "--paths", "1000", "--seed", "1"]])
    def test_every_pricer_prices_a_vanishing_expiry_at_its_limit(self, method, capsys):
        # with no spread Monte Carlo's payoff is spot*(1 - kappa) for a rounded
        # kappa, 2.0000000000000018 here; it subtracts kappa_lo too, as the lattice does
        assert main([method[0], "--spot", "50", "--strike", "48", "--rate", "0.04",
                     "--expiry", "1e-300", "--vol", "0.15", *method[1:], "--format", "json"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and json.loads(out)["results"]["price"] == 2.0

    def test_the_three_pricers_report_the_closed_form_d_and_name_their_method(self, capsys):
        # d+- belong to the contract, not to the pricer: every report carries
        # d_plus_minus's bits, at the limits (read back from Infinity) and past
        # the double range too
        rnd = random.Random(2929)
        contracts = [(50.0, 52.0, 0.04, 1.0, 0.0), (60.0, 52.0, 0.04, 1.0, 0.0),
                     (60.0, 52.0, 0.04, 0.0, 0.15), (50.0, 50.0, 0.04, 0.0, 0.15),
                     (100.0, 50.0, 0.0, 1.0, 1e-320), (25.0, 50.0, 0.0, 1.0, 1e-320),
                     (1e308, 1e-308, 0.04, 1.0, 0.15), (1e-308, 1e308, 0.04, 1.0, 0.15)]
        for _ in range(24):
            spot = 10.0 ** rnd.uniform(-3.0, 3.0)
            contracts.append((spot, spot * math.exp(rnd.uniform(-1.0, 1.0)),
                              rnd.uniform(-0.05, 0.05), rnd.uniform(0.1, 2.0),
                              rnd.uniform(0.1, 0.6)))
        commands = {"price": ("closed_form", []), "tree": ("tree", ["--steps", "8"]),
                    "mc": ("monte_carlo", ["--paths", "16", "--seed", "1"])}
        for contract in contracts:
            expected = [d.hex() for d in d_plus_minus(OptionSpec(*contract))]
            flags = [f"--{name}={value!r}"
                     for name, value in zip(("spot", "strike", "rate", "expiry", "vol"), contract)]
            for command, (method, extra) in commands.items():
                assert main([command, *flags, *extra, "--format", "json"]) == 0, (command, contract)
                report = json.loads(capsys.readouterr().out)
                results = report["results"]
                assert [results["d_plus"].hex(), results["d_minus"].hex()] == expected, command
                assert report["diagnostics"]["method"] == method

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    @pytest.mark.parametrize("command", ["lindeberg", "clt-demo"])
    def test_normal_tail_past_half_the_largest_double_is_empty(self, command, fmt, capsys):
        # v*2 overflowed to inf for a cell variance past 9e307, and inf*0 printed
        # lindeberg = nan with exit 0 (json exited 2 on the NaN)
        assert main([command, "--model", "normal", "--variance", "1e308", "--horizon", "1",
                     "--n-ladder", "1", "--epsilon", "1e300", "--samples", "1000",
                     "--seed", "5", "--format", fmt]) == 0
        out, err = capsys.readouterr()
        assert err == "" and "nan" not in out
        if fmt == "json":
            assert json.loads(out)["rows"][0]["lindeberg"] == 0.0

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    @pytest.mark.parametrize("argv, named", [
        # the squared deviations of z^2 overflow M2 past a cell variance of ~1e154
        (["--model", "uniform", "--variance", "1e160", "--n-ladder", "1,4", "--epsilon", "1",
          "--samples", "100", "--seed", "1"], "the Lindeberg estimate"),
        (["--model", "centered_exponential", "--variance", "2", "--horizon", "1e300",
          "--epsilon", "100", "--n-ladder", "1", "--samples", "2", "--seed", "0"],
         "the Lindeberg estimate"),
        # the row variance 1e308 * 10 overflows, as clt-demo refuses it
        (["--model", "two_point", "--variance", "1e308", "--horizon", "10", "--n-ladder", "16",
          "--epsilon", "1", "--samples", "10", "--seed", "1"],
         "one increment's variance 1e+308 * 10.0 must be positive and finite, got inf"),
    ], ids=["uniform_m2_overflow", "exponential_m2_overflow", "row_variance_overflow"])
    def test_lindeberg_estimate_past_the_double_range_exits_two_with_one_line(
            self, argv, named, fmt, capsys):
        # these printed mc_std_error = nan (and lindeberg = inf) with exit 0 after a
        # numpy overflow warning; warnings are errors here, so none may escape
        assert main(["lindeberg", *argv, "--format", fmt]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and named in err
        assert "Warning" not in err and "Traceback" not in err

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(command=st.sampled_from(["clt-demo", "lindeberg", "var-linearity"]),
           kind=st.sampled_from(KINDS), reals=st.lists(POSITIVE, min_size=3, max_size=3),
           horizons=st.lists(POSITIVE, min_size=3, max_size=4),
           samples=st.sampled_from([2, 3, 100, 130]), seed=st.integers(0, 99),
           ladder=st.sampled_from(["1", "16", "1,4", "2,16", "1,3,64"]),
           fmt=st.sampled_from(["text", "csv", "json"]))
    def test_every_model_run_reports_finite_numbers_or_names_its_failure(
            self, command, kind, reals, horizons, samples, seed, ladder, fmt):
        # variance (or jump size and intensity), horizon and epsilon, each log-uniform
        # over the doubles; warnings are errors here, so a leaked numpy warning fails
        first, second, third = reals
        model = (["--jump-size", first, "--intensity", second] if kind == "poisson_jump"
                 else ["--variance", first])
        sizes = (["--horizons", ",".join(horizons)] if command == "var-linearity"
                 else ["--horizon", second, "--epsilon", third, "--n-ladder", ladder])
        argv = [command, "--model", kind, *model, "--samples", str(samples), "--seed", str(seed),
                *sizes, "--format", fmt]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        message = err.getvalue()
        if code == 0:
            assert message == "" and "nan" not in out.getvalue().lower(), argv
        else:
            assert code in (1, 2) and message.count("\n") == 1, (argv, message)
            assert "Warning" not in message and "Traceback" not in message, argv

    @pytest.mark.parametrize("strike, price", [("52", 0.0), ("48", 2.0)])
    def test_lattice_with_steps_shorter_than_an_ulp_prices_the_limit(self, strike, price,
                                                                     capsys):
        # exp(+-vol*sqrt(expiry/steps)) both round to 1, which left the step
        # probability (exp(r*t/n) - d)/(u - d) at 0/0 and exited 2
        assert main(["tree", "--spot", "50", "--strike", strike, "--rate", "0.04",
                     "--expiry", "1e-300", "--vol", "0.15", "--steps", "10000",
                     "--format", "json"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and json.loads(out)["results"]["price"] == price

    def test_mc_payoff_past_the_double_range_prices_the_spot(self, capsys):
        # in forward units no payoff overflows: spot * e^y did, and this exited 2
        assert main(["mc", "--spot", "1e308", "--strike", "1e-308", "--rate", "0.04",
                     "--expiry", "1", "--vol", "0.15", "--paths", "100000", "--seed", "1",
                     "--format", "json"]) == 0
        out, err = capsys.readouterr()
        results = json.loads(out)["results"]
        assert err == "" and abs(results["price"] - 1e308) <= 4.0 * results["std_error"]

    @pytest.mark.parametrize("strike, rate, vol", [("1e308", "0.05", "0.2"),
                                                   ("1e-308", "0.04", "0.15")],
                             ids=["at_the_money", "deep_in_the_money"])
    def test_lattice_payoff_past_the_double_range_prices(self, strike, rate, vol, capsys):
        # spot*e^x passes the largest double near the mode here; in forward units no
        # term passes the sum of the weights, so no payoff sum overflows
        inputs = ["--spot", "1e308", "--strike", strike, "--rate", rate, "--expiry", "1",
                  "--vol", vol, "--format", "json"]
        assert main(["tree", *inputs, "--steps", "10000"]) == 0
        out, err = capsys.readouterr()
        assert main(["price", *inputs]) == 0
        closed = json.loads(capsys.readouterr().out)["results"]["price"]
        price = json.loads(out)["results"]["price"]
        # a float step probability keeps the lattice a martingale to rounding only, so
        # the lower bound takes the lattice slack of the bounds sweep, 1e-9 of spot;
        # the price is capped at spot
        lower = 1e308 - float(strike) * math.exp(-float(rate))
        assert err == "" and lower - 1e-9 * 1e308 <= price <= 1e308
        assert abs(price - closed) <= 1e-4 * closed

    @pytest.mark.parametrize("spot, strike, rate, expiry, vol, steps", [
        ("1.7976931348623157e308", "1", "0.05", "1", "1", "3"),
        ("0.03068986529616829", "0.04330445855976561", "0.055475760679968136",
         "6.470556622092849", "8.584947365834088", "3509")],
        ids=["largest_double", "coarse_deep_in_the_money"])
    def test_lattice_price_rounding_past_spot_is_spot(self, spot, strike, rate, expiry, vol,
                                                      steps, capsys):
        # the float step probability lifts the lattice's sum ratio past 1 here, which
        # took the first contract past the largest double (exit 2); capped, both price
        # at spot, as the closed form does
        inputs = ["--spot", spot, "--strike", strike, "--rate", rate, "--expiry", expiry,
                  "--vol", vol, "--format", "json"]
        assert main(["tree", *inputs, "--steps", steps]) == 0
        out, err = capsys.readouterr()
        assert main(["price", *inputs]) == 0
        closed = json.loads(capsys.readouterr().out)["results"]["price"]
        assert err == "" and json.loads(out)["results"]["price"] == closed == float(spot)

    def test_run_step_takes_only_its_own_commands_objects(self):
        # a build step and its run step meet in one signature, so objects built
        # for another command fail at once
        with pytest.raises(TypeError, match="tree_config"):
            COMMANDS["tree"].run(**parse_args(PRICE_ARGS).objects)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("spot, rate, vol, steps", [
        (5.148200222412013e-131, 1198.8, 84.8528137423857, 200),
        (math.exp(-700.0), 789.99921, 79.0, 100)], ids=["nan", "below_the_floor"])
    def test_lattice_whose_discount_underflows_prices(self, spot, rate, vol, steps, fmt,
                                                      capsys):
        # e^{-rt} multiplied the sums and rounded to 0: times an infinite payoff
        # sum it printed price = nan with exit 0, and the second contract priced
        # 0.0, under its floor spot - strike*e^{-rt} ~ 9.86e-305
        option = ["--spot", repr(spot), "--strike", repr(spot), "--rate", repr(rate),
                  "--expiry", "1", "--vol", repr(vol)]
        assert main(["price", *option, "--format", "json"]) == 0
        closed_form = json.loads(capsys.readouterr().out)["results"]["price"]
        assert main(["tree", *option, "--steps", str(steps), "--format", fmt]) == 0
        out, err = capsys.readouterr()
        price = (json.loads(out)["results"]["price"] if fmt == "json" else
                 float(next(line.split("=")[1] for line in out.splitlines()
                            if line.strip().startswith("price"))))
        assert err == "" and abs(price - closed_form) <= 1e-12 * closed_form

    @pytest.mark.parametrize("spot, vol, steps", [("1e-250", "36", "10000"),
                                                  ("1e-250", "40", "10000"),
                                                  ("100", "40", "1000")])
    def test_wide_lattice_past_the_float_floor_prices_the_spot(self, spot, vol, steps, capsys):
        # the payoff terms peak vol*sqrt(t) binomial standard deviations above
        # the mode, where the weights are below the smallest normal float: the
        # lattice stopped there and priced 9.68e-251 at vol 36 and 1.67e-252 at
        # vol 40; at spot 100 those nodes pass the largest double, which exited 2
        assert main(["tree", "--spot", spot, "--strike", spot, "--rate", "0.04", "--expiry", "1",
                     "--vol", vol, "--steps", steps, "--format", "json"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["results"]["price"] == pytest.approx(float(spot), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("spot, strike, price", [("1e308", "1e-308", 1e308),
                                                     ("1e-308", "1e308", 0.0)],
                             ids=["spot_over_strike_overflows", "spot_over_strike_underflows"])
    def test_moneyness_past_the_double_range_prices(self, spot, strike, price, capsys):
        assert main(["price", "--spot", spot, "--strike", strike, "--rate", "0.04",
                     "--expiry", "1", "--vol", "0.15", "--format", "json"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and json.loads(out)["results"]["price"] == price

    def test_subnormal_vol_sqrt_t_prices_the_deterministic_limit(self, capsys):
        # (log 2)/1e-320 overflows, so d+- are at the zero-volatility limit
        assert main(["price", "--spot", "100", "--strike", "50", "--rate", "0", "--expiry", "1",
                     "--vol", "1e-320", "--format", "json"]) == 0
        out, err = capsys.readouterr()
        results = json.loads(out)["results"]
        assert err == "" and results == {"price": 50.0, "d_plus": math.inf,
                                         "d_minus": math.inf}

    def test_overflowing_vol_sqrt_t_exits_one_naming_it(self, capsys):
        assert main(["price", "--spot", "50", "--strike", "52", "--rate", "0.04",
                     "--expiry", "1e300", "--vol", "1e300"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == ("volatility*sqrt(expiry) must be finite, got volatility "
                                     "1e+300 and expiry 1e+300\n")

    def test_normal_lindeberg_tail_past_the_double_range_is_zero(self, capsys):
        # epsilon/s overflows to inf, where the normal tail is empty
        assert main(["lindeberg", "--model", "normal", "--variance", "1e-300", "--epsilon",
                     "1e300", "--samples", "100", "--seed", "1", "--n-ladder", "16",
                     "--format", "json"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and json.loads(out)["rows"][0]["lindeberg"] == 0.0

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

    def test_tree_command_loads_neither_numpy_nor_scipy(self):
        argv = ["tree", *PRICE_ARGS[1:], "--steps", "10000"]
        proc = run_python(f"import bslab.cli\nassert bslab.cli.main({argv!r}) == 0\n"
                          + NO_NUMPY_OR_SCIPY)
        assert "price = 3.0075704319\n" in proc.stdout

    def test_import_starts_no_thread(self):
        run_python("import threading\nimport bslab.cltlab, bslab.montecarlo\n"
                   "assert threading.active_count() == 1, threading.enumerate()\n")

    def test_rng_import_leaves_the_executor_unloaded(self):
        run_python("import sys\nimport bslab.rng\n"
                   "assert 'concurrent.futures' not in sys.modules\n")

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


ROOT = Path(__file__).resolve().parents[1]


class TestBenchmarkSurface:
    """The benchmark under perfbench/ reaches bslab only through its exports
    and the tracer's wrapped functions; retiring one of them must fail here."""

    def test_tracer_installs(self):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src"), str(ROOT / "perfbench"), *sys.path])}
        done = subprocess.run([sys.executable, "-c", "import spans\nspans.Tracer().install()\n"],
                              capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr

    def test_workload_names_are_exports(self):
        import bslab

        def reads_bslab(node):
            return (isinstance(node, ast.Name) and node.id in ("bslab", "b")
                    or isinstance(node, ast.Attribute) and node.attr == "bslab")

        tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
        names = {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and reads_bslab(node.value)}
        assert "run_convergence_experiment" in names
        assert names <= set(bslab.__all__), sorted(names - set(bslab.__all__))

    @pytest.mark.parametrize("workload", ["PriceThreeWays", "CltLadder"])
    def test_one_untimed_pass_of_each_workload_passes_its_checks(self, workload, monkeypatch):
        # the library calls the benchmark times, at its sizes: a call it can no
        # longer make, or an output its oracles refuse, fails here first
        import bslab
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        bench = getattr(importlib.import_module("workloads"), workload)(1, bslab)
        checks = bench.checks({name: op() for name, op in bench.ops(False)})
        failed = [name for name, ok in checks if not ok]
        assert checks and not failed, failed
