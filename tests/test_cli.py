import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loglin_effects import CELLS, NoCausalParams, serialize_table
from loglin_effects.cli import main
from conftest import TABLE5
from loglin_effects.causal import conditional_probabilities
from loglin_effects.tables import ContingencyTable

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def uniform_csv(tmp_path):
    path = tmp_path / "uniform.csv"
    path.write_text(serialize_table(ContingencyTable((10.0,) * 8), "csv"))
    return str(path)


@pytest.fixture
def table5_csv(tmp_path):
    """Expected counts reconstructed from the first empirical model."""
    probs = conditional_probabilities(TABLE5).joint().probs
    t = ContingencyTable(tuple(p * 1e5 for p in probs))
    path = tmp_path / "table5.csv"
    path.write_text(serialize_table(t, "csv"))
    return str(path)


@pytest.fixture
def zero_cell_csv(tmp_path):
    path = tmp_path / "zero.csv"
    t = ContingencyTable((0.0, 1, 2, 3, 4, 5, 6, 7))
    path.write_text(serialize_table(t, "csv"))
    return str(path)


class TestInProcessMain:
    def test_parser_built_once_per_process(self, uniform_csv, monkeypatch):
        import loglin_effects.cli as cli

        calls = []
        real = cli.build_parser

        def counting():
            calls.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            for command in ("fit", "effects", "test"):
                assert main([command, "--input", uniform_csv]) == 0
        finally:
            cli._parser.cache_clear()
        assert len(calls) == 1

    @pytest.mark.parametrize("command", ["effects --verify", "oracle"])
    def test_json_output_formats_no_text_lines(self, table5_csv, command,
                                               monkeypatch, capsys):
        import loglin_effects.cli as cli

        def unused(*args):
            raise AssertionError("text lines built under --output json")

        argv = [*command.split(), "--input", table5_csv, "--output", "json"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        monkeypatch.setattr(cli, "_report_lines", unused)
        assert main(argv) == 0
        assert capsys.readouterr().out == out

    def test_no_options_carry_to_the_next_call(self, table5_csv, capsys):
        assert main(
            ["effects", "--input", table5_csv, "--verify", "--from", "1",
             "--to", "0", "--output", "json"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["direction"] == [1, 0]
        assert main(["effects", "--input", table5_csv, "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "verify_max_discrepancy" not in doc
        assert doc["direction"] == [0, 1]

    @pytest.mark.parametrize(
        "argv, status", [(["fit", "--bogus"], 2), (["--version"], 0)]
    )
    def test_good_call_after_parser_exit(self, uniform_csv, argv, status,
                                         capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--input", uniform_csv])
        assert exc.value.code == status
        assert main(["fit", "--input", uniform_csv]) == 0


#: command lines at the edges of parsing: help and version at both levels,
#: abbreviations, ``--`` around the command, bad choices and values, unknown
#: options and commands, leftover tokens and negative numbers
_PARSE_CORPUS = (
    [],
    ["-h"],
    ["--help"],
    ["--version"],
    ["--ver"],
    ["--version", "fit", "--input", "t.csv"],
    ["-h", "fit"],
    ["fit"],
    ["fit", "-h"],
    ["effects", "--help"],
    ["fit", "--h"],
    ["fit", "--input", "t.csv"],
    ["fit", "--input=t.csv", "--output=json"],
    ["fit", "--inp", "t.csv"],
    ["fit", "--input", "t.csv", "--ver"],
    ["effects", "--input", "t.csv", "--o", "json"],
    ["fit", "--input", "t.csv", "--bogus"],
    ["test", "--input", "t.csv", "-x"],
    ["effects", "--input", "t.csv", "--version"],
    ["fit", "--input", "t.csv", "--version=1"],
    ["--", "fit", "--input", "t.csv"],
    ["fit", "--", "--input", "t.csv"],
    ["fit", "--input", "t.csv", "--"],
    ["fit", "--input", "t.csv", "--model", "three-way"],
    ["fit", "--input"],
    ["fit", "--input", "--model"],
    ["fit", "--input", "a.csv", "--input", "b.json"],
    ["fit", "--input", "t.csv", "extra"],
    ["fits", "--input", "t.csv"],
    ["FIT", "--input", "t.csv"],
    ["effects", "--input", "t.csv", "--from", "-1"],
    ["effects", "--input", "t.csv", "--to", "-0", "--from", "1"],
    ["fit", "--input", "-5"],
    ["oracle", "--input", "t.csv", "--model", "saturated"],
    ["oracle", "--input", "t.csv", "--from=1", "--to=0", "--output", "json"],
    ["effects", "--verify", "--input", "t.json", "--format", "csv",
     "--zero-cells", "correct:0.25", "--model", "saturated"],
    ["test", "--zero-cells", "allow", "--input", "t.csv", "--output", "text"],
    # values that a type or choice check, or the one-pass parser's own
    # rules (no empty value, none that starts with ``-``), must get right
    ["effects", "--input", "t.csv", "--from", "00", "--to", "+1"],
    ["effects", "--input", "t.csv", "--to", "1.0"],
    ["effects", "--input", "t.csv", "--verify", "--verify"],
    ["fit", "--input", ""],
    ["fit", "--input", "t.csv", "--output", ""],
    ["fit", "--input", "-"],
    ["fit", "--input", "t.csv", "--model"],
    ["oracle", "--input", "t.csv", "--verify"],
    ["test", "--input", "a b.csv", "--format", "JSON"],
    ["fit", "--output", "json", "--input", "t.csv", "--output", "text"],
    ["effects", "--input", "t.csv", "--zero-cells", "-5"],
)

#: the tokens of the corpus, for command lines drawn at random
_PARSE_TOKENS = sorted({token for argv in _PARSE_CORPUS for token in argv})


def _parse_outcome(parse, argv):
    """The exit code, stdout, stderr and options of ``parse(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    code, options = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            options = vars(parse(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), options


class TestParseOnce:
    # main parses a command line that starts with a command by that
    # command's parser alone, and must act as the full parser does

    @pytest.mark.parametrize("argv", _PARSE_CORPUS, ids=" ".join)
    def test_corpus_parses_as_the_full_parser(self, argv):
        import loglin_effects.cli as cli

        full = cli.build_parser().parse_args
        assert (_parse_outcome(cli._parse_args, argv)
                == _parse_outcome(full, argv))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(_PARSE_TOKENS), max_size=8))
    def test_drawn_command_lines_parse_as_the_full_parser(self, argv):
        import loglin_effects.cli as cli

        full = cli.build_parser().parse_args
        assert (_parse_outcome(cli._parse_args, argv)
                == _parse_outcome(full, argv))

    def test_well_formed_lines_skip_the_full_parser(self, uniform_csv,
                                                    monkeypatch, capsys):
        import loglin_effects.cli as cli

        calls = []
        parser = cli._parser()
        real = parser.parse_args

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(parser, "parse_args", counting)
        for argv in (["fit", "--input", uniform_csv, "--output", "json"],
                     ["effects", "--verify", "--input", uniform_csv],
                     ["test", "--input=" + uniform_csv],
                     ["oracle", "--inp", uniform_csv, "--from", "1",
                      "--to", "0"]):
            assert main(argv) == 0
        assert calls == []
        capsys.readouterr()
        # a leftover token goes to the full parser, which reports it
        with pytest.raises(SystemExit):
            main(["fit", "--input", uniform_csv, "--bogus"])
        assert calls == [1]
        assert capsys.readouterr().err.startswith(
            "usage: loglin-effects [-h] [--version] "
            "{fit,effects,test,oracle} ...\n"
        )

    def test_plain_lines_skip_argparse(self, monkeypatch, capsys):
        import loglin_effects.cli as cli

        parser = cli._parser()
        calls = []

        def spy(parse, name):
            def counting(*args, **kwargs):
                calls.append(name)
                return parse(*args, **kwargs)
            return counting

        monkeypatch.setattr(parser, "parse_args",
                            spy(parser.parse_args, "parse_args"))
        for command in parser.commands.values():
            monkeypatch.setattr(
                command, "parse_known_args",
                spy(command.parse_known_args, "parse_known_args"),
            )
        common = ["--input", "t.csv", "--zero-cells", "correct:0.5",
                  "--output", "json"]
        for argv in (["effects", *common, "--verify"], ["test", *common],
                     ["fit", *common],
                     ["effects", "--input", "t.csv", "--from", "1",
                      "--to", "0"]):
            cli._parse_args(argv)
        assert calls == []
        # an abbreviation, ``--opt=value`` and help go to the command's
        # parser, once
        for argv in (["fit", "--inp", "t.csv"], ["fit", "--input=t.csv"],
                     ["fit", "-h"]):
            calls.clear()
            with contextlib.suppress(SystemExit):
                cli._parse_args(argv)
            assert calls == ["parse_known_args"]
        assert capsys.readouterr().out.startswith("usage: loglin-effects fit")


class TestFit:
    def test_uniform_exit_and_values(self, uniform_csv, capsys):
        assert main(["fit", "--input", uniform_csv, "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for term in ("X", "Z", "Y", "XZ", "XY", "ZY"):
            assert doc["loglinear"]["multiplicative"][term] == pytest.approx(
                1.0, abs=1e-8
            )
        assert doc["causal"]["Xc"] == pytest.approx(1.0, abs=1e-9)

    def test_table5_synthesis_prints_causal_xz(self, table5_csv, capsys):
        assert main(["fit", "--input", table5_csv, "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["causal"]["XZc"] == pytest.approx(3.3059, abs=5e-3)

    def test_zero_cell_default_policy(self, zero_cell_csv, capsys):
        assert main(["fit", "--input", zero_cell_csv]) == 1
        err = capsys.readouterr().err
        assert "(0, 0, 0)" in err

    def test_zero_cell_correct_policy(self, zero_cell_csv):
        assert main(
            ["fit", "--input", zero_cell_csv, "--zero-cells", "correct:0.5"]
        ) == 0

    def test_missing_file(self, tmp_path, capsys):
        assert main(["fit", "--input", str(tmp_path / "nope.csv")]) == 1
        assert capsys.readouterr().err

    def test_text_fit_imports_no_numpy(self, tmp_path):
        # the package never imports numpy
        path = tmp_path / "readme.csv"
        path.write_text(_counts_csv((42, 18, 25, 31, 17, 23, 12, 48)))
        program = ("import sys\n"
                   "from loglin_effects.cli import main\n"
                   f"assert main(['fit', '--input', {str(path)!r}]) == 0\n"
                   "print('numpy' in sys.modules)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        out = subprocess.run(
            [sys.executable, "-c", program], env=env, capture_output=True,
            text=True, timeout=60, check=True,
        ).stdout
        assert out.splitlines()[-1] == "False"

    @pytest.mark.parametrize("command", ["fit", "test", "fit --output json"])
    def test_text_output_of_far_off_logits_exits_0(self, tmp_path, command,
                                                    capsys):
        # the fit succeeds, and so does its covariance: the fitted counts
        # span 1e200, where a floating-point inverse of the information
        # matrix is singular
        path = tmp_path / "far.csv"
        path.write_text(_counts_csv((1e200, 1, 1, 1e200, 2, 3e150, 1e100, 1)))
        assert main([*command.split(), "--input", str(path)]) == 0
        assert capsys.readouterr().err == ""


class TestEffects:
    def test_table5_values(self, table5_csv, capsys):
        assert main(
            ["effects", "--input", table5_csv, "--output", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["TE"] == pytest.approx(2.4008, abs=5e-3)
        assert doc["NDE"] == pytest.approx(1.8741, abs=5e-3)
        assert doc["IE"] == pytest.approx(1.2845, abs=5e-3)
        assert doc["cell"]["z0"] == pytest.approx(0.9741, abs=5e-3)

    def test_verify_passes(self, table5_csv, capsys):
        assert main(
            ["effects", "--input", table5_csv, "--verify", "--output", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verify_max_discrepancy"] < 1e-8

    def test_reverse_direction_reciprocal(self, table5_csv, capsys):
        main(["effects", "--input", table5_csv, "--output", "json"])
        fwd = json.loads(capsys.readouterr().out)
        main(
            ["effects", "--input", table5_csv, "--from", "1", "--to", "0",
             "--output", "json"]
        )
        rev = json.loads(capsys.readouterr().out)
        assert rev["TE"] == pytest.approx(1.0 / fwd["TE"], rel=1e-10)

    def test_json_deterministic(self, table5_csv, capsys):
        main(["effects", "--input", table5_csv, "--output", "json"])
        first = capsys.readouterr().out
        main(["effects", "--input", table5_csv, "--output", "json"])
        assert capsys.readouterr().out == first

    def test_json_single_document(self, table5_csv, capsys):
        main(
            ["effects", "--input", table5_csv, "--verify", "--output", "json"]
        )
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 1
        json.loads(out)


class TestVerifyThreshold:
    def test_large_effects_pass_relative_check(self, tmp_path, capsys):
        # LDE ~ 2.8e5: engine and oracle agree to ~3e-13 relative, which is
        # ~7e-8 absolute, so an absolute 1e-8 threshold would reject it
        counts = (104385557, 151634, 272831566, 2146368,
                  161227, 64695291, 255563, 555372794)
        path = tmp_path / "large.csv"
        path.write_text(serialize_table(ContingencyTable(counts), "csv"))
        for model in ("two-way", "saturated"):
            assert main(
                ["effects", "--input", str(path), "--verify", "--model",
                 model, "--output", "json"]
            ) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["LDE"]["z0"] > 2e5
            assert doc["verify_max_discrepancy"] < 1e-8

    def test_near_certain_outcome_verifies(self, tmp_path, capsys):
        # P(Y=0|x,z) from 1e-12 to 7e-15: p/(1-p) odds put LDE(z=0) at
        # 474.1 instead of 500, and the oracle disagreed by 5e-2
        counts = (1, 1e12, 3, 2e13, 1, 5e14, 7, 1e15)
        path = tmp_path / "certain.csv"
        path.write_text(serialize_table(ContingencyTable(counts), "csv"))
        assert main(
            ["effects", "--input", str(path), "--verify", "--model",
             "saturated", "--output", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["LDE"]["z0"] == pytest.approx(500.0, rel=1e-14)
        assert doc["verify_max_discrepancy"] < 1e-14

    def test_overflowing_odds_exit_2(self, tmp_path, capsys):
        counts = (1e-100, 1e100, 1e-100, 1e100, 1, 1, 1, 1)
        path = tmp_path / "overflow.csv"
        path.write_text(serialize_table(ContingencyTable(counts), "csv"))
        assert main(
            ["effects", "--input", str(path), "--model", "saturated"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err

    @pytest.mark.xfail(strict=True, reason=(
        "the oracle is 1.7e-7 off when a joint cell is subnormal; the "
        "engine is exact to 2.2e-16"))
    def test_subnormal_joint_cell_verifies(self, tmp_path):
        # joint cell (0,0,1) is 6.34e-318: the oracle's multiplicative
        # interaction, cell[0] and lde[0] are 1.74e-7 off the exact effects
        counts = (5.294549117035401e-149, 1.6890428118753416e-228,
                  3.4184915883909165e-142, 2.07836101088961e-08,
                  1.367043474049431e+52, 1.0274431970224637e+28,
                  2.663030529301764e+89, 5.022344202909926e-21)
        path = tmp_path / "subnormal.csv"
        path.write_text(serialize_table(ContingencyTable(counts), "csv"))
        assert main(
            ["effects", "--input", str(path), "--verify", "--model",
             "saturated", "--output", "json"]
        ) == 0


class TestMleExistence:
    def test_quasi_separation_exits_2(self, tmp_path, capsys):
        # n(0,0,1) = n(0,1,1) = 0: no finite two-way MLE; the fit must not
        # report a "converged" TE near 1e12
        path = tmp_path / "sep.csv"
        t = ContingencyTable((5, 0, 7, 0, 3, 4, 6, 8))
        path.write_text(serialize_table(t, "csv"))
        assert main(
            ["effects", "--input", str(path), "--zero-cells", "allow"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "(0, 0, 1)" in captured.err and "(0, 1, 1)" in captured.err

    def test_zero_margin_fit_exits_2(self, tmp_path, capsys):
        path = tmp_path / "margin.csv"
        t = ContingencyTable((5, 1, 0, 0, 3, 4, 6, 8))
        path.write_text(serialize_table(t, "csv"))
        assert main(
            ["fit", "--input", str(path), "--zero-cells", "allow"]
        ) == 2
        assert "does not exist" in capsys.readouterr().err


class TestParameterRange:
    # valid tables whose loglinear parameters under- or overflow: the fit
    # cannot represent them, which is a computation failure, not bad input
    @pytest.mark.parametrize(
        "counts, model",
        [
            ((4.54, 3.66e-14, 1.97e108, 2.65e45, 1.98e214, 1.11e-30,
              5.07e-18, 1.77e199), "saturated"),
            ((5.15e48, 7.72e-113, 6.26e151, 3.07e-196, 4.08e-7, 2.93e-33,
              1.75e-25, 7.38e22), "two-way"),
            # lambda^Y = 724 > log(max float): exp raised OverflowError
            ((0.009234292562400749, 0.0019505349237660058, 1e-300, 1.0,
              0.9999999999999987, 1.3083909595959356e-15, 1e-300, 1.0),
             "two-way"),
        ],
    )
    def test_out_of_range_parameters_exit_2(self, tmp_path, counts, model,
                                            capsys):
        path = tmp_path / "range.csv"
        path.write_text(_counts_csv(counts))
        assert main(["effects", "--input", str(path), "--model", model]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err

    def test_out_of_range_covariance_exits_2(self, tmp_path, capsys):
        # the saturated variance of the three-way term is the sum of the
        # eight 1/m = 1e308, which overflows
        path = tmp_path / "tiny.csv"
        path.write_text(_counts_csv((1e-308,) * 8))
        assert main(["fit", "--input", str(path), "--model", "saturated",
                     "--output", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("fit error:")

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.floats(min_value=-300.0, max_value=300.0),
                 min_size=8, max_size=8),
        st.sampled_from(["two-way", "saturated"]),
    )
    def test_positive_tables_exit_0_or_2(self, exponents, model):
        counts = tuple(10.0 ** e for e in exponents)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.csv"
            path.write_text(_counts_csv(counts))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(["effects", "--input", str(path), "--model",
                             model])
        assert code in (0, 2), err.getvalue()


class TestTestCommand:
    def test_null_table_p_near_one(self, tmp_path, capsys):
        y, xy = 0.5, 1.8
        nc = NoCausalParams(
            eta=1000.0, x=1.3, z=0.7, y=y, xz=1.4, xy=xy,
            zy=y ** -2 * xy ** -1,
        )
        path = tmp_path / "null.csv"
        path.write_text(serialize_table(nc.as_table(), "csv"))
        assert main(["test", "--input", str(path), "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["additive_zero_test"]["p"] == pytest.approx(1.0, abs=1e-6)

    def test_generic_table_finite_z(self, table5_csv, capsys):
        assert main(["test", "--input", table5_csv, "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert 0.0 < doc["additive_zero_test"]["p"] < 1.0

    def test_fits_the_two_way_model_once(self, table5_csv, monkeypatch):
        import loglin_effects.causal
        import loglin_effects.fitting

        # every two-way fit, fit_poisson's or fit_causal's, is one
        # _two_way_mle call
        calls = []
        real = loglin_effects.fitting._two_way_mle

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        for module in (loglin_effects.fitting, loglin_effects.causal):
            monkeypatch.setattr(module, "_two_way_mle", counting)
        assert main(["test", "--input", table5_csv]) == 0
        assert len(calls) == 1

    def test_runs_the_z_test_once(self, table5_csv, monkeypatch, capsys):
        import loglin_effects.cli
        import loglin_effects.inference

        calls = []
        real = loglin_effects.inference.additive_zero_test

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        # a z-test run by ``cmd_test`` or inside ``linearity_bonds`` counts
        for module in (loglin_effects.cli, loglin_effects.inference):
            monkeypatch.setattr(module, "additive_zero_test", counting)
        assert main(["test", "--input", table5_csv, "--output", "json"]) == 0
        assert len(calls) == 1
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["linearity"]) == {"bond1_residual", "bond2_residual"}
        assert (doc["linearity"]["bond1_residual"]
                == doc["additive_zero_test"]["beta_hat"])

    def test_saturated_request_rejected(self, table5_csv, capsys):
        assert main(
            ["test", "--input", table5_csv, "--model", "saturated"]
        ) == 2
        assert "two-way" in capsys.readouterr().err


class TestOracleCommand:
    def test_runs_on_raw_table(self, table5_csv, capsys):
        assert main(
            ["oracle", "--input", table5_csv, "--output", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["source"] == "oracle"
        assert doc["TE"] == pytest.approx(2.4008, abs=5e-3)


class TestJsonInput:
    def test_json_format_by_extension(self, tmp_path, capsys):
        t = ContingencyTable((10.0,) * 8)
        path = tmp_path / "t.json"
        path.write_text(serialize_table(t, "json"))
        assert main(["oracle", "--input", str(path), "--output", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["TE"] == pytest.approx(1.0)


class TestZeroCellsOption:
    @pytest.mark.parametrize(
        "policy", ["correctfoo", "correct0.5", "error:1", "allow:", "Correct"]
    )
    def test_unknown_policy_exits_1(self, uniform_csv, policy, capsys):
        argv = ["fit", "--input", uniform_csv, "--zero-cells", policy]
        assert main(argv) == 1
        assert "zero-cell policy" in capsys.readouterr().err

    def test_malformed_correction_exits_1(self, zero_cell_csv):
        assert main(
            ["fit", "--input", zero_cell_csv, "--zero-cells", "correct:abc"]
        ) == 1

    @pytest.mark.parametrize(
        "policy", ["error", "allow", "correct", "correct:2"]
    )
    def test_known_policies_accepted(self, uniform_csv, policy):
        argv = ["fit", "--input", uniform_csv, "--zero-cells", policy]
        assert main(argv) == 0

    @pytest.mark.parametrize(
        "amount", ["-5", "0", "nan", "inf", "-inf", "abc", ""]
    )
    def test_bad_correction_amount_exits_1_on_any_table(
        self, uniform_csv, amount, capsys
    ):
        argv = ["effects", "--input", uniform_csv,
                "--zero-cells", f"correct:{amount}"]
        assert main(argv) == 1
        assert "correction" in capsys.readouterr().err


class TestMalformedInput:
    @pytest.mark.parametrize(
        "doc",
        [
            '{"cells": 5}',
            '{"cells": [1,2,3,4,5,6,7,8], "labels": 7}',
            '{"cells": [1,2,3,4,5,6,7,8], "labels": "abc"}',
        ],
    )
    def test_json_shape_exits_1(self, tmp_path, doc, capsys):
        path = tmp_path / "t.json"
        path.write_text(doc)
        assert main(["effects", "--input", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["effects", "oracle", "fit", "test"])
    def test_overflowing_total_exits_1(self, tmp_path, command, capsys):
        path = tmp_path / "t.json"
        path.write_text('{"cells": [1e308,1e308,1,1,1,1,1,1]}')
        assert main([command, "--input", str(path)]) == 1
        assert "total" in capsys.readouterr().err


_FUZZ_COMMANDS = (
    ["effects", "--verify"],
    ["effects", "--model", "saturated", "--zero-cells", "correct"],
    ["test", "--zero-cells", "allow"],
    ["fit", "--output", "json"],
    ["oracle"],
)


def _counts_csv(counts):
    return "x,z,y,count\n" + "".join(
        f"{x},{z},{y},{c!r}\n" for (x, z, y), c in zip(CELLS, counts)
    )


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.binary(),
        st.text(),
        st.lists(
            st.floats(min_value=0.0, max_value=1.7e308), min_size=8, max_size=8
        ).map(_counts_csv),
    ),
    st.sampled_from(["csv", "json"]),
    st.sampled_from(_FUZZ_COMMANDS),
)
@example('{"cells": 5}', "json", ["effects"])
@example('{"cells": [1,2,3,4,5,6,7,8], "labels": 7}', "json", ["fit"])
@example('{"cells": [1,2,3,4,5,6,7,8], "labels": "abc"}', "json", ["oracle"])
@example('{"cells": [1e308,1e308,1,1,1,1,1,1]}', "json", ["effects"])
@example('{"cells": [1e308,1e308,1,1,1,1,1,1]}', "json", ["oracle"])
@example('{"cells": [1%s,1,1,1,1,1,1,1]}' % ("0" * 400), "json", ["fit"])
@example("[" * 100000, "json", ["effects"])
@example(b"\xff\xfe", "csv", ["oracle"])
@example("\r0", "csv", ["effects"])
@example(_counts_csv((5, 0, 7, 0, 3, 4, 6, 8)), "csv",
         ["effects", "--zero-cells", "allow"])
@example(_counts_csv((1e-300,) * 8), "csv", ["test"])
@example(_counts_csv((1, 1.0354286453990213e307, 1, 1, 3.909535518583441e16,
                      1, 1, 1)), "csv", ["oracle"])
@example(_counts_csv((1.413206146113962e-101, 1.2888925180744533e-107,
                      4.1098455412908226e71, 4.10984554129082e71,
                      7.669454141975074e94, 1.0, 1.0, 7.459106318111507e127)),
         "csv", ["effects", "--verify"])
def test_main_returns_only_documented_codes(content, fmt, command):
    # arbitrary file contents end in an exit code, never a traceback
    data = content.encode() if isinstance(content, str) else content
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"table.{fmt}"
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*command, "--input", str(path)])
    assert code in (0, 1, 2, 3)
