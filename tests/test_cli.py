import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loglin_effects import CELLS, NoCausalParams, serialize_table
from loglin_effects.cli import _num, main
from conftest import (DECLARED_VERSION, DEVIANCE_OVERFLOW, FAR_SATURATED,
                      FAR_TWO_WAY, TABLE5)
from loglin_effects.causal import conditional_probabilities
from loglin_effects.fitting import fit_poisson, saturated_spec, two_way_spec
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
    def test_each_line_that_is_not_plain_builds_one_parser(
            self, uniform_csv, monkeypatch, capsys):
        import loglin_effects.cli as cli

        calls = []
        real = cli.build_parser

        def counting():
            calls.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting)
        # no plain line builds a parser
        for command in ("fit", "effects", "test"):
            assert main([command, "--input", uniform_csv]) == 0
        assert calls == []
        # each line that is not plain builds exactly one
        assert main(["fit", "--input=" + uniform_csv]) == 0
        assert len(calls) == 1
        assert main(["effects", "--inp", uniform_csv]) == 0
        assert len(calls) == 2
        with pytest.raises(SystemExit):
            main(["test", "-h"])
        assert len(calls) == 3
        for command in ("fit", "effects", "test"):
            assert main([command, "--input", uniform_csv]) == 0
        assert len(calls) == 3

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
    # plain lines that, with those above, give each option of each command
    ["fit", "--format", "csv", "--zero-cells", "correct", "--model",
     "saturated", "--input", "t.csv"],
    ["effects", "--input", "t.csv", "--output", "json", "--to", "0"],
    ["test", "--input", "t.json", "--format", "json", "--model", "two-way"],
    ["oracle", "--input", "t.csv", "--format", "csv", "--zero-cells",
     "allow", "--output", "json", "--from", "1", "--to", "0"],
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
    # main parses a plain command line from the option table alone, and
    # must act as the full parser does

    @pytest.mark.parametrize("argv", _PARSE_CORPUS, ids=" ".join)
    def test_corpus_parses_as_the_full_parser(self, argv):
        import loglin_effects.cli as cli

        full = cli.build_parser().parse_args
        assert (_parse_outcome(cli._parse_args, argv)
                == _parse_outcome(full, argv))

    def test_corpus_gives_every_option_in_a_plain_line(self):
        import loglin_effects.cli as cli

        plain = {(argv[0], token) for argv in _PARSE_CORPUS
                 if cli._parse_plain(argv) is not None for token in argv}
        for name, (_, _, options) in cli._COMMANDS.items():
            for option in options:
                assert (name, option) in plain

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(_PARSE_TOKENS), max_size=8))
    def test_drawn_command_lines_parse_as_the_full_parser(self, argv):
        import loglin_effects.cli as cli

        full = cli.build_parser().parse_args
        assert (_parse_outcome(cli._parse_args, argv)
                == _parse_outcome(full, argv))

    def test_only_lines_that_are_not_plain_reach_the_full_parser(
            self, uniform_csv, monkeypatch, capsys):
        import loglin_effects.cli as cli

        calls = []
        real = cli.build_parser

        def building():
            parser = real()
            parse = parser.parse_args

            def counting(*args, **kwargs):
                calls.append(1)
                return parse(*args, **kwargs)

            parser.parse_args = counting
            return parser

        monkeypatch.setattr(cli, "build_parser", building)
        for argv in (["fit", "--input", uniform_csv, "--output", "json"],
                     ["effects", "--verify", "--input", uniform_csv]):
            assert main(argv) == 0
        assert calls == []
        # an abbreviation and ``--opt=value`` reach the full parser, once
        for argv in (["test", "--input=" + uniform_csv],
                     ["oracle", "--inp", uniform_csv, "--from", "1",
                      "--to", "0"]):
            calls.clear()
            assert main(argv) == 0
            assert calls == [1]
        capsys.readouterr()
        # so does a leftover token, which it reports
        calls.clear()
        with pytest.raises(SystemExit):
            main(["fit", "--input", uniform_csv, "--bogus"])
        assert calls == [1]
        assert capsys.readouterr().err.startswith(
            "usage: loglin-effects [-h] [--version] "
            "{fit,effects,test,oracle} ...\n"
        )

    def test_plain_lines_skip_argparse(self, monkeypatch, capsys):
        import argparse

        import loglin_effects.cli as cli

        calls = []
        parse = argparse.ArgumentParser.parse_known_args

        def counting(self, *args, **kwargs):
            calls.append(self.prog)
            return parse(self, *args, **kwargs)

        # every parse of every argparse parser, the command parsers too
        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                            counting)
        full = []
        real = cli.build_parser

        def building():
            full.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", building)
        common = ["--input", "t.csv", "--zero-cells", "correct:0.5",
                  "--output", "json"]
        for argv in (["effects", *common, "--verify"], ["test", *common],
                     ["fit", *common],
                     ["effects", "--input", "t.csv", "--from", "1",
                      "--to", "0"]):
            cli._parse_args(argv)
        assert calls == [] and full == []
        # an abbreviation, ``--opt=value`` and help go to one full parser
        for argv in (["fit", "--inp", "t.csv"], ["fit", "--input=t.csv"],
                     ["fit", "-h"]):
            calls.clear()
            full.clear()
            with contextlib.suppress(SystemExit):
                cli._parse_args(argv)
            assert full == [1]
            assert calls.count("loglin-effects") == 1
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


README_COUNTS = (42, 18, 25, 31, 17, 23, 12, 48)

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "cli_golden_readme.json").read_text()
)


def _old_discrepancy(report, ora):
    """The ``--verify`` discrepancy as the command once formed it: the
    additive interaction absolutely, then each ratio effect by name,
    relative to max(1, |oracle value|), through one generator."""
    pairs = [(getattr(report, f), getattr(ora, f))
             for f in ("te", "ie", "ie_reverse", "nde",
                       "multiplicative_interaction")]
    pairs += [(report.lde[z], ora.lde[z]) for z in (0, 1)]
    pairs += [(report.cell[z], ora.cell[z]) for z in (0, 1)]
    return max(
        abs(report.additive_interaction - ora.additive_interaction),
        *(abs(a - b) / max(1.0, abs(b)) for a, b in pairs),
    )


class TestEffectsReadsTheSolve:
    """``effects`` and ``test`` read one ``fit_poisson`` fit, as ``fit``
    does, and ``oracle`` fits nothing.  ``--verify`` checks the effects
    against the oracle on the fit's fitted counts."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("case", [
        c for c in GOLDEN if c["argv"][0] in ("effects", "test", "oracle")
    ], ids=lambda c: " ".join(c["argv"]))
    def test_goldens_print_with_one_fit_poisson_per_fitting_command(
            self, case, fmt, tmp_path, monkeypatch, capsys):
        import loglin_effects.cli as cli

        calls = []
        real = cli.fit_poisson

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "fit_poisson", counting)
        path = tmp_path / f"readme.{fmt}"
        path.write_text(serialize_table(ContingencyTable(README_COUNTS), fmt))
        code = main([*case["argv"], "--input", str(path)])
        out, err = capsys.readouterr()
        assert (code, out, err) == (case["code"], case["stdout"],
                                    case["stderr"])
        assert len(calls) == (0 if case["argv"][0] == "oracle" else 1)

    @pytest.mark.parametrize("argv", [
        ["fit"], ["fit", "--model", "saturated", "--output", "json"],
    ])
    def test_fit_calls_fit_poisson_once(self, argv, table5_csv, monkeypatch,
                                        capsys):
        import loglin_effects.cli as cli

        calls = []
        real = cli.fit_poisson

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "fit_poisson", counting)
        assert main([*argv, "--input", table5_csv]) == 0
        assert len(calls) == 1

    @settings(max_examples=150, deadline=None)
    @given(
        # count exponents: each uniform on +-300, where most tables end in
        # a typed error, or a spread of +-10 about a centre in +-290
        st.one_of(
            st.lists(st.floats(-300.0, 300.0), min_size=8, max_size=8),
            st.tuples(
                st.floats(-290.0, 290.0),
                st.lists(st.floats(-10.0, 10.0), min_size=8, max_size=8),
            ).map(lambda t: [t[0] + e for e in t[1]]),
        ),
        st.sampled_from(["two-way", "saturated"]),
        st.sampled_from([(0, 1), (1, 0)]),
    )
    @example([0.0] * 8, "two-way", (0, 1))
    @example([float(math.log10(c)) for c in README_COUNTS], "saturated",
             (1, 0))
    def test_discrepancy_is_the_old_formula_bit_for_bit(
            self, exponents, model, direction):
        import loglin_effects.cli as cli
        from loglin_effects import effects_report, oracle_effects

        counts = tuple(10.0 ** e for e in exponents)
        x, xp = direction
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.csv"
            path.write_text(_counts_csv(counts))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(["effects", "--input", str(path), "--verify",
                             "--model", model, "--from", str(x), "--to",
                             str(xp), "--output", "json"])
        if code not in (0, 3):
            # a typed error, before any discrepancy
            assert code == 2 and out.getvalue() == "", err.getvalue()
            return
        table = ContingencyTable(counts)
        cp = cli._fit(table, model)[1]
        report = effects_report(cp, x, xp)
        fitted = fit_poisson(table, saturated_spec() if model == "saturated"
                             else two_way_spec()).fitted_counts
        ora = oracle_effects(ContingencyTable(fitted), x, xp)
        got = json.loads(out.getvalue())["verify_max_discrepancy"]
        assert got.hex() == _old_discrepancy(report, ora).hex()

    @pytest.mark.parametrize("output", ["text", "json"])
    @pytest.mark.parametrize("model", ["two-way", "saturated"])
    def test_verify_catches_a_causal_parameter_off_by_1e6(
            self, model, output, tmp_path, monkeypatch, capsys):
        import loglin_effects.cli as cli

        real = cli._causal_params

        def off(m, y, xy, *rest):
            return real(m, y, xy * (1 + 1e-6), *rest)

        monkeypatch.setattr(cli, "_causal_params", off)
        path = tmp_path / "readme.csv"
        path.write_text(_counts_csv(README_COUNTS))
        code = main(["effects", "--input", str(path), "--verify", "--model",
                     model, "--output", output])
        err = capsys.readouterr().err
        assert code == 3
        assert err.endswith("oracle verification failed\n")


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

    def test_subnormal_joint_cell_verifies(self, tmp_path):
        # joint cell (0,0,1) is 6.34e-318, where the oracle is 1.74e-7 off
        # the exact effects; it reads the saturated fitted counts, which are
        # the table's, all normal
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

    def test_underflowing_fit_exits_2(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        t = ContingencyTable((0.0, 5e-324, 1e300, 1e300, 1e300, 1e300,
                              1e300, 1e300))
        path.write_text(serialize_table(t, "csv"))
        assert main(
            ["effects", "--input", str(path), "--zero-cells", "allow"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "a fitted count underflows" in captured.err

    def test_zero_margin_fit_exits_2(self, tmp_path, capsys):
        path = tmp_path / "margin.csv"
        t = ContingencyTable((5, 1, 0, 0, 3, 4, 6, 8))
        path.write_text(serialize_table(t, "csv"))
        assert main(
            ["fit", "--input", str(path), "--zero-cells", "allow"]
        ) == 2
        assert "does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["two-way", "saturated"])
    def test_zero_margin_effects_is_the_fit_error(self, tmp_path, model,
                                                  capsys):
        # effects fits first, as fit and test do, so the fit reports it
        path = tmp_path / "margin.csv"
        path.write_text(_counts_csv((5, 1, 0, 0, 3, 4, 6, 8)))
        assert main(["effects", "--input", str(path), "--zero-cells",
                     "allow", "--model", model]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("fit error: ")
        assert f"the {model} MLE does not exist" in captured.err


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

        # every fit, fit_poisson's or fit_causal's, is one call of the fit
        # core
        calls = []
        real = loglin_effects.fitting._fit

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        for module in (loglin_effects.fitting, loglin_effects.causal):
            monkeypatch.setattr(module, "_fit", counting)
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

        # a z-test run by ``cmd_test`` or by ``linearity_bonds`` counts
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


class TestDirectionLevels:
    @pytest.mark.parametrize("command", ["effects", "oracle"])
    def test_equal_levels_exit_1(self, uniform_csv, command, capsys):
        assert main([command, "--input", uniform_csv, "--from", "1",
                     "--to", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --from and --to must differ\n"


class TestUnprintedParameters:
    """``test`` and ``effects`` print no mu, mu^X, mu^Z or mu^XZ, so one of
    them out of the float range fails ``fit`` alone."""

    def test_test_exits_0(self, tmp_path, capsys):
        path = tmp_path / "far.csv"
        path.write_text(_counts_csv(FAR_TWO_WAY))
        assert main(["test", "--input", str(path), "--output", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["additive_zero_test"]["beta_hat"] == 0.0

    def test_saturated_effects_verify_exits_0(self, tmp_path, capsys):
        path = tmp_path / "far.csv"
        path.write_text(_counts_csv(FAR_SATURATED))
        assert main(["effects", "--model", "saturated", "--verify",
                     "--input", str(path)]) == 0
        assert capsys.readouterr().err.startswith("oracle max discrepancy:")

    @pytest.mark.parametrize("counts, model, name", [
        (FAR_TWO_WAY, "two-way", "x"),
        (FAR_SATURATED, "saturated", "xz"),
    ], ids=["two-way", "saturated"])
    def test_fit_exits_2_on_the_parameter(self, tmp_path, capsys, counts,
                                          model, name):
        path = tmp_path / "far.csv"
        path.write_text(_counts_csv(counts))
        assert main(["fit", "--model", model, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"fit error: multiplicative parameter {name} must be finite and "
            "> 0\n")

    def test_effects_exits_2_on_the_saturated_y_block(self, tmp_path, capsys):
        # the commands read the saturated Y-block unchecked: the causal
        # parameters' check names it
        path = tmp_path / "far.csv"
        path.write_text(_counts_csv((1e-300, 1e300, 1, 1, 1, 1, 1, 1)))
        assert main(["effects", "--model", "saturated",
                     "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: parameter y must be finite and > 0\n"


class TestOverflowedDeviance:
    """``fit`` prints the deviance, so it fails where the deviance leaves the
    float range; ``effects`` and ``test`` do not read it."""

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_fit_exits_2(self, tmp_path, capsys, output):
        path = tmp_path / "overflow.csv"
        path.write_text(_counts_csv(DEVIANCE_OVERFLOW))
        assert main(["fit", "--output", output, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "fit error: the deviance leaves the float range\n")

    @pytest.mark.parametrize("command", ["test", "effects --verify"])
    def test_commands_without_the_deviance_exit_0(self, tmp_path, capsys,
                                                  command):
        path = tmp_path / "overflow.csv"
        path.write_text(_counts_csv(DEVIANCE_OVERFLOW))
        assert main([*command.split(), "--input", str(path)]) == 0
        assert capsys.readouterr().out


class TestTextNumbers:
    """Text output prints a nonzero value below 1e-3 or from 1e6 up in
    magnitude in ``e`` notation, and every other value with four
    decimals."""

    @pytest.mark.parametrize("value, text", [
        (0.0, "0.0000"), (-0.0, "-0.0000"), (1e-3, "0.0010"),
        (-0.0332, "-0.0332"), (999999.0, "999999.0000"),
        (9.99e-4, "9.9900e-04"), (-2e-5, "-2.0000e-05"), (1e6, "1.0000e+06"),
        (2e-100, "2.0000e-100"), (math.inf, "inf"), (math.nan, "nan"),
    ])
    def test_num(self, value, text):
        assert _num(value) == text

    def test_saturated_effects_far_from_1(self, tmp_path, capsys):
        path = tmp_path / "far.csv"
        path.write_text(_counts_csv(FAR_SATURATED))
        assert main(["effects", "--model", "saturated",
                     "--input", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:3] == ["TE    8.0964e-06",
                              "LDE   z=0: 5.8312e+129  z=1: 7.0718e-87"]
        assert lines[-1] == "multiplicative interaction 1.2127e-216"

    def test_test_prints_a_tiny_se(self, tmp_path, capsys):
        path = tmp_path / "far.csv"
        path.write_text(_counts_csv(FAR_TWO_WAY))
        assert main(["test", "--input", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[1] == (
            "beta_hat 0.0000  se 2.0000e-100  z 0.0000  p 1.0000")

    def test_test_prints_a_huge_z(self, tmp_path, capsys):
        path = tmp_path / "far.csv"
        path.write_text(_counts_csv((1e200, 1, 1, 1e200, 2, 3e150, 1e100, 1)))
        assert main(["test", "--input", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[1] == (
            "beta_hat 346.4864  se 1.4142e-50  z 2.4500e+52  p 0.0000")


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

    @pytest.mark.parametrize("policy, counts", [
        ("error", (10.0,) * 8),
        ("allow", (10.0,) * 8),
        ("correct", (10.0,) * 8),
        ("correct:2", (10.0,) * 8),
        # a zero count leaves the cubic no estimate: the two-way solve's
        # first step starts at the midpoint
        ("allow", (0, 5, 3, 7, 2, 4, 6, 1)),
    ], ids=["error", "allow", "correct", "correct:2", "allow-a-zero-count"])
    def test_known_policies_accepted(self, tmp_path, policy, counts, capsys):
        path = tmp_path / "table.csv"
        path.write_text(_counts_csv(counts))
        argv = ["fit", "--input", str(path), "--zero-cells", policy]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

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


@pytest.mark.parametrize("argv, counts, code, first_line", [
    (["--version"], None, 0, DECLARED_VERSION),
    (["fit", "--bogus"], README_COUNTS, 2,
     "usage: loglin-effects [-h] [--version] {fit,effects,test,oracle} ..."),
    (["effects"], (42, 18, 25, -31, 17, 23, 12, 48), 1,
     "error: negative count '-31'"),
    (["fit"], FAR_TWO_WAY, 2,
     "fit error: multiplicative parameter x must be finite and > 0"),
], ids=["version", "unknown-option", "negative-count", "unprinted-parameter"])
def test_module_run_exits_with_the_code_of_main(tmp_path, argv, counts, code,
                                                first_line):
    # ``python -m loglin_effects.cli`` in a fresh interpreter: the exit code
    # is main's, and the first line printed is main's, on stdout or stderr
    if counts is not None:
        path = tmp_path / "table.csv"
        path.write_text(_counts_csv(counts))
        argv = [*argv, "--input", str(path)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "loglin_effects.cli", *argv], env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    assert (proc.stdout + proc.stderr).splitlines()[0] == first_line
