"""Command-line interface over table files.

Subcommands, each computing only what it prints.  Every command that fits
reads one ``fit_poisson`` fit (``_fit``), whose deviance, parameters and
covariance are computed only where they are read:

- ``fit``: the loglinear parameters and deviance, in JSON the covariance,
  and the causal parameters;
- ``effects``: the odds-ratio effect report from the causal parameters,
  and with ``--verify`` the largest scaled discrepancy from the
  probability-space oracle on the fitted counts, which no causal parameter
  has touched, so it checks the causal layer too;
- ``test``: the additive-interaction z-test and the linearity bonds;
- ``oracle``: the probability-space effects straight from the table.

Each command's options are declared once, as data (``_COMMANDS`` and
``_ARGUMENTS``).  A plain command line is parsed from that table alone;
``argparse`` is imported, and ``build_parser`` builds its parser from the
same table, only for any other line (help, version, a usage error, ...).

Exit codes: 0 success, 1 input error, 2 fit/computation failure,
3 verification failure.  A usage error (an unknown option, a bad or
missing value) also exits with 2: argparse raises ``SystemExit(2)`` after
printing the usage, so 2 alone does not tell it from a computation failure.
JSON mode emits exactly one document on stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from . import __version__
from .causal import CausalModelError, _causal_params, _xz_margins
from .effects import DegenerateProbabilityError, effects_report
from .fitting import FitError, fit_poisson, saturated_spec, two_way_spec
from .inference import TestError, additive_zero_test, linearity_bonds
from .oracle import OracleError, oracle_effects
from .tables import (
    ContingencyTable,
    TableError,
    joint_probabilities,
    parse_table,
    validate,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FIT = 2
EXIT_VERIFY = 3

#: largest scaled engine-oracle discrepancy that ``--verify`` accepts
VERIFY_TOL = 1e-8


def build_parser():
    """The ``argparse`` parser of every command line, built from
    ``_COMMANDS``: ``main`` builds it only for a line that is not plain."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="loglin-effects",
        description="Causal odds-ratio effects for 2x2x2 contingency tables.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help)
        for option in options:
            p.add_argument(option, **_ARGUMENTS[option])
    return parser


def _load_table(args):
    fmt = args.format
    if fmt is None:
        ext = os.path.splitext(args.input)[1]
        fmt = "json" if ext.lower() == ".json" else "csv"
    # unbuffered: the file is read whole by one ``read``
    with open(args.input, "rb", buffering=0) as f:
        data = f.read()
    table = parse_table(data, fmt)

    policy, sep, amount = args.zero_cells.partition(":")
    if sep and policy != "correct":
        raise TableError(f"unknown zero-cell policy {args.zero_cells!r}")
    correction = 0.5
    if sep:
        try:
            correction = float(amount)
        except ValueError:
            raise TableError(f"malformed correction amount in --zero-cells "
                             f"{args.zero_cells!r}") from None
    return validate(table, policy=policy, correction=correction)


#: the encoder of every JSON document, built once: ``json.dumps`` with
#: these options builds a new one on each call
_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _print_json(doc: dict):
    print(_JSON.encode(doc))


def _param_lines(title, mapping):
    return [title, *(f"  {k:<6} {v:.6g}" for k, v in mapping.items())]


def _num(v) -> str:
    """``v`` to four decimals, or in ``e`` notation to four when it is
    nonzero and below 1e-3 or from 1e6 up in magnitude."""
    return f"{v:.4e}" if v and not 1e-3 <= abs(v) < 1e6 else f"{v:.4f}"


def _report_lines(args, source, r):
    return [
        f"direction: X {args.from_level} -> {args.to_level}  ({source})",
        f"TE    {_num(r.te)}",
        f"LDE   z=0: {_num(r.lde[0])}  z=1: {_num(r.lde[1])}",
        f"cell  z=0: {_num(r.cell[0])}  z=1: {_num(r.cell[1])}",
        f"IE    {_num(r.ie)}   IE(reverse) {_num(r.ie_reverse)}",
        f"NDE   {_num(r.nde)}",
        f"additive interaction       {_num(r.additive_interaction)}",
        f"multiplicative interaction {_num(r.multiplicative_interaction)}",
    ]


def _fit(table, model) -> tuple:
    """The loglinear fit of ``table`` under ``model``, a ``FitResult``, and
    then the causal parameters of the fit's Y-block on the table's XZ
    margins: the one fit of every command that fits.  It fits first, so a
    fit error comes before a zero margin."""
    saturated = model == "saturated"
    fit = fit_poisson(table, saturated_spec() if saturated else two_way_spec())
    return fit, _causal_params(_xz_margins(table.counts), *fit.y_block,
                               saturated)


def cmd_fit(args) -> int:
    fit, cp = _fit(_load_table(args), args.model)

    if args.output == "json":
        # only the JSON document holds the covariance
        _print_json({"model": args.model, "loglinear": fit.to_dict(),
                     "causal": cp.to_dict()})
        return EXIT_OK
    lines = []
    # the loglinear blocks print in sorted term order: X, XY, ..., eta
    terms = sorted(fit.spec.ordered_terms)
    params = fit.params
    for kind, values in (("multiplicative", params.multiplicative),
                         ("additive", params.additive)):
        lines += _param_lines(f"loglinear parameters ({kind}):",
                              {t: values[t] for t in terms})
    # the seven multiplicative fields of ``cp``, in its order
    lines += _param_lines("causal parameters (multiplicative):", dict(zip(
        ("Xc", "Zc", "XZc", "Y", "XY", "ZY", "XZY"), cp)))
    lines.append(
        f"deviance {fit._deviance():.6g}  iterations {fit.iterations}  "
        "converged True"
    )
    print(*lines, sep="\n")
    return EXIT_OK


def cmd_effects(args) -> int:
    table = _load_table(args)
    if args.from_level == args.to_level:
        raise TableError("--from and --to must differ")
    fit, cp = _fit(table, args.model)
    report = effects_report(cp, args.from_level, args.to_level)

    discrepancy = None
    if args.verify:
        # the oracle reads the fitted counts, not ``cp``: the fit returns
        # them positive and finite, and the oracle checks every slice and
        # effect itself
        ora = oracle_effects(tuple.__new__(ContingencyTable,
                                           (fit.fitted_counts, None)),
                             args.from_level, args.to_level)
        te, (lde0, lde1), (cell0, cell1), ie, ie_rev, nde, add, mult = (
            report[:8])
        (o_te, (o_lde0, o_lde1), (o_cell0, o_cell1), o_ie, o_ie_rev, o_nde,
         o_add, o_mult) = ora[:8]
        # the additive interaction absolutely, each ratio effect relative to
        # max(1, |oracle value|), in this order
        discrepancy = max(
            abs(add - o_add),
            abs(te - o_te) / max(1.0, abs(o_te)),
            abs(ie - o_ie) / max(1.0, abs(o_ie)),
            abs(ie_rev - o_ie_rev) / max(1.0, abs(o_ie_rev)),
            abs(nde - o_nde) / max(1.0, abs(o_nde)),
            abs(mult - o_mult) / max(1.0, abs(o_mult)),
            abs(lde0 - o_lde0) / max(1.0, abs(o_lde0)),
            abs(lde1 - o_lde1) / max(1.0, abs(o_lde1)),
            abs(cell0 - o_cell0) / max(1.0, abs(o_cell0)),
            abs(cell1 - o_cell1) / max(1.0, abs(o_cell1)),
        )
        print(f"oracle max discrepancy: {discrepancy:.3e}", file=sys.stderr)

    # each output is built only when it is the one asked for
    if args.output == "json":
        doc = report.to_dict()
        if discrepancy is not None:
            doc["verify_max_discrepancy"] = discrepancy
        _print_json(doc)
    else:
        print(*_report_lines(args, f"model {args.model}", report), sep="\n")
    if discrepancy is not None and discrepancy > VERIFY_TOL:
        print("oracle verification failed", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_test(args) -> int:
    table = _load_table(args)
    if args.model != "two-way":
        raise TestError("test defined for two-way model")
    # a fit error, then a causal parameter out of range, then the z-test's
    # ``TestError``: after a fit no XZ margin is zero
    fit, cp = _fit(table, args.model)
    result = additive_zero_test(fit)
    bonds = linearity_bonds(cp)

    if args.output == "json":
        _print_json({
            "additive_zero_test": result.to_dict(),
            "linearity": bonds.to_dict(),
        })
        return EXIT_OK
    print(
        f"H0: {result.combination}",
        f"beta_hat {_num(result.beta_hat)}  se {_num(result.se)}  "
        f"z {_num(result.z)}  p {_num(result.p_two_sided)}",
        f"linearity bond 1 residual {_num(bonds.bond1_residual)}",
        f"linearity bond 2 residual {_num(bonds.bond2_residual)}",
        sep="\n",
    )
    return EXIT_OK


def cmd_oracle(args) -> int:
    table = _load_table(args)
    if args.from_level == args.to_level:
        raise TableError("--from and --to must differ")
    joint = joint_probabilities(table)
    report = oracle_effects(joint, args.from_level, args.to_level)
    if args.output == "json":
        _print_json(report.to_dict())
    else:
        print(*_report_lines(args, "oracle", report), sep="\n")
    return EXIT_OK


#: every option, as the keyword arguments of its ``add_argument``
_ARGUMENTS = {
    "--input": {"required": True, "help": "table file path"},
    "--format": {"choices": ("csv", "json"), "default": None,
                 "help": "input format (default: by file extension)"},
    "--zero-cells": {"default": "error", "metavar": "error|allow|correct[:C]",
                     "help": "zero-cell policy (default: error)"},
    "--output": {"choices": ("text", "json"), "default": "text"},
    "--model": {"choices": ("two-way", "saturated"), "default": "two-way"},
    "--from": {"dest": "from_level", "type": int, "choices": (0, 1),
               "default": 0},
    "--to": {"dest": "to_level", "type": int, "choices": (0, 1), "default": 1},
    "--verify": {"action": "store_true",
                 "help": "cross-check against the probability-space oracle"},
}

_COMMON = ("--input", "--format", "--zero-cells", "--output")

#: each command's function, help and options, in the order ``build_parser``
#: adds them: the one option table of both parsers
_COMMANDS = {
    "fit": (cmd_fit, "fit loglinear and causal parameters",
            (*_COMMON, "--model")),
    "effects": (cmd_effects, "compute the effect report",
                (*_COMMON, "--model", "--from", "--to", "--verify")),
    "test": (cmd_test, "additive-interaction z-test", (*_COMMON, "--model")),
    "oracle": (cmd_oracle, "probability-space effects directly from the table",
               (*_COMMON, "--from", "--to")),
}


def _plain_form(options) -> tuple:
    """A command's options as argparse reads ``_ARGUMENTS``: ``(dest, flag,
    type, choices)`` by option string, the required dests, the defaults."""
    table, required, defaults = {}, [], {}
    for option in options:
        kwargs = _ARGUMENTS[option]
        dest = kwargs.get("dest", option[2:].replace("-", "_"))
        flag = kwargs.get("action") == "store_true"
        table[option] = dest, flag, kwargs.get("type"), kwargs.get("choices")
        if kwargs.get("required"):
            required.append(dest)
        else:
            defaults[dest] = False if flag else kwargs.get("default")
    return table, required, defaults


#: each command's ``_plain_form``, by name
_PLAIN = {name: _plain_form(options)
          for name, (_, _, options) in _COMMANDS.items()}


def _parse_plain(argv):
    """The options ``build_parser().parse_args(argv)`` returns for a plain
    command line, in one pass over the command's ``_plain_form``; ``None``
    for any other line.

    A plain line is a command, then tokens each of which is a whole option
    string of that command (no abbreviation, no ``--opt=value``): a
    ``store_true`` flag, or a one-value option followed by a value that is
    non-empty, does not start with ``-`` and passes the option's ``type``
    and ``choices``.  Every required option is present.  argparse reads
    each such value as the option's argument, and the last of a repeated
    option wins, as here.  Nothing is printed or raised.
    """
    form = _PLAIN.get(argv[0]) if argv else None
    if form is None:
        return None
    table, required, defaults = form
    values, tokens = {}, iter(argv[1:])
    for token in tokens:
        entry = table.get(token)
        if entry is None:
            return None
        dest, flag, convert, choices = entry
        if flag:
            values[dest] = True
            continue
        value = next(tokens, "")
        if not value or value[0] == "-":
            return None
        if convert is not None:
            try:
                value = convert(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    if not all(dest in values for dest in required):
        return None
    return SimpleNamespace(subcommand=argv[0], **{**defaults, **values})


def _parse_args(argv):
    """``build_parser().parse_args(argv)``, by one of two routes.

    A plain line (``_parse_plain``) never reaches argparse.  Any other line
    (an abbreviation, ``--opt=value``, help, version, a bad or missing
    value, an unknown token) goes to a parser built for it, so help,
    version, usage and every error come from argparse.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    return _parse_plain(argv) or build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        return _COMMANDS[args.subcommand][0](args)
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except (CausalModelError, DegenerateProbabilityError, OracleError,
            TestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
