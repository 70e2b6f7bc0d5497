"""Command-line interface over table files.

Subcommands: ``fit`` (loglinear + causal parameters), ``effects`` (full
odds-ratio effect report, optionally oracle-verified), ``test``
(additive-interaction z-test and linearity bonds), and ``oracle``
(probability-space effects straight from the table).

Exit codes: 0 success, 1 input error, 2 fit/computation failure,
3 verification failure.  A usage error (an unknown option, a bad or
missing value) also exits with 2: argparse raises ``SystemExit(2)`` after
printing the usage, so 2 alone does not tell it from a computation failure.
JSON mode emits exactly one document on stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from .causal import (
    CausalModelError,
    _causal_params,
    _xz_margins,
    conditional_probabilities,
    fit_causal,
)
from .effects import DegenerateProbabilityError, effects_report
from .fitting import FitError, fit_poisson, saturated_spec, two_way_spec
from .inference import TestError, additive_zero_test, linearity_bonds
from .oracle import OracleError, oracle_effects
from .tables import TableError, joint_probabilities, parse_table, validate

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FIT = 2
EXIT_VERIFY = 3

#: odds-ratio effects, checked against the oracle relative to max(1, |value|)
_RATIO_FIELDS = ("te", "ie", "ie_reverse", "nde", "multiplicative_interaction")

#: largest scaled engine-oracle discrepancy that ``--verify`` accepts
VERIFY_TOL = 1e-8


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loglin-effects",
        description="Causal odds-ratio effects for 2x2x2 contingency tables.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # each command's actions by option string, as ``add_argument`` returns
    # them: the option table ``_parse_plain`` parses a plain line by, which
    # holds only ``store`` and ``store_true`` actions
    parser.options = {}

    def add_command(name, help, model=True, direction=False):
        """Add a command and its options; return the function that adds one
        more option to it."""
        p = sub.add_parser(name, help=help)
        options = parser.options[name] = {}

        def add(option, **kwargs):
            options[option] = p.add_argument(option, **kwargs)

        add("--input", required=True, help="table file path")
        add(
            "--format", choices=("csv", "json"), default=None,
            help="input format (default: by file extension)",
        )
        add(
            "--zero-cells", default="error", metavar="error|allow|correct[:C]",
            help="zero-cell policy (default: error)",
        )
        add(
            "--output", choices=("text", "json"), default="text",
        )
        if model:
            add(
                "--model", choices=("two-way", "saturated"), default="two-way",
            )
        if direction:
            add(
                "--from", dest="from_level", type=int, choices=(0, 1), default=0,
            )
            add(
                "--to", dest="to_level", type=int, choices=(0, 1), default=1,
            )
        return add

    add_command("fit", "fit loglinear and causal parameters")

    add_effects = add_command("effects", "compute the effect report",
                              direction=True)
    add_effects(
        "--verify", action="store_true",
        help="cross-check against the probability-space oracle",
    )

    add_command("test", "additive-interaction z-test")

    add_command("oracle", "probability-space effects directly from the table",
                model=False, direction=True)

    # each command's own parser, by name: ``main`` parses a command line
    # that starts with a command by that parser alone
    parser.commands = sub.choices
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process: it depends on no
    input, parsing does not change it, and it looks up ``sys.stdout`` and
    ``sys.stderr`` only when it prints."""
    return build_parser()


def _load_table(args):
    fmt = args.format
    if fmt is None:
        ext = os.path.splitext(args.input)[1]
        fmt = "json" if ext.lower() == ".json" else "csv"
    with open(args.input, "rb") as f:
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


def _print_json(doc: dict):
    print(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def _param_lines(title, mapping):
    return [title, *(f"  {k:<6} {v:.6g}" for k, v in mapping.items())]


def _report_lines(args, source, report):
    return [
        f"direction: X {args.from_level} -> {args.to_level}  ({source})",
        f"TE    {report.te:.4f}",
        f"LDE   z=0: {report.lde[0]:.4f}  z=1: {report.lde[1]:.4f}",
        f"cell  z=0: {report.cell[0]:.4f}  z=1: {report.cell[1]:.4f}",
        f"IE    {report.ie:.4f}   IE(reverse) {report.ie_reverse:.4f}",
        f"NDE   {report.nde:.4f}",
        f"additive interaction       {report.additive_interaction:.4f}",
        f"multiplicative interaction {report.multiplicative_interaction:.4f}",
    ]


def cmd_fit(args) -> int:
    table = _load_table(args)
    spec = saturated_spec() if args.model == "saturated" else two_way_spec()
    fit = fit_poisson(table, spec)
    p = fit.params
    cp = _causal_params(_xz_margins(table.counts), p.y, p.xy, p.zy, p.xzy,
                        spec.with_three_way)

    if args.output == "json":
        # only the JSON document holds the covariance, computed on first use
        _print_json({"model": args.model, "loglinear": fit.to_dict(),
                     "causal": cp.to_dict()})
        return EXIT_OK
    lines = []
    # the loglinear blocks print in sorted term order: X, XY, ..., eta
    terms = sorted(spec.ordered_terms)
    for kind, values in (("multiplicative", fit.params.multiplicative),
                         ("additive", fit.params.additive)):
        lines += _param_lines(f"loglinear parameters ({kind}):",
                              {t: values[t] for t in terms})
    causal = cp.to_dict()
    causal_mult = {k: causal[k]
                   for k in ("Xc", "Zc", "XZc", "Y", "XY", "ZY", "XZY")}
    lines += _param_lines("causal parameters (multiplicative):", causal_mult)
    lines.append(
        f"deviance {fit.deviance:.6g}  iterations {fit.iterations}  "
        "converged True"
    )
    print(*lines, sep="\n")
    return EXIT_OK


def cmd_effects(args) -> int:
    table = _load_table(args)
    if args.from_level == args.to_level:
        raise TableError("--from and --to must differ")
    cp = fit_causal(table, with_interaction=(args.model == "saturated"))
    report = effects_report(cp, args.from_level, args.to_level)

    discrepancy = None
    if args.verify:
        joint = conditional_probabilities(cp).joint()
        ora = oracle_effects(joint, args.from_level, args.to_level)
        pairs = [(getattr(report, f), getattr(ora, f)) for f in _RATIO_FIELDS]
        pairs += [(report.lde[z], ora.lde[z]) for z in (0, 1)]
        pairs += [(report.cell[z], ora.cell[z]) for z in (0, 1)]
        discrepancy = max(
            abs(report.additive_interaction - ora.additive_interaction),
            *(abs(a - b) / max(1.0, abs(b)) for a, b in pairs),
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
    fit = fit_poisson(table, two_way_spec())
    p = fit.params
    cp = _causal_params(_xz_margins(table.counts), p.y, p.xy, p.zy)
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
        f"beta_hat {result.beta_hat:.4f}  se {result.se:.4f}  "
        f"z {result.z:.4f}  p {result.p_two_sided:.4f}",
        f"linearity bond 1 residual {bonds.bond1_residual:.4f}",
        f"linearity bond 2 residual {bonds.bond2_residual:.4f}",
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


_COMMANDS = {
    "fit": cmd_fit,
    "effects": cmd_effects,
    "test": cmd_test,
    "oracle": cmd_oracle,
}


def _parse_plain(parser, argv):
    """The namespace ``parser.parse_args(argv)`` returns for a plain command
    line, in one pass over the command's option table; ``None`` for any
    other line.

    A plain line is a command, then tokens each of which is a whole option
    string of that command (no abbreviation, no ``--opt=value``): a
    ``store_true`` flag, or a one-value option followed by a value that is
    non-empty, does not start with ``-`` and passes the option's ``type``
    and ``choices``.  Every required option is present.  argparse reads
    each such value as the option's argument, and the last of a repeated
    option wins, as here.  Nothing is printed or raised.
    """
    options = parser.options.get(argv[0]) if argv else None
    if options is None:
        return None
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        action = options.get(token)
        if action is None:
            return None
        if action.nargs == 0:  # store_true
            values[action.dest] = action.const
            continue
        value = next(tokens, "")
        if not value or value[0] == "-":
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    for action in options.values():
        if action.dest not in values:
            if action.required:
                return None
            values[action.dest] = action.default
    return argparse.Namespace(subcommand=argv[0], **values)


def _parse_args(argv):
    """``_parser().parse_args(argv)``, parsing each token once.

    A plain command line, such as ``effects --input t.csv --verify``, is
    parsed in one pass over the command's option table (``_parse_plain``),
    without argparse.  Any other line that starts with a command (an
    abbreviation, ``--opt=value``, ``-h``, a value that starts with ``-``, is
    empty or is invalid, a missing value or ``--input``, an unknown token)
    goes to that command's parser alone; the full parser would pass it all
    the other tokens anyway, after classifying each of them for its own
    ``--help`` and ``--version``.  Every other command line, and every one
    that leaves a token over, goes to the full parser.  So help, version,
    usage and every error come from argparse and read as before.
    """
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_plain(parser, argv)
    if args is not None:
        return args
    if argv and argv[0] in _COMMANDS:
        args, extra = parser.commands[argv[0]].parse_known_args(argv[1:])
        if not extra:
            args.subcommand = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        return _COMMANDS[args.subcommand](args)
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
