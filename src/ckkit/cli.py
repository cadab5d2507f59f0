"""Command-line entry point.

Subcommands: parse, check-model, eval, classify, find-countermodel,
compare-classes, check-proof, axioms list, export-dot.

Exit codes: 0 success, 1 usage/IO/validation error or output closed
early by its reader, 2 reserved by find-countermodel for "counterexample
found".

Arguments are parsed once.  A known subcommand's arguments in the plain
form COMMAND [POSITIONAL] (--OPTION VALUE | --FLAG)... are read from a
table built at import from that subcommand's own parser; its other
arguments (help, an abbreviation, --opt=value, '--', a value that starts
with '-', a repeated, missing or bad argument) by that parser alone;
anything else (-h, no arguments, an unknown command) by the top-level
parser.  So build_parser() is the one declaration of the arguments and
the only source of help and error text.  Leftover arguments are reported
by the top-level parser, so every usage message reads as the full
parser's.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import axioms as axioms_mod
from . import kripke, proofkit, search, semantics
from .formula import ParseError, parse, render

_CLASS_CHOICES = [name.lower() for name in kripke.CLASSES]


class CliError(Exception):
    pass


def _load_model(args) -> kripke.KripkeModel:
    try:
        close_order = {"on": True, "off": False}.get(args.preceq_closure)
        return kripke.load_model(args.model, close_order=close_order)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read model: {exc}")
    except (kripke.ModelFormatError, kripke.ModelValidationError) as exc:
        raise CliError(str(exc))


def _parse_formula(text: str, where: str = ""):
    try:
        return parse(text)
    except ParseError as exc:
        raise CliError(f"cannot parse formula: {where}{exc}")


def _formula_args(args) -> list:
    """Formulas from a positional or --formula argument (not both) and/or --formulas-file."""
    if args.formula and args.formula_opt:
        raise CliError("give the formula either positionally or with --formula, not both")
    out = []
    if args.formula or args.formula_opt:
        out.append(_parse_formula(args.formula or args.formula_opt))
    if args.formulas_file:
        try:
            with open(args.formulas_file, "r", encoding="utf-8-sig") as fh:
                for lineno, line in enumerate(fh, start=1):
                    line = line.strip()
                    if line and not line.startswith("#"):
                        out.append(_parse_formula(line, f"line {lineno}: "))
        except (OSError, UnicodeDecodeError) as exc:
            raise CliError(f"cannot read formulas file: {exc}")
    if not out:
        raise CliError("no formula given (use a positional formula, --formula or --formulas-file)")
    return out


def _search_args(args) -> tuple[list, search.EnumParams]:
    """Formulas and search bounds, each formula's atoms checked before any search."""
    formulas = _formula_args(args)
    params = _enum_params(args)
    for f in formulas:
        try:
            params.check_atoms(f)
        except ValueError as exc:
            raise CliError(f"'{render(f)}': {exc}; list them in --props")
    return formulas, params


def _enum_params(args) -> search.EnumParams:
    props = ("p",) if args.props is None else tuple(p for p in args.props.split(",") if p)
    try:
        return search.EnumParams(
            max_worlds=args.max_worlds,
            props=props,
            class_filter=args.cls.upper(),
            require_symmetric=args.require_symmetric,
            require_forward_confluent=args.require_fwd_confluent,
            require_backward_confluent=args.require_bwd_confluent,
        )
    except ValueError as exc:
        raise CliError(str(exc))


def _add_model_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, help="path to a .km model file")
    p.add_argument("--preceq-closure", choices=["on", "off"], default=None,
                   help="override the file's reflexive-transitive closure directive")


def _add_search_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("formula", nargs="?", default=None)
    p.add_argument("--formula", dest="formula_opt", default=None)
    p.add_argument("--formulas-file", default=None)
    p.add_argument("--max-worlds", type=int, default=3)
    p.add_argument("--props", default=None, help="comma-separated proposition names")
    p.add_argument("--require-symmetric", action="store_true")
    p.add_argument("--require-fwd-confluent", action="store_true")
    p.add_argument("--require-bwd-confluent", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="ckkit", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a formula and print its canonical form")
    p.add_argument("formula")

    p = sub.add_parser("check-model", help="validate a model file")
    _add_model_options(p)

    p = sub.add_parser("eval", help="evaluate a formula at a world")
    _add_model_options(p)
    p.add_argument("--world", required=True)
    p.add_argument("--formula", required=True)

    p = sub.add_parser("classify", help="frame properties and class membership")
    _add_model_options(p)

    p = sub.add_parser("find-countermodel", help="bounded countermodel search")
    _add_search_options(p)
    p.add_argument("--class", dest="cls", choices=_CLASS_CHOICES, default="ck")

    p = sub.add_parser("compare-classes", help="countermodel verdicts under two classes")
    _add_search_options(p)
    p.add_argument("--class-a", dest="cls_a", choices=_CLASS_CHOICES, required=True)
    p.add_argument("--class-b", dest="cls_b", choices=_CLASS_CHOICES, required=True)
    p.set_defaults(cls="ck")  # the base params' class; compare_classes replaces it

    p = sub.add_parser("check-proof", help="check a Hilbert proof script")
    p.add_argument("path")

    p = sub.add_parser("axioms", help="axiom schema catalog")
    axsub = p.add_subparsers(dest="axioms_command", required=True)
    axsub.add_parser("list", help="print the catalog, one 'NAME: formula' per line")

    p = sub.add_parser("export-dot", help="write a model as a DOT graph")
    _add_model_options(p)
    p.add_argument("--out", required=True)

    return top


def _cmd_parse(args) -> int:
    print(render(_parse_formula(args.formula)))
    return 0


def _cmd_check_model(args) -> int:
    _load_model(args)
    print("VALID")
    return 0


def _cmd_eval(args) -> int:
    m = _load_model(args)
    f = _parse_formula(args.formula)
    try:
        value = semantics.eval_formula(m, args.world, f)
    except KeyError as exc:
        raise CliError(exc.args[0])
    print("true" if value else "false")
    return 0


def _cmd_classify(args) -> int:
    m = _load_model(args)
    report = kripke.frame_report(m)
    print(" ".join(c for c in kripke.CLASSES if c in report.classes))
    for name in ("symmetric", "forward_confluent", "backward_confluent", "fallible_r_back_closed"):
        print(f"{name}: {'true' if getattr(report, name) else 'false'}")
    return 0


def _cmd_find_countermodel(args) -> int:
    formulas, params = _search_args(args)
    code = 0
    for f in formulas:
        verdict = search.find_countermodel(f, params)
        if isinstance(verdict, search.Counterexample):
            print("COUNTEREXAMPLE")
            sys.stdout.write(kripke.format_model(verdict.model))
            print(f"world: {verdict.world}")
            code = 2
        else:
            print(f"NONE max_worlds={verdict.max_worlds} examined={verdict.models_examined}")
    return code


def _cmd_compare_classes(args) -> int:
    formulas, params = _search_args(args)
    report = search.compare_classes(formulas, args.cls_a.upper(), args.cls_b.upper(), params)
    for entry in report:
        print(entry.summary())
    mismatches = sum(entry.mismatch for entry in report)
    print(f"mismatches: {mismatches}")
    return 0


def _cmd_check_proof(args) -> int:
    try:
        verdict = proofkit.check_proof(proofkit.load_proof_script(args.path))
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read proof: {exc}")
    except (proofkit.ProofFormatError, proofkit.ProofSearchTooDeep) as exc:
        raise CliError(str(exc))
    print(verdict)
    return 0 if verdict.accepted else 1


def _cmd_axioms(args) -> int:
    for name in axioms_mod.SCHEMA_NAMES:
        print(f"{name}: {render(axioms_mod.schema(name).shape)}")
    return 0


def _cmd_export_dot(args) -> int:
    m = _load_model(args)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(kripke.export_dot(m))
    except OSError as exc:
        raise CliError(f"cannot write output: {exc}")
    return 0


_COMMANDS = {
    "parse": _cmd_parse,
    "check-model": _cmd_check_model,
    "eval": _cmd_eval,
    "classify": _cmd_classify,
    "find-countermodel": _cmd_find_countermodel,
    "compare-classes": _cmd_compare_classes,
    "check-proof": _cmd_check_proof,
    "axioms": _cmd_axioms,
    "export-dot": _cmd_export_dot,
}


_PARSER = build_parser()
# each subcommand's own parser, by name: the choices of the add_subparsers action
_SUBPARSERS = next(a.choices for a in _PARSER._actions if isinstance(a, argparse._SubParsersAction))


def _plain_table(parser: argparse.ArgumentParser) -> tuple | None:
    """A subcommand's arguments as a table that _read_plain reads, or None.

    The table is (options, positional, required, defaults): the action of
    each exact option string, the positional action (or None), the required
    actions, and the Namespace before any argument is read, where an
    action's default overrides the parser's set_defaults as in argparse.
    Only a parser whose actions are help, store_true or one-value store
    actions, with at most one positional, gets a table.
    """
    options, positional, defaults = {}, None, dict(parser._defaults)
    for a in parser._actions:
        if type(a) is argparse._HelpAction:
            continue  # -h is no key of options, so argparse prints the help
        if type(a) not in (argparse._StoreAction, argparse._StoreTrueAction) or a.nargs not in (None, "?", 0):
            return None
        defaults[a.dest] = a.default
        options.update(dict.fromkeys(a.option_strings, a))
        if not a.option_strings:
            if positional is not None:  # argparse shares tokens among positionals its own way
                return None
            positional = a
    required = frozenset(a for a in parser._actions if a.required)
    return options, positional, required, defaults


def _read_plain(table: tuple, command: str, tokens: list[str]) -> argparse.Namespace | None:
    """The Namespace argparse gives for tokens, or None if argparse must read them.

    Reads only the plain form [POSITIONAL] (--OPTION VALUE | --FLAG)... in
    any order: each token that starts with '-' is an exact option string
    given once, and each value converts by its type and is among its
    choices.  Anything else (help, an abbreviation, --opt=value, '--', a
    value that starts with '-', a repeated, extra or missing argument, a
    bad value) is left to argparse, which parses or reports it.
    """
    options, positional, required, defaults = table
    values = dict(defaults, command=command)
    seen = set()
    tokens = iter(tokens)
    for token in tokens:
        action = options.get(token) if token.startswith("-") else positional
        if action is None or action in seen:
            return None
        seen.add(action)
        if action.nargs == 0:  # store_true
            values[action.dest] = action.const
            continue
        value = next(tokens, None) if action.option_strings else token
        if value is None or value.startswith("-"):  # argparse may read it as an option
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except ValueError:
                return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if not required <= seen:
        return None
    args = argparse.Namespace()
    vars(args).update(values)
    return args


# the tables of the subcommands that have one: every one but axioms, whose
# nested subcommand argparse reads
_TABLES = {name: table for name, sub in _SUBPARSERS.items() if (table := _plain_table(sub)) is not None}


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """_PARSER.parse_args(argv), reading a known subcommand's arguments from its table or its parser alone."""
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = _SUBPARSERS.get(argv[0]) if argv else None
    if sub is None:  # -h, no arguments or an unknown command: the top parser reports it
        return _PARSER.parse_args(argv)
    table = _TABLES.get(argv[0])
    args = None if table is None else _read_plain(table, argv[0], argv[1:])
    if args is not None:
        return args
    args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        _PARSER.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _main(argv: list[str] | None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed our output early.  Point stdout at /dev/null so
        # that the interpreter's final flush does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
