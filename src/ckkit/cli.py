"""Command-line entry point.

Subcommands: parse, check-model, eval, classify, find-countermodel,
compare-classes, check-proof, axioms list, export-dot.

Exit codes: 0 success, 1 usage/IO/validation error, 2 reserved by
find-countermodel for "counterexample found".
"""

from __future__ import annotations

import argparse
import sys

from . import axioms as axioms_mod
from . import kripke, proofkit, search, semantics
from .formula import ParseError, parse, render

CLASS_BY_NAME = {"ck": "CK", "ckb": "CKB", "ik": "IK", "ikb": "IKB"}


class CliError(Exception):
    pass


def _closure_flag(value: str | None) -> bool | None:
    if value is None:
        return None
    return value == "on"


def _load_model(args) -> kripke.KripkeModel:
    try:
        return kripke.load_model(args.model, close_order=_closure_flag(args.preceq_closure))
    except OSError as exc:
        raise CliError(f"cannot read model: {exc}")
    except (kripke.ModelFormatError, kripke.ModelValidationError) as exc:
        raise CliError(str(exc))


def _parse_formula(text: str):
    try:
        return parse(text)
    except ParseError as exc:
        raise CliError(f"cannot parse formula: {exc}")


def _merge_formula_opt(args) -> None:
    """Take --formula as the formula argument; giving both is an error."""
    if args.formula_opt:
        if args.formula:
            raise CliError("give the formula either positionally or with --formula, not both")
        args.formula = args.formula_opt


def _formula_args(args) -> list:
    """Formulas from a positional/--formula argument and/or --formulas-file."""
    out = []
    if getattr(args, "formula", None):
        out.append(_parse_formula(args.formula))
    if getattr(args, "formulas_file", None):
        try:
            with open(args.formulas_file, "r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if line and not line.startswith("#"):
                        out.append(_parse_formula(line))
        except OSError as exc:
            raise CliError(f"cannot read formulas file: {exc}")
    if not out:
        raise CliError("no formula given (use a positional formula, --formula or --formulas-file)")
    return out


def _enum_params(args, props_default=("p",)) -> search.EnumParams:
    props = tuple(args.props.split(",")) if args.props else tuple(props_default)
    props = tuple(p for p in props if p)
    try:
        return search.EnumParams(
            max_worlds=args.max_worlds,
            props=props,
            class_filter=CLASS_BY_NAME[args.cls],
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
    p.add_argument("--class", dest="cls", choices=sorted(CLASS_BY_NAME), default="ck")
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
    p.add_argument("formula", nargs="?", default=None)
    p.add_argument("--formula", dest="formula_opt", default=None)
    p.add_argument("--formulas-file", default=None)
    _add_search_options(p)

    p = sub.add_parser("compare-classes", help="countermodel verdicts under two classes")
    p.add_argument("formula", nargs="?", default=None)
    p.add_argument("--formula", dest="formula_opt", default=None)
    p.add_argument("--formulas-file", default=None)
    p.add_argument("--class-a", dest="cls_a", choices=sorted(CLASS_BY_NAME), required=True)
    p.add_argument("--class-b", dest="cls_b", choices=sorted(CLASS_BY_NAME), required=True)
    p.add_argument("--max-worlds", type=int, default=3)
    p.add_argument("--props", default=None)

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
        raise CliError(str(exc))
    print("true" if value else "false")
    return 0


def _cmd_classify(args) -> int:
    m = _load_model(args)
    report = kripke.frame_report(m)
    print(" ".join(c for c in kripke.CLASS_NAMES if c in report.classes))
    for name in ("symmetric", "forward_confluent", "backward_confluent", "fallible_r_back_closed"):
        print(f"{name}: {'true' if getattr(report, name) else 'false'}")
    return 0


def _cmd_find_countermodel(args) -> int:
    _merge_formula_opt(args)
    formulas = _formula_args(args)
    params = _enum_params(args)
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
    _merge_formula_opt(args)
    formulas = _formula_args(args)
    try:
        params = search.EnumParams(
            max_worlds=args.max_worlds,
            props=tuple(args.props.split(",")) if args.props else ("p",),
        )
    except ValueError as exc:
        raise CliError(str(exc))
    report = search.compare_classes(
        formulas, CLASS_BY_NAME[args.cls_a], CLASS_BY_NAME[args.cls_b], params
    )
    for entry in report:
        print(entry.summary())
    mismatches = sum(entry.mismatch for entry in report)
    print(f"mismatches: {mismatches}")
    return 0


def _cmd_check_proof(args) -> int:
    try:
        script = proofkit.load_proof_script(args.path)
    except OSError as exc:
        raise CliError(f"cannot read proof: {exc}")
    except (proofkit.ProofFormatError, ParseError) as exc:
        raise CliError(str(exc))
    verdict = proofkit.check_proof(script)
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
