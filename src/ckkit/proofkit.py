"""Hilbert-style proof checking for CK, CKB, IK and IKB.

A proof script is a numbered sequence of steps, each of which is an
intuitionistic tautology (decided by ``ipc_valid``), an axiom-schema
instance, modus ponens, or necessitation.  ``check_proof`` accepts a
script iff every step discharges its side condition and the last step
proves the declared goal; rejection names the first failing step.

``ipc_valid`` decides intuitionistic propositional validity by
contraction-free backward proof search (Dyckhoff's G4ip calculus).  Box
and diamond subformulas are treated as opaque atoms, identical
subformulas sharing one.  After the goal's invertible rules, one scan
over the hypotheses, newest first, applies the first invertible left
rule that fits, and scans again; the non-invertible rules come last, in
the same order.  So its work follows the formula, not ``PYTHONHASHSEED``.
Formulas are hash-consed (see ``formula._Node``), so the hypothesis dict
and the sequent memo's ``(frozenset(gamma), goal)`` keys hash and compare
nodes by identity, in C.
The search itself recurses, once per sequent on a branch, and raises
``ProofSearchTooDeep`` (a ``ValueError``) where it would pass the
interpreter's recursion limit; ``check_proof`` passes that error on.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from importlib import resources
from types import MappingProxyType
from typing import Mapping, Union

from .axioms import LOGICS, logic_axioms, metavariables, schema
from .formula import (
    And,
    Box,
    FALSE,
    Falsum,
    Formula,
    Implies,
    Or,
    parse,
    render,
    substitute,
)

__all__ = [
    "ipc_valid",
    "ProofSearchTooDeep",
    "Taut",
    "AxiomInst",
    "MP",
    "Nec",
    "ProofStep",
    "ProofScript",
    "Verdict",
    "check_proof",
    "builtin_scripts",
    "parse_proof_script",
    "load_proof_script",
    "ProofFormatError",
]


# ---------------------------------------------------------------------------
# intuitionistic propositional validity (G4ip)

# Sequent memo of the running ipc_valid call, emptied when that call
# returns, so memory does not grow with the number of calls.
_memo: dict[tuple[frozenset, Formula], bool] = {}


def _prove(gamma: dict, goal: Formula) -> bool:
    """Whether hypotheses gamma (dict keys, oldest first) prove goal.  gamma
    is never changed: premises share it, and a rule that changes it copies it."""
    if FALSE in gamma or goal in gamma:
        return True
    key = (frozenset(gamma), goal)
    cached = _memo.get(key)
    if cached is None:
        cached = _memo[key] = _prove_uncached(gamma, goal)
    return cached


def _prove_uncached(gamma: dict, goal: Formula) -> bool:
    kind = type(goal)
    if kind is And:
        return _prove(gamma, goal.left) and _prove(gamma, goal.right)
    if kind is Implies:
        return _prove(gamma | {goal.left: None}, goal.right)
    # The invertible left rules: the first that fits a hypothesis f replaces
    # it by those in new, added last, on a copy of the given gamma; a scan
    # that finds none ends the saturation.
    given = gamma
    while True:
        for f in reversed(gamma):
            kind = type(f)
            if kind is And:
                new = {f.left: None, f.right: None}
            elif kind is Or:
                rest = gamma.copy()
                del rest[f]
                return _prove(rest | {f.left: None}, goal) and _prove(rest | {f.right: None}, goal)
            elif kind is not Implies:
                continue
            elif type(a := f.left) is Falsum:
                new = {}  # falsum is never in gamma here: f is inert
            elif a in gamma:
                new = {f.right: None}
            elif type(a) is And:
                new = {Implies(a.left, Implies(a.right, f.right)): None}
            elif type(a) is Or:
                new = {Implies(a.left, f.right): None, Implies(a.right, f.right): None}
            else:
                continue
            if gamma is given:
                gamma = gamma.copy()
            del gamma[f]
            gamma |= new
            break
        else:
            break
        if FALSE in gamma or goal in gamma:
            return True
    # Non-invertible choices, newest hypothesis first.
    if type(goal) is Or and (_prove(gamma, goal.left) or _prove(gamma, goal.right)):
        return True
    for f in reversed(gamma):
        if type(f) is Implies and type(nested := f.left) is Implies:
            rest = gamma.copy()
            del rest[f]
            if (_prove(rest | {Implies(nested.right, f.right): None}, nested)
                    and _prove(rest | {f.right: None}, goal)):
                return True
    return False


class ProofSearchTooDeep(ValueError):
    """G4ip's search on a formula went deeper than Python's recursion limit."""


def ipc_valid(f: Formula) -> bool:
    """Intuitionistic propositional validity, modal subformulas as atoms.

    Raises ProofSearchTooDeep when the search nests deeper than the
    interpreter's recursion limit: G4ip recurses once per sequent on a
    branch, so a formula built in code thousands of connectives deep, or
    one with hundreds of disjunctive hypotheses, can be too deep to search.
    """
    try:
        return _prove({}, f)
    except RecursionError:
        raise ProofSearchTooDeep(
            f"formula too deep for G4ip's recursive proof search "
            f"(recursion limit {sys.getrecursionlimit()} reached)"
        ) from None
    finally:
        _memo.clear()


# ---------------------------------------------------------------------------
# proof scripts

@dataclass(frozen=True)
class Taut:
    formula: Formula


@dataclass(frozen=True)
class AxiomInst:
    name: str
    assignment: Mapping[str, Formula]
    formula: Formula

    def __post_init__(self):
        # a read-only mapping over a private copy
        object.__setattr__(self, "assignment", MappingProxyType(dict(self.assignment)))

    def __reduce__(self):
        # a mapping proxy does not pickle; rebuild from a copy of its dict
        return AxiomInst, (self.name, dict(self.assignment), self.formula)

    def __hash__(self) -> int:
        return hash((self.name, frozenset(self.assignment.items()), self.formula))


@dataclass(frozen=True)
class MP:
    i: int
    j: int
    formula: Formula


@dataclass(frozen=True)
class Nec:
    i: int
    formula: Formula


ProofStep = Union[Taut, AxiomInst, MP, Nec]


@dataclass(frozen=True)
class ProofScript:
    logic: str
    steps: tuple[ProofStep, ...]
    goal: Formula


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    step: int | None = None
    reason: str | None = None

    def __str__(self) -> str:
        if self.accepted:
            return "ACCEPTED"
        return f"REJECTED step {self.step}: {self.reason}"


def check_proof(s: ProofScript) -> Verdict:
    """Check every step of a script; reject at the first failing step."""
    if s.logic not in LOGICS:
        return Verdict(False, 0, f"unknown logic {s.logic!r}")
    admissible = logic_axioms(s.logic)
    if not s.steps:
        return Verdict(False, 0, "empty proof")
    for k, step in enumerate(s.steps, start=1):
        if isinstance(step, Taut):
            if not ipc_valid(step.formula):
                return Verdict(False, k, f"'{render(step.formula)}' is not an intuitionistic tautology")
        elif isinstance(step, AxiomInst):
            try:
                sch = schema(step.name)
            except KeyError:
                return Verdict(False, k, f"unknown axiom schema {step.name!r}")
            if step.name not in admissible:
                return Verdict(False, k, f"axiom {step.name} is not admissible in {s.logic}")
            expected = substitute(sch.shape, step.assignment)
            if expected != step.formula:
                return Verdict(
                    False, k,
                    f"formula does not match the {step.name} instance "
                    f"'{render(expected)}'",
                )
            if not set(step.assignment).issubset(metavariables(sch)):
                return Verdict(False, k, f"assignment names a metavariable {step.name} does not have")
        elif isinstance(step, MP):
            for idx in (step.i, step.j):
                if not 1 <= idx < k:
                    return Verdict(False, k, f"step index {idx} does not refer strictly backwards")
            minor = s.steps[step.i - 1].formula
            major = s.steps[step.j - 1].formula
            if not isinstance(major, Implies) or major.left != minor or major.right != step.formula:
                return Verdict(
                    False, k,
                    f"modus ponens shape mismatch: step {step.j} must prove "
                    f"'{render(minor)} -> {render(step.formula)}'",
                )
        elif isinstance(step, Nec):
            if not 1 <= step.i < k:
                return Verdict(False, k, f"step index {step.i} does not refer strictly backwards")
            if step.formula != Box(s.steps[step.i - 1].formula):
                return Verdict(False, k, "necessitation must box the premise formula")
        else:
            return Verdict(False, k, f"unknown step kind {type(step).__name__}")
    last = s.steps[-1].formula
    if last != s.goal:
        return Verdict(False, len(s.steps), "last step does not prove the goal")
    return Verdict(True)


def builtin_scripts() -> dict[str, ProofScript]:
    """Shipped proof scripts, keyed by name: ``data/<name>.proof``.

    ``dp_in_ckb``, ``fs_in_ckb`` and ``n_in_ckb`` derive in CKB the IK
    axioms DP and FS (at A=p, B=q) and N: every axiom IKB adds to CKB.
    """
    data = resources.files(__package__) / "data"
    return {
        name[: -len(".proof")]: parse_proof_script((data / name).read_text(encoding="utf-8"))
        for name in sorted(path.name for path in data.iterdir())
        if name.endswith(".proof")
    }


# ---------------------------------------------------------------------------
# proof file format

class ProofFormatError(ValueError):
    pass


_STEP_RE = re.compile(r"^(\d+)\.\s+(taut|axiom|mp|nec)\s+(.*)$")
_AXIOM_RE = re.compile(r"^(\w+)\s*\{([^}]*)\}\s*(.*)$")


def parse_proof_script(text: str) -> ProofScript:
    """Parse the line-oriented proof script format.

    Header lines ``logic:`` and ``goal:``, once each, then numbered steps::

        k. taut <formula>
        k. axiom NAME {A=<formula>; B=<formula>} <formula>
        k. mp i j <formula>
        k. nec i <formula>
    """
    headers: dict[str, str | Formula] = {}
    steps: list[ProofStep] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            key, _, value = line.partition(":")
            if key in ("logic", "goal"):
                if key in headers:
                    raise ProofFormatError(f"repeated '{key}:' header")
                headers[key] = parse(value) if key == "goal" else value.strip()
                continue
            m = _STEP_RE.match(line)
            if m is None:
                raise ProofFormatError(f"cannot parse step {line!r}")
            number, kind, rest = int(m.group(1)), m.group(2), m.group(3).strip()
            if number != len(steps) + 1:
                raise ProofFormatError(f"expected step {len(steps) + 1}, got {number}")
            if kind == "taut":
                steps.append(Taut(parse(rest)))
            elif kind == "axiom":
                am = _AXIOM_RE.match(rest)
                if am is None:
                    raise ProofFormatError("cannot parse axiom step")
                assignment: dict[str, Formula] = {}
                body = am.group(2).strip()
                if body:
                    for entry in body.split(";"):
                        var, eq, ftext = entry.partition("=")
                        if not eq:
                            raise ProofFormatError(f"bad assignment entry {entry!r}")
                        assignment[var.strip()] = parse(ftext)
                steps.append(AxiomInst(am.group(1), assignment, parse(am.group(3))))
            elif kind == "mp":
                parts = rest.split(None, 2)
                if len(parts) != 3:
                    raise ProofFormatError("mp needs two indices and a formula")
                steps.append(MP(int(parts[0]), int(parts[1]), parse(parts[2])))
            else:  # nec
                parts = rest.split(None, 1)
                if len(parts) != 2:
                    raise ProofFormatError("nec needs an index and a formula")
                steps.append(Nec(int(parts[0]), parse(parts[1])))
        except ValueError as exc:  # ParseError, a bad index, or a ProofFormatError
            raise ProofFormatError(f"line {lineno}: {exc}") from None
    for key in ("logic", "goal"):
        if key not in headers:
            raise ProofFormatError(f"missing '{key}:' header")
    return ProofScript(logic=headers["logic"], steps=tuple(steps), goal=headers["goal"])


def load_proof_script(path) -> ProofScript:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_proof_script(fh.read())
