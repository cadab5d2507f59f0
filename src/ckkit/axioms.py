"""Axiom schema catalog and substitution-instance generation.

Schemas are ordinary formulas over the reserved metavariable atoms A and
B.  ``instances`` substitutes both uniformly by formulas drawn from a
bounded enumeration, for use in the soundness and class-comparison
suites.

The catalog covers the defining axioms of the four logics (K-box, K-dia,
FS, DP, N, B-box, B-dia) plus the T/D/4/5 shapes, which are included for
exploratory frame testing only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator

from .formula import (
    Formula,
    atom_names,
    enumerate_formulas,
    parse,
    substitute,
)

__all__ = [
    "AxiomSchema",
    "SCHEMA_NAMES",
    "schema",
    "metavariables",
    "instances",
    "LOGICS",
    "logic_axioms",
]

METAVARS = ("A", "B")


@dataclass(frozen=True)
class AxiomSchema:
    name: str
    shape: Formula


_CATALOG: dict[str, AxiomSchema] = {
    name: AxiomSchema(name, parse(text))
    for name, text in [
        ("K_BOX", "[] (A -> B) -> ([] A -> [] B)"),
        ("K_DIA", "[] (A -> B) -> (<> A -> <> B)"),
        ("FS", "(<> A -> [] B) -> [] (A -> B)"),
        ("DP", "<> (A | B) -> <> A | <> B"),
        ("N", "<> false -> false"),
        ("B_BOX", "A -> [] <> A"),
        ("B_DIA", "<> [] A -> A"),
        ("T_BOX", "[] A -> A"),
        ("T_DIA", "A -> <> A"),
        ("D", "[] A -> <> A"),
        ("FOUR_BOX", "[] [] A -> [] A"),
        ("FOUR_DIA", "<> <> A -> <> A"),
        ("FIVE_BOX", "<> A -> [] <> A"),
        ("FIVE_DIA", "<> [] A -> [] A"),
    ]
}

SCHEMA_NAMES = tuple(_CATALOG)

# Axiom sets of the four logics (beyond intuitionistic tautologies).
LOGICS: dict[str, frozenset[str]] = {
    "CK": frozenset({"K_BOX", "K_DIA"}),
    "CKB": frozenset({"K_BOX", "K_DIA", "B_BOX", "B_DIA"}),
    "IK": frozenset({"K_BOX", "K_DIA", "FS", "DP", "N"}),
    "IKB": frozenset({"K_BOX", "K_DIA", "B_BOX", "B_DIA", "FS", "DP", "N"}),
}


def schema(name: str) -> AxiomSchema:
    try:
        return _CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown axiom schema {name!r}") from None


def logic_axioms(logic: str) -> frozenset[str]:
    try:
        return LOGICS[logic]
    except KeyError:
        raise KeyError(f"unknown logic {logic!r}") from None


def metavariables(s: AxiomSchema) -> tuple[str, ...]:
    present = atom_names(s.shape)
    return tuple(v for v in METAVARS if v in present)


def instances(
    names: Iterable[str],
    atoms: Iterable[str],
    max_size: int,
) -> Iterator[Formula]:
    """Substitution instances of the named schemas, duplicate-free.

    Instantiating formulas range over everything built from the given
    atoms, falsum and the connectives up to node count max_size, in
    size-then-lexicographic order.
    The overall stream is deterministic: schemas in the order given,
    metavariable assignments in product order.
    """
    pool = enumerate_formulas(tuple(atoms), max_size)
    seen: set[Formula] = set()
    for name in names:
        s = schema(name)
        mvars = metavariables(s)
        for choice in product(pool, repeat=len(mvars)):
            inst = substitute(s.shape, dict(zip(mvars, choice)))
            if inst not in seen:
                seen.add(inst)
                yield inst
