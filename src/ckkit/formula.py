"""Modal formula AST, parser, printer, substitution and analysis.

The AST has exactly seven constructors: atoms, falsum, conjunction,
disjunction, implication, box and diamond.  Negation and verum are
parse-time sugar: ``~f`` is ``f -> false`` and ``true`` is
``false -> false``.

Concrete syntax (whitespace-insensitive between tokens)::

    formula  := implies
    implies  := or ("->" implies)?          # right-associative
    or       := and ("|" and)*
    and      := unary ("&" unary)*
    unary    := "~" unary | "[]" unary | "<>" unary | atomexpr
    atomexpr := "false" | "true" | IDENT | "(" formula ")"

Atoms are ASCII identifiers ``[A-Za-z_][A-Za-z0-9_]*`` excluding the
reserved words ``false`` and ``true``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Union

__all__ = [
    "Formula",
    "Atom",
    "Falsum",
    "And",
    "Or",
    "Implies",
    "Box",
    "Diamond",
    "FALSE",
    "TRUE",
    "neg",
    "FormulaStats",
    "ParseError",
    "parse",
    "render",
    "substitute",
    "analyze",
    "subformulas",
    "enumerate_formulas",
]


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Falsum:
    pass


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Box:
    inner: "Formula"


@dataclass(frozen=True)
class Diamond:
    inner: "Formula"


Formula = Union[Atom, Falsum, And, Or, Implies, Box, Diamond]

FALSE = Falsum()
TRUE = Implies(FALSE, FALSE)


def neg(f: Formula) -> Formula:
    """Negation as derived form: ``~f`` is ``f -> false``."""
    return Implies(f, FALSE)


RESERVED = frozenset({"false", "true"})

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(r"->|\[\]|<>|[~&|()]|[A-Za-z_][A-Za-z0-9_]*")


class ParseError(ValueError):
    """Syntax error with a character position into the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        tokens.append((m.group(), i))
        i = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> str | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def here(self) -> int:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][1]
        return len(self.text)

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.here())
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.peek()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}", self.here())
        self.pos += 1

    def formula(self) -> Formula:
        left = self.disjunction()
        if self.peek() == "->":
            self.take()
            return Implies(left, self.formula())
        return left

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek() == "|":
            self.take()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.unary()
        while self.peek() == "&":
            self.take()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        tok = self.peek()
        if tok == "~":
            self.take()
            return neg(self.unary())
        if tok == "[]":
            self.take()
            return Box(self.unary())
        if tok == "<>":
            self.take()
            return Diamond(self.unary())
        return self.atomexpr()

    def atomexpr(self) -> Formula:
        pos = self.here()
        tok = self.take()
        if tok == "false":
            return FALSE
        if tok == "true":
            return TRUE
        if tok == "(":
            f = self.formula()
            self.expect(")")
            return f
        if _IDENT_RE.fullmatch(tok):
            if tok in RESERVED:
                raise ParseError(f"reserved word {tok!r} used as atom", pos)
            return Atom(tok)
        raise ParseError(f"unexpected token {tok!r}", pos)


def parse(text: str) -> Formula:
    """Parse ``text`` into a Formula.  Raises ParseError on bad input."""
    p = _Parser(text)
    try:
        f = p.formula()
    except RecursionError:
        raise ParseError("formula nested too deeply", p.here()) from None
    if p.peek() is not None:
        raise ParseError(f"trailing input {p.peek()!r}", p.here())
    return f


# Precedence levels used by render: -> is 1, | is 2, & is 3, unary is 4,
# atoms are 5.  A subterm is parenthesized when its level is below the
# level its context requires.
def _render(f: Formula, ctx: int) -> str:
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Falsum):
        return "false"
    if isinstance(f, Box):
        s = "[] " + _render(f.inner, 4)
        return f"({s})" if ctx > 4 else s
    if isinstance(f, Diamond):
        s = "<> " + _render(f.inner, 4)
        return f"({s})" if ctx > 4 else s
    if isinstance(f, And):
        s = _render(f.left, 3) + " & " + _render(f.right, 4)
        return f"({s})" if ctx > 3 else s
    if isinstance(f, Or):
        s = _render(f.left, 2) + " | " + _render(f.right, 3)
        return f"({s})" if ctx > 2 else s
    if isinstance(f, Implies):
        s = _render(f.left, 2) + " -> " + _render(f.right, 1)
        return f"({s})" if ctx > 1 else s
    raise TypeError(f"not a formula: {f!r}")


def render(f: Formula) -> str:
    """Minimally parenthesized text form; parse(render(f)) == f."""
    return _render(f, 0)


def substitute(schema: Formula, assignment: Mapping[str, Formula]) -> Formula:
    """Simultaneously replace atoms by formulas; unmapped atoms stay fixed."""
    if isinstance(schema, Atom):
        return assignment.get(schema.name, schema)
    if isinstance(schema, Falsum):
        return schema
    if isinstance(schema, And):
        return And(substitute(schema.left, assignment), substitute(schema.right, assignment))
    if isinstance(schema, Or):
        return Or(substitute(schema.left, assignment), substitute(schema.right, assignment))
    if isinstance(schema, Implies):
        return Implies(substitute(schema.left, assignment), substitute(schema.right, assignment))
    if isinstance(schema, Box):
        return Box(substitute(schema.inner, assignment))
    if isinstance(schema, Diamond):
        return Diamond(substitute(schema.inner, assignment))
    raise TypeError(f"not a formula: {schema!r}")


@dataclass(frozen=True)
class FormulaStats:
    modal_depth: int
    size: int
    atoms: frozenset[str] = field(default_factory=frozenset)
    diamond_free: bool = True


def analyze(f: Formula) -> FormulaStats:
    """Single-traversal statistics: modal depth, node count, atoms, diamond-freeness."""
    atoms: set[str] = set()

    def walk(g: Formula) -> tuple[int, int, bool]:
        # returns (modal_depth, size, diamond_free)
        if isinstance(g, Atom):
            atoms.add(g.name)
            return 0, 1, True
        if isinstance(g, Falsum):
            return 0, 1, True
        if isinstance(g, (And, Or, Implies)):
            dl, sl, fl = walk(g.left)
            dr, sr, fr = walk(g.right)
            return max(dl, dr), 1 + sl + sr, fl and fr
        if isinstance(g, Box):
            d, s, df = walk(g.inner)
            return d + 1, s + 1, df
        if isinstance(g, Diamond):
            d, s, _ = walk(g.inner)
            return d + 1, s + 1, False
        raise TypeError(f"not a formula: {g!r}")

    depth, size, diamond_free = walk(f)
    return FormulaStats(modal_depth=depth, size=size, atoms=frozenset(atoms), diamond_free=diamond_free)


def subformulas(f: Formula) -> Iterator[Formula]:
    """All subformulas of f, parents before children."""
    yield f
    if isinstance(f, (And, Or, Implies)):
        yield from subformulas(f.left)
        yield from subformulas(f.right)
    elif isinstance(f, (Box, Diamond)):
        yield from subformulas(f.inner)


def enumerate_formulas(
    atoms: tuple[str, ...] | list[str],
    max_size: int,
    *,
    modal: bool = True,
) -> list[Formula]:
    """All formulas over the given atoms (plus falsum) up to node count max_size.

    With modal=False only the propositional fragment (no box/diamond) is
    generated.  Order is size ascending, then lexicographic on the rendered
    text; the result is deterministic and duplicate-free.
    """
    atom_names = sorted(set(atoms))
    by_size: dict[int, list[Formula]] = {}
    for size in range(1, max_size + 1):
        bucket: list[Formula] = []
        if size == 1:
            bucket.extend(Atom(a) for a in atom_names)
            bucket.append(FALSE)
        else:
            if modal:
                for g in by_size[size - 1]:
                    bucket.append(Box(g))
                    bucket.append(Diamond(g))
            for left_size in range(1, size - 1):
                right_size = size - 1 - left_size
                for left in by_size[left_size]:
                    for right in by_size[right_size]:
                        bucket.append(And(left, right))
                        bucket.append(Or(left, right))
                        bucket.append(Implies(left, right))
        bucket.sort(key=render)
        by_size[size] = bucket
    out: list[Formula] = []
    for size in range(1, max_size + 1):
        out.extend(by_size[size])
    return out
