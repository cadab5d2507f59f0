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

Nesting is limited to ``MAX_DEPTH`` (100) levels: a formula whose tree
has more than ``MAX_DEPTH`` connectives on one branch (each ``~``, ``[]``,
``<>``, ``&``, ``|`` and ``->`` counts one, ``true`` one, so a chain
``p & p & ... & p`` of 102 terms is too deep), or whose text opens more
than ``MAX_DEPTH`` parentheses at once, raises ``ParseError("formula
nested too deeply")``.  The printed form of a formula never nests more
parentheses than connectives, so whatever ``parse`` accepts, ``render``
prints and ``parse`` reads back.

Formulas built in code may be deeper: every function here that walks a
formula, and ``semantics.compile_formula``, loops over one iterative walk;
``repr`` and pickling loop over nodes too.  Equal formulas are one object
(see ``_Node``), so ``==`` and ``hash`` take one step, copying returns the
node itself, and threads may build formulas at once.  Only
``proofkit.ipc_valid`` recurses, and it raises
``proofkit.ProofSearchTooDeep`` past the recursion limit.
"""

from __future__ import annotations

import re
import threading
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass
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
    "MAX_DEPTH",
    "is_atom_name",
    "parse",
    "render",
    "substitute",
    "analyze",
    "atom_names",
    "subformulas",
    "enumerate_formulas",
]


class _Node:
    """Shared behaviour of the seven constructors: immutable, slotted, interned nodes.

    A constructor returns the one live node for its arguments, keyed by an
    atom's name or by a node's class and operands, which, being interned,
    key by identity; falsum is one node.  So equal formulas are one object:
    ``==`` is ``is`` and the hash is ``object.__hash__``, in C at any depth.
    ``_nodes`` holds the nodes weakly; a lock guards its miss path, so threads
    that build one formula at once get one node.  Unpickling and copying return
    the interned node.  ``atom_names`` stores its answer in ``_atoms``.
    """

    __slots__ = ("_atoms", "__weakref__")
    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        # Pre-order over nodes and the text between them, e.g.
        # "Box(inner=Atom(name='p'))".  An operand that is not a node
        # is pushed as its repr.
        out = []
        todo: list = [self]
        while todo:
            g = todo.pop()
            if type(g) is str:
                out.append(g)
                continue
            out.append(f"{type(g).__name__}(")
            todo.append(")")
            names = g.__match_args__
            for k in reversed(range(len(names))):
                x = getattr(g, names[k])
                todo.append(x if isinstance(x, _Node) else repr(x))
                todo.append(f"{', ' if k else ''}{names[k]}=")
        return "".join(out)

    def __deepcopy__(self, memo=None):
        return self

    __copy__ = __deepcopy__

    def __reduce__(self):
        # A flat table, one entry per distinct node object, operands first:
        # its type, then an atom's name or the operands' entry numbers.  It
        # loads at any depth, through the constructors, so as interned nodes.
        number: dict[int, int] = {}
        table = []
        todo = [self]
        while todo:
            g = todo[-1]
            if not isinstance(g, _Node):
                raise TypeError(f"not a formula: {g!r}")
            kind = type(g)
            operands = () if kind is Atom else [getattr(g, name) for name in kind.__match_args__]
            pending = [x for x in operands if id(x) not in number]
            if pending:
                todo += pending
                continue
            todo.pop()
            if id(g) not in number:
                number[id(g)] = len(table)
                entry = [g.name] if kind is Atom else [number[id(x)] for x in operands]
                table.append((kind, *entry))
        return _from_table, (tuple(table),)


# The intern table: key -> weak reference to the live node.  A reference's
# callback drops its entry if it is still dead, atomically, without the lock.
_nodes: dict = {}
_lock = threading.Lock()


class _Ref(weakref.ref):
    __slots__ = ("key",)


def _drop(ref: _Ref) -> None:
    _remove_dead_weakref(_nodes, ref.key)


def _add(key, node: "Formula") -> "Formula":
    """Intern node under key; return it, or the live node another thread interned first."""
    ref = _Ref(node, _drop)
    ref.key = key
    with _lock:
        old = _nodes.get(key)
        if old is not None and (live := old()) is not None:
            return live
        _nodes[key] = ref
    return node


class Atom(_Node):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __new__(cls, name: str):
        ref = _nodes.get(name)
        if ref is None or (node := ref()) is None:
            node = object.__new__(cls)
            _set_name(node, name)
            node = _add(name, node)
        return node


class Falsum(_Node):
    __slots__ = ()

    def __new__(cls):
        return FALSE


class _Binary(_Node):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __new__(cls, left: "Formula", right: "Formula"):
        key = (cls, left, right)
        ref = _nodes.get(key)
        if ref is None or (node := ref()) is None:
            node = object.__new__(cls)
            _set_left(node, left)
            _set_right(node, right)
            node = _add(key, node)
        return node


class _Unary(_Node):
    __slots__ = ("inner",)
    __match_args__ = ("inner",)

    def __new__(cls, inner: "Formula"):
        key = (cls, inner)
        ref = _nodes.get(key)
        if ref is None or (node := ref()) is None:
            node = object.__new__(cls)
            _set_inner(node, inner)
            node = _add(key, node)
        return node


def _from_table(table: tuple) -> "Formula":
    """The last node of a ``_Node.__reduce__`` table."""
    nodes: list[Formula] = []
    for kind, *operands in table:
        nodes.append(kind(*operands) if kind is Atom else kind(*[nodes[k] for k in operands]))
    return nodes[-1]


# The constructors write their slots through the slot descriptors, which
# __setattr__ does not guard: cheaper than object.__setattr__ by name.
_set_atoms = _Node._atoms.__set__
_set_name = Atom.name.__set__
_set_left = _Binary.left.__set__
_set_right = _Binary.right.__set__
_set_inner = _Unary.inner.__set__


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Box(_Unary):
    __slots__ = ()


class Diamond(_Unary):
    __slots__ = ()


Formula = Union[Atom, Falsum, And, Or, Implies, Box, Diamond]

FALSE = object.__new__(Falsum)  # the one node Falsum() returns
TRUE = Implies(FALSE, FALSE)


def neg(f: Formula) -> Formula:
    """Negation as derived form: ``~f`` is ``f -> false``."""
    return Implies(f, FALSE)


MAX_DEPTH = 100

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(r"->|\[\]|<>|[~&|()]|[A-Za-z_][A-Za-z0-9_]*")


def is_atom_name(name: str) -> bool:
    """Whether ``parse`` reads name as an atom: an identifier other than false and true."""
    return _IDENT_RE.fullmatch(name) is not None and name not in ("false", "true")


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


_PREFIX = {"~": neg, "[]": Box, "<>": Diamond}


class _Parser:
    """Recursive descent that recurses only into parentheses."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text) + [(None, len(text))]
        self.pos = 0
        self.parens = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos][0]

    def here(self) -> int:
        return self.tokens[self.pos][1]

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
        f = self.disjunction()
        if self.peek() != "->":
            return f
        parts = [f]
        while self.peek() == "->":
            self.pos += 1
            parts.append(self.disjunction())
        f = parts.pop()
        while parts:
            f = Implies(parts.pop(), f)
        return f

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek() == "|":
            self.pos += 1
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.unary()
        while self.peek() == "&":
            self.pos += 1
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        if self.peek() not in _PREFIX:
            return self.atomexpr()
        prefix = []
        while self.peek() in _PREFIX:
            prefix.append(_PREFIX[self.take()])
        f = self.atomexpr()
        for make in reversed(prefix):
            f = make(f)
        return f

    def atomexpr(self) -> Formula:
        pos = self.here()
        tok = self.take()
        if tok == "false":
            return FALSE
        if tok == "true":
            return TRUE
        if tok == "(":
            self.parens += 1
            if self.parens > MAX_DEPTH:
                raise ParseError("formula nested too deeply", pos)
            f = self.formula()
            self.expect(")")
            self.parens -= 1
            return f
        if _IDENT_RE.fullmatch(tok):
            return Atom(tok)
        raise ParseError(f"unexpected token {tok!r}", pos)


def parse(text: str) -> Formula:
    """Parse ``text`` into a Formula.  Raises ParseError on bad input.

    See the module docstring for the nesting limit.
    """
    p = _Parser(text)
    f = p.formula()
    if p.peek() is not None:
        raise ParseError(f"trailing input {p.peek()!r}", p.here())
    # Each token adds at most one connective, so short texts are shallow.
    if len(p.tokens) > MAX_DEPTH and _depth(f) > MAX_DEPTH:
        raise ParseError("formula nested too deeply", 0)
    return f


_BINARY = frozenset({And, Or, Implies})


def _postorder(f: Formula) -> list[Formula]:
    """The nodes of f, each after its operands, operands left to right."""
    # Taking each node before its right, then its left operand lists the
    # nodes in the reverse of that order.
    out = []
    todo = [f]
    while todo:
        g = todo.pop()
        out.append(g)
        kind = type(g)
        if kind in _BINARY:
            todo += (g.left, g.right)
        elif kind is Box or kind is Diamond:
            todo.append(g.inner)
        elif kind is not Atom and kind is not Falsum:
            raise TypeError(f"not a formula: {g!r}")
    out.reverse()
    return out


def _depth(f: Formula) -> int:
    """Connectives on the deepest branch of f."""
    depths: list[int] = []
    for g in _postorder(f):
        kind = type(g)
        if kind in _BINARY:
            right = depths.pop()
            depths[-1] = max(depths[-1], right) + 1
        elif kind is Atom or kind is Falsum:
            depths.append(0)
        else:
            depths[-1] += 1
    return depths[0]


# render's precedence levels: an operand is parenthesized when its level is
# below the one its place requires; atoms and falsum are level 5.  Per
# connective: its text, its level and the levels its operands require.
_SYNTAX = {
    Box: ("[] ", 4, None, 4),
    Diamond: ("<> ", 4, None, 4),
    And: (" & ", 3, 3, 4),
    Or: (" | ", 2, 2, 3),
    Implies: (" -> ", 1, 2, 1),
}


def render(f: Formula) -> str:
    """Minimally parenthesized text form; parse(render(f)) == f."""
    done: list[tuple[str, int]] = []  # (text, level) of operands not yet used
    for g in _postorder(f):
        kind = type(g)
        if kind is Atom or kind is Falsum:
            done.append((g.name if kind is Atom else "false", 5))
            continue
        op, level, need_left, need_right = _SYNTAX[kind]
        text, below = done.pop()
        if below < need_right:
            text = f"({text})"
        if need_left is None:
            text = op + text
        else:
            left, below = done.pop()
            text = (f"({left})" if below < need_left else left) + op + text
        done.append((text, level))
    return done[0][0]


def substitute(schema: Formula, assignment: Mapping[str, Formula]) -> Formula:
    """Simultaneously replace atoms by formulas; unmapped atoms stay fixed."""
    done: list[Formula] = []
    for g in _postorder(schema):
        kind = type(g)
        if kind in _BINARY:
            right = done.pop()
            done[-1] = kind(done[-1], right)
        elif kind is Atom:
            done.append(assignment.get(g.name, g))
        elif kind is Falsum:
            done.append(g)
        else:
            done[-1] = kind(done[-1])
    return done[0]


def atom_names(f: Formula) -> frozenset[str]:
    """The names of the atoms of f, as analyze(f).atoms; stored on f when first asked."""
    if not hasattr(f, "_atoms"):
        _set_atoms(f, frozenset([g.name for g in _postorder(f) if type(g) is Atom]))
    return f._atoms


@dataclass(frozen=True)
class FormulaStats:
    modal_depth: int
    size: int
    atoms: frozenset[str]
    diamond_free: bool


def analyze(f: Formula) -> FormulaStats:
    """Statistics in one pass: modal depth, node count, atoms, diamond-freeness."""
    nodes = _postorder(f)
    atoms: set[str] = set()
    diamond_free = True
    depths: list[int] = []
    for g in nodes:
        kind = type(g)
        if kind in _BINARY:
            right = depths.pop()
            depths[-1] = max(depths[-1], right)
        elif kind is Atom:
            atoms.add(g.name)
            depths.append(0)
        elif kind is Falsum:
            depths.append(0)
        else:
            depths[-1] += 1
            if kind is Diamond:
                diamond_free = False
    return FormulaStats(depths[0], len(nodes), frozenset(atoms), diamond_free)


def subformulas(f: Formula) -> Iterator[Formula]:
    """All subformulas of f, parents before children, left operand first."""
    todo = [f]
    while todo:
        g = todo.pop()
        kind = type(g)
        if kind in _BINARY:
            todo += (g.right, g.left)
        elif kind is Box or kind is Diamond:
            todo.append(g.inner)
        elif kind is not Atom and kind is not Falsum:
            raise TypeError(f"not a formula: {g!r}")
        yield g


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
