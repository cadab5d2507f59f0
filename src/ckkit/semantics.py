"""Formula evaluation over birelational models.

Truth clauses at a world w:

  * atoms: w in V(P); falsum: w fallible;
  * and/or pointwise;
  * implication: every <=-successor forcing the antecedent forces the
    consequent;
  * box: all R-successors of all <=-successors force the body;
  * diamond (guarded clause, the implemented semantics): every
    <=-successor of w has an R-successor forcing the body.

``eval_diamond_unguarded`` evaluates with the classical existential
diamond clause instead (throughout the formula); on forward-confluent
models the two clauses agree.

Formulas are compiled to postfix programs and evaluated for all worlds
at once as bitmasks, by one of the two evaluators in ckkit._kernel:

  * ``eval_packed_batch`` (the countermodel search) packs its models into
    uint64 arrays and runs the numpy batch kernel, ``eval_programs``;
  * ``eval_packed`` and everything built on it (``EvalContext``,
    ``truth_mask``, ``eval_formula``, ``valid_in_model``,
    ``eval_diamond_unguarded``) evaluates one model's Python ints with
    ``eval_model``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import _kernel
from ._kernel import OP_AND, OP_ATOM, OP_BOX, OP_DIA, OP_DIAC, OP_FALSUM, OP_IMP, OP_OR
from .formula import And, Atom, Box, Diamond, Falsum, Formula, Implies, Or
from .kripke import KripkeModel, PackedModel

__all__ = [
    "Program",
    "compile_formula",
    "eval_packed",
    "eval_packed_batch",
    "EvalContext",
    "eval_formula",
    "valid_in_model",
    "eval_diamond_unguarded",
    "truth_mask",
]

MAX_WORLDS = 63


@dataclass(frozen=True)
class Program:
    ops: tuple[int, ...]
    args: tuple[int, ...]


def compile_formula(
    f: Formula, prop_index: Mapping[str, int], classical_diamond: bool = False
) -> Program:
    """Postfix-compile f; atoms missing from prop_index read the fallible mask."""
    ops: list[int] = []
    args: list[int] = []

    def emit(op: int, arg: int = 0) -> None:
        ops.append(op)
        args.append(arg)

    def walk(g: Formula) -> None:
        if isinstance(g, Atom):
            emit(OP_ATOM, prop_index.get(g.name, -1))
        elif isinstance(g, Falsum):
            emit(OP_FALSUM)
        elif isinstance(g, And):
            walk(g.left)
            walk(g.right)
            emit(OP_AND)
        elif isinstance(g, Or):
            walk(g.left)
            walk(g.right)
            emit(OP_OR)
        elif isinstance(g, Implies):
            walk(g.left)
            walk(g.right)
            emit(OP_IMP)
        elif isinstance(g, Box):
            walk(g.inner)
            emit(OP_BOX)
        elif isinstance(g, Diamond):
            walk(g.inner)
            emit(OP_DIAC if classical_diamond else OP_DIA)
        else:
            raise TypeError(f"not a formula: {g!r}")

    walk(f)
    return Program(ops=tuple(ops), args=tuple(args))


def _check_worlds(n: int) -> None:
    if n > MAX_WORLDS:
        raise ValueError(f"at most {MAX_WORLDS} worlds supported")


def _pack_arrays(models: Sequence[PackedModel]):
    """uint64 arrays up, rel (models, n), fallible (models,), vals (models, props)."""
    up = np.array([pm.up for pm in models], dtype=np.uint64)
    rel = np.array([pm.rel for pm in models], dtype=np.uint64)
    fal = np.array([pm.fallible for pm in models], dtype=np.uint64)
    vals = np.array([pm.vals for pm in models], dtype=np.uint64)
    return up, rel, fal, vals


def eval_packed_batch(
    models: Sequence[PackedModel], f: Formula, classical_diamond: bool = False
) -> np.ndarray:
    """Truth masks of f over a batch of models sharing world count and props."""
    if not models:
        return np.empty(0, dtype=np.uint64)
    n = models[0].n
    props = models[0].props
    if any(pm.n != n or pm.props != props for pm in models):
        raise ValueError("batch models must share world count and proposition list")
    _check_worlds(n)
    prog = compile_formula(f, {p: k for k, p in enumerate(props)}, classical_diamond)
    up, rel, fal, vals = _pack_arrays(models)
    out = np.empty(len(models), dtype=np.uint64)
    _kernel.eval_programs(prog.ops, prog.args, n, up, rel, fal, vals, out)
    return out


def eval_packed(pm: PackedModel, f: Formula, classical_diamond: bool = False) -> int:
    """Truth mask of f over a single packed model."""
    _check_worlds(pm.n)
    prog = compile_formula(f, {p: k for k, p in enumerate(pm.props)}, classical_diamond)
    return _kernel.eval_model(prog.ops, prog.args, pm.n, pm.up, pm.rel, pm.fallible, pm.vals)


class EvalContext:
    """Memoized evaluation against one immutable model.

    Truth masks are cached per (formula, diamond clause); entries never
    change once written, so contexts can be shared between readers.
    """

    def __init__(self, model: KripkeModel):
        self.model = model
        self._packed = model.packed
        self._memo: dict[tuple[Formula, bool], int] = {}

    def mask(self, f: Formula, classical_diamond: bool = False) -> int:
        key = (f, classical_diamond)
        cached = self._memo.get(key)
        if cached is None:
            cached = eval_packed(self._packed, f, classical_diamond)
            self._memo[key] = cached
        return cached

    def eval(self, world: str, f: Formula, classical_diamond: bool = False) -> bool:
        i = self.model.index(world)
        return bool((self.mask(f, classical_diamond) >> i) & 1)

    def valid(self, f: Formula, classical_diamond: bool = False) -> bool:
        full = (1 << self._packed.n) - 1
        return self.mask(f, classical_diamond) == full


def truth_mask(m: KripkeModel, f: Formula, classical_diamond: bool = False) -> int:
    return eval_packed(m.packed, f, classical_diamond)


def eval_formula(m: KripkeModel, world: str, f: Formula) -> bool:
    """Truth of f at a world, guarded diamond clause."""
    i = m.index(world)
    return bool((truth_mask(m, f) >> i) & 1)


def valid_in_model(m: KripkeModel, f: Formula) -> bool:
    """True iff f holds at every world of m."""
    return truth_mask(m, f) == (1 << len(m.worlds)) - 1


def eval_diamond_unguarded(m: KripkeModel, world: str, f: Formula) -> bool:
    """Truth of f at a world with the classical (existential) diamond clause."""
    i = m.index(world)
    return bool((truth_mask(m, f, classical_diamond=True) >> i) & 1)
