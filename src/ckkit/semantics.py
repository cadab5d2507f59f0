"""Formula evaluation over birelational models.

Truth clauses at a world w:

  * atoms: w in V(P); falsum: w fallible;
  * and/or pointwise;
  * implication: every <=-successor forcing the antecedent forces the
    consequent;
  * box: all R-successors of all <=-successors force the body;
  * diamond (guarded clause, the implemented semantics): every
    <=-successor of w has an R-successor forcing the body.

``classical_diamond=True`` (to ``eval_packed``, ``eval_packed_batch`` or
``EvalContext``) takes the classical existential diamond clause instead,
throughout the formula; on forward-confluent models the two agree.

Formulas are compiled to postfix programs and evaluated for all worlds
at once as bitmasks, by one of the two evaluators in ckkit._kernel:

  * ``eval_packed_batch`` runs the numpy batch kernel, ``eval_programs``,
    over a ``ModelBatch`` from the enumerator (the countermodel search) or
    over a list of ``PackedModel``s, which ``ModelBatch.of`` packs first.
    It takes a formula, or a ``Program`` compiled for the batch's prop
    order, so that a search compiles its formula once;
  * ``eval_packed`` and everything built on it (``EvalContext``,
    ``eval_formula``, ``valid_in_model``) evaluates one model's Python
    ints with ``eval_model``.

A ``ModelBatch`` holds each frame's rows and the tables of its four
modal operations once, and each model's masks tagged with its frame
index in the bits above n (see ``_kernel``); ``ModelBatch.of`` makes
one frame of each run of consecutive models on equal rows.  Batches
have at most ``_kernel.MAX_BATCH_WORLDS`` (8) worlds; single models
have no cap, since ``eval_model`` works on Python ints, which have no
width.
``compile_formula`` is a loop over ``formula._postorder``, so formulas
built in code compile and evaluate at any depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import _kernel
from ._kernel import (
    OP_AND,
    OP_ATOM,
    OP_BOX,
    OP_DIA,
    OP_DIAC,
    OP_FALSUM,
    OP_IMP,
    OP_OR,
    modal_tables,
)
from .formula import And, Atom, Box, Diamond, Falsum, Formula, Implies, Or, _postorder
from .kripke import KripkeModel, PackedModel

__all__ = [
    "Program",
    "compile_formula",
    "ModelBatch",
    "eval_packed",
    "eval_packed_batch",
    "EvalContext",
    "eval_formula",
    "valid_in_model",
]

@dataclass(frozen=True)
class Program:
    ops: tuple[int, ...]
    args: tuple[int, ...]


_OPCODES = {Atom: OP_ATOM, Falsum: OP_FALSUM, And: OP_AND, Or: OP_OR, Implies: OP_IMP, Box: OP_BOX}
_OPCODES_GUARDED = {**_OPCODES, Diamond: OP_DIA}
_OPCODES_CLASSICAL = {**_OPCODES, Diamond: OP_DIAC}


def compile_formula(
    f: Formula, prop_index: Mapping[str, int], classical_diamond: bool = False
) -> Program:
    """Postfix-compile f; atoms missing from prop_index read the fallible mask."""
    opcodes = _OPCODES_CLASSICAL if classical_diamond else _OPCODES_GUARDED
    ops: list[int] = []
    args: list[int] = []
    for g in _postorder(f):
        op = opcodes[type(g)]
        ops.append(op)
        args.append(prop_index.get(g.name, -1) if op == OP_ATOM else 0)
    return Program(ops=tuple(ops), args=tuple(args))


@dataclass(frozen=True, eq=False)
class ModelBatch:
    """Models of one world count and prop list, grouped by frame.

    up and rel (frames, n) uint64 are the frames' successor rows, and
    up_avoid, box_table, dia_table and diac_table their tagged tables
    (``_kernel.modal_tables``).  fallible (models,) and vals (models,
    props) are each model's masks, tagged with its frame index f as
    (f << n) | mask; ``models()`` and ``checked_model(k)`` strip the tag.  The
    tables and the tagged masks are int64.
    """

    n: int
    props: tuple[str, ...]
    up: np.ndarray
    rel: np.ndarray
    up_avoid: np.ndarray
    box_table: np.ndarray
    dia_table: np.ndarray
    diac_table: np.ndarray
    fallible: np.ndarray
    vals: np.ndarray

    @classmethod
    def of(cls, models: Sequence[PackedModel]) -> ModelBatch:
        """Batch of a non-empty list of packed models of at most _kernel.MAX_BATCH_WORLDS worlds."""
        n, props = models[0].n, models[0].props
        if any(pm.n != n or pm.props != props for pm in models):
            raise ValueError("batch models must share world count and proposition list")
        # a bit at or above n, or a negative mask, would be read as part of the frame tag
        if any(m >> n for pm in models for m in (*pm.up, *pm.rel, pm.fallible, *pm.vals)):
            raise ValueError(f"batch masks must have no bits beyond world count {n}")
        return cls(n, props, *_pack_arrays(models))

    def __len__(self) -> int:
        return len(self.fallible)

    def models(self) -> Iterator[PackedModel]:
        """The batch's models in order; models on one frame share its row tuples."""
        n, full = self.n, (1 << self.n) - 1
        frames = [(tuple(u), tuple(r)) for u, r in zip(self.up.tolist(), self.rel.tolist())]
        for fal, vals in zip(self.fallible.tolist(), self.vals.tolist()):
            up, rel = frames[fal >> n]
            yield PackedModel(n, up, rel, fal & full, self.props, tuple(v & full for v in vals))

    def checked_model(self, k: int) -> KripkeModel:
        """The k-th model as ``to_model()`` makes it, canonical and checked, packed once."""
        n, full = self.n, (1 << self.n) - 1
        fal = int(self.fallible[k])
        f = fal >> n
        return KripkeModel.of(
            n, tuple(self.up[f].tolist()), tuple(self.rel[f].tolist()),
            fal & full, self.props, tuple(v & full for v in self.vals[k].tolist()),
        )


def _batch_arrays(n: int, nprops: int, frames, counts, fallible, vals) -> tuple[np.ndarray, ...]:
    """Read-only ModelBatch arrays after n and props, of counts[i] models on frames[i] = (up, rel)."""
    up, rel = (np.array(rows, dtype=np.uint64) for rows in zip(*frames))
    tag = np.arange(len(counts), dtype=np.int64).repeat(counts) << n
    fallible = tag | np.array(fallible, dtype=np.int64)
    vals = tag[:, None] | np.array(vals, dtype=np.int64).reshape(len(fallible), nprops)
    arrays = up, rel, *modal_tables(up, rel, n), fallible, vals
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _pack_arrays(models: Sequence[PackedModel]) -> tuple[np.ndarray, ...]:
    """ModelBatch arrays after n and props, one frame per run of models on equal rows."""
    runs = [(frame, len(list(run))) for frame, run in groupby(models, lambda pm: (pm.up, pm.rel))]
    frames, counts = zip(*runs)
    return _batch_arrays(
        models[0].n, len(models[0].props), frames, counts,
        [pm.fallible for pm in models], [pm.vals for pm in models],
    )


def eval_packed_batch(
    models: ModelBatch | Sequence[PackedModel], f: Formula | Program, classical_diamond: bool = False
) -> np.ndarray:
    """Truth masks of f over a batch, or a list of models sharing world count and props.

    f may be given compiled, so that a search over many batches compiles
    it once.  The Program must then be compiled for the batch's prop
    order, ``compile_formula(f, {p: k for k, p in enumerate(models.props)},
    classical_diamond)``: atoms are read by position, and nothing checks
    the order.  A Program carries its diamond clause, so classical_diamond
    must then be left False.
    """
    if not isinstance(models, ModelBatch):
        if not models:
            return np.empty(0, dtype=np.uint64)
        models = ModelBatch.of(models)
    if isinstance(f, Program):
        if classical_diamond:
            raise ValueError("a Program carries its diamond clause; compile it with classical_diamond")
        prog = f
    else:
        prog = compile_formula(f, {p: k for k, p in enumerate(models.props)}, classical_diamond)
    out = np.empty(len(models), dtype=np.uint64)
    _kernel.eval_programs(
        prog.ops, prog.args, models.n, models.up_avoid,
        (models.box_table, models.dia_table, models.diac_table), models.fallible, models.vals, out,
    )
    return out


def eval_packed(pm: PackedModel, f: Formula, classical_diamond: bool = False) -> int:
    """Truth mask of f over a single packed model."""
    prog = compile_formula(f, {p: k for k, p in enumerate(pm.props)}, classical_diamond)
    return _kernel.eval_model(prog.ops, prog.args, pm.n, pm.up, pm.rel, pm.fallible, pm.vals)


class EvalContext:
    """Memoized evaluation against one immutable model.

    Truth masks are cached per (formula, diamond clause); entries never
    change once written, so contexts can be shared between readers.
    """

    def __init__(self, model: KripkeModel):
        self.model = model
        self._memo: dict[tuple[Formula, bool], int] = {}

    def mask(self, f: Formula, classical_diamond: bool = False) -> int:
        key = (f, classical_diamond)
        cached = self._memo.get(key)
        if cached is None:
            cached = eval_packed(self.model.packed, f, classical_diamond)
            self._memo[key] = cached
        return cached

    def eval(self, world: str, f: Formula, classical_diamond: bool = False) -> bool:
        i = self.model.index(world)
        return bool((self.mask(f, classical_diamond) >> i) & 1)


def eval_formula(m: KripkeModel, world: str, f: Formula) -> bool:
    """Truth of f at a world, guarded diamond clause."""
    return bool((eval_packed(m.packed, f) >> m.index(world)) & 1)


def valid_in_model(m: KripkeModel, f: Formula) -> bool:
    """True iff f holds at every world of m."""
    return eval_packed(m.packed, f) == (1 << len(m.worlds)) - 1
