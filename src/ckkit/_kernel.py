"""Evaluation of compiled formula programs.

A program is the postfix opcode list that ``semantics.compile_formula``
emits.  Running it gives the formula's truth mask: bit w is set iff
world w forces the formula.  Two evaluators run the same opcodes:

  * ``eval_programs``, over a batch of models packed into int64 arrays,
    with numpy operations across the model axis;
  * ``eval_model``, over one model's Python ints, where building arrays
    would cost more than the evaluation itself.

IMP, BOX, DIA and DIAC each apply one of the four operations of
``modal_ops`` to a set s of worlds.  Each is written with the avoid
function of a relation, the mask of worlds w with rows[w] & s == 0 for
successor rows standing for up or rel; ``eval_model`` walks the rows.
On one frame an operation depends on s alone, so the batch kernel reads
it from a table (``modal_tables``).  A batch's masks are tagged: each
model's masks carry its frame index f in the bits above n, as
(f << n) | mask, and every table maps a tagged set (f << n) | s to the
tagged mask (f << n) | op_f(s).  So each modal opcode is one gather
across all models, &, | and ^ full keep the tag, and ``eval_programs``
strips it from the result.  The tables are built once per batch by
running ``modal_ops`` over every tagged set, with the gather as the
avoid function.  They grow as 2**n, so batches have at most
``MAX_BATCH_WORLDS`` worlds (2 KB per frame and table); the one-model
path has no world cap.

Opcodes (args is the atom's prop index for OP_ATOM, -1 for a proposition
missing from the model's valuation, unused otherwise):

  0 ATOM   push V(P) (or the fallible mask if the prop is unknown)
  1 FALSUM push the fallible mask
  2 AND    bitwise and
  3 OR     bitwise or
  4 IMP    w set iff every <=-successor of w in A is in B: up(A & ~B)
  5 BOX    w set iff all R-successors of all <=-successors of w are in A
  6 DIA    guarded diamond: w set iff every <=-successor of w has an
           R-successor in A
  7 DIAC   classical diamond: w set iff some R-successor of w is in A
"""

import numpy as np

OP_ATOM = 0
OP_FALSUM = 1
OP_AND = 2
OP_OR = 3
OP_IMP = 4
OP_BOX = 5
OP_DIA = 6
OP_DIAC = 7

MAX_BATCH_WORLDS = 8


def modal_ops(full, up, rel, avoid):
    """The modal operations: IMP's up, then BOX, DIA and DIAC, each of a set s.

    avoid(rows, s) is the mask of worlds w with rows[w] & s == 0, where
    rows stands for up or rel.  full is the mask of all worlds.
    """
    return (
        lambda s: avoid(up, s),
        lambda s: avoid(up, full ^ avoid(rel, full ^ s)),
        lambda s: avoid(up, avoid(rel, s)),
        lambda s: full ^ avoid(rel, s),
    )


def _run(ops, args, full, fallible, vals, up, box, dia, diac):
    """The opcode semantics, on Python ints and int64 arrays alike.

    vals[a] is the extension of prop a, and up, box, dia and diac are
    the four operations of modal_ops.  The masks are combined only with
    &, | and ^, which act the same on both kinds of operand.
    """
    stack = []
    push = stack.append
    pop = stack.pop
    for op, a in zip(ops, args):
        if op == OP_ATOM:
            push(vals[a] if a >= 0 else fallible)
        elif op == OP_FALSUM:
            push(fallible)
        elif op == OP_AND:
            b = pop()
            push(pop() & b)
        elif op == OP_OR:
            b = pop()
            push(pop() | b)
        elif op == OP_IMP:
            b = pop()
            push(up(pop() & (full ^ b)))
        elif op == OP_BOX:
            push(box(pop()))
        elif op == OP_DIA:
            push(dia(pop()))
        elif op == OP_DIAC:
            push(diac(pop()))
        else:
            raise ValueError(f"bad opcode {op}")
    return stack[-1]


def avoid_tables(rows, n: int):
    """Avoid tables of frames given by their successor rows, (frames, n) uint64.

    Returns a (frames << n,) uint64 array whose entry (f << n) | s is the
    mask of worlds w with rows[f, w] & s == 0.
    """
    if n > MAX_BATCH_WORLDS:
        raise ValueError(f"at most {MAX_BATCH_WORLDS} worlds supported in a batch")
    weights = np.uint64(1) << np.arange(n, dtype=np.uint64)
    # lacks[f, v]: the worlds whose row in frame f lacks world v
    lacks = weights @ ((rows[:, :, None] & weights) == 0)
    # table[s | 1 << v] = table[s] & lacks[v] for every s below 1 << v
    table = np.full((len(rows), 1), (1 << n) - 1, dtype=np.uint64)
    for v in range(n):
        table = np.concatenate([table, table & lacks[:, v : v + 1]], axis=1)
    return table.reshape(-1)


def modal_tables(up, rel, n: int):
    """Tagged tables of modal_ops on frames given by their successor rows, (frames, n) uint64.

    Returns the up, BOX, DIA and DIAC tables, each a (frames << n,)
    int64 array whose entry (f << n) | s is (f << n) | op_f(s).  They are
    int64, not uint64, so that take reads a tagged mask as an index
    without a cast.
    """
    tagged = np.arange(len(up) << n, dtype=np.int64)
    tag = tagged >> n << n
    up_t, rel_t = (tag | avoid_tables(rows, n).view(np.int64) for rows in (up, rel))
    return [op(tagged) for op in modal_ops((1 << n) - 1, up_t, rel_t, np.take)]


def eval_programs(ops, args, n, up, modal, fallible, vals, out):
    """Run the program over every model; out[i] gets the truth mask of model i.

    up is the up table and modal the BOX, DIA and DIAC tables of
    modal_tables; fallible (models,) and vals (models, props) are the
    models' tagged masks, int64.  out (models,) is uint64.
    """
    full = (1 << n) - 1
    box, dia, diac = modal
    tagged = _run(ops, args, full, fallible, vals.T, up.take, box.take, dia.take, diac.take)
    np.bitwise_and(tagged, full, out=out, casting="unsafe")


def eval_model(ops, args, n, up, rel, fallible, vals) -> int:
    """Truth mask of the program over one model given as ints and int tuples."""

    def avoid(rows, s):
        m = 0
        for w in range(n):
            if not rows[w] & s:
                m |= 1 << w
        return m

    full = (1 << n) - 1
    return _run(ops, args, full, fallible, vals, *modal_ops(full, up, rel, avoid))
