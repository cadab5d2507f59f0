"""Evaluation of compiled formula programs.

A program is the postfix opcode list that ``semantics.compile_formula``
emits.  Running it gives the formula's truth mask: bit w is set iff
world w forces the formula.  Two evaluators run the same opcodes:

  * ``eval_programs``, over a batch of models packed into uint64 arrays,
    with numpy operations across the model axis;
  * ``eval_model``, over one model's Python ints, where building arrays
    would cost more than the evaluation itself.

Every modal opcode asks, for a relation given by its successor rows and
a set s of worlds, for the mask of worlds w with rows[w] & s == 0.  On
one frame that depends on s alone, so the batch kernel reads it from the
frame's avoid table (``avoid_tables``), 2**n masks indexed by s: one
gather per opcode across all models.  The tables grow as 2**n, so
batches have at most ``MAX_BATCH_WORLDS`` worlds (2 KB per frame and
relation); the one-model path has no world cap.

Opcodes (args is the atom's prop index for OP_ATOM, -1 for a proposition
missing from the model's valuation, unused otherwise):

  0 ATOM   push V(P) (or the fallible mask if the prop is unknown)
  1 FALSUM push the fallible mask
  2 AND    bitwise and
  3 OR     bitwise or
  4 IMP    w set iff every <=-successor of w in A is in B
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


def _run(ops, args, full, fallible, vals, up, rel, avoid):
    """The opcode semantics, on Python ints and uint64 arrays alike.

    vals[a] is the extension of prop a, and avoid(rows, s) the mask of
    worlds w with rows[w] & s == 0, where rows stands for up or rel:
    successor rows for eval_model, avoid tables for eval_programs.  The
    masks are combined only with &, | and ^, which act the same on both
    kinds of operand.
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
            push(avoid(up, pop() & (full ^ b)))
        elif op == OP_BOX:
            push(avoid(up, full ^ avoid(rel, full ^ pop())))
        elif op == OP_DIA:
            push(avoid(up, avoid(rel, pop())))
        elif op == OP_DIAC:
            push(full ^ avoid(rel, pop()))
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


def eval_programs(ops, args, n, up, rel, fallible, vals, out, frame):
    """Run the program over every model; out[i] gets the truth mask of model i.

    up and rel are the frames' avoid tables (see avoid_tables), frame
    (models,) is each model's frame index, fallible (models,) and vals
    (models, props) are uint64 masks.
    """
    # base is uint64 like the masks, since numpy 1 and 2 alike promote
    # int64 | uint64 to float64; base | s is then read as int64 indices
    base = frame.astype(np.uint64) << np.uint64(n)

    def avoid(table, s):
        return table.take((base | s).view(np.int64))

    out[:] = _run(ops, args, np.uint64((1 << n) - 1), fallible, vals.T, up, rel, avoid)


def eval_model(ops, args, n, up, rel, fallible, vals) -> int:
    """Truth mask of the program over one model given as ints and int tuples."""

    def avoid(rows, s):
        m = 0
        for w in range(n):
            if not rows[w] & s:
                m |= 1 << w
        return m

    return _run(ops, args, (1 << n) - 1, fallible, vals, up, rel, avoid)
