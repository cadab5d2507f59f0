"""Evaluation of compiled formula programs.

A program is the postfix opcode list that ``semantics.compile_formula``
emits.  Running it gives the formula's truth mask: bit w is set iff
world w forces the formula.  Two evaluators run the same opcodes:

  * ``eval_programs``, over a batch of models packed into uint64 arrays,
    with numpy operations across the model axis;
  * ``eval_model``, over one model's Python ints, where building arrays
    would cost more than the evaluation itself.

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


def _run(ops, args, full, fallible, vals, up, rel, avoid):
    """The opcode semantics, on Python ints and uint64 arrays alike.

    vals[a] is the extension of prop a, and avoid(rows, s) the mask of
    worlds w with rows[w] & s == 0.  The masks are combined only with
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


def eval_programs(ops, args, n, up, rel, fallible, vals, out):
    """Run the program over every model; out[i] gets the truth mask of model i.

    up and rel are (models, n) arrays of successor rows, fallible is
    (models,) and vals (models, props), all uint64.
    """
    weights = np.uint64(1) << np.arange(n, dtype=np.uint64)

    def avoid(rows_t, s):
        return weights @ ((rows_t & s) == 0)

    out[:] = _run(
        ops, args, np.uint64((1 << n) - 1), fallible, vals.T,
        np.ascontiguousarray(up.T), np.ascontiguousarray(rel.T), avoid,
    )


def eval_model(ops, args, n, up, rel, fallible, vals) -> int:
    """Truth mask of the program over one model given as ints and int tuples."""

    def avoid(rows, s):
        m = 0
        for w in range(n):
            if not rows[w] & s:
                m |= 1 << w
        return m

    return _run(ops, args, (1 << n) - 1, fallible, vals, up, rel, avoid)
