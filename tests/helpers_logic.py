"""Independent oracles and mutation generators used across the test suite.

Everything here is deliberately written from the definitions, without
going through the package's bitmask kernel or proof search, so it can
serve as a second opinion.
"""

import random
from collections import defaultdict
from functools import lru_cache, reduce
from itertools import product

from ckkit.formula import (
    And,
    Atom,
    Box,
    Diamond,
    FALSE,
    Falsum,
    Implies,
    Or,
    analyze,
)
from ckkit.kripke import ModelDescription, validate_model
from ckkit.proofkit import AxiomInst, MP, Nec, ProofScript, Taut

# ---------------------------------------------------------------------------
# slow recursive forcing over a KripkeModel (reference for the kernel)


@lru_cache(maxsize=1024)
def successor_lists(pairs):
    """Each world's successors under a relation given as a frozenset of pairs."""
    succ = defaultdict(list)
    for a, v in pairs:
        succ[a].append(v)
    return dict(succ)


def force(m, w, f, classical_diamond=False):
    if isinstance(f, Atom):
        return w in m.valuation.get(f.name, m.fallible)
    if isinstance(f, Falsum):
        return w in m.fallible
    if isinstance(f, And):
        return force(m, w, f.left, classical_diamond) and force(m, w, f.right, classical_diamond)
    if isinstance(f, Or):
        return force(m, w, f.left, classical_diamond) or force(m, w, f.right, classical_diamond)
    up = successor_lists(m.order).get
    succ = successor_lists(m.relation).get
    if isinstance(f, Implies):
        return all(
            not force(m, v, f.left, classical_diamond) or force(m, v, f.right, classical_diamond)
            for v in up(w, ())
        )
    if isinstance(f, Box):
        return all(
            force(m, u, f.inner, classical_diamond)
            for v in up(w, ())
            for u in succ(v, ())
        )
    if isinstance(f, Diamond):
        if classical_diamond:
            return any(force(m, u, f.inner, True) for u in succ(w, ()))
        return all(
            any(force(m, u, f.inner, False) for u in succ(v, ()))
            for v in up(w, ())
        )
    raise TypeError(f)


def wide_model(n, seed):
    """A model of n worlds w0..w{n-1}, for any n: the order a random tree
    rooted at w0, sparse random R, props p and q, some fallible worlds."""
    rng = random.Random(seed)
    parent = [rng.randrange(i) for i in range(1, n)]  # of worlds 1..n-1
    above = [{i} for i in range(n)]
    for i in reversed(range(1, n)):
        above[parent[i - 1]] |= above[i]
    fallible = above[rng.randrange(n // 2, n)]
    # 2n random R edges, less those that would leave the fallible worlds
    rel = [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)]
    rel = [(a, b) for a, b in rel if a not in fallible or b in fallible]
    valuation = {
        p: fallible.union(*(above[rng.randrange(n)] for _ in range(5))) for p in ("p", "q")
    }
    name = lambda i: f"w{i}"
    return validate_model(ModelDescription(
        worlds=tuple(map(name, range(n))),
        fallible=tuple(map(name, fallible)),
        order_pairs=tuple((name(parent[i - 1]), name(i)) for i in range(1, n)),
        rel_pairs=tuple((name(a), name(b)) for a, b in rel),
        valuation={p: tuple(map(name, ws)) for p, ws in valuation.items()},
    ))


# ---------------------------------------------------------------------------
# exhaustive rooted-Kripke oracle for intuitionistic propositional logic


def rooted_preorders(n):
    """Reflexive-transitive relations on range(n) with 0 below every world."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bitsel in product((0, 1), repeat=len(pairs)):
        rel = {(i, i) for i in range(n)}
        rel.update(p for p, b in zip(pairs, bitsel) if b)
        if any((0, j) not in rel for j in range(n)):
            continue
        if any(
            (i, k) not in rel
            for (i, j) in rel
            for (j2, k) in rel
            if j == j2
        ):
            continue
        yield rel


def upclosed_subsets(rel, n):
    for sel in product((0, 1), repeat=n):
        s = {i for i in range(n) if sel[i]}
        if all(v in s for w in s for (a, v) in rel if a == w):
            yield s


def ipc_forces(rel, val, w, f):
    if isinstance(f, Atom):
        return w in val[f.name]
    if isinstance(f, Falsum):
        return False
    if isinstance(f, And):
        return ipc_forces(rel, val, w, f.left) and ipc_forces(rel, val, w, f.right)
    if isinstance(f, Or):
        return ipc_forces(rel, val, w, f.left) or ipc_forces(rel, val, w, f.right)
    if isinstance(f, Implies):
        return all(
            not ipc_forces(rel, val, v, f.left) or ipc_forces(rel, val, v, f.right)
            for (a, v) in rel
            if a == w
        )
    raise TypeError(f"oracle handles propositional formulas only: {f}")


def abstract_modal(f, table=None):
    """Replace maximal box/diamond subformulas by fresh atoms (shared by identity)."""
    if table is None:
        table = {}
    if isinstance(f, (Box, Diamond)):
        if f not in table:
            table[f] = Atom(f"_m{len(table)}")
        return table[f]
    if isinstance(f, (Atom, Falsum)):
        return f
    ctor = type(f)
    return ctor(abstract_modal(f.left, table), abstract_modal(f.right, table))


def ipc_oracle_valid(f, max_worlds=3):
    """IPC validity by exhaustive countermodel search over rooted models."""
    f = abstract_modal(f)
    atoms = sorted(analyze(f).atoms)
    for n in range(1, max_worlds + 1):
        for rel in rooted_preorders(n):
            subsets = list(upclosed_subsets(rel, n))
            for assignment in product(subsets, repeat=len(atoms)):
                val = dict(zip(atoms, assignment))
                if not ipc_forces(rel, val, 0, f):
                    return False
    return True


def de_bruijn(n, tag="p"):
    """ILTP SYJ201 (de Bruijn): 2n+1 atoms in a cycle of equivalences; an IPC theorem."""
    m = 2 * n + 1
    ps = [Atom(f"{tag}{i}") for i in range(1, m + 1)]
    c = reduce(And, ps)

    def iff(a, b):
        return And(Implies(a, b), Implies(b, a))

    return Implies(reduce(And, [Implies(iff(ps[i], ps[(i + 1) % m]), c) for i in range(m)]), c)


def pigeonhole(n, tag="p"):
    """ILTP SYJ202 (PHP_n): n+1 pigeons in n holes share a hole; an IPC theorem."""
    def p(i, j):
        return Atom(f"{tag}{i}h{j}")

    left = reduce(And, [reduce(Or, [p(i, j) for j in range(1, n + 1)]) for i in range(1, n + 2)])
    right = reduce(Or, [
        And(p(i, j), p(k, j))
        for j in range(1, n + 1) for i in range(1, n + 2) for k in range(i + 1, n + 2)
    ])
    return Implies(left, right)


# ---------------------------------------------------------------------------
# proof-script mutations


def formula_mutations(f):
    """All single-connective edits of a formula."""
    if isinstance(f, And):
        yield Or(f.left, f.right)
        for g in formula_mutations(f.left):
            yield And(g, f.right)
        for g in formula_mutations(f.right):
            yield And(f.left, g)
    elif isinstance(f, Or):
        yield And(f.left, f.right)
        for g in formula_mutations(f.left):
            yield Or(g, f.right)
        for g in formula_mutations(f.right):
            yield Or(f.left, g)
    elif isinstance(f, Implies):
        yield And(f.left, f.right)
        for g in formula_mutations(f.left):
            yield Implies(g, f.right)
        for g in formula_mutations(f.right):
            yield Implies(f.left, g)
    elif isinstance(f, Box):
        yield Diamond(f.inner)
        for g in formula_mutations(f.inner):
            yield Box(g)
    elif isinstance(f, Diamond):
        yield Box(f.inner)
        for g in formula_mutations(f.inner):
            yield Diamond(g)
    elif isinstance(f, Atom):
        yield FALSE


def _with_step(script, k, step):
    steps = list(script.steps)
    steps[k] = step
    return ProofScript(logic=script.logic, steps=tuple(steps), goal=script.goal)


SCHEMA_POOL = ("K_BOX", "K_DIA", "B_BOX", "B_DIA", "FS", "DP", "N")


def script_mutations(script):
    """Single-step corruptions: index shifts, schema renames, connective edits."""
    for k, step in enumerate(script.steps):
        if isinstance(step, MP):
            for field in ("i", "j"):
                orig = getattr(step, field)
                for shifted in (orig - 1, orig + 1):
                    if 1 <= shifted <= k and shifted != orig:
                        kwargs = {"i": step.i, "j": step.j, "formula": step.formula}
                        kwargs[field] = shifted
                        yield f"step {k + 1}: {field} -> {shifted}", _with_step(script, k, MP(**kwargs))
        if isinstance(step, Nec):
            for shifted in (step.i - 1, step.i + 1):
                if 1 <= shifted <= k and shifted != step.i:
                    yield f"step {k + 1}: i -> {shifted}", _with_step(
                        script, k, Nec(shifted, step.formula)
                    )
        if isinstance(step, AxiomInst):
            for other in SCHEMA_POOL:
                if other != step.name:
                    yield f"step {k + 1}: schema -> {other}", _with_step(
                        script, k, AxiomInst(other, step.assignment, step.formula)
                    )
        for g in formula_mutations(step.formula):
            if isinstance(step, Taut):
                mutated = Taut(g)
            elif isinstance(step, AxiomInst):
                mutated = AxiomInst(step.name, step.assignment, g)
            elif isinstance(step, MP):
                mutated = MP(step.i, step.j, g)
            else:
                mutated = Nec(step.i, g)
            yield f"step {k + 1}: formula edit", _with_step(script, k, mutated)


# ---------------------------------------------------------------------------
# formula texts nested to a given depth, one per way of nesting

NESTINGS = ("~", "[]", "<>", "&", "|", "->", "(->)", "~()", "true")


def nested_text(how, depth):
    """Text of a formula with `depth` connectives on its deepest branch."""
    if how in ("&", "|", "->"):
        return f" {how} ".join(["p"] * (depth + 1))
    if how == "(->)":  # left-nested implications, one parenthesis less
        return "(" * (depth - 1) + "p" + " -> p)" * (depth - 1) + " -> p"
    if how == "~()":  # a parenthesis under every negation
        return "~(" * depth + "p" + ")" * depth
    if how == "true":  # true is false -> false
        return "[]" * (depth - 1) + "true"
    return how * depth + "p"
