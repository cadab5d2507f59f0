"""Independent checks for the benchmark's outputs.

Written from the definitions, without ckkit's enumeration, kernel or
proof search, so a fast path that goes wrong cannot also fix its own
check.  The recursive forcing oracle ``force`` comes from the test suite
(``tests/helpers_logic.py``), imported read-only.
"""

from __future__ import annotations

import os
import sys
from itertools import product

from ckkit.formula import And, Atom, Box, Diamond, Falsum, Implies, Or

_TESTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests")
if _TESTS not in sys.path:
    sys.path.append(_TESTS)

from helpers_logic import force, script_mutations  # noqa: E402

__all__ = ["force", "script_mutations", "space_size", "classically_valid"]


# ---------------------------------------------------------------------------
# size of the bounded model space searched by find_countermodel

def _subsets(n):
    return range(1 << n)


def _preorders(n):
    """Reflexive-transitive relations on range(n), as sets of pairs."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for choice in product((0, 1), repeat=len(pairs)):
        rel = {(i, i) for i in range(n)} | {p for p, b in zip(pairs, choice) if b}
        if all((a, d) in rel for (a, b) in rel for (c, d) in rel if b == c):
            yield rel


def _relations(n, symmetric):
    pairs = [(i, j) for i in range(n) for j in range(n)]
    for choice in product((0, 1), repeat=len(pairs)):
        rel = {p for p, b in zip(pairs, choice) if b}
        if symmetric and any((b, a) not in rel for (a, b) in rel):
            continue
        yield rel


def _forward_confluent(le, r):
    # w R v and w <= w' imply some v' with v <= v' and w' R v'
    return all(
        any((v, vp) in le for (x, vp) in r if x == wp)
        for (w, v) in r
        for (a, wp) in le
        if a == w
    )


def _backward_confluent(le, r):
    # w R v and v <= v' imply some w' with w <= w' and w' R v'
    return all(
        any((w, wp) in le for (wp, y) in r if y == vp)
        for (w, v) in r
        for (a, vp) in le
        if a == v
    )


def _closed(s, edges):
    """Bitmask set s is closed under the given (a, b) edges."""
    return all((s >> b) & 1 for (a, b) in edges if (s >> a) & 1)


def space_size(class_name: str, max_worlds: int, nprops: int) -> int:
    """Number of models of the class with at most max_worlds labelled worlds.

    A model is a preorder, a modal relation, a fallible set closed under
    both relations (empty for IK and IKB), and per proposition an
    up-closed valuation containing the fallible set.  CKB and IKB need a
    symmetric relation; CKB, IK and IKB need both confluences.
    """
    symmetric = class_name in ("CKB", "IKB")
    confluent = class_name in ("CKB", "IK", "IKB")
    fallible = class_name in ("CK", "CKB")
    total = 0
    for n in range(1, max_worlds + 1):
        for le in _preorders(n):
            upsets = [s for s in _subsets(n) if _closed(s, le)]
            for r in _relations(n, symmetric):
                if confluent and not (_forward_confluent(le, r) and _backward_confluent(le, r)):
                    continue
                falls = [s for s in _subsets(n) if _closed(s, le | r)] if fallible else [0]
                for fal in falls:
                    total += sum(1 for s in upsets if s & fal == fal) ** nprops
    return total


# ---------------------------------------------------------------------------
# classical truth tables, modal subformulas opaque

def _table(f, atoms, width):
    full = (1 << width) - 1
    if isinstance(f, (Atom, Box, Diamond)):
        return atoms[f]
    if isinstance(f, Falsum):
        return 0
    left = _table(f.left, atoms, width)
    right = _table(f.right, atoms, width)
    if isinstance(f, And):
        return left & right
    if isinstance(f, Or):
        return left | right
    if isinstance(f, Implies):
        return (full ^ left) | right
    raise TypeError(f"not a formula: {f!r}")


def _opaque_atoms(f, out):
    if isinstance(f, (Atom, Box, Diamond)):
        out.setdefault(f, len(out))
    elif not isinstance(f, Falsum):
        _opaque_atoms(f.left, out)
        _opaque_atoms(f.right, out)
    return out


def classically_valid(f) -> bool:
    """Truth-table validity; identical box/diamond subformulas share one atom."""
    index = _opaque_atoms(f, {})
    k = len(index)
    width = 1 << k
    atoms = {}
    for g, i in index.items():
        # column i of the truth table, as a bitmask over all 2**k rows
        atoms[g] = sum(1 << row for row in range(width) if (row >> i) & 1)
    return _table(f, atoms, width) == (1 << width) - 1
