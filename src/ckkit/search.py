"""Finite model enumeration and bounded countermodel search.

Models are enumerated over labeled worlds w1..wn, n up to the bound:
every preorder, every modal relation satisfying the requested class and
frame constraints, every forward-closed fallible set, and every monotone
valuation extending it, each exactly once.  Enumeration order is world
count ascending, then the preorder by bitmask, then the relation, then
the fallible set, then the valuation, so searches are deterministic.

The enumeration is doubly exponential; a hard cap (5 worlds, 2
propositions by default) guards against runaway parameters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Callable, Iterable, Iterator, Union

import numpy as np

from .formula import Formula, render
from .kripke import (
    KripkeModel,
    PackedModel,
    bits,
    is_backward_confluent,
    is_forward_confluent,
    is_symmetric,
    transitive_closure,
)
from .semantics import eval_packed_batch

__all__ = [
    "EnumParams",
    "Counterexample",
    "NoneFound",
    "SearchVerdict",
    "EnumerationCapError",
    "enumerate_models",
    "enumerate_packed",
    "count_preorders",
    "find_countermodel",
    "compare_classes",
    "ClassComparison",
    "sample_models",
]

CLASSES = ("CK", "CKB", "IK", "IKB")

_CHUNK = 4096


class EnumerationCapError(ValueError):
    pass


@dataclass(frozen=True)
class EnumParams:
    """Bounds and filters for model enumeration.

    class_filter picks one of CK/CKB/IK/IKB; the require_* flags compose
    extra frame constraints on top (e.g. symmetric CK models).  The IK
    and IKB classes force allow_fallible off.  frame_predicate is an
    optional hook called with each candidate model.
    """

    max_worlds: int
    props: tuple[str, ...] = ()
    class_filter: str = "CK"
    allow_fallible: bool = True
    require_symmetric: bool = False
    require_forward_confluent: bool = False
    require_backward_confluent: bool = False
    frame_predicate: Callable[[KripkeModel], bool] | None = field(default=None, compare=False)
    cap_worlds: int = 5
    cap_props: int = 2

    def __post_init__(self):
        if self.class_filter not in CLASSES:
            raise ValueError(f"unknown class {self.class_filter!r}")
        if self.max_worlds < 1:
            raise ValueError("max_worlds must be at least 1")
        if self.max_worlds > self.cap_worlds:
            raise EnumerationCapError(
                f"max_worlds={self.max_worlds} exceeds the cap of {self.cap_worlds}"
            )
        if len(self.props) > self.cap_props:
            raise EnumerationCapError(
                f"{len(self.props)} propositions exceed the cap of {self.cap_props}"
            )
        object.__setattr__(self, "props", tuple(self.props))
        if self.class_filter in ("IK", "IKB"):
            object.__setattr__(self, "allow_fallible", False)

    def frame_constraints(self) -> tuple[bool, bool, bool]:
        sym = self.require_symmetric or self.class_filter in ("CKB", "IKB")
        fwd = self.require_forward_confluent or self.class_filter in ("CKB", "IK", "IKB")
        bwd = self.require_backward_confluent or self.class_filter in ("CKB", "IK", "IKB")
        return sym, fwd, bwd


# ---------------------------------------------------------------------------
# frame enumeration

def _preorders(n: int) -> list[tuple[int, ...]]:
    """All reflexive-transitive relations on n worlds, ascending bitmask order."""
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for choice in range(1 << len(offdiag)):
        rows = [1 << i for i in range(n)]
        for b, (i, j) in enumerate(offdiag):
            if (choice >> b) & 1:
                rows[i] |= 1 << j
        if transitive_closure(rows) == rows:
            out.append(tuple(rows))
    # off-diagonal bit b maps to a higher full-mask bit than bit b - 1, so
    # ascending choice is ascending full-bitmask order
    return out


_preorder_cache: dict[int, list[tuple[int, ...]]] = {}


def preorders(n: int) -> list[tuple[int, ...]]:
    got = _preorder_cache.get(n)
    if got is None:
        got = _preorders(n)
        _preorder_cache[n] = got
    return got


def count_preorders(n: int) -> int:
    return len(preorders(n))


def _rel_masks(n: int, symmetric: bool) -> Iterator[int]:
    if not symmetric:
        yield from range(1 << (n * n))
        return
    free = [(i, i) for i in range(n)] + [(i, j) for i in range(n) for j in range(i + 1, n)]
    masks = []
    for choice in range(1 << len(free)):
        mask = 0
        for b, (i, j) in enumerate(free):
            if (choice >> b) & 1:
                mask |= (1 << (i * n + j)) | (1 << (j * n + i))
        masks.append(mask)
    masks.sort()
    yield from masks


def _rows_of(mask: int, n: int) -> tuple[int, ...]:
    full = (1 << n) - 1
    return tuple((mask >> (i * n)) & full for i in range(n))


_frame_cache: dict[tuple[int, bool, bool, bool], list[tuple[tuple[int, ...], tuple[int, ...]]]] = {}


def _iter_frames(
    n: int, sym: bool, fwd: bool, bwd: bool
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(preorder rows, relation rows) pairs in enumeration order."""
    key = (n, sym, fwd, bwd)
    cached = _frame_cache.get(key)
    if cached is not None:
        yield from cached
        return
    collect = n <= 3
    acc: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for up in preorders(n):
        for mask in _rel_masks(n, sym):
            rel = _rows_of(mask, n)
            if fwd and not is_forward_confluent(up, rel):
                continue
            if bwd and not is_backward_confluent(up, rel):
                continue
            if collect:
                acc.append((up, rel))
            yield up, rel
    if collect:
        _frame_cache[key] = acc


def _upclosed_sets(up: tuple[int, ...], n: int) -> list[int]:
    out = []
    for s in range(1 << n):
        if all(up[w] & ~s == 0 for w in bits(s)):
            out.append(s)
    return out


def _fallible_options(
    up: tuple[int, ...], rel: tuple[int, ...], n: int, allow: bool
) -> list[int]:
    if not allow:
        return [0]
    out = []
    for s in range(1 << n):
        if all((up[w] | rel[w]) & ~s == 0 for w in bits(s)):
            out.append(s)
    return out


def enumerate_packed(params: EnumParams) -> Iterator[PackedModel]:
    """Bitmask-level model stream; see module docstring for the order."""
    sym, fwd, bwd = params.frame_constraints()
    nprops = len(params.props)
    for n in range(1, params.max_worlds + 1):
        for up, rel in _iter_frames(n, sym, fwd, bwd):
            ucl = _upclosed_sets(up, n)
            for fal in _fallible_options(up, rel, n, params.allow_fallible):
                vsets = [s for s in ucl if s & fal == fal]
                for assignment in product(vsets, repeat=nprops):
                    pm = PackedModel(
                        n=n, up=up, rel=rel, fallible=fal,
                        props=params.props, vals=assignment,
                    )
                    if params.frame_predicate is not None:
                        if not params.frame_predicate(pm.to_model()):
                            continue
                    yield pm


def enumerate_models(params: EnumParams) -> Iterator[KripkeModel]:
    """Validated-model stream matching the class filter, each model once."""
    for pm in enumerate_packed(params):
        yield pm.to_model()


# ---------------------------------------------------------------------------
# countermodel search

@dataclass(frozen=True)
class Counterexample:
    model: KripkeModel
    world: str


@dataclass(frozen=True)
class NoneFound:
    max_worlds: int
    props: tuple[str, ...]
    models_examined: int


SearchVerdict = Union[Counterexample, NoneFound]


def find_countermodel(f: Formula, params: EnumParams) -> SearchVerdict:
    """First model (in enumeration order) and world where f fails, if any."""
    examined = 0
    chunk: list[PackedModel] = []

    def scan(models: list[PackedModel]):
        masks = eval_packed_batch(models, f)
        n = models[0].n
        full = (1 << n) - 1
        hits = np.flatnonzero(masks != np.uint64(full))
        if hits.size:
            pm = models[int(hits[0])]
            failing = full & ~int(masks[hits[0]])
            world_index = next(bits(failing))
            return Counterexample(model=pm.to_model(), world=pm.world_names()[world_index])
        return None

    for pm in enumerate_packed(params):
        if chunk and (len(chunk) >= _CHUNK or chunk[0].n != pm.n):
            found = scan(chunk)
            if found is not None:
                return found
            examined += len(chunk)
            chunk = []
        chunk.append(pm)
    if chunk:
        found = scan(chunk)
        if found is not None:
            return found
        examined += len(chunk)
    return NoneFound(
        max_worlds=params.max_worlds, props=params.props, models_examined=examined
    )


@dataclass(frozen=True)
class ClassComparison:
    formula: Formula
    verdict_a: SearchVerdict
    verdict_b: SearchVerdict

    @property
    def mismatch(self) -> bool:
        return isinstance(self.verdict_a, Counterexample) != isinstance(
            self.verdict_b, Counterexample
        )

    def summary(self) -> str:
        def tag(v: SearchVerdict) -> str:
            return "COUNTEREXAMPLE" if isinstance(v, Counterexample) else "NONE"

        flag = "MISMATCH" if self.mismatch else "agree"
        return f"{render(self.formula)} | {tag(self.verdict_a)} vs {tag(self.verdict_b)} | {flag}"


def compare_classes(
    formulas: Iterable[Formula], a: str, b: str, params: EnumParams
) -> list[ClassComparison]:
    """Run find_countermodel under two model classes at the same bounds."""
    out = []
    for f in formulas:
        pa = replace(params, class_filter=a)
        pb = replace(params, class_filter=b)
        out.append(
            ClassComparison(f, find_countermodel(f, pa), find_countermodel(f, pb))
        )
    return out


# ---------------------------------------------------------------------------
# random sampling (for the large-world soundness spot checks)

def sample_models(
    params: EnumParams, count: int, seed: int = 0, min_worlds: int = 1
) -> list[KripkeModel]:
    """Random models matching the class filter, by rejection sampling.

    Deterministic for a fixed seed.  Sparse preorders are favoured so the
    confluence constraints accept at a usable rate.
    """
    sym, fwd, bwd = params.frame_constraints()
    rng = random.Random(seed)
    out: list[KripkeModel] = []
    attempts = 0
    max_attempts = max(200_000, 5000 * count)
    while len(out) < count:
        attempts += 1
        if attempts > max_attempts:
            raise RuntimeError(
                f"sampling gave up after {attempts} attempts "
                f"({len(out)}/{count} models found)"
            )
        n = rng.randint(min_worlds, params.max_worlds)
        rows = [1 << i for i in range(n)]
        for _ in range(rng.randint(0, n)):
            i, j = rng.randrange(n), rng.randrange(n)
            rows[i] |= 1 << j
        up = tuple(transitive_closure(rows))
        rel = [0] * n
        for i in range(n):
            for j in range(i, n):
                if rng.random() < 0.3:
                    rel[i] |= 1 << j
                    if sym:
                        rel[j] |= 1 << i
                    elif rng.random() < 0.5:
                        rel[j] |= 1 << i
        rel = tuple(rel)
        if sym and not is_symmetric(rel):
            continue
        if fwd and not is_forward_confluent(up, rel):
            continue
        if bwd and not is_backward_confluent(up, rel):
            continue
        fal = 0
        if params.allow_fallible and rng.random() < 0.3:
            fal = 1 << rng.randrange(n)
            while True:
                grown = fal
                for w in bits(fal):
                    grown |= up[w] | rel[w]
                if grown == fal:
                    break
                fal = grown
        vals = []
        for _ in params.props:
            v = fal
            for w in range(n):
                if rng.random() < 0.4:
                    v |= 1 << w
            # close upward for monotonicity
            while True:
                grown = v
                for w in bits(v):
                    grown |= up[w]
                if grown == v:
                    break
                v = grown
            vals.append(v)
        pm = PackedModel(
            n=n, up=up, rel=rel, fallible=fal,
            props=params.props, vals=tuple(vals),
        )
        m = pm.to_model()
        if params.frame_predicate is not None and not params.frame_predicate(m):
            continue
        out.append(m)
    return out
