"""Finite model enumeration and bounded countermodel search.

Models are enumerated over labeled worlds w1..wn, n up to the bound:
every preorder, every modal relation satisfying the requested class and
frame constraints, every forward-closed fallible set, and every monotone
valuation extending it, each exactly once.  Enumeration order is world
count ascending, then the preorder by bitmask, then the relation, then
the fallible set, then the valuation, so searches are deterministic.

``enumerate_batches`` yields them as ``semantics.ModelBatch``es, the
input of the batch kernel; ``enumerate_packed`` unpacks the same stream.

The enumeration is doubly exponential; a hard cap (5 worlds, 2
propositions) guards against runaway parameters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import cache
from itertools import chain, islice, product
from typing import Iterable, Iterator, Union

import numpy as np

from .formula import Formula, render
from .kripke import (
    KripkeModel,
    PackedModel,
    bits,
    is_backward_confluent,
    is_forward_confluent,
    transitive_closure,
)
from .semantics import ModelBatch, eval_packed_batch

__all__ = [
    "EnumParams",
    "Counterexample",
    "NoneFound",
    "SearchVerdict",
    "EnumerationCapError",
    "enumerate_models",
    "enumerate_packed",
    "enumerate_batches",
    "count_preorders",
    "find_countermodel",
    "compare_classes",
    "ClassComparison",
    "sample_models",
]

CLASSES = ("CK", "CKB", "IK", "IKB")

CAP_WORLDS = 5
CAP_PROPS = 2
_CHUNK = 4096


class EnumerationCapError(ValueError):
    pass


@dataclass(frozen=True)
class EnumParams:
    """Bounds and filters for model enumeration.

    class_filter picks one of CK/CKB/IK/IKB; the require_* flags compose
    extra frame constraints on top (e.g. symmetric CK models).  The IK
    and IKB classes force allow_fallible off.
    """

    max_worlds: int
    props: tuple[str, ...] = ()
    class_filter: str = "CK"
    allow_fallible: bool = True
    require_symmetric: bool = False
    require_forward_confluent: bool = False
    require_backward_confluent: bool = False

    def __post_init__(self):
        if self.class_filter not in CLASSES:
            raise ValueError(f"unknown class {self.class_filter!r}")
        if self.max_worlds < 1:
            raise ValueError("max_worlds must be at least 1")
        if self.max_worlds > CAP_WORLDS:
            raise EnumerationCapError(
                f"max_worlds={self.max_worlds} exceeds the cap of {CAP_WORLDS}"
            )
        if len(self.props) > CAP_PROPS:
            raise EnumerationCapError(
                f"{len(self.props)} propositions exceed the cap of {CAP_PROPS}"
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

@cache
def preorders(n: int) -> list[tuple[int, ...]]:
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


def _closed_sets(rows: tuple[int, ...], n: int) -> list[int]:
    """Sets s of worlds, ascending, with rows[w] inside s for every w in s."""
    return [s for s in range(1 << n) if all(rows[w] & ~s == 0 for w in bits(s))]


def _batch(n, props, frames, index, fal, vals) -> ModelBatch:
    """Batch of models on frames[index[i]] with fal[i] and a row of vals."""
    up, rel = (np.array(rows, dtype=np.uint64)[index] for rows in zip(*frames))
    vals = np.array(vals, dtype=np.uint64).reshape(len(fal), len(props))
    return ModelBatch(n, props, up, rel, np.array(fal, dtype=np.uint64), vals)


def enumerate_batches(params: EnumParams) -> Iterator[ModelBatch]:
    """The model stream in batches of whole frames, cut at _CHUNK models or a new n."""
    sym, fwd, bwd = params.frame_constraints()
    for n in range(1, params.max_worlds + 1):
        frames, index, fal, vals = [], [], [], []
        for up, rel in _iter_frames(n, sym, fwd, bwd):
            ucl = _closed_sets(up, n)
            up_or_rel = [u | r for u, r in zip(up, rel)]
            for fs in _closed_sets(up_or_rel, n) if params.allow_fallible else [0]:
                vsets = [s for s in ucl if s & fs == fs]
                count = len(vsets) ** len(params.props)
                index += [len(frames)] * count
                fal += [fs] * count
                vals += chain.from_iterable(product(vsets, repeat=len(params.props)))
            frames.append((up, rel))
            if len(fal) >= _CHUNK:
                yield _batch(n, params.props, frames, index, fal, vals)
                frames, index, fal, vals = [], [], [], []
        if fal:
            yield _batch(n, params.props, frames, index, fal, vals)


def enumerate_packed(params: EnumParams) -> Iterator[PackedModel]:
    """Bitmask-level model stream; see module docstring for the order."""
    for batch in enumerate_batches(params):
        yield from batch.models()


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
    for batch in enumerate_batches(params):
        masks = eval_packed_batch(batch, f)
        full = (1 << batch.n) - 1
        hits = np.flatnonzero(masks != np.uint64(full))
        if hits.size:
            k = int(hits[0])
            pm = next(islice(batch.models(), k, None))
            world_index = next(bits(full & ~int(masks[k])))
            return Counterexample(model=pm.to_model(), world=pm.world_names()[world_index])
        examined += len(batch)
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
        out.append(pm.to_model())
    return out
