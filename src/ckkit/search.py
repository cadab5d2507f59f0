"""Finite model enumeration and bounded countermodel search.

Models are enumerated over labeled worlds w1..wn, n up to the bound:
every preorder, every modal relation satisfying the requested class and
frame constraints, every forward-closed fallible set, and every monotone
valuation extending it, each exactly once.  Enumeration order is world
count ascending, then the preorder by bitmask, then the relation, then
the fallible set, then the valuation, so searches are deterministic.

``enumerate_batches`` yields them as ``semantics.ModelBatch``es, the
input of the batch kernel; ``enumerate_packed`` unpacks the same stream.
``find_countermodel`` compiles its formula once, for ``params.props`` in
their given order (the prop order of every batch it scans), passes the
``Program`` to ``eval_packed_batch`` for each batch, and packs only the
countermodel it returns.

Spaces of at most 3 worlds are enumerated once per process: the batches
of each (n, sym, fwd, bwd, whether fallible worlds are allowed, number
of props) are kept in ``_batch_cache`` as read-only arrays (with the
frames' modal tables), with the suspended generator of the rest, which a
later scan resumes.  CKB with one prop takes ~360 KB, all four classes
~8.6 MB, all 144 keys 124 MB.  The cache is not thread-safe.

The enumeration is doubly exponential; a hard cap (5 worlds, 2
propositions) guards against runaway parameters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import cache
from itertools import chain, count, product
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .formula import Formula, atom_names, is_atom_name, render
from .kripke import (
    CLASSES,
    KripkeModel,
    PackedModel,
    bits,
    is_backward_confluent,
    is_forward_confluent,
    transitive_closure,
)
from .semantics import ModelBatch, _batch_arrays, compile_formula, eval_packed_batch

__all__ = [
    "EnumParams",
    "Counterexample",
    "NoneFound",
    "SearchVerdict",
    "EnumerationCapError",
    "enumerate_models",
    "enumerate_packed",
    "enumerate_batches",
    "find_countermodel",
    "compare_classes",
    "ClassComparison",
    "sample_models",
]

CAP_WORLDS = 5
CAP_PROPS = 2
_CHUNK = 4096
_CACHED_WORLDS = 3


class EnumerationCapError(ValueError):
    pass


@dataclass(frozen=True)
class EnumParams:
    """Bounds and filters for model enumeration.

    class_filter names one of ``kripke.CLASSES``, whose frame conditions
    the enumerated models meet; the require_* flags compose extra frame
    constraints on top (e.g. symmetric CK models).
    """

    max_worlds: int
    props: tuple[str, ...] = ()
    class_filter: str = "CK"
    require_symmetric: bool = False
    require_forward_confluent: bool = False
    require_backward_confluent: bool = False

    def __post_init__(self):
        if self.class_filter not in CLASSES:
            raise ValueError(f"unknown class {self.class_filter!r}")
        if not isinstance(self.max_worlds, int) or isinstance(self.max_worlds, bool):
            raise ValueError(f"max_worlds must be an int, not {self.max_worlds!r}")
        if self.max_worlds < 1:
            raise ValueError("max_worlds must be at least 1")
        if self.max_worlds > CAP_WORLDS:
            raise EnumerationCapError(
                f"max_worlds={self.max_worlds} exceeds the cap of {CAP_WORLDS}"
            )
        if isinstance(self.props, str):
            raise ValueError(f"props must be a sequence of names, not the string {self.props!r}")
        try:
            props = tuple(self.props)
        except TypeError:
            raise ValueError(f"props must be a sequence of names, not {self.props!r}") from None
        object.__setattr__(self, "props", props)
        if len(props) > CAP_PROPS:
            raise EnumerationCapError(f"{len(props)} propositions exceed the cap of {CAP_PROPS}")
        if not all(isinstance(p, str) and is_atom_name(p) for p in props) or len(set(props)) < len(props):
            raise ValueError(f"proposition names must be distinct atom names: {props}")

    @property
    def allow_fallible(self) -> bool:
        """Whether models may have fallible worlds: not where the class forbids them."""
        return not CLASSES[self.class_filter][2]

    def check_atoms(self, f: Formula) -> None:
        """Raise ValueError naming the atoms of f that are not among props."""
        missing = atom_names(f).difference(self.props)
        if missing:
            raise ValueError(
                f"atoms not among the props ({', '.join(self.props)}): {', '.join(sorted(missing))}"
            )

    def frame_constraints(self) -> tuple[bool, bool, bool]:
        """Whether R must be symmetric, forward confluent, backward confluent."""
        sym, confluent, _ = CLASSES[self.class_filter]
        return (
            sym or self.require_symmetric,
            confluent or self.require_forward_confluent,
            confluent or self.require_backward_confluent,
        )


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


@cache
def _rel_masks(n: int, symmetric: bool) -> Sequence[int]:
    """Relations on n worlds as n*n-bit masks, ascending; the symmetric ones are built once."""
    if not symmetric:
        return range(1 << (n * n))  # 2^25 at 5 worlds: too many to keep
    free = [(i, i) for i in range(n)] + [(i, j) for i in range(n) for j in range(i + 1, n)]
    masks = []
    for choice in range(1 << len(free)):
        mask = 0
        for b, (i, j) in enumerate(free):
            if (choice >> b) & 1:
                mask |= (1 << (i * n + j)) | (1 << (j * n + i))
        masks.append(mask)
    return tuple(sorted(masks))


def _rows_of(mask: int, n: int) -> tuple[int, ...]:
    full = (1 << n) - 1
    return tuple((mask >> (i * n)) & full for i in range(n))


def _closed_sets(rows: tuple[int, ...] | list[int], n: int) -> list[int]:
    """Sets s of worlds, ascending, with rows[w] inside s for every w in s."""
    # reach[s] is the union of rows over s: that over s minus its lowest world, plus its row
    reach = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        reach[s] = reach[s ^ low] | rows[low.bit_length() - 1]
    return [s for s, r in enumerate(reach) if r & ~s == 0]


def _frame_batches(
    n: int, sym: bool, fwd: bool, bwd: bool, allow_fallible: bool, nprops: int
) -> Iterator[tuple[np.ndarray, ...]]:
    """The n-world models as ModelBatch arrays, in batches of whole frames cut at _CHUNK models."""
    frames, counts, fal, vals = [], [], [], []
    for up in preorders(n):
        ucl = _closed_sets(up, n)
        for mask in _rel_masks(n, sym):
            rel = _rows_of(mask, n)
            if fwd and not is_forward_confluent(up, rel):
                continue
            if bwd and not is_backward_confluent(up, rel):
                continue
            start = len(fal)
            up_or_rel = [u | r for u, r in zip(up, rel)]
            for fs in _closed_sets(up_or_rel, n) if allow_fallible else [0]:
                vsets = [s for s in ucl if s & fs == fs]
                fal += [fs] * len(vsets) ** nprops
                vals += chain.from_iterable(product(vsets, repeat=nprops))
            frames.append((up, rel))
            counts.append(len(fal) - start)
            if len(fal) >= _CHUNK:
                yield _batch_arrays(n, nprops, frames, counts, fal, vals)
                frames, counts, fal, vals = [], [], [], []
    if fal:
        yield _batch_arrays(n, nprops, frames, counts, fal, vals)


# (n, sym, fwd, bwd, allow_fallible, len(props)) -> (batches built so far, generator of the rest)
_batch_cache: dict[tuple, tuple[list, Iterator]] = {}


def _cached_batches(key: tuple) -> Iterator[tuple[np.ndarray, ...]]:
    """_frame_batches(*key), replaying what is built and keeping what is built next."""
    entry = _batch_cache.get(key)
    if entry is None:
        entry = _batch_cache[key] = ([], _frame_batches(*key))
    built, rest = entry
    for i in count():
        if i == len(built):
            try:
                built.append(next(rest))
            except StopIteration:
                if _batch_cache.get(key) is not entry:  # the generator raised under another reader
                    raise RuntimeError("model enumeration was interrupted") from None
                return
            except BaseException:
                _batch_cache.pop(key, None)  # never replay a truncated stream as complete
                raise
        yield built[i]


def enumerate_batches(params: EnumParams) -> Iterator[ModelBatch]:
    """The model stream in batches of whole frames, cut at _CHUNK models or a new n."""
    sym, fwd, bwd = params.frame_constraints()
    for n in range(1, params.max_worlds + 1):
        key = (n, sym, fwd, bwd, params.allow_fallible, len(params.props))
        batches = _cached_batches(key) if n <= _CACHED_WORLDS else _frame_batches(*key)
        for arrays in batches:
            yield ModelBatch(n, params.props, *arrays)


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
    """First model (in enumeration order) and world where f fails, if any.

    Raises ValueError when f has atoms that are not among params.props.
    """
    params.check_atoms(f)
    prog = compile_formula(f, {p: k for k, p in enumerate(params.props)})
    examined = 0
    for batch in enumerate_batches(params):
        masks = eval_packed_batch(batch, prog)
        full = (1 << batch.n) - 1
        hits = np.flatnonzero(masks != np.uint64(full))
        if hits.size:
            k = int(hits[0])
            m = batch.checked_model(k)
            world_index = next(bits(full & ~int(masks[k])))
            return Counterexample(model=m, world=m.worlds[world_index])
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
    confluence constraints accept at a usable rate.  Raises ValueError
    unless 1 <= min_worlds <= params.max_worlds.
    """
    if not 1 <= min_worlds <= params.max_worlds:
        raise ValueError(f"min_worlds={min_worlds} is outside 1..max_worlds={params.max_worlds}")
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
            # everything reachable from one world along up and rel
            fal = transitive_closure([u | r for u, r in zip(up, rel)])[rng.randrange(n)]
        vals = []
        for _ in params.props:
            v = fal
            for w in range(n):
                if rng.random() < 0.4:
                    v |= 1 << w
            # close upward for monotonicity; up is transitive, so one pass does
            for w in bits(v):
                v |= up[w]
            vals.append(v)
        pm = PackedModel(
            n=n, up=up, rel=rel, fallible=fal,
            props=params.props, vals=tuple(vals),
        )
        out.append(pm.to_model())
    return out
