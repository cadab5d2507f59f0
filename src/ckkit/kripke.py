"""Birelational Kripke models with fallible worlds.

A model is a tuple (W, W_bot, <=, R, V): a nonempty set of worlds, a
subset of fallible worlds, a reflexive-transitive intuitionistic order,
a modal relation, and a monotone valuation.  Well-formedness conditions:

  * <= is reflexive and transitive;
  * w <= v and w in V(P) implies v in V(P)        (monotonicity);
  * W_bot is a subset of V(P) for every P          (saturation);
  * w in W_bot and (w <= v or w R v) implies v in W_bot  (fallible closure).

A world name is non-empty and holds no whitespace, ``~``, ``<=``, ``"``
or ``\\``, so that the .km and DOT texts carry it; a proposition name is
one that ``formula.parse`` reads as an atom (``formula.is_atom_name``).
A ``KripkeModel`` is one value, its canonical ``PackedModel``, and it
checks all of this on its masks when it is made, however it is made,
reporting every violation, not just the first.  ``validate_model``
packs a description of named worlds into those masks; the name sets a
``KripkeModel`` shows are derived from the masks when read.
``frame_report`` computes symmetry and the two confluence conditions
and derives class membership from ``CLASSES``.
The golden model ``figure2_model`` is the shipped ``data/fig2.km``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from importlib import resources
from itertools import chain
from types import MappingProxyType
from typing import Iterator, Mapping

from .formula import is_atom_name

__all__ = [
    "CLASSES",
    "KripkeModel",
    "PackedModel",
    "ModelDescription",
    "ModelValidationError",
    "FrameReport",
    "validate_model",
    "frame_report",
    "figure2_model",
    "parse_model_description",
    "load_model",
    "format_model",
    "export_dot",
    "bits",
    "transitive_closure",
    "is_symmetric",
    "is_forward_confluent",
    "is_backward_confluent",
]

# The four model classes, each by its frame conditions: name -> (R
# symmetric, forward and backward confluent, no fallible worlds).
CLASSES: dict[str, tuple[bool, bool, bool]] = {
    "CK": (False, False, False),
    "CKB": (True, True, False),
    "IK": (False, True, True),
    "IKB": (True, True, True),
}


# ---------------------------------------------------------------------------
# bitmask helpers (shared with search and semantics)

def bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def transitive_closure(rows: list[int]) -> list[int]:
    """Transitive closure of a relation given as successor bitmask rows."""
    rows = list(rows)
    n = len(rows)
    for k in range(n):
        bk = 1 << k
        for i in range(n):
            if rows[i] & bk:
                rows[i] |= rows[k]
    return rows


def _in_rows(rows: tuple[int, ...] | list[int]) -> list[int]:
    """Predecessor rows: _in_rows(r)[v] = {w : v in r[w]}."""
    n = len(rows)
    cols = [0] * n
    for w in range(n):
        for v in bits(rows[w]):
            cols[v] |= 1 << w
    return cols


def is_symmetric(rel: tuple[int, ...] | list[int]) -> bool:
    n = len(rel)
    for w in range(n):
        for v in bits(rel[w]):
            if not (rel[v] >> w) & 1:
                return False
    return True


def is_forward_confluent(up: tuple[int, ...] | list[int], rel: tuple[int, ...] | list[int]) -> bool:
    """w R v and w <= w' implies some v' with v <= v' and w' R v'."""
    n = len(up)
    for w in range(n):
        rw = rel[w]
        if not rw:
            continue
        for wp in bits(up[w]):
            rwp = rel[wp]
            for v in bits(rw):
                if not (rwp & up[v]):
                    return False
    return True


def is_backward_confluent(up: tuple[int, ...] | list[int], rel: tuple[int, ...] | list[int]) -> bool:
    """w R v and v <= v' implies some w' with w <= w' and w' R v'."""
    n = len(up)
    rin = _in_rows(rel)
    for w in range(n):
        for v in bits(rel[w]):
            uw = up[w]
            for vp in bits(up[v]):
                if not (uw & rin[vp]):
                    return False
    return True


# ---------------------------------------------------------------------------
# models

_BAD_WORLD_NAME = re.compile(r'^$|\s|~|<=|"|\\')


class ModelValidationError(ValueError):
    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("model is not well-formed:\n  " + "\n  ".join(self.violations))


@dataclass(frozen=True)
class PackedModel:
    """Bitmask encoding of a model over worlds indexed 0..n-1.

    up[i] is the mask of <=-successors of world i (including i itself),
    rel[i] the mask of R-successors, fallible the mask of fallible worlds,
    vals[k] the extension of props[k]; empty names stand for w1..wn.
    """

    n: int
    up: tuple[int, ...]
    rel: tuple[int, ...]
    fallible: int
    props: tuple[str, ...]
    vals: tuple[int, ...]
    names: tuple[str, ...] = ()

    def to_model(self) -> "KripkeModel":
        """The model of these masks, canonical: tuples, world names filled in, props sorted.

        Raises ModelValidationError when the masks are not a well-formed model.
        """
        return KripkeModel.of(self.n, self.up, self.rel, self.fallible, self.props, self.vals, self.names)


def _duplicates(names: tuple[str, ...]) -> list[str]:
    """A violation for each repeat of a world name."""
    return [f"duplicate world {w!r}" for i, w in enumerate(names) if names.index(w) < i]


def _violations(pm: PackedModel) -> list[str]:
    """Each way pm fails to be a canonical, well-formed model (module docstring)."""
    n, names, up, rel, fal, props, vals = pm.n, pm.names, pm.up, pm.rel, pm.fallible, pm.props, pm.vals
    if n < 1:
        return ["empty world set"]
    fields = [("order rows", up), ("relation rows", rel), ("props", props), ("valuations", vals),
              ("world names", names)]
    out = [f"{what} not a tuple" for what, seq in fields if not isinstance(seq, tuple)]
    if out:  # models hash and compare by their masks; a list neither hashes nor equals a tuple
        return out
    counts = [(len(up), "order rows"), (len(rel), "relation rows"), (len(names), "world names")]
    out = [f"{k} {what} for {n} worlds" for k, what in counts if k != n]
    if len(vals) != len(props):
        out.append(f"{len(vals)} valuations for {len(props)} props")
    every = (*up, *rel, fal, *vals)
    if min(every) < 0 or max(every) >> n:
        masks = [("order", up), ("relation", rel), ("fallible", (fal,)), ("valuation", vals)]
        out += [f"{what} mask has bits beyond world count {n}" for what, ms in masks if any(m >> n for m in ms)]
    if out:  # the checks below index rows by world and walk the bits of masks
        return out
    out = _duplicates(names) if len(set(names)) < n else []
    out += [f"bad world name {w!r}" for w in names if _BAD_WORLD_NAME.search(w)]
    if list(props) != sorted(set(props)):
        out.append(f"props not sorted and distinct: {props}")
    out += [f"bad proposition name {p!r}" for p in props if not is_atom_name(p)]
    out += [f"order not reflexive at {names[i]!r}" for i in range(n) if not (up[i] >> i) & 1]
    for i, row in enumerate(transitive_closure(up)):
        for j in bits(row & ~up[i]):
            out.append(f"order not transitive: {names[i]!r} reaches {names[j]!r} indirectly only")
    for p, v in zip(props, vals):
        for i in bits(v):
            for j in bits(up[i] & ~v):
                out.append(f"valuation not monotone: {names[i]!r} <= {names[j]!r} "
                           f"but only {names[i]!r} is in V({p})")
        for i in bits(fal & ~v):
            out.append(f"fallible world {names[i]!r} missing from V({p})")
    for i in bits(fal):
        for j in bits((up[i] | rel[i]) & ~fal):
            out.append(f"fallible set not closed: {names[i]!r} reaches non-fallible {names[j]!r}")
    return out


def _pairs(names: tuple[str, ...], rows: tuple[int, ...]) -> Iterator[tuple[str, str]]:
    """The pairs (a, b) of world names with b in the row of a."""
    for i, row in enumerate(rows):
        for j in bits(row):
            yield names[i], names[j]


@dataclass(frozen=True)
class KripkeModel:
    """A well-formed model: ``packed`` in tuples, with world names filled in and props sorted.

    Every model is checked when it is made, by ``validate_model``,
    ``PackedModel.to_model``, ``KripkeModel(pm)``, ``dataclasses.replace``,
    unpickling or copying, and a ModelValidationError lists every violation.
    Equal models have equal masks.  The views below are derived from
    ``packed`` on first use.
    """

    packed: PackedModel

    def __post_init__(self):
        violations = _violations(self.packed)
        if violations:
            raise ModelValidationError(violations)

    @classmethod
    def of(cls, n, up, rel, fallible, props, vals, names=()) -> KripkeModel:
        """The model of these masks, canonical (see ``PackedModel.to_model``), packed once."""
        sorted_props, vals = tuple(sorted(props)), tuple(vals)
        if len(props) == len(vals):  # else the model reports the mismatch
            val_of = dict(zip(props, vals))
            vals = tuple(val_of[p] for p in sorted_props)
        names = tuple(names) or tuple(f"w{i + 1}" for i in range(n))
        return cls(PackedModel(n, tuple(up), tuple(rel), fallible, sorted_props, vals, names))

    def __reduce__(self):
        # the cached views hold a mapping proxy, which does not pickle
        return KripkeModel, (self.packed,)

    @property
    def worlds(self) -> tuple[str, ...]:
        return self.packed.names

    @cached_property
    def fallible(self) -> frozenset[str]:
        return frozenset(self.worlds[i] for i in bits(self.packed.fallible))

    @cached_property
    def order(self) -> frozenset[tuple[str, str]]:
        return frozenset(_pairs(self.worlds, self.packed.up))

    @cached_property
    def relation(self) -> frozenset[tuple[str, str]]:
        return frozenset(_pairs(self.worlds, self.packed.rel))

    @cached_property
    def valuation(self) -> Mapping[str, frozenset[str]]:
        masks = zip(self.packed.props, self.packed.vals)
        return MappingProxyType({p: frozenset(self.worlds[i] for i in bits(v)) for p, v in masks})

    @cached_property
    def _index(self) -> dict[str, int]:
        return {w: i for i, w in enumerate(self.worlds)}

    def index(self, world: str) -> int:
        try:
            return self._index[world]
        except KeyError:
            raise KeyError(f"unknown world {world!r}") from None


@dataclass(frozen=True)
class ModelDescription:
    """Raw, unvalidated model data as read from a .km file or built by hand."""

    worlds: tuple[str, ...]
    fallible: tuple[str, ...] = ()
    order_pairs: tuple[tuple[str, str], ...] = ()
    rel_pairs: tuple[tuple[str, str], ...] = ()
    valuation: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    close_order: bool = True


def validate_model(desc: ModelDescription) -> KripkeModel:
    """The model desc describes, its order closed when desc.close_order is set.

    Raises ModelValidationError listing every violation.  An empty world
    set, duplicate world names and references to unknown worlds stop the
    check before the description is packed; the model checks the rest.
    """
    if not desc.worlds:
        raise ModelValidationError(["empty world set"])
    refs = [(desc.fallible, "fallible set"), (chain(*desc.order_pairs), "intuitionistic order"),
            (chain(*desc.rel_pairs), "modal relation")]
    refs += [(ws, f"valuation of {p}") for p, ws in desc.valuation.items()]
    idx = {w: i for i, w in enumerate(desc.worlds)}
    violations = _duplicates(desc.worlds)
    violations += [f"unknown world {w!r} in {where}" for ws, where in refs for w in ws if w not in idx]
    if violations:
        raise ModelValidationError(violations)

    def mask(ws) -> int:
        return sum(1 << idx[w] for w in set(ws))

    n = len(desc.worlds)
    up = [1 << i if desc.close_order else 0 for i in range(n)]
    rel = [0] * n
    for rows, pairs in ((up, desc.order_pairs), (rel, desc.rel_pairs)):
        for a, b in pairs:
            rows[idx[a]] |= 1 << idx[b]
    if desc.close_order:
        up = transitive_closure(up)
    return PackedModel(
        n, tuple(up), tuple(rel), mask(desc.fallible), tuple(desc.valuation),
        tuple(map(mask, desc.valuation.values())), tuple(desc.worlds),
    ).to_model()


# ---------------------------------------------------------------------------
# frame reports

@dataclass(frozen=True)
class FrameReport:
    symmetric: bool
    forward_confluent: bool
    backward_confluent: bool
    fallible_r_back_closed: bool
    classes: frozenset[str]


def frame_report(m: KripkeModel) -> FrameReport:
    """Frame properties by exhaustive quantifier checking, plus class membership."""
    pm = m.packed
    sym = is_symmetric(pm.rel)
    fwd = is_forward_confluent(pm.up, pm.rel)
    bwd = is_backward_confluent(pm.up, pm.rel)
    back_closed = all(
        not (pm.fallible >> v) & 1 or (pm.fallible >> w) & 1
        for w in range(pm.n)
        for v in bits(pm.rel[w])
    )
    holds = (sym, fwd and bwd, pm.fallible == 0)
    classes = frozenset(
        name for name, needs in CLASSES.items()
        if all(h or not need for h, need in zip(holds, needs))
    )
    return FrameReport(
        symmetric=sym,
        forward_confluent=fwd,
        backward_confluent=bwd,
        fallible_r_back_closed=back_closed,
        classes=classes,
    )


# ---------------------------------------------------------------------------
# file format

class ModelFormatError(ValueError):
    pass


def parse_model_description(text: str) -> ModelDescription:
    """Parse the line-oriented .km model format.

    Keys: worlds, fallible, preceq, preceq-closure, rel, val.  Lines
    starting with '#' are comments; unknown keys, and a second worlds,
    fallible or preceq-closure line, are errors.
    """
    worlds: tuple[str, ...] = ()
    fallible: tuple[str, ...] = ()
    order_pairs: list[tuple[str, str]] = []
    rel_pairs: list[tuple[str, str]] = []
    valuation: dict[str, tuple[str, ...]] = {}
    close_order = True
    seen: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ModelFormatError(f"line {lineno}: expected 'key: value', got {line!r}")
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key in ("worlds", "fallible", "preceq-closure"):
            if key in seen:
                raise ModelFormatError(f"line {lineno}: repeated '{key}:' line")
            seen.add(key)
        if key == "worlds":
            worlds = tuple(value.split())
        elif key == "fallible":
            fallible = tuple(value.split())
        elif key in ("preceq", "rel"):
            sep, pairs = ("<=", order_pairs) if key == "preceq" else ("~", rel_pairs)
            for item in value.split():
                if sep not in item:
                    raise ModelFormatError(f"line {lineno}: bad {key} pair {item!r}")
                a, _, b = item.partition(sep)
                pairs.append((a, b))
        elif key == "preceq-closure":
            if value not in ("on", "off"):
                raise ModelFormatError(f"line {lineno}: preceq-closure must be on or off")
            close_order = value == "on"
        elif key == "val":
            if "=" not in value:
                raise ModelFormatError(f"line {lineno}: expected 'val: P = worlds...'")
            prop, _, ws = value.partition("=")
            prop = prop.strip()
            if not prop:
                raise ModelFormatError(f"line {lineno}: missing proposition name")
            if prop in valuation:
                raise ModelFormatError(f"line {lineno}: duplicate valuation for {prop!r}")
            valuation[prop] = tuple(ws.split())
        else:
            raise ModelFormatError(f"line {lineno}: unknown key {key!r}")
    if "worlds" not in seen:
        raise ModelFormatError("missing 'worlds:' line")
    return ModelDescription(
        worlds=worlds,
        fallible=fallible,
        order_pairs=tuple(order_pairs),
        rel_pairs=tuple(rel_pairs),
        valuation=valuation,
        close_order=close_order,
    )


def load_model(path, close_order: bool | None = None) -> KripkeModel:
    """Read, parse and validate a .km file; close_order overrides the file directive."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        desc = parse_model_description(fh.read())
    if close_order is not None:
        desc = replace(desc, close_order=close_order)
    return validate_model(desc)


def format_model(m: KripkeModel) -> str:
    """Serialize a model in the .km format; round-trips through parse + validate."""
    pm, names = m.packed, m.worlds
    lines = [
        "worlds: " + " ".join(names),
        "fallible: " + " ".join(names[i] for i in bits(pm.fallible)),
        "preceq-closure: on",
        "preceq: " + " ".join(
            f"{a}<={b}" for a, b in sorted(_pairs(names, pm.up)) if a != b
        ),
        "rel: " + " ".join(f"{a}~{b}" for a, b in sorted(_pairs(names, pm.rel))),
    ]
    for p, mask in zip(pm.props, pm.vals):
        lines.append(f"val: {p} = " + " ".join(names[i] for i in bits(mask)))
    return "\n".join(lines) + "\n"


def figure2_model() -> KripkeModel:
    """The shipped ``data/fig2.km``, parsed and validated like any ``.km`` file."""
    text = (resources.files(__package__) / "data" / "fig2.km").read_text(encoding="utf-8")
    return validate_model(parse_model_description(text))


# ---------------------------------------------------------------------------
# DOT export

def _order_cover_edges(m: KripkeModel) -> list[tuple[str, str]]:
    """Dashed edges to draw for <=: transitive reduction, cycles kept as cycles."""
    up, names = m.packed.up, m.worlds
    same = [u & d for u, d in zip(up, _in_rows(up))]  # each world's class of mutual <=
    reps = [w for w in range(m.packed.n) if same[w] & -same[w] == 1 << w]  # lowest of each
    rep_mask = sum(1 << w for w in reps)
    above = [u & ~s & rep_mask for u, s in zip(up, same)]  # the classes strictly above, by rep
    edges: list[tuple[str, str]] = []
    for w in reps:
        ring = list(bits(same[w]))
        edges += [(names[a], names[b]) for a, b in zip(ring, ring[1:] + ring[:1]) if a != b]
    for w in reps:
        covered = 0
        for v in bits(above[w]):
            covered |= above[v]
        edges += [(names[w], names[v]) for v in bits(above[w] & ~covered)]
    return edges


def export_dot(m: KripkeModel) -> str:
    """DOT graph: fallible worlds double-circled, <= dashed (reduced), R solid."""
    lines = ["digraph model {"]
    for w in m.worlds:
        shape = "doublecircle" if w in m.fallible else "circle"
        lines.append(f'  "{w}" [shape={shape}];')
    for a, b in _order_cover_edges(m):
        lines.append(f'  "{a}" -> "{b}" [style=dashed];')
    for a, b in sorted(m.relation):
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
