"""Per-layer tracing from outside the program.

The tracer replaces module attributes of ckkit with timing wrappers, at
the place where the caller looks each one up (``search.enumerate_packed``
is read from the ``search`` module by ``find_countermodel``, so that is
the attribute wrapped).  Nothing under ``src/`` is edited.

A span is ``(id, name, layer, start, end, parent, op, busy, child)``:
``busy`` is the time the span's code ran (its duration, except for a
generator, whose span runs from creation to close but is busy only while
resumed), ``child`` the busy time of its direct children.  Self time is
``busy - child``; calls are sequential, so children never overlap.
Spans stay in memory and are written once, when the run ends.

A wrap point whose attribute no longer exists is recorded as absent and
skipped, so a refactor that deletes a function leaves the benchmark
runnable; the metrics of that point then read 0 and the absence is
listed in the run's result file.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

LAYERS = ("formula", "axioms", "kripke", "search", "semantics", "_kernel", "proofkit", "cli")

# (module, attribute path, layer, kind); kind is "call", "gen" or "count".
WRAPS = (
    ("ckkit.cli", "main", "cli", "call"),
    ("ckkit.cli", "parse", "formula", "call"),
    ("ckkit.formula", "parse", "formula", "call"),
    ("ckkit.proofkit", "substitute", "formula", "call"),
    ("ckkit.proofkit", "schema", "axioms", "call"),
    ("ckkit.proofkit", "logic_axioms", "axioms", "call"),
    ("ckkit.proofkit", "metavariables", "axioms", "call"),
    ("ckkit.kripke", "parse_model_description", "kripke", "call"),
    ("ckkit.kripke", "validate_model", "kripke", "call"),
    ("ckkit.kripke", "frame_report", "kripke", "call"),
    ("ckkit.kripke", "format_model", "kripke", "call"),
    ("ckkit.kripke", "export_dot", "kripke", "call"),
    ("ckkit.kripke", "PackedModel.to_model", "kripke", "call"),
    ("ckkit.search", "find_countermodel", "search", "call"),
    ("ckkit.search", "compare_classes", "search", "call"),
    ("ckkit.search", "enumerate_packed", "search", "gen"),
    ("ckkit.search", "eval_packed_batch", "semantics", "call"),
    ("ckkit.semantics", "eval_packed_batch", "semantics", "call"),
    ("ckkit.semantics", "compile_formula", "semantics", "call"),
    ("ckkit.semantics", "_pack_arrays", "semantics", "call"),
    ("ckkit._kernel", "eval_programs", "_kernel", "call"),
    ("ckkit.proofkit", "ipc_valid", "proofkit", "call"),
    ("ckkit.proofkit", "check_proof", "proofkit", "call"),
    ("ckkit.proofkit", "_prove", "proofkit", "count"),
)

_clock = time.perf_counter


def _resolve(module_name: str, path: str):
    """(owner, attribute name, current value) or None when any part is missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, parts[-1], None)
    if value is None or not callable(value):
        return None
    return owner, parts[-1], value


class Tracer:
    """Span recorder; ``install`` wraps every point of ``WRAPS`` that exists."""

    def __init__(self, space_size=None):
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self.op = -1
        self.counts: dict[str, int] = defaultdict(int)
        # search space size for a find_countermodel call, from its params
        self._space_size = space_size
        self._next_id = 0
        self._stack: list[list] = []  # frames [id, child busy time]

    # -- span bookkeeping -------------------------------------------------

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        frame = [sid, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame, name, layer, start, end, busy):
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += busy
        self.spans.append(
            (frame[0], name, layer, start, end, parent[0] if parent else -1, self.op, busy, frame[1])
        )

    def span(self, name: str, layer: str):
        """Context manager for a span around benchmark code (one per op)."""
        return _Span(self, name, layer)

    # -- wrappers ---------------------------------------------------------

    def _wrap_call(self, name, layer, fn, before):
        def wrapper(*args, **kwargs):
            if before is not None:
                try:
                    before(args, kwargs)
                except (TypeError, KeyError, IndexError, AttributeError):
                    pass  # a changed signature loses the count, not the call
            frame = self._open()
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                self._close(frame, name, layer, start, end, end - start)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_gen(self, name, layer, fn):
        tracer = self
        counts = self.counts

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            # The generator's span is a child of the span that created it.
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            created = _clock()
            busy = 0.0
            yielded = 0
            try:
                while True:
                    tracer._stack.append(frame)
                    t0 = _clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        dt = _clock() - t0
                        busy += dt
                        tracer._stack.pop()
                        if parent is not None:
                            parent[1] += dt
                    yielded += 1
                    yield item
            finally:
                it.close()
                counts[name + ".yielded"] += yielded
                tracer.spans.append(
                    (frame[0], name, layer, created, _clock(),
                     parent[0] if parent else -1, tracer.op, busy, frame[1])
                )

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_count(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _before(self, name):
        counts = self.counts
        if name == "_kernel.eval_programs":
            def before(args, kwargs):
                ops = args[0] if args else kwargs["ops"]
                out = args[7] if len(args) > 7 else kwargs["out"]
                counts["model_ops"] += len(ops) * len(out)
            return before
        if name.endswith(".eval_packed_batch"):
            def before(args, kwargs):
                models = args[0] if args else kwargs["models"]
                counts["batch_models"] += len(models)
            return before
        if name == "search.find_countermodel" and self._space_size is not None:
            space_size = self._space_size

            def before(args, kwargs):
                params = args[1] if len(args) > 1 else kwargs["params"]
                size = space_size(params)
                if size is not None:
                    counts["space"] += size
                    counts["space_calls"] += 1
            return before
        return None

    def install(self) -> list:
        """Wrap every point; returns undo records for ``uninstall``."""
        undo = []
        for module_name, path, layer, kind in WRAPS:
            short = module_name.rsplit(".", 1)[-1]
            name = f"{short}.{path.rsplit('.', 1)[-1]}"
            got = _resolve(module_name, path)
            if got is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            owner, attr, fn = got
            if kind == "call":
                wrapped = self._wrap_call(name, layer, fn, self._before(name))
            elif kind == "gen":
                wrapped = self._wrap_gen(name, layer, fn)
            else:
                wrapped = self._wrap_count(name, fn)
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, fn))
        return undo

    @staticmethod
    def uninstall(undo) -> None:
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)

    # -- results ----------------------------------------------------------

    def busy_by_name(self) -> tuple[dict, dict]:
        busy: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for _sid, name, _layer, _s, _e, _p, _op, b, _c in self.spans:
            busy[name] += b
            calls[name] += 1
        return busy, calls

    def self_by_layer(self) -> dict:
        out: dict[str, float] = defaultdict(float)
        for _sid, _name, layer, _s, _e, _p, _op, b, c in self.spans:
            out[layer] += b - c
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "layer", "start", "end",
                                            "parent", "op", "busy", "child"],
                                 "absent": self.absent}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "layer", "frame", "start")

    def __init__(self, tracer, name, layer):
        self.tracer = tracer
        self.name = name
        self.layer = layer

    def __enter__(self):
        self.frame = self.tracer._open()
        self.start = _clock()
        return self

    def __exit__(self, *exc):
        end = _clock()
        self.tracer._close(self.frame, self.name, self.layer, self.start, end, end - self.start)
        return False
