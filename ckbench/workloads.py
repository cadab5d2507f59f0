"""The four workloads: inputs from a seed, ops in rounds, output checks.

Each workload object is made in a fresh interpreter and used in three
steps:

* ``setup()`` makes every input from the seed (and does any one-off
  enumeration a user would do once);
* ``run(i)`` performs op ``i`` through ckkit's public entry points and
  returns ``(record, verdict)``: the output kept for checking, and a
  short string for the run's determinism digest;
* ``check(i, record)`` runs after the timed phase and says whether op
  ``i``'s output was right.

Ops come in rounds of ``round_len``: op ``i`` repeats op
``i % round_len`` of the first round (see ``worker.py``).  Records must
be hashable: equal records are stored once.  A workload whose program
memory grows with every op sets ``max_rounds``, so a faster program
cannot make a run exhaust the machine.

Every entry point is read from its module at call time
(``semantics.eval_packed_batch``, not a name bound at import), so the
tracer's wrappers see each call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from collections import defaultdict
from functools import reduce

from ckkit import cli, formula, kripke, proofkit, search, semantics
from ckkit.axioms import SCHEMA_NAMES, instances
from ckkit.formula import (
    FALSE, And, Atom, Box, Diamond, Falsum, Implies, Or, enumerate_formulas, parse, render, subformulas,
)
from oracles import classically_valid, force, script_mutations, space_size

HERE = os.path.dirname(os.path.abspath(__file__))


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=12).hexdigest()


def random_formula(rng: random.Random, size: int, atoms: tuple[str, ...]):
    """Random formula with exactly ``size`` nodes; ``~g`` is ``g -> false``."""
    if size <= 1:
        return FALSE if rng.random() < 0.1 else Atom(rng.choice(atoms))
    if size == 2 or rng.random() < 0.15:
        if size >= 3 and rng.random() < 0.3:
            return Implies(random_formula(rng, size - 2, atoms), FALSE)
        return rng.choice((Box, Diamond))(random_formula(rng, size - 1, atoms))
    left = rng.randint(1, size - 2)
    ctor = rng.choice((And, Or, Implies, Implies))
    return ctor(random_formula(rng, left, atoms), random_formula(rng, size - 1 - left, atoms))


def rename(f, tag: str):
    """``f`` with every atom ``a`` renamed to ``a + tag``."""
    if isinstance(f, Atom):
        return Atom(f.name + tag)
    if isinstance(f, Falsum):
        return f
    if isinstance(f, (Box, Diamond)):
        return type(f)(rename(f.inner, tag))
    return type(f)(rename(f.left, tag), rename(f.right, tag))


class Workload:
    """A seed, and a scratch directory inside the checkout for input files."""

    round_len: int
    max_rounds = math.inf

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir


# ---------------------------------------------------------------------------
# sweep: one model set, many formulas

class Sweep(Workload):
    """Criterion-4 model set enumerated once; each op evaluates one formula.

    Formulas come from ``enumerate_formulas(("p",), 6)``.  The kernel's
    cost is set by a formula's node counts, so slot ``k`` of a round
    draws from the formulas with node counts ``SIGNATURES[k]``: one
    conjunction, one implication, and a box or a diamond.  The two cost
    about the same (0.6 s at the seed commit), so every seed makes the
    same work.  A round is short, so each slot repeats many times in a
    run.
    """

    SIGNATURES = tuple(
        (("And", 1), ("Atom", 1), (modal, 1), ("Falsum", 2), ("Implies", 1)) for modal in ("Box", "Diamond")
    )
    round_len = len(SIGNATURES)
    sample_models = 16  # models per op checked against ``force``

    def setup(self) -> None:
        params = search.EnumParams(max_worlds=3, props=("p",), require_forward_confluent=True)
        by_n: dict[int, list] = defaultdict(list)
        for pm in search.enumerate_packed(params):
            by_n[pm.n].append(pm)
        self.batches = [by_n[n] for n in sorted(by_n)]
        self.model_count = sum(len(b) for b in self.batches)

        strata: dict[tuple, list] = defaultdict(list)
        for f in enumerate_formulas(("p",), 6):
            strata[self._signature(f)].append(f)
        rng = random.Random(self.seed)
        self.formulas = [rng.choice(strata[sig]) for sig in self.SIGNATURES]
        self.samples = [
            [(b, rng.randrange(len(self.batches[b]))) for b in rng.choices(range(len(self.batches)), k=self.sample_models)]
            for _ in self.formulas
        ]

    @staticmethod
    def _signature(f) -> tuple:
        counts: dict[str, int] = defaultdict(int)
        for g in subformulas(f):
            counts[type(g).__name__] += 1
        return tuple(sorted(counts.items()))

    def run(self, i: int):
        slot = i % self.round_len
        f = self.formulas[slot]
        guarded = [semantics.eval_packed_batch(b, f, False) for b in self.batches]
        unguarded = [semantics.eval_packed_batch(b, f, classical_diamond=True) for b in self.batches]
        # Keep digests and a sample, not the arrays, so memory stays flat.
        g = _digest(b"".join(a.tobytes() for a in guarded))
        u = _digest(b"".join(a.tobytes() for a in unguarded))
        picked = tuple((b, k, int(guarded[b][k]), int(unguarded[b][k])) for b, k in self.samples[slot])
        return (g, u, tuple(len(a) for a in guarded), picked), g

    def check(self, i: int, record) -> bool:
        g, u, sizes, picked = record
        f = self.formulas[i % self.round_len]
        if self.model_count != 50_164 or g != u or sizes != tuple(len(b) for b in self.batches):
            return False
        for b, k, gm, um in picked:
            m = self.batches[b][k].to_model()
            for w, name in enumerate(m.worlds):
                if bool((gm >> w) & 1) != force(m, name, f, False):
                    return False
                if bool((um >> w) & 1) != force(m, name, f, True):
                    return False
        return True


# ---------------------------------------------------------------------------
# search: countermodel requests through the CLI

class Search(Workload):
    """A stream of ``ckkit.cli.main`` requests, single and batched.

    Formulas are the 197 instances of the 14 axiom schemas over ``p`` up
    to size 2.  Their expected verdicts at 3 worlds (countermodel or
    none, and the world count of the first countermodel found) are in
    ``data/search_verdicts.json``.  A verdict decides how much of the
    space a search scans, so a round is made by stratum:

    * early exits, countermodels with 1 or 2 worlds: every one of them
      (``EVERY``, 162 requests), so the median request is one of them,
      where CLI overhead, printing the countermodel and the first models
      enumerated all count, and it does not depend on the seed;
    * ``DRAWN``, formulas drawn from the seed: full scans (no
      countermodel) of size-14 CKB and IKB instances, whose cost varies
      little from formula to formula, and one batched
      ``compare-classes`` request of three formulas: one with no
      countermodel under CKB or IKB and two with early exits under
      both.  These are the 12 slowest requests, so the tail falls among
      the full scans.

    The seed also shuffles the round.  CK countermodels with 3 worlds
    (0.1-0.4 s, by formula) would put the tail on whichever the seed
    drew.  Full IK scans (about 1 s) and full CK scans (105,542 models,
    about 5 s) would lengthen a round, and fewer rounds make each
    request's mean latency less steady.  All three stay out.
    """

    EVERY = tuple((cls, f"cex{worlds}") for worlds in (1, 2) for cls in ("CK", "CKB", "IK", "IKB"))
    DRAWN = ((("CKB", "none"), 9), (("IKB", "none"), 2), (("compare", None), 1))

    @staticmethod
    def stratum(text: str, verdict: dict) -> str:
        if verdict["verdict"] == "none":
            return "none" if formula.analyze(parse(text)).size == 14 else "none-small"
        return f"cex{verdict['worlds']}"

    def setup(self) -> None:
        pool = sorted({render(f) for f in instances(SCHEMA_NAMES, ("p",), 2)})
        with open(os.path.join(HERE, "data", "search_verdicts.json"), encoding="utf-8") as fh:
            self.expected = json.load(fh)["verdicts"]
        self.pool_ok = len(pool) == 197 and all(sorted(v) == pool for v in self.expected.values())
        self.space = {c: space_size(c, 3, 1) for c in ("CK", "CKB", "IK", "IKB")}

        strata: dict[tuple, list] = defaultdict(list)
        for cls, table in self.expected.items():
            for text in sorted(table):
                strata[(cls, self.stratum(text, table[text]))].append(text)
        rng = random.Random(self.seed)
        slots = [(cls, text) for cls, stratum in self.EVERY for text in strata[(cls, stratum)]]
        for (cls, stratum), count in self.DRAWN:
            for _ in range(count):
                slots.append((cls, None) if cls == "compare" else (cls, rng.choice(strata[(cls, stratum)])))
        rng.shuffle(slots)
        # A compare request runs one search per formula and class, so its
        # cost follows the verdicts: one formula with a full scan under
        # both classes and two early exits under both keep it steady.
        both = {t: (self.stratum(t, self.expected["CKB"][t]), self.stratum(t, self.expected["IKB"][t])) for t in pool}
        scans = [t for t in pool if both[t] == ("none", "none")]
        exits = [t for t in pool if all(s.startswith("cex") for s in both[t])]
        self.requests = []
        for cls, text in slots:
            if cls == "compare":
                chosen = tuple(rng.sample([rng.choice(scans)] + rng.sample(exits, 2), 3))
                path = os.path.join(self.workdir, f"formulas-{len(self.requests)}.txt")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write("".join(t + "\n" for t in chosen))
                argv = ["compare-classes", "--formulas-file", path, "--class-a", "ckb", "--class-b", "ikb"]
                self.requests.append((argv, ("compare", chosen)))
            else:
                argv = ["find-countermodel", text, "--class", cls.lower(), "--max-worlds", "3"]
                self.requests.append((argv, ("find", cls, text)))
        self.round_len = len(self.requests)

    def space_size(self, params) -> int | None:
        if params.max_worlds != 3 or tuple(params.props) != ("p",):
            return None
        return self.space.get(params.class_filter)

    def run(self, i: int):
        argv, what = self.requests[i % self.round_len]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        text = out.getvalue()
        return (what, code, text, err.getvalue()), f"{code}\n{text}"

    def check(self, i: int, record) -> bool:
        what, code, text, err = record
        if not self.pool_ok or err:
            return False
        lines = text.splitlines()
        if what[0] == "compare":
            chosen = what[1]
            expected_lines = []
            for text_f in chosen:
                tag_a = "COUNTEREXAMPLE" if self.expected["CKB"][text_f]["verdict"] == "cex" else "NONE"
                tag_b = "COUNTEREXAMPLE" if self.expected["IKB"][text_f]["verdict"] == "cex" else "NONE"
                flag = "agree" if tag_a == tag_b else "MISMATCH"
                expected_lines.append(f"{text_f} | {tag_a} vs {tag_b} | {flag}")
            mismatches = sum(line.endswith("MISMATCH") for line in expected_lines)
            return code == 0 and lines == expected_lines + [f"mismatches: {mismatches}"]
        _, cls, text_f = what
        expected = self.expected[cls][text_f]
        if expected["verdict"] == "none":
            return code == 0 and lines == [f"NONE max_worlds=3 examined={self.space[cls]}"]
        if code != 2 or len(lines) < 3 or lines[0] != "COUNTEREXAMPLE" or not lines[-1].startswith("world: "):
            return False
        try:
            m = kripke.validate_model(kripke.parse_model_description("\n".join(lines[1:-1])))
        except ValueError:
            return False
        world = lines[-1][len("world: "):]
        return (
            cls in kripke.frame_report(m).classes
            and len(m.worlds) == expected["worlds"]
            and world in m.worlds
            and not force(m, world, parse(text_f))
        )


# ---------------------------------------------------------------------------
# prove: G4ip verdicts and proof checks

def de_bruijn(n: int, tag: str = "p"):
    """ILTP SYJ201 (de Bruijn): 2n+1 atoms in a cycle; an IPC theorem."""
    m = 2 * n + 1
    ps = [Atom(f"{tag}{i}") for i in range(1, m + 1)]
    c = reduce(And, ps)

    def iff(a, b):
        return And(Implies(a, b), Implies(b, a))

    return Implies(reduce(And, [Implies(iff(ps[i], ps[(i + 1) % m]), c) for i in range(m)]), c)


def pigeonhole(n: int, tag: str = "p"):
    """ILTP SYJ202 (PHP_n): n+1 pigeons in n holes share a hole; an IPC theorem."""
    def p(i, j):
        return Atom(f"{tag}{i}h{j}")

    left = reduce(And, [reduce(Or, [p(i, j) for j in range(1, n + 1)]) for i in range(1, n + 2)])
    right = reduce(Or, [
        And(p(i, j), p(k, j))
        for j in range(1, n + 1) for i in range(1, n + 2) for k in range(i + 1, n + 2)
    ])
    return Implies(left, right)


# (family, n, atom tags): each tag is one slot of a round.  Renamed atoms
# change the order of G4ip's search, so the variants of one formula cost
# differently.  The 11 slots from de Bruijn n = 2 up take 2-50 ms each at
# the seed commit, above any random formula, so the latency tail (the
# 11th slowest slot) falls on them.
FAMILIES = (
    (de_bruijn, 2, "abcd"), (de_bruijn, 3, "abcd"), (de_bruijn, 4, "a"), (de_bruijn, 5, "a"),
    (pigeonhole, 2, "a"), (pigeonhole, 3, "a"),
)


class Prove(Workload):
    """A stream of proof-search verdicts.

    A round is a seeded shuffle of:

    * the family formulas of ``FAMILIES``, all IPC theorems: de Bruijn
      n = 2..5 and pigeonhole PHP_2 and PHP_3;
    * the shipped ``n_in_ckb`` script and its single-step mutants;
    * ``RANDOM`` random formulas of size 10-40 over p, q, r with opaque
      modal subformulas.

    Every round renames the atoms of its formulas, so G4ip's global
    memo cannot answer a repeat from an earlier round: it does the same
    proof search again, and the memo keeps growing, as it would in a
    long-lived process.  PHP_4 (2-3 s and 66k memo entries) cannot
    repeat in every round within a run's time and memory, and PHP_5
    (minutes, most of a GB) even less, so both stay out.  The memo grows
    by about 6 MB a round, which ``max_rounds`` bounds.
    """

    RANDOM = 600
    max_rounds = 60

    def setup(self) -> None:
        script = proofkit.builtin_scripts()["n_in_ckb"]
        self.scripts = [script] + [m for _, m in script_mutations(script)]
        rng = random.Random(self.seed)
        items = [("family", fn(n, tag)) for fn, n, tags in FAMILIES for tag in tags]
        items += [("script", k) for k in range(len(self.scripts))]
        items += [("random", random_formula(rng, rng.randint(10, 40), ("p", "q", "r"))) for _ in range(self.RANDOM)]
        rng.shuffle(items)
        self.items = items
        self.round_len = len(items)
        self._classical = {}

    def prepare(self, i: int) -> None:
        """Make op i's input (renamed for its round) before its timer starts."""
        kind, x = self.items[i % self.round_len]
        if kind != "script":
            x = rename(x, str(i // self.round_len))
        self._next = (kind, x)

    def run(self, i: int):
        kind, x = self._next
        if kind == "script":
            v = proofkit.check_proof(self.scripts[x]).accepted
        else:
            v = proofkit.ipc_valid(x)
        return (kind, v), f"{kind[0]}{int(v)}"

    def check(self, i: int, record) -> bool:
        kind, v = record
        slot = i % self.round_len
        if kind != self.items[slot][0]:
            return False
        if kind == "family":
            return v is True
        if kind == "script":
            return v is (self.items[slot][1] == 0)
        # IPC-valid implies classically valid; the converse does not hold.
        if v is False:
            return True
        if slot not in self._classical:
            self._classical[slot] = classically_valid(self.items[slot][1])
        return v is True and self._classical[slot]


# ---------------------------------------------------------------------------
# queries: one model per request

class Queries(Workload):
    """Single-model requests over ``.km`` texts.

    The texts are ``format_model`` outputs of sampled CK and CKB models
    (3-5 worlds, props p and q).  A request parses and validates a text,
    classifies it, evaluates three formulas at every world under both
    diamond clauses through an ``EvalContext``, and writes the model back
    as ``.km`` and as DOT.  The formulas are random, so they share few
    subterms.  A round is a seeded deck of ``DECK`` requests; the check
    compares each deck entry's masks with ``force`` once.
    """

    DECK = 2048
    round_len = DECK
    MODELS_PER_CLASS = 64
    FORMULAS = 3

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.models = []
        for cls in ("CK", "CKB"):
            params = search.EnumParams(max_worlds=5, props=("p", "q"), class_filter=cls)
            sampled = search.sample_models(params, self.MODELS_PER_CLASS, seed=rng.randrange(1 << 30), min_worlds=3)
            self.models += [(cls, m) for m in sampled]
        self.texts = [kripke.format_model(m) for _, m in self.models]
        self.deck = [
            (rng.randrange(len(self.models)),
             tuple(render(random_formula(rng, rng.randint(3, 12), ("p", "q"))) for _ in range(self.FORMULAS)))
            for _ in range(self.DECK)
        ]
        self._verified = {}

    def run(self, i: int):
        k, ftexts = self.deck[i % self.DECK]
        m = kripke.validate_model(kripke.parse_model_description(self.texts[k]))
        report = kripke.frame_report(m)
        ctx = semantics.EvalContext(m)
        masks = []
        for text in ftexts:
            f = formula.parse(text)
            for classical in (False, True):
                mask = 0
                for w, name in enumerate(m.worlds):
                    if ctx.eval(name, f, classical):
                        mask |= 1 << w
                masks.append(mask)
        km = kripke.format_model(m)
        dot = kripke.export_dot(m)
        classes = tuple(sorted(report.classes))
        # The text is kept only when it differs from the input.
        record = (k, tuple(masks), classes, None if km == self.texts[k] else km, dot.count("\n"))
        return record, f"{k}:{masks}:{classes}"

    def check(self, i: int, record) -> bool:
        key = (i % self.DECK, record)
        if key not in self._verified:
            self._verified[key] = self._verify(i % self.DECK, record)
        return self._verified[key]

    def _verify(self, d: int, record) -> bool:
        k, masks, classes, km, dot_lines = record
        cls, original = self.models[k]
        if km is not None or cls not in classes or k != self.deck[d][0]:
            return False
        if kripke.validate_model(kripke.parse_model_description(self.texts[k])) != original:
            return False
        if dot_lines < len(original.worlds) + 2:
            return False
        j = 0
        for text in self.deck[d][1]:
            f = parse(text)
            for classical in (False, True):
                for w, name in enumerate(original.worlds):
                    if bool((masks[j] >> w) & 1) != force(original, name, f, classical):
                        return False
                j += 1
        return True


WORKLOADS = {"sweep": Sweep, "search": Search, "prove": Prove, "queries": Queries}
