import gc
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from functools import reduce
from itertools import product

import pytest

import ckkit
from ckkit import data_path, proofkit
from ckkit.axioms import schema
from ckkit.formula import And, Atom, Box, FALSE, Implies, enumerate_formulas, parse, substitute
from ckkit.proofkit import (
    AxiomInst,
    MP,
    Nec,
    ProofFormatError,
    ProofScript,
    ProofSearchTooDeep,
    Taut,
    builtin_scripts,
    check_proof,
    ipc_valid,
    load_proof_script,
    parse_proof_script,
)

from helpers_logic import de_bruijn, ipc_oracle_valid, pigeonhole, script_mutations

P = Atom("p")
Q = Atom("q")


class TestIpcValid:
    @pytest.mark.parametrize(
        "text",
        [
            "p -> p",
            "false -> p",
            "p -> q -> p",
            "(p -> q -> r) -> (p -> q) -> p -> r",
            "p & q -> p",
            "p -> p | q",
            "(p -> r) -> (q -> r) -> p | q -> r",
            "~ ~ (p | ~p)",
            "(p -> q) -> ~q -> ~p",
            "false -> [] false",
            "(<> false -> <> [] false) -> ((<> [] false -> false) -> (<> false -> false))",
        ],
    )
    def test_valid(self, text):
        assert ipc_valid(parse(text)) is True

    @pytest.mark.parametrize(
        "text",
        [
            "p",
            "p | ~p",
            "~ ~ p -> p",
            "((p -> q) -> p) -> p",
            "(p -> q) | (q -> p)",
            "~ (p & q) -> ~p | ~q",
            "[] p -> p",
            "[] (p -> p) -> p",
            "<> p -> <> p -> p",
        ],
    )
    def test_invalid(self, text):
        assert ipc_valid(parse(text)) is False

    def test_modal_subformulas_opaque(self):
        # same box subformula on both sides is one atom
        assert ipc_valid(parse("[] p -> [] p"))
        # different modal subformulas are different atoms
        assert not ipc_valid(parse("[] p -> [] (p & p)"))

    def test_memory_does_not_grow_with_calls(self):
        def de_bruijn(tag):
            # three atoms in a cycle of equivalences; an IPC theorem
            ps = [Atom(f"p{i}_{tag}") for i in range(3)]
            c = reduce(And, ps)
            iff = [And(Implies(a, b), Implies(b, a)) for a, b in zip(ps, ps[1:] + ps[:1])]
            return Implies(reduce(And, [Implies(e, c) for e in iff]), c)

        def held_after(calls):
            gc.collect()
            tracemalloc.start()
            try:
                for k in range(calls):
                    assert ipc_valid(de_bruijn(k))
                gc.collect()
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        few, many = held_after(10), held_after(40)
        # a memo kept across calls holds ~17 kB per call here
        assert many - few < 50_000

    def test_against_rooted_model_oracle(self):
        mismatches = []
        for f in enumerate_formulas(("p", "q"), 7, modal=False):
            if ipc_valid(f) != ipc_oracle_valid(f, max_worlds=3):
                mismatches.append(f)
        assert mismatches == []

    def test_benchmark_families_valid(self):
        # the family formulas of the prove benchmark, in its atom namings
        families = [(de_bruijn, 2, "abcd"), (de_bruijn, 3, "abcd"), (de_bruijn, 4, "a"),
                    (de_bruijn, 5, "a"), (pigeonhole, 2, "a"), (pigeonhole, 3, "a")]
        for fn, n, tags in families:
            for tag in tags:
                assert ipc_valid(fn(n, tag)), (fn.__name__, n, tag)

    def test_sequent_counts(self):
        # The search walks its hypotheses newest first, so the sequents it
        # visits follow the formula alone, not string hashes: pin the count
        # for the benchmark's family formulas, the same under two hash seeds.
        code = (
            "from ckkit import proofkit\n"
            "from helpers_logic import de_bruijn, pigeonhole\n"
            "inner = proofkit._prove\n"
            "calls = 0\n"
            "def counted(gamma, goal):\n"
            "    global calls\n"
            "    calls += 1\n"
            "    return inner(gamma, goal)\n"
            "proofkit._prove = counted\n"
            "for f in (de_bruijn(3, 'a'), de_bruijn(4, 'a'), de_bruijn(5, 'a'),\n"
            "          pigeonhole(2, 'a'), pigeonhole(3, 'a')):\n"
            "    calls = 0\n"
            "    assert proofkit.ipc_valid(f)\n"
            "    print(calls)\n"
        )
        src = os.path.dirname(os.path.dirname(ckkit.__file__))
        tests = os.path.dirname(os.path.abspath(__file__))
        counts = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]), PYTHONHASHSEED=seed)
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            counts.append(proc.stdout.split())
        assert counts[0] == counts[1] == ["134", "176", "218", "113", "2961"]


def and_chain(depth, right_nested):
    """A chain of ``depth`` conjunctions of p; an IPC theorem under hypothesis p."""
    f = P
    for _ in range(depth):
        f = And(P, f) if right_nested else And(f, P)
    return Implies(P, f)


class TestTooDeep:
    @pytest.mark.parametrize("right_nested", [False, True])
    def test_ipc_valid_raises_typed_error(self, right_nested):
        with pytest.raises(ProofSearchTooDeep, match="recursion limit") as exc:
            ipc_valid(and_chain(10_000, right_nested))
        assert isinstance(exc.value, ValueError)
        assert proofkit._memo == {}
        # the next call starts clean
        assert ipc_valid(and_chain(50, right_nested))

    def test_check_proof_passes_it_on(self):
        f = and_chain(10_000, True)
        with pytest.raises(ProofSearchTooDeep):
            check_proof(ProofScript(logic="CK", steps=(Taut(f),), goal=f))
        assert proofkit._memo == {}


class TestCheckProof:
    def test_builtin_accepted(self):
        script = builtin_scripts()["n_in_ckb"]
        verdict = check_proof(script)
        assert verdict.accepted
        assert str(verdict) == "ACCEPTED"

    def test_scripts_hashable_and_immutable(self):
        script = builtin_scripts()["n_in_ckb"]
        assert hash(script) == hash(parse_proof_script(data_path("n_in_ckb.proof").read_text()))
        again = pickle.loads(pickle.dumps(script))
        assert again == script and hash(again) == hash(script)
        step = next(s for s in script.steps if isinstance(s, AxiomInst))
        with pytest.raises(TypeError):
            step.assignment["A"] = FALSE
        given = {"A": P, "B": FALSE}
        a = AxiomInst("K_BOX", given, step.formula)
        given["A"] = FALSE  # the step keeps its own copy
        b = AxiomInst("K_BOX", {"B": FALSE, "A": P}, step.formula)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != AxiomInst("K_BOX", given, step.formula)

    def test_shipped_file_matches_builtin(self):
        # every data/*.proof file is a builtin, and every one is accepted
        builtins = builtin_scripts()
        files = sorted(p.name for p in data_path("").iterdir() if p.name.endswith(".proof"))
        assert files and [f"{name}.proof" for name in sorted(builtins)] == files
        for name in files:
            script = load_proof_script(data_path(name))
            assert script == builtins[name[: -len(".proof")]]
            assert str(check_proof(script)) == "ACCEPTED", name

    def test_goal_mismatch(self):
        base = builtin_scripts()["n_in_ckb"]
        bad = ProofScript(logic=base.logic, steps=base.steps, goal=parse("false"))
        verdict = check_proof(bad)
        assert not verdict.accepted
        assert verdict.step == len(base.steps)
        assert "goal" in verdict.reason

    def test_inadmissible_axiom(self):
        base = builtin_scripts()["n_in_ckb"]
        bad = ProofScript(logic="CK", steps=base.steps, goal=base.goal)
        verdict = check_proof(bad)
        assert not verdict.accepted
        assert verdict.step == 5  # first B_DIA use... step 3 is K_DIA (admissible)
        assert "not admissible" in verdict.reason

    def test_bad_taut(self):
        script = ProofScript(logic="CK", steps=(Taut(parse("p")),), goal=parse("p"))
        verdict = check_proof(script)
        assert not verdict.accepted and verdict.step == 1
        assert "tautology" in verdict.reason

    def test_axiom_formula_mismatch(self):
        step = AxiomInst("B_DIA", {"A": FALSE}, parse("<> [] false -> p"))
        script = ProofScript(logic="CKB", steps=(step,), goal=step.formula)
        verdict = check_proof(script)
        assert not verdict.accepted and verdict.step == 1
        assert "does not match" in verdict.reason

    def test_unknown_schema(self):
        step = AxiomInst("NOPE", {}, parse("p"))
        script = ProofScript(logic="CK", steps=(step,), goal=parse("p"))
        assert "unknown axiom schema" in check_proof(script).reason

    def test_extraneous_metavariable(self):
        step = AxiomInst("N", {"A": FALSE}, parse("<> false -> false"))
        script = ProofScript(logic="IK", steps=(step,), goal=step.formula)
        verdict = check_proof(script)
        assert not verdict.accepted
        assert "metavariable" in verdict.reason

    def test_mp_forward_reference(self):
        steps = (
            MP(1, 2, parse("p")),
            Taut(parse("p -> p")),
        )
        script = ProofScript(logic="CK", steps=steps, goal=parse("p"))
        verdict = check_proof(script)
        assert verdict.step == 1 and "strictly backwards" in verdict.reason

    def test_mp_shape_mismatch(self):
        steps = (
            Taut(parse("p -> p")),
            Taut(parse("q -> q")),
            MP(1, 2, parse("q")),
        )
        script = ProofScript(logic="CK", steps=steps, goal=parse("q"))
        verdict = check_proof(script)
        assert verdict.step == 3 and "shape mismatch" in verdict.reason

    def test_nec_must_box_premise(self):
        steps = (
            Taut(parse("p -> p")),
            Nec(1, parse("[] (q -> q)")),
        )
        script = ProofScript(logic="CK", steps=steps, goal=parse("[] (q -> q)"))
        verdict = check_proof(script)
        assert verdict.step == 2 and "necessitation" in verdict.reason

    def test_nec_correct(self):
        steps = (
            Taut(parse("p -> p")),
            Nec(1, Box(parse("p -> p"))),
        )
        script = ProofScript(logic="CK", steps=steps, goal=parse("[] (p -> p)"))
        assert check_proof(script).accepted

    def test_unknown_step_kind(self):
        script = ProofScript(logic="CK", steps=("1. taut p -> p",), goal=parse("p -> p"))
        assert check_proof(script) == proofkit.Verdict(False, 1, "unknown step kind str")

    def test_empty_script(self):
        script = ProofScript(logic="CK", steps=(), goal=parse("p"))
        assert not check_proof(script).accepted

    def test_unknown_logic(self):
        script = ProofScript(logic="K", steps=(Taut(parse("p -> p")),), goal=parse("p -> p"))
        assert "unknown logic" in check_proof(script).reason

    def test_all_single_step_corruptions_rejected(self):
        base = builtin_scripts()["n_in_ckb"]
        mutants = list(script_mutations(base))
        assert len(mutants) >= 30
        for description, mutated in mutants:
            verdict = check_proof(mutated)
            assert not verdict.accepted, description


def substitute_script(script, assignment):
    """The script with every formula, assignments included, substituted."""
    steps = []
    for step in script.steps:
        formula = substitute(step.formula, assignment)
        if isinstance(step, AxiomInst):
            given = {k: substitute(v, assignment) for k, v in step.assignment.items()}
            steps.append(AxiomInst(step.name, given, formula))
        else:
            steps.append(replace(step, formula=formula))
    return ProofScript(script.logic, tuple(steps), substitute(script.goal, assignment))


@pytest.mark.parametrize("name, axiom", [("dp_in_ckb", "DP"), ("fs_in_ckb", "FS")])
class TestDerivationsInCKB:
    """The shipped derivations of the IK axioms DP and FS from CKB's axioms."""

    def test_accepted_in_ckb_only(self, name, axiom):
        script = builtin_scripts()[name]
        assert script.goal == substitute(schema(axiom).shape, {"A": P, "B": Q})
        assert str(check_proof(script)) == "ACCEPTED"
        assert not check_proof(replace(script, logic="CK")).accepted

    def test_all_single_step_corruptions_rejected(self, name, axiom):
        mutants = list(script_mutations(builtin_scripts()[name]))
        assert len(mutants) >= 300
        assert [d for d, mutated in mutants if check_proof(mutated).accepted] == []

    def test_substitution_instances_accepted(self, name, axiom):
        script = builtin_scripts()[name]
        pool = enumerate_formulas(("p", "q"), 3)
        pairs = random.Random(1).sample(list(product(pool, repeat=2)), 200)
        for a, b in pairs:
            verdict = check_proof(substitute_script(script, {"p": a, "q": b}))
            assert verdict.accepted, (a, b, verdict)


class TestProofFormat:
    def test_round_trip_via_text(self):
        text = (data_path("n_in_ckb.proof")).read_text()
        script = parse_proof_script(text)
        assert script.logic == "CKB"
        assert script.goal == parse("<> false -> false")
        assert len(script.steps) == 8

    def test_missing_headers(self):
        with pytest.raises(ProofFormatError):
            parse_proof_script("goal: p\n1. taut p -> p\n")
        with pytest.raises(ProofFormatError):
            parse_proof_script("logic: CK\n1. taut p -> p\n")

    def test_repeated_headers(self):
        with pytest.raises(ProofFormatError, match="^line 2: repeated 'logic:' header$"):
            parse_proof_script("logic: CK\nlogic: CKB\ngoal: p\n1. taut p -> p\n")
        with pytest.raises(ProofFormatError, match="^line 3: repeated 'goal:' header$"):
            parse_proof_script("logic: CK\ngoal: p\ngoal: q\n1. taut p -> p\n")

    def test_step_numbering_enforced(self):
        with pytest.raises(ProofFormatError):
            parse_proof_script("logic: CK\ngoal: p\n2. taut p -> p\n")

    def test_bad_step_line(self):
        with pytest.raises(ProofFormatError):
            parse_proof_script("logic: CK\ngoal: p\n1. frobnicate p\n")

    def test_bad_axiom_step(self):
        with pytest.raises(ProofFormatError):
            parse_proof_script("logic: CK\ngoal: p\n1. axiom K_BOX no-braces\n")

    def test_bad_assignment_entry(self):
        with pytest.raises(ProofFormatError):
            parse_proof_script("logic: CK\ngoal: p\n1. axiom N {A} <> false -> false\n")

    def test_mp_arity(self):
        with pytest.raises(ProofFormatError):
            parse_proof_script("logic: CK\ngoal: p\n1. mp 1 p\n")
