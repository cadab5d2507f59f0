"""Acceptance gate: one test per release criterion.

Each test prints a single summary line; all must pass for the suite to
be green.  Criterion 8b pins the CK/IK contrast next to criterion 8's
CKB/IKB collapse.
"""

import time
from dataclasses import replace

from ckkit import data_path
from ckkit.axioms import instances
from ckkit.cli import main
from ckkit.formula import enumerate_formulas, parse, render
from ckkit.kripke import frame_report, load_model
from ckkit.proofkit import builtin_scripts, check_proof, ipc_valid
from ckkit.search import (
    Counterexample,
    EnumParams,
    NoneFound,
    compare_classes,
    enumerate_batches,
    enumerate_models,
    find_countermodel,
    sample_models,
)
from ckkit.semantics import eval_formula, eval_packed_batch, valid_in_model

from helpers_logic import ipc_oracle_valid, script_mutations

SCHEMAS = ("K_BOX", "K_DIA", "B_BOX", "B_DIA", "FS", "DP", "N")


def report(capsys, number, name, start):
    with capsys.disabled():
        print(f"criterion {number} ({name}): PASS [{time.perf_counter() - start:.1f}s]")


def test_criterion_1_golden_model(capsys):
    start = time.perf_counter()
    m = load_model(data_path("fig2.km"))
    assert eval_formula(m, "w", parse("p -> [] <> p")) is False

    code = main(["eval", "--model", str(data_path("fig2.km")),
                 "--world", "w", "--formula", "p -> [] <> p"])
    out = capsys.readouterr().out
    assert code == 0 and out == "false\n"

    code = main(["classify", "--model", str(data_path("fig2.km"))])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == [
        "CK",
        "symmetric: true",
        "forward_confluent: false",
        "backward_confluent: false",
        "fallible_r_back_closed: true",
    ]
    report(capsys, 1, "golden model", start)


def test_criterion_2_countermodel_rediscovery(capsys):
    start = time.perf_counter()
    params = EnumParams(
        max_worlds=3, props=("p",), class_filter="CK", require_symmetric=True
    )
    verdict = find_countermodel(parse("p -> [] <> p"), params)
    assert isinstance(verdict, Counterexample)
    assert len(verdict.model.worlds) <= 3
    assert frame_report(verdict.model).symmetric
    assert eval_formula(verdict.model, verdict.world, parse("p -> [] <> p")) is False
    report(capsys, 2, "countermodel rediscovery", start)


def test_criterion_3_soundness_suite(capsys):
    start = time.perf_counter()
    axiom_instances = list(instances(SCHEMAS, ["p"], 2))
    assert len(axiom_instances) > 100

    failures = []

    enum_params = EnumParams(max_worlds=3, props=("p",), class_filter="CKB")
    enumerated = 0
    for batch in enumerate_batches(enum_params):
        enumerated += len(batch)
        full = (1 << batch.n) - 1
        for f in axiom_instances:
            masks = eval_packed_batch(batch, f).tolist()
            failures.extend((f, batch.n, k) for k, mask in enumerate(masks) if mask != full)

    sampled = sample_models(
        EnumParams(max_worlds=5, props=("p", "q"), class_filter="CKB"),
        count=500,
        seed=2026,
        min_worlds=4,
    )
    for m in sampled:
        for f in axiom_instances:
            if not valid_in_model(m, f):
                failures.append((m, f))

    assert failures == []
    assert enumerated > 0 and len(sampled) == 500
    report(capsys, 3, f"soundness on {enumerated} enumerated + 500 sampled models", start)


def test_criterion_4_diamond_equivalence(capsys):
    start = time.perf_counter()
    params = EnumParams(
        max_worlds=3, props=("p",), require_forward_confluent=True
    )
    formulas = enumerate_formulas(("p",), 5)
    assert len(formulas) == 578

    mismatches = 0
    checked = 0
    for batch in enumerate_batches(params):
        checked += len(batch)
        for f in formulas:
            guarded = eval_packed_batch(batch, f, classical_diamond=False)
            unguarded = eval_packed_batch(batch, f, classical_diamond=True)
            mismatches += int((guarded != unguarded).sum())
    assert mismatches == 0
    report(capsys, 4, f"diamond equivalence on {checked} forward-confluent models", start)


def test_criterion_5_confluence_symmetry_bridge(capsys):
    start = time.perf_counter()
    params = EnumParams(max_worlds=3, props=(), require_symmetric=True)
    checked = 0
    for m in enumerate_models(params):
        reportm = frame_report(m)
        assert reportm.symmetric
        assert reportm.forward_confluent == reportm.backward_confluent, m
        checked += 1
    assert checked > 0
    report(capsys, 5, f"confluence bridge on {checked} symmetric frames", start)


def test_criterion_6_proof_checking(capsys):
    start = time.perf_counter()
    script = builtin_scripts()["n_in_ckb"]
    assert check_proof(script).accepted
    mutants = list(script_mutations(script))
    assert len(mutants) >= 30
    surviving = [
        description
        for description, mutated in mutants
        if check_proof(mutated).accepted
    ]
    assert surviving == []
    report(capsys, 6, f"proof checking, {len(mutants)} mutants rejected", start)


def test_criterion_7_ipc_oracle_agreement(capsys):
    start = time.perf_counter()
    formulas = enumerate_formulas(("p", "q"), 6, modal=False)
    peirce = parse("((p -> q) -> p) -> p")
    if peirce not in formulas:
        formulas = list(formulas) + [peirce]
    mismatches = [
        render(f)
        for f in formulas
        if ipc_valid(f) != ipc_oracle_valid(f, max_worlds=3)
    ]
    assert mismatches == []
    assert ipc_valid(parse("false -> (p -> q) | ~q")) is True
    assert ipc_valid(peirce) is False
    report(capsys, 7, f"IPC oracle agreement on {len(formulas)} formulas", start)


def test_criterion_8_collapse_reflection(capsys):
    start = time.perf_counter()
    axiom_instances = list(instances(SCHEMAS, ["p"], 2))
    params = EnumParams(max_worlds=3, props=("p",))
    comparisons = compare_classes(axiom_instances, "CKB", "IKB", params)
    mismatching = [c.summary() for c in comparisons if c.mismatch]
    assert mismatching == []
    # every one of these axioms holds in both classes at these bounds
    assert all(isinstance(c.verdict_a, NoneFound) for c in comparisons)
    assert all(isinstance(c.verdict_b, NoneFound) for c in comparisons)
    report(capsys, 8, f"collapse reflection on {len(comparisons)} instances", start)


def test_criterion_8_das_marin_contrast(capsys):
    # Beside the collapse of CKB and IKB, the separation it contrasts with:
    # CK and IK differ on a diamond-free formula (after Das and Marin).
    start = time.perf_counter()
    f = parse("~~[]false -> []false")
    params = EnumParams(max_worlds=3, props=("p",))
    ck = find_countermodel(f, replace(params, class_filter="CK"))
    assert isinstance(ck, Counterexample) and len(ck.model.worlds) == 2
    assert eval_formula(ck.model, ck.world, f) is False
    examined = {}
    for cls in ("IK", "CKB", "IKB"):
        verdict = find_countermodel(f, replace(params, class_filter=cls))
        assert isinstance(verdict, NoneFound), cls
        examined[cls] = verdict.models_examined
    assert examined == {"IK": 21698, "CKB": 6522, "IKB": 3922}
    report(capsys, "8b", "Das-Marin contrast: CK countermodel, none in IK, CKB, IKB", start)
