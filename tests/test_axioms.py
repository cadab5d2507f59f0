import pytest

from ckkit.axioms import (
    LOGICS,
    SCHEMA_NAMES,
    instances,
    logic_axioms,
    metavariables,
    schema,
)
from ckkit.formula import FALSE, parse, render, substitute


class TestCatalog:
    def test_defining_shapes(self):
        expected = {
            "K_BOX": "[] (A -> B) -> ([] A -> [] B)",
            "K_DIA": "[] (A -> B) -> (<> A -> <> B)",
            "FS": "(<> A -> [] B) -> [] (A -> B)",
            "DP": "<> (A | B) -> <> A | <> B",
            "N": "<> false -> false",
            "B_BOX": "A -> [] <> A",
            "B_DIA": "<> [] A -> A",
        }
        for name, text in expected.items():
            assert schema(name).shape == parse(text)

    def test_exploratory_shapes(self):
        assert schema("T_BOX").shape == parse("[] A -> A")
        assert schema("FOUR_DIA").shape == parse("<> <> A -> <> A")
        assert schema("FIVE_BOX").shape == parse("<> A -> [] <> A")
        assert schema("D").shape == parse("[] A -> <> A")

    def test_catalog_complete_and_unique(self):
        assert len(SCHEMA_NAMES) == 14
        assert len(set(SCHEMA_NAMES)) == 14

    def test_unknown_schema(self):
        with pytest.raises(KeyError):
            schema("NOPE")

    def test_metavariables(self):
        assert metavariables(schema("K_BOX")) == ("A", "B")
        assert metavariables(schema("B_BOX")) == ("A",)
        assert metavariables(schema("N")) == ()


class TestLogics:
    def test_axiom_sets(self):
        assert logic_axioms("CK") == {"K_BOX", "K_DIA"}
        assert logic_axioms("CKB") == {"K_BOX", "K_DIA", "B_BOX", "B_DIA"}
        assert logic_axioms("IK") == {"K_BOX", "K_DIA", "FS", "DP", "N"}
        assert logic_axioms("IKB") == logic_axioms("CKB") | logic_axioms("IK")

    def test_inclusions(self):
        assert LOGICS["CK"] <= LOGICS["CKB"] <= LOGICS["IKB"]
        assert LOGICS["CK"] <= LOGICS["IK"] <= LOGICS["IKB"]

    def test_unknown_logic(self):
        with pytest.raises(KeyError):
            logic_axioms("S5")


class TestInstances:
    def test_single_metavariable_count(self):
        # pool over {p} up to size 2: p, false, []p, <>p, []false, <>false
        got = list(instances(["B_BOX"], ["p"], 2))
        assert len(got) == 6
        assert parse("p -> [] <> p") in got
        assert parse("false -> [] <> false") in got

    def test_two_metavariable_count(self):
        # 6 pool formulas for each of A and B
        got = list(instances(["K_BOX"], ["p"], 2))
        assert len(got) == 36
        assert parse("[] (p -> false) -> ([] p -> [] false)") in got

    def test_no_metavariable(self):
        assert list(instances(["N"], ["p"], 3)) == [parse("<> false -> false")]

    def test_deterministic_and_duplicate_free(self):
        a = list(instances(["K_BOX", "K_DIA", "B_BOX"], ["p"], 2))
        b = list(instances(["K_BOX", "K_DIA", "B_BOX"], ["p"], 2))
        assert a == b
        assert len(a) == len(set(a))

    def test_duplicates_across_schemas_removed(self):
        # B_DIA and FIVE_DIA instances overlap only if shapes coincide; N twice is deduped
        got = list(instances(["N", "N"], ["p"], 2))
        assert got == [parse("<> false -> false")]

    def test_instance_shapes(self):
        for f in instances(["FS"], ["p"], 2):
            r = render(f)
            assert r.startswith("(<> ") and " -> [] (" in r

    def test_substitution_uniform(self):
        got = list(instances(["K_DIA"], ["p"], 1))
        # pool at size 1 is [false, p]; A varies in the outer loop
        expected = [
            substitute(schema("K_DIA").shape, {"A": a, "B": b})
            for a in (FALSE, parse("p"))
            for b in (FALSE, parse("p"))
        ]
        assert got == expected


def test_n_instance_via_falsum():
    assert substitute(schema("B_DIA").shape, {"A": FALSE}) == parse("<> [] false -> false")
