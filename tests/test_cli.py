import pytest

from ckkit import data_path
from ckkit.cli import main

FIG2 = str(data_path("fig2.km"))
NPROOF = str(data_path("n_in_ckb.proof"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParse:
    def test_canonical_form(self, capsys):
        code, out, err = run(capsys, "parse", "p->[]<>p")
        assert (code, out, err) == (0, "p -> [] <> p\n", "")

    def test_desugars(self, capsys):
        code, out, _ = run(capsys, "parse", "~p & true")
        assert code == 0
        assert out == "(p -> false) & (false -> false)\n"

    def test_error(self, capsys):
        code, out, err = run(capsys, "parse", "p ->")
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot parse formula")

    def test_deeply_nested(self, capsys):
        code, out, err = run(capsys, "parse", "(" * 400 + "p" + ")" * 400)
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot parse formula: formula nested too deeply")


class TestCheckModel:
    def test_valid(self, capsys):
        code, out, _ = run(capsys, "check-model", "--model", FIG2)
        assert (code, out) == (0, "VALID\n")

    def test_invalid(self, tmp_path, capsys):
        bad = tmp_path / "bad.km"
        bad.write_text("worlds: a b\npreceq: a<=b\nval: p = a\n")
        code, out, err = run(capsys, "check-model", "--model", str(bad))
        assert code == 1
        assert "monotone" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check-model", "--model", "/nonexistent.km")
        assert code == 1 and err.startswith("error: cannot read model")

    def test_closure_override(self, tmp_path, capsys):
        f = tmp_path / "m.km"
        f.write_text("worlds: a\npreceq:\n")
        code, out, _ = run(capsys, "check-model", "--model", str(f))
        assert code == 0
        code, _, err = run(
            capsys, "check-model", "--model", str(f), "--preceq-closure", "off"
        )
        assert code == 1 and "not reflexive" in err


class TestEval:
    def test_false_at_w(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--model", FIG2, "--world", "w", "--formula", "p -> [] <> p"
        )
        assert (code, out) == (0, "false\n")

    def test_true_at_v(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--model", FIG2, "--world", "v", "--formula", "p -> [] <> p"
        )
        assert (code, out) == (0, "true\n")

    def test_unknown_world(self, capsys):
        code, _, err = run(
            capsys, "eval", "--model", FIG2, "--world", "zz", "--formula", "p"
        )
        assert code == 1 and "zz" in err


class TestClassify:
    def test_figure2(self, capsys):
        code, out, _ = run(capsys, "classify", "--model", FIG2)
        assert code == 0
        assert out == (
            "CK\n"
            "symmetric: true\n"
            "forward_confluent: false\n"
            "backward_confluent: false\n"
            "fallible_r_back_closed: true\n"
        )

    def test_identity_model(self, tmp_path, capsys):
        f = tmp_path / "m.km"
        f.write_text("worlds: a\nrel: a~a\n")
        code, out, _ = run(capsys, "classify", "--model", str(f))
        assert code == 0
        assert out.splitlines()[0] == "CK CKB IK IKB"


class TestFindCountermodel:
    def test_counterexample_exit_2(self, capsys):
        code, out, _ = run(
            capsys, "find-countermodel", "p -> [] <> p", "--max-worlds", "3"
        )
        assert code == 2
        assert out.startswith("COUNTEREXAMPLE\n")
        assert "worlds:" in out
        assert "world: " in out

    def test_none_exit_0(self, capsys):
        code, out, _ = run(
            capsys,
            "find-countermodel", "p -> [] <> p",
            "--class", "ckb", "--max-worlds", "2",
        )
        assert code == 0
        assert out.startswith("NONE max_worlds=2 examined=")

    def test_formula_option_spelling(self, capsys):
        code_a, out_a, _ = run(
            capsys, "find-countermodel", "--formula", "p | ~p", "--max-worlds", "2"
        )
        code_b, out_b, _ = run(
            capsys, "find-countermodel", "p | ~p", "--max-worlds", "2"
        )
        assert (code_a, out_a) == (code_b, out_b) == (2, out_b)

    def test_formulas_file(self, tmp_path, capsys):
        f = tmp_path / "fs.txt"
        f.write_text("# header\np -> p\np | ~p\n")
        code, out, _ = run(
            capsys, "find-countermodel", "--formulas-file", str(f), "--max-worlds", "2"
        )
        assert code == 2  # second formula fails
        assert out.startswith("NONE ")

    def test_no_formula(self, capsys):
        code, _, err = run(capsys, "find-countermodel", "--max-worlds", "2")
        assert code == 1 and "no formula" in err

    def test_formula_given_twice(self, capsys):
        code, out, err = run(
            capsys, "find-countermodel", "p -> p", "--formula", "p | ~p", "--max-worlds", "2"
        )
        assert (code, out) == (1, "")
        assert "not both" in err

    def test_cap_error(self, capsys):
        code, _, err = run(
            capsys, "find-countermodel", "p", "--max-worlds", "7"
        )
        assert code == 1 and "cap" in err

    def test_emitted_model_is_loadable(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "find-countermodel", "p -> [] <> p", "--max-worlds", "3"
        )
        assert code == 2
        body = out.partition("COUNTEREXAMPLE\n")[2]
        model_text = body.rpartition("world: ")[0]
        from ckkit.kripke import parse_model_description, validate_model

        m = validate_model(parse_model_description(model_text))
        world = body.rpartition("world: ")[2].strip()
        from ckkit.semantics import eval_formula
        from ckkit.formula import parse as fparse

        assert eval_formula(m, world, fparse("p -> [] <> p")) is False


class TestCompareClasses:
    def test_mismatch_report(self, capsys):
        code, out, _ = run(
            capsys,
            "compare-classes", "<> false -> false",
            "--class-a", "ck", "--class-b", "ckb", "--max-worlds", "2",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "<> false -> false | COUNTEREXAMPLE vs NONE | MISMATCH"
        assert lines[-1] == "mismatches: 1"

    def test_agreement(self, capsys):
        code, out, _ = run(
            capsys,
            "compare-classes", "p -> p",
            "--class-a", "ck", "--class-b", "ikb", "--max-worlds", "2",
        )
        assert code == 0
        assert out.splitlines()[-1] == "mismatches: 0"

    def test_formula_given_twice(self, capsys):
        code, out, err = run(
            capsys,
            "compare-classes", "p -> p", "--formula", "<> false -> false",
            "--class-a", "ck", "--class-b", "ckb", "--max-worlds", "2",
        )
        assert (code, out) == (1, "")
        assert "not both" in err


class TestCheckProof:
    def test_accepted(self, capsys):
        code, out, _ = run(capsys, "check-proof", NPROOF)
        assert (code, out) == (0, "ACCEPTED\n")

    def test_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.proof"
        bad.write_text("logic: CK\ngoal: p\n1. taut p\n")
        code, out, _ = run(capsys, "check-proof", str(bad))
        assert code == 1
        assert out.startswith("REJECTED step 1:")

    def test_format_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.proof"
        bad.write_text("1. taut p -> p\n")
        code, _, err = run(capsys, "check-proof", str(bad))
        assert code == 1 and err.startswith("error:")


class TestAxioms:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "axioms", "list")
        assert code == 0
        lines = out.splitlines()
        assert "K_BOX: [] (A -> B) -> [] A -> [] B" in lines
        assert "B_DIA: <> [] A -> A" in lines
        assert "N: <> false -> false" in lines
        assert len(lines) == 14


class TestExportDot:
    def test_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "m.dot"
        code, _, _ = run(
            capsys, "export-dot", "--model", FIG2, "--out", str(out_path)
        )
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("digraph model {")
        assert '"w" -> "v";' in text


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_no_command(self, capsys):
        assert run(capsys)[0] == 1
