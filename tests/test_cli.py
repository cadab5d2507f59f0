import os
import subprocess
import sys

import pytest

import ckkit
from ckkit import data_path
from ckkit.cli import main
from ckkit.formula import MAX_DEPTH, parse, render
from ckkit.kripke import format_model

from helpers_logic import NESTINGS, de_bruijn, force, nested_text, wide_model

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

    @pytest.mark.parametrize("how", NESTINGS)
    def test_nesting_limit(self, capsys, how):
        code, out, err = run(capsys, "parse", nested_text(how, MAX_DEPTH))
        assert (code, err) == (0, "")
        assert run(capsys, "parse", out) == (0, out, "")
        code, out, err = run(capsys, "parse", nested_text(how, MAX_DEPTH + 1))
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot parse formula: formula nested too deeply")

    @pytest.mark.parametrize("command", ["parse", "find-countermodel"])
    def test_long_chain(self, capsys, command):
        code, out, err = run(capsys, command, " & ".join(["p"] * 3000))
        assert (code, out) == (1, "")
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

    def test_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.km"
        bad.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "check-model", "--model", str(bad))
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot read model")

    def test_byte_order_mark(self, tmp_path, capsys):
        f = tmp_path / "bom.km"
        f.write_bytes(b"\xef\xbb\xbf" + data_path("fig2.km").read_bytes())
        assert run(capsys, "check-model", "--model", str(f)) == (0, "VALID\n", "")

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
        assert (code, err) == (1, "error: unknown world 'zz'\n")

    def test_bad_proposition_name(self, tmp_path, capsys):
        # 'p q' would read as no atom, so p would read the fallible set
        path = tmp_path / "m.km"
        path.write_text("worlds: a\nval: p q = a\n")
        code, out, err = run(capsys, "eval", "--model", str(path), "--world", "a", "--formula", "p")
        assert (code, out, err) == (1, "", "error: model is not well-formed:\n  bad proposition name 'p q'\n")

    def test_seventy_worlds(self, tmp_path, capsys):
        m = wide_model(70, seed=70)
        path = tmp_path / "wide.km"
        path.write_text(format_model(m))
        text = "p -> [] <> p"
        for w in m.worlds[::7]:
            expected = "true\n" if force(m, w, parse(text)) else "false\n"
            assert run(capsys, "eval", "--model", str(path), "--world", w, "--formula", text) == (0, expected, "")


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
    def test_formulas_file_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"p\n\xff\xfe\n")
        code, out, err = run(capsys, "find-countermodel", "--formulas-file", str(bad))
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot read formulas file")

    def test_formulas_file_byte_order_mark(self, tmp_path, capsys):
        f = tmp_path / "bom.txt"
        f.write_bytes("\ufeffp -> [] <> p\n".encode())
        code, out, err = run(capsys, "find-countermodel", "--formulas-file", str(f), "--max-worlds", "2")
        assert (code, err) == (2, "")
        assert out.startswith("COUNTEREXAMPLE\n")

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

    def test_formulas_file_error_names_its_line(self, tmp_path, capsys):
        f = tmp_path / "fs.txt"
        f.write_text("p\nq ->\n")
        code, out, err = run(capsys, "find-countermodel", "--formulas-file", str(f), "--props", "p,q")
        assert (code, out) == (1, "")
        assert err == "error: cannot parse formula: line 2: unexpected end of input (at position 4)\n"

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

    @pytest.mark.parametrize("command", [
        ("find-countermodel",),
        ("compare-classes", "--class-a", "ckb", "--class-b", "ikb"),
    ])
    def test_no_worlds(self, capsys, command):
        code, out, err = run(capsys, *command, "p", "--max-worlds", "0")
        assert (code, out, err) == (1, "", "error: max_worlds must be at least 1\n")

    @pytest.mark.parametrize("props", ["", ","])
    def test_empty_props(self, capsys, props):
        # only an absent --props gives the default p
        argv = ("find-countermodel", "false -> false", "--max-worlds", "2")
        assert run(capsys, *argv, "--props", props) == (0, "NONE max_worlds=2 examined=164\n", "")
        assert run(capsys, *argv) == (0, "NONE max_worlds=2 examined=326\n", "")

    def test_require_bwd_confluent(self, capsys):
        # 130 of the 164 models without props are backward confluent
        argv = ("find-countermodel", "false -> false", "--max-worlds", "2", "--props", "")
        assert run(capsys, *argv, "--require-bwd-confluent") == (0, "NONE max_worlds=2 examined=130\n", "")

    def test_duplicate_props(self, capsys):
        code, out, err = run(capsys, "find-countermodel", "p -> p", "--props", "p,p")
        assert (code, out) == (1, "")
        assert "distinct" in err

    def test_atom_missing_from_props(self, capsys):
        code, out, err = run(capsys, "find-countermodel", "~~q -> q", "--class", "ik")
        assert (code, out) == (1, "")
        assert err == (
            "error: '((q -> false) -> false) -> q': atoms not among the props (p): q;"
            " list them in --props\n"
        )
        code, out, _ = run(capsys, "find-countermodel", "~~q -> q", "--class", "ik", "--props", "q")
        assert code == 2 and out.startswith("COUNTEREXAMPLE\n")

    def test_atoms_checked_before_any_search(self, tmp_path, capsys):
        path = tmp_path / "formulas.txt"
        path.write_text("p -> [] <> p\np & q\n")
        code, out, err = run(capsys, "find-countermodel", "--formulas-file", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: 'p & q': atoms not among the props (p): q")

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

    def test_one_walk_for_the_atoms(self, capsys, monkeypatch):
        # The CLI's atom check and find_countermodel's share one walk: the
        # first stores the atoms on the formula.  The text is one no other
        # test builds, so no live node has its atoms stored yet.
        from ckkit import formula

        text = "(one_walk -> [] <> one_walk) & <> (p | ~p)"
        walked = []
        walk = formula._postorder

        def counted(f):
            walked.append(f)
            return walk(f)

        monkeypatch.setattr(formula, "_postorder", counted)
        code, out, _ = run(capsys, "find-countermodel", text, "--props", "p,one_walk")
        assert code == 2 and out.startswith("COUNTEREXAMPLE\n")
        assert walked == [parse(text)]

    def test_nothing_on_stderr(self, tmp_path):
        # the intern table's weak references die at interpreter shutdown too
        src = os.path.dirname(os.path.dirname(ckkit.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        script = tmp_path / "debruijn.proof"
        text = render(de_bruijn(2))
        script.write_text(f"logic: CK\ngoal: {text}\n1. taut {text}\n")
        peirce = tmp_path / "peirce.proof"
        peirce.write_text("logic: CK\ngoal: ((p -> q) -> p) -> p\n1. taut ((p -> q) -> p) -> p\n")
        for argv, code in (
            (("find-countermodel", "p -> [] <> p", "--max-worlds", "2"), 2),
            (("find-countermodel", "p -> [] <> p", "--class", "ckb", "--max-worlds", "2"), 0),
            (("check-proof", str(script)), 0),
            (("check-proof", str(peirce)), 1),
            (("check-proof", NPROOF), 0),
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "ckkit.cli", *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert (proc.returncode, proc.stderr) == (code, ""), argv


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

    def test_props_like_find_countermodel(self, capsys):
        # empty names are dropped, duplicates rejected
        code, out, _ = run(
            capsys, "compare-classes", "p -> p", "--props", "p,",
            "--class-a", "ckb", "--class-b", "ikb", "--max-worlds", "2",
        )
        assert (code, out.splitlines()[-1]) == (0, "mismatches: 0")
        code, out, err = run(
            capsys, "compare-classes", "p -> p", "--props", "p,p",
            "--class-a", "ckb", "--class-b", "ikb",
        )
        assert (code, out) == (1, "")
        assert "distinct" in err

    def test_atoms_checked_before_any_search(self, tmp_path, capsys):
        path = tmp_path / "formulas.txt"
        path.write_text("<> false -> false\n[] q -> q\n")
        code, out, err = run(
            capsys, "compare-classes", "--formulas-file", str(path),
            "--class-a", "ck", "--class-b", "ckb", "--max-worlds", "2",
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: '[] q -> q': atoms not among the props (p): q")

    def test_require_flags(self, capsys):
        # on symmetric frames CK has no countermodel to <> false -> false either
        # (see test_mismatch_report for the unrestricted CK verdict)
        code, out, _ = run(
            capsys, "compare-classes", "<> false -> false", "--require-symmetric",
            "--class-a", "ck", "--class-b", "ckb", "--max-worlds", "2",
        )
        assert code == 0
        assert out.splitlines() == ["<> false -> false | NONE vs NONE | agree", "mismatches: 0"]


class TestCheckProof:
    def test_accepted(self, capsys):
        code, out, _ = run(capsys, "check-proof", NPROOF)
        assert (code, out) == (0, "ACCEPTED\n")

    def test_index_not_backwards(self, tmp_path, capsys):
        bad = tmp_path / "bad.proof"
        bad.write_text("logic: CK\ngoal: [] p\n1. nec 1 [] p\n")
        assert run(capsys, "check-proof", str(bad)) == (
            1, "REJECTED step 1: step index 1 does not refer strictly backwards\n", ""
        )

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

    @pytest.mark.parametrize("text, message", [
        ("1. mp x 2 p", "line 3: invalid literal for int() with base 10: 'x'"),
        ("1. taut p ->", "line 3: unexpected end of input (at position 4)"),
        ("1. nec 1", "line 3: nec needs an index and a formula"),
        ("1. taut p -> p\n2. nec 1 [] (p -> p", "line 4: expected ')', got None (at position 10)"),
    ])
    def test_step_error_names_its_line(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.proof"
        bad.write_text(f"logic: CK\ngoal: p\n{text}\n")
        assert run(capsys, "check-proof", str(bad)) == (1, "", f"error: {message}\n")

    def test_goal_error_names_its_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.proof"
        bad.write_text("# a comment\nlogic: CK\ngoal: p &\n1. taut p -> p\n")
        code, out, err = run(capsys, "check-proof", str(bad))
        assert (code, out) == (1, "")
        assert err.startswith("error: line 3: unexpected end of input")

    def test_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "check-proof", str(bad))
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot read proof")

    def test_byte_order_mark(self, tmp_path, capsys):
        f = tmp_path / "bom.proof"
        f.write_bytes(b"\xef\xbb\xbf" + data_path("n_in_ckb.proof").read_bytes())
        assert run(capsys, "check-proof", str(f)) == (0, "ACCEPTED\n", "")

    def test_search_too_deep(self, tmp_path, capsys):
        # 1,024 disjunctive hypotheses, nested 11 deep: within the parse
        # limit, but G4ip splits each disjunction one recursion deeper
        parts = [f"(a{i} | b{i})" for i in range(1024)]
        while len(parts) > 1:
            parts = [f"({x} & {y})" for x, y in zip(parts[::2], parts[1::2])]
        bad = tmp_path / "deep.proof"
        bad.write_text(f"logic: CK\ngoal: c\n1. taut {parts[0]} -> c\n")
        code, out, err = run(capsys, "check-proof", str(bad))
        assert (code, out) == (1, "")
        assert err.startswith("error: formula too deep for G4ip")


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

    def test_bad_world_name(self, tmp_path, capsys):
        # a quote in a world name would end the DOT string that names it
        path = tmp_path / "m.km"
        path.write_text('worlds: a"b c\nrel: a"b~c\n')
        out_path = tmp_path / "m.dot"
        code, out, err = run(capsys, "export-dot", "--model", str(path), "--out", str(out_path))
        assert (code, out, err) == (1, "", "error: model is not well-formed:\n  bad world name 'a\"b'\n")
        assert not out_path.exists()

    def test_unwritable_output(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "m.dot"
        code, out, err = run(capsys, "export-dot", "--model", FIG2, "--out", str(out_path))
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot write output: ")
        assert not out_path.parent.exists()


def _requests(tmp):
    """One accepted request per subcommand, as groups of tokens: a positional, an option and its value, a flag."""
    formulas = os.path.join(tmp, "formulas.txt")
    with open(formulas, "w", encoding="utf-8") as fh:
        fh.write("p -> p\n<> p -> [] p\n")
    dot = os.path.join(tmp, "out.dot")
    return formulas, {
        "parse": [["p -> [] <> p"]],
        "check-model": [["--model", FIG2], ["--preceq-closure", "on"]],
        "eval": [["--model", FIG2], ["--world", "w"], ["--formula", "p"]],
        "classify": [["--model", FIG2]],
        "find-countermodel": [["p -> [] <> p"], ["--class", "ckb"], ["--max-worlds", "2"],
                              ["--require-symmetric"]],
        "compare-classes": [["<> p -> [] p"], ["--class-a", "ck"], ["--class-b", "ckb"], ["--max-worlds", "2"]],
        "check-proof": [[NPROOF]],
        "axioms": [["list"]],
        "export-dot": [["--model", FIG2], ["--out", dot]],
    }


def _unique_prefix(option, options):
    """The shortest proper prefix of option that no other option string starts with, else the longest."""
    for k in range(3, len(option)):
        if not any(other.startswith(option[:k]) for other in options if other != option):
            return option[:k]
    return option[:-1]


def _generated_corpus(tmp):
    """argv lists built from each subcommand's table: orders, repeats, spellings, bad values, help, '--'."""
    from itertools import permutations

    from ckkit.cli import _TABLES

    formulas, requests = _requests(tmp)
    # a value for each option that no request gives
    good = {"formula_opt": "<> p -> [] p", "formulas_file": formulas, "props": "p,q", "preceq_closure": "off"}
    corpus = []
    for command, groups in requests.items():
        options = _TABLES[command][0] if command in _TABLES else {}
        flat = [command] + [token for group in groups for token in group]
        given = {options[g[0]] for g in groups if g[0] in options}
        corpus += [[command] + sum(order, []) for order in permutations(groups)]
        corpus += [flat + group for group in groups]  # each argument repeated
        for action in dict.fromkeys(options.values()):
            if action not in given:  # every option of the table at least once
                corpus.append(flat + action.option_strings + ([] if action.nargs == 0 else [good[action.dest]]))
        for option in options:
            corpus.append(flat + [_unique_prefix(option, options)] + ([] if options[option].nargs == 0 else ["p"]))
        for i, group in enumerate(groups):
            rest = groups[:i] + groups[i + 1:]
            head = [command] + sum(rest, [])
            action = options.get(group[0])
            if action is None:  # the positional
                corpus += [head + ["-p"], head + ["-p -> p"], head + ["- p"]]
            elif action.nargs != 0:
                corpus += [head + [f"{group[0]}={group[1]}"], head + [group[0], "-1"],
                           head + [group[0], "-p"], head + [group[0]]]
                if action.type is int:
                    corpus.append(head + [group[0], "two"])
                if action.choices is not None:
                    corpus.append(head + [group[0], "bogus"])
            corpus.append(head)  # the argument left out, required or not
        corpus.append(flat + ["extra"])
        corpus += [flat[:i] + ["--"] + flat[i:] for i in range(1, len(flat) + 1)]
        corpus += [flat[:i] + ["-h"] + flat[i:] for i in range(len(flat) + 1)]
        corpus += [["--help", command], flat + ["--help"]]
    return corpus


def _parity_corpus(tmp):
    """Hand-picked argv lists over help, usage errors, abbreviations and '--', and the generated corpus."""
    corpus = _generated_corpus(tmp)
    corpus += [
        [], ["-h"], ["--help"], ["no-such-command"], ["no-such-command", "p"], ["--bogus"],
        ["find-countermodel", "p", "--bogus"],
        ["find-countermodel", "p", "q"],
        ["find-countermodel", "p", "--max-w", "2"],
        ["find-countermodel", "p", "--class=ckb", "--max-worlds=2"],
        ["find-countermodel", "--", "p"],
        ["find-countermodel", "p", "--", "q"],
        ["find-countermodel", "p", "--max-worlds", "two"],
        ["find-countermodel", "p", "--class", "kb"],
        ["find-countermodel"],
        ["find-countermodel", "", "--props", ""],
        ["compare-classes", "p", "--class-a", "ck"],
        ["parse"], ["parse", "--", "~p"], ["parse", "p", "--bogus", "q"],
        ["eval", "--model", FIG2, "--world", "w"],
        ["axioms"], ["axioms", "bogus"], ["axioms", "list", "extra"], ["axioms", "-h", "list"],
        ["check-proof"], ["-h", "bogus"],
    ]
    return corpus


class TestArgumentParity:
    """main reads a plain argv from the subcommand's table, anything else with its parser alone;
    the reference parses every argv with the whole parser."""

    def test_same_code_and_output(self, tmp_path, capsys, monkeypatch):
        from ckkit import cli

        monkeypatch.chdir(tmp_path)  # export-dot writes '--out -1' and '--ou p' to the working directory
        for argv in _parity_corpus(str(tmp_path)):
            got = run(capsys, *argv)
            with monkeypatch.context() as m:
                m.setattr(cli, "_parse_args", cli.build_parser().parse_args)
                expected = run(capsys, *argv)
            assert got == expected, argv

    def test_same_namespace(self, tmp_path, capsys):
        from ckkit import cli

        for argv in _parity_corpus(str(tmp_path)):
            table = cli._TABLES.get(argv[0]) if argv else None
            plain = table and cli._read_plain(table, argv[0], argv[1:])
            try:
                expected = cli.build_parser().parse_args(argv)
            except SystemExit:
                assert plain is None, argv  # argparse reports what the table cannot read
                continue
            finally:
                capsys.readouterr()
            assert cli._parse_args(argv) == expected, argv
            if plain is not None:
                assert plain == expected, argv

    def test_every_order_read_by_the_table(self, tmp_path):
        from itertools import permutations

        from ckkit import cli

        for command, groups in _requests(str(tmp_path))[1].items():
            if command in cli._TABLES:
                for order in permutations(groups):
                    assert cli._read_plain(cli._TABLES[command], command, sum(order, [])) is not None, order

    def test_traps(self):
        from ckkit import cli

        # set_defaults at the parser level: compare-classes's base class
        assert cli._read_plain(cli._TABLES["compare-classes"], "compare-classes",
                               ["p", "--class-a", "ck", "--class-b", "ikb"]).cls == "ck"
        # a required positional left out, and one given twice
        assert cli._read_plain(cli._TABLES["parse"], "parse", []) is None
        assert cli._read_plain(cli._TABLES["parse"], "parse", ["p", "q"]) is None
        # a nested subcommand: argparse reads the whole of it
        assert "axioms" not in cli._TABLES
        assert set(cli._TABLES) == set(cli._SUBPARSERS) - {"axioms"}

    def test_workload_requests_skip_argparse(self, tmp_path, capsys, monkeypatch):
        import argparse

        from ckkit import cli

        path = tmp_path / "formulas.txt"
        path.write_text("p -> [] <> p\n<> p -> [] p\n")
        requests = [["find-countermodel", "[] p -> p", "--class", "ckb", "--max-worlds", "3"],
                    ["compare-classes", "--formulas-file", str(path), "--class-a", "ckb", "--class-b", "ikb"]]
        expected = []
        for argv in requests:
            with monkeypatch.context() as m:
                m.setattr(cli, "_parse_args", cli.build_parser().parse_args)
                expected.append(run(capsys, *argv))

        def refuse(*args, **kwargs):
            raise AssertionError("argparse was called")

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
        assert [run(capsys, *argv) for argv in requests] == expected
        assert expected[0][0] == 2 and expected[1][1].endswith("mismatches: 0\n")

    def test_argv_from_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["ckkit", "parse", "p->p"])
        assert main() == 0
        assert capsys.readouterr().out == "p -> p\n"

    def test_leftover_arguments_reported_by_the_top_parser(self, capsys):
        code, out, err = run(capsys, "find-countermodel", "p", "--bogus", "x")
        assert (code, out) == (1, "")
        assert err.endswith("ckkit: error: unrecognized arguments: --bogus x\n")
        assert err.startswith("usage: ckkit [-h]")


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_no_command(self, capsys):
        assert run(capsys)[0] == 1

    @pytest.mark.parametrize("argv", [
        ("find-countermodel", "[]p -> p", "--class", "ck"),
        ("compare-classes", "p -> p", "--class-a", "ck", "--class-b", "ckb"),
    ])
    def test_output_closed_early(self, argv):
        src = os.path.dirname(os.path.dirname(ckkit.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "ckkit.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()  # before the program has written anything
        try:
            err = proc.communicate(timeout=60)[1].decode()
        finally:
            proc.kill()
        assert "Traceback" not in err and "BrokenPipeError" not in err, err
        assert proc.returncode == 1
