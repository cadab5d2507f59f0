import random

import pytest
from hypothesis import given, settings, strategies as st

from ckkit.formula import (
    And,
    Atom,
    Box,
    Diamond,
    FALSE,
    Falsum,
    Implies,
    MAX_DEPTH,
    Or,
    ParseError,
    TRUE,
    analyze,
    atom_names,
    enumerate_formulas,
    parse,
    render,
    subformulas,
    substitute,
    _depth,
)
from ckkit.semantics import compile_formula

from helpers_logic import NESTINGS, nested_text

P = Atom("p")
Q = Atom("q")


def formulas(atom_names=("p", "q"), max_leaves=25):
    leaves = st.sampled_from([Atom(a) for a in atom_names] + [FALSE])
    return st.recursive(
        leaves,
        lambda ch: st.one_of(
            st.builds(Box, ch),
            st.builds(Diamond, ch),
            st.builds(And, ch, ch),
            st.builds(Or, ch, ch),
            st.builds(Implies, ch, ch),
        ),
        max_leaves=max_leaves,
    )


class TestParse:
    def test_precedence_example(self):
        assert parse("p -> [] <> p") == Implies(P, Box(Diamond(P)))

    def test_negation_sugar(self):
        assert parse("~p") == Implies(P, FALSE)

    def test_b_dia_shape(self):
        assert parse("<> [] p -> p") == Implies(Diamond(Box(P)), P)

    def test_true_sugar(self):
        assert parse("true") == TRUE

    def test_whitespace_insensitive(self):
        assert parse("p->[]<>p") == parse("p -> [] <> p")

    def test_implication_right_associative(self):
        assert parse("p -> q -> p") == Implies(P, Implies(Q, P))

    def test_and_binds_tighter_than_or(self):
        assert parse("p | q & p") == Or(P, And(Q, P))

    def test_parens(self):
        assert parse("(p | q) & p") == And(Or(P, Q), P)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse("p -> ?")
        assert exc.value.position == 5

    def test_keyword_prefix_is_an_atom(self):
        assert parse("falseish") == Atom("falseish")

    def test_dangling_unary(self):
        with pytest.raises(ParseError):
            parse("p & ~")

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse("p q")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")


class TestRender:
    def test_box_diamond(self):
        assert render(Implies(P, Box(Diamond(P)))) == "p -> [] <> p"

    def test_falsum(self):
        assert render(FALSE) == "false"

    def test_parenthesization(self):
        assert render(And(Or(P, Q), Atom("r"))) == "(p | q) & r"

    def test_nested_implication(self):
        assert render(Implies(Implies(P, Q), P)) == "(p -> q) -> p"
        assert render(Implies(P, Implies(Q, P))) == "p -> q -> p"

    def test_unary_over_binary(self):
        assert render(Box(And(P, Q))) == "[] (p & q)"

    @given(formulas())
    @settings(max_examples=300)
    def test_round_trip(self, f):
        assert parse(render(f)) == f


class TestSubstitute:
    def test_direct_replacement(self):
        b_box = parse("A -> [] <> A")
        assert substitute(b_box, {"A": FALSE}) == parse("false -> [] <> false")

    def test_b_dia_falsum_instance(self):
        b_dia = parse("<> [] A -> A")
        assert substitute(b_dia, {"A": FALSE}) == parse("<> [] false -> false")

    def test_identity(self):
        assert substitute(P, {}) == P

    def test_unmapped_atoms_fixed(self):
        assert substitute(parse("p & q"), {"p": FALSE}) == And(FALSE, Q)

    @given(formulas(("p", "q")), formulas(("r", "s"), 8), formulas(("r", "s"), 8),
           formulas(("t",), 5), formulas(("t",), 5))
    @settings(max_examples=100)
    def test_composition_disjoint(self, s, ap, aq, br, bs):
        a = {"p": ap, "q": aq}
        b = {"r": br, "s": bs}
        composed = {k: substitute(v, b) for k, v in a.items()} | b
        assert substitute(substitute(s, a), b) == substitute(s, composed)

    @given(formulas(("p", "q")), formulas(("p", "q")))
    @settings(max_examples=100)
    def test_modal_depth_monotone(self, s, g):
        def brute_depth(f):
            if isinstance(f, (Atom, Falsum)):
                return 0
            if isinstance(f, (Box, Diamond)):
                return 1 + brute_depth(f.inner)
            return max(brute_depth(f.left), brute_depth(f.right))

        inst = substitute(s, {"p": g, "q": g})
        assert analyze(inst).modal_depth >= analyze(s).modal_depth
        assert analyze(inst).modal_depth == brute_depth(inst)


class TestAnalyze:
    def test_box_diamond_p(self):
        stats = analyze(parse("[] <> p"))
        assert stats.modal_depth == 2
        assert stats.size == 3
        assert stats.atoms == {"p"}
        assert not stats.diamond_free

    def test_propositional(self):
        stats = analyze(parse("p -> q"))
        assert stats.modal_depth == 0
        assert stats.size == 3
        assert stats.atoms == {"p", "q"}
        assert stats.diamond_free

    def test_k_box_diamond_free(self):
        assert analyze(parse("[] (p -> q) -> ([] p -> [] q)")).diamond_free

    @given(formulas())
    @settings(max_examples=200)
    def test_diamond_free_iff_no_diamond(self, f):
        stats = analyze(f)
        has_diamond = "<>" in render(f)
        assert stats.diamond_free == (not has_diamond)
        assert (stats.modal_depth == 0) == ("[]" not in render(f) and not has_diamond)


class TestSubformulas:
    def test_parents_first_left_operand_first(self):
        f = parse("[] (p & <> q) -> false | p")
        assert [render(g) for g in subformulas(f)] == [
            "[] (p & <> q) -> false | p",
            "[] (p & <> q)",
            "p & <> q",
            "p",
            "<> q",
            "q",
            "false | p",
            "false",
            "p",
        ]

    def test_leaf(self):
        assert list(subformulas(P)) == [P]

    @given(formulas())
    @settings(max_examples=100)
    def test_one_per_node(self, f):
        subs = list(subformulas(f))
        assert subs[0] is f
        assert len(subs) == analyze(f).size


class TestWalkersAtDepth:
    """Every walker loops over nodes, so formulas built in code may be deep."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=5, deadline=None)
    def test_10000_deep(self, seed):
        # one connective per level, on a random side; the other operand a leaf
        rng = random.Random(seed)
        leaves = (P, Q, FALSE)
        f = rng.choice(leaves)
        spine = []  # the nodes built, innermost first
        size, modal, diamond = 1, 0, False
        for _ in range(10_000):
            kind = rng.choice((Box, Diamond, And, Or, Implies))
            if kind in (Box, Diamond):
                f = kind(f)
                size, modal, diamond = size + 1, modal + 1, diamond or kind is Diamond
            else:
                leaf = rng.choice(leaves)
                f = kind(f, leaf) if rng.random() < 0.5 else kind(leaf, f)
                size += 2
            spine.append(f)

        text = render(f)
        assert render(substitute(f, {"p": Q})) == text.replace("p", "q")
        stats = analyze(f)
        assert (stats.size, stats.modal_depth, stats.diamond_free) == (size, modal, not diamond)
        assert atom_names(f) == stats.atoms
        assert _depth(f) == 10_000
        assert len(compile_formula(f, {"p": 0, "q": 1}).ops) == size
        # subformulas lists each node once, every spine node before its operands
        subs = list(subformulas(f))
        assert len(subs) == size
        position = {id(g): k for k, g in enumerate(subs)}
        order = [position[id(g)] for g in reversed(spine)]
        assert order == sorted(order)


class TestNotAFormula:
    @pytest.mark.parametrize("walk", [render, analyze, lambda f: list(subformulas(f)),
                                      lambda f: substitute(f, {})])
    def test_type_error(self, walk):
        with pytest.raises(TypeError, match="not a formula: 3"):
            walk(And(P, Box(3)))


class TestAtomNames:
    @given(formulas())
    @settings(max_examples=100)
    def test_analyze_atoms(self, f):
        assert atom_names(f) == analyze(f).atoms

    def test_falsum_has_none(self):
        assert atom_names(parse("false -> [] (p | q)")) == {"p", "q"}
        assert atom_names(FALSE) == frozenset()


class TestEnumerate:
    def test_size_two_over_one_atom(self):
        got = enumerate_formulas(("p",), 2)
        assert len(got) == 6  # p, false, and box/diamond of each
        assert len(set(got)) == 6
        assert got == enumerate_formulas(("p",), 2)

    def test_sizes_ascending(self):
        sizes = [analyze(f).size for f in enumerate_formulas(("p",), 4)]
        assert sizes == sorted(sizes)

    def test_propositional_only(self):
        got = enumerate_formulas(("p", "q"), 3, modal=False)
        assert all(analyze(f).modal_depth == 0 for f in got)
        assert len(got) == 3 + 27  # leaves, then 3 connectives over 3x3 leaf pairs


class TestNestingLimit:
    @pytest.mark.parametrize("how", NESTINGS)
    def test_at_limit_round_trips(self, how):
        f = parse(nested_text(how, MAX_DEPTH))
        assert parse(render(f)) == f

    @pytest.mark.parametrize("how", NESTINGS)
    def test_one_over_limit(self, how):
        with pytest.raises(ParseError, match="formula nested too deeply"):
            parse(nested_text(how, MAX_DEPTH + 1))

    def test_redundant_parentheses_count(self):
        parse("(" * MAX_DEPTH + "p" + ")" * MAX_DEPTH)
        with pytest.raises(ParseError, match="formula nested too deeply"):
            parse("(" * (MAX_DEPTH + 1) + "p" + ")" * (MAX_DEPTH + 1))

    @pytest.mark.parametrize("how", ["~", "&", "->", "~()"])
    def test_far_over_limit(self, how):
        with pytest.raises(ParseError, match="formula nested too deeply"):
            parse(nested_text(how, 3000))
