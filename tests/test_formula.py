import copy
import gc
import os
import pickle
import random
import subprocess
import sys
import threading
import time
from dataclasses import make_dataclass

import pytest
from hypothesis import given, settings, strategies as st

import ckkit
from ckkit import formula
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
    _postorder,
)
from ckkit.kripke import figure2_model
from ckkit.semantics import EvalContext, compile_formula, eval_packed

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

    def test_unexpected_token(self):
        with pytest.raises(ParseError) as exc:
            parse(")")
        assert str(exc.value) == "unexpected token ')' (at position 0)"

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


def spine_formula(seed, first_leaf=None):
    """A formula 10,000 connectives deep, one connective per level.

    Each level puts a connective on a random side, the other operand a
    shared leaf.  Returns the formula, the nodes built (innermost first),
    its size, modal depth and whether it has a diamond, and its repr,
    written from the dataclass form ``Kind(field=value, ...)``.
    """
    rng = random.Random(seed)
    leaves = (P, Q, FALSE)
    f = rng.choice(leaves)  # drawn either way, so the levels match
    if first_leaf is not None:
        f = first_leaf
    inner_repr = repr(f)
    spine = []
    prefixes, suffixes = [], []  # repr text around the level below, per level
    size, modal, diamond = 1, 0, False
    for _ in range(10_000):
        kind = rng.choice((Box, Diamond, And, Or, Implies))
        name = kind.__name__
        if kind in (Box, Diamond):
            f = kind(f)
            size, modal, diamond = size + 1, modal + 1, diamond or kind is Diamond
            prefixes.append(f"{name}(inner=")
            suffixes.append(")")
        else:
            leaf = rng.choice(leaves)
            if rng.random() < 0.5:
                f = kind(f, leaf)
                prefixes.append(f"{name}(left=")
                suffixes.append(f", right={leaf!r})")
            else:
                f = kind(leaf, f)
                prefixes.append(f"{name}(left={leaf!r}, right=")
                suffixes.append(")")
            size += 2
        spine.append(f)
    text = "".join(reversed(prefixes)) + inner_repr + "".join(suffixes)
    return f, spine, size, modal, diamond, text


class TestWalkersAtDepth:
    """Every walker loops over nodes, so formulas built in code may be deep."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=5, deadline=None)
    def test_10000_deep(self, seed):
        f, spine, size, modal, diamond, expected_repr = spine_formula(seed)

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

        # == and repr: built again, node by node, the spine is the same
        # object; one whose innermost leaf differs is another
        same = spine_formula(seed)[0]
        other = spine_formula(seed, first_leaf=Atom("r"))[0]
        identical, distinct = same is f, other is not f  # no repr on failure
        assert identical and distinct
        assert same == f and not same != f and hash(same) == hash(f)
        assert other != f and not other == f
        assert repr(f) == expected_repr
        ctx = EvalContext(figure2_model())
        assert ctx.mask(f) == ctx.mask(same) == eval_packed(figure2_model().packed, f)


class TestNode:
    """The hand-written nodes print like frozen dataclasses, and equal ones are one object."""

    def test_hash_is_stable_and_equal_texts_hash_alike(self):
        fs = enumerate_formulas(("p", "q"), 5)
        hashes = [hash(f) for f in fs]
        assert [hash(f) for f in fs] == hashes
        # parsed while the first parse is alive, a text is the same node
        again = [parse(render(f)) for f in fs]
        assert [hash(f) for f in again] == hashes

    def test_repr_and_eq_match_dataclasses(self):
        # frozen dataclasses with the same names and fields, built node by node
        mirror = {
            kind: make_dataclass(kind.__name__, kind.__match_args__, frozen=True)
            for kind in (Atom, Falsum, And, Or, Implies, Box, Diamond)
        }

        def as_dataclass(f):
            done = []
            for g in _postorder(f):
                kind = type(g)
                if kind is Atom:
                    done.append(mirror[Atom](g.name))
                    continue
                args = [done.pop() for _ in kind.__match_args__][::-1]
                done.append(mirror[kind](*args))
            return done[0]

        fs = enumerate_formulas(("p", "q"), 4)
        mirrors = [as_dataclass(f) for f in fs]
        for f, d in zip(fs, mirrors):
            assert repr(f) == repr(d)
        assert repr(Implies(P, FALSE)) == "Implies(left=Atom(name='p'), right=Falsum())"
        # two formulas are one object exactly when their dataclasses are equal
        for f, d in zip(fs, mirrors):
            for g, e in zip(fs, mirrors):
                assert (f is g) == (d == e), (f, g)
        for f, g in zip(fs, enumerate_formulas(("p", "q"), 4)):
            assert f is g
        assert And(P, Q) != Or(P, Q)
        assert Atom("p") != "p" and not Atom("p") == "p"
        assert Box(P) != Box(Q) and Box(P) == Box(Atom("p"))

    def test_keyword_arguments(self):
        assert And(left=P, right=Q) == And(P, Q)
        assert Box(inner=P) == Box(P)
        assert Atom(name="p") == P

    @pytest.mark.parametrize("f", [P, FALSE, And(P, Q), Box(Diamond(P))], ids=repr)
    def test_immutable(self, f):
        for name in (*type(f).__match_args__, "_atoms", "other"):
            with pytest.raises(AttributeError):
                setattr(f, name, Q)
            with pytest.raises(AttributeError):
                delattr(f, name)

    def test_copy_and_pickle(self):
        for f in enumerate_formulas(("p", "q"), 4):
            for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
                assert g is f

    def test_pickle_and_copy_at_any_depth(self):
        f = spine_formula(0)[0]
        identical = pickle.loads(pickle.dumps(f)) is f  # no repr on failure
        assert identical
        identical = copy.deepcopy(f) is f
        assert identical
        # each distinct node is stored once: a 60-level DAG, 2**60 atoms as
        # a tree, pickles small and loads with its sharing intact
        d = P
        for _ in range(60):
            d = And(d, d)
        data = pickle.dumps(d)
        assert len(data) < 2048
        e = pickle.loads(data)
        identical = e is d  # the repr of a failure would print 2**60 atoms
        assert identical
        for _ in range(60):
            shared = type(e) is And and e.left is e.right
            assert shared
            e = e.left
        assert e is P

    def test_eq_on_shared_subformulas(self):
        # a 60-level DAG, 2**60 atoms as a tree: built again or loaded, it
        # is the same object, so == answers at once whatever the sharing.
        # Each check is a bool first: the repr of a failure would not end.
        def dag(leaf):
            d = leaf
            for _ in range(60):
                d = And(d, d)
            return d

        d = dag(P)
        copied = pickle.loads(pickle.dumps(d))
        checks = [copied is d, copied == d, not copied != d, dag(P) is d]
        # the same DAG with its one leaf changed
        checks += [dag(Q) is not d, dag(Q) != d, not dag(Q) == d]
        checks += [And(d, copied) is And(copied, d), And(d, dag(Q)) is not And(copied, d)]
        assert checks == [True] * 9

    def test_pickle_across_hash_seeds(self, tmp_path):
        # A formula loaded in a process with other string hashes is the node
        # parsed there, and hashes like it.
        texts = ["p", "false", "[] (p & <> q) -> false | p", "~ (p_1 | q) -> <> r"]
        src = os.path.dirname(os.path.dirname(ckkit.__file__))
        path = tmp_path / "formulas.pickle"
        dump = (
            "import pickle, sys\n"
            "from ckkit.formula import parse\n"
            "pickle.dump([parse(t) for t in sys.argv[2:]], open(sys.argv[1], 'wb'))\n"
            "print(hash(sys.argv[2]))\n"
        )
        load = (
            "import pickle, sys\n"
            "from ckkit.formula import parse\n"
            "loaded = pickle.load(open(sys.argv[1], 'rb'))\n"
            "fresh = [parse(t) for t in sys.argv[2:]]\n"
            "assert loaded == fresh and all(f is g for f, g in zip(loaded, fresh))\n"
            "assert [hash(f) for f in loaded] == [hash(f) for f in fresh]\n"
            "assert all(f in set(fresh) for f in loaded)\n"
            "print(hash(sys.argv[2]))\n"
        )
        seen = []
        for code, seed in ((dump, "1"), (load, "2")):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-c", code, str(path), *texts],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            seen.append(proc.stdout)
        # the two processes hash "p" differently
        assert seen[0] != seen[1]


class _YieldingTable(dict):
    """An intern table whose lookups let other threads run before they return."""

    def get(self, key, default=None):
        found = dict.get(self, key, default)
        time.sleep(0)
        return found


class TestInterning:
    """Equal formulas are one object, across threads, and dead ones leave the table."""

    def test_threads_racing_get_the_same_nodes(self, monkeypatch):
        # In each round, 8 threads wait at a barrier, then each builds the 114
        # formulas of enumerate_formulas(("p",), 4) from scratch, node by node
        # from a table of kinds and operand numbers.  Every lookup in the
        # intern table lets another thread run, so the threads meet on the
        # miss path of each node.
        fs = enumerate_formulas(("p",), 4)
        number = {f: k for k, f in enumerate(fs)}
        table = [
            (type(f), f.name) if type(f) is Atom
            else (type(f), *[number[getattr(f, name)] for name in type(f).__match_args__])
            for f in fs
        ]
        assert len(table) == 114
        expected = [repr(f) for f in fs]
        del fs, number  # of these nodes, only the atom p stays alive
        monkeypatch.setattr(formula, "_nodes", _YieldingTable(formula._nodes))

        def build(k):
            barrier.wait()
            nodes = []
            for kind, *args in table:
                nodes.append(kind(*args) if kind is Atom else kind(*[nodes[j] for j in args]))
            built[k] = nodes

        threads = 8
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(5):
                barrier = threading.Barrier(threads, timeout=60)
                built = [None] * threads
                workers = [threading.Thread(target=build, args=(k,)) for k in range(threads)]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join(timeout=60)
                assert not any(w.is_alive() for w in workers)
                assert [repr(f) for f in built[0]] == expected
                for nodes in built[1:]:
                    assert all(f is g for f, g in zip(nodes, built[0]))
                # the nodes that lost a race died without taking the winners'
                # entries with them
                assert all(f is g for f, g in zip(enumerate_formulas(("p",), 4), built[0]))
                del built, nodes  # the next round builds from scratch
        finally:
            sys.setswitchinterval(switch)

    def test_dead_nodes_leave_the_table(self):
        gc.collect()
        before = len(formula._nodes)
        nodes = [Box(Atom(f"dead_{k}")) for k in range(50_000)]
        assert len(formula._nodes) == before + 100_000
        del nodes
        gc.collect()
        assert len(formula._nodes) == before

    def test_table_shrinks_after_a_peak(self):
        # A dict reuses the slots of deleted keys only when an insert resizes
        # it, and a resize sizes it to its live entries: ordinary inserts after
        # a peak bring the table back to its working size.
        gc.collect()
        nodes = [Box(Atom(f"peak_{k}")) for k in range(50_000)]
        peak = sys.getsizeof(formula._nodes)
        del nodes
        gc.collect()
        for k in range(25_000):  # 8 new nodes each, built and dropped
            parse(f"[] q{k} -> <> (q{k} & p) | ~q{k}")
        assert sys.getsizeof(formula._nodes) < peak / 10


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
