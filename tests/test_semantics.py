import gc
import random
from itertools import islice, product

import numpy as np
import pytest

from ckkit import _kernel
from ckkit.formula import And, Atom, enumerate_formulas, parse
from ckkit.kripke import (
    ModelDescription,
    ModelValidationError,
    PackedModel,
    figure2_model,
    frame_report,
    validate_model,
)
from ckkit.search import (
    EnumParams,
    enumerate_batches,
    enumerate_models,
    enumerate_packed,
    sample_models,
)
from ckkit.semantics import (
    EvalContext,
    ModelBatch,
    compile_formula,
    eval_formula,
    eval_packed,
    eval_packed_batch,
    valid_in_model,
)

from helpers_logic import force, wide_model


class TestGoldenModel:
    """Hand-checked truth values on the three-world symmetric model."""

    def test_p_to_box_dia_p_fails_at_w(self):
        m = figure2_model()
        f = parse("p -> [] <> p")
        assert eval_formula(m, "w", f) is False
        assert eval_formula(m, "v", f) is True
        assert eval_formula(m, "v2", f) is True
        assert valid_in_model(m, f) is False

    def test_subformula_values(self):
        m = figure2_model()
        assert eval_formula(m, "w", parse("p")) is True
        assert eval_formula(m, "v", parse("<> p")) is False  # v2 has no R-successor
        assert eval_formula(m, "w", parse("[] <> p")) is False
        assert eval_formula(m, "w", parse("[] p")) is False  # v does not force p

    def test_guarded_vs_unguarded_diamond(self):
        m = figure2_model()
        f = parse("<> p")
        # v R w and w forces p, but v's order-successor v2 has no R-successor
        assert eval_formula(m, "v", f) is False
        assert EvalContext(m).eval("v", f, classical_diamond=True) is True

    def test_box_dia_p_valid_unguarded(self):
        m = figure2_model()
        f = parse("p -> [] <> p")
        assert EvalContext(m).eval("w", f, classical_diamond=True) is True


class TestFallible:
    def setup_method(self):
        self.m = validate_model(
            ModelDescription(
                worlds=("a", "b"),
                fallible=("b",),
                order_pairs=(("a", "b"),),
                rel_pairs=(("a", "b"), ("b", "b")),
                valuation={"p": ("b",)},
            )
        )

    def test_falsum_at_fallible_world(self):
        assert eval_formula(self.m, "b", parse("false")) is True
        assert eval_formula(self.m, "a", parse("false")) is False

    def test_fallible_world_forces_everything(self):
        for text in ("p", "~p", "false", "[] false", "<> false", "p & ~p"):
            assert eval_formula(self.m, "b", parse(text)) is True

    def test_missing_atom_reads_fallible_set(self):
        assert eval_formula(self.m, "b", parse("q")) is True
        assert eval_formula(self.m, "a", parse("q")) is False

    def test_dia_false_not_valid(self):
        # a R b and b is fallible, so a forces <> false
        assert eval_formula(self.m, "a", parse("<> false")) is True


class TestMonotonicity:
    def test_truth_persists_along_order(self):
        params = EnumParams(max_worlds=3, props=("p",))
        formulas = [parse(t) for t in ("p", "[] p", "<> p", "p -> <> p", "~ [] p")]
        for m in sample_models(params, count=40, seed=7):
            pm = m.packed
            for f in formulas:
                mask = eval_packed(pm, f)
                for i in range(pm.n):
                    if (mask >> i) & 1:
                        assert pm.up[i] & ~mask == 0, (m, f)


class TestAgainstReferenceForcing:
    """The kernel agrees with the recursive reference evaluator."""

    def test_enumerated_models(self):
        params = EnumParams(max_worlds=2, props=("p",))
        formulas = enumerate_formulas(("p",), 4)
        for m in enumerate_models(params):
            ctx = EvalContext(m)
            for f in formulas:
                for classical in (False, True):
                    for w in m.worlds:
                        assert ctx.eval(w, f, classical) == force(m, w, f, classical), (
                            m, f, w, classical,
                        )

    def test_sampled_larger_models(self):
        params = EnumParams(max_worlds=5, props=("p", "q"))
        formulas = [
            parse(t)
            for t in (
                "[] (p -> q) -> ([] p -> [] q)",
                "(<> p -> [] q) -> [] (p -> q)",
                "<> (p | q) -> <> p | <> q",
                "p -> [] <> p",
                "<> [] p -> p",
                "[] <> [] q",
            )
        ]
        for m in sample_models(params, count=60, seed=11, min_worlds=3):
            for f in formulas:
                for w in m.worlds:
                    assert eval_formula(m, w, f) == force(m, w, f), (m, f, w)

    def test_guarded_equals_unguarded_on_forward_confluent(self):
        params = EnumParams(max_worlds=3, props=("p",), require_forward_confluent=True)
        f = parse("<> (p | <> p)")
        for m in enumerate_models(params):
            assert frame_report(m).forward_confluent
            ctx = EvalContext(m)
            for w in m.worlds:
                assert eval_formula(m, w, f) == ctx.eval(w, f, classical_diamond=True)


class TestBatch:
    def test_batch_matches_single(self):
        params = EnumParams(max_worlds=2, props=("p",))
        models = [m.packed for m in enumerate_models(params) if m.packed.n == 2]
        f = parse("p -> [] <> p")
        masks = eval_packed_batch(models, f)
        assert list(masks) == [eval_packed(pm, f) for pm in models]

    def test_batch_rejects_mixed_sizes(self):
        params = EnumParams(max_worlds=2, props=("p",))
        models = [m.packed for m in enumerate_models(params)]
        with pytest.raises(ValueError):
            eval_packed_batch(models, parse("p"))

    @pytest.mark.parametrize("vals", [(2,), (-1,)])
    def test_batch_rejects_masks_past_n(self, vals):
        pm = PackedModel(1, (1,), (0,), 0, ("p",), vals)
        with pytest.raises(ValueError, match="^batch masks must have no bits beyond world count 1$"):
            eval_packed_batch([pm], parse("p -> p"))

    def test_empty_batch(self):
        assert eval_packed_batch([], parse("p")).size == 0

    @pytest.mark.parametrize("n", [64, 70])
    def test_single_models_have_no_world_cap(self, n):
        # one model evaluates on Python ints, which have no width
        m = wide_model(n, seed=n)
        ctx = EvalContext(m)
        for text in ("p -> [] <> p", "<> [] q -> q", "~~p | ~p", "[] (p -> q) -> <> p -> <> q", "false"):
            f = parse(text)
            assert [ctx.eval(w, f) for w in m.worlds] == [force(m, w, f) for w in m.worlds], text

    def test_batch_world_cap(self):
        from ckkit.kripke import PackedModel

        n = _kernel.MAX_BATCH_WORLDS + 1
        pm = PackedModel(
            n=n, up=tuple(1 << i for i in range(n)), rel=(0,) * n,
            fallible=0, props=(), vals=(),
        )
        assert eval_packed(pm, parse("false")) == 0
        with pytest.raises(ValueError, match="at most"):
            eval_packed_batch([pm], parse("false"))

    def test_equal_frames_not_consecutive(self):
        params = EnumParams(max_worlds=2, props=("p",))
        models = [pm for pm in enumerate_packed(params) if pm.n == 2]
        frames = list(dict.fromkeys((pm.up, pm.rel) for pm in models))
        first, second = ([pm for pm in models if (pm.up, pm.rel) == fr] for fr in frames[:2])
        # frames a, b, a, b: four runs, each with its own table
        mixed = first + second + first + second
        batch = ModelBatch.of(mixed)
        assert (batch.fallible >> batch.n).tolist() == [k for k, run in enumerate((first, second) * 2) for _ in run]
        assert list(batch.models()) == mixed
        for f in (parse("p -> [] <> p"), parse("<> p | [] ~p")):
            assert eval_packed_batch(mixed, f).tolist() == [eval_packed(pm, f) for pm in mixed]

    def test_checked_model_sorts_props(self):
        for b in enumerate_batches(EnumParams(max_worlds=2, props=("q", "p"))):
            assert [b.checked_model(k) for k in range(len(b))] == [pm.to_model() for pm in b.models()]

    def test_checked_model_checks(self):
        # p true at w1 only, though w1 <= w2: a batch packs it, a model refuses it
        batch = ModelBatch.of([PackedModel(2, (3, 2), (0, 0), 0, ("p",), (1,))])
        with pytest.raises(ModelValidationError, match="valuation not monotone"):
            batch.checked_model(0)

    def test_deep_formula(self):
        # 80 nested conjunctions leave 81 masks on the evaluation stack
        f = parse("p")
        for _ in range(80):
            f = And(parse("p"), f)
        m = figure2_model()
        assert eval_formula(m, "w", f) is True
        assert eval_formula(m, "v", f) is False
        assert int(eval_packed_batch([m.packed], f)[0]) == eval_packed(m.packed, parse("p"))

    @pytest.mark.parametrize("nesting", ["left", "right"])
    def test_formula_built_in_code_10000_deep(self, nesting):
        f = Atom("p")
        for _ in range(10_000):
            f = And(f, Atom("p")) if nesting == "left" else And(Atom("p"), f)
        m = figure2_model()
        expected = eval_packed(m.packed, parse("p"))
        assert len(compile_formula(f, {"p": 0}).ops) == 20_001
        assert eval_packed(m.packed, f) == expected
        assert eval_packed_batch([m.packed], f).tolist() == [expected]


class TestCompiledProgram:
    """eval_packed_batch on a Program compiled for the batch's prop order equals it on the formula."""

    @pytest.mark.parametrize("props", [("p",), ("q", "p")])
    def test_program_matches_formula(self, props):
        formulas = list(enumerate_formulas(("p",), 4))
        index = {p: k for k, p in enumerate(props)}
        programs = {c: [compile_formula(f, index, c) for f in formulas] for c in (False, True)}
        for cls in ("CK", "CKB", "IK", "IKB"):
            for batch in enumerate_batches(EnumParams(max_worlds=3, props=props, class_filter=cls)):
                for c in (False, True):
                    for f, prog in zip(formulas, programs[c]):
                        expected = eval_packed_batch(batch, f, c)
                        assert np.array_equal(eval_packed_batch(batch, prog), expected), (cls, f, c)

    def test_program_on_a_list_of_models(self):
        models = [pm for pm in enumerate_packed(EnumParams(max_worlds=2, props=("q", "p"))) if pm.n == 2]
        for text in ("p -> [] <> p", "<> q | [] ~p", "~~p -> p"):
            f = parse(text)
            for c in (False, True):
                prog = compile_formula(f, {"q": 0, "p": 1}, c)
                expected = [int(eval_packed(pm, f, c)) for pm in models]
                assert eval_packed_batch(models, prog).tolist() == expected, (text, c)
        assert eval_packed_batch([], compile_formula(parse("p"), {"p": 0})).size == 0

    def test_program_carries_its_diamond_clause(self):
        prog = compile_formula(parse("<> p"), {"p": 0})
        with pytest.raises(ValueError, match="carries its diamond clause"):
            eval_packed_batch([figure2_model().packed], prog, classical_diamond=True)


class TestCompile:
    def test_leaves_no_reference_cycles(self):
        f = parse("(p -> [] <> p) | ~(q & <> false)")
        gc.collect()
        gc.disable()
        try:
            compile_formula(f, {"p": 0, "q": 1})
            assert gc.collect() == 0
        finally:
            gc.enable()


def _avoid_by_definition(rows, n):
    return [sum(1 << w for w in range(n) if rows[w] & s == 0) for s in range(1 << n)]


class TestAvoidTables:
    def tables(self, row_tuples, n):
        got = _kernel.avoid_tables(np.array(row_tuples, dtype=np.uint64), n)
        return got.reshape(len(row_tuples), 1 << n).tolist()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_row_tuple(self, n):
        row_tuples = list(product(range(1 << n), repeat=n))
        assert self.tables(row_tuples, n) == [_avoid_by_definition(r, n) for r in row_tuples]

    @pytest.mark.parametrize("n", [4, 5])
    def test_sampled_row_tuples(self, n):
        rng = random.Random(n)
        row_tuples = [tuple(rng.randrange(1 << n) for _ in range(n)) for _ in range(300)]
        assert self.tables(row_tuples, n) == [_avoid_by_definition(r, n) for r in row_tuples]

    def test_world_cap(self):
        n = _kernel.MAX_BATCH_WORLDS
        assert _kernel.avoid_tables(np.zeros((1, n), dtype=np.uint64), n).size == 1 << n
        with pytest.raises(ValueError, match="at most"):
            _kernel.avoid_tables(np.zeros((1, n + 1), dtype=np.uint64), n + 1)


def _modal_by_definition(up, rel, n):
    """The up, BOX, DIA and DIAC masks of every set s, composed from the avoid masks."""
    full = (1 << n) - 1
    u, r = _avoid_by_definition(up, n), _avoid_by_definition(rel, n)
    return (
        u,
        [u[full ^ r[full ^ s]] for s in range(1 << n)],
        [u[r[s]] for s in range(1 << n)],
        [full ^ r[s] for s in range(1 << n)],
    )


def _small_and_sampled_batches():
    """Every frame of CK and CKB up to 3 worlds, then sampled 4- and 5-world batches."""
    for cls in ("CK", "CKB"):
        yield from enumerate_batches(EnumParams(max_worlds=3, props=("p",), class_filter=cls))
        for n in (4, 5):
            params = EnumParams(max_worlds=n, props=("p",), class_filter=cls)
            yield ModelBatch.of([m.packed for m in sample_models(params, count=40, seed=n, min_worlds=n)])


class TestModalTables:
    def test_tables_match_definitions(self):
        for b in _small_and_sampled_batches():
            n = b.n
            tables = [t.tolist() for t in (b.up_avoid, b.box_table, b.dia_table, b.diac_table)]
            for f, (up, rel) in enumerate(zip(b.up.tolist(), b.rel.tolist())):
                # entry (f << n) | s is (f << n) | op(s): tagged sets map to tagged masks
                expected = [[(f << n) | m for m in ms] for ms in _modal_by_definition(up, rel, n)]
                assert [t[f << n : (f + 1) << n] for t in tables] == expected, (up, rel)

    def test_no_tag_leaks(self):
        formulas = [parse(s) for s in ("p", "q", "false", "~p", "p -> [] <> p", "<> p | [] ~p")]
        for b in _small_and_sampled_batches():
            below = 1 << b.n
            for f in formulas:
                for classical in (False, True):
                    assert (eval_packed_batch(b, f, classical) < below).all()
            models = list(b.models())
            assert [b.checked_model(k) for k in range(len(b))] == [pm.to_model() for pm in models]
            for pm in models:
                assert all(m < below for m in (*pm.up, *pm.rel, pm.fallible, *pm.vals))


class TestKernel:
    def test_bad_opcode(self):
        with pytest.raises(ValueError, match="^bad opcode 9$"):
            _kernel.eval_model((9,), (0,), 1, (1,), (0,), 0, ())


class TestKernelParity:
    """The batch kernel and the one-model evaluator both agree with force."""

    FORMULAS = enumerate_formulas(("p",), 4)

    def check(self, models):
        packed = [m.packed for m in models]
        b = ModelBatch.of(packed)
        n = b.n
        out = np.empty(len(b), dtype=np.uint64)
        for f in self.FORMULAS:
            for classical in (False, True):
                prog = compile_formula(f, {"p": 0}, classical)
                _kernel.eval_programs(
                    prog.ops, prog.args, n, b.up_avoid, (b.box_table, b.dia_table, b.diac_table),
                    b.fallible, b.vals, out,
                )
                for m, pm, batch_mask in zip(models, packed, out):
                    single = _kernel.eval_model(
                        prog.ops, prog.args, n, pm.up, pm.rel, pm.fallible, pm.vals
                    )
                    expected = sum(
                        1 << m.index(w) for w in m.worlds if force(m, w, f, classical)
                    )
                    assert (int(batch_mask), single) == (expected, expected), (
                        m, f, classical,
                    )

    def test_three_world_models(self):
        params = EnumParams(max_worlds=3, props=("p",))
        models = (m for m in enumerate_models(params) if len(m.worlds) == 3)
        self.check(list(islice(models, 2000)))

    @pytest.mark.parametrize("cls", ["CK", "CKB"])
    @pytest.mark.parametrize("n", [4, 5])
    def test_sampled_larger_models(self, cls, n):
        params = EnumParams(max_worlds=n, props=("p",), class_filter=cls)
        self.check(sample_models(params, count=40, seed=n, min_worlds=n))


class TestEvalContext:
    def test_memoization(self):
        m = figure2_model()
        ctx = EvalContext(m)
        f = parse("p -> [] <> p")
        assert valid_in_model(m, f) is False
        assert ctx.mask(f) == ctx.mask(f)
        assert ctx.eval("w", f) is False
        # classical clause cached separately
        assert ctx.eval("w", f, classical_diamond=True) is True

    def test_unknown_world(self):
        with pytest.raises(KeyError):
            EvalContext(figure2_model()).eval("zz", parse("p"))
