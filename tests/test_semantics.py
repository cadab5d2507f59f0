import numpy as np
import pytest

from ckkit import _kernel
from ckkit.formula import And, enumerate_formulas, parse
from ckkit.kripke import ModelDescription, figure2_model, frame_report, validate_model
from ckkit.search import EnumParams, enumerate_models, sample_models
from ckkit.semantics import (
    EvalContext,
    MAX_WORLDS,
    _pack_arrays,
    compile_formula,
    eval_diamond_unguarded,
    eval_formula,
    eval_packed,
    eval_packed_batch,
    truth_mask,
    valid_in_model,
)

from helpers_logic import force


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
        assert eval_diamond_unguarded(m, "v", f) is True

    def test_box_dia_p_valid_unguarded(self):
        m = figure2_model()
        f = parse("p -> [] <> p")
        assert eval_diamond_unguarded(m, "w", f) is True


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
                mask = truth_mask(m, f)
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
            for w in m.worlds:
                assert eval_formula(m, w, f) == eval_diamond_unguarded(m, w, f)


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

    def test_empty_batch(self):
        assert eval_packed_batch([], parse("p")).size == 0

    def test_world_cap(self):
        from ckkit.kripke import PackedModel

        n = MAX_WORLDS + 1
        pm = PackedModel(
            n=n, up=tuple(1 << i for i in range(n)), rel=(0,) * n,
            fallible=0, props=(), vals=(),
        )
        with pytest.raises(ValueError):
            eval_packed(pm, parse("false"))

    def test_deep_formula(self):
        # 80 nested conjunctions leave 81 masks on the evaluation stack
        f = parse("p")
        for _ in range(80):
            f = And(parse("p"), f)
        m = figure2_model()
        assert eval_formula(m, "w", f) is True
        assert eval_formula(m, "v", f) is False
        assert int(eval_packed_batch([m.packed], f)[0]) == truth_mask(m, parse("p"))


class TestKernelParity:
    """The batch kernel and the one-model evaluator both agree with force."""

    FORMULAS = enumerate_formulas(("p",), 4)

    def check(self, models):
        packed = [m.packed for m in models]
        n = packed[0].n
        assert all(pm.n == n for pm in packed)
        arrays = _pack_arrays(packed)
        out = np.empty(len(packed), dtype=np.uint64)
        for f in self.FORMULAS:
            for classical in (False, True):
                prog = compile_formula(f, {"p": 0}, classical)
                _kernel.eval_programs(prog.ops, prog.args, n, *arrays, out)
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
        models = [m for m in enumerate_models(params) if len(m.worlds) == 3]
        self.check(models[:2000])

    @pytest.mark.parametrize("cls", ["CK", "CKB"])
    @pytest.mark.parametrize("n", [4, 5])
    def test_sampled_larger_models(self, cls, n):
        params = EnumParams(max_worlds=n, props=("p",), class_filter=cls)
        self.check(sample_models(params, count=40, seed=n, min_worlds=n))


class TestEvalContext:
    def test_memoization(self):
        ctx = EvalContext(figure2_model())
        f = parse("p -> [] <> p")
        assert ctx.valid(f) is False
        assert ctx.mask(f) == ctx.mask(f)
        assert ctx.eval("w", f) is False
        # classical clause cached separately
        assert ctx.eval("w", f, classical_diamond=True) is True

    def test_unknown_world(self):
        with pytest.raises(KeyError):
            EvalContext(figure2_model()).eval("zz", parse("p"))
