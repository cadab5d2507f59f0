import copy
import pickle
import random
import tracemalloc
from dataclasses import replace
from itertools import islice, product

import pytest

from ckkit import search
from ckkit.formula import parse

from ckkit.kripke import (
    PackedModel,
    frame_report,
    is_backward_confluent,
    is_forward_confluent,
    is_symmetric,
)
from ckkit.search import (
    ClassComparison,
    Counterexample,
    EnumerationCapError,
    EnumParams,
    NoneFound,
    compare_classes,
    enumerate_batches,
    enumerate_models,
    enumerate_packed,
    find_countermodel,
    preorders,
    sample_models,
)
from ckkit.semantics import ModelBatch, compile_formula, eval_packed, valid_in_model


class TestParams:
    def test_caps(self):
        with pytest.raises(EnumerationCapError):
            EnumParams(max_worlds=6, props=("p",))
        with pytest.raises(EnumerationCapError):
            EnumParams(max_worlds=2, props=("p", "q", "r"))

    @pytest.mark.parametrize("props", [("p", "p"), ("",), ("p", ""), ("p q",), ("1",), ("p", "true")])
    def test_prop_names_distinct_and_non_empty(self, props):
        # and atom names, as formula.parse reads them
        with pytest.raises(ValueError, match="distinct"):
            EnumParams(max_worlds=2, props=props)

    @pytest.mark.parametrize("props", ["pq", "p"])
    def test_props_not_a_string(self, props):
        # a string would be read as the sequence of its characters
        with pytest.raises(ValueError, match="^props must be a sequence of names, not the string"):
            EnumParams(max_worlds=2, props=props)

    @pytest.mark.parametrize("props", [None, 3, iter([1]), ("p", 3), (None,)])
    def test_props_not_names(self, props):
        with pytest.raises(ValueError, match="^props must be a sequence of names|distinct atom names"):
            EnumParams(max_worlds=2, props=props)

    @pytest.mark.parametrize("props", [iter(["p", "q"]), ["q", "p"], {"p": 0}])
    def test_props_any_iterable_of_names(self, props):
        params = EnumParams(max_worlds=1, props=props)
        assert isinstance(params.props, tuple) and sorted(params.props) == sorted(set(params.props))
        assert isinstance(find_countermodel(parse("p -> p"), params), NoneFound)

    @pytest.mark.parametrize("max_worlds", [3.5, 2.0, "2", None, True, False])
    def test_max_worlds_not_an_int(self, max_worlds):
        with pytest.raises(ValueError, match="^max_worlds must be an int, not "):
            EnumParams(max_worlds=max_worlds, props=("p",))

    def test_no_worlds(self):
        with pytest.raises(ValueError, match="^max_worlds must be at least 1$"):
            EnumParams(max_worlds=0)

    def test_bad_class(self):
        with pytest.raises(ValueError):
            EnumParams(max_worlds=2, class_filter="S4")

    def test_ik_forces_infallible(self):
        assert EnumParams(max_worlds=2, class_filter="IK").allow_fallible is False
        assert EnumParams(max_worlds=2, class_filter="IKB").allow_fallible is False
        assert EnumParams(max_worlds=2, class_filter="CKB").allow_fallible is True

    def test_allow_fallible_is_not_a_parameter(self):
        # it follows from the class, so no replace() can carry it to another
        with pytest.raises(TypeError):
            EnumParams(max_worlds=2, class_filter="CK", allow_fallible=False)
        params = EnumParams(max_worlds=2, class_filter="IK")
        assert replace(params, class_filter="CK").allow_fallible is True

    def test_frame_constraints(self):
        assert EnumParams(max_worlds=2).frame_constraints() == (False, False, False)
        assert EnumParams(max_worlds=2, class_filter="CKB").frame_constraints() == (True, True, True)
        assert EnumParams(max_worlds=2, class_filter="IK").frame_constraints() == (False, True, True)
        assert EnumParams(
            max_worlds=2, require_symmetric=True
        ).frame_constraints() == (True, False, False)


class TestEnumeration:
    def test_preorder_counts(self):
        # OEIS A000798: labeled topologies = labeled preorders
        assert [len(preorders(n)) for n in (1, 2, 3)] == [1, 4, 29]

    def test_preorders_are_preorders(self):
        from ckkit.kripke import transitive_closure

        for rows in preorders(3):
            assert all((rows[i] >> i) & 1 for i in range(3))
            assert transitive_closure(list(rows)) == list(rows)

    def test_one_world_count(self):
        # one preorder; two relations; per relation the fallible set is
        # empty (2 valuations) or the whole world (1 saturated valuation)
        got = list(enumerate_models(EnumParams(max_worlds=1, props=("p",))))
        assert len(got) == 6

    def test_one_world_count_infallible(self):
        got = list(enumerate_models(EnumParams(max_worlds=1, props=("p",), class_filter="IK")))
        assert len(got) == 4  # 2 relations x 2 valuations

    def test_two_world_count(self):
        got = list(enumerate_packed(EnumParams(max_worlds=2, props=("p",))))
        assert len(got) == 6 + 320  # n=1 then n=2 models

    def test_count_matches_independent_product(self):
        # recount with plain set comprehension arithmetic per frame
        def closed(rows, n):
            return [
                s for s in range(1 << n)
                if all(rows[w] & s == rows[w] for w in range(n) if (s >> w) & 1)
            ]

        total = 0
        for n in (1, 2):
            for up in preorders(n):
                for rel_mask in range(1 << (n * n)):
                    rel = tuple((rel_mask >> (i * n)) & ((1 << n) - 1) for i in range(n))
                    ucl = closed(up, n)
                    for fal in closed([u | r for u, r in zip(up, rel)], n):
                        total += sum(1 for s in ucl if s & fal == fal)
        got = list(enumerate_packed(EnumParams(max_worlds=2, props=("p",))))
        assert len(got) == total

    def test_no_duplicates(self):
        got = list(enumerate_packed(EnumParams(max_worlds=2, props=("p",))))
        assert len(set(got)) == len(got)

    def test_class_filters_respected(self):
        for cls in ("CK", "CKB", "IK", "IKB"):
            params = EnumParams(max_worlds=2, props=("p",), class_filter=cls)
            for m in enumerate_models(params):
                assert cls in frame_report(m).classes

    def test_ckb_enumeration_is_the_symmetric_confluent_subset(self):
        # and likewise for IK and IKB: each class's stream is the CK stream
        # filtered by frame_report's membership, in order
        all_models = list(enumerate_packed(EnumParams(max_worlds=2, props=("p",))))
        for cls in ("CKB", "IK", "IKB"):
            expected = [pm for pm in all_models if cls in frame_report(pm.to_model()).classes]
            got = enumerate_packed(EnumParams(max_worlds=2, props=("p",), class_filter=cls))
            assert list(got) == expected, cls

    def test_require_backward_confluent(self):
        # the CK stream filtered by frame_report, in order
        params = EnumParams(max_worlds=3, props=())
        expected = [m for m in enumerate_models(params) if frame_report(m).backward_confluent]
        assert len(expected) == 19_746
        got = enumerate_models(replace(params, require_backward_confluent=True))
        assert list(got) == expected

    @pytest.mark.parametrize("cls", ["CK", "CKB"])
    @pytest.mark.parametrize("props", [(), ("p",), ("p", "q")])
    def test_order_matches_nested_loops(self, cls, props):
        # the documented order, written out as plain nested loops
        def closed(rows, n):
            return [
                s for s in range(1 << n)
                if all(rows[w] & s == rows[w] for w in range(n) if (s >> w) & 1)
            ]

        expected = []
        for n in (1, 2):
            for up in preorders(n):
                for mask in range(1 << (n * n)):
                    rel = tuple((mask >> (i * n)) & ((1 << n) - 1) for i in range(n))
                    if cls == "CKB" and not (
                        is_symmetric(rel)
                        and is_forward_confluent(up, rel)
                        and is_backward_confluent(up, rel)
                    ):
                        continue
                    for fal in closed([u | r for u, r in zip(up, rel)], n):
                        vsets = [s for s in closed(up, n) if s & fal == fal]
                        for vals in product(vsets, repeat=len(props)):
                            expected.append(PackedModel(n, up, rel, fal, props, vals))
        params = EnumParams(max_worlds=2, props=props, class_filter=cls)
        assert list(enumerate_packed(params)) == expected

    def test_deterministic_order(self):
        params = EnumParams(max_worlds=2, props=("p",))
        assert list(enumerate_packed(params)) == list(enumerate_packed(params))

    def test_world_counts_ascending(self):
        ns = [pm.n for pm in enumerate_packed(EnumParams(max_worlds=2, props=("p",)))]
        assert ns == sorted(ns)

    def test_batches_hold_whole_frames_of_one_world_count(self):
        params = EnumParams(max_worlds=3, props=("p",), class_filter="CKB")
        batches = list(enumerate_batches(params))
        assert len(batches) > 3
        for b in batches:
            # models() and ModelBatch.of are inverse
            models = list(b.models())
            again = ModelBatch.of(models)
            for name in ("up", "rel", "up_avoid", "box_table", "dia_table", "diac_table", "fallible", "vals"):
                assert (getattr(again, name) == getattr(b, name)).all()
            assert [b.checked_model(k) for k in range(len(b))] == [pm.to_model() for pm in models]
        for prev, b in zip(batches, batches[1:]):
            assert prev.n <= b.n
            if prev.n == b.n:
                # a batch is cut only at a frame boundary
                last = prev.up[-1].tolist(), prev.rel[-1].tolist()
                assert (b.up[0].tolist(), b.rel[0].tolist()) != last


def _closed_by_definition(rows, n):
    return [s for s in range(1 << n) if all(rows[w] & ~s == 0 for w in range(n) if (s >> w) & 1)]


class TestClosedSets:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_row_tuple(self, n):
        for rows in product(range(1 << n), repeat=n):
            assert search._closed_sets(rows, n) == _closed_by_definition(rows, n)

    @pytest.mark.parametrize("n", [4, 5])
    def test_sampled_row_tuples(self, n):
        rng = random.Random(n)
        for _ in range(300):
            rows = tuple(rng.randrange(1 << n) for _ in range(n))
            assert search._closed_sets(rows, n) == _closed_by_definition(rows, n)


def _stream(params, batches=None):
    """(n, props, up, rel, fallible, vals) per batch, as lists; the masks carry the frame index."""
    return [
        (b.n, b.props) + tuple(a.tolist() for a in (b.up, b.rel, b.fallible, b.vals))
        for b in islice(enumerate_batches(params), batches)
    ]


class TestBatchCache:
    @pytest.fixture(autouse=True)
    def cold_cache(self):
        search._batch_cache.clear()
        yield
        search._batch_cache.clear()

    def test_replay_relabels_props(self):
        fresh_q = _stream(EnumParams(max_worlds=3, props=("q",), class_filter="CKB"))
        search._batch_cache.clear()
        fresh_p = _stream(EnumParams(max_worlds=3, props=("p",), class_filter="CKB"))
        replay_q = _stream(EnumParams(max_worlds=3, props=("q",), class_filter="CKB"))
        assert replay_q == fresh_q
        assert [b[2:] for b in fresh_p] == [b[2:] for b in fresh_q]
        assert {b[1] for b in fresh_p} == {("p",)}

    def test_resume_after_early_exit(self):
        params = EnumParams(max_worlds=3, class_filter="CK")
        fresh = _stream(params)
        n3 = [i for i, b in enumerate(fresh) if b[0] == 3]
        assert len(n3) > 3
        search._batch_cache.clear()
        stop = n3[0] + 2  # two batches into the 3-world models
        assert _stream(params, stop) == fresh[:stop]
        assert _stream(params) == fresh
        assert _stream(params) == fresh

    def test_cached_arrays_are_read_only(self):
        params = EnumParams(max_worlds=2, props=("p",), class_filter="CKB")
        list(enumerate_batches(params))
        for b in enumerate_batches(params):
            for a in (b.up, b.rel, b.up_avoid, b.box_table, b.dia_table, b.diac_table, b.fallible, b.vals):
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 1

    @pytest.fixture
    def failing_generator(self, monkeypatch):
        """_frame_batches that raises after its first batch, the first time only."""
        real = search._frame_batches
        calls = []

        def generator(*key):
            calls.append(key)
            stream = real(*key)
            if len(calls) == 1:
                yield next(stream)
                raise MemoryError("generator failed")
            yield from stream

        monkeypatch.setattr(search, "_frame_batches", generator)
        return calls

    def test_failed_generator_leaves_no_entry(self, failing_generator):
        params = EnumParams(max_worlds=1, props=("p",))
        with pytest.raises(MemoryError):
            list(enumerate_batches(params))
        assert search._batch_cache == {}
        assert find_countermodel(parse("p -> p"), params).models_examined == 6
        assert len(failing_generator) == 2

    def test_failed_generator_under_another_reader(self, failing_generator):
        # two interleaved scans share one generator; when it fails under one,
        # the other must not take the end of the stream for a complete scan
        params = EnumParams(max_worlds=1, props=("p",))
        first, second = enumerate_batches(params), enumerate_batches(params)
        next(first)
        next(second)
        with pytest.raises(MemoryError):
            next(first)
        with pytest.raises(RuntimeError, match="interrupted"):
            next(second)
        assert len(list(enumerate_packed(params))) == 6

    def test_repeated_scans_hold_no_more_memory(self):
        params = EnumParams(max_worlds=3, props=("p",), class_filter="CKB")
        f = parse("p -> p")
        tracemalloc.start()
        try:
            find_countermodel(f, params)
            after_first = tracemalloc.get_traced_memory()[0]
            for _ in range(20):
                find_countermodel(f, params)
            after_all = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # a few bytes of interpreter noise; the cached CKB batches take ~150 KB
        assert after_all <= after_first + 4096


def _first_failure(f, params):
    """First failing model and lowest failing world, one model at a time, as find_countermodel reports it."""
    examined = 0
    for pm in enumerate_packed(params):
        failing = ((1 << pm.n) - 1) & ~eval_packed(pm, f)
        if failing:
            world = (failing & -failing).bit_length() - 1
            m = pm.to_model()
            return Counterexample(m, m.worlds[world])
        examined += 1
    return NoneFound(params.max_worlds, params.props, examined)


class TestFindCountermodel:
    def test_b_box_fails_in_ck(self):
        verdict = find_countermodel(parse("p -> [] <> p"), EnumParams(max_worlds=3, props=("p",)))
        assert isinstance(verdict, Counterexample)
        assert not valid_in_model(verdict.model, parse("p -> [] <> p"))

    def test_minimal_counterexample_comes_first(self):
        verdict = find_countermodel(parse("p -> [] <> p"), EnumParams(max_worlds=3, props=("p",)))
        assert len(verdict.model.worlds) == 2  # a 2-world countermodel exists

    def test_counterexample_world_fails(self):
        from ckkit.semantics import eval_formula

        f = parse("p -> [] <> p")
        verdict = find_countermodel(f, EnumParams(max_worlds=3, props=("p",)))
        assert eval_formula(verdict.model, verdict.world, f) is False

    def test_b_box_holds_in_ckb(self):
        verdict = find_countermodel(
            parse("p -> [] <> p"),
            EnumParams(max_worlds=3, props=("p",), class_filter="CKB"),
        )
        assert isinstance(verdict, NoneFound)
        assert verdict.max_worlds == 3
        assert verdict.models_examined > 0

    def test_k_box_valid_everywhere(self):
        f = parse("[] (p -> q) -> ([] p -> [] q)")
        verdict = find_countermodel(f, EnumParams(max_worlds=2, props=("p", "q")))
        assert isinstance(verdict, NoneFound)

    def test_excluded_middle_fails(self):
        verdict = find_countermodel(parse("p | ~p"), EnumParams(max_worlds=2, props=("p",)))
        assert isinstance(verdict, Counterexample)

    @pytest.mark.parametrize("cls", ["CK", "CKB", "IK", "IKB"])
    def test_matches_brute_force_first_failure(self, cls):
        params = EnumParams(max_worlds=3, props=("p",), class_filter=cls)
        for text in (
            "p -> [] <> p",
            "<> p -> p",
            # first CK countermodel lies in the second 3-world batch
            "<> (<> false | [] p) -> <> <> false | <> [] p",
            "[] (p -> p) -> [] p -> [] p",
        ):
            f = parse(text)
            assert find_countermodel(f, params) == _first_failure(f, params), text

    @pytest.mark.parametrize("props", [(), ("p",), ("q", "r")])
    def test_atoms_missing_from_props(self, props):
        # a missing atom would read the fallible mask, so the search refuses it
        f = parse("~~q -> q & p")
        missing = sorted({"p", "q"} - set(props))
        with pytest.raises(ValueError, match=f"props \\({', '.join(props)}\\): {', '.join(missing)}$"):
            find_countermodel(f, EnumParams(max_worlds=2, props=props))
        with pytest.raises(ValueError, match="not among the props"):
            compare_classes([parse("p"), f], "CK", "IK", EnumParams(max_worlds=2, props=props))

    def test_full_scan_compiles_once(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return compile_formula(*args, **kwargs)

        monkeypatch.setattr(search, "compile_formula", counting)
        params = EnumParams(max_worlds=3, props=("p",), class_filter="CKB")
        verdict = find_countermodel(parse("p -> [] <> p"), params)
        assert verdict == NoneFound(3, ("p",), 6522)
        assert len(list(enumerate_batches(params))) > 1
        assert len(calls) == 1

    @pytest.mark.parametrize("cls", ["CK", "CKB", "IK", "IKB"])
    def test_props_out_of_order(self, cls):
        # the formula is compiled for the batches' prop order, not the sorted one
        params = EnumParams(max_worlds=2, props=("q", "p"), class_filter=cls)
        for text in ("q -> [] <> q", "<> p -> [] q", "(p -> q) | (q -> p)", "[] (p -> q) -> [] p -> [] q"):
            f = parse(text)
            assert find_countermodel(f, params) == _first_failure(f, params), text

    def test_search_is_deterministic(self):
        f = parse("[] p -> p")
        params = EnumParams(max_worlds=2, props=("p",))
        a = find_countermodel(f, params)
        b = find_countermodel(f, params)
        assert a == b


class TestCompareClasses:
    def test_n_separates_ck_from_ckb(self):
        report = compare_classes(
            [parse("<> false -> false")], "CK", "CKB", EnumParams(max_worlds=2, props=("p",))
        )
        (entry,) = report
        assert isinstance(entry, ClassComparison)
        assert entry.mismatch
        assert isinstance(entry.verdict_a, Counterexample)
        assert isinstance(entry.verdict_b, NoneFound)
        assert "MISMATCH" in entry.summary()

    @pytest.mark.parametrize("a, b", [("CK", "CKB"), ("CKB", "IKB")])
    def test_base_class_does_not_matter(self, a, b):
        # each side takes its class's frame conditions, none of the base's
        formulas = [parse("<> false -> false"), parse("p -> p")]

        def outcome(base):
            params = EnumParams(max_worlds=3, props=("p",), class_filter=base)
            return [(c.verdict_a, c.verdict_b) for c in compare_classes(formulas, a, b, params)]

        expected = outcome("CK")
        for base in ("CKB", "IK", "IKB"):
            assert outcome(base) == expected, base
        examined = [getattr(v, "models_examined", None) for pair in expected for v in pair]
        if a == "CK":
            assert examined == [None, 6522, 105542, 6522]
        else:
            assert examined == [6522, 3922, 6522, 3922]

    def test_agreeing_formula(self):
        (entry,) = compare_classes(
            [parse("p -> p")], "CK", "IKB", EnumParams(max_worlds=2, props=("p",))
        )
        assert not entry.mismatch
        assert "agree" in entry.summary()


class TestSampling:
    def test_deterministic(self):
        params = EnumParams(max_worlds=4, props=("p",), class_filter="CKB")
        a = sample_models(params, count=10, seed=3)
        b = sample_models(params, count=10, seed=3)
        assert a == b

    def test_samples_satisfy_class(self):
        params = EnumParams(max_worlds=4, props=("p",), class_filter="CKB")
        for m in sample_models(params, count=15, seed=5):
            report = frame_report(m)
            assert "CKB" in report.classes

    def test_samples_are_wellformed(self):
        from ckkit.kripke import KripkeModel, format_model, parse_model_description, validate_model

        params = EnumParams(max_worlds=5, props=("p", "q"))
        for m in sample_models(params, count=20, seed=9):
            assert validate_model(parse_model_description(format_model(m))) == m
            # each way of making a model again runs the same check, and passes it
            assert KripkeModel(m.packed) == pickle.loads(pickle.dumps(m)) == copy.deepcopy(m) == m

    @pytest.mark.parametrize("max_worlds, cls, min_worlds", [(1, "IK", 0), (1, "CK", 0), (2, "CK", 3)])
    def test_min_worlds_out_of_bounds(self, max_worlds, cls, min_worlds):
        params = EnumParams(max_worlds=max_worlds, props=("p",), class_filter=cls)
        message = f"^min_worlds={min_worlds} is outside 1..max_worlds={max_worlds}$"
        with pytest.raises(ValueError, match=message):
            sample_models(params, count=20, seed=1, min_worlds=min_worlds)

    def test_min_worlds_at_max(self):
        params = EnumParams(max_worlds=2, props=("p",))
        assert {m.packed.n for m in sample_models(params, count=5, seed=1, min_worlds=2)} == {2}
