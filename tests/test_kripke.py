import copy
import pickle
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from ckkit.kripke import (
    CLASSES,
    FrameReport,
    KripkeModel,
    ModelDescription,
    ModelValidationError,
    PackedModel,
    export_dot,
    figure2_model,
    format_model,
    frame_report,
    is_backward_confluent,
    is_forward_confluent,
    is_symmetric,
    load_model,
    parse_model_description,
    transitive_closure,
    validate_model,
)
from ckkit import data_path
from ckkit.search import EnumParams, enumerate_models, enumerate_packed


def simple_desc(**overrides):
    base = dict(
        worlds=("a", "b"),
        fallible=(),
        order_pairs=(("a", "b"),),
        rel_pairs=(("a", "a"),),
        valuation={"p": ("a", "b")},
        close_order=True,
    )
    base.update(overrides)
    return ModelDescription(**base)


def violations(desc):
    """The violations listed by the error validate_model raises on desc."""
    with pytest.raises(ModelValidationError) as exc:
        validate_model(desc)
    return exc.value.violations


class TestValidation:
    def test_valid_model(self):
        m = validate_model(simple_desc())
        assert isinstance(m, KripkeModel)
        assert ("a", "a") in m.order  # reflexive closure applied
        assert ("a", "b") in m.order

    def test_monotonicity_violation(self):
        desc = simple_desc(valuation={"p": ("a",)})
        msgs = violations(desc)
        assert len(msgs) == 1
        assert "monotone" in msgs[0]

    def test_saturation_violation(self):
        desc = simple_desc(fallible=("b",), valuation={"p": ("a",)})
        msgs = violations(desc)
        assert any("fallible world 'b' missing from V(p)" in v for v in msgs)

    def test_fallible_forward_closure(self):
        desc = simple_desc(fallible=("a",), valuation={"p": ("a", "b")})
        msgs = violations(desc)
        # a <= b and a R a: b must be fallible too, and V(p) must cover fallible
        assert any("not closed" in v for v in msgs)

    def test_reports_all_violations(self):
        desc = simple_desc(
            fallible=("a",),
            valuation={"p": ("a",), "q": ()},
        )
        with pytest.raises(ModelValidationError) as exc:
            validate_model(desc)
        msgs = exc.value.violations
        assert len(msgs) >= 3  # monotonicity, two saturations, closure
        assert str(exc.value) == "model is not well-formed:\n  " + "\n  ".join(msgs)

    def test_unknown_world(self):
        desc = simple_desc(rel_pairs=(("a", "zz"),))
        assert any("unknown world 'zz'" in v for v in violations(desc))

    def test_closure_off_flags_missing_reflexivity(self):
        desc = simple_desc(close_order=False)
        msgs = violations(desc)
        assert any("not reflexive" in v for v in msgs)

    def test_closure_off_flags_missing_transitivity(self):
        desc = ModelDescription(
            worlds=("a", "b", "c"),
            order_pairs=(
                ("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c"),
            ),
            rel_pairs=(),
            valuation={},
            close_order=False,
        )
        msgs = violations(desc)
        assert msgs == ["order not transitive: 'a' reaches 'c' indirectly only"]

    def test_empty_worlds(self):
        assert violations(ModelDescription(worlds=())) == ["empty world set"]

    def test_duplicate_world(self):
        msgs = violations(ModelDescription(worlds=("a", "a")))
        assert any("duplicate" in v for v in msgs)

    @pytest.mark.parametrize("name", ["", "a b", "a\tb", "c~d", "a<=b", 'a"b', "a\\b"])
    def test_bad_world_name(self, name):
        # each would break the .km or DOT text the model is written to
        desc = ModelDescription(worlds=(name, "c"), rel_pairs=((name, "c"),))
        assert violations(desc) == [f"bad world name {name!r}"]

    def test_bad_world_names_all_reported(self):
        desc = ModelDescription(worlds=("a b", "c~d"), rel_pairs=(("a b", "c~d"),))
        assert violations(desc) == ["bad world name 'a b'", "bad world name 'c~d'"]

    @pytest.mark.parametrize("prop", ["p q", "", "1p", "p-q", "false", "true"])
    def test_bad_proposition_name(self, prop):
        # each is a name the formula parser cannot read as an atom
        desc = simple_desc(valuation={prop: ("a", "b")})
        assert violations(desc) == [f"bad proposition name {prop!r}"]


class TestBitHelpers:
    def test_transitive_closure(self):
        assert transitive_closure([0b011, 0b110, 0b100]) == [0b111, 0b110, 0b100]

    def test_symmetry(self):
        assert is_symmetric((0b10, 0b01))
        assert not is_symmetric((0b10, 0b00))

    def test_confluence_trivial_order(self):
        # identity order: both confluences hold for any R
        up = (0b01, 0b10)
        assert is_forward_confluent(up, (0b10, 0b00))
        assert is_backward_confluent(up, (0b10, 0b00))

    def test_forward_confluence_failure(self):
        # w0 R w1, w0 <= w2, w2 has no R-successor above w1
        up = (0b101, 0b010, 0b100)
        rel = (0b010, 0b000, 0b000)
        assert not is_forward_confluent(up, rel)
        assert is_backward_confluent(up, rel)

    def test_backward_confluence_failure(self):
        # w0 R w1, w1 <= w2, nothing above w0 reaches w2
        up = (0b001, 0b110, 0b100)
        rel = (0b010, 0b000, 0b000)
        assert not is_backward_confluent(up, rel)
        assert is_forward_confluent(up, rel)


class TestFrameReport:
    def test_figure2(self):
        report = frame_report(figure2_model())
        assert report == FrameReport(
            symmetric=True,
            forward_confluent=False,
            backward_confluent=False,
            fallible_r_back_closed=True,
            classes=frozenset({"CK"}),
        )

    def test_identity_frame_is_ikb(self):
        m = validate_model(
            ModelDescription(worlds=("a",), rel_pairs=(("a", "a"),))
        )
        assert frame_report(m).classes == frozenset({"CK", "CKB", "IK", "IKB"})

    def test_fallible_blocks_ik(self):
        m = validate_model(
            ModelDescription(worlds=("a",), fallible=("a",), rel_pairs=(("a", "a"),))
        )
        assert frame_report(m).classes == frozenset({"CK", "CKB"})

    def test_asymmetric_confluent_is_ik_not_ckb(self):
        m = validate_model(
            ModelDescription(worlds=("a", "b"), rel_pairs=(("a", "b"),))
        )
        report = frame_report(m)
        assert report.classes == frozenset({"CK", "IK"})
        assert not report.symmetric

    def test_r_back_closure_flag(self):
        m = validate_model(
            ModelDescription(
                worlds=("a", "b"),
                fallible=("b",),
                rel_pairs=(("a", "b"),),
                valuation={},
            )
        )
        assert not frame_report(m).fallible_r_back_closed


class TestFileFormat:
    def test_shipped_golden_model(self):
        m = load_model(data_path("fig2.km"))
        assert m == figure2_model()

    def test_round_trip(self):
        m = figure2_model()
        again = validate_model(parse_model_description(format_model(m)))
        assert again == m

    def test_round_trip_every_small_model(self):
        count = 0
        for cls in CLASSES:
            for m in enumerate_models(EnumParams(max_worlds=2, props=("p", "q"), class_filter=cls)):
                assert validate_model(parse_model_description(format_model(m))) == m
                # unpickling and copying make the model again, and it passes the check again
                assert pickle.loads(pickle.dumps(m)) == copy.copy(m) == copy.deepcopy(m) == m
                count += 1
        assert count == 1850

    def test_round_trip_odd_world_names(self):
        # names may hold <, = and : as long as they hold no <= or ~
        names = ("a<b", "=c", "x:y", "#w")
        m = validate_model(ModelDescription(
            worlds=names,
            order_pairs=(("a<b", "=c"), ("x:y", "#w")),
            rel_pairs=(("=c", "a<b"), ("#w", "x:y")),
            valuation={"p": ("=c",)},
        ))
        assert validate_model(parse_model_description(format_model(m))) == m

    def test_round_trip_with_fallible(self):
        m = validate_model(
            ModelDescription(
                worlds=("a", "b"),
                fallible=("b",),
                order_pairs=(("a", "b"),),
                rel_pairs=(("b", "b"),),
                valuation={"p": ("b",), "q": ("a", "b")},
            )
        )
        assert validate_model(parse_model_description(format_model(m))) == m

    def test_parse_directives(self):
        desc = parse_model_description(
            "# comment\nworlds: a b\npreceq-closure: off\n"
            "preceq: a<=a a<=b b<=b\nrel: a~b\nval: p = a b\n"
        )
        assert desc.close_order is False
        assert desc.order_pairs == (("a", "a"), ("a", "b"), ("b", "b"))
        assert desc.rel_pairs == (("a", "b"),)

    def test_parse_errors(self):
        from ckkit.kripke import ModelFormatError

        for text in [
            "rel: a~b\n",                       # missing worlds
            "worlds: a\nnonsense\n",            # no colon
            "worlds: a\nbogus: 1\n",            # unknown key
            "worlds: a\npreceq: ab\n",          # bad pair
            "worlds: a\nval: = a\n",            # missing prop name
            "worlds: a\nval: p = a\nval: p =\n",  # duplicate prop
        ]:
            with pytest.raises(ModelFormatError):
                parse_model_description(text)

    @pytest.mark.parametrize("line, message", [
        ("preceq-closure: maybe", "line 2: preceq-closure must be on or off"),
        ("preceq: ab", "line 2: bad preceq pair 'ab'"),
        ("rel: ab", "line 2: bad rel pair 'ab'"),
        ("rel: a<=b", "line 2: bad rel pair 'a<=b'"),
        ("val: p a", "line 2: expected 'val: P = worlds...'"),
    ])
    def test_error_messages(self, line, message):
        from ckkit.kripke import ModelFormatError

        with pytest.raises(ModelFormatError) as exc:
            parse_model_description(f"worlds: a b\n{line}\n")
        assert str(exc.value) == message

    def test_single_valued_keys_once(self):
        from ckkit.kripke import ModelFormatError

        for text, where in [
            ("worlds: a b\nworlds: c\n", "line 2: repeated 'worlds:'"),
            ("worlds: a\nfallible:\nfallible: a\n", "line 3: repeated 'fallible:'"),
            ("worlds: a\npreceq-closure: off\npreceq-closure: on\n", "line 3: repeated 'preceq-closure:'"),
        ]:
            with pytest.raises(ModelFormatError, match=f"^{where} line$"):
                parse_model_description(text)

    def test_pair_lines_accumulate(self):
        desc = parse_model_description(
            "worlds: a b c\npreceq: a<=b\npreceq: b<=c\nrel: a~b\nrel: b~c c~a\n"
        )
        assert desc.order_pairs == (("a", "b"), ("b", "c"))
        assert desc.rel_pairs == (("a", "b"), ("b", "c"), ("c", "a"))

    def test_load_model_closure_override(self, tmp_path):
        path = tmp_path / "m.km"
        path.write_text("worlds: a b\npreceq: a<=b\nval: p = a b\n")
        m = load_model(path)  # closure on by default
        assert ("a", "a") in m.order
        with pytest.raises(ModelValidationError):
            load_model(path, close_order=False)  # missing reflexive pairs


class TestDotExport:
    def test_figure2_dot(self):
        dot = export_dot(figure2_model())
        assert dot.startswith("digraph model {")
        assert '"w" [shape=circle];' in dot
        assert '"v" -> "v2" [style=dashed];' in dot
        assert '"w" -> "v";' in dot
        assert '"v" -> "w";' in dot
        # no dashed self-loops from the reflexive closure
        assert '"w" -> "w"' not in dot

    def test_fallible_double_circle(self):
        m = validate_model(
            ModelDescription(worlds=("a",), fallible=("a",), valuation={})
        )
        assert '"a" [shape=doublecircle];' in export_dot(m)

    def test_transitive_reduction(self):
        m = validate_model(
            ModelDescription(
                worlds=("a", "b", "c"),
                order_pairs=(("a", "b"), ("b", "c")),
            )
        )
        dot = export_dot(m)
        assert '"a" -> "b" [style=dashed];' in dot
        assert '"b" -> "c" [style=dashed];' in dot
        assert '"a" -> "c"' not in dot

    def test_order_cycle_kept(self):
        m = validate_model(
            ModelDescription(
                worlds=("a", "b"),
                order_pairs=(("a", "b"), ("b", "a")),
            )
        )
        dot = export_dot(m)
        assert '"a" -> "b" [style=dashed];' in dot
        assert '"b" -> "a" [style=dashed];' in dot

    def test_dashed_edges_in_order(self):
        # cycles first, then covers between classes, each class drawn from
        # its first world: c <= {a, b} <= d
        m = validate_model(
            ModelDescription(
                worlds=("c", "a", "b", "d"),
                order_pairs=(("a", "b"), ("b", "a"), ("c", "a"), ("b", "d")),
            )
        )
        dashed = [line for line in export_dot(m).splitlines() if "dashed" in line]
        assert dashed == [
            f'  "{a}" -> "{b}" [style=dashed];'
            for a, b in (("a", "b"), ("b", "a"), ("c", "a"), ("a", "d"))
        ]


class TestPacked:
    def test_round_trip(self):
        m = figure2_model()
        assert m.packed.to_model() == m

    def test_masks(self):
        pm = figure2_model().packed  # worlds w, v, v2 in order
        assert pm.up == (0b001, 0b110, 0b100)
        assert pm.rel == (0b010, 0b001, 0b000)
        assert pm.fallible == 0
        assert pm.props == ("p",)
        assert pm.vals == (0b001,)

    def test_index_unknown_world(self):
        with pytest.raises(KeyError):
            figure2_model().index("nope")

    def test_index(self):
        m = figure2_model()
        assert [m.index(w) for w in m.worlds] == list(range(len(m.worlds)))

    def test_hash_consistent_with_eq(self):
        a, b = figure2_model(), figure2_model().packed.to_model()
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        other = validate_model(simple_desc())
        assert len({a, other}) == 2

    def test_valuation_is_read_only(self):
        m = figure2_model()
        assert m.valuation == {"p": frozenset({"w"})}
        with pytest.raises(TypeError):
            m.valuation["p"] = frozenset()
        with pytest.raises(TypeError):
            del m.valuation["p"]

    def test_one_stored_value(self):
        assert [f.name for f in fields(KripkeModel)] == ["packed"]
        with pytest.raises(FrozenInstanceError):
            figure2_model().order = frozenset()

    def test_equal_whatever_the_path(self):
        # props listed q before p, so to_model must sort them
        params = EnumParams(max_worlds=2, props=("q", "p"))
        pm = next(pm for pm in enumerate_packed(params) if pm.n == 2 and pm.fallible and pm.vals[0] != pm.vals[1])
        enumerated = pm.to_model()
        assert enumerated.packed.props == ("p", "q")
        lines = format_model(enumerated).splitlines(keepends=True)
        head, vals = lines[:5], lines[5:]
        assert [v[:6] for v in vals] == ["val: p", "val: q"]
        for val_lines in (vals, vals[::-1]):
            m = validate_model(parse_model_description("".join(head + val_lines)))
            assert m == enumerated and hash(m) == hash(enumerated)
            assert m.packed == enumerated.packed

    def test_pickle_round_trip(self):
        m = figure2_model()
        views = (m.worlds, m.fallible, m.order, m.relation, dict(m.valuation), m.index("v"))
        again = pickle.loads(pickle.dumps(m))
        assert again == m and hash(again) == hash(m)
        assert again.packed == m.packed
        assert (again.worlds, again.fallible, again.order, again.relation,
                dict(again.valuation), again.index("v")) == views


# Masks that are not a model, each with the violations the check lists.
# All but the last two name no worlds, so to_model names them w1, w2, ...
BAD_MASKS = {
    "no-worlds": (
        PackedModel(0, (), (), 0, (), ()),
        ["empty world set"],
    ),
    "not-reflexive": (
        PackedModel(2, (0, 0), (0, 0), 0, (), ()),
        ["order not reflexive at 'w1'", "order not reflexive at 'w2'"],
    ),
    "not-transitive": (
        PackedModel(3, (0b011, 0b110, 0b100), (0, 0, 0), 0, (), ()),
        ["order not transitive: 'w1' reaches 'w3' indirectly only"],
    ),
    "not-monotone": (
        PackedModel(2, (3, 2), (0, 0), 0, ("p",), (1,)),
        ["valuation not monotone: 'w1' <= 'w2' but only 'w1' is in V(p)"],
    ),
    "not-saturated": (
        PackedModel(2, (1, 2), (0, 0), 0b01, ("p",), (0b10,)),
        ["fallible world 'w1' missing from V(p)"],
    ),
    "fallible-not-closed": (
        PackedModel(2, (1, 2), (0b10, 0), 0b01, ("p",), (0b11,)),
        ["fallible set not closed: 'w1' reaches non-fallible 'w2'"],
    ),
    "fallible-past-n": (
        PackedModel(1, (1,), (0,), 4, (), ()),
        ["fallible mask has bits beyond world count 1"],
    ),
    "masks-past-n": (
        PackedModel(2, (1, 0b110), (0, 0), 0, ("p",), (-1,)),
        ["order mask has bits beyond world count 2", "valuation mask has bits beyond world count 2"],
    ),
    "row-counts": (
        PackedModel(2, (1,), (0, 0), 0, ("p",), ()),
        ["1 order rows for 2 worlds", "0 valuations for 1 props"],
    ),
    "bad-names": (
        PackedModel(1, (1,), (0,), 0, ("p q",), (1,), ("a b",)),
        ["bad world name 'a b'", "bad proposition name 'p q'"],
    ),
    "duplicate-names": (
        PackedModel(2, (1, 2), (0, 0), 0, (), (), ("a", "a")),
        ["duplicate world 'a'"],
    ),
}


# Masks given as lists: to_model makes them tuples, and the other ways in refuse them
LIST_MASKS = {
    "list-masks": (
        PackedModel(1, [1], [0], 0, [], []),
        ["order rows not a tuple", "relation rows not a tuple", "props not a tuple", "valuations not a tuple"],
    ),
    "list-vals": (
        PackedModel(2, (1, 2), (0, 0), 0b01, ("p",), [0b11]),
        ["valuations not a tuple"],
    ),
}


def _named(pm):
    """pm with the world names to_model would give it."""
    return replace(pm, names=pm.names or tuple(f"w{i + 1}" for i in range(pm.n)))


class TestModelCheck:
    @pytest.mark.parametrize(
        "pm, messages", [*BAD_MASKS.values(), *LIST_MASKS.values()], ids=[*BAD_MASKS, *LIST_MASKS]
    )
    def test_every_way_in_checks(self, pm, messages):
        named, good = _named(pm), figure2_model()
        makes = [lambda: KripkeModel(named), lambda: replace(good, packed=named)]
        lists = [f for f in fields(pm) if isinstance(getattr(pm, f.name), list)]
        if lists:
            tuples = replace(pm, **{f.name: tuple(getattr(pm, f.name)) for f in lists})
            m, expected = pm.to_model(), tuples.to_model()
            assert m == expected and hash(m) == hash(expected)
        else:
            makes.append(pm.to_model)
        for make in makes:
            with pytest.raises(ModelValidationError) as exc:
                make()
            assert exc.value.violations == messages

    @pytest.mark.parametrize("pm, messages", BAD_MASKS.values(), ids=BAD_MASKS)
    def test_unpickling_and_copying_check(self, pm, messages):
        bad = object.__new__(KripkeModel)  # made without the check, as no public path can
        object.__setattr__(bad, "packed", _named(pm))
        for make in (lambda: pickle.loads(pickle.dumps(bad)), lambda: copy.copy(bad)):
            with pytest.raises(ModelValidationError) as exc:
                make()
            assert exc.value.violations == messages

    def test_canonical_form(self):
        # to_model sorts the props; a model made directly must have them sorted
        pm = PackedModel(1, (1,), (0,), 0, ("q", "p"), (1, 0), ("w1",))
        assert pm.to_model().packed.props == ("p", "q")
        for props in (("q", "p"), ("p", "p")):
            with pytest.raises(ModelValidationError) as exc:
                KripkeModel(replace(pm, props=props))
            assert exc.value.violations == [f"props not sorted and distinct: {props}"]
        with pytest.raises(ModelValidationError) as exc:
            KripkeModel(replace(pm, names=()))
        assert exc.value.violations == ["0 world names for 1 worlds"]

    def test_reports_names_with_masks(self):
        # bad names no longer stop the check: the mask violations come too
        pm = PackedModel(2, (1, 0), (0, 0), 0, ("true",), (0,), ("a", "b c"))
        with pytest.raises(ModelValidationError) as exc:
            pm.to_model()
        assert exc.value.violations == [
            "bad world name 'b c'", "bad proposition name 'true'", "order not reflexive at 'b c'",
        ]
