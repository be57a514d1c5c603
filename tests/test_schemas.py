import dataclasses
import random
import re

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from braidcomm.catalog import catalog
from braidcomm.derived import raw_derived, simplified_derived
from braidcomm.quotients import quotient_by
from braidcomm.schemas import (
    Affine,
    Guard,
    GuardError,
    PresentationSchema,
    RelatorSchema,
    aff,
    band,
    cmp,
    enumerate_instances,
    instance_set,
    instances,
    _instances_source,
    schema,
)
from oracles import (every_schema, gen, instances_by_bindings, instantiate, relator,
                     schema_sets_equal, word)


def test_affine_arithmetic():
    e = aff("m", 2)
    assert e.evaluate({"m": 3}) == 5
    assert (e - aff("m")).is_constant()
    assert str(aff("m", -1)) == "m-1"
    assert aff("i") + aff("i") == Affine(0, (("i", 2),))


def test_guard_evaluation():
    g = band("i", "j")
    assert g.holds({"i": 1, "j": 3})
    assert not g.holds({"i": 2, "j": 3})
    le = cmp("j", ">=", 4)
    assert le.holds({"j": 4}) and not le.holds({"j": 3})


def test_instantiate_crossing_braid_family():
    gvb = simplified_derived("GVB", 5)
    rel = relator(gvb, "braid_ss_1")
    w = instantiate(rel, {"m": 0, "k": 0})
    assert w == word(gen("a", 0, 0, 1), gen("a", 1, 0, 2), gen("a", 2, 0, 1),
                     (gen("a", 2, 0, 2), -1), (gen("a", 1, 0, 1), -1),
                     (gen("a", 0, 0, 2), -1))


def test_instantiate_trivial_family_and_guard_rejection():
    gvb = simplified_derived("GVB", 5)
    assert instantiate(relator(gvb, "triv_a"), {"m": 5}) == word(gen("a", 5, 0, 1))
    comm = relator(catalog("GVB", 5), "comm_ss")
    with pytest.raises(GuardError, match=r"\|i-j\|>1"):
        instantiate(comm, {"i": 2, "j": 3})
    with pytest.raises(GuardError, match="unbound"):
        instantiate(comm, {"i": 2})


def test_enumerate_trivial_family_window_one():
    gvb = simplified_derived("GVB", 5)
    out = enumerate_instances(gvb, relator(gvb, "triv_a"), 1)
    assert out == [word(gen("a", m, 0, 1)) for m in (-1, 0, 1)]


def test_enumerate_respects_guards():
    pres = PresentationSchema("t", 3, (("x", (None,)),), (
        schema("pos", ("m",), [("x", [aff("m")], 1)], [cmp("m", ">=", 1)]),
    ))
    assert enumerate_instances(pres, pres.relators[0], 0) == []
    assert len(enumerate_instances(pres, pres.relators[0], 2)) == 2


def test_enumerate_companion_recurrence_count():
    # window 1: both integer parameters range over {-1, 0, 1} -> 3 x 3
    gvb = simplified_derived("GVB", 5)
    out = enumerate_instances(gvb, relator(gvb, "braid_rr_1"), 1)
    assert len(out) == 3 * 3


def test_schema_set_comparison():
    gvb = simplified_derived("GVB", 5)
    assert schema_sets_equal(gvb, [relator(gvb, "triv_a")], gvb, [relator(gvb, "triv_a")], 2)
    assert not schema_sets_equal(gvb, [relator(gvb, "braid_ss_1")],
                                 gvb, [relator(gvb, "braid_rr_1")], 2)


def test_schema_set_comparison_modulo_rotation_and_inverse():
    pres = PresentationSchema("t", 3, (("x", ((1, 2),)),), ())
    xy = schema("xy", (), [("x", [1], 1), ("x", [2], 1), ("x", [1], -1), ("x", [2], -1)])
    yx = schema("yx", (), [("x", [2], 1), ("x", [1], 1), ("x", [2], -1), ("x", [1], -1)])
    assert schema_sets_equal(pres, [xy], pres, [yx], 0)


def test_a_presentation_refuses_a_relator_label_used_twice():
    families = (("c", (None,)),)
    single = schema("t", ("m",), [("c", ["m"], 1)])
    pair = schema("t", ("m",), [("c", ["m"], 1), ("c", [aff("m", 1)], 1)])
    with pytest.raises(ValueError, match="relator label 't' occurs twice"):
        PresentationSchema("twice", 1, families, (single, pair))
    # a quotient adds its relators through the same constructor
    gvb = simplified_derived("GVB", 3)
    with pytest.raises(ValueError, match="relator label 'triv_a' occurs twice"):
        quotient_by(gvb, [relator(gvb, "triv_a")])


def test_a_relator_refuses_a_parameter_listed_twice():
    with pytest.raises(ValueError, match="parameter 'm' listed twice in t"):
        schema("t", ("m", "m"), [("c", ["m"], 1)])
    with pytest.raises(ValueError, match="parameter 'i' listed twice in u"):
        RelatorSchema("u", ("i", "j", "i"), ())


# a schema over i that also uses k and z, unlisted, in a guard or in a letter
UNLISTED = {
    "guard": ([("a", ["i"], 1)], [cmp("i", ">", 1), cmp("z", "<", aff("k", 2))]),
    "template": ([("a", ["i"], 1), ("b", ["z", "k"], 1)], [cmp("i", ">", 1)]),
}


@pytest.mark.parametrize("where", sorted(UNLISTED))
def test_a_relator_refuses_a_parameter_it_does_not_list(where):
    letters, guards = UNLISTED[where]
    unlisted = "parameter 'k' of t is not listed"
    with pytest.raises(ValueError, match=unlisted):
        schema("t", ("i",), letters, guards)
    template = tuple((fam, tuple(map(Affine.of, idx)), exp) for fam, idx, exp in letters)
    with pytest.raises(ValueError, match=unlisted):
        RelatorSchema("t", ("i",), template, tuple(guards))
    listed = RelatorSchema("t", ("i", "k", "z"), template, tuple(guards))
    with pytest.raises(ValueError, match=unlisted):
        dataclasses.replace(listed, params=("i", "z"))


def test_a_guard_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown guard kind '=='"):
        Guard("==", aff("i"), aff("j"))
    with pytest.raises(ValueError, match="unknown guard kind 'bond'"):
        Guard("bond", aff("i"), aff("j"), 1)


@pytest.mark.parametrize("op", ["band", "=="])
def test_cmp_refuses_what_is_not_a_comparison(op):
    # a band guard is built by band(), with its bound; cmp would give it bound 0
    with pytest.raises(ValueError, match=f"unknown comparison '{op}'"):
        cmp("i", op, "j")


def test_reduced_cancels_and_merges_equal_adjacent_letters():
    assert schema("x", ("i",), [("a", ["i"], 1), ("a", ["i"], -1)]).template == ()
    merged = schema("x", ("i",), [("a", ["i"], 1), ("a", ["i"], 1)])
    assert merged.template == (("a", (aff("i"),), 2),)
    i, j = aff("i"), aff("j")
    # a zero exponent is dropped, and its neighbours meet
    zero = RelatorSchema("x", ("i", "j"), (("a", (i,), 1), ("b", (j, i), 0), ("a", (i,), 2)))
    assert zero.template == (("a", (i,), 3),)
    # a cancellation exposes the next pair, down to the empty template
    cascade = RelatorSchema("x", ("i", "j"), (("a", (i,), 1), ("a", (j,), 1),
                                              ("a", (j,), -1), ("a", (i,), -1)))
    assert cascade.template == ()


# schemas with two adjacent letters that one binding makes equal, each
# with the pair that the refusal names
REFUSED = {
    "may_coincide": (("i", "j"), [("a", ["i"], 1), ("a", ["j"], -1)], [],
                     "a[i] and a[j]^-1"),
    "band_allows_equal": (("i", "j"), [("a", ["i"], 1), ("a", ["j"], -1)],
                          [band("i", "j", -1)], "a[i] and a[j]^-1"),
    "coincide_then_range": (("m", "i", "j"), [("b", ["m", aff("i", 1)], 1),
                                              ("b", ["m", "j"], -1), ("c", ["m"], 1)], [],
                            "b[m,i+1] and b[m,j]^-1"),
    "coincide_leaves_range": (("i", "j"), [("a", ["i"], 1), ("a", ["j"], -1),
                                           ("a", [aff("i", 1)], 1)], [],
                              "a[i] and a[j]^-1"),
    "zero_exponent": (("i", "j"), [("a", ["i"], 1), ("a", [aff("j", 3)], 0),
                                   ("a", ["j"], -1)], [], "a[i] and a[j]^-1"),
}


@pytest.mark.parametrize("label", sorted(REFUSED))
def test_a_relator_refuses_adjacent_letters_that_may_coincide(label):
    params, letters, guards, pair = REFUSED[label]
    refused = re.escape(f"adjacent letters {pair} of {label} may coincide")
    with pytest.raises(ValueError, match=refused):
        schema(label, params, letters, guards)
    template = tuple((fam, tuple(map(Affine.of, idx)), exp) for fam, idx, exp in letters)
    with pytest.raises(ValueError, match=refused):
        RelatorSchema(label, params, template, tuple(guards))
    accepted = RelatorSchema(label, params, template[:1], tuple(guards))
    with pytest.raises(ValueError, match=refused):
        dataclasses.replace(accepted, template=template)


def test_strand_validity_filters_instances():
    # at n=4 the a[j] commutations with j >= 4 have no valid instances
    gvb = simplified_derived("GVB", 4)
    assert enumerate_instances(gvb, relator(gvb, "comm_ss_2j"), 2) == []
    assert enumerate_instances(gvb, relator(gvb, "comm_ss_jj"), 2) == []
    # and at n=6 the braid family on a[i] needs i+1 <= 5
    gvb6 = simplified_derived("GVB", 6)
    out = enumerate_instances(gvb6, relator(gvb6, "braid_ss_j"), 0)
    assert len(out) == 2  # i in {3, 4}


def test_interior_filter():
    gvb = simplified_derived("GVB", 5)
    full = instance_set(gvb, [relator(gvb, "braid_rr_1")], 3)
    interior = instance_set(gvb, [relator(gvb, "braid_rr_1")], 3, interior=1)
    assert interior < full
    # k+2 <= 1 and k >= -1 force k = -1
    assert len(interior) == 3


# -- the compiled enumerator against the one-binding-at-a-time route -----------


def test_compiled_instances_match_bindings_on_every_schema():
    count = 0
    for pres in every_schema():
        for rel in pres.relators:
            for window in range(4):
                got = list(instances(pres, rel, window))
                assert got == instances_by_bindings(pres, rel, window), (pres.name, rel.label)
                count += len(got)
    assert count > 20000


# a ranged index (a), a window and a ranged index (b), a window index (c)
TOY = PresentationSchema("toy", 4, (("a", ((1, 3),)), ("b", (None, (1, 3))), ("c", (None,))), ())
GUARD_KINDS = ("=", "!=", "<", "<=", ">", ">=", "band")


def _outcome(route, rel, window):
    try:
        return route(TOY, rel, window)
    except Exception as exc:  # noqa: BLE001 -- compared between the routes
        return type(exc), str(exc)


def _compiled_route(pres, rel, window):
    return list(instances(pres, rel, window))


def _assert_same(rel):
    for window in range(3):
        assert _outcome(_compiled_route, rel, window) == \
            _outcome(instances_by_bindings, rel, window), (str(rel), window)


EDGE_CASES = [
    schema("zero_params", (), [("a", [1], 1), ("c", [0], -1), ("a", [4], 1)]),
    schema("zero_params_in_range", (), [("a", [1], 1), ("c", [0], -1)]),
    *(schema(f"guard {kind}", ("i", "j"), [("a", ["i"], 1), ("b", ["j", "i"], -1)],
             [band("i", "j") if kind == "band" else cmp("i", kind, "j")])
      for kind in GUARD_KINDS),
    schema("leaves_range", ("i",), [("a", ["i"], 1), ("a", [aff("i", 1)], -1)]),
    schema("band_keeps_apart", ("i", "j"), [("a", ["i"], 1), ("a", ["j"], -1)],
           [band("i", "j", 0)]),
    # the schemas of REFUSED made acceptable: a letter between the two that
    # may coincide, a constant index or a band guard keeps them apart
    schema("may_coincide", ("i", "j"), [("a", ["i"], 1), ("c", [0], 1), ("a", ["j"], -1)]),
    schema("band_allows_equal", ("i", "j"), [("b", ["i", 1], 1), ("b", ["j", 2], -1)],
           [band("i", "j", -1)]),
    schema("coincide_then_range", ("m", "i", "j"),
           [("b", ["m", aff("i", 1)], 1), ("b", ["m", "j"], -1), ("c", ["m"], 1)],
           [band("j", aff("i", 1), 0)]),
    schema("coincide_leaves_range", ("i", "j"),
           [("a", ["i"], 1), ("a", ["j"], -1), ("a", [aff("i", 1)], 1)],
           [band("i", "j", 0), band("j", aff("i", 1), 0)]),
    schema("zero_exponent", ("i", "j"), [("a", ["i"], 1), ("a", [aff("j", 3)], 0),
                                         ("a", ["j"], -1)], [band("i", "j", 0)]),
    schema("window_guard", ("m", "k"), [("c", ["m"], 1), ("b", [aff("k", 2), 1], 1)],
           [cmp(aff("m", "k"), ">=", 1), band("m", 0, 0)]),
    schema("undeclared_family", ("i",), [("a", ["i"], 1), ("z", ["i"], 1)]),
    # window coordinates: a constant, outside windows 0 and 1; a strand
    # parameter; bare window parameters, +-m, which never leave the window
    schema("constant_window", ("i",), [("a", ["i"], 1), ("c", [2], 1)]),
    schema("strand_in_window", ("i", "m"), [("c", ["m"], 1), ("b", ["i", "i"], 1),
                                            ("c", ["i"], -1)]),
    schema("bare_window", ("m", "k"), [("c", ["m"], 1), ("b", [-aff("k"), 2], 1)]),
]


@pytest.mark.parametrize("rel", EDGE_CASES, ids=lambda rel: rel.label)
def test_compiled_instances_match_bindings_on_edge_cases(rel):
    _assert_same(rel)


# -- instances(..., keep=...) against the unfiltered route --------------------


def _assert_keep_filters(pres, rel, window, rng: random.Random):
    """Draw a ``keep`` from the unfiltered route's binding values.  The kept
    pairs must be the unfiltered ones, filtered, in order, and every
    instance must still be counted.  Each unkept instance must yield some
    of its word's generators, among them every one outside the window, so
    that the yielded generators and ``gens_in_window(window)`` together
    cover the unkept words' generators."""
    try:
        full = list(instances(pres, rel, window))
    except Exception as exc:  # noqa: BLE001 -- the filtered route must fail alike
        with pytest.raises(type(exc)) as err:
            list(instances(pres, rel, window, keep=set()))
        assert str(err.value) == str(exc)
        return
    values = [tuple(v for _, v in items) for items, _ in full]
    share = rng.choice((0.0, 0.1, 0.5, 0.9, 1.0))
    keep = {v for v in values if rng.random() < share} | {(10 ** 6,) * len(rel.params)}
    got = list(instances(pres, rel, window, keep=keep))
    where = (pres.name, rel.label, window)
    assert [pair for pair in got if pair[0] is not None] == \
        [pair for pair, v in zip(full, values) if v in keep], where
    assert len(got) == len(full), where
    alphabet = pres.alphabet()
    unkept, yielded = set(), set()
    for (items, gens), (_, w), v in zip(got, full, values):
        if v in keep:
            continue
        assert items is None, where
        word_gens = w.generators()
        assert set(gens) <= word_gens, (where, w, gens)
        assert {g for g in word_gens if not alphabet.within_window(g, window)} <= set(gens), \
            (where, w, gens)
        unkept |= word_gens
        yielded.update(gens)
    assert unkept <= yielded | set(alphabet.gens_in_window(window)), where


def test_keep_filters_the_instances_of_every_schema():
    count = 0
    for pres in every_schema():
        for rel in pres.relators:
            for window in range(4):
                rng = random.Random(f"{pres.name} {rel.label} {window}")
                _assert_keep_filters(pres, rel, window, rng)
                count += 1
    assert count > 1000


def _unkept_branch(rel) -> str:
    """The generated source of the branch an unkept instance takes."""
    head, _, rest = _instances_source(TOY.alphabet(), rel).partition("if _keep is None")
    pad = head[head.rindex("\n") + 1:]
    return rest.split(f"\n{pad}else:\n", 1)[1]


def test_the_keep_edge_cases_reach_the_range_check_bodies():
    # instances are yielded as written, behind their range checks: a schema
    # whose adjacent letters may coincide is refused when it is built
    rel = next(rel for rel in EDGE_CASES if rel.label == "leaves_range")
    assert "if 1 <= v0+1 <= 3:" in _unkept_branch(rel)


def test_an_unkept_instance_yields_only_generators_that_may_leave_the_window():
    unkept = {rel.label: _unkept_branch(rel) for rel in EDGE_CASES
              if rel.label in ("constant_window", "strand_in_window", "bare_window")}
    assert unkept["bare_window"].strip() == "yield None, ()"
    assert unkept["constant_window"].strip() == \
        "yield None, (('c', (2, )), ) if not -window <= 2 <= window else ()"
    assert unkept["strand_in_window"].strip() == \
        "yield None, (('b', (v0, v0, )), ('c', (v0, )), ) if not -window <= v0 <= window else ()"
    # c[2] leaves windows 0 and 1 only
    rel = next(rel for rel in EDGE_CASES if rel.label == "constant_window")
    for window, yielded in ((0, ("c", (2,))), (1, ("c", (2,))), (2, None)):
        got = [gens for _, gens in instances(TOY, rel, window, keep=set())]
        assert got == [((yielded,) if yielded else ())] * 3


@pytest.mark.parametrize("rel", EDGE_CASES, ids=lambda rel: rel.label)
def test_keep_filters_the_instances_of_edge_cases(rel):
    for window in range(3):
        for seed in range(3):
            _assert_keep_filters(TOY, rel, window, random.Random(seed))


@st.composite
def toy_schemas(draw):
    params = tuple(draw(st.lists(st.sampled_from("ijm"), max_size=3, unique=True)))

    def expr():
        e = aff(draw(st.sampled_from((0, 0, 0, 1, -1, 3, 4))))
        if params and draw(st.integers(0, 3)):
            p = draw(st.sampled_from(params))
            e = {1: e + p, -1: e - p, 2: e + p + p}[draw(st.sampled_from((1, 1, -1, 2)))]
        return e

    arity = {"a": 1, "b": 2, "c": 1}
    letters = []
    for family in draw(st.lists(st.sampled_from("abc"), max_size=4)):
        letters.append((family, [expr() for _ in range(arity[family])],
                        draw(st.sampled_from((-2, -1, 0, 1, 1, 2)))))
    guards = []
    for kind in draw(st.lists(st.sampled_from(GUARD_KINDS), max_size=2)):
        x, y = expr(), expr()
        guards.append(band(x, y, draw(st.integers(-1, 2))) if kind == "band" else cmp(x, kind, y))
    try:
        return schema("drawn", params, letters, guards)
    except ValueError as exc:
        assert "may coincide" in str(exc)
        reject()


@settings(max_examples=300, deadline=None)
@given(toy_schemas())
def test_compiled_instances_match_bindings_on_drawn_schemas(rel):
    _assert_same(rel)


@settings(max_examples=300, deadline=None)
@given(toy_schemas(), st.randoms(use_true_random=False))
def test_keep_filters_the_instances_of_drawn_schemas(rel, rng):
    for window in range(3):
        _assert_keep_filters(TOY, rel, window, rng)


def test_band_guard_rules_out_the_coincidence_test():
    # |i-j|>1 keeps a[m+1,k,j] and a[m+1,k,i]^-1 apart, so rw_comm_ss builds
    raw = raw_derived("GVB", 4)
    rel = relator(raw, "rw_comm_ss")
    assert "not -1 <= v2-v3 <= 1" in _instances_source(raw.alphabet(), rel)
    # |i-j|>-1 holds for i = j too, so the same letters are refused
    loose = tuple(dataclasses.replace(g, bound=-1) if g.kind == "band" else g
                  for g in rel.guards)
    with pytest.raises(ValueError, match="of rw_comm_ss may coincide"):
        dataclasses.replace(rel, guards=loose)


def test_compiled_enumerator_quotes_names_and_refuses_non_ints():
    family = "a') or __import__('os') or ('"
    param = "i', __import__('os'), '"
    pres = PresentationSchema("quoted", 3, ((family, ((1, 2),)),), ())
    rel = schema("quoted", (param,), [(family, [param], 1)])
    assert list(instances(pres, rel, 0)) == [
        (((param, i),), word(gen(family, i))) for i in (1, 2)]
    with pytest.raises(TypeError, match="ints"):
        list(instances(pres, schema("half", (), [(family, [Affine(1.5)], 1)]), 0))
