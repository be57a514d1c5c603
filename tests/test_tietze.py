import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from braidcomm import tietze
from braidcomm.derived import raw_derived, simplified_derived
from braidcomm.replays import SCRIPTS, simplify
from braidcomm.tietze import MARGIN, ReplayError, TruncatedPresentation, _Texts, origin_of
from braidcomm.words import EMPTY, Word, fmt_gen, normalize, word
from oracles import every_schema, from_schema_by_insert, gen, relators_containing, rename_by_letters


def _gvb3(M=3):
    return TruncatedPresentation.from_schema(simplified_derived("GVB", 3), M)


def test_from_schema_populates_window_generators():
    p = _gvb3(2)
    assert ("a", (0, 0, 1)) in p.gens and ("b", (2, 2, 2)) in p.gens
    # letters spill past the window where relators reach
    assert ("a", (4, 0, 1)) in p.gens
    assert all(w for w in p.relators.values())


def _assert_pruned_start_like(full, pres, window, rng: random.Random):
    """A start pruned to a drawn ``keep`` holds the kept subset of ``full``
    under the full start's ids, with the full generators and ``start``
    record, and gives every relator of ``full`` on request.  Origins with a
    label the schema lacks, or with other parameter names, keep nothing."""
    origins = list(full.origins.values())
    share = rng.choice((0.0, 0.1, 0.5, 0.9, 1.0))
    keep = {o for o in origins if rng.random() < share}
    decoys = {("no such label", ())} | {
        (label, tuple((f"{name}'", v) for name, v in items)) for label, items in origins[:3]
        if items}
    r = TruncatedPresentation.from_schema(pres, window, keep=keep | decoys)
    where = (pres.name, pres.n, window, share)
    assert list(r.origins.items()) == [
        (rid, o) for rid, o in full.origins.items() if o in keep], where
    assert list(r.relators.items()) == [
        (rid, w) for rid, w in full.relators.items() if full.origins[rid] in keep], where
    assert r._by_origin == {o: rid for rid, o in r.origins.items()}, where
    assert {g: sorted(ids) for g, ids in r._gen_index.items()} == \
        {g: ids for g, ids in relators_containing(r).items() if ids}, where
    assert r.gens == full.gens, where
    assert r._records == full._records, where
    assert r._next_id == full._next_id, where
    assert list(r.all_relators().items()) == list(full.relators.items()), where


def test_from_schema_matches_the_insert_route_on_every_schema():
    count = 0
    for pres in every_schema():
        for window in range(7):
            p = TruncatedPresentation.from_schema(pres, window)
            _assert_pruned_start_like(p, pres, window,
                                      random.Random(f"{pres.name} {pres.n} {window}"))
            if window > 3:
                continue
            q = from_schema_by_insert(pres, window)
            where = (pres.name, pres.n, window)
            assert list(p.relators.items()) == list(q.relators.items()), where
            assert list(p.origins.items()) == list(q.origins.items()), where
            assert p._by_origin == q._by_origin, where
            assert p._gen_index == q._gen_index, where
            assert p.gens == q.gens, where
            assert p._next_id == q._next_id, where
            assert p.transcript == q.transcript, where
            count += len(p.relators)
    assert count > 20000


def _one_object_per_value(values) -> bool:
    return len({id(v) for v in values}) == len(set(values))


@pytest.mark.parametrize("pres", [raw_derived("GVB", 5), simplified_derived("SG", 5)],
                         ids=lambda pres: f"{pres.name}-n{pres.n}")
def test_start_presentations_share_letters_generators_and_binding_pairs(pres):
    p = TruncatedPresentation.from_schema(pres, 3)
    letters = [x for w in p.relators.values() for x in w.letters]
    gens = [g for g, _ in letters] + list(p.gens) + list(p._gen_index)
    pairs = [pair for _, items in p.origins.values() for pair in items]
    for values in (letters, gens, pairs):
        assert len(values) > len(set(values))  # something to share
        assert _one_object_per_value(values)
    # a rename rebuilds the runs of old and keeps every other letter
    old = Counter(g for g, _ in letters).most_common(1)[0][0]
    new = ("z", (0,))
    before = {rid: w.letters for rid, w in p.relators.items()}
    p.rename(old, new)
    renamed = 0
    for rid, was in before.items():
        now = p.relators[rid].letters
        assert len(now) == len(was)
        for x, y in zip(was, now):
            if x[0] == old:
                assert y == (new, x[1])
                renamed += 1
            else:
                assert y is x
    assert renamed > 1


def _held_bytes(build, pres, window) -> int:
    """Bytes still allocated after ``build(pres, window)``, its result held."""
    build(pres, window)  # compile the enumerators outside the measurement
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        held = build(pres, window)  # noqa: F841 -- kept alive while measured
        return tracemalloc.get_traced_memory()[0] - base
    finally:
        if started:
            tracemalloc.stop()


def test_from_schema_holds_at_most_65_percent_of_the_unshared_route():
    pres = raw_derived("GVB", 5)
    shared = _held_bytes(TruncatedPresentation.from_schema, pres, 3)
    unshared = _held_bytes(from_schema_by_insert, pres, 3)
    assert shared <= 0.65 * unshared, (shared, unshared)


def test_eliminate_by_single_letter_relator():
    p = _gvb3()
    expr = p.eliminate(("a", (2, 0, 1)), origin_of("triv_a", {"m": 2}))
    assert expr == EMPTY
    assert ("a", (2, 0, 1)) not in p.gens
    assert p.transcript[-1].startswith("eliminate a[2,0,1] via a[2,0,1] := 1")


def test_eliminate_solves_the_left_mixed_relation():
    p = _gvb3()
    expr = p.eliminate(("b", (2, 0, 2)), origin_of("mixed_l_1", {"m": 0, "k": 0}))
    assert str(expr) == "a[1,0,1]^-1 a[0,0,2]^-1 a[0,1,2] a[1,1,1]"


_X, _T, _Y = gen("x", 0), gen("t", 0), gen("y", 0)


@pytest.mark.parametrize("last, sign, expected", [
    (1, 1, "x0^-2 y0^-1"), (1, -1, "y0 x0^2"),  # after, before: y x . x merge
    (-1, 1, "y0^-1"), (-1, -1, "y0"),  # y x^-1 . x cancel
])
def test_eliminate_joins_the_letters_after_and_before_the_target(last, sign, expected):
    p = _gvb3()
    p.add_relators([(word(_X, (_T, sign), _Y, (_X, last)), ("seam",)),
                    (word(_T, _X), ("other",))])
    rid, _ = p.current(("other",))
    expr = p.eliminate(_T, ("seam",))
    assert str(expr) == expected
    assert p.current(("other",))[1] == normalize(expr.letters + ((_X, 1),))
    assert all(rid in p._gen_index[g] for g in expr.generators())
    assert p.transcript[-1].endswith(f" := {expected}")


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_eliminate_solves_its_defining_relator(name):
    # oracle: the letters after the target, then those before it, reduced
    # by normalize; the inverse of that when the target has exponent +1
    seen = []

    def observer(step):
        if step["kind"] != "eliminate":
            return
        letters, target, sign = step["defining"].letters, step["target"], step["sign"]
        column = [g for g, _ in letters]
        assert column.count(target) == 1
        pos = column.index(target)
        assert letters[pos][1] == sign
        solved = normalize(letters[pos + 1:] + letters[:pos])
        if sign == 1:
            solved = normalize([(g, -e) for g, e in reversed(solved.letters)])
        assert step["expression"] == solved, (name, fmt_gen(target))
        seen.append(target)

    SCRIPTS[name](3, callback=observer)
    assert seen


_GENS = st.sampled_from([_X, _Y, ("a", (0, 0, 1)), ("b", (-2, 1, 2))])


@given(st.lists(st.lists(st.tuples(_GENS, st.integers(-4, 4)), max_size=10), max_size=6))
@example([[]])
@example([[(_X, 2), (_Y, -1), (_X, 1), (("a", (0, 0, 1)), -3), (_X, -2)], [(_X, 1)]])
def test_a_render_table_formats_words_as_str(raw):
    texts = _Texts()  # one table for every word, as in one render
    for letters in raw:
        w = normalize(letters)
        assert texts.word(w) == str(w)


def test_a_render_formats_each_generator_once(monkeypatch):
    p = SCRIPTS["simplify-gvb-n4"](3)
    expected = p.transcript
    gens = set()
    for _, *values in p._records:
        for v in values:
            if isinstance(v, Word):
                gens.update(v.generators())
            elif isinstance(v, list):
                gens.update(v)
            elif isinstance(v, tuple):
                gens.add(v)
    calls = Counter()

    def counting_fmt_gen(g):
        calls[g] += 1
        return fmt_gen(g)

    monkeypatch.setattr(tietze, "fmt_gen", counting_fmt_gen)
    assert p.transcript == expected
    assert gens and calls.keys() == gens
    assert set(calls.values()) == {1}


def test_eliminate_rejects_non_isolating_occurrences():
    p = _gvb3()
    x, y = gen("x", 0), gen("y", 0)
    p.add_relators([(word(x, y, (x, -1)), ("bad",))])
    with pytest.raises(ReplayError, match="not isolating"):
        p.eliminate(x, ("bad",))
    p.add_relators([(word((x, 2)), ("sq",))])
    with pytest.raises(ReplayError, match="not isolating"):
        p.eliminate(x, ("sq",))


def test_eliminate_rejects_missing_relator_and_generator():
    p = _gvb3()
    with pytest.raises(ReplayError, match="no longer present"):
        p.eliminate(("a", (0, 0, 1)), origin_of("triv_a", {"m": 99}))
    with pytest.raises(ReplayError, match="not present"):
        p.eliminate(("a", (99, 0, 1)), origin_of("triv_a", {"m": 0}))


def test_substitution_rewrites_other_relators():
    p = _gvb3()
    target = ("b", (0, 0, 2))
    before = {rid for rid in p.relators if target in p.relators[rid].generators()}
    p.eliminate(target, origin_of("mixed_r_1", {"m": 0, "k": 0}))
    for rid in before:
        if rid in p.relators:
            assert target not in p.relators[rid].generators()


def test_rename_moves_occurrences():
    p = _gvb3()
    old, new = ("a", (0, 0, 1)), ("a", (77,))
    x, y = ("a", (0, 1, 1)), ("b", (0, 0, 2))
    # old in five runs with exponents +-1 and +-2
    p.add_relators([(word(old, x, (old, -2), y, (old, 2), (x, -1), (old, -1), y, old),
                     ("dense",))])
    before = dict(p.relators)
    p.rename(old, new)
    assert new in p.gens and old not in p.gens
    assert p.relators.keys() == before.keys()
    assert str(p.current(("dense",))[1]) == (
        "a77 a[0,1,1] a77^-2 b[0,0,2] a77^2 a[0,1,1]^-1 a77^-1 b[0,0,2] a77")
    for rid, w in before.items():
        if old in w.generators():
            assert p.relators[rid] == rename_by_letters(w, old, new)
        else:
            assert p.relators[rid] is w
    with pytest.raises(ReplayError):
        p.rename(("a", (0, 1, 1)), new)


def test_derive_collapsed_requires_one_letter_relators():
    p = _gvb3()
    doomed = {("a", (m, 0, 1)): origin_of("triv_a", {"m": m}) for m in range(-3, 4)}
    w = p.derive_collapsed(origin_of("braid_ss_1", {"m": 0, "k": 0}), doomed,
                           ("edge", 0))
    assert str(w) == "a[1,0,2] a[2,0,2]^-1 a[0,0,2]^-1"
    assert p.transcript[-1] == (
        "derive a[1,0,2] a[2,0,2]^-1 a[0,0,2]^-1 from a[0,0,1] a[1,0,2] a[2,0,1] "
        "a[2,0,2]^-1 a[1,0,1]^-1 a[0,0,2]^-1 deleting {a[0,0,1], a[1,0,1], a[2,0,1]}")
    mixed = origin_of("mixed_r_1", {"m": 0, "k": 0})
    with pytest.raises(ReplayError, match="is not a one-letter relator"):
        p.derive_collapsed(mixed, {("b", (0, 0, 2)): mixed}, ("edge", 1))
    with pytest.raises(ReplayError, match="no longer present"):
        p.derive_collapsed(mixed, {("b", (0, 0, 2)): origin_of("triv_a", {"m": 9})},
                           ("edge", 2))


def test_interior_bookkeeping():
    p = _gvb3(3)
    interior = p.interior()
    assert ("a", (1, -1, 2)) in interior
    assert ("a", (2, 0, 2)) not in interior  # |2| > 3 - MARGIN
    empty = TruncatedPresentation.from_schema(
        simplified_derived("GVB", 3), 3)
    empty.gens.clear()
    assert empty.interior() == set()


def test_interior_is_empty_below_the_margin():
    for window in range(MARGIN):
        p = _gvb3(window)
        assert p.gens and p.relators
        assert p.interior() == set()
        assert p.interior_relator_set() == set()


def test_replays_are_deterministic():
    a = simplify("SG", 3, 3).transcript_text()
    b = simplify("SG", 3, 3).transcript_text()
    assert a == b


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_the_generator_index_and_touched_lists_match_brute_force(name):
    # the index may keep stale ids, but never miss a live occurrence, and
    # an elimination reports exactly the relators that contain its target
    held = {}

    def observer(step):
        if step["kind"] == "start":
            held["p"] = step["presentation"]
        if step["kind"] != "eliminate":
            return
        p, target, index = held["p"], step["target"], held["p"]._gen_index
        expected, missing = [], []
        for rid, w in p.relators.items():
            gens = w.generators()
            if target in gens and rid != step["defining_rid"]:
                expected.append(rid)
            for g in gens:
                if rid not in index.get(g, ()):
                    missing.append((fmt_gen(g), rid))
        assert [rid for rid, _, _ in step["touched"]] == sorted(expected)
        assert not missing

    p = SCRIPTS[name](3, callback=observer)
    assert held["p"] is p
    for g, ids in relators_containing(p).items():
        assert list(p._live_with(g)) == ids
