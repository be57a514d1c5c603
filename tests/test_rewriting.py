import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidcomm.catalog import catalog
from braidcomm.rewriting import (
    _walk,
    expand,
    expansion_identity_holds,
    representative,
    rewrite,
    schreier_generator,
    symbolic_rewrite,
)
from braidcomm.schemas import Affine, aff, enumerate_bindings, schema
from braidcomm.words import (
    EMPTY,
    WordError,
    concat,
    delete_generators,
    normalize,
    word,
)
from oracles import (
    bidegree,
    conjugate,
    expand_by_generators,
    gen,
    instantiate,
    is_trivial_pair,
    rewrite_conjugated_relator,
    walk_by_units,
)

s1, r1 = gen("s", 1), gen("r", 1)


def test_representative_and_coset_key():
    assert str(representative(2, 1)) == "s1^2 r1"
    assert bidegree(representative(2, 1)) == (2, 1)
    assert bidegree(word(gen("s", 3))) == (1, 0)
    assert bidegree(word((gen("r", 2), -1), s1, gen("r", 2))) == (1, 0)
    # every initial segment of a representative is again a representative
    for m, k in [(3, 2), (-2, 1), (0, -3)]:
        units = representative(m, k).units()
        for cut in range(len(units) + 1):
            prefix = normalize(units[:cut])
            assert prefix == representative(*bidegree(prefix))


def test_schreier_generator_expansions():
    name, e = schreier_generator((0, 0), s1, 5)
    assert name == ("a", (0, 0, 1)) and e == EMPTY
    name, e = schreier_generator((1, 2), gen("s", 3), 5)
    assert name == ("a", (1, 2, 3)) and str(e) == "s1 r1^2 s3 r1^-2 s1^-2"
    for k in (-4, 0, 7):
        name, e = schreier_generator((0, k), r1, 5)
        assert name == ("b", (0, k, 1)) and e == EMPTY
    with pytest.raises(WordError):
        schreier_generator((0, 0), gen("s", 9), 5)


def test_every_expansion_has_zero_bidegree():
    for m in range(-3, 4):
        for k in range(-3, 4):
            for i in range(1, 5):
                for letter in (gen("s", i), gen("r", i)):
                    _, e = schreier_generator((m, k), letter, 5)
                    assert bidegree(e) == (0, 0)


def test_trivial_pairs_exactly_match_their_expansions():
    for m in range(-5, 6):
        for k in range(-5, 6):
            for i in range(1, 6):
                for letter in (gen("s", i), gen("r", i)):
                    _, e = schreier_generator((m, k), letter, 7)
                    assert is_trivial_pair((m, k), letter) == (e == EMPTY)
    assert is_trivial_pair((3, 0), s1)
    assert not is_trivial_pair((3, 1), s1)
    assert is_trivial_pair((-2, 5), r1)


def test_rewrite_of_cancelling_word_is_empty():
    assert rewrite(word(s1, (s1, -1)), 4) == EMPTY
    assert rewrite_conjugated_relator((0, 0), normalize([(s1, 1), (s1, -1)]), 4) == EMPTY


def test_rewrite_commuting_crossings_at_identity():
    w = word(gen("s", 2), gen("s", 4), (gen("s", 2), -1), (gen("s", 4), -1))
    assert str(rewrite(w, 5)) == "a[0,0,2] a[1,0,4] a[1,0,2]^-1 a[0,0,4]^-1"


def test_rewrite_companion_braid_at_identity():
    w = word(gen("r", 2), gen("r", 3), gen("r", 2),
             (gen("r", 3), -1), (gen("r", 2), -1), (gen("r", 3), -1))
    assert str(rewrite(w, 5)) == \
        "b[0,0,2] b[0,1,3] b[0,2,2] b[0,2,3]^-1 b[0,1,2]^-1 b[0,0,3]^-1"


def test_rewrite_rejects_nonkernel_words():
    with pytest.raises(WordError, match="kernel"):
        rewrite(word(s1), 4)


def test_expand_examples():
    assert expand(word(gen("a", 0, 0, 1)), 5) == EMPTY
    assert str(expand(word(gen("b", 0, 0, 2)), 5)) == "r2 r1^-1"


def test_expansion_identity_on_sampled_relators():
    ok, checked = expansion_identity_holds("GVB", 4, 2)
    assert ok and checked == 14 * 25
    ok, _ = expansion_identity_holds("SG", 3, 2)
    assert ok
    assert expansion_identity_holds("SG", 3, 0) == (True, 5)


def test_expansion_identity_refuses_a_negative_bound():
    # a negative bound leaves no representative, so no pair would be checked
    with pytest.raises(ValueError, match="bound must be >= 0"):
        expansion_identity_holds("SG", 3, -1)


def test_rewrite_vs_instantiated_symbolic_schema_through_expansion():
    # the symbolic schema, instantiated and stripped of its trivial pairs,
    # equals the direct rewrite letter for letter, and both expand back to
    # the conjugate
    keys = [(m, k) for m in range(-2, 3) for k in range(-2, 3)]
    for group, n in (("GVB", 4), ("SG", 4), ("GVB", 5)):
        pres = catalog(group, n)
        for rel in pres.relators:
            sym = symbolic_rewrite(rel, "t")
            for bindings in enumerate_bindings(pres, rel, 0):
                inst = instantiate(rel, bindings)
                for m, k in keys:
                    conj = conjugate(inst, representative(m, k))
                    direct = rewrite_conjugated_relator((m, k), inst, n)
                    image = instantiate(sym, dict(bindings, m=m, k=k))
                    trivial = {g for g in image.generators() if is_trivial_pair(
                        g[1][:2], ("s" if g[0] == "a" else "r", g[1][2:]))}
                    assert delete_generators(image, trivial) == direct, (rel.label, bindings, m, k)
                    assert expand(direct, n) == conj


KERNEL_BASE = st.lists(
    st.tuples(st.sampled_from([gen("s", i) for i in (1, 2, 3)]
                              + [gen("r", i) for i in (1, 2, 3)]),
              st.integers(-2, 2)),
    max_size=8,
)


def _kernel_word(raw):
    w = normalize(raw)
    m, k = bidegree(w)
    return concat(w, normalize([(r1, -k), (s1, -m)]))


@given(KERNEL_BASE, KERNEL_BASE)
@settings(max_examples=60, deadline=None)
def test_rewrite_is_multiplicative_on_kernel_words(raw_u, raw_v):
    u, v = _kernel_word(raw_u), _kernel_word(raw_v)
    assert bidegree(u) == (0, 0) and bidegree(v) == (0, 0)
    assert rewrite(concat(u, v), 4) == concat(rewrite(u, 4), rewrite(v, 4))


@given(KERNEL_BASE)
@settings(max_examples=60, deadline=None)
def test_rewrite_then_expand_recovers_kernel_words(raw):
    u = _kernel_word(raw)
    assert expand(rewrite(u, 4), 4) == u


WALK_LETTERS = st.lists(
    st.tuples(st.sampled_from([gen(f, i) for f in "sr" for i in (1, 2, 3)]),
              st.integers(-3, 3)),
    max_size=10,
)


@given(WALK_LETTERS, st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=200, deadline=None)
def test_walk_matches_the_per_unit_walk(raw, m, k):
    letters = normalize(raw).letters
    assert _walk(letters, (m, k), 0, 1) == walk_by_units(letters, (m, k), 0, 1)
    u = _kernel_word(raw)
    units, end = walk_by_units(u.letters, (0, 0), 0, 1)
    assert end == (0, 0)
    assert rewrite(u, 4) == normalize(units)


def test_symbolic_rewrite_matches_the_per_unit_walk():
    start, zero, one = (aff("m"), aff("k")), Affine.of(0), Affine.of(1)
    checked = 0
    for group in ("GVB", "SG"):
        for n in (3, 4, 5, 6):
            for rel in catalog(group, n).relators:
                pairs = [((f, idx), e) for f, idx, e in rel.template]
                units, end = walk_by_units(pairs, start, zero, one)
                assert _walk(pairs, start, zero, one) == (units, end)
                assert end == start
                want = schema("t", ("m", "k") + rel.params,
                              [(f, idx, e) for (f, idx), e in units], rel.guards)
                assert symbolic_rewrite(rel, "t") == want, (group, n, rel.label)
                checked += 1
    assert checked == 56


AB_WORDS = st.lists(
    st.tuples(st.sampled_from("ab"), st.integers(-2, 2), st.integers(-2, 2),
              st.integers(1, 3), st.integers(-3, 3)),
    max_size=8,
).map(lambda letters: normalize([(gen(f, m, k, i), e) for f, m, k, i, e in letters]))


@given(st.lists(AB_WORDS, min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_expand_agrees_with_and_without_a_shared_table(ws):
    pieces: dict = {}
    for w in ws:
        fresh = expand(w, 4)
        assert expand(w, 4, pieces) == fresh
        assert fresh == expand_by_generators(w, 4)
