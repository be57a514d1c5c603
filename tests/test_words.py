import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidcomm.rewriting import expand
from braidcomm.words import (
    Alphabet,
    EMPTY,
    WordError,
    bidegree,
    canonical_cyclic,
    concat,
    conjugate,
    freely_equal,
    gen,
    invert,
    normalize,
    power,
    substitute,
    word,
)
from oracles import (
    canonical_cyclic_all_rotations,
    exponent_sums,
    inverse_units,
    naive_reduce,
    reduce_units,
    substitute_by_normalize,
    substitute_units,
)

s1, s2, s3 = gen("s", 1), gen("s", 2), gen("s", 3)
r1, r2, r3 = gen("r", 1), gen("r", 2), gen("r", 3)


def test_inverse_pair_cancels():
    assert normalize([(s1, 1), (s1, -1)]) == EMPTY


def test_empty_sequence_is_identity():
    assert normalize([]) == EMPTY
    assert str(EMPTY) == "1"


def test_reduction_merges_through_cancellation():
    # oracle: stack reduction over single letters gives [s1, s1]
    raw = [(s1, 1), (r2, 1), (r2, -1), (s1, 1)]
    units = [(g, e) for g, e in raw]
    assert naive_reduce(units) == [(s1, 1), (s1, 1)]
    assert normalize(raw) == word((s1, 2))
    assert str(normalize(raw)) == "s1^2"


def test_normalize_rejects_bad_exponent():
    with pytest.raises(WordError):
        normalize([(s1, "x")])


def test_concat_invert_conjugate_power():
    w = word((s1, 2), (r3, -1))
    assert concat(w, invert(w)) == EMPTY
    assert conjugate(word(s2), EMPTY) == word(s2)
    assert concat(power(word(s1), 3), power(word(s1), -1)) == word((s1, 2))
    assert power(w, 0) == EMPTY
    assert power(w, -2) == invert(concat(w, w))


def test_bidegree_examples():
    w = word(s2, r3, (s1, -1))
    assert exponent_sums(w.units()) == {s2: 1, r3: 1, s1: -1}
    assert bidegree(w) == (0, 1)
    assert bidegree(EMPTY) == (0, 0)


def test_bidegree_rejects_foreign_family():
    with pytest.raises(WordError):
        bidegree(word(gen("a", 0, 0, 1)))


def test_kernel_generator_words_have_zero_bidegree():
    # s1^m r1^k s_i r1^-k s1^(-1-m) for a few (m, k, i)
    for m, k, i in [(0, 0, 1), (1, 2, 3), (-2, 5, 2)]:
        w = normalize([(s1, m), (r1, k), (gen("s", i), 1), (r1, -k), (s1, -1 - m)])
        assert bidegree(w) == (0, 0)


def test_freely_equal_power_merges():
    for m in (-3, 0, 1, 4):
        assert freely_equal(concat(power(word(s1), m), word(s1)),
                            power(word(s1), m + 1))
        assert freely_equal(concat(power(word(r1), m), word(r1)),
                            power(word(r1), m + 1))
    assert not freely_equal(word(s1, s2), word(s2, s1))


def test_display_syntax():
    w = word((s1, 2), (r3, -1), gen("a", 0, 1, 2))
    assert str(w) == "s1^2 r3^-1 a[0,1,2]"


def test_canonical_cyclic_identifies_rotations_and_inverse():
    x, y = gen("x", 1), gen("y", 1)
    comm = word(x, y, (x, -1), (y, -1))
    other = word(y, x, (y, -1), (x, -1))
    assert canonical_cyclic(comm) == canonical_cyclic(other)
    assert canonical_cyclic(conjugate(comm, word((x, 3), y))) == canonical_cyclic(comm)
    assert canonical_cyclic(word(x, y)) != canonical_cyclic(word(x, (y, -1)))


def test_alphabet_validation_names_offender():
    alpha = Alphabet()
    alpha.declare("s", ((1, 4),))
    alpha.make_word([(s1, 1)])
    with pytest.raises(WordError, match="s5"):
        alpha.make_word([(gen("s", 5), 1)])
    with pytest.raises(WordError, match="undeclared"):
        alpha.make_word([(r1, 1)])


GENS = st.sampled_from([s1, s2, s3, r1, r2, r3])
LETTERS = st.lists(st.tuples(GENS, st.integers(-3, 3)), max_size=14)


@given(LETTERS)
def test_normalize_is_idempotent(raw):
    once = normalize(raw)
    assert normalize(once.letters) == once


@given(LETTERS)
def test_normalize_matches_naive_reducer(raw):
    w = normalize(raw)
    units = []
    for g, e in raw:
        step = 1 if e > 0 else -1
        units.extend([(g, step)] * abs(e))
    assert w.units() == naive_reduce(units)


@given(LETTERS)
def test_word_times_inverse_is_identity(raw):
    w = normalize(raw)
    assert concat(w, invert(w)) == EMPTY
    assert concat(invert(w), w) == EMPTY


@given(LETTERS, LETTERS)
def test_bidegree_is_additive(raw_a, raw_b):
    a, b = normalize(raw_a), normalize(raw_b)
    ma, ka = bidegree(a)
    mb, kb = bidegree(b)
    assert bidegree(concat(a, b)) == (ma + mb, ka + kb)
    assert bidegree(invert(a)) == (-ma, -ka)


@given(LETTERS, LETTERS, LETTERS)
@settings(max_examples=40)
def test_freely_equal_is_an_equivalence(a, b, c):
    wa, wb, wc = normalize(a), normalize(b), normalize(c)
    assert freely_equal(wa, wa)
    assert freely_equal(wa, wb) == freely_equal(wb, wa)
    if freely_equal(wa, wb) and freely_equal(wb, wc):
        assert freely_equal(wa, wc)


@given(LETTERS, LETTERS)
@settings(max_examples=40)
def test_canonical_cyclic_constant_on_conjugates(raw, by):
    w, c = normalize(raw), normalize(by)
    assert canonical_cyclic(conjugate(w, c)) == canonical_cyclic(w)
    assert canonical_cyclic(invert(w)) == canonical_cyclic(w)


x1, x2 = gen("x", 1), gen("x", 2)
BLOCK = st.lists(st.tuples(st.sampled_from([x1, x2]), st.integers(-3, 3)),
                 max_size=4).map(normalize)


@st.composite
def cyclic_words(draw):
    """Products of two blocks and their inverses, raised to a power: over
    two generators the least letter ties often, and powers and inverse
    pairs give rotations that agree on long prefixes."""
    u, v = draw(BLOCK), draw(BLOCK)
    blocks = {"u": u, "U": invert(u), "v": v, "V": invert(v)}
    w = EMPTY
    for name in draw(st.lists(st.sampled_from("uUvV"), max_size=6)):
        w = concat(w, blocks[name])
    return power(w, draw(st.integers(1, 3)))


@given(cyclic_words())
@settings(max_examples=300)
# the least start is the second x1^-1 of the inverse
@example(word(x1, (x2, 2), x1, x2))
def test_canonical_cyclic_matches_every_rotation(w):
    assert canonical_cyclic(w) == canonical_cyclic_all_rotations(w)


def assert_substitute_matches_oracles(w, target, replacement):
    out = substitute(w, target, replacement)
    assert out.letters == reduce_units(substitute_units(w, target, replacement))
    assert out == substitute_by_normalize(w, target, replacement)
    assert substitute(w, target, replacement, invert(replacement)) == out
    assert (out is w) == (target not in w.generators())
    return out


THREE = st.sampled_from([s1, s2, r1])
WORDS3 = st.lists(st.tuples(THREE, st.integers(-3, 3)), max_size=12).map(normalize)


@given(WORDS3, WORDS3, THREE)
@settings(max_examples=150)
def test_word_algebra_matches_the_stack_oracle(w, v, target):
    assert invert(w).letters == reduce_units(inverse_units(w.letters))
    assert concat(w, v).letters == reduce_units(w.letters + v.letters)
    for e in range(-3, 4):
        base = list(w.letters) if e > 0 else inverse_units(w.letters)
        assert power(w, e).letters == reduce_units(base * abs(e))
    assert conjugate(w, v).letters == reduce_units(
        v.letters + w.letters + tuple(inverse_units(v.letters)))
    assert_substitute_matches_oracles(w, target, v)


def test_substitute_with_an_empty_replacement_merges_the_seam():
    # dropping s1 leaves s2 r1 r1^-1 s2: r1 cancels, then s2 merges
    w = word(s2, (s1, 2), r1, (s1, -1), (r1, -1), s2)
    assert assert_substitute_matches_oracles(w, s1, EMPTY) == word((s2, 2))


def test_substitute_can_cancel_the_whole_word():
    w = word(s2, s1, r1)
    assert assert_substitute_matches_oracles(w, r1, word((s1, -1), (s2, -1))) == EMPTY


def test_substitute_a_target_with_exponent_above_one():
    # (s2^-1 s1 s2)^-2 = s2^-1 s1^-2 s2
    w = word(s2, (r1, -2), s2)
    out = assert_substitute_matches_oracles(w, r1, word((s2, -1), s1, s2))
    assert out == word((s1, -2), (s2, 2))


NONZERO = st.integers(-3, 3).filter(bool)


@st.composite
def target_dense(draw):
    """(w, target, replacement) over s1 and r1: the target occurs in 2-6
    runs with exponents +-1..+-3, separated by nonzero powers of the other
    generator, and the replacement is a word over the same two, so seams
    cancel in cascades on both sides of each occurrence."""
    target, other = draw(st.permutations([s1, r1]))
    exps = draw(st.lists(NONZERO, min_size=2, max_size=6))
    gaps = draw(st.lists(NONZERO, min_size=len(exps) - 1, max_size=len(exps) - 1))
    head, tail = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    letters = [(other, head)]
    for i, e in enumerate(exps):
        letters += [(target, e), (other, gaps[i] if i < len(gaps) else tail)]
    w = normalize(letters)
    assert [g for g, _ in w.letters].count(target) == len(exps)
    replacement = draw(st.lists(st.tuples(st.sampled_from([s1, r1]), st.integers(-3, 3)),
                                max_size=6).map(normalize))
    return w, target, replacement


@given(target_dense())
@settings(max_examples=300)
def test_substitute_on_target_dense_words(case):
    w, target, replacement = case
    assert_substitute_matches_oracles(w, target, replacement)
    assert_substitute_matches_oracles(w, s2, replacement)


def test_substitute_tail_seam_cancels_the_replacement_and_the_run_before():
    # s1 -> r1 s2; the tail s2^-1 r1^-1 r3^-1 r2^-1 cancels r1 s2, then r3,
    # then merges into r2^2
    w = word((r2, 2), r3, s1, (s2, -1), (r1, -1), (r3, -1), (r2, -1), s3)
    assert assert_substitute_matches_oracles(w, s1, word(r1, s2)) == word(r2, s3)


AB_LETTERS = st.tuples(st.sampled_from("ab"), st.integers(-2, 2), st.integers(-2, 2),
                       st.integers(1, 3), st.integers(-2, 2))


def expansion_units(family, m, k, i):
    """a[m,k,i] = s1^m r1^k s_i r1^-k s1^(-m-1), b[m,k,i] = s1^m r1^k r_i r1^(-k-1) s1^-m."""
    if family == "a":
        return [(s1, m), (r1, k), (gen("s", i), 1), (r1, -k), (s1, -m - 1)]
    return [(s1, m), (r1, k), (gen("r", i), 1), (r1, -k - 1), (s1, -m)]


@given(st.lists(AB_LETTERS, max_size=8))
@settings(max_examples=100)
def test_expand_matches_the_oracle_on_concatenated_expansions(letters):
    w = normalize([(gen(f, m, k, i), e) for f, m, k, i, e in letters])
    raw = []
    for (family, (m, k, i)), e in w.letters:
        piece = expansion_units(family, m, k, i)
        raw.extend((piece if e > 0 else inverse_units(piece)) * abs(e))
    assert expand(w, 4).letters == reduce_units(raw)
