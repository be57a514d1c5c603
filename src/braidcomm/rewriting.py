"""Rewriting words of the commutator subgroup over its own alphabet.

The commutator subgroup of each catalog group is the kernel of the
bidegree map onto Z x Z.  Cosets are keyed by bidegree ``(m, k)`` and the
coset representative of ``(m, k)`` is ``s1^m r1^k``; the representative
set is closed under initial segments, which is what makes the rewriting
below valid.

For a coset key and an ambient letter the subgroup generator is the
representative times the letter times the inverse of the representative
of the product coset.  ``STEPS`` is the one table of this rule: a crossing
letter ``s[i]`` read at ``(m, k)`` becomes ``a[m,k,i]`` and moves the key
to ``(m+1, k)``, a companion letter ``r[i]`` becomes ``b[m,k,i]`` and
moves it to ``(m, k+1)``:

    a[m,k,i]  expands to  s1^m r1^k s[i] r1^-k s1^(-m-1)
    b[m,k,i]  expands to  s1^m r1^k r[i] r1^(-k-1) s1^-m

A pair is trivial when that expansion freely reduces to the empty word;
this happens exactly for ``s1`` at ``k = 0`` and for ``r1`` at any key.

One walk, ``_walk``, reads ambient letters from a start key, rewrites a
positive letter at the key before it and a negative one at the key after
it, and drops trivial pairs; a run of one letter is trivial as a whole or
not at all.  ``rewrite`` walks a word's concrete keys from ``(0, 0)``;
``symbolic_rewrite`` walks a relator schema's affine keys from the formal
key ``(m, k)``.  Dropping trivial letters makes the output match the
reduced relator lists used everywhere downstream; dropped letters expand
to the empty word, so expansion identities are unaffected.
"""

from __future__ import annotations

from .catalog import catalog
from .schemas import Affine, RelatorSchema, aff, enumerate_instances, schema
from .words import Gen, Word, WordError, _join, concat, fmt_gen, invert, normalize


S1: Gen = ("s", (1,))
R1: Gen = ("r", (1,))

# ambient family -> (subgroup family, step of m, step of k)
STEPS = {"s": ("a", 1, 0), "r": ("b", 0, 1)}
AMBIENT = {sub: family for family, (sub, _, _) in STEPS.items()}


def representative(m: int, k: int) -> Word:
    """Coset representative s1^m r1^k of the key (m, k)."""
    return normalize([(S1, m), (R1, k)])


def _check_index(i: int, n: int) -> None:
    if not (1 <= i <= n - 1):
        raise WordError(f"strand index {i} outside 1..{n - 1}")


def _step(family: str) -> tuple[str, int, int]:
    try:
        return STEPS[family]
    except KeyError:
        raise WordError(f"family {family!r} is not an ambient generator family") from None


def _trivial(dm, k, strand, zero, one) -> bool:
    """True iff the strand-1 letter appended to s1^m r1^k gives the next
    representative: always for r1 (which leaves m alone), for s1 only at k = 0."""
    return strand == one and (not dm or k == zero)


def _walk(letters, key, zero, one):
    """Rewrite ``((family, (strand,)), exponent)`` letters read from ``key``.

    Returns the subgroup letters ``((family, (m, k, strand)), +-1)`` with
    trivial pairs dropped, and the key reached.  Keys and strands are ints
    for a word and affine forms for a schema; ``zero`` and ``one`` are the
    constants of the same type.
    """
    m, k = key
    out = []
    for (family, (strand,)), e in letters:
        sub, dm, dk = _step(family)
        # a run is trivial as a whole: r1 at any key, s1 only at k = 0,
        # and k stays fixed along an s run
        if not _trivial(dm, k, strand, zero, one):
            sign = 1 if e > 0 else -1
            # the j-th unit letter of the run is rewritten at (m + j*dm, k + j*dk)
            for j in range(e) if e > 0 else range(-1, e - 1, -1):
                out.append(((sub, (m + j * dm, k + j * dk, strand)), sign))
        m, k = m + e * dm, k + e * dk
    return out, (m, k)


def schreier_generator(key: tuple[int, int], letter: Gen, n: int) -> tuple[Gen, Word]:
    """Subgroup generator name and its expansion for (representative, letter)."""
    m, k = key
    family, (i,) = letter
    sub, dm, dk = _step(family)
    _check_index(i, n)
    expansion = normalize([(S1, m), (R1, k), (letter, 1), (R1, -k - dk), (S1, -m - dm)])
    return (sub, (m, k, i)), expansion


def expand(w: Word, n: int, pieces: dict | None = None) -> Word:
    """Substitute every a/b letter by its expansion over s/r and reduce.

    ``pieces``, when given, maps each a/b letter already expanded to the
    letters of its expansion and of the inverse expansion; missing
    letters are built and added.  A caller expanding many words at one
    ``n`` passes one dict to build each expansion once.  The letters are
    checked against ``n`` only when built, so a dict serves one ``n``.
    """
    if pieces is None:
        pieces = {}
    out: list[tuple[Gen, int]] = []
    for g, e in w.letters:
        pair = pieces.get(g)
        if pair is None:
            family, idx = g
            if family not in AMBIENT or len(idx) != 3:
                raise WordError(f"cannot expand letter {fmt_gen(g)}")
            m, k, i = idx
            _, expansion = schreier_generator((m, k), (AMBIENT[family], (i,)), n)
            pair = pieces[g] = (expansion.letters, invert(expansion).letters)
        piece = pair[0] if e > 0 else pair[1]
        for _ in range(abs(e)):
            _join(out, piece)
    return Word._make(tuple(out))


def rewrite(w: Word, n: int) -> Word:
    """Translate a kernel word into a word over the a/b alphabet by walking
    its letters from the key (0, 0).  Only defined on bidegree-(0,0) words."""
    letters, end = _walk(w.letters, (0, 0), 0, 1)
    for (_, (i,)), _ in w.letters:
        _check_index(i, n)
    if end != (0, 0):
        raise WordError(f"not a kernel element: bidegree {end} != (0, 0)")
    return normalize(letters)


def expansion_identity_holds(group: str, n: int, bound: int) -> tuple[bool, int]:
    """Check expand(rewrite(c r c^-1)) == c r c^-1 for every defining
    relator r and every representative c with both exponents in
    [-bound, bound].  Returns (all passed, number of pairs checked)."""
    if bound < 0:
        raise ValueError("bound must be >= 0")
    pres = catalog(group, n)
    window = range(-bound, bound + 1)
    reps = [(c, invert(c)) for c in (representative(m, k) for m in window for k in window)]
    pieces: dict = {}
    checked = 0
    for rel in pres.relators:
        for w in enumerate_instances(pres, rel, 0):
            for c, c_inv in reps:
                conj = concat(concat(c, w), c_inv)
                if expand(rewrite(conj, n), n, pieces) != conj:
                    return False, checked
                checked += 1
    return True, checked


def trivial_relator_schemas() -> list[RelatorSchema]:
    """The one-letter relation families contributed by trivial pairs:
    a[m,0,1] and b[m,k,1]."""
    return [
        schema("triv_a", ("m",), [("a", [aff("m"), 0, 1], 1)]),
        schema("triv_b", ("m", "k"), [("b", [aff("m"), aff("k"), 1], 1)]),
    ]


def symbolic_rewrite(rel: RelatorSchema, label: str) -> RelatorSchema:
    """Rewrite an ambient relator schema at the formal key (m, k).

    The walk keeps the running key as a pair of affine forms in the fresh
    window parameters m and k; a letter is dropped only when it is trivial
    for every binding, i.e. when its key coordinate and strand expression
    are identically the required constants.  The conjugating representative
    contributes nothing: its own letters are all trivial pairs.
    """
    for p in ("m", "k"):
        if p in rel.params:
            raise ValueError(f"ambient schema {rel.label} already uses parameter {p!r}")
    start = (aff("m"), aff("k"))
    letters, end = _walk((((f, idx), e) for f, idx, e in rel.template),
                         start, Affine.of(0), Affine.of(1))
    if end != start:
        raise WordError(f"relator {rel.label} is not bidegree-balanced")
    return schema(label, ("m", "k") + rel.params,
                  [(f, idx, e) for (f, idx), e in letters], rel.guards)
