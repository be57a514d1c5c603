"""Rewriting words of the commutator subgroup over its own alphabet.

The commutator subgroup of each catalog group is the kernel of the
bidegree map onto Z x Z.  Cosets are keyed by bidegree ``(m, k)`` and the
coset representative of ``(m, k)`` is ``s1^m r1^k``; the representative
set is closed under initial segments, which is what makes the rewriting
below valid.

For a coset key and an ambient letter the subgroup generator is the
representative times the letter times the inverse of the representative
of the product coset.  Crossing letters produce the ``a`` family,
companion letters the ``b`` family, each indexed by ``(m, k, i)``:

    a[m,k,i]  expands to  s1^m r1^k s[i] r1^-k s1^(-m-1)
    b[m,k,i]  expands to  s1^m r1^k r[i] r1^(-k-1) s1^-m

A pair is trivial when that expansion freely reduces to the empty word;
this happens exactly for ``s1`` at ``k = 0`` and for ``r1`` at any key.
The rewriting map drops trivial letters, so its output matches the reduced
relator lists used everywhere downstream; dropped letters expand to the
empty word, so expansion identities are unaffected.
"""

from __future__ import annotations

from .schemas import Affine, RelatorSchema, aff
from .words import Gen, Word, WordError, _join, bidegree, conjugate, fmt_gen, invert, normalize


S1: Gen = ("s", (1,))
R1: Gen = ("r", (1,))


def representative(m: int, k: int) -> Word:
    """Coset representative s1^m r1^k of the key (m, k)."""
    return normalize([(S1, m), (R1, k)])


def _check_index(i: int, n: int) -> None:
    if not (1 <= i <= n - 1):
        raise WordError(f"strand index {i} outside 1..{n - 1}")


def schreier_generator(key: tuple[int, int], letter: Gen, n: int) -> tuple[Gen, Word]:
    """Subgroup generator name and its expansion for (representative, letter)."""
    m, k = key
    family, (i,) = letter
    _check_index(i, n)
    if family == "s":
        name = ("a", (m, k, i))
        expansion = normalize([(S1, m), (R1, k), (("s", (i,)), 1), (R1, -k), (S1, -m - 1)])
    elif family == "r":
        name = ("b", (m, k, i))
        expansion = normalize([(S1, m), (R1, k), (("r", (i,)), 1), (R1, -k - 1), (S1, -m)])
    else:
        raise WordError(f"letter {fmt_gen(letter)} is not an ambient generator")
    return name, expansion


def is_trivial_pair(key: tuple[int, int], letter: Gen) -> bool:
    """True iff the pair's generator expands to the empty word."""
    _, k = key
    family, (i,) = letter
    if family == "s":
        return k == 0 and i == 1
    if family == "r":
        return i == 1
    raise WordError(f"letter {fmt_gen(letter)} is not an ambient generator")


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
            if family not in ("a", "b") or len(idx) != 3:
                raise WordError(f"cannot expand letter {fmt_gen(g)}")
            m, k, i = idx
            _, expansion = schreier_generator((m, k), ("s" if family == "a" else "r", (i,)), n)
            pair = pieces[g] = (expansion.letters, invert(expansion).letters)
        piece = pair[0] if e > 0 else pair[1]
        for _ in range(abs(e)):
            _join(out, piece)
    return Word._make(tuple(out))


def rewrite(w: Word, n: int) -> Word:
    """Translate a kernel word into a word over the a/b alphabet.

    Walks the letters keeping the bidegree of the running prefix; a
    positively signed letter is rewritten at the prefix coset, a negative
    one at the coset including the letter itself.  Trivial pairs are
    dropped.  Only defined on bidegree-(0,0) words.
    """
    if bidegree(w) != (0, 0):
        raise WordError(f"not a kernel element: bidegree {bidegree(w)} != (0, 0)")
    m = k = 0
    out: list[tuple[Gen, int]] = []
    for (family, (i,)), e in w.units():
        _check_index(i, n)
        if family == "s":
            if e == 1:
                key = (m, k)
                m += 1
            else:
                m -= 1
                key = (m, k)
        elif family == "r":
            if e == 1:
                key = (m, k)
                k += 1
            else:
                k -= 1
                key = (m, k)
        else:
            raise WordError(f"foreign letter {family!r} in kernel word")
        if not is_trivial_pair(key, (family, (i,))):
            out.append((("a" if family == "s" else "b", key + (i,)), e))
    return normalize(out)


def expansion_identity_holds(group: str, n: int, bound: int) -> tuple[bool, int]:
    """Check expand(rewrite(c r c^-1)) == c r c^-1 for every defining
    relator r and every representative c with both exponents in
    [-bound, bound].  Returns (all passed, number of pairs checked)."""
    from .catalog import catalog
    from .schemas import enumerate_instances
    from .words import freely_equal

    pres = catalog(group, n)
    window = range(-bound, bound + 1)
    reps = [representative(m, k) for m in window for k in window]
    pieces: dict = {}
    checked = 0
    for rel in pres.relators:
        for w in enumerate_instances(pres, rel, 0):
            for c in reps:
                conj = conjugate(w, c)
                if not freely_equal(expand(rewrite(conj, n), n, pieces), conj):
                    return False, checked
                checked += 1
    return True, checked


def trivial_relator_schemas() -> list[RelatorSchema]:
    """The one-letter relation families contributed by trivial pairs:
    a[m,0,1] and b[m,k,1]."""
    from .schemas import schema

    return [
        schema("triv_a", ("m",), [("a", [aff("m"), 0, 1], 1)]),
        schema("triv_b", ("m", "k"), [("b", [aff("m"), aff("k"), 1], 1)]),
    ]


def symbolic_rewrite(rel: RelatorSchema, label: str) -> RelatorSchema:
    """Rewrite an ambient relator schema at the formal key (m, k).

    The running prefix coset is tracked as a pair of affine forms in the
    fresh window parameters m and k; each emitted letter carries those
    forms plus the ambient strand expression.  A letter is dropped only
    when it is trivial for every binding, i.e. when its key coordinate and
    strand expression are identically the required constants.  The
    conjugating representative contributes nothing: its own letters are
    all trivial pairs.
    """
    for p in ("m", "k"):
        if p in rel.params:
            raise ValueError(f"ambient schema {rel.label} already uses parameter {p!r}")
    cur_m, cur_k = aff("m"), aff("k")
    one = Affine.of(1)
    zero = Affine.of(0)
    letters: list[tuple[str, list[Affine], int]] = []
    for fam, idx, exp in rel.template:
        (strand,) = idx
        step = 1 if exp > 0 else -1
        for _ in range(abs(exp)):
            if fam == "s":
                if step == 1:
                    key = (cur_m, cur_k)
                    cur_m = cur_m + 1
                else:
                    cur_m = cur_m - 1
                    key = (cur_m, cur_k)
                trivial = key[1] == zero and strand == one
                if not trivial:
                    letters.append(("a", [key[0], key[1], strand], step))
            elif fam == "r":
                if step == 1:
                    key = (cur_m, cur_k)
                    cur_k = cur_k + 1
                else:
                    cur_k = cur_k - 1
                    key = (cur_m, cur_k)
                trivial = strand == one
                if not trivial:
                    letters.append(("b", [key[0], key[1], strand], step))
            else:
                raise WordError(f"cannot rewrite family {fam!r}")
    if cur_m != aff("m") or cur_k != aff("k"):
        raise WordError(f"relator {rel.label} is not bidegree-balanced")
    from .schemas import schema

    return schema(label, ("m", "k") + rel.params, letters, rel.guards)
