"""Exact free-group word arithmetic over indexed generator alphabets.

A generator is a pair ``(family, indices)`` where ``family`` is a short
string (``"s"``, ``"r"``, ``"a"``, ``"b"``, ...) and ``indices`` is a tuple
of integers.  The same family letter may occur at several arities; a family
is identified by the pair (letter, arity).

A :class:`Word` is a freely reduced run-length sequence of
``(generator, exponent)`` pairs with nonzero integer exponents.  Words are
immutable and all operations are pure, so they are safe to share between
workers.

Reduction happens in two places only.  :func:`normalize` is the one
validating entry for raw ``(generator, exponent)`` sequences.  Operations
on words (``concat``, ``power``, ``conjugate``, ``substitute``) join
reduced pieces with ``_join``: every factor of a reduced word is reduced,
so the only letters that can merge or cancel are those at a seam where two
pieces meet, and free reduction has one normal form, so the result equals
what ``normalize`` would give on the concatenated letters.

The map :func:`bidegree` sends a word over the ``s``/``r`` families to the
pair (total s-exponent, total r-exponent).  It is a homomorphism onto
Z x Z, and its kernel is the commutator subgroup of every ambient group in
the catalog; almost everything downstream keys cosets by this pair.

Display syntax, used in logs, transcripts and presentation files:
``s1^2 r3^-1 a[0,1,2]`` -- family letter, bare index for arity one,
bracketed index tuple otherwise, caret exponent (omitted when 1),
space-separated.  The empty word prints as ``1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter


Gen = tuple[str, tuple[int, ...]]


class WordError(ValueError):
    """Raised for malformed letters or out-of-domain generators."""


def gen(family: str, *indices: int) -> Gen:
    return (family, tuple(indices))


def fmt_gen(g: Gen) -> str:
    family, idx = g
    if len(idx) == 1:
        return f"{family}{idx[0]}"
    return f"{family}[{','.join(str(i) for i in idx)}]"


def fmt_letter(g: Gen, exp: int) -> str:
    if exp == 1:
        return fmt_gen(g)
    return f"{fmt_gen(g)}^{exp}"


def normalize(letters) -> "Word":
    """Freely reduce a raw sequence of (generator, exponent) pairs.

    Adjacent runs with the same generator are merged and zero exponents
    are dropped; merging cascades, so the result is the unique reduced
    form.  Idempotent.
    """
    stack: list[list] = []
    for g, e in letters:
        if not isinstance(e, int):
            raise WordError(f"exponent of {fmt_gen(g)} must be an integer, got {e!r}")
        if e == 0:
            continue
        if stack and stack[-1][0] == g:
            stack[-1][1] += e
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([g, e])
    return Word._make(tuple((g, e) for g, e in stack))


@dataclass(frozen=True, slots=True)
class Word:
    """A freely reduced word; the empty tuple is the identity.  Slotted, so
    an instance holds ``letters`` and no ``__dict__``."""

    letters: tuple[tuple[Gen, int], ...]

    @staticmethod
    def _make(letters: tuple[tuple[Gen, int], ...]) -> "Word":
        w = _new(Word)
        _set_letters(w, letters)
        return w

    def __init__(self, letters=()):
        object.__setattr__(self, "letters", normalize(letters).letters)

    def __len__(self) -> int:
        # letter length, counting multiplicity
        return sum(abs(e) for _, e in self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return concat(self, other)

    def __pow__(self, e: int) -> "Word":
        return power(self, e)

    def __invert__(self) -> "Word":
        return invert(self)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(fmt_letter(g, e) for g, e in self.letters)

    def __repr__(self) -> str:
        return f"Word({self})"

    def units(self) -> list[tuple[Gen, int]]:
        """Expand to single letters with exponents +-1."""
        out = []
        for g, e in self.letters:
            step = 1 if e > 0 else -1
            out.extend([(g, step)] * abs(e))
        return out

    def generators(self) -> set[Gen]:
        return set(map(itemgetter(0), self.letters))

    def exponent_vector(self) -> dict[Gen, int]:
        """Image in the free abelianization: generator -> net exponent."""
        out: dict[Gen, int] = {}
        for g, e in self.letters:
            out[g] = out.get(g, 0) + e
            if out[g] == 0:
                del out[g]
        return out


# the slot's own setter: frozen only guards assignment through __setattr__
_new, _set_letters = object.__new__, Word.letters.__set__
EMPTY = Word._make(())


def word(*letters) -> Word:
    """Convenience builder: word((gen, exp), ...) or word(gen, ...) for exponent 1."""
    raw = []
    for item in letters:
        if isinstance(item, tuple) and len(item) == 2 and isinstance(item[1], int) and not isinstance(item[0], str):
            raw.append(item)
        else:
            raw.append((item, 1))
    return normalize(raw)


def _join(out: list, piece) -> None:
    """Append the reduced runs ``piece`` to the reduced list ``out``.

    Runs merge or cancel only at the seam, while the last run of ``out``
    and the first run of ``piece`` share a generator; the rest of ``piece``
    is copied unchanged.
    """
    i, n = 0, len(piece)
    while out and i < n and out[-1][0] == piece[i][0]:
        g, e = out[-1]
        e += piece[i][1]
        i += 1
        if e:
            out[-1] = (g, e)
            break
        out.pop()
    out.extend(piece[i:] if i else piece)


def concat(a: Word, b: Word) -> Word:
    out = list(a.letters)
    _join(out, b.letters)
    return Word._make(tuple(out))


def invert(w: Word) -> Word:
    return Word._make(tuple((g, -e) for g, e in reversed(w.letters)))


def power(w: Word, e: int) -> Word:
    if e == 0:
        return EMPTY
    base = (w if e > 0 else invert(w)).letters
    out: list[tuple[Gen, int]] = []
    for _ in range(abs(e)):
        _join(out, base)
    return Word._make(tuple(out))


def conjugate(w: Word, by: Word) -> Word:
    """by * w * by^-1, freely reduced."""
    return concat(concat(by, w), invert(by))


def freely_equal(a: Word, b: Word) -> bool:
    return a.letters == b.letters


def substitute(w: Word, target: Gen, replacement: Word, inverse: Word | None = None) -> Word:
    """Replace every occurrence of target^e by replacement^e and reduce.

    The generator column of ``w`` is built once; ``count`` on it finds how
    often the target occurs and ``index`` finds each occurrence in turn.
    The output starts as a copy of the runs before the first; every later
    nonempty piece is appended by ``_join``, the only seam rule.

    ``inverse``, when given, must equal ``invert(replacement)``; a caller
    substituting into many words passes it to invert once.  When ``target``
    does not occur, ``w`` itself is returned, so ``result is w`` tells an
    untouched word apart without comparing letters.
    """
    letters = w.letters
    column = list(map(itemgetter(0), letters))
    count = column.count(target)
    if not count:
        return w
    pos = column.index(target)
    out = list(letters[:pos])
    while True:
        e = letters[pos][1]
        if e < 0 and inverse is None:
            inverse = invert(replacement)
        piece = (replacement if e > 0 else inverse).letters
        if piece:
            for _ in range(abs(e)):
                _join(out, piece)
        start = pos + 1
        count -= 1
        if not count:
            break
        pos = column.index(target, start)
        if pos > start:
            _join(out, letters[start:pos])
    if start < len(letters):
        _join(out, letters[start:])
    return Word._make(tuple(out))


def delete_generators(w: Word, doomed) -> Word:
    """Drop every letter whose generator lies in ``doomed`` and reduce."""
    return normalize([(g, e) for g, e in w.letters if g not in doomed])


SIGMA = "s"
RHO = "r"


def bidegree(w: Word, sigma: str = SIGMA, rho: str = RHO) -> tuple[int, int]:
    """Total (s, r) exponent sums; a homomorphism onto Z x Z.

    Only defined on words over the two ambient families; a foreign letter
    is an error because the map does not extend to rewritten alphabets.
    """
    m = k = 0
    for (family, _), e in w.letters:
        if family == sigma:
            m += e
        elif family == rho:
            k += e
        else:
            raise WordError(
                f"bidegree undefined on family {family!r} (letter {fmt_gen((family, _))})"
            )
    return (m, k)


def _cyclic_units(w: Word) -> list[tuple[Gen, int]]:
    """Unit letters of the cyclic reduction of w: the units of w with
    first and last letters trimmed while they are mutually inverse."""
    units = w.units()
    lo, hi = 0, len(units)
    while hi - lo >= 2 and units[lo][0] == units[hi - 1][0] and units[lo][1] == -units[hi - 1][1]:
        lo += 1
        hi -= 1
    return units[lo:hi]


def canonical_cyclic(w: Word) -> Word:
    """Least representative among all rotations of w and of w^-1.

    Two relators present the same normal closure when they agree up to
    conjugation and inversion; this picks a well-defined normal form for
    set comparisons.

    Rotations compare as tuples of unit letters, so the least one starts
    with the least unit letter.  With g the least generator of the cyclic
    reduction, that letter is g^-1, which occurs in the reduction of w or
    of w^-1.  Only rotations starting at g^-1 are compared; every other
    rotation is larger, so the result is the all-rotations minimum.
    """
    units = _cyclic_units(w)
    if not units:
        return EMPTY
    least = (min(map(itemgetter(0), units)), -1)
    best = None
    for seq in (units, [(g, -e) for g, e in reversed(units)]):
        for shift, u in enumerate(seq):
            if u == least:
                cand = seq[shift:] + seq[:shift]
                if best is None or cand < best:
                    best = cand
    return normalize(best)


def _undeclared(family: str, arity: int) -> WordError:
    return WordError(f"undeclared family {family!r} of arity {arity}")


class Alphabet:
    """Declared generator families with index domains.

    Families are keyed by (letter, arity).  Each index position carries a
    domain: ``None`` for an unbounded integer coordinate (the window
    coordinates of the infinite presentations) or an inclusive ``(lo, hi)``
    range.  Declaring domains up front catches index typos at construction
    time instead of mid-rewrite.
    """

    def __init__(self):
        self._families: dict[tuple[str, int], tuple] = {}
        self._windows: dict[tuple[str, int], tuple[int, ...]] = {}

    def declare(self, family: str, domains) -> None:
        key = (family, len(domains))
        self._families[key] = tuple(domains)
        self._windows[key] = tuple(i for i, d in enumerate(domains) if d is None)

    def families(self):
        return dict(self._families)

    def domains(self, family: str, arity: int):
        try:
            return self._families[(family, arity)]
        except KeyError:
            raise _undeclared(family, arity) from None

    def is_declared(self, family: str, arity: int) -> bool:
        return (family, arity) in self._families

    def window_positions(self, family: str, arity: int) -> tuple[int, ...]:
        """Index positions of the family's window coordinates."""
        try:
            return self._windows[(family, arity)]
        except KeyError:
            raise _undeclared(family, arity) from None

    def in_domain(self, g: Gen) -> bool:
        """Whether every ranged index of ``g`` lies in its declared range."""
        family, idx = g
        for value, dom in zip(idx, self.domains(family, len(idx))):
            if dom is not None and not dom[0] <= value <= dom[1]:
                return False
        return True

    def within_window(self, g: Gen, bound: int) -> bool:
        """Whether every window coordinate of ``g`` lies in [-bound, bound]."""
        family, idx = g
        return all(abs(idx[p]) <= bound for p in self.window_positions(family, len(idx)))

    def make_word(self, letters) -> Word:
        """Validating word constructor; names the offending letter on error."""
        for g, _ in letters:
            if not self.in_domain(g):
                raise WordError(f"{fmt_gen(g)} lies outside the declared index ranges "
                                f"{self.domains(g[0], len(g[1]))}")
        return normalize(letters)

    def gens_in_window(self, bound: int) -> list[Gen]:
        """All declared generators with window coordinates in [-bound, bound]."""
        out: list[Gen] = []
        for (family, arity), domains in sorted(self._families.items()):
            ranges = []
            for dom in domains:
                if dom is None:
                    ranges.append(range(-bound, bound + 1))
                else:
                    lo, hi = dom
                    ranges.append(range(lo, hi + 1))
            idxs = [()]
            for rng in ranges:
                idxs = [prefix + (v,) for prefix in idxs for v in rng]
            out.extend((family, idx) for idx in idxs)
        return out
