"""Independent oracles used to pin expected values in the tests.

Each oracle deliberately uses a different algorithm from the code under
test: single-letter stack reduction instead of run-length merging at the
seams, whole-word normalization instead of seam joins, minor
gcds instead of elimination for invariant factors, dict counters instead
of walking reductions for exponent sums, a full rescan instead of
per-length queues of row ids for the unit pivot, a scan of every word
instead of the generator index, every rotation instead of those at the
least letter for the cyclic
normal form, a fresh ``schreier_generator`` per letter instead of a table
of expansions, a rename of every unit letter and a normalize instead of
a rename of each run, a start built from ``instances_by_bindings``
instead of from the compiled instances with one shared table, a replay
on the full start instead of on one pruned to the relators its moves read,
a walk that rewrites and tests each unit letter on its own instead of one
triviality test per run.
``instantiate`` evaluates one relator schema at one binding, the route
``instances_by_bindings`` takes instead of the compiled enumerator, and
``in_domain`` is that route's own test of a generator's ranged indices,
where the compiled enumerator proves or tests each index expression.
The presentation parser (``parse_presentation``, ``parse_word``,
``ParseError`` and the ``_parse_*`` helpers) reads back what
``str(PresentationSchema)`` and ``str(Word)`` print; no command reads a
presentation file, so it lives here as the reference the printed text is
checked against.
``bidegree`` sums the s and r exponents of a word's letters, an
independent check of the key the rewriting walk ends at.
``gen`` spells a generator, ``word`` a word from letters or bare
generators, ``origin_of`` a relator's origin from a bindings dict, and
``relator`` finds a relator schema by its label: builders that only tests
use.  ``spell_word`` prints a word letter by letter through ``fmt_gen``,
with no shared table, as ``str(Word)`` must.
The last helpers (``conjugate``, ``every_schema``, ``unrename``,
``schema_sets_equal``, ``cyclically_reduce``, ``is_trivial_pair``,
``rewrite_conjugated_relator``, and the matrix helpers ``zero_matrix``,
``matmul``, ``determinant`` and ``dense``) are spelled-out lists,
comparisons and compositions that only tests need.
"""

import re
from itertools import combinations
from math import gcd


def gen(family, *indices):
    """The generator ``(family, indices)``."""
    return (family, tuple(indices))


def word(*letters):
    """``normalize`` of the letters, each a ``(generator, exponent)`` pair or
    a bare generator, read with exponent 1."""
    from braidcomm.words import normalize

    raw = []
    for item in letters:
        if isinstance(item, tuple) and len(item) == 2 and isinstance(item[1], int) and not isinstance(item[0], str):
            raw.append(item)
        else:
            raw.append((item, 1))
    return normalize(raw)


def origin_of(label, bindings):
    """The origin of the instance of schema ``label`` at ``bindings``: the
    label and the binding's (parameter, value) pairs, sorted."""
    return (label, tuple(sorted(bindings.items())))


def spell_word(w):
    """Each letter of ``w`` as ``fmt_gen(g)``, then ``^e`` unless e is 1,
    space-separated; ``1`` for the empty word."""
    from braidcomm.words import fmt_gen

    letters = [fmt_gen(g) if e == 1 else f"{fmt_gen(g)}^{e}" for g, e in w.letters]
    return " ".join(letters) if letters else "1"


def relator(pres, label):
    """The relator schema of ``pres`` labelled ``label``."""
    for rel in pres.relators:
        if rel.label == label:
            return rel
    raise KeyError(f"no relator schema labelled {label!r} in {pres.name}")


def naive_reduce(units):
    """Stack-based free reduction over single letters (gen, +-1)."""
    stack = []
    for g, e in units:
        if stack and stack[-1][0] == g and stack[-1][1] == -e:
            stack.pop()
        else:
            stack.append((g, e))
    return stack


def reduce_units(units):
    """Free reduction of (gen, exp) pairs the slow way: expand to single
    letters, cancel inverse pairs on a stack, then run-length encode."""
    singles = []
    for g, e in units:
        singles.extend([(g, 1 if e > 0 else -1)] * abs(e))
    out = []
    for g, e in naive_reduce(singles):
        if out and out[-1][0] == g:
            out[-1] = (g, out[-1][1] + e)
        else:
            out.append((g, e))
    return tuple(out)


def inverse_units(letters):
    """Raw letters of the inverse word."""
    return [(g, -e) for g, e in reversed(letters)]


def substitute_units(w, target, replacement):
    """Raw letters of w with every target^e spelled out as replacement^e."""
    raw = []
    for g, e in w.letters:
        if g == target:
            piece = list(replacement.letters) if e > 0 else inverse_units(replacement.letters)
            raw.extend(piece * abs(e))
        else:
            raw.append((g, e))
    return raw


def substitute_by_normalize(w, target, replacement):
    """The whole-word route: spell out every replacement, then normalize
    the concatenated letters."""
    from braidcomm.words import normalize

    return normalize(substitute_units(w, target, replacement))


def substitute_all_by_normalize(w, images):
    """Spell out every letter whose generator has an image, all at once,
    then normalize the concatenated letters."""
    from braidcomm.words import normalize

    raw = []
    for g, e in w.letters:
        if g in images:
            piece = list(images[g].letters) if e > 0 else inverse_units(images[g].letters)
            raw.extend(piece * abs(e))
        else:
            raw.append((g, e))
    return normalize(raw)


def canonical_cyclic_all_rotations(w):
    """Least representative among all rotations of w and of w^-1, found by
    comparing every rotation."""
    from braidcomm.words import EMPTY, invert, normalize

    core = cyclically_reduce(w)
    units = core.units()
    if not units:
        return EMPTY
    best = None
    for seq in (units, invert(core).units()):
        n = len(seq)
        for shift in range(n):
            cand = tuple(seq[shift:] + seq[:shift])
            if best is None or cand < best:
                best = cand
    return normalize(best)


def rename_by_letters(w, old, new):
    """The unit-letter route to ``TruncatedPresentation.rename`` on one
    word: rename every single letter, then normalize."""
    from braidcomm.words import normalize

    return normalize([(new if g == old else g, e) for g, e in w.units()])


def expand_by_generators(w, n):
    """The per-letter route to ``rewriting.expand``: each letter's
    expansion from ``schreier_generator``, spelled out with its exponent,
    then the whole word normalized."""
    from braidcomm.rewriting import schreier_generator
    from braidcomm.words import normalize

    raw = []
    for (family, (m, k, i)), e in w.letters:
        _, expansion = schreier_generator((m, k), ("s" if family == "a" else "r", (i,)), n)
        piece = list(expansion.letters) if e > 0 else inverse_units(expansion.letters)
        raw.extend(piece * abs(e))
    return normalize(raw)


def exponent_sums(units):
    """Per-generator net exponents of a unit-letter sequence."""
    out = {}
    for g, e in units:
        out[g] = out.get(g, 0) + e
    return {g: v for g, v in out.items() if v}


def bidegree(w):
    """Total (s, r) exponent sums; a homomorphism onto Z x Z, read off the
    letters instead of from the key the rewriting walk ends at.

    Only defined on words over the two ambient families; a foreign letter
    is an error because the map does not extend to rewritten alphabets.
    """
    from braidcomm.words import WordError, fmt_gen

    m = k = 0
    for g, e in w.letters:
        if g[0] == "s":
            m += e
        elif g[0] == "r":
            k += e
        else:
            raise WordError(f"bidegree undefined on family {g[0]!r} (letter {fmt_gen(g)})")
    return (m, k)


def conjugate(w, by):
    """by * w * by^-1, freely reduced."""
    from braidcomm.words import concat, invert

    return concat(concat(by, w), invert(by))


def det_laplace(matrix):
    """Determinant by cofactor expansion; fine for the tiny minors below."""
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        if matrix[0][j]:
            minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
            total += (-1) ** j * matrix[0][j] * det_laplace(minor)
    return total


def invariant_factors_by_minors(entries):
    """d_1 ... d_k from gcds of k x k minors; independent of any
    elimination order.  Exponential, so keep matrices tiny."""
    rows = len(entries)
    cols = len(entries[0]) if rows else 0
    factors = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                sub = [[entries[i][j] for j in csel] for i in rsel]
                g = gcd(g, abs(det_laplace(sub)))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def unit_pivot_by_rescan(rows, col_support):
    """The unit pivot (row, col) of a sparse matrix, found by scanning every
    entry: the least (len(row), row, len(col_support[col]), col) over
    entries equal to +-1.  None when no entry is a unit."""
    best = None
    where = None
    for i, row in rows.items():
        for j, val in row.items():
            if val in (1, -1):
                key = (len(row), i, len(col_support[j]), j)
                if best is None or key < best:
                    best, where = key, (i, j)
    return where


def relators_containing(p):
    """Every generator of a presentation mapped to the ascending ids of the
    live relators whose word contains it, found by scanning every word
    instead of reading the generator index."""
    containing = {g: [] for g in p.gens}
    for rid in sorted(p.relators):
        for g in p.relators[rid].generators():
            containing.setdefault(g, []).append(rid)
    return containing


def multiply_permutations(perms):
    """Left-to-right product of permutations given as tuples."""
    n = len(perms[0]) if perms else 0
    out = tuple(range(n))
    for p in perms:
        out = tuple(p[out[i]] for i in range(n))
    return out


def instantiate(rel, bindings):
    """The word of one relator schema at one binding: every index
    evaluated, then ``normalize``.  A missing parameter or a failing guard
    raises ``GuardError`` naming the schema."""
    from braidcomm.schemas import GuardError
    from braidcomm.words import normalize

    missing = [p for p in rel.params if p not in bindings]
    if missing:
        raise GuardError(f"unbound parameter(s) {missing} for {rel.label}")
    for g in rel.guards:
        if not g.holds(bindings):
            raise GuardError(f"guard {g} fails for {rel.label} at {bindings}")
    return normalize([((fam, tuple(e.evaluate(bindings) for e in idx)), exp)
                      for fam, idx, exp in rel.template])


def in_domain(alphabet, g):
    """Whether every ranged index of ``g`` lies in the range ``alphabet``
    declares for it."""
    family, idx = g
    for value, dom in zip(idx, alphabet.domains(family, len(idx))):
        if dom is not None and not dom[0] <= value <= dom[1]:
            return False
    return True


def instances_by_bindings(pres, rel, window):
    """The one-binding-at-a-time route to ``schemas.instances``: every
    guard-satisfying binding, instantiated, kept when all letters of the
    reduced word lie in their declared ranges."""
    from braidcomm.schemas import enumerate_bindings

    alphabet = pres.alphabet()
    out = []
    for bindings in enumerate_bindings(pres, rel, window):
        w = instantiate(rel, bindings)
        if all(in_domain(alphabet, g) for g, _ in w.letters):
            out.append((origin_of(rel.label, bindings)[1], w))
    return out


def from_schema_by_insert(schema, window):
    """The unshared route to ``TruncatedPresentation.from_schema``: the
    window's generators first, then each instance from
    ``instances_by_bindings`` inserted on its own with ``_insert``, so no
    letter, generator or binding pair is shared between relators."""
    from braidcomm.tietze import TruncatedPresentation

    p = TruncatedPresentation(schema, window)
    p.gens.update(p.alphabet.gens_in_window(window))
    for rel in schema.relators:
        for items, w in instances_by_bindings(schema, rel, window):
            p._insert(w, (rel.label, items))
    p._records.append(("start", p.name, window, len(p.gens), len(p.relators)))
    return p


def run_on_full_start(script, window, callback=None):
    """The eager route of a replay script: ``script(window)`` with every
    start built in full, as ``from_schema`` builds it without ``keep``, so
    the presentation holds every relator and each move rewrites all of
    those it touches."""
    from braidcomm.tietze import TruncatedPresentation

    pruned = TruncatedPresentation.__dict__["from_schema"]
    build = pruned.__func__

    def full(cls, schema, window, name="", callback=None, keep=None):
        return build(cls, schema, window, name, callback)

    TruncatedPresentation.from_schema = classmethod(full)
    try:
        return script(window, callback=callback)
    finally:
        TruncatedPresentation.from_schema = pruned


def every_schema():
    """Every schema the package builds: the catalog, raw and simplified
    presentations of GVB and SG at n = 3..6, and the catalog of each other
    family at n = 3..5."""
    from braidcomm.catalog import FAMILIES, catalog
    from braidcomm.derived import raw_derived, simplified_derived

    for n in (3, 4, 5, 6):
        for group in ("GVB", "SG"):
            yield from (catalog(group, n), raw_derived(group, n), simplified_derived(group, n))
    for n in (3, 4, 5):
        for group in FAMILIES:
            if group not in ("GVB", "SG"):
                yield catalog(group, n)


def unrename(g):
    """Map a renamed generator back to its three-index form, undoing
    ``a[0,0,j] -> a[j]`` and ``b[m,0,j] -> b[m,j]``."""
    family, idx = g
    if family == "a" and len(idx) == 1:
        return ("a", (0, 0, idx[0]))
    if family == "b" and len(idx) == 2:
        return ("b", (idx[0], 0, idx[1]))
    return g


def schema_sets_equal(pres_a, rels_a, pres_b, rels_b, window):
    """Compare two relator-schema collections by their canonical instance
    sets over the window (canonical = least rotation of word or inverse)."""
    from braidcomm.schemas import instance_set

    return instance_set(pres_a, rels_a, window) == instance_set(pres_b, rels_b, window)


def cyclically_reduce(w):
    """The cyclic reduction of w: drop the first and last unit letters
    while they are mutually inverse."""
    from braidcomm.words import normalize

    units = w.units()
    while len(units) >= 2 and units[0] == (units[-1][0], -units[-1][1]):
        units = units[1:-1]
    return normalize(units)


def walk_by_units(letters, key, zero, one):
    """The Reidemeister-Schreier walk one unit letter at a time.

    ``letters`` are ``((family, (strand,)), exponent)`` pairs over s/r.  A
    unit s[i]^+-1 or r[i]^+-1 moves the key (m, k) by +-1 in m or k; it is
    rewritten at the key before it when positive and after it when
    negative, as a[m,k,i] or b[m,k,i], and dropped when that pair is
    trivial: strand 1 of r at any key, strand 1 of s at k = 0.  Returns
    the letters kept and the key reached."""
    m, k = key
    out = []
    for (family, (strand,)), e in letters:
        sign = 1 if e > 0 else -1
        for _ in range(abs(e)):
            before = (m, k)
            if family == "s":
                m += sign
            else:
                k += sign
            at = before if sign > 0 else (m, k)
            if strand == one and (family == "r" or at[1] == zero):
                continue
            out.append((("a" if family == "s" else "b", (at[0], at[1], strand)), sign))
    return out, (m, k)


def is_trivial_pair(key, letter):
    """True iff the (representative key, s/r letter) pair's generator
    expands to the empty word, by the rewriting module's trivial-pair rule."""
    from braidcomm.rewriting import _step, _trivial

    family, (i,) = letter
    return _trivial(_step(family)[1], key[1], i, 0, 1)


def rewrite_conjugated_relator(key, relator, n):
    """Rewrite of representative * relator * representative^-1."""
    from braidcomm.rewriting import representative, rewrite

    return rewrite(conjugate(relator, representative(*key)), n)


def zero_matrix(rows, cols):
    """The rows x cols zero ``IntegerMatrix``."""
    from braidcomm.abelian import IntegerMatrix

    return IntegerMatrix([[0] * cols for _ in range(rows)])


def matmul(a, b):
    """The product of two ``IntegerMatrix`` values."""
    from braidcomm.abelian import IntegerMatrix

    assert a.cols == b.rows
    return IntegerMatrix([[sum(x * b.entries[t][j] for t, x in enumerate(row))
                           for j in range(b.cols)] for row in a.entries])


def determinant(a):
    """Exact determinant of an ``IntegerMatrix`` by fraction-free (Bareiss)
    elimination."""
    n = a.rows
    assert n == a.cols
    m = [row[:] for row in a.entries]
    sign = 1
    prev = 1
    for t in range(n - 1):
        if m[t][t] == 0:
            for i in range(t + 1, n):
                if m[i][t]:
                    m[t], m[i] = m[i], m[t]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                m[i][j] = (m[i][j] * m[t][t] - m[i][t] * m[t][j]) // prev
            m[i][t] = 0
        prev = m[t][t]
    return sign * m[n - 1][n - 1]


def dense(mat):
    """The dense ``IntegerMatrix`` of a sparse ``RelationMatrix``."""
    from braidcomm.abelian import IntegerMatrix

    return IntegerMatrix([[row.get(j, 0) for j in range(len(mat.gens))] for row in mat.rows])


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


_IDENT = r"[A-Za-z_][A-Za-z_0-9']*"
_LETTER_RE = re.compile(
    rf"(?P<fam>[a-z])(?:\[(?P<idx>[^\]]*)\]|(?P<bare>-?\d+))(?:\^(?P<exp>-?\d+))?$"
)


def _parse_affine(text: str, line: int | None = None, n: int | None = None):
    from braidcomm.schemas import Affine

    text = text.replace(" ", "")
    if not text:
        raise ParseError("empty index expression", line)
    items = re.findall(r"[+-]|[A-Za-z_0-9*]+", text)
    if "".join(items) != text:
        raise ParseError(f"cannot read expression {text!r}", line)
    out = Affine(0, ())
    sign = 1
    expect_term = True
    for item in items:
        if item in "+-":
            if expect_term:
                if item == "-":
                    sign = -sign
            else:
                sign = 1 if item == "+" else -1
                expect_term = True
            continue
        coeff, name = 1, None
        if "*" in item:
            lhs, rhs = item.split("*", 1)
            if not lhs.isdigit():
                raise ParseError(f"bad coefficient in {item!r}", line)
            coeff, name = int(lhs), rhs
        elif item.isdigit():
            coeff = int(item)
        else:
            name = item
        if name == "n":
            if n is None:
                raise ParseError("symbol n used before the n header line", line)
            out = out + Affine(sign * coeff * n, ())
        elif name is None:
            out = out + Affine(sign * coeff, ())
        else:
            out = out + Affine(0, ((name, sign * coeff),))
        sign = 1
        expect_term = False
    if expect_term:
        raise ParseError(f"dangling sign in {text!r}", line)
    return out


def _parse_guard(text: str, line: int, n: int | None):
    from braidcomm.schemas import band, cmp

    text = text.strip()
    m = re.match(rf"^\|({_IDENT})-({_IDENT})\|>(\d+)$", text.replace(" ", ""))
    if m:
        return band(m.group(1), m.group(2), int(m.group(3)))
    for op in ("!=", "<=", ">=", "<", ">", "="):
        if op in text:
            lhs, rhs = text.split(op, 1)
            return cmp(_parse_affine(lhs, line, n), op, _parse_affine(rhs, line, n))
    raise ParseError(f"cannot read guard {text!r}", line)


def _parse_template_letter(token: str, line: int, n: int | None):
    from braidcomm.schemas import Affine

    m = _LETTER_RE.match(token)
    if not m:
        raise ParseError(f"cannot read letter {token!r}", line)
    fam = m.group("fam")
    exp = int(m.group("exp")) if m.group("exp") else 1
    if exp == 0:
        raise ParseError(f"zero exponent on {token!r}", line)
    if m.group("idx") is not None:
        idx = tuple(_parse_affine(part, line, n) for part in m.group("idx").split(","))
    else:
        idx = (Affine(int(m.group("bare")), ()),)
    return fam, idx, exp


def parse_presentation(text: str):
    """Read the presentation text format that ``str(PresentationSchema)``
    prints.  It also takes what the printer never writes: ``#`` comments,
    blank lines, relator lines without a label (numbered ``rel1``,
    ``rel2``, ... by position), and ``n`` in index expressions after the
    ``n`` header line.  Every refusal is a ``ParseError`` that names its
    line."""
    from braidcomm.schemas import PresentationSchema, RelatorSchema

    name = "unnamed"
    n: int | None = None
    families: list[tuple[str, tuple]] = []
    relators: list = []
    counter = 0
    declared: dict[tuple[str, int], tuple] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        tokens = stripped.split()
        head = tokens[0]
        if head == "presentation":
            if len(tokens) != 2:
                raise ParseError("expected: presentation <name>", lineno)
            name = tokens[1]
        elif head == "n":
            if len(tokens) != 2 or not tokens[1].isdigit():
                raise ParseError("expected: n <integer>", lineno)
            n = int(tokens[1])
        elif head == "gen":
            if (len(tokens) != 6 or tokens[2] != "arity" or tokens[4] != "range"
                    or not tokens[3].isdigit()):
                raise ParseError("expected: gen <fam> arity <k> range <domains>", lineno)
            fam = tokens[1]
            arity = int(tokens[3])
            if (fam, arity) in declared:
                raise ParseError(f"family {fam!r} of arity {arity} declared twice", lineno)
            domains = []
            for part in tokens[5].split(","):
                if part == "int":
                    domains.append(None)
                elif ".." in part:
                    lo, hi = part.split("..", 1)
                    lo_a = _parse_affine(lo, lineno, n)
                    hi_a = _parse_affine(hi, lineno, n)
                    if not (lo_a.is_constant() and hi_a.is_constant()):
                        raise ParseError(f"range bounds must be concrete: {part!r}", lineno)
                    domains.append((lo_a.const, hi_a.const))
                else:
                    raise ParseError(f"cannot read domain {part!r}", lineno)
            if len(domains) != arity:
                raise ParseError(f"arity {arity} but {len(domains)} domains", lineno)
            families.append((fam, tuple(domains)))
            declared[(fam, arity)] = tuple(domains)
        elif head == "rel":
            if ":" not in stripped:
                raise ParseError("relator line needs ':' before the letters", lineno)
            header, body = stripped.split(":", 1)
            body = body.strip()
            if not body:
                raise ParseError("empty relator", lineno)
            htokens = header.split()[1:]
            label = None
            if htokens and htokens[0] not in ("forall", "where"):
                label = htokens.pop(0)
            params: tuple[str, ...] = ()
            guards: list = []
            while htokens:
                key = htokens.pop(0)
                if key == "forall":
                    if not htokens:
                        raise ParseError("forall needs parameters", lineno)
                    params = tuple(p.strip() for p in htokens.pop(0).split(","))
                    for k, p in enumerate(params):
                        if p in params[:k]:
                            raise ParseError(f"parameter {p!r} listed twice", lineno)
                elif key == "where":
                    guard_text = " ".join(htokens)
                    htokens = []
                    guards = [_parse_guard(part, lineno, n)
                              for part in guard_text.split(" and ")]
                else:
                    raise ParseError(f"unexpected token {key!r} in relator header", lineno)
            letters = []
            for token in body.split():
                fam, idx, exp = _parse_template_letter(token, lineno, n)
                if (fam, len(idx)) not in declared:
                    raise ParseError(f"undeclared family {fam!r} of arity {len(idx)}", lineno)
                letters.append((fam, idx, exp))
            counter += 1
            label = label or f"rel{counter}"
            if any(r.label == label for r in relators):
                raise ParseError(f"relator label {label!r} used twice", lineno)
            exprs = [e for _, idx, _ in letters for e in idx]
            exprs += [e for g in guards for e in (g.lhs, g.rhs)]
            unknown = {p for e in exprs for p, _ in e.terms} - set(params)
            if unknown:
                raise ParseError(f"unbound parameter(s) {sorted(unknown)}", lineno)
            try:
                relators.append(RelatorSchema(label, params, tuple(letters), tuple(guards)))
            except ValueError as exc:  # letters that may coincide
                raise ParseError(str(exc), lineno) from None
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
    if n is None:
        raise ParseError("missing n header line")
    return PresentationSchema(name, n, tuple(families), tuple(relators))


def parse_word(text: str):
    """Read the compact concrete spelling, e.g. ``s1^2 r3^-1 a[0,1,2]``."""
    from braidcomm.words import normalize

    text = text.strip()
    if text in ("", "1"):
        return normalize([])
    letters = []
    for token in text.split():
        m = _LETTER_RE.match(token)
        if not m:
            raise ParseError(f"cannot read letter {token!r}")
        exp = int(m.group("exp")) if m.group("exp") else 1
        if m.group("idx") is not None:
            try:
                idx = tuple(int(part) for part in m.group("idx").split(","))
            except ValueError:
                raise ParseError(f"non-integer index in {token!r}") from None
        else:
            idx = (int(m.group("bare")),)
        letters.append(((m.group("fam"), idx), exp))
    return normalize(letters)
