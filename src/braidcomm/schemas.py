"""Parametrized relator families over affine index expressions.

A relator schema is a word template whose letter indices are affine
expressions ``c0 + c1*p1 + ...`` in named integer parameters, together
with decidable guards (comparisons and band conditions like ``|i-j|>1``).
One schema stands for the whole family of concrete relators obtained by
binding the parameters; the infinite presentations handled here are all
of this shape, with two unbounded "window" parameters and at most two
bounded strand parameters.

Window parameters range over all of Z and get truncated to ``[-M, M]``
when a finite shadow is needed; strand parameters inherit the declared
index range of the positions where they appear bare.

:func:`instances` is the one enumerator of concrete relators.  For each
(generator families, schema) pair it generates and compiles one small
Python function, kept for the life of the process: one ``for`` loop per
parameter, each guard tested in the shallowest loop that binds all of its
parameters, index expressions evaluated inline, and a range check only
where the bound cannot be proved from the parameter domains.  The
generated source is spliced together from ``int`` literals (checked with
``type(x) is int``) and the ``repr`` of family and parameter strings, so
no text of a parsed schema is ever read as code.  A schema is checked
once, when it is built: :class:`RelatorSchema` refuses a parameter that
its letters or guards use but its ``params`` do not list, and
:class:`Guard` an unknown kind, so the generated loops bind every
parameter they read.  It also reduces its template freely and refuses two
adjacent letters of one family and arity unless some index pair differs by
a nonzero constant or by ``+-(lhs - rhs)`` of a band guard with bound at
least 0, so every instance is yielded as written, already reduced.
:func:`enumerate_bindings`, the one-binding-at-a-time route, stays
because ``perfbench/tracing.py`` patches it; the tests compare the two
routes.

The generated function looks up every letter, generator and binding pair
it yields in a :class:`SharedValues` table that the caller passes, so
equal values come out as one object.  A table lives for one build and no
longer: ``TruncatedPresentation.from_schema`` passes one table to every
schema of a presentation and drops it afterwards, and any other call gets
a fresh table of its own.  Equality and hashing stay value-based, so the
sharing changes no result, only the number of objects.  Given the binding
values to keep, the function takes that route only for a kept instance.
For any other it yields, after the same range checks, no word, no binding
pairs and no table lookup, only the generators a caller cannot get from
``Alphabet.gens_in_window``: those that may lie outside the window.  This
is decided per template letter when the source is generated.  A window
coordinate that is a bare window parameter, ``p`` or ``-p``, never leaves
the window; any other is tested as the instance is enumerated, and the
letters that have one are yielded if one of the tests fails.  An instance
with no such letter outside the window yields ``()``.

:func:`match_relators` is the one comparison of a replayed relator set
with an expected :func:`instance_set`; every identification check
reports its :class:`RelatorMatch`.

``str(pres)`` spells a :class:`PresentationSchema` in the presentation
text format, line-oriented and ASCII only::

    presentation GVB'
    n 5
    gen a arity 3 range int,int,1..2
    gen a arity 1 range 3..4
    rel comm_ss_2j forall m,k,j where j>=4 : a[m,k,2] a[j] a[m+1,k,2]^-1 a[j]^-1

``int`` marks an unbounded window coordinate; ``lo..hi`` is an inclusive
range.  A relator line carries its label, a ``forall`` clause listing its
parameters, an optional ``where`` clause with guards joined by ``and``
(comparisons, or ``|i-j|>1`` bands), then the template letters.  Each
line is spelled by ``Affine``, ``Guard`` and ``RelatorSchema.__str__``,
with ``n`` resolved to its value.  Concrete words use the compact
spelling ``s1^2 r3^-1 a[0,1,2]`` of ``Word.__str__``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from operator import itemgetter

from .words import Alphabet, Word, canonical_cyclic, normalize


class GuardError(ValueError):
    """A parameter binding violates a schema guard."""


@dataclass(frozen=True)
class Affine:
    """Integer affine form const + sum(coeff * param)."""

    const: int = 0
    terms: tuple[tuple[str, int], ...] = ()

    @staticmethod
    def of(value) -> "Affine":
        if isinstance(value, Affine):
            return value
        if isinstance(value, int):
            return Affine(value, ())
        if isinstance(value, str):
            return Affine(0, ((value, 1),))
        raise TypeError(f"cannot coerce {value!r} to an affine form")

    @staticmethod
    def _norm(const: int, terms) -> "Affine":
        acc: dict[str, int] = {}
        for p, c in terms:
            acc[p] = acc.get(p, 0) + c
        kept = tuple(sorted((p, c) for p, c in acc.items() if c != 0))
        return Affine(const, kept)

    def __add__(self, other) -> "Affine":
        other = Affine.of(other)
        return Affine._norm(self.const + other.const, self.terms + other.terms)

    def __sub__(self, other) -> "Affine":
        other = Affine.of(other)
        negated = tuple((p, -c) for p, c in other.terms)
        return Affine._norm(self.const - other.const, self.terms + negated)

    def __neg__(self) -> "Affine":
        return Affine(-self.const, tuple((p, -c) for p, c in self.terms))

    def params(self) -> set[str]:
        return {p for p, _ in self.terms}

    def is_constant(self) -> bool:
        return not self.terms

    def evaluate(self, bindings: dict[str, int]) -> int:
        value = self.const
        for p, c in self.terms:
            if p not in bindings:
                raise GuardError(f"unbound parameter {p!r}")
            value += c * bindings[p]
        return value

    def __str__(self) -> str:
        parts = []
        for p, c in self.terms:
            if c == 1:
                parts.append(p if not parts else f"+{p}")
            elif c == -1:
                parts.append(f"-{p}")
            else:
                parts.append(f"{c:+d}*{p}" if parts else f"{c}*{p}")
        if self.const or not parts:
            parts.append(f"{self.const:+d}" if parts else str(self.const))
        return "".join(parts)


def aff(*items) -> Affine:
    """aff("m", 2) -> m+2; aff("i") -> i; aff(3) -> 3."""
    total = Affine(0, ())
    for item in items:
        total = total + Affine.of(item)
    return total


_CMP = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
}


@dataclass(frozen=True)
class Guard:
    """Either a comparison lhs OP rhs, or |lhs - rhs| > bound (kind 'band')."""

    kind: str
    lhs: Affine
    rhs: Affine
    bound: int = 0

    def __post_init__(self):
        if self.kind != "band" and self.kind not in _CMP:
            raise ValueError(f"unknown guard kind {self.kind!r}")

    def holds(self, bindings: dict[str, int]) -> bool:
        a = self.lhs.evaluate(bindings)
        b = self.rhs.evaluate(bindings)
        if self.kind == "band":
            return abs(a - b) > self.bound
        return _CMP[self.kind](a, b)

    def params(self) -> set[str]:
        return self.lhs.params() | self.rhs.params()

    def __str__(self) -> str:
        if self.kind == "band":
            return f"|{self.lhs}-{self.rhs}|>{self.bound}"
        return f"{self.lhs}{self.kind}{self.rhs}"


def band(x, y, bound: int = 1) -> Guard:
    return Guard("band", Affine.of(x), Affine.of(y), bound)


def cmp(x, op: str, y) -> Guard:
    if op not in _CMP:  # "band" is a guard kind, but not a comparison
        raise ValueError(f"unknown comparison {op!r}")
    return Guard(op, Affine.of(x), Affine.of(y))


TemplateLetter = tuple[str, tuple[Affine, ...], int]


@dataclass(frozen=True)
class RelatorSchema:
    """A relator family: label, word template, parameter list, guards."""

    label: str
    params: tuple[str, ...]
    template: tuple[TemplateLetter, ...]
    guards: tuple[Guard, ...] = ()

    def __post_init__(self):
        # an instance's origin is its label and bindings, so names must differ
        for k, p in enumerate(self.params):
            if p in self.params[:k]:
                raise ValueError(f"parameter {p!r} listed twice in {self.label}")
        # so the compiled enumerator binds every parameter it reads
        unlisted = self.free_params().difference(self.params)
        if unlisted:
            raise ValueError(f"parameter {min(unlisted)!r} of {self.label} is not listed")
        # freely reduced: zero exponents dropped, equal adjacent letters merged
        reduced = normalize(((fam, idx), exp) for fam, idx, exp in self.template)
        template = tuple((fam, idx, exp) for (fam, idx), exp in reduced.letters)
        object.__setattr__(self, "template", template)
        # so every instance is reduced as written
        apart = {g.lhs - g.rhs for g in self.guards if g.kind == "band" and g.bound >= 0}
        for first, second in zip(template, template[1:]):
            if (first[0] == second[0] and len(first[1]) == len(second[1])
                    and not _kept_apart(first[1], second[1], apart)):
                raise ValueError(f"adjacent letters {_spell(*first)} and {_spell(*second)} "
                                 f"of {self.label} may coincide")

    def __str__(self) -> str:
        letters = " ".join(_spell(*letter) for letter in self.template)
        head = f"forall {','.join(self.params)}" if self.params else ""
        where = " where " + " and ".join(str(g) for g in self.guards) if self.guards else ""
        return f"{head}{where} : {letters}".strip()

    def free_params(self) -> set[str]:
        """The parameters that a template letter or a guard uses."""
        exprs = [e for _, idx, _ in self.template for e in idx]
        exprs += [e for g in self.guards for e in (g.lhs, g.rhs)]
        return {p for e in exprs for p, _ in e.terms}


def _spell(fam: str, idx: tuple[Affine, ...], exp: int) -> str:
    """A template letter as the presentation text format spells it."""
    return f"{fam}[{','.join(str(e) for e in idx)}]" + (f"^{exp}" if exp != 1 else "")


def _kept_apart(idx1: tuple[Affine, ...], idx2: tuple[Affine, ...], apart: set[Affine]) -> bool:
    """Whether some index pair differs under every binding: by a nonzero
    constant, or by +-(lhs - rhs) of a band guard |lhs-rhs|>b with b >= 0."""
    for e1, e2 in zip(idx1, idx2):
        if e1.terms == e2.terms:
            if e1.const != e2.const:
                return True
        else:
            d = e1 - e2
            if d.const if d.is_constant() else d in apart or -d in apart:
                return True
    return False


def schema(label: str, params, letters, guards=()) -> RelatorSchema:
    """Build a schema; ``letters`` is a list of (family, [index exprs], exp)."""
    tpl = tuple(
        (fam, tuple(Affine.of(e) for e in idx), exp) for fam, idx, exp in letters
    )
    return RelatorSchema(label, tuple(params), tpl, tuple(guards))


@dataclass(frozen=True)
class PresentationSchema:
    """Generator family declarations plus relator schemas, for one group."""

    name: str
    n: int
    families: tuple[tuple[str, tuple], ...]  # (family letter, per-position domain)
    relators: tuple[RelatorSchema, ...]

    def __post_init__(self):
        # an instance's origin is its label and bindings, so labels must differ
        seen = set()
        for rel in self.relators:
            if rel.label in seen:
                raise ValueError(f"relator label {rel.label!r} occurs twice in {self.name}")
            seen.add(rel.label)

    def __str__(self) -> str:
        lines = [f"presentation {self.name}", f"n {self.n}"]
        for fam, domains in self.families:
            parts = ["int" if d is None else f"{d[0]}..{d[1]}" for d in domains]
            lines.append(f"gen {fam} arity {len(domains)} range {','.join(parts)}")
        lines += [f"rel {rel.label} {rel}" for rel in self.relators]
        return "\n".join(lines)

    def alphabet(self) -> Alphabet:
        return alphabet_of(self.families)


def alphabet_of(families) -> Alphabet:
    alpha = Alphabet()
    for family, domains in families:
        alpha.declare(family, domains)
    return alpha


def param_domains(alphabet: Alphabet, rel: RelatorSchema) -> dict[str, tuple | None]:
    """Infer each parameter's domain from where it occurs bare.

    A parameter with a bare occurrence in a ranged index position gets that
    range (intersected over all such occurrences); a parameter seen only in
    unbounded positions is a window parameter (domain ``None``).
    """
    out: dict[str, tuple | None] = {p: None for p in rel.params}
    for fam, idx, _ in rel.template:
        domains = alphabet.domains(fam, len(idx))
        for expr, dom in zip(idx, domains):
            if dom is None:
                continue
            if expr.const == 0 and len(expr.terms) == 1 and expr.terms[0][1] == 1:
                p = expr.terms[0][0]
                if p in out:
                    prev = out[p]
                    out[p] = dom if prev is None else (max(prev[0], dom[0]), min(prev[1], dom[1]))
    return out


def enumerate_bindings(pres: PresentationSchema, rel: RelatorSchema, window: int):
    """All guard-satisfying bindings: window params in [-window, window],
    strand params over their inferred ranges.  Lexicographic order."""
    domains = param_domains(pres.alphabet(), rel)
    axes = []
    for p in rel.params:
        dom = domains[p]
        if dom is None:
            axes.append(range(-window, window + 1))
        else:
            lo, hi = dom
            axes.append(range(lo, hi + 1))
    for values in product(*axes):
        bindings = dict(zip(rel.params, values))
        if all(g.holds(bindings) for g in rel.guards):
            yield bindings


_PY_OPS = {"=": "==", "!=": "!=", "<=": "<=", ">=": ">=", "<": "<", ">": ">"}


def _int(value) -> str:
    """The literal of an int; nothing else is spliced into generated code."""
    if type(value) is not int:
        raise TypeError(f"schema constants must be ints, got {value!r}")
    return repr(value)


def _str(value) -> str:
    if type(value) is not str:
        raise TypeError(f"schema names must be strings, got {value!r}")
    return repr(value)


def _instances_source(alphabet: Alphabet, rel: RelatorSchema) -> str:
    """Python source of ``_instances(window)`` for one schema."""
    domains = param_domains(alphabet, rel)
    for p in rel.params:
        _str(p)
    var = {p: f"v{k}" for k, p in enumerate(rel.params)}
    depth = {p: k + 1 for k, p in enumerate(rel.params)}
    innermost = len(rel.params)

    def code(e: Affine) -> str:
        out = ""
        for p, c in e.terms:
            _int(c)
            scale = "" if abs(c) == 1 else f"{abs(c)}*"
            out += ("-" if c < 0 else "+" if out else "") + scale + var[p]
        const = _int(e.const)
        if not out or e.const:
            out += "+" + const if out and e.const > 0 else const
        return out

    def interval(e: Affine):
        lo = hi = e.const
        for p, c in e.terms:
            if domains[p] is None:
                return None
            a, b = c * domains[p][0], c * domains[p][1]
            lo, hi = lo + min(a, b), hi + max(a, b)
        return lo, hi

    # each guard is tested in the shallowest loop that binds all its parameters
    tests: list[list[str]] = [[] for _ in range(innermost + 1)]
    for g in rel.guards:
        if g.kind == "band":
            test = f"not {_int(-g.bound)} <= {code(g.lhs - g.rhs)} <= {_int(g.bound)}"
        else:
            test = f"{code(g.lhs)} {_PY_OPS[g.kind]} {code(g.rhs)}"
        tests[max((depth[p] for p in g.params()), default=0)].append(test)

    letters, checks = [], []
    far, outside = [], []  # what an unkept instance yields, and when
    never = False  # some constant index lies outside its range

    def bare_window(e: Affine) -> bool:
        """Whether ``e`` is +-p for a window parameter p: always in the window."""
        return (not e.const and len(e.terms) == 1 and e.terms[0][1] in (1, -1)
                and domains[e.terms[0][0]] is None)

    for fam, idx, exp in rel.template:
        doms = alphabet.domains(fam, len(idx))
        for e, dom in zip(idx, doms):
            span = interval(e)
            if dom is None or span is not None and dom[0] <= span[0] and span[1] <= dom[1]:
                continue
            if span is not None and (span[1] < dom[0] or dom[1] < span[0]):
                never = True
            else:
                check = f"{_int(dom[0])} <= {code(e)} <= {_int(dom[1])}"
                if check not in checks:
                    checks.append(check)
        generator = f"({_str(fam)}, ({''.join(code(e) + ', ' for e in idx)}))"
        letters.append(f"_shared[(_shared[{generator}], {_int(exp)})]")
        # a window coordinate other than a bare window parameter may leave
        # the window, so an unkept instance yields its generator if it does
        tests_out = [f"not -window <= {code(e)} <= window"
                     for e, dom in zip(idx, doms) if dom is None and not bare_window(e)]
        if tests_out and generator not in far:
            far.append(generator)
        outside += [t for t in tests_out if t not in outside]

    items = "(" + "".join(f"_shared[({_str(p)}, {var[p]})], " for p in sorted(var)) + ")"
    values = "(" + "".join(f"{var[p]}, " for p in sorted(var)) + ")"

    # a kept instance yields its binding items and word; an unkept one yields
    # None and the generators of its word that may lie outside the window if
    # one of them does, else (); both behind the same range checks
    kept = f"yield {items}, _make(({''.join(x + ', ' for x in letters)}))"
    unkept = (f"yield None, ({''.join(g + ', ' for g in far)}) if {' or '.join(outside)} else ()"
              if far else "yield None, ()")

    def checked(line: str) -> list[str]:
        return [f"if {' and '.join(checks)}:", "    " + line] if checks else [line]

    lines = ["def _instances(window, _shared, _keep, _make=_make):",
             "    yield from ()",
             "    window_range = range(-window, window + 1)"]
    if never:
        return "\n".join(lines) + "\n"
    body = ([f"if _keep is None or {values} in _keep:"] + ["    " + x for x in checked(kept)]
            + ["else:"] + ["    " + x for x in checked(unkept)])
    if tests[0]:
        lines.append(f"    if not ({' and '.join(tests[0])}): return")
    pad = "    "
    for k, p in enumerate(rel.params):
        dom = domains[p]
        axis = "window_range" if dom is None else f"range({_int(dom[0])}, {_int(dom[1])} + 1)"
        lines.append(f"{pad}for v{k} in {axis}:")
        pad += "    "
        if tests[k + 1]:
            lines.append(f"{pad}if not ({' and '.join(tests[k + 1])}): continue")
    lines += [pad + line for line in body]
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=None)
def _compiled(families, rel: RelatorSchema):
    namespace = {"__builtins__": {"range": range}, "_make": Word._make}
    source = _instances_source(alphabet_of(families), rel)
    exec(compile(source, "<schema instances>", "exec"), namespace)
    return namespace["_instances"]


class SharedValues(dict):
    """Maps each value looked up to the first equal object looked up.

    One table serves one build: every letter, generator and binding pair
    of the instances it sees comes out as one object per distinct value.
    Equality and hashing stay value-based, so sharing changes no result.
    """

    __slots__ = ()

    def __missing__(self, key):
        self[key] = key
        return key


def instances(pres: PresentationSchema, rel: RelatorSchema, window: int,
              shared: SharedValues | None = None, keep=None):
    """``(binding_items, word)`` for every strand-valid instance over the
    window, in the order of :func:`enumerate_bindings`.

    ``binding_items`` is the sorted tuple of ``(parameter, value)`` pairs.
    The loop runs in a function compiled once per (families, schema); see
    the module docstring.  Its letters, generators and binding pairs come
    from ``shared``; pass one table to several calls to share them across
    schemas, as ``TruncatedPresentation.from_schema`` does.

    ``keep``, if given, holds the binding values to keep, each a tuple
    ordered like ``binding_items``.  An instance whose values are not in it
    yields ``(None, generators)`` instead, in the same place, after the
    range checks, with no word, no binding items and no
    ``shared`` lookup.  ``generators`` are some of its word's generators,
    among them every one outside ``[-window, window]``, often none: with
    ``Alphabet.gens_in_window(window)`` they cover the word's generators.
    See the module docstring.
    """
    return _compiled(pres.families, rel)(
        window, SharedValues() if shared is None else shared, keep)


def enumerate_instances(pres: PresentationSchema, rel: RelatorSchema, window: int) -> list[Word]:
    """Concrete relator words over the window, strand-valid only."""
    if window < 0:
        raise ValueError("window must be >= 0")
    return [w for _, w in instances(pres, rel, window)]


def instance_set(pres: PresentationSchema, relators, window: int,
                 interior: int | None = None) -> set[Word]:
    """Canonical forms of all instances; optionally keep only words whose
    window coordinates all lie within [-interior, interior]."""
    inside = None if interior is None else pres.alphabet().window_test(interior)
    out: set[Word] = set()
    for rel in relators:
        for w in enumerate_instances(pres, rel, window):
            if inside is not None and not all(map(inside, map(itemgetter(0), w.letters))):
                continue
            c = canonical_cyclic(w)
            if c:
                out.add(c)
    return out


@dataclass
class RelatorMatch:
    """What a replayed relator set lacks and adds against the expected one,
    each sorted by ``str``."""

    missing: list[Word]
    extra: list[Word]

    @property
    def ok(self) -> bool:
        return not self.missing and not self.extra

    def __str__(self) -> str:
        return f"{len(self.missing)} missing / {len(self.extra)} extra relators"


def match_relators(expected: set[Word], replayed: set[Word]) -> RelatorMatch:
    return RelatorMatch(sorted(expected - replayed, key=str),
                        sorted(replayed - expected, key=str))
