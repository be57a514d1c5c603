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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

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
    if op not in _CMP:
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

    def __str__(self) -> str:
        letters = " ".join(
            f"{fam}[{','.join(str(e) for e in idx)}]" + (f"^{exp}" if exp != 1 else "")
            for fam, idx, exp in self.template
        )
        head = f"forall {','.join(self.params)}" if self.params else ""
        where = " where " + " and ".join(str(g) for g in self.guards) if self.guards else ""
        return f"{head}{where} : {letters}".strip()

    def free_params(self) -> set[str]:
        used: set[str] = set()
        for _, idx, _ in self.template:
            for e in idx:
                used |= e.params()
        for g in self.guards:
            used |= g.params()
        return used

    def instantiate(self, bindings: dict[str, int], alphabet: Alphabet | None = None) -> Word:
        """Evaluate every index; reject guard violations by name."""
        missing = [p for p in self.params if p not in bindings]
        if missing:
            raise GuardError(f"unbound parameter(s) {missing} for {self.label}")
        for g in self.guards:
            if not g.holds(bindings):
                raise GuardError(f"guard {g} fails for {self.label} at {bindings}")
        letters = []
        for fam, idx, exp in self.template:
            concrete = ((fam, tuple(e.evaluate(bindings) for e in idx)), exp)
            letters.append(concrete)
        if alphabet is not None:
            return alphabet.make_word(letters)
        return normalize(letters)

    def reduced(self) -> "RelatorSchema":
        """Merge adjacent template letters that are identical affine forms."""
        stack: list[list] = []
        for fam, idx, exp in self.template:
            if stack and stack[-1][0] == fam and stack[-1][1] == idx:
                stack[-1][2] += exp
                if stack[-1][2] == 0:
                    stack.pop()
            else:
                stack.append([fam, list(idx), exp])
        tpl = tuple((fam, tuple(idx), exp) for fam, idx, exp in stack)
        return RelatorSchema(self.label, self.params, tpl, self.guards)


def schema(label: str, params, letters, guards=()) -> RelatorSchema:
    """Build a schema; ``letters`` is a list of (family, [index exprs], exp)."""
    tpl = tuple(
        (fam, tuple(Affine.of(e) for e in idx), exp) for fam, idx, exp in letters
    )
    return RelatorSchema(label, tuple(params), tpl, tuple(guards)).reduced()


@dataclass(frozen=True)
class PresentationSchema:
    """Generator family declarations plus relator schemas, for one group."""

    name: str
    n: int
    families: tuple[tuple[str, tuple], ...]  # (family letter, per-position domain)
    relators: tuple[RelatorSchema, ...]

    def alphabet(self) -> Alphabet:
        alpha = Alphabet()
        for family, domains in self.families:
            alpha.declare(family, domains)
        return alpha

    def relator(self, label: str) -> RelatorSchema:
        for r in self.relators:
            if r.label == label:
                return r
        raise KeyError(f"no relator schema labelled {label!r} in {self.name}")

    def __str__(self) -> str:
        lines = [f"presentation {self.name} (n={self.n})"]
        for family, domains in self.families:
            lines.append(f"  gen {family} {domains}")
        for r in self.relators:
            lines.append(f"  rel {r.label}: {r}")
        return "\n".join(lines)


def param_domains(pres: PresentationSchema, rel: RelatorSchema) -> dict[str, tuple | None]:
    """Infer each parameter's domain from where it occurs bare.

    A parameter with a bare occurrence in a ranged index position gets that
    range (intersected over all such occurrences); a parameter seen only in
    unbounded positions is a window parameter (domain ``None``).
    """
    alphabet = pres.alphabet()
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
    domains = param_domains(pres, rel)
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


def enumerate_instances(pres: PresentationSchema, rel: RelatorSchema, window: int) -> list[Word]:
    """Concrete relator words over the window, strand-valid only."""
    if window < 0:
        raise ValueError("window must be >= 0")
    in_domain = pres.alphabet().in_domain
    out = []
    for bindings in enumerate_bindings(pres, rel, window):
        w = rel.instantiate(bindings)
        if all(in_domain(g) for g, _ in w.letters):
            out.append(w)
    return out


def instance_set(pres: PresentationSchema, relators, window: int,
                 interior: int | None = None) -> set[Word]:
    """Canonical forms of all instances; optionally keep only words whose
    window coordinates all lie within [-interior, interior]."""
    within = pres.alphabet().within_window
    out: set[Word] = set()
    for rel in relators:
        for w in enumerate_instances(pres, rel, window):
            if interior is not None and not all(within(g, interior) for g, _ in w.letters):
                continue
            c = canonical_cyclic(w)
            if c:
                out.add(c)
    return out


def schema_sets_equal(pres_a: PresentationSchema, rels_a,
                      pres_b: PresentationSchema, rels_b,
                      window: int) -> bool:
    """Compare two relator-schema collections by their canonical instance
    sets over the window (canonical = least rotation of word or inverse)."""
    return instance_set(pres_a, rels_a, window) == instance_set(pres_b, rels_b, window)
