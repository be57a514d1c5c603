"""Parser and emitter for the presentation file format.

Line-oriented, ASCII only::

    presentation GVB'
    n 5
    gen a arity 3 range int,int,1..2
    gen a arity 1 range 3..4
    rel comm_ss_2j forall m,k,j where j>=4 : a[m,k,2] a[j] a[m+1,k,2]^-1 a[j]^-1

``int`` marks an unbounded window coordinate; ``lo..hi`` is an inclusive
range whose bounds may mention ``n``.  A relator line carries an optional
label, a ``forall`` clause listing its parameters, an optional ``where``
clause with guards joined by ``and`` (comparisons, or ``|i-j|>1`` bands),
then the template letters.  Emission resolves ``n`` to its value, so
``emit . parse`` is stable even though it does not preserve spelling.

Concrete words (transcripts, logs) use the compact spelling
``s1^2 r3^-1 a[0,1,2]``; :func:`parse_word` reads it back.
"""

from __future__ import annotations

import re

from .schemas import Affine, Guard, PresentationSchema, RelatorSchema, band, cmp
from .words import Word, normalize


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


_IDENT = r"[A-Za-z_][A-Za-z_0-9']*"
_LETTER_RE = re.compile(
    rf"(?P<fam>[a-z])(?:\[(?P<idx>[^\]]*)\]|(?P<bare>-?\d+))(?:\^(?P<exp>-?\d+))?$"
)


def _parse_affine(text: str, line: int | None = None, n: int | None = None) -> Affine:
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


def _parse_guard(text: str, line: int, n: int | None) -> Guard:
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


def parse_presentation(text: str) -> PresentationSchema:
    name = "unnamed"
    n: int | None = None
    families: list[tuple[str, tuple]] = []
    relators: list[RelatorSchema] = []
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
            guards: list[Guard] = []
            while htokens:
                key = htokens.pop(0)
                if key == "forall":
                    if not htokens:
                        raise ParseError("forall needs parameters", lineno)
                    params = tuple(p.strip() for p in htokens.pop(0).split(","))
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
            rel = RelatorSchema(label, params, tuple(letters), tuple(guards)).reduced()
            unknown = rel.free_params() - set(params)
            if unknown:
                raise ParseError(f"unbound parameter(s) {sorted(unknown)}", lineno)
            relators.append(rel)
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
    if n is None:
        raise ParseError("missing n header line")
    return PresentationSchema(name, n, tuple(families), tuple(relators))


def emit_presentation(pres: PresentationSchema) -> str:
    lines = [f"presentation {pres.name}", f"n {pres.n}"]
    for fam, domains in pres.families:
        parts = ["int" if d is None else f"{d[0]}..{d[1]}" for d in domains]
        lines.append(f"gen {fam} arity {len(domains)} range {','.join(parts)}")
    for rel in pres.relators:
        lines.append(f"rel {rel.label} {rel}")
    return "\n".join(lines) + "\n"


def parse_word(text: str) -> Word:
    """Read the compact concrete spelling, e.g. ``s1^2 r3^-1 a[0,1,2]``."""
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
