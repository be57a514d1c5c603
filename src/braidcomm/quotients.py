"""Quotient identifications and the rank-growth certificates.

Adding relators to a presentation always presents a quotient, so the
only thing ever verified here is the *identification* of that quotient
with a named target presentation.  Identifications are replayed with the
same two Tietze moves as everywhere else, plus one witnessed move:
``absorb`` deletes a relator after rewriting it to the empty word, where
each rewrite step swaps a subword ``u`` for ``v`` such that ``u v^-1`` is
a present relator up to rotation and inversion.  Every witness is checked
at run time; nothing is trusted.

Maps onto the symmetric group get a second, non-symbolic channel: send
both kinds of generator to adjacent transpositions and multiply out every
source relator, which must give the identity permutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .abelian import LatticeReduction, relation_matrix, subgroup_rank
from .catalog import catalog
from .derived import simplified_derived
from .replays import MARGIN, gvb3_quotient_chain, sg3_beta_elimination
from .schemas import PresentationSchema, RelatorSchema, enumerate_instances, instance_set
from .tietze import TruncatedPresentation, origin_of
from .words import Gen, Word, canonical_cyclic, concat, fmt_gen, invert, normalize


class CertificateError(RuntimeError):
    """A claimed certificate failed its internal checks."""


def quotient_by(pres: PresentationSchema, extra: list[RelatorSchema],
                name: str | None = None) -> PresentationSchema:
    """Append relator schemas; nothing is simplified."""
    alphabet = pres.alphabet()
    for rel in extra:
        for fam, idx, _ in rel.template:
            if not alphabet.is_declared(fam, len(idx)):
                raise ValueError(
                    f"relator {rel.label} uses undeclared family {fam!r}/{len(idx)}"
                )
    return PresentationSchema(name or f"{pres.name}/quot", pres.n,
                              pres.families, pres.relators + tuple(extra))


# ---------------------------------------------------------------------------
# witnessed relator absorption


def rewrite_step(w: Word, u: Word, v: Word, pool: set[Word]) -> Word:
    """Replace one occurrence of u in w by v, justified by a pool relator."""
    move = canonical_cyclic(concat(u, invert(v)))
    if move not in pool:
        raise CertificateError(f"rewrite {u} -> {v} is not backed by a present relator")
    wu, uu = w.units(), u.units()
    for start in range(len(wu) - len(uu) + 1):
        if wu[start:start + len(uu)] == uu:
            return normalize(wu[:start] + v.units() + wu[start + len(uu):])
    raise CertificateError(f"subword {u} does not occur in {w}")


def absorb(w: Word, steps: list[tuple[Word, Word]], pool: set[Word]) -> None:
    for u, v in steps:
        w = rewrite_step(w, u, v, pool)
    if w:
        raise CertificateError(f"absorption left a nonempty word: {w}")


# ---------------------------------------------------------------------------
# the surjection diagram


EDGES = {
    # edge: (source, target, added relator labels, generators killed)
    "alpha": ("GVB", "B", ("kill_r",), True),
    "beta": ("B", "S", ("invol_s",), False),
    "gamma": ("GVB", "VB", ("invol_s",), False),
    "delta": ("VB", "S", ("kill_r",), True),
    "omega": ("SG", "B", ("kill_r",), True),
    "zeta": ("VB", "WB", ("forbidden",), False),
    "xi": ("UB", "GVB", ("mixed_l", "mixed_r", "braid_rr"), False),
    "kappa": ("UB", "SG", ("mixed_l", "mixed_r", "comm_sr_eq"), False),
}


def _added_schemas(labels, n: int) -> list[RelatorSchema]:
    from .catalog import _core
    from .schemas import aff, schema

    out = []
    for label in labels:
        if label == "kill_r":
            out.append(schema("kill_r", ("i",), [("r", [aff("i")], 1)]))
        else:
            out.append(_core(n)[label])
    return out


@dataclass
class EdgeReport:
    edge: str
    n: int
    match: bool
    missing: list[Word] = field(default_factory=list)
    extra: list[Word] = field(default_factory=list)
    permutation_check: bool | None = None
    transcript: str = ""

    @property
    def ok(self) -> bool:
        return self.match and self.permutation_check is not False

    def __str__(self) -> str:
        tail = "" if self.permutation_check is None else \
            f", permutation cross-check {'passed' if self.permutation_check else 'FAILED'}"
        return f"edge {self.edge} (n={self.n}): {'match' if self.match else 'MISMATCH'}{tail}"


def _gamma_witness_steps(i: int) -> list[tuple[Word, Word]]:
    from .words import word

    s_i, s_i1, r_i, r_i1 = ("s", (i,)), ("s", (i + 1,)), ("r", (i,)), ("r", (i + 1,))
    return [
        (word((r_i1, -1)),
         word((s_i, 1), (s_i1, 1), (r_i, -1), (s_i1, -1), (s_i, -1))),
        (word((s_i, 2)), normalize([])),
        (word((s_i, -2)), normalize([])),
        (word((s_i1, 2)), normalize([])),
        (word((s_i1, -2)), normalize([])),
    ]


def verify_diagram_edge(edge: str, n: int) -> EdgeReport:
    """Check source + added relators is the target presentation."""
    if edge not in EDGES:
        raise KeyError(f"unknown edge {edge!r}; expected one of {sorted(EDGES)}")
    source_name, target_name, added_labels, kills_r = EDGES[edge]
    source = catalog(source_name, n)
    added = _added_schemas(added_labels, n)
    combined = quotient_by(source, added, name=f"{source_name}+{edge}")
    p = TruncatedPresentation.from_schema(combined, 0, name=f"edge-{edge}-n{n}")
    if kills_r:
        for i in range(1, n):
            p.eliminate(("r", (i,)), origin_of("kill_r", {"i": i}), step=f"edge {edge}")
    if edge == "gamma":
        pool = {canonical_cyclic(w) for w in p.relators.values() if w}
        for i in range(1, n - 1):
            rid, w = p.current(origin_of("mixed_l", {"i": i}), step="edge gamma")
            absorb(w, _gamma_witness_steps(i), pool - {canonical_cyclic(w)})
            p.remove_relator(rid, "rewrites to 1 modulo the rest")
    replayed = {canonical_cyclic(w) for w in p.relators.values() if w}
    target = catalog(target_name, n)
    expected = instance_set(target, target.relators, 0)
    missing = sorted(expected - replayed, key=str)
    extra = sorted(replayed - expected, key=str)
    perm_ok = None
    if target_name == "S":
        perm_ok = _permutation_cross_check(source, added, n)
    return EdgeReport(edge, n, not missing and not extra, missing, extra,
                      perm_ok, p.transcript_text())


# ---------------------------------------------------------------------------
# permutation representation (independent channel for maps onto S_n)


def transposition(i: int, n: int) -> tuple[int, ...]:
    p = list(range(n))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # left-to-right: apply p, then q
    return tuple(q[p[i]] for i in range(len(p)))


def permutation_of_word(w: Word, n: int) -> tuple[int, ...]:
    perm = tuple(range(n))
    for (family, (i,)), _e in w.units():
        # both generator kinds map to the adjacent transposition; a
        # transposition is its own inverse, so signs do not matter
        perm = compose(perm, transposition(i, n))
    return perm


def _permutation_cross_check(source: PresentationSchema, added, n: int) -> bool:
    identity = tuple(range(n))
    for rel in source.relators:
        for w in instance_set(source, [rel], 0):
            if permutation_of_word(w, n) != identity:
                return False
    # the images generate the full symmetric group: close under products
    gens = [transposition(i, n) for i in range(1, n)]
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = compose(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    import math

    return len(seen) == math.factorial(n)


# ---------------------------------------------------------------------------
# rank-growth certificates


@dataclass
class FreeQuotientCertificate:
    window: int
    interior_generators: list[Gen]
    rank: int
    transcript: str

    def __str__(self) -> str:
        gens = ", ".join(fmt_gen(g) for g in self.interior_generators)
        return (f"free quotient certificate (window {self.window}): "
                f"free of rank {self.rank} on {{{gens}}}")


def free_quotient_certificate_gvb3(window: int) -> FreeQuotientCertificate:
    """Two quotient steps send GVB'_3 onto a group that is free on the
    interior generators a[0,k,1], k != 0; the certificate is refused if
    any relator supported on those generators survives."""
    if window < 3:
        raise ValueError("window must be >= 3")
    p = gvb3_quotient_chain(window)
    bound = window - MARGIN
    expected = {("a", (0, k, 1)) for k in range(-bound, bound + 1) if k != 0}
    survivors = p.surviving_interior(MARGIN)
    if survivors != expected:
        raise CertificateError(
            f"interior survivors {sorted(survivors)} differ from the free basis")
    leftovers = p.interior_relator_set(MARGIN)
    if leftovers:
        raise CertificateError(
            f"certificate refused: surviving interior relator {sorted(leftovers, key=str)[0]}")
    return FreeQuotientCertificate(window, sorted(expected), len(expected),
                                   p.transcript_text())


@dataclass
class AbelianRankCertificate:
    window: int
    free_rank: int
    torsion: list[int]
    cross_checked: bool
    transcript: str

    def __str__(self) -> str:
        return (f"abelian quotient certificate (window {self.window}): "
                f"torsion-free interior rank {self.free_rank}")


def sg3_abelianization_certificate(window: int) -> AbelianRankCertificate:
    """The abelianization of SG'_3 restricted to the interior is free on
    the generators a[0,k,2], a[1,k,2]; torsion anywhere refuses the
    certificate.  The rank is recomputed on the unreplayed truncation as
    an independent cross-check."""
    if window < 4:
        raise ValueError("window must be >= 4")
    p = sg3_beta_elimination(window)
    bound = window - MARGIN
    expected = {("a", (m, k, 2)) for m in (0, 1) for k in range(-bound, bound + 1)}
    survivors = p.surviving_interior(MARGIN)
    if survivors != expected:
        raise CertificateError(
            f"interior survivors {sorted(survivors)} differ from the expected basis")
    mat = relation_matrix(p)
    red = LatticeReduction(mat.rows, len(mat.gens), track_v=False).run()
    torsion = [d for d in red.invariant_factors() if d > 1]
    if torsion:
        raise CertificateError(f"certificate refused: torsion {torsion}")
    cols = [mat.index[g] for g in sorted(expected)]
    rank = subgroup_rank(mat.rows, len(mat.gens), cols)
    if rank != len(expected):
        raise CertificateError(
            f"interior generators span rank {rank}, expected {len(expected)}")
    # independent route: same images measured on the unreplayed truncation
    p0 = TruncatedPresentation.from_schema(simplified_derived("SG", 3), window)
    mat0 = relation_matrix(p0)
    cols0 = [mat0.index[g] for g in sorted(expected)]
    rank0 = subgroup_rank(mat0.rows, len(mat0.gens), cols0)
    return AbelianRankCertificate(window, rank, torsion, rank0 == rank,
                                  p.transcript_text())


# ---------------------------------------------------------------------------
# SG'_3 as a quotient of SG'_4


@dataclass
class QuotientMatchReport:
    window: int
    match: bool
    missing: list[Word] = field(default_factory=list)
    extra: list[Word] = field(default_factory=list)

    def __str__(self) -> str:
        return ("SG'_4 / <<a[3], b[m,3]>> matches SG'_3" if self.match
                else f"SG'_4 quotient MISMATCH: missing {self.missing[:3]}, extra {self.extra[:3]}")


def sg3_as_quotient_of_sg4(window: int, keep: set[Gen] = frozenset()) -> QuotientMatchReport:
    """Kill a[3] and every b[m,3] inside the SG'_4 list and compare with
    the SG'_3 list.  ``keep`` exempts generators from the substitution,
    which is how the mutation test drives a detected mismatch."""
    if window < 3:
        raise ValueError("window must be >= 3")
    sg4 = simplified_derived("SG", 4)
    sg3 = simplified_derived("SG", 3)
    doomed = lambda g: (g[0] == "a" and len(g[1]) == 1) or (g[0] == "b" and len(g[1]) == 2)
    # deleting generators commutes with conjugation and inversion, so the
    # raw instances are trimmed and canonicalized once
    quotiented: set[Word] = set()
    for rel in sg4.relators:
        for w in enumerate_instances(sg4, rel, window):
            trimmed = normalize([(g, e) for g, e in w.letters
                                 if not doomed(g) or g in keep])
            if trimmed:
                quotiented.add(canonical_cyclic(trimmed))
    expected = instance_set(sg3, sg3.relators, window)
    missing = sorted(expected - quotiented, key=str)
    extra = sorted(quotiented - expected, key=str)
    return QuotientMatchReport(window, not missing and not extra, missing, extra)
