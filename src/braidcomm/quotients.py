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

The rank-growth certificates return the interior rank the registry
reads.  They raise :class:`CertificateError` on unexpected survivors, a
surviving interior relator, torsion, or a direct route that disagrees.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import abelian_invariants_of_matrix, matrix_rank, relation_matrix, subgroup_rank
from .catalog import _core, catalog
from .derived import simplified_derived
from .replays import gvb3_quotient_chain, sg3_beta_elimination
from .schemas import (PresentationSchema, RelatorMatch, RelatorSchema, enumerate_instances,
                      instance_set, match_relators)
from .tietze import MARGIN, TruncatedPresentation, origin_of
from .words import Gen, Word, canonical_cyclic, concat, invert, normalize, word


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
    # edge: (source, target, labels of the catalog relators added)
    "alpha": ("GVB", "B", ("kill_r",)),
    "beta": ("B", "S", ("invol_s",)),
    "gamma": ("GVB", "VB", ("invol_s",)),
    "delta": ("VB", "S", ("kill_r",)),
    "omega": ("SG", "B", ("kill_r",)),
    "zeta": ("VB", "WB", ("forbidden",)),
    "xi": ("UB", "GVB", ("mixed_l", "mixed_r", "braid_rr")),
    "kappa": ("UB", "SG", ("mixed_l", "mixed_r", "comm_sr_eq")),
}


@dataclass
class EdgeReport:
    edge: str
    n: int
    relators: RelatorMatch
    permutation_check: bool | None = None

    @property
    def ok(self) -> bool:
        return self.relators.ok and self.permutation_check is not False

    def __str__(self) -> str:
        tail = "" if self.permutation_check is None else \
            f", permutation cross-check {'passed' if self.permutation_check else 'FAILED'}"
        verdict = "match" if self.relators.ok else "MISMATCH"
        return f"edge {self.edge} (n={self.n}): {verdict}{tail}"


def _gamma_witness_steps(i: int) -> list[tuple[Word, Word]]:
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
    source_name, target_name, added = EDGES[edge]
    source = catalog(source_name, n)
    core = _core(n)
    combined = quotient_by(source, [core[label] for label in added], name=f"{source_name}+{edge}")
    p = TruncatedPresentation.from_schema(combined, 0, name=f"edge-{edge}-n{n}")
    if "kill_r" in added:
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
    perm_ok = None
    if target_name == "S":
        perm_ok = _permutation_cross_check(source, n)
    return EdgeReport(edge, n, match_relators(expected, replayed), perm_ok)


# ---------------------------------------------------------------------------
# permutation representation (independent channel for maps onto S_n)


def permutation_of_word(w: Word, n: int) -> tuple[int, ...]:
    # both generator kinds map to the adjacent transposition of i-1 and i; a
    # transposition is its own inverse, so signs do not matter.  Swapping two
    # entries composes on the right, so the letters are read last to first
    # to apply the first letter first.
    perm = list(range(n))
    for (_, (i,)), _e in reversed(w.units()):
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return tuple(perm)


def _permutation_cross_check(source: PresentationSchema, n: int) -> bool:
    # only the relators are checked: the adjacent transpositions generate
    # S_n for every n, so surjectivity holds whatever the relators are
    identity = tuple(range(n))
    return all(permutation_of_word(w, n) == identity
               for rel in source.relators for w in instance_set(source, [rel], 0))


# ---------------------------------------------------------------------------
# rank-growth certificates


def free_quotient_certificate_gvb3(window: int) -> int:
    """The rank of a free quotient of GVB'_3 at this window.

    Two quotient steps send GVB'_3 onto a group that is free on the
    interior generators a[0,k,1], k != 0; the certificate is refused if
    any relator supported on those generators survives."""
    if window < 3:
        raise ValueError("window must be >= 3")
    p = gvb3_quotient_chain(window)
    bound = window - MARGIN
    expected = {("a", (0, k, 1)) for k in range(-bound, bound + 1) if k != 0}
    survivors = p.interior()
    if survivors != expected:
        raise CertificateError(
            f"interior survivors {sorted(survivors)} differ from the free basis")
    leftovers = p.interior_relator_set()
    if leftovers:
        raise CertificateError(
            f"certificate refused: surviving interior relator {sorted(leftovers, key=str)[0]}")
    return len(expected)


def sg3_abelianization_certificate(window: int) -> int:
    """The free rank of the abelianization of SG'_3 on the interior.

    That abelianization is free on the generators a[0,k,2], a[1,k,2];
    torsion anywhere refuses the certificate.  The rank is recomputed on
    the unreplayed truncation as an independent route, and a disagreement
    refuses the certificate too."""
    if window < 4:
        raise ValueError("window must be >= 4")
    p = sg3_beta_elimination(window)
    bound = window - MARGIN
    expected = {("a", (m, k, 2)) for m in (0, 1) for k in range(-bound, bound + 1)}
    survivors = p.interior()
    if survivors != expected:
        raise CertificateError(
            f"interior survivors {sorted(survivors)} differ from the expected basis")
    mat = relation_matrix(p)
    free_rank, torsion = abelian_invariants_of_matrix(mat.rows, len(mat.gens))
    if torsion:
        raise CertificateError(f"certificate refused: torsion {torsion}")
    # the interior columns span rank([E; R]) - rank(R), and rank(R) is the
    # column count less the free rank just computed
    units = [{mat.index[g]: 1} for g in sorted(expected)]
    rank = matrix_rank(mat.rows + units, len(mat.gens)) - (len(mat.gens) - free_rank)
    if rank != len(expected):
        raise CertificateError(
            f"interior generators span rank {rank}, expected {len(expected)}")
    # independent route: same images measured on the unreplayed truncation
    p0 = TruncatedPresentation.from_schema(simplified_derived("SG", 3), window)
    mat0 = relation_matrix(p0)
    cols0 = [mat0.index[g] for g in sorted(expected)]
    rank0 = subgroup_rank(mat0.rows, len(mat0.gens), cols0)
    if rank0 != rank:
        raise CertificateError(
            f"replayed rank {rank} and direct rank {rank0} disagree")
    return rank


# ---------------------------------------------------------------------------
# SG'_3 as a quotient of SG'_4


def sg3_as_quotient_of_sg4(window: int, keep: set[Gen] = frozenset()) -> RelatorMatch:
    """Kill a[3] and every b[m,3] inside the SG'_4 list and compare with
    the SG'_3 list.  ``keep`` exempts generators from the substitution,
    which is how the mutation test drives a detected mismatch."""
    return sg3_quotient_matches(window, (frozenset(keep),))[0]


def sg3_quotient_matches(window: int, keeps: tuple[frozenset[Gen], ...]) -> list[RelatorMatch]:
    """``sg3_as_quotient_of_sg4(window, keep)`` for each keep set, in order,
    from one enumeration of SG'_4's instances and one SG'_3 instance set."""
    if window < 3:
        raise ValueError("window must be >= 3")
    sg4 = simplified_derived("SG", 4)
    sg3 = simplified_derived("SG", 3)
    doomed = lambda g: (g[0] == "a" and len(g[1]) == 1) or (g[0] == "b" and len(g[1]) == 2)
    # deleting generators commutes with conjugation and inversion, so the
    # raw instances are trimmed and canonicalized once; a keep set that
    # spares none of an instance's doomed letters trims it as the one
    # before did, and reuses that canonical form
    quotiented: list[set[Word]] = [set() for _ in keeps]
    for rel in sg4.relators:
        for w in enumerate_instances(sg4, rel, window):
            last = None
            for keep, out in zip(keeps, quotiented):
                trimmed = [(g, e) for g, e in w.letters if not doomed(g) or g in keep]
                if trimmed != last:
                    last, canon = trimmed, canonical_cyclic(normalize(trimmed))
                if canon:
                    out.add(canon)
    expected = instance_set(sg3, sg3.relators, window)
    return [match_relators(expected, q) for q in quotiented]
