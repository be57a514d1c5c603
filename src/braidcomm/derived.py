"""Presentations of the commutator subgroups, raw and simplified.

The raw presentation of each commutator subgroup is not transcribed: it is
produced by rewriting every ambient relator at the formal coset key, plus
the two one-letter families contributed by trivial pairs.  Tests compare
this output against a frozen transcription, and sampled concrete keys are
checked through the expansion identity.

The simplified presentations are the finished two-parameter lists the rest
of the package consumes.  Generator families after simplification:

  GVB':  a[m,k,1], a[m,k,2], b[m,k,2], a[j], b[m,j]   (3 <= j <= n-1)
  SG' :  a[m,k,2],           b[m,k,2], a[j], b[m,j]

where ``a[j]`` is the renamed ``a[0,0,j]`` and ``b[m,j]`` the renamed
``b[m,0,j]``; :func:`braidcomm.replays.simplify` records both renamings as
moves.  Relator labels name the ambient relation they came from and the
strand case (``_1``/``_2``/``_j``), e.g. ``comm_sr_1j`` is the mixed
commutation relation rewritten in the case i = 1, j >= 3.

Every simplified schema is defined once, in one table built at import.
``SG_n`` trades the companion braid relations of ``GVB_n`` for the
same-strand commutation, and in ``SG_n'`` that commutation kills the whole
``a[m,k,1]`` family.  So ``GVB'`` is the common, companion-braid and mixed
groups, and ``SG'`` is the common and mixed groups with their ``a[.,.,1]``
letters deleted (schemas left empty dropped), then the same-strand group.
Relator order is presentation order: it fixes relator ids and so the
order of replay transcripts.
"""

from __future__ import annotations

from dataclasses import replace

from .catalog import catalog
from .rewriting import symbolic_rewrite, trivial_relator_schemas
from .schemas import Affine, PresentationSchema, RelatorSchema, aff, band, cmp, schema


def raw_families(n: int):
    return (
        ("a", (None, None, (1, n - 1))),
        ("b", (None, None, (1, n - 1))),
    )


def simplified_families(group: str, n: int):
    """The families of the simplified list; the last two are the renamed
    ``a[j]`` and ``b[m,j]``."""
    lo = 1 if group == "GVB" else 2
    return (
        ("a", (None, None, (lo, 2))),
        ("b", (None, None, (2, 2))),
        ("a", ((3, n - 1),)),
        ("b", (None, (3, n - 1))),
    )


def raw_derived(group: str, n: int) -> PresentationSchema:
    """Raw rewritten presentation: trivial-pair families plus one rewritten
    schema per ambient relator family, at the formal key."""
    ambient = catalog(group, n)
    relators = list(trivial_relator_schemas())
    for rel in ambient.relators:
        relators.append(symbolic_rewrite(rel, f"rw_{rel.label}"))
    return PresentationSchema(f"{group}'-raw", n, raw_families(n), tuple(relators))


def _without_level1(rel: RelatorSchema) -> RelatorSchema:
    """``rel`` with its ``a[.,.,1]`` letters deleted and its unused
    parameters dropped."""
    level1 = (Affine.of(1),)
    template = tuple(x for x in rel.template if x[0] != "a" or x[1][2:] != level1)
    out = replace(rel, template=template)
    used = out.free_params()
    return replace(out, params=tuple(p for p in rel.params if p in used))


def _simplified_lists() -> dict[str, tuple[RelatorSchema, ...]]:
    """The simplified relator lists, built from four groups of schemas:
    common, companion-braid, mixed and same-strand."""
    m, k, i, j = aff("m"), aff("k"), aff("i"), aff("j")
    m1, m2, k1, k2, i1 = aff("m", 1), aff("m", 2), aff("k", 1), aff("k", 2), aff("i", 1)
    A = lambda *ix: ("a", ix, 1)
    Ai = lambda *ix: ("a", ix, -1)
    B = lambda *ix: ("b", ix, 1)
    Bi = lambda *ix: ("b", ix, -1)
    common = (
        trivial_relator_schemas()[0],  # triv_a
        schema("comm_ss_1j", ("m", "k", "j"),
               [A(m, k, 1), A(j), Ai(m1, k, 1), Ai(j)], [cmp(j, ">=", 3)]),
        schema("comm_ss_2j", ("m", "k", "j"),
               [A(m, k, 2), A(j), Ai(m1, k, 2), Ai(j)], [cmp(j, ">=", 4)]),
        schema("comm_ss_jj", ("i", "j"),
               [A(i), A(j), Ai(i), Ai(j)], [band(i, j)]),
        schema("comm_rr_2j", ("m", "k", "j"),
               [B(m, k, 2), B(m, j), Bi(m, k1, 2), Bi(m, j)], [cmp(j, ">=", 4)]),
        schema("comm_rr_jj", ("m", "i", "j"),
               [B(m, i), B(m, j), Bi(m, i), Bi(m, j)], [band(i, j)]),
        schema("comm_sr_1j", ("m", "k", "j"),
               [A(m, k, 1), B(m1, j), Ai(m, k1, 1), Bi(m, j)], [cmp(j, ">=", 3)]),
        schema("comm_sr_2j", ("m", "k", "j"),
               [A(m, k, 2), B(m1, j), Ai(m, k1, 2), Bi(m, j)], [cmp(j, ">=", 4)]),
        schema("comm_sr_j2", ("m", "k", "i"),
               [A(i), B(m1, k, 2), Ai(i), Bi(m, k, 2)], [cmp(i, ">=", 4)]),
        schema("comm_sr_jj", ("m", "i", "j"),
               [A(i), B(m1, j), Ai(i), Bi(m, j)], [band(i, j)]),
        schema("braid_ss_1", ("m", "k"),
               [A(m, k, 1), A(m1, k, 2), A(m2, k, 1), Ai(m2, k, 2), Ai(m1, k, 1), Ai(m, k, 2)]),
        schema("braid_ss_2", ("m", "k"),
               [A(m, k, 2), A(3), A(m2, k, 2), Ai(3), Ai(m1, k, 2), Ai(3)]),
        schema("braid_ss_j", ("i",),
               [A(i), A(i1), A(i), Ai(i1), Ai(i), Ai(i1)]),
    )
    companion_braid = (
        schema("braid_rr_1", ("m", "k"),
               [B(m, k1, 2), Bi(m, k2, 2), Bi(m, k, 2)]),
        schema("braid_rr_2", ("m", "k"),
               [B(m, k, 2), B(m, 3), B(m, k2, 2), Bi(m, 3), Bi(m, k1, 2), Bi(m, 3)]),
        schema("braid_rr_j", ("m", "i"),
               [B(m, i), B(m, i1), B(m, i), Bi(m, i1), Bi(m, i), Bi(m, i1)]),
    )
    mixed = (
        schema("mixed_l_1", ("m", "k"),
               [A(m, k1, 2), A(m1, k1, 1), Bi(m2, k, 2), Ai(m1, k, 1), Ai(m, k, 2)]),
        schema("mixed_l_2", ("m", "k"),
               [B(m, k, 2), A(3), A(m1, k1, 2), Bi(m2, 3), Ai(m1, k, 2), Ai(3)]),
        schema("mixed_l_j", ("m", "i"),
               [B(m, i), A(i1), A(i), Bi(m2, i1), Ai(i), Ai(i1)]),
        schema("mixed_r_1", ("m", "k"),
               [B(m, k, 2), A(m, k1, 1), A(m1, k1, 2), Ai(m1, k, 2), Ai(m, k, 1)]),
        schema("mixed_r_2", ("m", "k"),
               [B(m, 3), A(m, k1, 2), A(3), Bi(m2, k, 2), Ai(3), Ai(m, k, 2)]),
        schema("mixed_r_j", ("m", "i"),
               [B(m, i1), A(i), A(i1), Bi(m2, i), Ai(i1), Ai(i)]),
    )
    same_strand = (
        schema("mixed_eq_2", ("m", "k"),
               [A(m, k, 2), B(m1, k, 2), Ai(m, k1, 2), Bi(m, k, 2)]),
        schema("mixed_eq_j", ("m", "i"),
               [A(i), B(m1, i), Ai(i), Bi(m, i)]),
    )
    sg = tuple(r for r in map(_without_level1, common + mixed) if r.template)
    return {"GVB": common + companion_braid + mixed, "SG": sg + same_strand}


_SIMPLIFIED = _simplified_lists()


def simplified_derived(group: str, n: int) -> PresentationSchema:
    if group not in _SIMPLIFIED:
        raise KeyError(f"no derived presentation for group family {group!r}")
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    return PresentationSchema(f"{group}'", n, simplified_families(group, n), _SIMPLIFIED[group])


def verify_simplification(group: str, n: int, window: int):
    """Replay the simplification on the truncated raw presentation and
    compare its interior relators with the stored list.  See
    :mod:`braidcomm.replays` for the replay itself."""
    from . import replays

    return replays.run_simplification_check(group, n, window)
