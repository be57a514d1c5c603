"""Scripted elimination replays on truncated presentations.

Each function below drives :class:`TruncatedPresentation` through one
deterministic sequence of named phases: sweeps that eliminate a grid of
generators, marches, derives, adjoins and renames.  Recurrences ("iterate
the relation finitely many times") are marches, all run by :func:`_march`:
outward from the base values, ascending first, then descending.  Every
step names its target and the origin of the defining relator, so a
missing relator fails loudly with the phase that broke.  The observer
given to a script is fixed on the presentation when it is built.

Window bookkeeping: parameters are instantiated over ``[-M, M]``; letters
reach at most two steps past the window, and eliminations sweep exactly
the range their defining relators cover, so leftover generators hug the
boundary and never enter interior verdicts (see :data:`~.tietze.MARGIN`).
"""

from __future__ import annotations

from .derived import raw_derived, simplified_derived, simplified_families
from .schemas import PresentationSchema, RelatorMatch, instance_set, match_relators
from .tietze import MARGIN, TruncatedPresentation, origin_of
from .words import Gen, word


def _o(label: str, **bindings):
    return origin_of(label, bindings)


def _window(M: int):
    return range(-M, M + 1)


def _march(p: TruncatedPresentation, step: str, target, via, up,
           up_shift: int = -1, down_shift: int = 0) -> None:
    """Eliminate ``target(x)`` for x in ``up`` via ``via(x + up_shift)``, then
    for x = -1, ..., -M via ``via(x + down_shift)``.  Marching outward keeps
    every defining relator resting on generators already solved nearer the
    base values."""
    for x in up:
        p.eliminate(target(x), via(x + up_shift), step=step)
    for x in range(-1, -p.window - 1, -1):
        p.eliminate(target(x), via(x + down_shift), step=step)


def _sweep(p: TruncatedPresentation, step: str, moves) -> None:
    """Eliminate each ``(target, via)`` pair in order."""
    for target, via in moves:
        p.eliminate(target, via, step=step)


# ---------------------------------------------------------------------------
# simplification of the raw rewritten presentations


def _simplify_start(group: str, n: int, M: int, callback=None) -> TruncatedPresentation:
    raw = raw_derived(group, n)
    # widen the alphabet with the renamed families a[j], b[m,j] so interior
    # tests understand renamed generators
    families = raw.families + simplified_families(group, n)[2:]
    start = PresentationSchema(raw.name, n, families, raw.relators)
    p = TruncatedPresentation.from_schema(start, M, name=f"simplify-{group.lower()}-n{n}")
    # the widened families must not pre-populate generators that only the
    # final renaming introduces
    p.gens = {g for g in p.gens if len(g[1]) == 3}
    p.callback = callback
    if callback is not None:
        callback({"kind": "start", "presentation": p})
    return p


def simplify(group: str, n: int, M: int, callback=None) -> TruncatedPresentation:
    """Collapse the raw presentation onto the two-parameter one."""
    p = _simplify_start(group, n, M, callback=callback)
    W = _window(M)
    # companion level-1 generators are trivial pairs
    _sweep(p, "kill b level-1",
           ((("b", (m, k, 1)), _o("triv_b", m=m, k=k)) for m in W for k in W))
    # b[m,k,j] with j >= 3 does not depend on k
    for j in range(3, n):
        for m in W:
            _march(p, f"b k-collapse j={j}", lambda k: ("b", (m, k, j)),
                   lambda k: _o("rw_comm_rr", m=m, k=k, i=1, j=j), range(1, M + 2))
    # a[m,k,i] with i >= 3 does not depend on k
    for i in range(3, n):
        for m in W:
            _march(p, f"a k-collapse i={i}", lambda k: ("a", (m, k, i)),
                   lambda k: _o("rw_comm_sr", m=m, k=k, i=i, j=1), range(1, M + 2))
    # at level k=0 the crossing commutations collapse the m direction too;
    # the edge at m = M would need a trivial letter one step past the
    # window, so the march stops at m = M and a[M+1,0,j] stays boundary junk
    level0 = {("a", (t, 0, 1)) for t in range(-M - 2, M + 3)}
    for j in range(3, n):
        for m in range(-M, M):
            p.derive_collapsed(_o("rw_comm_ss", m=m, k=0, i=1, j=j), level0,
                               _o("edge_a", m=m, j=j), step=f"derive a m-edge j={j}")
        _march(p, f"a m-collapse j={j}", lambda m: ("a", (m, 0, j)),
               lambda m: _o("edge_a", m=m, j=j), range(1, M + 1))
    if group == "SG":
        # the same-strand mixed relation kills the whole a level-1 family
        for m in W:
            _march(p, "a level-1 k-collapse", lambda k: ("a", (m, k, 1)),
                   lambda k: _o("rw_comm_sr_eq", m=m, k=k, i=1), range(1, M + 2))
        _sweep(p, "a level-1 trivial", ((("a", (m, 0, 1)), _o("triv_a", m=m)) for m in W))
    # record the renamings a[0,0,j] -> a[j], b[m,0,j] -> b[m,j]
    for j in range(3, n):
        if ("a", (0, 0, j)) in p.gens:
            p.rename(("a", (0, 0, j)), ("a", (j,)))
        for m in sorted(t for t in range(-M - 2, M + 3) if ("b", (t, 0, j)) in p.gens):
            p.rename(("b", (m, 0, j)), ("b", (m, j)))
    return p


def run_simplification_check(group: str, n: int, window: int) -> RelatorMatch:
    """Replay the collapse and compare interior relators with the stored list."""
    if window < 3:
        raise ValueError("window must be >= 3")
    p = simplify(group, n, window)
    replayed = p.interior_relator_set()
    target = simplified_derived(group, n)
    expected = instance_set(target, target.relators, window, interior=window - MARGIN)
    return match_relators(expected, replayed)


# ---------------------------------------------------------------------------
# finite generation replays


def _start(group: str, n: int, M: int, name: str, callback=None) -> TruncatedPresentation:
    return TruncatedPresentation.from_schema(simplified_derived(group, n), M,
                                             name=name, callback=callback)


def gvb4_fingen(M: int, callback=None) -> TruncatedPresentation:
    """Collapse GVB'_4 onto nine generators."""
    p = _start("GVB", 4, M, "fingen-gvb4", callback=callback)
    W = _window(M)
    level0 = {("a", (t, 0, 1)) for t in range(-M - 2, M + 3)}
    # b[m,3] marches in m once the trivial level-0 letters are deleted
    for m in W:
        p.derive_collapsed(_o("comm_sr_1j", m=m, k=0, j=3), level0,
                           _o("edge_b3", m=m), step="derive b[.,3] m-edge")
    _march(p, "b[.,3] m-collapse", lambda m: ("b", (m, 3)),
           lambda m: _o("edge_b3", m=m), range(1, M + 2))
    # the right mixed relation solves every b[m,k,2]
    _sweep(p, "solve b[m,k,2]", ((("b", (m, k, 2)), _o("mixed_r_2", m=m - 2, k=k))
                                 for k in W for m in range(-M + 2, M + 3)))
    # the companion recurrence now bounds k to {0,1,2} for a[m,k,2]
    for m in range(-M, M - 1):
        _march(p, "a[m,k,2] k-recurrence", lambda k: ("a", (m, k, 2)),
               lambda k: _o("braid_rr_1", m=m + 2, k=k), range(3, M + 2), up_shift=-3)
    # the crossing recurrence bounds m to {0,1}
    for k in (0, 1, 2):
        _march(p, "a[m,k,2] m-recurrence", lambda m: ("a", (m, k, 2)),
               lambda m: _o("braid_ss_2", m=m, k=k), range(2, M + 3), up_shift=-2)
    # a[m,k,1] is conjugate to a[0,k,1]
    for k in W:
        _march(p, "a[m,k,1] conjugation", lambda m: ("a", (m, k, 1)),
               lambda m: _o("comm_ss_1j", m=m, k=k, j=3), range(1, M + 2))
    # the left mixed relation expresses a[0,k,1] from levels 0 and 1
    _march(p, "a[0,k,1] recurrence", lambda k: ("a", (0, k, 1)),
           lambda k: _o("mixed_l_1", m=-1, k=k), range(2, M + 2))
    p.eliminate(("a", (0, 0, 1)), _o("triv_a", m=0), step="a[0,0,1] trivial")
    return p


def gvbn_fingen(n: int, M: int, callback=None) -> TruncatedPresentation:
    """Collapse GVB'_n, n >= 5, onto 3n-7 generators."""
    if n < 5:
        raise ValueError("this replay needs n >= 5")
    p = _start("GVB", n, M, f"fingen-gvb-n{n}", callback=callback)
    W = _window(M)
    # left mixed relation solves every b[m,k,2]
    _sweep(p, "solve b[m,k,2]", ((("b", (m, k, 2)), _o("mixed_l_1", m=m - 2, k=k))
                                 for k in W for m in range(-M + 2, M + 3)))
    # conjugation by b[.,4] collapses k for a[m,k,2]
    for m in W:
        _march(p, "a[m,k,2] k-collapse", lambda k: ("a", (m, k, 2)),
               lambda k: _o("comm_sr_2j", m=m, k=k, j=4), range(1, M + 2))
    # crossing recurrence bounds m to {0,1} at level k=0
    _march(p, "a[m,0,2] m-recurrence", lambda m: ("a", (m, 0, 2)),
           lambda m: _o("braid_ss_2", m=m, k=0), range(2, M + 3), up_shift=-2)
    # a[m,k,1] collapses to the trivial level-0 letters via b[.,3]
    for m in W:
        _march(p, "a[m,k,1] k-collapse", lambda k: ("a", (m, k, 1)),
               lambda k: _o("comm_sr_1j", m=m, k=k, j=3), range(1, M + 2))
    _sweep(p, "a[m,0,1] trivial", ((("a", (m, 0, 1)), _o("triv_a", m=m)) for m in W))
    # b[m,3] marches in m through the level-1 conjugation relators
    _march(p, "b[m,3] m-collapse", lambda m: ("b", (m, 3)),
           lambda m: _o("comm_ss_1j", m=m, k=1, j=3), range(2, M + 2), up_shift=-2)
    # and b[m,j], j >= 4, through the mixed commutations at level 0
    for j in range(4, n):
        _march(p, f"b[m,{j}] m-collapse", lambda m: ("b", (m, j)),
               lambda m: _o("comm_sr_1j", m=m, k=0, j=j), range(2, M + 2))
    return p


def sgn_fingen(n: int, M: int, callback=None) -> TruncatedPresentation:
    """Collapse SG'_n, n >= 5, onto 2n-4 generators."""
    if n < 5:
        raise ValueError("this replay needs n >= 5")
    p = _start("SG", n, M, f"fingen-sg-n{n}", callback=callback)
    W = _window(M)
    # b[m,k,2] is conjugate to b[0,k,2] by powers of a[4]
    for k in W:
        _march(p, "b[m,k,2] m-collapse", lambda m: ("b", (m, k, 2)),
               lambda m: _o("comm_sr_j2", m=m, k=k, i=4), range(1, M + 2))
    # b[0,k,2] is conjugate to b[0,0,2] by powers of b[0,4]
    _march(p, "b[0,k,2] k-collapse", lambda k: ("b", (0, k, 2)),
           lambda k: _o("comm_rr_2j", m=0, k=k, j=4), range(1, M + 2))
    # b[m,j] does not depend on m
    for j in range(3, n):
        _march(p, f"b[m,{j}] m-collapse", lambda m: ("b", (m, j)),
               lambda m: _o("comm_sr_1j", m=m, j=j), range(1, M + 2))
    # conjugation by b[0,4] collapses k for a[m,k,2]
    for m in W:
        _march(p, "a[m,k,2] k-collapse", lambda k: ("a", (m, k, 2)),
               lambda k: _o("comm_sr_2j", m=m, k=k, j=4), range(1, M + 2))
    # two-term recurrence bounds m to {0,1} at level k=0
    _march(p, "a[m,0,2] m-recurrence", lambda m: ("a", (m, 0, 2)),
           lambda m: _o("braid_ss_1", m=m, k=0), range(2, M + 3), up_shift=-2)
    # the surviving b[0,0,2] is itself redundant
    p.eliminate(("b", (0, 0, 2)), _o("mixed_r_1", m=0, k=0), step="solve b[0,0,2]")
    return p


# ---------------------------------------------------------------------------
# quotient replays for the rank-growth certificates


def gvb3_quotient_chain(M: int, callback=None) -> TruncatedPresentation:
    """Two successive quotients of GVB'_3 ending in a free presentation."""
    p = _start("GVB", 3, M, "gvb3-free-quotient", callback=callback)
    W = _window(M)
    # solve b[m,k,2] from the right mixed relation
    _sweep(p, "solve b[m,k,2]",
           ((("b", (m, k, 2)), _o("mixed_r_1", m=m, k=k)) for m in W for k in W))
    # quotient 1: force a[m,k,1] a[m+1,k,2] = 1
    p.add_relators(
        [(word((("a", (m, k, 1)), 1), (("a", (m + 1, k, 2)), 1)), _o("w", m=m, k=k))
         for m in W for k in W])
    _sweep(p, "kill a[m,k,2] mod W",
           ((("a", (m + 1, k, 2)), _o("w", m=m, k=k)) for k in W for m in W))
    # quotient 2: force a[m+1,k,1] = a[m-1,k,1]
    p.add_relators(
        [(word((("a", (m + 1, k, 1)), -1), (("a", (m - 1, k, 1)), 1)), _o("v", m=m, k=k))
         for m in W for k in W])
    for k in W:
        _march(p, "a[m,k,1] two-step collapse", lambda m: ("a", (m, k, 1)),
               lambda m: _o("v", m=m, k=k), range(2, M + 2), down_shift=1)
    # a[1,k,1] inverts to a[0,k,1]
    _sweep(p, "a[1,k,1] inversion",
           ((("a", (1, k, 1)), _o("braid_ss_1", m=0, k=k)) for k in W))
    p.eliminate(("a", (0, 0, 1)), _o("triv_a", m=0), step="a[0,0,1] trivial")
    return p


def sg3_beta_elimination(M: int, callback=None) -> TruncatedPresentation:
    """Eliminate b[m,k,2] from SG'_3 and bound m by the two-term recurrence."""
    p = _start("SG", 3, M, "sg3-abelianization", callback=callback)
    W = _window(M)
    _sweep(p, "solve b[m,k,2]",
           ((("b", (m, k, 2)), _o("mixed_r_1", m=m, k=k)) for m in W for k in W))
    for k in W:
        _march(p, "a[m,k,2] m-recurrence", lambda m: ("a", (m, k, 2)),
               lambda m: _o("braid_ss_1", m=m, k=k), range(2, M + 3), up_shift=-2)
    return p


# ---------------------------------------------------------------------------
# registry


def _run_simplify(group, n):
    def run(M, callback=None):
        return simplify(group, n, M, callback=callback)
    return run


SCRIPTS = {
    "fingen-gvb4": lambda M, callback=None: gvb4_fingen(M, callback=callback),
    "fingen-gvb-n5": lambda M, callback=None: gvbn_fingen(5, M, callback=callback),
    "fingen-gvb-n6": lambda M, callback=None: gvbn_fingen(6, M, callback=callback),
    "fingen-sg-n5": lambda M, callback=None: sgn_fingen(5, M, callback=callback),
    "fingen-sg-n6": lambda M, callback=None: sgn_fingen(6, M, callback=callback),
    "gvb3-free-quotient": lambda M, callback=None: gvb3_quotient_chain(M, callback=callback),
    "sg3-abelianization": lambda M, callback=None: sg3_beta_elimination(M, callback=callback),
}
for _g in ("GVB", "SG"):
    for _n in (3, 4, 5, 6):
        SCRIPTS[f"simplify-{_g.lower()}-n{_n}"] = _run_simplify(_g, _n)


def expected_fingen_survivors(group: str, n: int) -> set[Gen]:
    """The advertised finite generating sets of the collapse replays."""
    if group == "GVB" and n == 4:
        return {("a", (m, k, 2)) for m in (0, 1) for k in (0, 1, 2)} | {
            ("a", (3,)), ("b", (0, 3)), ("a", (0, 1, 1))}
    if group == "GVB":
        return ({("a", (0, 0, 2)), ("a", (1, 0, 2))}
                | {("a", (j,)) for j in range(3, n)}
                | {("b", (m, j)) for m in (0, 1) for j in range(3, n)})
    if group == "SG":
        return ({("a", (0, 0, 2)), ("a", (1, 0, 2))}
                | {("a", (j,)) for j in range(3, n)}
                | {("b", (0, j)) for j in range(3, n)})
    raise KeyError(group)
