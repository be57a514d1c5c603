"""Scripted elimination replays on truncated presentations.

Each script is a generator of move records, fixed by its window before
the run starts: :class:`Eliminate`, :class:`Derive`, :class:`Adjoin` and
:class:`Rename`.  One runner, :func:`_run`, applies them in order to a
:class:`TruncatedPresentation`.  Scripts are deterministic sequences of
named phases: sweeps that eliminate a grid of generators, marches,
derives, adjoins and renames.  Recurrences ("iterate the relation finitely
many times") are marches, all generated by :func:`_march`: outward from
the base values, ascending first, then descending.  Every move names its
target and the origins of the relators it reads, so a missing relator
fails loudly with the phase that broke.  The observer given to a script is
fixed on the presentation when it is built.

A script reads only the relators its moves name: every ``via``, every
derive source and the one-letter relators a derive deletes with.  Every
run starts from those instances alone, over the full truncation's
generators (``simplify``'s renames test which generators are present);
:func:`_moves_and_keep` derives that set for every script.
Each move reads and rewrites the kept relators exactly as it does on the
full start, so the whole transcript, ``start`` line included, and the
surviving generators are the same; only the relators no move reads are
missing, and ``TruncatedPresentation.all_relators()`` brings them back,
carried through the composite of the moves, for the callers that read
the final relators: ``relator-list`` and the quotient certificates.
``braidcomm replay`` and the ``fingen`` verdicts never ask for them.  An
observer (the audit) sees the ``start`` event and one event per move, each
naming only the kept relators it touches; it reads the unkept ones once,
from the ``start`` presentation's ``unread_relators()``.  The kept relators
are a subset of the full ones, so the group they present surjects onto
the full truncation, generator to generator: a generator expressed
through the survivors there is expressed through them in the full group
too.

Window bookkeeping: parameters are instantiated over ``[-M, M]``; letters
reach at most two steps past the window, and eliminations sweep exactly
the range their defining relators cover, so leftover generators hug the
boundary and never enter interior verdicts (see :data:`~.tietze.MARGIN`).
"""

from __future__ import annotations

from typing import NamedTuple

from .derived import raw_derived, simplified_derived, simplified_families
from .schemas import PresentationSchema, RelatorMatch, instance_set, match_relators
from .tietze import MARGIN, Origin, TruncatedPresentation
from .words import Gen, normalize


def _o(label: str, *pairs) -> Origin:
    """The origin ``(label, pairs)``, built without a sort: ``pairs`` are
    the ``(parameter, value)`` pairs in parameter order."""
    return (label, pairs)


def _window(M: int):
    return range(-M, M + 1)


# ---------------------------------------------------------------------------
# move records and the runner


class Eliminate(NamedTuple):
    target: Gen
    via: Origin
    step: str

    def reads(self):
        return (self.via,)

    def apply(self, p: TruncatedPresentation) -> None:
        p.eliminate(self.target, self.via, step=self.step)


class Derive(NamedTuple):
    """Adjoin ``source`` with its ``doomed`` letters deleted; ``doomed``
    maps each generator to the origin of its one-letter relator."""

    source: Origin
    doomed: dict[Gen, Origin]
    origin: Origin
    step: str

    def reads(self):
        return (self.source, *self.doomed.values())

    def apply(self, p: TruncatedPresentation) -> None:
        p.derive_collapsed(self.source, self.doomed, self.origin, step=self.step)


class Adjoin(NamedTuple):
    """Pass to a quotient: adjoin ``(word, origin)`` pairs."""

    relators: list

    def reads(self):
        return ()

    def apply(self, p: TruncatedPresentation) -> None:
        p.add_relators(self.relators)


class Rename(NamedTuple):
    """Rename ``old`` to ``new`` if ``old`` is present: which boundary
    generators outlive a collapse depends on how far its letters reach."""

    old: Gen
    new: Gen

    def reads(self):
        return ()

    def apply(self, p: TruncatedPresentation) -> None:
        if self.old in p.gens:
            p.rename(self.old, self.new)


def _run(p: TruncatedPresentation, moves) -> TruncatedPresentation:
    for move in moves:
        move.apply(p)
    return p


def _moves_and_keep(moves):
    """``(moves, keep)``: the moves as a list and the origins they read,
    for a pruned start."""
    moves = list(moves)
    return moves, {origin for move in moves for origin in move.reads()}


def _march(M: int, step: str, target, via, up, up_shift: int = -1, down_shift: int = 0):
    """Eliminate ``target(x)`` for x in ``up`` via ``via(x + up_shift)``, then
    for x = -1, ..., -M via ``via(x + down_shift)``.  Marching outward keeps
    every defining relator resting on generators already solved nearer the
    base values."""
    for x in up:
        yield Eliminate(target(x), via(x + up_shift), step)
    for x in range(-1, -M - 1, -1):
        yield Eliminate(target(x), via(x + down_shift), step)


def _sweep(step: str, pairs):
    """Eliminate each ``(target, via)`` pair in order."""
    for target, via in pairs:
        yield Eliminate(target, via, step)


def _trivial_level0(M: int) -> dict[Gen, Origin]:
    """The level-0 letters a[t,0,1] with their one-letter relators."""
    return {("a", (t, 0, 1)): _o("triv_a", ("m", t)) for t in _window(M)}


# ---------------------------------------------------------------------------
# simplification of the raw rewritten presentations


def _simplify_start(group: str, n: int, M: int, callback, keep) -> TruncatedPresentation:
    raw = raw_derived(group, n)
    # widen the alphabet with the renamed families a[j], b[m,j] so interior
    # tests understand renamed generators
    families = raw.families + simplified_families(group, n)[2:]
    start = PresentationSchema(raw.name, n, families, raw.relators)
    p = TruncatedPresentation.from_schema(start, M, name=f"simplify-{group.lower()}-n{n}",
                                          keep=keep)
    # the widened families must not pre-populate generators that only the
    # final renaming introduces
    p.gens = {g for g in p.gens if len(g[1]) == 3}
    p.callback = callback
    if callback is not None:
        callback({"kind": "start", "presentation": p})
    return p


def _simplify_moves(group: str, n: int, M: int):
    W = _window(M)
    # companion level-1 generators are trivial pairs
    yield from _sweep("kill b level-1",
                      ((("b", (m, k, 1)), _o("triv_b", ("k", k), ("m", m))) for m in W for k in W))
    # b[m,k,j] with j >= 3 does not depend on k
    for j in range(3, n):
        for m in W:
            yield from _march(M, f"b k-collapse j={j}", lambda k: ("b", (m, k, j)),
                              lambda k: _o("rw_comm_rr", ("i", 1), ("j", j), ("k", k), ("m", m)),
                              range(1, M + 2))
    # a[m,k,i] with i >= 3 does not depend on k
    for i in range(3, n):
        for m in W:
            yield from _march(M, f"a k-collapse i={i}", lambda k: ("a", (m, k, i)),
                              lambda k: _o("rw_comm_sr", ("i", i), ("j", 1), ("k", k), ("m", m)),
                              range(1, M + 2))
    # at level k=0 the crossing commutations collapse the m direction too;
    # the edge at m = M would need a trivial letter one step past the
    # window, so the march stops at m = M and a[M+1,0,j] stays boundary junk
    level0 = _trivial_level0(M)
    for j in range(3, n):
        for m in range(-M, M):
            yield Derive(_o("rw_comm_ss", ("i", 1), ("j", j), ("k", 0), ("m", m)), level0,
                         _o("edge_a", ("j", j), ("m", m)), f"derive a m-edge j={j}")
        yield from _march(M, f"a m-collapse j={j}", lambda m: ("a", (m, 0, j)),
                          lambda m: _o("edge_a", ("j", j), ("m", m)), range(1, M + 1))
    if group == "SG":
        # the same-strand mixed relation kills the whole a level-1 family
        for m in W:
            yield from _march(M, "a level-1 k-collapse", lambda k: ("a", (m, k, 1)),
                              lambda k: _o("rw_comm_sr_eq", ("i", 1), ("k", k), ("m", m)),
                              range(1, M + 2))
        yield from _sweep("a level-1 trivial",
                          ((("a", (m, 0, 1)), _o("triv_a", ("m", m))) for m in W))
    # record the renamings a[0,0,j] -> a[j], b[m,0,j] -> b[m,j]
    for j in range(3, n):
        yield Rename(("a", (0, 0, j)), ("a", (j,)))
        for m in range(-M - 2, M + 3):
            yield Rename(("b", (m, 0, j)), ("b", (m, j)))


def simplify(group: str, n: int, M: int, callback=None) -> TruncatedPresentation:
    """Collapse the raw presentation onto the two-parameter one."""
    moves, keep = _moves_and_keep(_simplify_moves(group, n, M))
    return _run(_simplify_start(group, n, M, callback, keep), moves)


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


def _replay(group: str, n: int, M: int, name: str, moves, callback=None) -> TruncatedPresentation:
    """Run ``moves`` on the simplified presentation."""
    moves, keep = _moves_and_keep(moves)
    return _run(TruncatedPresentation.from_schema(simplified_derived(group, n), M, name=name,
                                                  callback=callback, keep=keep), moves)


def _gvb4_moves(M: int):
    W = _window(M)
    # b[m,3] marches in m once the trivial level-0 letters are deleted
    level0 = _trivial_level0(M)
    for m in W:
        yield Derive(_o("comm_sr_1j", ("j", 3), ("k", 0), ("m", m)), level0,
                     _o("edge_b3", ("m", m)), "derive b[.,3] m-edge")
    yield from _march(M, "b[.,3] m-collapse", lambda m: ("b", (m, 3)),
                      lambda m: _o("edge_b3", ("m", m)), range(1, M + 2))
    # the right mixed relation solves every b[m,k,2]
    yield from _sweep("solve b[m,k,2]",
                      ((("b", (m, k, 2)), _o("mixed_r_2", ("k", k), ("m", m - 2)))
                       for k in W for m in range(-M + 2, M + 3)))
    # the companion recurrence now bounds k to {0,1,2} for a[m,k,2]
    for m in range(-M, M - 1):
        yield from _march(M, "a[m,k,2] k-recurrence", lambda k: ("a", (m, k, 2)),
                          lambda k: _o("braid_rr_1", ("k", k), ("m", m + 2)), range(3, M + 2),
                          up_shift=-3)
    # the crossing recurrence bounds m to {0,1}
    for k in (0, 1, 2):
        yield from _march(M, "a[m,k,2] m-recurrence", lambda m: ("a", (m, k, 2)),
                          lambda m: _o("braid_ss_2", ("k", k), ("m", m)), range(2, M + 3),
                          up_shift=-2)
    # a[m,k,1] is conjugate to a[0,k,1]
    for k in W:
        yield from _march(M, "a[m,k,1] conjugation", lambda m: ("a", (m, k, 1)),
                          lambda m: _o("comm_ss_1j", ("j", 3), ("k", k), ("m", m)), range(1, M + 2))
    # the left mixed relation expresses a[0,k,1] from levels 0 and 1
    yield from _march(M, "a[0,k,1] recurrence", lambda k: ("a", (0, k, 1)),
                      lambda k: _o("mixed_l_1", ("k", k), ("m", -1)), range(2, M + 2))
    yield Eliminate(("a", (0, 0, 1)), _o("triv_a", ("m", 0)), "a[0,0,1] trivial")


def gvb4_fingen(M: int, callback=None) -> TruncatedPresentation:
    """Collapse GVB'_4 onto nine generators."""
    return _replay("GVB", 4, M, "fingen-gvb4", _gvb4_moves(M), callback)


def _gvbn_moves(n: int, M: int):
    W = _window(M)
    # left mixed relation solves every b[m,k,2]
    yield from _sweep("solve b[m,k,2]",
                      ((("b", (m, k, 2)), _o("mixed_l_1", ("k", k), ("m", m - 2)))
                       for k in W for m in range(-M + 2, M + 3)))
    # conjugation by b[.,4] collapses k for a[m,k,2]
    for m in W:
        yield from _march(M, "a[m,k,2] k-collapse", lambda k: ("a", (m, k, 2)),
                          lambda k: _o("comm_sr_2j", ("j", 4), ("k", k), ("m", m)), range(1, M + 2))
    # crossing recurrence bounds m to {0,1} at level k=0
    yield from _march(M, "a[m,0,2] m-recurrence", lambda m: ("a", (m, 0, 2)),
                      lambda m: _o("braid_ss_2", ("k", 0), ("m", m)), range(2, M + 3), up_shift=-2)
    # a[m,k,1] collapses to the trivial level-0 letters via b[.,3]
    for m in W:
        yield from _march(M, "a[m,k,1] k-collapse", lambda k: ("a", (m, k, 1)),
                          lambda k: _o("comm_sr_1j", ("j", 3), ("k", k), ("m", m)), range(1, M + 2))
    yield from _sweep("a[m,0,1] trivial", ((("a", (m, 0, 1)), _o("triv_a", ("m", m))) for m in W))
    # b[m,3] marches in m through the level-1 conjugation relators
    yield from _march(M, "b[m,3] m-collapse", lambda m: ("b", (m, 3)),
                      lambda m: _o("comm_ss_1j", ("j", 3), ("k", 1), ("m", m)), range(2, M + 2),
                      up_shift=-2)
    # and b[m,j], j >= 4, through the mixed commutations at level 0
    for j in range(4, n):
        yield from _march(M, f"b[m,{j}] m-collapse", lambda m: ("b", (m, j)),
                          lambda m: _o("comm_sr_1j", ("j", j), ("k", 0), ("m", m)), range(2, M + 2))


def gvbn_fingen(n: int, M: int, callback=None) -> TruncatedPresentation:
    """Collapse GVB'_n, n >= 5, onto 3n-7 generators."""
    if n < 5:
        raise ValueError("this replay needs n >= 5")
    return _replay("GVB", n, M, f"fingen-gvb-n{n}", _gvbn_moves(n, M), callback)


def _sgn_moves(n: int, M: int):
    W = _window(M)
    # b[m,k,2] is conjugate to b[0,k,2] by powers of a[4]
    for k in W:
        yield from _march(M, "b[m,k,2] m-collapse", lambda m: ("b", (m, k, 2)),
                          lambda m: _o("comm_sr_j2", ("i", 4), ("k", k), ("m", m)), range(1, M + 2))
    # b[0,k,2] is conjugate to b[0,0,2] by powers of b[0,4]
    yield from _march(M, "b[0,k,2] k-collapse", lambda k: ("b", (0, k, 2)),
                      lambda k: _o("comm_rr_2j", ("j", 4), ("k", k), ("m", 0)), range(1, M + 2))
    # b[m,j] does not depend on m
    for j in range(3, n):
        yield from _march(M, f"b[m,{j}] m-collapse", lambda m: ("b", (m, j)),
                          lambda m: _o("comm_sr_1j", ("j", j), ("m", m)), range(1, M + 2))
    # conjugation by b[0,4] collapses k for a[m,k,2]
    for m in W:
        yield from _march(M, "a[m,k,2] k-collapse", lambda k: ("a", (m, k, 2)),
                          lambda k: _o("comm_sr_2j", ("j", 4), ("k", k), ("m", m)), range(1, M + 2))
    # two-term recurrence bounds m to {0,1} at level k=0
    yield from _march(M, "a[m,0,2] m-recurrence", lambda m: ("a", (m, 0, 2)),
                      lambda m: _o("braid_ss_1", ("k", 0), ("m", m)), range(2, M + 3), up_shift=-2)
    # the surviving b[0,0,2] is itself redundant
    yield Eliminate(("b", (0, 0, 2)), _o("mixed_r_1", ("k", 0), ("m", 0)), "solve b[0,0,2]")


def sgn_fingen(n: int, M: int, callback=None) -> TruncatedPresentation:
    """Collapse SG'_n, n >= 5, onto 2n-4 generators."""
    if n < 5:
        raise ValueError("this replay needs n >= 5")
    return _replay("SG", n, M, f"fingen-sg-n{n}", _sgn_moves(n, M), callback)


# ---------------------------------------------------------------------------
# quotient replays for the rank-growth certificates


def _gvb3_quotient_moves(M: int):
    W = _window(M)
    # solve b[m,k,2] from the right mixed relation
    yield from _sweep("solve b[m,k,2]",
                      ((("b", (m, k, 2)), _o("mixed_r_1", ("k", k), ("m", m)))
                       for m in W for k in W))
    # quotient 1: force a[m,k,1] a[m+1,k,2] = 1
    yield Adjoin([(normalize([(("a", (m, k, 1)), 1), (("a", (m + 1, k, 2)), 1)]),
                   _o("w", ("k", k), ("m", m))) for m in W for k in W])
    yield from _sweep("kill a[m,k,2] mod W",
                      ((("a", (m + 1, k, 2)), _o("w", ("k", k), ("m", m))) for k in W for m in W))
    # quotient 2: force a[m+1,k,1] = a[m-1,k,1]
    yield Adjoin([(normalize([(("a", (m + 1, k, 1)), -1), (("a", (m - 1, k, 1)), 1)]),
                   _o("v", ("k", k), ("m", m))) for m in W for k in W])
    for k in W:
        yield from _march(M, "a[m,k,1] two-step collapse", lambda m: ("a", (m, k, 1)),
                          lambda m: _o("v", ("k", k), ("m", m)), range(2, M + 2), down_shift=1)
    # a[1,k,1] inverts to a[0,k,1]
    yield from _sweep("a[1,k,1] inversion",
                      ((("a", (1, k, 1)), _o("braid_ss_1", ("k", k), ("m", 0))) for k in W))
    yield Eliminate(("a", (0, 0, 1)), _o("triv_a", ("m", 0)), "a[0,0,1] trivial")


def gvb3_quotient_chain(M: int, callback=None) -> TruncatedPresentation:
    """Two successive quotients of GVB'_3 ending in a free presentation."""
    return _replay("GVB", 3, M, "gvb3-free-quotient", _gvb3_quotient_moves(M), callback)


def _sg3_beta_moves(M: int):
    W = _window(M)
    yield from _sweep("solve b[m,k,2]",
                      ((("b", (m, k, 2)), _o("mixed_r_1", ("k", k), ("m", m)))
                       for m in W for k in W))
    for k in W:
        yield from _march(M, "a[m,k,2] m-recurrence", lambda m: ("a", (m, k, 2)),
                          lambda m: _o("braid_ss_1", ("k", k), ("m", m)), range(2, M + 3),
                          up_shift=-2)


def sg3_beta_elimination(M: int, callback=None) -> TruncatedPresentation:
    """Eliminate b[m,k,2] from SG'_3 and bound m by the two-term recurrence."""
    return _replay("SG", 3, M, "sg3-abelianization", _sg3_beta_moves(M), callback)


# ---------------------------------------------------------------------------
# registry


def _run_simplify(group, n):
    def run(M, **kw):
        return simplify(group, n, M, **kw)
    return run


# every script takes callback=, an observer of its pruned run (see _moves_and_keep)
SCRIPTS = {
    "fingen-gvb4": lambda M, **kw: gvb4_fingen(M, **kw),
    "fingen-gvb-n5": lambda M, **kw: gvbn_fingen(5, M, **kw),
    "fingen-gvb-n6": lambda M, **kw: gvbn_fingen(6, M, **kw),
    "fingen-sg-n5": lambda M, **kw: sgn_fingen(5, M, **kw),
    "fingen-sg-n6": lambda M, **kw: sgn_fingen(6, M, **kw),
    "gvb3-free-quotient": lambda M, **kw: gvb3_quotient_chain(M, **kw),
    "sg3-abelianization": lambda M, **kw: sg3_beta_elimination(M, **kw),
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
