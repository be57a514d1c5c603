"""Tietze moves on finite shadows of infinite presentations.

A :class:`TruncatedPresentation` instantiates every relator schema with
its window parameters in ``[-M, M]``.  Letters may reference indices a
little outside the window (relators reach two steps past it); generators
within :data:`MARGIN` of the window edge are never part of any verdict, so
the truncation stays honest about boundary effects.

Only two group-changing moves exist:

* ``eliminate`` -- remove a generator that occurs exactly once, with
  exponent +-1, in some relator; substitute its solved expression
  everywhere.  This is the only kind of simplification the replayed
  arguments ever need, and it is sound without a word-problem oracle.
* ``add_relators`` -- adjoin relators, i.e. pass to a quotient group.

Two presentation-preserving moves support them: ``rename`` (bijective
relabelling of a generator) and ``derive_collapsed`` (adjoin a copy of an
existing relator with letters deleted whose generators carry a visible
one-letter relator; the copy is a product of conjugates of present
relators, so the group is unchanged).

``from_schema`` inserts the instances one by one with ``_insert``, as
``add_relators`` and ``derive_collapsed`` do.  One
:class:`~.schemas.SharedValues` table serves all of its schemas and is
dropped when the build ends, so the start holds one object per distinct
letter, generator and binding pair.  ``rename`` rebuilds only the runs of
the renamed generator, and ``substitute`` copies untouched runs, so the
letters a move does not touch stay shared.  Equality and hashing stay
value-based; nothing depends on which object holds a value.

Every move appends one transcript line; replays are deterministic, so
transcripts are reproducible byte for byte.  An observer ``callback``, fixed
when the presentation is built, sees one event per move before it applies.

The generator index is a superset: ``_gen_index[g]`` lists every live
relator in which ``g`` occurs, and may also list removed ids and ids whose
last ``g`` cancelled at a seam.  No move scans a rewritten word to keep it:
``eliminate`` adds the rewritten ids under the generators of the expression
and drops the target's entry.  Every reader filters against the words:
``eliminate`` keeps only candidates that ``substitute`` changes, and
``rename`` and ``single_letter_relator`` keep only live ids whose word
contains the generator.
"""

from __future__ import annotations

from operator import itemgetter

# enumerate_bindings is unused here; perfbench/tracing.py patches this name
from .schemas import PresentationSchema, SharedValues, enumerate_bindings, instances  # noqa: F401
from .words import (
    EMPTY,
    Gen,
    Word,
    canonical_cyclic,
    delete_generators,
    fmt_gen,
    invert,
    substitute,
)

Origin = tuple

# verdicts read only window coordinates in [-M+MARGIN, M-MARGIN]
MARGIN = 2


class ReplayError(RuntimeError):
    """A scripted step could not be performed; the message names the step."""


def origin_of(label: str, bindings: dict[str, int]) -> Origin:
    return (label, tuple(sorted(bindings.items())))


class TruncatedPresentation:
    def __init__(self, schema: PresentationSchema, window: int, name: str = "",
                 callback=None):
        self.alphabet = schema.alphabet()
        self.window = window
        self.name = name or schema.name
        self.gens: set[Gen] = set()
        self.relators: dict[int, Word] = {}
        self.origins: dict[int, Origin] = {}
        self._by_origin: dict[Origin, int] = {}
        self._gen_index: dict[Gen, set[int]] = {}
        self._next_id = 0
        self.transcript: list[str] = []
        self.callback = callback

    # -- construction -----------------------------------------------------

    @classmethod
    def from_schema(cls, schema: PresentationSchema, window: int, name: str = "",
                    callback=None) -> "TruncatedPresentation":
        p = cls(schema, window, name, callback)
        shared = SharedValues()  # one table for all schemas, dropped with the build
        for rel in schema.relators:
            for items, w in instances(schema, rel, window, shared):
                p._insert(w, (rel.label, items))
        # after the inserts, so that p.gens holds the shared generators
        p.gens.update(p.alphabet.gens_in_window(window))
        p.transcript.append(
            f"start {p.name} window {window}: {len(p.gens)} generators, {len(p.relators)} relators"
        )
        if callback is not None:
            callback({"kind": "start", "presentation": p})
        return p

    def _insert(self, w: Word, origin: Origin) -> int:
        rid = self._next_id
        self._next_id += 1
        self.relators[rid] = w
        self.origins[rid] = origin
        self._by_origin[origin] = rid
        gens = w.generators()
        index = self._gen_index
        for g in gens:
            ids = index.get(g)
            if ids is None:
                index[g] = {rid}
            else:
                ids.add(rid)
        self.gens.update(gens)
        return rid

    def _remove(self, rid: int) -> None:
        del self.relators[rid]
        self._by_origin.pop(self.origins.pop(rid), None)

    # -- queries -----------------------------------------------------------

    def current(self, origin: Origin, step: str = "") -> tuple[int, Word]:
        rid = self._by_origin.get(origin)
        if rid is None:
            raise ReplayError(f"{step or self.name}: relator {origin} is no longer present")
        return rid, self.relators[rid]

    def _live_with(self, g: Gen):
        """Ids of the live relators in which ``g`` occurs, in ascending order."""
        relators = self.relators
        for rid in sorted(self._gen_index.get(g, ())):
            w = relators.get(rid)
            if w is not None and g in map(itemgetter(0), w.letters):
                yield rid

    def single_letter_relator(self, g: Gen) -> int | None:
        for rid in self._live_with(g):
            letters = self.relators[rid].letters
            if len(letters) == 1 and abs(letters[0][1]) == 1:
                return rid
        return None

    def interior(self) -> set[Gen]:
        """Generators whose window coordinates all lie in [-M+MARGIN, M-MARGIN]."""
        bound = self.window - MARGIN
        if bound < 0:
            return set()
        return {g for g in self.gens if self.alphabet.within_window(g, bound)}

    def interior_relator_set(self) -> set[Word]:
        bound = self.window - MARGIN
        within = self.alphabet.within_window
        return {canonical_cyclic(w) for w in self.relators.values()
                if w and all(within(g, bound) for g, _ in w.letters)}

    # -- moves ---------------------------------------------------------------

    def eliminate(self, target: Gen, via: Origin, step: str = "") -> Word:
        """Remove ``target`` using the relator with the given origin.

        The occurrence must be isolating: exactly one run, exponent +-1.
        Returns the solved expression.
        """
        if target not in self.gens:
            raise ReplayError(f"{step}: generator {fmt_gen(target)} not present")
        rid, w = self.current(via, step)
        column = [g for g, _ in w.letters]
        pos = column.index(target) if column.count(target) == 1 else None
        if pos is None or abs(w.letters[pos][1]) != 1:
            raise ReplayError(
                f"{step}: occurrence of {fmt_gen(target)} in {w} is not isolating"
            )
        sign = w.letters[pos][1]
        before = Word._make(w.letters[:pos])
        after = Word._make(w.letters[pos + 1:])
        forward = after * before
        backward = invert(before) * invert(after)
        expression, inverse = (backward, forward) if sign == 1 else (forward, backward)
        relators = self.relators
        touched = []
        for rid2 in sorted(self._gen_index.get(target, ())):
            old = relators.get(rid2)
            if old is None or rid2 == rid:
                continue
            new = substitute(old, target, expression, inverse)
            if new is not old:
                touched.append((rid2, old, new))
        if self.callback is not None:
            self.callback({
                "kind": "eliminate",
                "target": target,
                "defining_rid": rid,
                "defining": w,
                "sign": sign,
                "expression": expression,
                "touched": touched,
            })
        kept = []
        for rid2, _, new in touched:
            if new.letters:
                relators[rid2] = new
                kept.append(rid2)
            else:
                self._remove(rid2)
        for g in expression.generators():
            self._gen_index[g].update(kept)
        self._gen_index.pop(target, None)
        self._remove(rid)
        self.gens.discard(target)
        self.transcript.append(f"eliminate {fmt_gen(target)} via {w} := {expression}")
        return expression

    def add_relators(self, words_with_origins, note: str = "adjoin") -> None:
        for w, origin in words_with_origins:
            rid = self._insert(w, origin)
            if self.callback is not None:
                self.callback({"kind": "adjoin", "word": w, "rid": rid})
            self.transcript.append(f"{note} {w}")

    def remove_relator(self, rid: int, note: str) -> None:
        """Drop a relator shown redundant by other means; the caller is
        responsible for the justification recorded in ``note``."""
        w = self.relators[rid]
        self._remove(rid)
        self.transcript.append(f"absorb {w} ({note})")

    def rename(self, old: Gen, new: Gen) -> None:
        if old not in self.gens:
            raise ReplayError(f"rename: generator {fmt_gen(old)} not present")
        if new in self.gens:
            raise ReplayError(f"rename: generator {fmt_gen(new)} already present")
        if self.callback is not None:
            self.callback({"kind": "rename", "old": old, "new": new})
        ids = set(self._live_with(old))
        for rid in ids:
            self.relators[rid] = Word._make(tuple(
                (new, x[1]) if x[0] == old else x for x in self.relators[rid].letters
            ))
        self._gen_index.pop(old, None)
        self._gen_index[new] = ids
        self.gens.discard(old)
        self.gens.add(new)
        self.transcript.append(f"rename {fmt_gen(old)} -> {fmt_gen(new)}")

    def derive_collapsed(self, source: Origin, doomed, origin: Origin, step: str = "") -> Word:
        """Adjoin a copy of ``source`` with all ``doomed`` letters deleted.

        Each doomed generator must carry a one-letter relator, which makes
        the copy a consequence of present relators.
        """
        src_rid, w = self.current(source, step)
        used = sorted(g for g in w.generators() if g in doomed)
        trivial_rids = {}
        for g in used:
            rid = self.single_letter_relator(g)
            if rid is None:
                raise ReplayError(
                    f"{step}: cannot delete {fmt_gen(g)}; no one-letter relator for it"
                )
            trivial_rids[g] = rid
        new = delete_generators(w, set(used))
        new_rid = self._insert(new, origin)
        if self.callback is not None:
            self.callback({"kind": "derive", "source_rid": src_rid, "source_word": w,
                           "deleted": used, "trivial_rids": trivial_rids,
                           "word": new, "rid": new_rid})
        self.transcript.append(
            f"derive {new if new else EMPTY} from {w} deleting {{{', '.join(fmt_gen(g) for g in used)}}}"
        )
        return new

    # -- reporting -------------------------------------------------------------

    def transcript_text(self) -> str:
        return "\n".join(self.transcript) + "\n"
