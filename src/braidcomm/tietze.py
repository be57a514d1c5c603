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
existing relator with letters deleted whose generators carry a named
one-letter relator; the copy is a product of conjugates of present
relators, so the group is unchanged).

``from_schema`` inserts the instances in one inline loop; ``_insert``
is the insert of ``add_relators`` and ``derive_collapsed``.  Given
``keep``, it inserts only the instances with those origins, but still
enumerates every instance: the generators of a pruned start, and the
counts on its ``start`` line, are the full truncation's, so it differs
from the full start only in the relators it leaves out.  A kept instance
gets its id in the full start, so every relator a pruned run holds has
the full route's id.  The enumerator builds a word only for a kept
instance.  An unkept one yields only the generators of its word that
``gens_in_window`` may miss, those that may lie outside the window, and
only when one does, so most yield none.  One
:class:`~.schemas.SharedValues` table serves all of its schemas and is
dropped when the build ends, so the start's relators hold one object per
distinct letter, generator and binding pair.  ``rename`` rebuilds only
the runs of the renamed generator, and ``substitute`` copies untouched
runs, so the letters a move does not touch stay shared.  Equality and
hashing stay value-based; nothing depends on which object holds a value.

A move reads only relators it names; it changes every other relator by a
substitution (``eliminate``) or a relabelling (``rename``), both
free-group endomorphisms followed by free reduction.  Free reduction
commutes with endomorphisms, so the full route's relators on a pruned
start are ``all_relators() = closure(unread_relators())``:
``unread_relators()`` enumerates the start again for the words of the
unkept instances, and ``closure`` applies the composite of the moves once
to each of them; ``all_relators()`` streams them, so each start word is
dropped once substituted.  A relator some substitution empties is dropped
there, as ``eliminate`` drops it; an untouched one stays as it was.  The
presentation keeps nothing between calls; an observer that closes the
same start words more than once (the audit, at ``start`` and at
``finish``) holds them itself, for as long as it needs them.

Every move appends one transcript record holding the words it built;
``transcript`` and ``transcript_text()`` render the records as lines when
read, so a caller that never reads them formats nothing.  A render formats
each distinct generator once, through a table it drops when it returns,
and each letter from its generator's text.  Replays are deterministic, so
transcripts are reproducible byte for byte.  An observer ``callback``,
fixed when the presentation is built, sees one event per move before it
applies, naming only the relators the presentation holds; on a pruned
start, the ``start`` event's ``unread_relators()`` give it the other
relators of the full start.

The generator index is a superset: ``_gen_index[g]`` lists every live
relator in which ``g`` occurs, and may also list removed ids and ids whose
last ``g`` cancelled at a seam.  No move scans a rewritten word to keep it:
``eliminate`` adds the rewritten ids under the generators of the expression
and drops the target's entry.  Every reader filters against the words:
``eliminate`` keeps only candidates that ``substitute`` changes, and
``rename`` keeps only live ids whose word contains the generator.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from operator import itemgetter

# enumerate_bindings is unused here; perfbench/tracing.py patches this name
from .schemas import PresentationSchema, SharedValues, enumerate_bindings, instances  # noqa: F401
from .words import (
    EMPTY,
    Gen,
    Word,
    _join,
    _Texts,
    canonical_cyclic,
    fmt_gen,
    invert,
    substitute,
    substitute_all,
)

# a relator's origin: its schema's label and the (parameter, value) pairs
# of its binding, sorted by parameter, as ``schemas.instances`` yields them
Origin = tuple

# verdicts read only window coordinates in [-M+MARGIN, M-MARGIN]
MARGIN = 2


class ReplayError(RuntimeError):
    """A scripted step could not be performed; the message names the step."""


# how each kind of transcript record renders as a line, given the _Texts
# table of the render
_LINES = {
    "start": lambda t, name, window, gens, relators: (
        f"start {name} window {window}: {gens} generators, {relators} relators"),
    "eliminate": lambda t, target, w, expression: (
        f"eliminate {t[target]} via {t.word(w)} := {t.word(expression)}"),
    "adjoin": lambda t, w: f"adjoin {t.word(w)}",
    "absorb": lambda t, w, note: f"absorb {t.word(w)} ({note})",
    "rename": lambda t, old, new: f"rename {t[old]} -> {t[new]}",
    "derive": lambda t, new, w, used: (
        f"derive {t.word(new)} from {t.word(w)} deleting {{{', '.join(map(t.__getitem__, used))}}}"),
}


def _kept_values(schema: PresentationSchema, keep) -> dict[str, set[tuple]]:
    """For each label of ``schema``, the binding values of its origins in
    ``keep``, ordered like the sorted binding items that
    :func:`~.schemas.instances` yields."""
    names = {rel.label: tuple(sorted(rel.params)) for rel in schema.relators}
    kept: dict[str, set[tuple]] = {label: set() for label in names}
    for label, items in keep:
        params, values = zip(*items) if items else ((), ())
        if names.get(label) == params:
            kept[label].add(values)
    return kept


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
        self._records: list[tuple] = []  # (kind, *values), rendered by _LINES
        self.callback = callback
        # a pruned start's schema, and one byte per start instance: 1 if kept
        self._pruned: tuple[PresentationSchema, bytearray] | None = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_schema(cls, schema: PresentationSchema, window: int, name: str = "",
                    callback=None, keep=None) -> "TruncatedPresentation":
        """Every instance over the window, or only those whose origin is in
        ``keep``.  Either way the generators and the ``start`` counts are the
        full truncation's: the window's generators and every instance's.  An
        instance outside ``keep`` is enumerated and counted, but the
        enumerator builds no word for it: it yields the generators of its
        word that may lie outside the window if one of them does, and an
        empty tuple, skipped here, otherwise; ``gens_in_window`` adds the
        rest.  Each kept instance is inserted inline, as ``_insert`` would,
        under the id it has in the full start, its position in the
        enumeration, so later relators get the full route's ids too; the
        kept words' generators are read off the index keys once."""
        p = cls(schema, window, name, callback)
        shared = SharedValues()  # one table for all schemas, dropped with the build
        kept = None if keep is None else _kept_values(schema, keep)
        relators, origins, by_origin, index = p.relators, p.origins, p._by_origin, p._gen_index
        outside: set = set()  # generators the unkept instances yield
        count = 0
        for rel in schema.relators:
            label = rel.label
            # each label's kept values are dropped once its instances are read
            for items, w in instances(schema, rel, window, shared,
                                      None if kept is None else kept.pop(label)):
                if items is None:
                    if w:
                        outside.update(w)
                else:  # _insert, inline
                    relators[count] = w
                    origins[count] = origin = (label, items)
                    by_origin[origin] = count
                    for g, _ in w.letters:  # a generator seldom repeats in a start word
                        ids = index.get(g)
                        if ids is None:
                            index[g] = {count}
                        else:
                            ids.add(count)
                count += 1
        p._next_id = count
        if keep is not None:
            mask = bytearray(count)
            for rid in p.relators:
                mask[rid] = 1
            p._pruned = (schema, mask)
        # the index keys first, so that p.gens holds the shared generators
        p.gens.update(index)
        p.gens.update(outside)
        p.gens.update(p.alphabet.gens_in_window(window))
        p._records.append(("start", p.name, window, len(p.gens), count))
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

    def interior(self) -> set[Gen]:
        """Generators whose window coordinates all lie in [-M+MARGIN, M-MARGIN]."""
        bound = self.window - MARGIN
        if bound < 0:
            return set()
        return set(filter(self.alphabet.window_test(bound), self.gens))

    def all_relators(self) -> dict[int, Word]:
        """Every relator of the presentation, by ascending id, as the full
        route holds it: ``closure(unread_relators())``.  On a full start
        these are the held relators."""
        return self.closure(self.unread_relators())

    def unread_relators(self) -> Iterator[tuple[int, Word]]:
        """Yield (id, start word) for each instance a pruned start left
        out, by ascending id, from one enumeration of its instances;
        nothing on a full start."""
        if self._pruned is None:
            return
        schema, mask = self._pruned
        rid = 0
        shared = SharedValues()
        for rel in schema.relators:
            for _, w in instances(schema, rel, self.window, shared):
                if not mask[rid]:
                    yield rid, w
                rid += 1

    def closure(self, unread: Iterable[tuple[int, Word]]) -> dict[int, Word]:
        """The held relators and the image of each ``unread`` (id, start
        word) under the composite of the moves, by ascending id, unless a
        move emptied it; see the module docstring.  It keeps no start word
        past its substitution.  On a full start these are the held
        relators."""
        if self._pruned is None:
            return self.relators
        out = dict(self.relators)
        images = self._composite()
        for rid, w in unread:
            image = substitute_all(w, images) if images else w
            if image is w or image:  # the full route drops an emptied relator
                out[rid] = image
        return dict(sorted(out.items()))

    def _composite(self) -> dict[Gen, tuple[Word, Word]]:
        """The image of each generator the moves replace, under all of the
        moves, paired with its inverse for ``substitute_all``: walking the
        records backwards, ``eliminate t := E`` maps t to the image of E,
        and ``rename old -> new`` maps old to that of new."""
        images: dict[Gen, tuple[Word, Word]] = {}
        for kind, *values in reversed(self._records):
            if kind == "eliminate":
                target, _, expression = values
                image = substitute_all(expression, images)
                images[target] = (image, invert(image))
            elif kind == "rename":
                old, new = values
                pair = images.get(new)
                if pair is None:
                    pair = (Word._make(((new, 1),)), Word._make(((new, -1),)))
                images[old] = pair
        return images

    def interior_relator_set(self) -> set[Word]:
        inside = self.alphabet.window_test(self.window - MARGIN)
        # many relators repeat a word; each distinct one is canonized once
        words = {w for w in self.all_relators().values()
                 if w and all(map(inside, map(itemgetter(0), w.letters)))}
        return set(map(canonical_cyclic, words))

    # -- moves ---------------------------------------------------------------

    def eliminate(self, target: Gen, via: Origin, step: str = "") -> Word:
        """Remove ``target`` using the relator with the given origin.

        The occurrence must be isolating: exactly one run, exponent +-1.
        Returns the solved expression.
        """
        rid, w = self.current(via, step)
        if target not in self.gens:
            raise ReplayError(f"{step}: generator {fmt_gen(target)} not present")
        column = [g for g, _ in w.letters]
        pos = column.index(target) if column.count(target) == 1 else None
        if pos is None or abs(w.letters[pos][1]) != 1:
            raise ReplayError(
                f"{step}: occurrence of {fmt_gen(target)} in {w} is not isolating"
            )
        sign = w.letters[pos][1]
        # the letters after the target, then those before it, joined at the seam
        solved = list(w.letters[pos + 1:])
        _join(solved, w.letters[:pos])
        forward = Word._make(tuple(solved))
        backward = Word._make(tuple((g, -e) for g, e in reversed(solved)))
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
        if kept:
            for g, _ in expression.letters:
                self._gen_index[g].update(kept)
        self._gen_index.pop(target, None)
        self._remove(rid)
        self.gens.discard(target)
        self._records.append(("eliminate", target, w, expression))
        return expression

    def add_relators(self, words_with_origins) -> None:
        for w, origin in words_with_origins:
            rid = self._insert(w, origin)
            if self.callback is not None:
                self.callback({"kind": "adjoin", "word": w, "rid": rid})
            self._records.append(("adjoin", w))

    def remove_relator(self, rid: int, note: str) -> None:
        """Drop a relator shown redundant by other means; the caller is
        responsible for the justification recorded in ``note``."""
        w = self.relators[rid]
        self._remove(rid)
        self._records.append(("absorb", w, note))

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
        self._records.append(("rename", old, new))

    def derive_collapsed(self, source: Origin, doomed: dict[Gen, Origin], origin: Origin,
                         step: str = "") -> Word:
        """Adjoin a copy of ``source`` with all ``doomed`` letters deleted.

        ``doomed`` maps each generator that may be deleted to the origin of
        its one-letter relator, which makes the copy a consequence of
        present relators.  Deleting is substituting the empty word.
        """
        src_rid, w = self.current(source, step)
        used = sorted(g for g in w.generators() if g in doomed)
        trivial_rids = {}
        for g in used:
            rid, trivial = self.current(doomed[g], step)
            if trivial.letters not in (((g, 1),), ((g, -1),)):
                raise ReplayError(
                    f"{step}: cannot delete {fmt_gen(g)}; {trivial} is not a one-letter relator for it"
                )
            trivial_rids[g] = rid
        new = substitute_all(w, dict.fromkeys(used, (EMPTY, EMPTY)))
        new_rid = self._insert(new, origin)
        if self.callback is not None:
            self.callback({"kind": "derive", "source_rid": src_rid, "source_word": w,
                           "deleted": used, "trivial_rids": trivial_rids,
                           "word": new, "rid": new_rid})
        self._records.append(("derive", new, w, used))
        return new

    # -- reporting -------------------------------------------------------------

    @property
    def transcript(self) -> list[str]:
        """One line per move, rendered from its record.  Each generator is
        formatted once per render, through one :class:`_Texts` table."""
        texts = _Texts()
        return [_LINES[kind](texts, *values) for kind, *values in self._records]

    def transcript_text(self) -> str:
        return "\n".join(self.transcript) + "\n"
