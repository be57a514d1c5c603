"""Tietze moves on finite shadows of infinite presentations.

A :class:`TruncatedPresentation` instantiates every relator schema with
its window parameters in ``[-M, M]``.  Letters may reference indices a
little outside the window (relators reach two steps past it); generators
within ``margin`` of the window edge are never part of any verdict, so
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

Every move appends one transcript line; replays are deterministic, so
transcripts are reproducible byte for byte.  An observer ``callback``, fixed
when the presentation is built, sees one event per move before it applies.
"""

from __future__ import annotations

from .schemas import PresentationSchema, enumerate_bindings
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


class ReplayError(RuntimeError):
    """A scripted step could not be performed; the message names the step."""


def origin_of(label: str, bindings: dict[str, int]) -> Origin:
    return (label, tuple(sorted(bindings.items())))


class TruncatedPresentation:
    def __init__(self, schema: PresentationSchema, window: int, name: str = "",
                 callback=None):
        self.schema = schema
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
        p.gens.update(p.alphabet.gens_in_window(window))
        in_domain = p.alphabet.in_domain
        for rel in schema.relators:
            for bindings in enumerate_bindings(schema, rel, window):
                w = rel.instantiate(bindings)
                if all(in_domain(g) for g, _ in w.letters):
                    p._insert(w, origin_of(rel.label, bindings))
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
        for g in gens:
            self._gen_index.setdefault(g, set()).add(rid)
        self.gens.update(gens)
        return rid

    def _remove(self, rid: int) -> None:
        w = self.relators.pop(rid)
        origin = self.origins.pop(rid)
        self._by_origin.pop(origin, None)
        for g in w.generators():
            ids = self._gen_index.get(g)
            if ids is not None:
                ids.discard(rid)
                if not ids:
                    del self._gen_index[g]

    def _replace(self, rid: int, new: Word) -> None:
        old_gens = self.relators[rid].generators()
        new_gens = new.generators()
        for g in old_gens - new_gens:
            ids = self._gen_index.get(g)
            if ids is not None:
                ids.discard(rid)
                if not ids:
                    del self._gen_index[g]
        for g in new_gens - old_gens:
            self._gen_index.setdefault(g, set()).add(rid)
        self.relators[rid] = new

    # -- queries -----------------------------------------------------------

    def current(self, origin: Origin, step: str = "") -> tuple[int, Word]:
        rid = self._by_origin.get(origin)
        if rid is None:
            raise ReplayError(f"{step or self.name}: relator {origin} is no longer present")
        return rid, self.relators[rid]

    def relators_containing(self, g: Gen) -> set[int]:
        return set(self._gen_index.get(g, ()))

    def single_letter_relator(self, g: Gen) -> int | None:
        for rid in self._gen_index.get(g, ()):
            w = self.relators[rid]
            if len(w.letters) == 1 and abs(w.letters[0][1]) == 1:
                return rid
        return None

    def interior(self, margin: int) -> set[Gen]:
        """Generators whose window coordinates all lie in [-M+margin, M-margin]."""
        bound = self.window - margin
        if bound < 0:
            return set()
        return {g for g in self.gens if self.alphabet.within_window(g, bound)}

    def interior_relator_set(self, margin: int) -> set[Word]:
        bound = self.window - margin
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
        occ = w.occurrences(target)
        if len(occ) != 1 or abs(w.letters[occ[0]][1]) != 1:
            raise ReplayError(
                f"{step}: occurrence of {fmt_gen(target)} in {w} is not isolating"
            )
        pos = occ[0]
        sign = w.letters[pos][1]
        before = Word._make(w.letters[:pos])
        after = Word._make(w.letters[pos + 1:])
        if sign == 1:
            expression = invert(before) * invert(after)
        else:
            expression = after * before
        touched = []
        for rid2 in sorted(self.relators_containing(target)):
            if rid2 == rid:
                continue
            old = self.relators[rid2]
            new = substitute(old, target, expression)
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
        for rid2, _, new in touched:
            if new:
                self._replace(rid2, new)
            else:
                self._remove(rid2)
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
        for rid in sorted(self.relators_containing(old)):
            w = self.relators[rid]
            self._replace(rid, Word._make(tuple(
                ((new if g == old else g), e) for g, e in w.letters
            )))
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

    def surviving_interior(self, margin: int) -> set[Gen]:
        if margin > self.window:
            return set()
        return self.interior(margin)

    def transcript_text(self) -> str:
        return "\n".join(self.transcript) + "\n"
