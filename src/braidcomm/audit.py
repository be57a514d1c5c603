"""Per-step soundness audit of replay scripts.

The auditor shadows the abelianized relation matrix of a running script
and checks, move by move, that the matrix transform is of a shape that
provably preserves the cokernel:

* eliminate -- the defining row carries +-1 at the target column, every
  rewritten row equals old minus (old target coefficient) times
  (sign times defining row), and no unrewritten row still touches the
  target.  Clearing a unit column and deleting its row and column is a
  unimodular reduction, so the invariants cannot move.
* derive -- the new row is the source row with some coordinates zeroed,
  each zeroed coordinate backed by a one-letter relator row, hence the
  new row lies in the integer row span.
* rename -- a column relabelling.
* adjoin -- a genuine quotient step; it opens a new epoch, and invariant
  equality is only asserted within epochs.

On top of the certificates the auditor recomputes the full invariants
(free rank and torsion) at epoch starts, every ``checkpoint_every``
verified moves, and at the end, and insists they never move inside an
epoch.

Rows are keyed by column number.  ``col[g]`` is the column of generator
``g``, given on first sight: the start's relators in id order, then
adjoined, derived and rewritten words.  ``gen_of[c]`` is the generator
column ``c`` stands for, and names it in errors.  A rename moves the old
generator's column to the new one (``col[new] = col.pop(old)``) and
touches no row.  A column is live when its generator is a generator of
the presentation and maps back to it; a checkpoint refuses rows that hold
any other column, then reduces the rows as they are.

A replay starts pruned: the presentation holds only the relators its moves
read.  At ``start`` the auditor keeps ``unread``, the start words of the
relators the presentation left out (``unread_relators()``), and reads every
relator of the full start as ``closure(unread)``.  A row is held when the
presentation holds it, that is when its id is in ``words``; an unheld row
keeps only its exponent vector.  A move changes an unheld relator by a
free-group endomorphism, which abelianizes to a column operation, so the
auditor applies it itself, to held and unheld rows alike: ``eliminate``
subtracts (row target coefficient) times (sign times defining row) from
every row that holds the target, and ``rename`` relabels a column.  A held
row must then equal the word the step reports for it.  No word of an
unheld relator is rewritten during the run, so a bad substitution into
one is caught at ``finish``.  ``finish`` closes the words read at
``start``, ``closure(unread)`` on the presentation the ``start`` event
named, with no enumeration of its schema, and requires every nonzero
shadow row to equal the recount, id for id; the full route drops a
relator whose word empties, so a zero row may be absent there.  A
generator the shadow never saw gets a fresh column there, so such a
relator cannot match.

``support[c]`` is the set of ids of the rows nonzero in column ``c``, held
or not.  The column operation of ``eliminate`` visits exactly
``support[target column]`` and changes a row only at the defining row's
columns, so it updates ``support`` there alone.  A held row in that set
that the step did not rewrite still references the target; ``finish``
checks ``support`` against the rows.

``words`` holds exactly the rows the presentation holds.  ``words[rid]`` is
the immutable word that row ``rid`` was last computed from, so
``rows[rid]`` is always that word's exponent vector by column.  A step that
passes that same object as a row's word is in sync without a recount; any
other object, an equal copy included, is recounted and compared.  A rename
changes the generator a column stands for but no word, so it sets the word
of every held row in that column to None.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from .abelian import abelian_invariants_of_matrix
from .words import Gen, Word, fmt_gen


class AuditError(AssertionError):
    """A step failed its cokernel-preservation certificate."""


@dataclass
class EpochRecord:
    start_step: int
    invariants: tuple
    checks: int = 0


@dataclass
class AuditReport:
    script: str
    window: int
    steps_verified: int
    epochs: list[EpochRecord] = field(default_factory=list)


class AbelianStepAuditor:
    def __init__(self, checkpoint_every: int = 400):
        self.col: dict[Gen, int] = {}
        self.gen_of: list[Gen] = []
        self.rows: dict[int, dict[int, int]] = {}
        self.words: dict[int, Word | None] = {}
        self.support: dict[int, set[int]] = {}
        self.gens: set[Gen] = set()
        # the presentation the start event named, by a weak reference, since
        # it holds the auditor as its callback; before a start, none
        self._started = lambda: None
        self.unread: dict[int, Word] = {}
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be at least 1, not {checkpoint_every}")
        self.checkpoint_every = checkpoint_every
        self.steps = 0
        self.epochs: list[EpochRecord] = []
        self._epoch_dirty = True

    # -- bookkeeping ---------------------------------------------------------

    def _column(self, g: Gen) -> int:
        c = self.col[g] = len(self.gen_of)
        self.gen_of.append(g)
        self.support[c] = set()
        return c

    def _vector(self, w: Word) -> dict[int, int]:
        """The exponent vector of ``w`` by column; an unseen generator gets
        the next column."""
        col = self.col
        out: dict[int, int] = {}
        for g, e in w.letters:
            c = col.get(g)
            if c is None:
                c = self._column(g)
            x = out.get(c, 0) + e
            if x:
                out[c] = x
            else:
                out.pop(c, None)
        return out

    def _add_row(self, rid: int, w: Word, held: bool = True) -> None:
        """A new row ``rid``, the exponent vector of ``w``; a held one keeps
        ``w`` in ``words``."""
        support = self.support
        row = self.rows[rid] = self._vector(w)
        for c in row:
            support[c].add(rid)
        if held:
            self.words[rid] = w

    def _del_row(self, rid: int) -> None:
        support = self.support
        for c in self.rows.pop(rid):
            support[c].discard(rid)
        self.words.pop(rid, None)

    def _synced_row(self, rid: int, w: Word) -> dict[int, int] | None:
        """Row ``rid`` if the presentation holds it and it equals the
        exponent vector of ``w``."""
        if rid not in self.words:
            return None
        row = self.rows[rid]
        if self.words[rid] is w or row == self._vector(w):
            return row
        return None

    def _invariants(self) -> tuple:
        col, gen_of, gens = self.col, self.gen_of, self.gens
        stray = [gen_of[c] for c, ids in self.support.items()
                 if ids and (gen_of[c] not in gens or col.get(gen_of[c]) != c)]
        if stray:
            raise AuditError(f"rows hold {fmt_gen(min(stray))}, which is not a generator")
        free_rank, torsion = abelian_invariants_of_matrix(list(self.rows.values()),
                                                          len(gens))
        return (free_rank, tuple(torsion))

    def _open_epoch_if_needed(self) -> None:
        if self._epoch_dirty:
            self.epochs.append(EpochRecord(self.steps, self._invariants(), 1))
            self._epoch_dirty = False

    def _checkpoint(self, force: bool = False) -> None:
        epoch = self.epochs[-1]
        if force or (self.steps - epoch.start_step) % self.checkpoint_every == 0:
            now = self._invariants()
            if now != epoch.invariants:
                raise AuditError(
                    f"invariants moved within an epoch: {epoch.invariants} -> {now}")
            epoch.checks += 1

    # -- the callback ----------------------------------------------------------

    def __call__(self, step: dict) -> None:
        kind = step["kind"]
        if kind == "start":
            p = step["presentation"]
            self.col, self.gen_of, self.rows, self.support, self.words = {}, [], {}, {}, {}
            held = p.relators
            self._started, self.unread = weakref.ref(p), dict(p.unread_relators())
            for rid, w in p.closure(self.unread.items()).items():
                self._add_row(rid, w, rid in held)
            self.gens = set(p.gens)
            self._epoch_dirty = True
            return
        if kind == "adjoin":
            w = step["word"]
            self._add_row(step["rid"], w)
            self.gens.update(w.generators())
            self._epoch_dirty = True
            return
        self._open_epoch_if_needed()
        if kind == "eliminate":
            self._verify_eliminate(step)
        elif kind == "derive":
            self._verify_derive(step)
        elif kind == "rename":
            self._verify_rename(step)
        else:
            raise AuditError(f"unknown step kind {kind!r}")
        self.steps += 1
        self._checkpoint()

    def finish(self, presentation, script: str, window: int) -> AuditReport:
        if presentation is not self._started():
            raise AuditError("finish was given a presentation the audit did not start on")
        self._open_epoch_if_needed()
        self._checkpoint(force=True)
        # the shadow must agree with every relator of the survivor
        # presentation; the full route drops a relator whose word empties
        rows, words = self.rows, self.words
        actual = {rid: rows[rid] if words.get(rid) is w else self._vector(w)
                  for rid, w in presentation.closure(self.unread.items()).items()}
        if actual != {rid: row for rid, row in rows.items() if row or rid in actual}:
            raise AuditError("shadow matrix diverged from the presentation")
        if set(presentation.gens) != self.gens:
            raise AuditError("shadow generator set diverged from the presentation")
        support = self.support
        if (any(rid not in support[c] for rid, row in rows.items() for c in row)
                or sum(map(len, support.values())) != sum(map(len, rows.values()))):
            raise AuditError("shadow column support diverged from the rows")
        return AuditReport(script, window, self.steps, self.epochs)

    # -- certificates ------------------------------------------------------------

    def _verify_eliminate(self, step: dict) -> None:
        target = step["target"]
        t = self.col.get(target)
        sign = step["sign"]
        rid = step["defining_rid"]
        defining = self._synced_row(rid, step["defining"])
        if defining is None:
            raise AuditError(f"defining row for {fmt_gen(target)} out of sync")
        if defining.get(t, 0) != sign or sign not in (1, -1):
            raise AuditError(
                f"defining row has coefficient {defining.get(t, 0)} at "
                f"{fmt_gen(target)}, expected {sign}")
        touched = step["touched"]
        for rid2, old, _ in touched:
            if self._synced_row(rid2, old) is None:
                raise AuditError(f"row {rid2} out of sync before substitution")
        rows, words, support = self.rows, self.words, self.support
        rewritten = {rid2 for rid2, _, _ in touched}
        skipped = [rid2 for rid2 in support[t]
                   if rid2 in words and rid2 not in rewritten and rid2 != rid]
        if skipped:
            raise AuditError(
                f"row {min(skipped)} still references {fmt_gen(target)} but was not rewritten")
        # one column operation on every row that holds the target, held or not
        for rid2 in support[t] - {rid}:
            row = rows[rid2]
            coeff = row[t] * sign
            for c, v in defining.items():
                x = row.get(c, 0) - coeff * v
                if x:
                    if c not in row:
                        support[c].add(rid2)
                    row[c] = x
                elif c in row:
                    del row[c]
                    support[c].discard(rid2)
        for rid2, _, new in touched:
            if rows[rid2] != self._vector(new):
                raise AuditError(
                    f"substitution into row {rid2} is not the predicted row operation")
            if new:  # a relator may abelianize to zero yet survive as a word
                words[rid2] = new
            else:
                self._del_row(rid2)
        self._del_row(rid)
        self.gens.discard(target)

    def _verify_derive(self, step: dict) -> None:
        source = self._synced_row(step["source_rid"], step["source_word"])
        if source is None:
            raise AuditError("derive source row out of sync")
        deleted = set()
        trivial_rids = step["trivial_rids"]
        for g in step["deleted"]:
            c = self.col.get(g)
            trivial = self.rows.get(trivial_rids.get(g))
            if trivial is None or set(trivial) != {c} or abs(trivial[c]) != 1:
                raise AuditError(
                    f"deletion of {fmt_gen(g)} is not backed by a one-letter row")
            deleted.add(c)
        predicted = {c: v for c, v in source.items() if c not in deleted}
        if predicted != self._vector(step["word"]):
            raise AuditError("derived row is not the source row with letters deleted")
        self._add_row(step["rid"], step["word"])

    def _verify_rename(self, step: dict) -> None:
        old, new = step["old"], step["new"]
        if old not in self.gens:
            raise AuditError(f"rename source {fmt_gen(old)} not present")
        if new in self.gens:
            raise AuditError(f"rename target {fmt_gen(new)} already present")
        col = self.col
        if old not in col:
            self._column(old)
        # the column now stands for new; a column new had before goes stale
        c = col[new] = col.pop(old)
        self.gen_of[c] = new
        words = self.words
        for rid in self.support[c]:
            if rid in words:
                words[rid] = None
        self.gens.discard(old)
        self.gens.add(new)


def audit_script(script, name: str, window: int, checkpoint_every: int = 400) -> AuditReport:
    """Run a replay script under the auditor and return its report."""
    auditor = AbelianStepAuditor(checkpoint_every)
    presentation = script(window, callback=auditor)
    return auditor.finish(presentation, name, window)
