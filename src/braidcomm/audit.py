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

Every write to ``rows`` goes through ``_set_row`` and ``_del_row``, which keep
``count[g]`` the number of rows nonzero at ``g``.  Verified rewrites vanish at
the target, so no unrewritten row touches it iff ``count[target] == 1``; rows
are scanned only to name an offender, and ``finish`` recounts them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .abelian import abelian_invariants_of_matrix
from .words import Gen, fmt_gen


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
        self.rows: dict[int, dict[Gen, int]] = {}
        self.count: dict[Gen, int] = {}
        self.gens: set[Gen] = set()
        self.checkpoint_every = checkpoint_every
        self.steps = 0
        self.epochs: list[EpochRecord] = []
        self._epoch_dirty = True

    # -- bookkeeping ---------------------------------------------------------

    def _set_row(self, rid: int, vec: dict[Gen, int]) -> None:
        old = self.rows.get(rid, {})
        for g in old.keys() - vec.keys():
            self.count[g] -= 1
        for g in vec.keys() - old.keys():
            self.count[g] = self.count.get(g, 0) + 1
        self.rows[rid] = vec

    def _del_row(self, rid: int) -> None:
        for g in self.rows.pop(rid):
            self.count[g] -= 1

    def _invariants(self) -> tuple:
        order = {g: j for j, g in enumerate(sorted(self.gens))}
        rows = [{order[g]: v for g, v in row.items()} for row in self.rows.values()]
        free_rank, torsion = abelian_invariants_of_matrix(rows, len(order))
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
            self.rows, self.count = {}, {}
            for rid, w in p.relators.items():
                self._set_row(rid, w.exponent_vector())
            self.gens = set(p.gens)
            self._epoch_dirty = True
            return
        if kind == "adjoin":
            w = step["word"]
            self._set_row(step["rid"], w.exponent_vector())
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
        self._open_epoch_if_needed()
        self._checkpoint(force=True)
        # the shadow must agree with the survivor presentation exactly
        actual = {rid: w.exponent_vector() for rid, w in presentation.relators.items()}
        if actual != self.rows:
            raise AuditError("shadow matrix diverged from the presentation")
        if set(presentation.gens) != self.gens:
            raise AuditError("shadow generator set diverged from the presentation")
        recount = Counter(g for row in self.rows.values() for g in row)
        if dict(recount) != {g: c for g, c in self.count.items() if c}:
            raise AuditError("shadow row counts diverged from the rows")
        return AuditReport(script, window, self.steps, self.epochs)

    # -- certificates ------------------------------------------------------------

    def _verify_eliminate(self, step: dict) -> None:
        target = step["target"]
        sign = step["sign"]
        rid = step["defining_rid"]
        defining = self.rows.get(rid)
        if defining is None or defining != step["defining"].exponent_vector():
            raise AuditError(f"defining row for {fmt_gen(target)} out of sync")
        if defining.get(target, 0) != sign or sign not in (1, -1):
            raise AuditError(
                f"defining row has coefficient {defining.get(target, 0)} at "
                f"{fmt_gen(target)}, expected {sign}")
        for rid2, old, new in step["touched"]:
            oldv = self.rows.get(rid2)
            if oldv is None or oldv != old.exponent_vector():
                raise AuditError(f"row {rid2} out of sync before substitution")
            coeff = oldv.get(target, 0)
            predicted = dict(oldv)
            for g, v in defining.items():
                predicted[g] = predicted.get(g, 0) - coeff * sign * v
                if predicted[g] == 0:
                    del predicted[g]
            newv = new.exponent_vector()
            if predicted != newv:
                raise AuditError(
                    f"substitution into row {rid2} is not the predicted row operation")
            if new:
                # a relator may abelianize to zero yet survive as a word
                self._set_row(rid2, newv)
            else:
                self._del_row(rid2)
        # applied rows vanish at the target: only the defining row may hold it
        if self.count[target] != 1:
            for rid2, row in self.rows.items():
                if rid2 != rid and target in row:
                    raise AuditError(
                        f"row {rid2} still references {fmt_gen(target)} but was not rewritten")
            raise AuditError("shadow row counts diverged from the rows")
        self._del_row(rid)
        self.gens.discard(target)

    def _verify_derive(self, step: dict) -> None:
        source = self.rows.get(step["source_rid"])
        if source is None or source != step["source_word"].exponent_vector():
            raise AuditError("derive source row out of sync")
        deleted = set(step["deleted"])
        for g in deleted:
            trid = step["trivial_rids"][g]
            trivial = self.rows.get(trid)
            if trivial is None or set(trivial) != {g} or abs(trivial[g]) != 1:
                raise AuditError(
                    f"deletion of {fmt_gen(g)} is not backed by a one-letter row")
        predicted = {g: v for g, v in source.items() if g not in deleted}
        newv = step["word"].exponent_vector()
        if predicted != newv:
            raise AuditError("derived row is not the source row with letters deleted")
        self._set_row(step["rid"], newv)

    def _verify_rename(self, step: dict) -> None:
        old, new = step["old"], step["new"]
        if new in self.gens:
            raise AuditError(f"rename target {fmt_gen(new)} already present")
        for rid, row in self.rows.items():
            if old in row:
                row[new] = row.pop(old)
        self.count[new] = self.count.pop(old, 0)
        self.gens.discard(old)
        self.gens.add(new)


def audit_script(script, name: str, window: int, checkpoint_every: int = 400) -> AuditReport:
    """Run a replay script under the auditor and return its report."""
    auditor = AbelianStepAuditor(checkpoint_every)
    presentation = script(window, callback=auditor)
    return auditor.finish(presentation, name, window)
