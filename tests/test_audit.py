import gc
import weakref

import pytest

from braidcomm import audit, tietze
from braidcomm.abelian import LatticeReduction
from braidcomm.audit import AbelianStepAuditor, AuditError, audit_script
from braidcomm.derived import raw_derived, simplified_derived
from braidcomm.replays import SCRIPTS
from braidcomm.tietze import TruncatedPresentation
from braidcomm.words import Word, invert
from oracles import gen, origin_of, run_on_full_start, word


def _audited_presentation(M=3):
    auditor = AbelianStepAuditor(checkpoint_every=1)
    p = TruncatedPresentation.from_schema(simplified_derived("SG", 3), M,
                                          callback=auditor)
    return auditor, p


# one honest elimination in the presentation above; it rewrites three rows
ELIMINATE = (("b", (0, 0, 2)), origin_of("mixed_r_1", {"m": 0, "k": 0}))


def test_auditor_certifies_an_honest_elimination():
    auditor, p = _audited_presentation()
    p.eliminate(*ELIMINATE)
    report = auditor.finish(p, "demo", 3)
    assert report.steps_verified == 1
    assert len(report.epochs) == 1


def test_auditor_rejects_a_forged_substitution():
    auditor, p = _audited_presentation()

    def forge(step):
        if step["kind"] == "eliminate" and step["touched"]:
            rid, old, new = step["touched"][0]
            step["touched"][0] = (rid, old, word(gen("a", 0, 0, 2)))
        auditor(step)

    p.callback = forge
    with pytest.raises(AuditError, match="predicted row operation"):
        p.eliminate(*ELIMINATE)


def test_auditor_rejects_an_unreported_rewrite():
    auditor, p = _audited_presentation()

    def forge(step):
        if step["kind"] == "eliminate":
            assert step["touched"]
            del step["touched"][-1]
        auditor(step)

    p.callback = forge
    with pytest.raises(AuditError, match="still references"):
        p.eliminate(*ELIMINATE)


def test_auditor_rejects_a_forged_defining_sign():
    auditor, p = _audited_presentation()

    def forge(step):
        if step["kind"] == "eliminate":
            step["sign"] = -step["sign"]
        auditor(step)

    p.callback = forge
    with pytest.raises(AuditError, match="coefficient"):
        p.eliminate(*ELIMINATE)


def _counted_exponent_vectors(monkeypatch):
    """The words whose exponent vector the auditor computes from now on, in
    order."""
    counted = []
    vector = AbelianStepAuditor._vector

    def counting(self, w):
        counted.append(w)
        return vector(self, w)

    monkeypatch.setattr(AbelianStepAuditor, "_vector", counting)
    return counted


def test_auditor_recounts_only_the_words_it_has_not_seen(monkeypatch):
    auditor, p = _audited_presentation()
    steps = []

    def spy(step):
        steps.append(step)
        auditor(step)

    p.callback = spy
    counted = _counted_exponent_vectors(monkeypatch)
    p.eliminate(*ELIMINATE)
    (step,) = steps
    assert len(step["touched"]) == 3
    # the defining and old words are the ones the rows were computed from
    assert len(counted) == 3
    assert all(w is new for w, (_, _, new) in zip(counted, step["touched"]))
    assert auditor.finish(p, "demo", 3).steps_verified == 1


def test_auditor_recounts_an_equal_copy_and_accepts_it(monkeypatch):
    auditor, p = _audited_presentation()

    def copy_words(step):
        if step["kind"] == "eliminate":
            step["defining"] = Word._make(step["defining"].letters)
            step["touched"] = [(rid, Word._make(old.letters), new)
                               for rid, old, new in step["touched"]]
        auditor(step)

    p.callback = copy_words
    counted = _counted_exponent_vectors(monkeypatch)
    p.eliminate(*ELIMINATE)
    assert len(counted) == 1 + 2 * 3  # the defining copy, each old copy and new word
    assert auditor.finish(p, "demo", 3).steps_verified == 1


@pytest.mark.parametrize("forged", ["defining", "old"])
def test_auditor_rejects_a_forged_word_before_an_elimination(forged):
    auditor, p = _audited_presentation()
    other = word(gen("a", 0, 0, 2))

    def forge(step):
        if step["kind"] == "eliminate":
            if forged == "defining":
                step["defining"] = other
            else:
                rid, _, new = step["touched"][0]
                step["touched"][0] = (rid, other, new)
        auditor(step)

    p.callback = forge
    with pytest.raises(AuditError, match="out of sync"):
        p.eliminate(*ELIMINATE)


def test_auditor_rejects_a_forged_derive_source():
    auditor = AbelianStepAuditor(checkpoint_every=1)

    def forge(step):
        if step["kind"] == "derive":
            step["source_word"] = word(gen("a", 0, 0, 2))
        auditor(step)

    gvb = TruncatedPresentation.from_schema(simplified_derived("GVB", 3), 3,
                                            callback=auditor)
    gvb.callback = forge
    with pytest.raises(AuditError, match="derive source row out of sync"):
        gvb.derive_collapsed(origin_of("braid_ss_1", {"m": 0, "k": 0}),
                             {("a", (m, 0, 1)): origin_of("triv_a", {"m": m})
                              for m in range(-3, 4)},
                             ("edge", 0))


def test_a_rename_that_skips_a_relator_fails_the_next_elimination_through_it(monkeypatch):
    auditor, p = _audited_presentation()
    skipped = p.current(origin_of("mixed_l_1", {"m": -2, "k": 0}))[0]
    live_with = TruncatedPresentation._live_with
    monkeypatch.setattr(TruncatedPresentation, "_live_with",
                        lambda self, g: (rid for rid in live_with(self, g) if rid != skipped))
    # the auditor relabels the skipped row, which still holds a[-2,1,2] as a word
    p.rename(("a", (-2, 1, 2)), ("a", (9, 1, 2)))
    assert ("a", (-2, 1, 2)) in p.relators[skipped].generators()
    with pytest.raises(AuditError, match=f"row {skipped} out of sync before substitution"):
        p.eliminate(*ELIMINATE)


def test_a_step_that_rewrites_a_row_the_presentation_does_not_hold_is_refused():
    # one column operation moves every row, held or not; a step still may
    # rewrite only the relators the presentation holds
    auditor = AbelianStepAuditor(checkpoint_every=10**9)
    forged = []

    def forge(step):
        if step["kind"] == "eliminate" and not forged:
            unheld = sorted(rid for rid in auditor.support[auditor.col[step["target"]]]
                            if rid not in auditor.words
                            and auditor.rows[rid] == auditor._vector(auditor.unread[rid]))
            if unheld:
                forged.append(unheld[0])
                old = auditor.unread[unheld[0]]
                step["touched"].append((unheld[0], old, old))
        auditor(step)

    with pytest.raises(AuditError, match=r"row (\d+) out of sync before substitution") as err:
        SCRIPTS["simplify-sg-n3"](3, callback=forge)
    assert err.match(f"row {forged[0]} ")


# a generator that held rows of the presentation above hold, and a fresh name for it
RENAMED = (("a", (-2, 1, 2)), ("a", (9, 1, 2)))


class _RenameCheckingAuditor(AbelianStepAuditor):
    """Checks that every rename leaves each row and the column support as
    they were, moves only the column map, and forgets the words of the held
    rows in the renamed column."""

    renamed_held = renamed_unheld = 0

    def _verify_rename(self, step):
        old, new = step["old"], step["new"]
        c = self.col[old]
        rows = {rid: dict(row) for rid, row in self.rows.items()}
        row_objects = dict(self.rows)
        support = {c2: set(ids) for c2, ids in self.support.items()}
        col, gen_of = dict(self.col), list(self.gen_of)
        words = dict(self.words)
        super()._verify_rename(step)
        assert self.rows == rows
        assert all(self.rows[rid] is row for rid, row in row_objects.items())
        assert self.support == support
        del col[old]
        col[new] = c
        gen_of[c] = new
        assert self.col == col and self.gen_of == gen_of
        assert self.words == {rid: None if c in rows[rid] else w for rid, w in words.items()}
        self.renamed_held += any(c in rows[rid] for rid in words)
        self.renamed_unheld += any(c in row for rid, row in rows.items() if rid not in words)


def test_a_rename_moves_only_the_column_map():
    # a script's renames meet only unheld rows; on a full start every row is held
    auditor = _RenameCheckingAuditor(checkpoint_every=150)
    presentation = SCRIPTS["simplify-gvb-n4"](3, callback=auditor)
    assert auditor.renamed_unheld == 10 and not auditor.renamed_held
    auditor.finish(presentation, "simplify-gvb-n4", 3)
    auditor = _RenameCheckingAuditor(checkpoint_every=1)
    p = TruncatedPresentation.from_schema(simplified_derived("SG", 3), 3, callback=auditor)
    p.rename(*RENAMED)
    assert auditor.renamed_held == 1
    assert auditor.finish(p, "demo", 3).steps_verified == 1


def test_a_step_passing_a_pre_rename_word_is_out_of_sync():
    auditor, p = _audited_presentation()
    old, new = RENAMED
    c = auditor.col[old]
    rid = next(rid for rid in auditor.words if c in auditor.rows[rid])
    before = p.relators[rid]
    assert auditor.words[rid] is before
    p.rename(old, new)
    assert p.relators[rid] is not before
    with pytest.raises(AuditError, match="out of sync"):
        auditor({"kind": "derive", "source_rid": rid, "source_word": before,
                 "deleted": [], "trivial_rids": {}, "rid": -1, "word": before})


def test_rows_in_a_column_that_does_not_map_back_fail_the_next_checkpoint():
    auditor, p = _audited_presentation()
    old, new = RENAMED
    p.rename(old, new)
    # new stands for a fresh column; its old one is still held by rows
    auditor._column(new)
    with pytest.raises(AuditError, match=r"rows hold a\[9,1,2\], which is not a generator"):
        auditor.finish(p, "demo", 3)


def test_auditor_requires_one_letter_backing_for_derives():
    auditor, p = _audited_presentation()

    def forge(step):
        if step["kind"] == "derive":
            step["trivial_rids"] = {g: next(iter(p.relators))
                                    for g in step["deleted"]}
        auditor(step)

    gvb = TruncatedPresentation.from_schema(simplified_derived("GVB", 3), 3,
                                            callback=auditor)
    gvb.callback = forge
    with pytest.raises(AuditError, match="one-letter row"):
        gvb.derive_collapsed(origin_of("braid_ss_1", {"m": 0, "k": 0}),
                             {("a", (m, 0, 1)): origin_of("triv_a", {"m": m})
                              for m in range(-3, 4)},
                             ("edge", 0))


def test_auditor_rejects_a_derive_without_a_one_letter_row_named():
    auditor = AbelianStepAuditor(checkpoint_every=1)

    def forge(step):
        if step["kind"] == "derive":
            del step["trivial_rids"][step["deleted"][0]]
        auditor(step)

    gvb = TruncatedPresentation.from_schema(simplified_derived("GVB", 3), 3,
                                            callback=auditor)
    gvb.callback = forge
    with pytest.raises(AuditError, match="one-letter row"):
        gvb.derive_collapsed(origin_of("braid_ss_1", {"m": 0, "k": 0}),
                             {("a", (m, 0, 1)): origin_of("triv_a", {"m": m})
                              for m in range(-3, 4)},
                             ("edge", 0))


def test_auditor_rejects_a_rename_of_an_absent_generator():
    auditor = AbelianStepAuditor(checkpoint_every=10**9)
    absent = ("a", (99, 0, 3))

    def forge(step):
        if step["kind"] == "rename":
            step["old"] = absent
        auditor(step)

    with pytest.raises(AuditError, match=r"rename source a\[99,0,3\] not present"):
        SCRIPTS["simplify-sg-n4"](3, callback=forge)


def test_auditor_detects_quotient_epochs():
    report = audit_script(SCRIPTS["gvb3-free-quotient"], "gvb3-free-quotient", 3,
                          checkpoint_every=50)
    assert len(report.epochs) == 3  # base, after first quotient, after second
    ranks = [e.invariants[0] for e in report.epochs]
    assert ranks[0] > ranks[1] >= ranks[2]


def test_audit_script_smoke():
    report = audit_script(SCRIPTS["simplify-sg-n3"], "simplify-sg-n3", 3)
    assert report.steps_verified > 50


class _RecountingAuditor(AbelianStepAuditor):
    """Checks the column support, the ids of the rows nonzero in each
    column, against a recount after every step, with no set for a column
    that no row holds, and that every column a row holds stands for a
    generator that maps back to it.  It also checks what a checkpoint's
    reduction requires of the rows it is handed with ``support``: no zero
    entry, and ids ascending in the rows' order."""

    def __call__(self, step):
        super().__call__(step)
        assert all(all(row.values()) for row in self.rows.values()), step["kind"]
        assert list(self.rows) == sorted(self.rows), step["kind"]
        support = {}
        for rid, row in self.rows.items():
            for c in row:
                support.setdefault(c, set()).add(rid)
        assert self.support == support, step["kind"]
        for c in support:
            g = self.gen_of[c]
            assert g in self.gens and self.col[g] == c, step["kind"]


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_row_counts_match_a_recount_after_every_step(name):
    auditor = _RecountingAuditor(checkpoint_every=10**9)
    presentation = SCRIPTS[name](3, callback=auditor)
    auditor.finish(presentation, name, 3)


def test_a_rename_of_a_generator_that_no_row_holds():
    # simplify-sg-n4 ends with generators in no relator, whose columns have
    # no support set; a rename of one leaves the support exact
    auditor = _RecountingAuditor(checkpoint_every=150)
    p = SCRIPTS["simplify-sg-n4"](3, callback=auditor)
    idle = min(g for g in p.gens if auditor.col.get(g) not in auditor.support)
    steps = auditor.steps
    p.rename(idle, ("b", (99, 4, 1)))
    assert auditor.finish(p, "simplify-sg-n4", 3).steps_verified == steps + 1


# the scripts of the benchmark's audit-w4 workload
AUDIT_W4 = ("fingen-sg-n5", "fingen-sg-n6", "gvb3-free-quotient", "sg3-abelianization",
            "simplify-gvb-n3", "simplify-gvb-n4", "simplify-gvb-n5", "simplify-sg-n3")


@pytest.mark.parametrize("name,window", [(name, 3) for name in sorted(SCRIPTS)]
                         + [(name, 4) for name in AUDIT_W4])
def test_the_pruned_audit_reports_like_the_eager_one(name, window):
    """Shadowing the unread relators by column operations gives the report
    of an audit that sees every relator rewritten on the full start."""
    script = SCRIPTS[name]
    eager = audit_script(lambda M, **kw: run_on_full_start(script, M, **kw), name, window,
                         checkpoint_every=150)
    assert audit_script(script, name, window, checkpoint_every=150) == eager


@pytest.mark.parametrize("name,kind", [("simplify-gvb-n4", "eliminate"),
                                       ("fingen-sg-n5", "eliminate"),
                                       ("simplify-gvb-n4", "rename")])
def test_a_closure_that_skips_the_last_move_of_a_kind_fails_finish(name, kind, monkeypatch):
    composite = TruncatedPresentation._composite

    def skipping(self):
        records = self._records
        marks = [i for i, record in enumerate(records) if record[0] == kind]
        if not marks:
            return composite(self)
        self._records = records[:marks[-1]] + records[marks[-1] + 1:]
        try:
            return composite(self)
        finally:
            self._records = records

    monkeypatch.setattr(TruncatedPresentation, "_composite", skipping)
    with pytest.raises(AuditError, match="shadow matrix diverged"):
        audit_script(SCRIPTS[name], name, 3)


@pytest.mark.parametrize("name,schema", [("fingen-sg-n5", simplified_derived("SG", 5)),
                                         ("simplify-gvb-n4", raw_derived("GVB", 4))])
def test_finish_enumerates_no_schema(name, schema, monkeypatch):
    """The start's schema is enumerated twice, to build the pruned start
    and to read its unread words; ``finish`` closes the words it read."""
    enumerated = []
    instances = tietze.instances

    def counting(pres, rel, *args):
        enumerated.append(rel.label)
        return instances(pres, rel, *args)

    monkeypatch.setattr(tietze, "instances", counting)
    auditor = AbelianStepAuditor(checkpoint_every=150)
    presentation = SCRIPTS[name](3, callback=auditor)
    auditor.finish(presentation, name, 3)
    assert enumerated == [rel.label for rel in schema.relators] * 2
    assert auditor.unread


@pytest.mark.parametrize("forge", ["drop", "invert"])
def test_finish_fails_on_an_unread_word_it_did_not_read_at_start(forge):
    name = "simplify-gvb-n4"
    auditor = AbelianStepAuditor(checkpoint_every=150)
    presentation = SCRIPTS[name](3, callback=auditor)
    # an unread relator whose shadow row survives nonzero
    live = [rid for rid in auditor.unread if auditor.rows.get(rid)]
    rid = live[len(live) // 2]
    if forge == "drop":
        del auditor.unread[rid]
    else:
        auditor.unread[rid] = invert(auditor.unread[rid])
    with pytest.raises(AuditError, match="shadow matrix diverged"):
        auditor.finish(presentation, name, 3)


def test_finish_reports_a_column_support_lost_whole_as_a_divergence():
    # a held column with no support set left is refused as any other miscount
    auditor, p = _audited_presentation()
    p.eliminate(*ELIMINATE)
    column = next(c for c, ids in sorted(auditor.support.items()) if ids)
    del auditor.support[column]
    with pytest.raises(AuditError, match="shadow column support diverged from the rows"):
        auditor.finish(p, "demo", 3)


def test_finish_refuses_a_presentation_the_audit_did_not_start_on():
    auditor, p = _audited_presentation()
    p.eliminate(*ELIMINATE)
    # an equal presentation is still another one
    twin = TruncatedPresentation.from_schema(simplified_derived("SG", 3), 3)
    twin.eliminate(*ELIMINATE)
    with pytest.raises(AuditError, match="did not start on"):
        auditor.finish(twin, "demo", 3)
    with pytest.raises(AuditError, match="did not start on"):
        AbelianStepAuditor().finish(p, "demo", 3)
    assert auditor.finish(p, "demo", 3).steps_verified == 1


def test_an_audit_keeps_no_presentation_alive():
    """The presentation holds the auditor as its callback, so an auditor
    that held it back would keep both, unread words and all, until the
    cyclic collector ran."""
    gc.disable()
    try:
        auditor = AbelianStepAuditor(checkpoint_every=150)
        presentation = SCRIPTS["simplify-sg-n3"](3, callback=auditor)
        auditor.finish(presentation, "simplify-sg-n3", 3)
        alive = weakref.ref(presentation)
        del auditor, presentation
        assert alive() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("every", [0, -1])
def test_a_checkpoint_interval_below_one_is_refused(every):
    with pytest.raises(ValueError, match="checkpoint_every must be at least 1"):
        AbelianStepAuditor(checkpoint_every=every)
    with pytest.raises(ValueError, match="checkpoint_every must be at least 1"):
        audit_script(SCRIPTS["simplify-sg-n3"], "simplify-sg-n3", 3, checkpoint_every=every)


class _PivotRecording(LatticeReduction):
    def run(self):
        self.picked = []
        return super().run()

    def _pick_unit_pivot(self):
        where = super()._pick_unit_pivot()
        if where is not None:
            self.picked.append(where)
        return where


@pytest.mark.parametrize("window,checkpoints", [(3, 44), (4, 55), (5, 68)])
def test_a_checkpoint_fed_the_column_support_reduces_as_the_rows_alone(
        window, checkpoints, monkeypatch):
    """On every checkpoint matrix of the 15 scripts, the reduction handed
    the auditor's rows by id with its ``support`` picks the pivots of the
    reduction of the same rows as a list, ids read as positions, and gives
    the same invariants."""
    invariants = audit.abelian_invariants_of_matrix
    pivots = []

    def compare(rows, ncols, support):
        position = {rid: pos for pos, rid in enumerate(rows)}
        by_position = _PivotRecording(list(rows.values()), ncols, track_v=False).run()
        by_id = _PivotRecording(rows, ncols, track_v=False, support=support).run()
        assert [(position[i], j) for i, j in by_id.picked] == by_position.picked
        assert by_id.pivots == by_position.pivots
        result = invariants(rows, ncols, support)
        assert result == (ncols - by_position.rank(),
                          [d for d in by_position.invariant_factors() if d > 1])
        pivots.append(len(by_id.picked))
        return result

    monkeypatch.setattr(audit, "abelian_invariants_of_matrix", compare)
    for name, script in sorted(SCRIPTS.items()):
        audit_script(script, name, window, checkpoint_every=150)
    assert len(pivots) == checkpoints and all(pivots)


def _counted_reductions(monkeypatch):
    """One entry per checkpoint reduction from now on."""
    counted = []
    invariants = audit.abelian_invariants_of_matrix

    def counting(rows, ncols, support):
        counted.append(len(rows))
        return invariants(rows, ncols, support)

    monkeypatch.setattr(audit, "abelian_invariants_of_matrix", counting)
    return counted


def test_a_checkpoint_reduces_again_only_after_a_move_that_changes_a_row(monkeypatch):
    counted = _counted_reductions(monkeypatch)
    auditor, p = _audited_presentation()  # checkpoint_every=1
    p.eliminate(*ELIMINATE)  # the epoch's start, then the checkpoint after the move
    assert len(counted) == 2
    p.rename(*RENAMED)
    assert len(counted) == 2
    auditor.finish(p, "demo", 3)
    assert len(counted) == 2
    counted.clear()
    auditor = AbelianStepAuditor(checkpoint_every=1)
    gvb = TruncatedPresentation.from_schema(simplified_derived("GVB", 3), 3, callback=auditor)
    gvb.derive_collapsed(origin_of("braid_ss_1", {"m": 0, "k": 0}),
                         {("a", (m, 0, 1)): origin_of("triv_a", {"m": m})
                          for m in range(-3, 4)},
                         ("edge", 0))
    assert len(counted) == 2
    old, new = RENAMED
    gvb.rename(old, new)
    assert len(counted) == 2
    # the adjoined row opens an epoch, which the next move starts
    gvb.add_relators([(word(new), ("quotient", 0))])
    gvb.rename(new, ("a", (10, 1, 2)))
    assert len(counted) == 3
    report = auditor.finish(gvb, "demo", 3)
    assert len(counted) == 3
    assert [e.invariants for e in report.epochs] == [(28, ()), (27, ())]


class _AlwaysReducingAuditor(AbelianStepAuditor):
    def _invariants(self):
        self._reduced = None
        return super()._invariants()


def test_a_rename_only_tail_reuses_the_last_reduction(monkeypatch):
    """simplify-gvb-n5 ends in renames, so its final checkpoint reuses the
    invariants of the one before, and reports as if it had reduced."""
    name = "simplify-gvb-n5"
    counted = _counted_reductions(monkeypatch)
    reports = []
    for auditor in (AbelianStepAuditor(150), _AlwaysReducingAuditor(150)):
        presentation = SCRIPTS[name](4, callback=auditor)
        reports.append(auditor.finish(presentation, name, 4))
    assert len(counted) == 4 + 5
    assert reports[0] == reports[1]
