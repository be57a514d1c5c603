from collections import Counter
from itertools import chain

import pytest

from braidcomm.audit import AbelianStepAuditor, AuditError, audit_script
from braidcomm.derived import simplified_derived
from braidcomm.replays import SCRIPTS
from braidcomm.tietze import TruncatedPresentation, origin_of
from braidcomm.words import Word, gen, word
from oracles import run_on_full_start


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


# a generator that held rows of the presentation above hold, and a fresh name for it
RENAMED = (("a", (-2, 1, 2)), ("a", (9, 1, 2)))


class _RenameCheckingAuditor(AbelianStepAuditor):
    """Checks that every rename leaves each row and count as it was, moves
    only the column map, and forgets the words of the held rows in the
    renamed column."""

    renamed_held = renamed_unheld = 0

    def _verify_rename(self, step):
        old, new = step["old"], step["new"]
        c = self.col[old]
        rows = {rid: dict(row) for rid, row in self.rows.items()}
        row_objects = dict(self.rows)
        count, unheld = list(self.count), {c2: set(ids) for c2, ids in self.unheld.items()}
        col, gen_of = dict(self.col), list(self.gen_of)
        words = dict(self.words)
        super()._verify_rename(step)
        assert self.rows == rows
        assert all(self.rows[rid] is row for rid, row in row_objects.items())
        assert self.count == count and self.unheld == unheld
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
    """Checks the per-column row counts, and the index of the rows the
    presentation does not hold, against a recount after every step, and
    that every column a row holds stands for a generator that maps back
    to it."""

    def __call__(self, step):
        super().__call__(step)
        recount = Counter(chain.from_iterable(self.rows.values()))
        assert {c: n for c, n in enumerate(self.count) if n} == dict(recount), step["kind"]
        for c in recount:
            g = self.gen_of[c]
            assert g in self.gens and self.col[g] == c, step["kind"]
        unheld = {}
        for rid, row in self.rows.items():
            if rid not in self.words:
                for g in row:
                    unheld.setdefault(g, set()).add(rid)
        assert {g: ids for g, ids in self.unheld.items() if ids} == unheld, step["kind"]


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_row_counts_match_a_recount_after_every_step(name):
    auditor = _RecountingAuditor(checkpoint_every=10**9)
    presentation = SCRIPTS[name](3, callback=auditor)
    auditor.finish(presentation, name, 3)


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
