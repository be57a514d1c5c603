from collections import Counter
from itertools import chain

import pytest

from braidcomm.audit import AbelianStepAuditor, AuditError, audit_script
from braidcomm.derived import simplified_derived
from braidcomm.replays import SCRIPTS
from braidcomm.tietze import TruncatedPresentation, origin_of
from braidcomm.words import Word, gen, word


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
    """The words whose exponent vector is computed from now on, in order."""
    counted = []
    exponent_vector = Word.exponent_vector

    def counting(w):
        counted.append(w)
        return exponent_vector(w)

    monkeypatch.setattr(Word, "exponent_vector", counting)
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
    """Checks the per-generator row counts against a recount after every step."""

    def __call__(self, step):
        super().__call__(step)
        recount = Counter(chain.from_iterable(self.rows.values()))
        assert {g: c for g, c in self.count.items() if c} == dict(recount), step["kind"]


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_row_counts_match_a_recount_after_every_step(name):
    auditor = _RecountingAuditor(checkpoint_every=10**9)
    presentation = SCRIPTS[name](3, callback=auditor)
    auditor.finish(presentation, name, 3)
