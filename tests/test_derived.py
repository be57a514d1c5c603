"""The raw rewritten presentations against frozen transcriptions, and the
stored two-parameter lists against the replayed collapse."""

from braidcomm.catalog import catalog
from braidcomm.derived import raw_derived, simplified_derived, verify_simplification
from braidcomm.rewriting import expand
from braidcomm.schemas import enumerate_instances, instance_set
from braidcomm.words import normalize
from oracles import bidegree, conjugate, instantiate, parse_presentation, relator, unrename

# transcription of the raw relator families, one line per schema
RAW_GVB = {
    "triv_a": "forall m : a[m,0,1]",
    "triv_b": "forall m,k : b[m,k,1]",
    "rw_comm_ss": "forall m,k,i,j where |i-j|>1 : "
                  "a[m,k,i] a[m+1,k,j] a[m+1,k,i]^-1 a[m,k,j]^-1",
    "rw_comm_rr": "forall m,k,i,j where |i-j|>1 : "
                  "b[m,k,i] b[m,k+1,j] b[m,k+1,i]^-1 b[m,k,j]^-1",
    "rw_comm_sr": "forall m,k,i,j where |i-j|>1 : "
                  "a[m,k,i] b[m+1,k,j] a[m,k+1,i]^-1 b[m,k,j]^-1",
    "rw_braid_ss": "forall m,k,i where i<=%d : "
                   "a[m,k,i] a[m+1,k,i+1] a[m+2,k,i] a[m+2,k,i+1]^-1 "
                   "a[m+1,k,i]^-1 a[m,k,i+1]^-1",
    "rw_braid_rr": "forall m,k,i where i<=%d : "
                   "b[m,k,i] b[m,k+1,i+1] b[m,k+2,i] b[m,k+2,i+1]^-1 "
                   "b[m,k+1,i]^-1 b[m,k,i+1]^-1",
    "rw_mixed_l": "forall m,k,i where i<=%d : "
                  "b[m,k,i] a[m,k+1,i+1] a[m+1,k+1,i] b[m+2,k,i+1]^-1 "
                  "a[m+1,k,i]^-1 a[m,k,i+1]^-1",
    "rw_mixed_r": "forall m,k,i where i<=%d : "
                  "b[m,k,i+1] a[m,k+1,i] a[m+1,k+1,i+1] b[m+2,k,i]^-1 "
                  "a[m+1,k,i+1]^-1 a[m,k,i]^-1",
}
RAW_SG_EXTRA = {
    "rw_comm_sr_eq": "forall m,k,i : a[m,k,i] b[m+1,k,i] a[m,k+1,i]^-1 b[m,k,i]^-1",
}


def _schema_line(rel):
    return str(rel)


def test_raw_gvb_matches_transcription():
    for n in (3, 5):
        raw = raw_derived("GVB", n)
        assert len(raw.relators) == 9
        for rel in raw.relators:
            expected = RAW_GVB[rel.label]
            if "%d" in expected:
                expected = expected % (n - 2)
            assert _schema_line(rel) == expected


def test_raw_sg_matches_transcription():
    raw = raw_derived("SG", 5)
    assert len(raw.relators) == 9
    labels = {rel.label for rel in raw.relators}
    assert "rw_braid_rr" not in labels
    for rel in raw.relators:
        expected = dict(RAW_GVB, **RAW_SG_EXTRA)[rel.label]
        if "%d" in expected:
            expected = expected % 3
        assert _schema_line(rel) == expected


def test_raw_lists_differ_exactly_by_the_companion_braid_and_same_strand_swap():
    gvb = {r.label for r in raw_derived("GVB", 5).relators}
    sg = {r.label for r in raw_derived("SG", 5).relators}
    assert gvb - sg == {"rw_braid_rr"}
    assert sg - gvb == {"rw_comm_sr_eq"}


def test_simplified_family_counts():
    assert len(simplified_derived("GVB", 5).relators) == 22
    assert len(simplified_derived("SG", 5).relators) == 19


def test_simplified_gvb4_vacuous_guards():
    gvb4 = simplified_derived("GVB", 4)
    for label in ("comm_ss_2j", "comm_rr_2j", "comm_sr_2j", "comm_sr_j2",
                  "comm_ss_jj", "comm_rr_jj", "comm_sr_jj",
                  "braid_ss_j", "braid_rr_j", "mixed_l_j", "mixed_r_j"):
        assert enumerate_instances(gvb4, relator(gvb4, label), 2) == []
    live = {r.label for r in gvb4.relators
            if enumerate_instances(gvb4, relator(gvb4, r.label), 1)}
    assert live == {"triv_a", "comm_ss_1j", "comm_sr_1j", "braid_ss_1", "braid_ss_2",
                    "braid_rr_1", "braid_rr_2", "mixed_l_1", "mixed_l_2",
                    "mixed_r_1", "mixed_r_2"}


def test_gvb3_and_sg3_surviving_families():
    gvb3 = simplified_derived("GVB", 3)
    live = {r.label for r in gvb3.relators
            if enumerate_instances(gvb3, relator(gvb3, r.label), 1)}
    assert live == {"triv_a", "braid_ss_1", "braid_rr_1", "mixed_l_1", "mixed_r_1"}
    sg3 = simplified_derived("SG", 3)
    live = {r.label for r in sg3.relators
            if enumerate_instances(sg3, relator(sg3, r.label), 1)}
    assert live == {"braid_ss_1", "mixed_l_1", "mixed_r_1", "mixed_eq_2"}


def test_simplified_instances_unrename_into_the_kernel():
    for group in ("GVB", "SG"):
        pres = simplified_derived(group, 5)
        for rel in pres.relators:
            for w in enumerate_instances(pres, rel, 2)[:10]:
                full = normalize([(unrename(g), e) for g, e in w.letters])
                assert bidegree(expand(full, 5)) == (0, 0)


def test_raw_instances_expand_to_conjugated_ambient_relators():
    # every instance of a rewritten family expands back to the matching
    # conjugate of the ambient relator it came from, including the special
    # bindings where dropped trivial letters make the words differ
    from braidcomm.rewriting import representative
    from braidcomm.schemas import enumerate_bindings

    for group, n in (("GVB", 4), ("SG", 4)):
        ambient = catalog(group, n)
        raw = raw_derived(group, n)
        for amb_rel in ambient.relators:
            raw_rel = relator(raw, f"rw_{amb_rel.label}")
            for bindings in enumerate_bindings(ambient, amb_rel, 0):
                inst = instantiate(amb_rel, bindings)
                for m, k in ((0, 0), (2, -1), (-3, 3)):
                    image = instantiate(raw_rel, dict(bindings, m=m, k=k))
                    assert expand(image, n) == conjugate(inst, representative(m, k))


def test_rewriting_matches_the_generic_schema_letterwise_away_from_trivia():
    # at bindings where no trivial pair occurs the two routes agree letter
    # for letter, not merely after expansion
    from braidcomm.rewriting import representative, rewrite

    ambient = catalog("GVB", 4)
    raw = raw_derived("GVB", 4)
    inst = instantiate(relator(ambient, "mixed_l"), {"i": 2})
    direct = rewrite(conjugate(inst, representative(1, 2)), 4)
    via_schema = instantiate(relator(raw, "rw_mixed_l"), {"m": 1, "k": 2, "i": 2})
    assert direct == via_schema
    assert str(via_schema) == \
        "b[1,2,2] a[1,3,3] a[2,3,2] b[3,2,3]^-1 a[2,2,2]^-1 a[1,2,3]^-1"


def test_verify_simplification_small_windows():
    assert verify_simplification("GVB", 3, 3).ok
    assert verify_simplification("SG", 3, 3).ok
    assert verify_simplification("GVB", 4, 3).ok


def test_simplification_comparison_detects_discrepancies():
    # comparing the GVB replay against the SG list must fail: the check
    # is not vacuous
    from braidcomm.replays import simplify
    from braidcomm.tietze import MARGIN

    p = simplify("GVB", 3, 3)
    replayed = p.interior_relator_set()
    target = simplified_derived("SG", 3)
    expected = instance_set(target, target.relators, 3, interior=3 - MARGIN)
    assert replayed != expected


def test_a_dropped_stored_schema_refutes_the_relator_list(monkeypatch):
    from dataclasses import replace

    from braidcomm import registry, replays

    # drop the first stored GVB'_3 schema; its replayed instances come out extra
    def dropped(group, n):
        pres = simplified_derived(group, n)
        return replace(pres, relators=pres.relators[1:])

    monkeypatch.setattr(replays, "simplified_derived", dropped)
    match = verify_simplification("GVB", 3, 3)
    assert not match.ok and match.extra and not match.missing
    [result] = registry.run(claim_filter="relator-list:gvb:3", groups="gvb",
                            ns=(3,), window=3).results
    assert result.verdict == "refuted"
    assert result.detail == f"0 missing / {len(match.extra)} extra relators"


def test_derived_bundle_round_trips_through_the_grammar():
    for pres in (catalog("SG", 4), raw_derived("SG", 4), simplified_derived("SG", 4)):
        assert parse_presentation(str(pres)) == pres
