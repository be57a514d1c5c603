import pytest

from braidcomm.catalog import catalog
from braidcomm.schemas import enumerate_instances, instance_set
from braidcomm.words import word
from oracles import bidegree, gen, relator


def _all_instances(pres, window=0):
    out = []
    for rel in pres.relators:
        out.extend(enumerate_instances(pres, rel, window))
    return out


def test_rejects_small_n_and_unknown_family():
    with pytest.raises(ValueError):
        catalog("GVB", 2)
    with pytest.raises(KeyError):
        catalog("XX", 4)


def test_generator_counts():
    for n in (3, 4, 5):
        for fam in ("B", "S"):
            assert len(catalog(fam, n).alphabet().gens_in_window(0)) == n - 1
        for fam in ("VB", "WB", "GVB", "SG", "UB"):
            assert len(catalog(fam, n).alphabet().gens_in_window(0)) == 2 * (n - 1)


def test_braid_group_on_three_strands():
    b3 = catalog("B", 3)
    assert [len(p.families) for p in [b3]] == [1]
    inst = _all_instances(b3)
    assert inst == [word(gen("s", 1), gen("s", 2), gen("s", 1),
                         (gen("s", 2), -1), (gen("s", 1), -1), (gen("s", 2), -1))]


def test_gvb3_has_no_far_commutations():
    gvb3 = catalog("GVB", 3)
    labels = {r.label for r in gvb3.relators}
    assert labels == {"comm_ss", "comm_rr", "comm_sr", "braid_ss", "braid_rr",
                      "mixed_l", "mixed_r"}
    for label in ("comm_ss", "comm_rr", "comm_sr"):
        assert enumerate_instances(gvb3, relator(gvb3, label), 0) == []
    for label in ("braid_ss", "braid_rr", "mixed_l", "mixed_r"):
        assert len(enumerate_instances(gvb3, relator(gvb3, label), 0)) == 1


def test_sg3_relator_shapes():
    sg3 = catalog("SG", 3)
    inst = {str(w) for w in _all_instances(sg3)}
    assert "s1 s2 s1 s2^-1 s1^-1 s2^-1" in inst          # crossing braid
    assert "r1 s2 s1 r2^-1 s1^-1 s2^-1" in inst          # mixed, left form
    assert "r2 s1 s2 r1^-1 s2^-1 s1^-1" in inst          # mixed, right form
    assert "s1 r1 s1^-1 r1^-1" in inst                   # same-strand commutation
    assert "s2 r2 s2^-1 r2^-1" in inst
    assert len(inst) == 5


def test_relators_of_bidegree_graded_groups_are_balanced():
    # the groups whose abelianization is free of rank <= 2; the involutive
    # families (S, VB, WB) impose s[i]^2 = 1 and are deliberately excluded
    for fam in ("B", "UB", "GVB", "SG"):
        for n in (3, 4, 5):
            for w in _all_instances(catalog(fam, n), window=3):
                assert bidegree(w) == (0, 0)


def test_involutive_relator_is_not_balanced():
    s4 = catalog("S", 4)
    inst = enumerate_instances(s4, relator(s4, "invol_s"), 0)
    assert {bidegree(w) for w in inst} == {(2, 0)}


def test_gvb_and_sg_share_everything_but_the_companion_relations():
    for n in (3, 4, 5):
        gvb = {r.label: r for r in catalog("GVB", n).relators}
        sg = {r.label: r for r in catalog("SG", n).relators}
        shared = set(gvb) & set(sg)
        assert shared == {"comm_ss", "braid_ss", "comm_rr", "comm_sr",
                          "mixed_l", "mixed_r"}
        for label in shared:
            assert gvb[label] == sg[label]
        assert set(gvb) - set(sg) == {"braid_rr"}
        assert set(sg) - set(gvb) == {"comm_sr_eq"}


def test_ub_relators_are_a_subset_of_both_extensions():
    for n in (3, 4, 5):
        ub = catalog("UB", n)
        ub_set = instance_set(ub, ub.relators, 0)
        for fam in ("GVB", "SG"):
            other = catalog(fam, n)
            assert ub_set <= instance_set(other, other.relators, 0)


def test_vb_uses_involutive_crossings():
    vb = catalog("VB", 4)
    labels = {r.label for r in vb.relators}
    assert "invol_s" in labels and "mixed_l" not in labels
    wb = catalog("WB", 4)
    assert {r.label for r in wb.relators} == labels | {"forbidden"}
