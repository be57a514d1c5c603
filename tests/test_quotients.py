from math import factorial

import pytest

from braidcomm.abelian import abelian_invariants, abelian_invariants_of_matrix, relation_matrix
from braidcomm.catalog import _core, catalog
from braidcomm.derived import simplified_derived
from braidcomm.quotients import (
    EDGES,
    CertificateError,
    absorb,
    free_quotient_certificate_gvb3,
    permutation_of_word,
    quotient_by,
    rewrite_step,
    sg3_abelianization_certificate,
    sg3_as_quotient_of_sg4,
    sg3_quotient_matches,
    verify_diagram_edge,
)
from braidcomm.schemas import aff, instance_set, schema
from braidcomm.tietze import TruncatedPresentation
from braidcomm.words import canonical_cyclic, fmt_gen, word
from oracles import gen, multiply_permutations


def test_quotient_by_appends_nothing_for_empty_extras():
    gvb = catalog("GVB", 4)
    assert quotient_by(gvb, []).relators == gvb.relators


def test_quotient_by_rejects_foreign_families():
    b4 = catalog("B", 4)
    foreign = schema("kill_r", ("i",), [("r", [aff("i")], 1)])
    with pytest.raises(ValueError, match="undeclared"):
        quotient_by(b4, [foreign])


def test_all_diagram_edges_match_for_small_n():
    for edge in EDGES:
        for n in (3, 4):
            report = verify_diagram_edge(edge, n)
            assert report.ok, str(report)


def test_diagram_edges_still_match_at_five_strands():
    for edge in ("alpha", "gamma", "kappa", "delta"):
        assert verify_diagram_edge(edge, 5).ok


def test_a_mismatching_edge_prints_mismatch(monkeypatch):
    from braidcomm import quotients, registry

    # B without s[i]^2 = 1 is not S
    monkeypatch.setitem(quotients.EDGES, "beta", ("B", "S", ()))
    report = verify_diagram_edge("beta", 3)
    assert not report.ok and report.relators.missing and not report.relators.extra
    assert str(report) == "edge beta (n=3): MISMATCH, permutation cross-check passed"
    [result] = registry.run(claim_filter="diagram:beta:3", groups="gvb",
                            ns=(3,), window=3).results
    assert result.verdict == "refuted"
    assert result.detail == str(report)


def test_sn_landing_edges_run_the_permutation_channel():
    assert verify_diagram_edge("beta", 4).permutation_check is True
    assert verify_diagram_edge("delta", 3).permutation_check is True
    assert verify_diagram_edge("alpha", 4).permutation_check is None


@pytest.mark.parametrize("edge", ["beta", "delta"])
@pytest.mark.parametrize("n", [3, 4])
def test_sn_targets_have_order_n_factorial_by_todd_coxeter(edge, n):
    fp_groups = pytest.importorskip(
        "sympy.combinatorics.fp_groups",
        reason="sympy is an optional test-only channel for coset enumeration")
    from sympy.combinatorics.free_groups import free_group

    source, target, added = EDGES[edge]
    assert target == "S"
    pres = quotient_by(catalog(source, n), [_core(n)[label] for label in added])
    gens = pres.alphabet().gens_in_window(0)
    free, *letters = free_group(",".join(map(fmt_gen, gens)))
    letter = dict(zip(gens, letters))
    relators = []
    for w in instance_set(pres, pres.relators, 0):
        element = free.identity
        for g, e in w.letters:
            element *= letter[g] ** e
        relators.append(element)
    order = fp_groups.FpGroup(free, relators).order()
    assert order == factorial(n)


def test_permutation_images_against_multiplication_oracle():
    # s2 r1 s2^-1 r1^-1 should multiply out like the bare transpositions
    w = word(gen("s", 2), gen("r", 1), (gen("s", 2), -1), (gen("r", 1), -1))
    t1 = (1, 0, 2, 3)
    t2 = (0, 2, 1, 3)
    assert permutation_of_word(w, 4) == multiply_permutations([t2, t1, t2, t1])


def test_rewrite_step_demands_a_backing_relator():
    x = gen("x", 1)
    w = word((x, 2))
    pool = {canonical_cyclic(word((x, 2)))}
    assert rewrite_step(w, word((x, 2)), word(), pool) == word()
    with pytest.raises(CertificateError, match="not backed"):
        rewrite_step(w, word(x), word(), pool)
    with pytest.raises(CertificateError, match="does not occur"):
        rewrite_step(word(gen("y", 1)), word((x, 2)), word(), pool)


def test_absorb_rejects_leftovers():
    x = gen("x", 1)
    pool = {canonical_cyclic(word((x, 2)))}
    with pytest.raises(CertificateError, match="nonempty"):
        absorb(word((x, 3)), [(word((x, 2)), word())], pool)


def test_free_quotient_ranks_grow():
    ranks = [free_quotient_certificate_gvb3(M) for M in (3, 4, 5)]
    assert ranks == [2, 4, 6]


def test_sg3_certificate_ranks_and_cross_check():
    # the certificate raises on torsion and on a disagreeing direct route
    for M, expected in ((4, 10), (5, 14)):
        assert sg3_abelianization_certificate(M) == expected


def test_sg3_certificate_reduces_each_matrix_once(monkeypatch):
    from braidcomm.abelian import LatticeReduction

    shapes = []
    run = LatticeReduction.run

    def recorded(red):
        shapes.append((len(red.rows), red.ncols))
        return run(red)

    monkeypatch.setattr(LatticeReduction, "run", recorded)
    sg3_abelianization_certificate(4)
    # the replayed matrix R, then [E; R]; the direct matrix, then its stack
    assert shapes == [(42, 46), (52, 46), (324, 208), (334, 208)]


def test_sg3_certificate_refuses_a_disagreeing_direct_route(monkeypatch):
    from braidcomm import quotients, registry

    # the direct route reads SG'_3 with a[0,0,2] killed, so its rank drops
    # by one while the replayed route is untouched
    kill = schema("kill", (), [("a", [0, 0, 2], 1)])
    original = quotients.simplified_derived
    monkeypatch.setattr(quotients, "simplified_derived",
                        lambda group, n: quotient_by(original(group, n), [kill]))
    with pytest.raises(CertificateError, match="disagree"):
        sg3_abelianization_certificate(4)
    [result] = registry.run(claim_filter="not-perfect:sg:3", groups="sg",
                            ns=(3,), window=4).results
    assert result.verdict == "refuted"
    assert result.detail.startswith("CertificateError:")


def test_certificate_window_bounds():
    with pytest.raises(ValueError):
        free_quotient_certificate_gvb3(2)
    with pytest.raises(ValueError):
        sg3_abelianization_certificate(3)


def test_sg3_as_quotient_of_sg4_and_mutation():
    assert sg3_as_quotient_of_sg4(4).ok
    assert sg3_as_quotient_of_sg4(3).ok
    mutated = sg3_as_quotient_of_sg4(4, keep={("b", (0, 3))})
    assert not mutated.ok and mutated.extra


@pytest.mark.parametrize("window", [3, 4, 5, 6])
def test_shared_quotient_matches_equal_separate_calls(window):
    keep = frozenset({("b", (0, 3))})
    main, mutated = sg3_as_quotient_of_sg4(window), sg3_as_quotient_of_sg4(window, keep=set(keep))
    assert sg3_quotient_matches(window, (frozenset(), keep)) == [main, mutated]
    # the keep set first: the plain trim then follows a spared one
    assert sg3_quotient_matches(window, (keep, frozenset())) == [mutated, main]
    assert main.ok and mutated.extra


def test_an_undetected_mutation_refutes_the_sg4_quotient(monkeypatch):
    from braidcomm import quotients, registry

    mutated = sg3_as_quotient_of_sg4(4, keep={("b", (0, 3))})
    assert mutated.extra and not mutated.missing
    assert str(mutated) == f"0 missing / {len(mutated.extra)} extra relators"
    # a substitution that ignores its keep sets cannot detect the mutation
    original = quotients.sg3_quotient_matches
    monkeypatch.setattr(quotients, "sg3_quotient_matches",
                        lambda window, keeps: original(window, (frozenset(),) * len(keeps)))
    [result] = registry.run(claim_filter="sg3-quotient-of-sg4", groups="sg",
                            ns=(4,), window=4).results
    assert result.verdict == "refuted"
    assert result.detail == ("substitution: 0 missing / 0 extra relators; "
                             "mutation: 0 missing / 0 extra relators")


def test_quotient_then_abelianize_commutes():
    # adding relator instances to the presentation, then abelianizing,
    # equals stacking their exponent rows onto the abelianized matrix
    base = simplified_derived("GVB", 3)
    extra = schema("w", ("m", "k"),
                   [("a", [aff("m"), aff("k"), 1], 1), ("a", [aff("m", 1), aff("k"), 2], 1)])
    for M in (2, 3):
        quotiented = TruncatedPresentation.from_schema(
            quotient_by(base, [extra]), M)
        route_one = abelian_invariants(quotiented)
        plain = TruncatedPresentation.from_schema(base, M)
        mat = relation_matrix(plain)
        rows = list(mat.rows)
        for rel in quotient_by(base, [extra]).relators:
            if rel.label != "w":
                continue
            from braidcomm.schemas import enumerate_instances
            for w in enumerate_instances(base, rel, M):
                rows.append({mat.index[g]: e for g, e in w.exponent_vector().items()})
        route_two = abelian_invariants_of_matrix(rows, len(mat.gens))
        assert route_one == route_two
