"""Acceptance suite: one criterion per test, one visible verdict line each.

Windows and tolerances are pinned here; every assertion is exact."""

import hashlib
import random

from braidcomm.abelian import IntegerMatrix, determinant, perfectness_window_check, smith_normal_form
from braidcomm.audit import audit_script
from braidcomm.catalog import catalog
from braidcomm.derived import verify_simplification
from braidcomm.quotients import (
    EDGES,
    free_quotient_certificate_gvb3,
    sg3_abelianization_certificate,
    sg3_as_quotient_of_sg4,
    verify_diagram_edge,
)
from braidcomm.registry import run as run_claims
from braidcomm.replays import MARGIN, SCRIPTS, expected_fingen_survivors
from braidcomm.rewriting import expansion_identity_holds
from braidcomm.tietze import TruncatedPresentation
from braidcomm.abelian import abelian_invariants

GROUPS = ("GVB", "SG")
STRANDS = (3, 4, 5, 6)


def _report(capfd, number: int, ok: bool, text: str) -> None:
    # bypass capture so the suite always shows one verdict line per criterion
    with capfd.disabled():
        line = f"ACCEPTANCE {number:>2}: {'PASS' if ok else 'FAIL'} - {text}"
        print(line, flush=True)


# (relator instance, representative) pairs at bound 3, n = 3..6
EXPANSION_PAIRS = {"GVB": [196, 686, 1470, 2548], "SG": [245, 735, 1519, 2597]}


def test_criterion_01_expansion_identity(capfd):
    failures = []
    checked = 0
    for group in GROUPS:
        for n in STRANDS:
            ok, pairs = expansion_identity_holds(group, n, 3)
            checked += pairs
            if not ok or pairs != EXPANSION_PAIRS[group][n - 3]:
                failures.append((group, n, pairs))
    _report(capfd, 1, not failures,
            f"expand(rewrite(c r c^-1)) == c r c^-1 for {checked} pairs, |m|,|k| <= 3")
    assert not failures


def test_criterion_02_relator_list_reproduction(capfd):
    failures = []
    for group in GROUPS:
        for n in STRANDS:
            rep = verify_simplification(group, n, 4)
            if not rep.ok:
                failures.append(str(rep))
    _report(capfd, 2, not failures,
            "replayed collapse reproduces the stored relator lists at window 4, n = 3..6")
    assert not failures, failures


def test_criterion_03_finite_generation_replays(capfd):
    expected_sizes = {("GVB", 4): 9, ("GVB", 5): 8, ("GVB", 6): 11,
                      ("SG", 5): 6, ("SG", 6): 8}
    names = {("GVB", 4): "fingen-gvb4", ("GVB", 5): "fingen-gvb-n5",
             ("GVB", 6): "fingen-gvb-n6", ("SG", 5): "fingen-sg-n5",
             ("SG", 6): "fingen-sg-n6"}
    failures = []
    for key, name in names.items():
        p = SCRIPTS[name](5)
        survivors = p.surviving_interior(MARGIN)
        if len(survivors) != expected_sizes[key] or \
                survivors != expected_fingen_survivors(*key):
            failures.append((key, sorted(survivors)))
    _report(capfd, 3, not failures,
            "interior survivor sets at window 5, margin 2: "
            "GVB'_4 -> 9, GVB'_5 -> 8, GVB'_6 -> 11, SG'_5 -> 6, SG'_6 -> 8")
    assert not failures, failures


def test_criterion_04_perfectness_window(capfd):
    perfect = [("GVB", 5), ("GVB", 6), ("SG", 5), ("SG", 6)]
    not_perfect = [("SG", 3), ("SG", 4), ("GVB", 3)]
    failures = []
    for group, n in perfect:
        if not perfectness_window_check(group, n, 6).perfect_on_interior:
            failures.append((group, n, "expected perfect"))
    for group, n in not_perfect:
        if perfectness_window_check(group, n, 6).perfect_on_interior:
            failures.append((group, n, "expected not perfect"))
    _report(capfd, 4, not failures,
            "window-6 verdicts: perfect for GVB'_5, GVB'_6, SG'_5, SG'_6; "
            "not for SG'_3, SG'_4, GVB'_3")
    assert not failures, failures


def test_criterion_05_rank_growth_certificates(capfd):
    free_ranks = [free_quotient_certificate_gvb3(M).rank for M in (3, 4, 5)]
    ab = [sg3_abelianization_certificate(M) for M in (4, 5, 6)]
    ab_ranks = [c.free_rank for c in ab]
    ok = (free_ranks == [2 * (M - 2) for M in (3, 4, 5)]
          and free_ranks == sorted(set(free_ranks))
          and ab_ranks == [2 * (2 * (M - 2) + 1) for M in (4, 5, 6)]
          and ab_ranks == sorted(set(ab_ranks))
          and all(c.torsion == [] and c.cross_checked for c in ab))
    _report(capfd, 5, ok, f"GVB'_3 free quotient ranks {free_ranks}; "
                   f"SG'_3 abelian quotient ranks {ab_ranks}; both strictly increasing")
    assert ok


def test_criterion_06_ambient_abelianization(capfd):
    failures = []
    for group in GROUPS:
        for n in STRANDS:
            p = TruncatedPresentation.from_schema(catalog(group, n), 0)
            if abelian_invariants(p) != (2, []):
                failures.append((group, n))
    _report(capfd, 6, not failures,
            "GVB_n and SG_n abelianize to Z x Z (free rank 2, no torsion), n = 3..6")
    assert not failures, failures


def test_criterion_07_surjection_diagram(capfd):
    failures = []
    for edge in sorted(EDGES):
        for n in (3, 4):
            rep = verify_diagram_edge(edge, n)
            if not rep.match:
                failures.append((edge, n, "mismatch"))
            lands_in_sym = EDGES[edge][1] == "S"
            if lands_in_sym and rep.permutation_check is not True:
                failures.append((edge, n, "permutation channel"))
    _report(capfd, 7, not failures,
            "all eight quotient-map identifications match at n = 3, 4; "
            "maps onto the symmetric group pass the permutation channel")
    assert not failures, failures


def test_criterion_08_sg3_as_quotient_of_sg4(capfd):
    main = sg3_as_quotient_of_sg4(4)
    mutated = sg3_as_quotient_of_sg4(4, keep={("b", (0, 3))})
    ok = main.match and not mutated.match
    _report(capfd, 8, ok, "SG'_4 with a[3], b[m,3] killed equals SG'_3 at window 4; "
                   "retaining b[0,3] is detected")
    assert ok


def test_criterion_09_snf_certificates(capfd):
    rng = random.Random(123457)
    failures = 0
    for _ in range(1000):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        m = IntegerMatrix([[rng.randint(-9, 9) for _ in range(cols)]
                           for _ in range(rows)])
        res = smith_normal_form(m)
        f = res.invariant_factors
        good = (res.u.matmul(m).matmul(res.v) == res.d
                and abs(determinant(res.u)) == 1
                and abs(determinant(res.v)) == 1
                and all(f[i + 1] % f[i] == 0 for i in range(len(f) - 1)))
        if not good:
            failures += 1
    _report(capfd, 9, failures == 0,
            f"1000 random matrices (dims <= 8, entries in [-9,9]): "
            f"U*A*V == D, unimodular transforms, divisibility chain; {failures} failures")
    assert failures == 0


def test_criterion_10_tietze_soundness_regression(capfd):
    failures = []
    steps = 0
    for name in sorted(SCRIPTS):
        try:
            rep = audit_script(SCRIPTS[name], name, 4, checkpoint_every=150)
            steps += rep.steps_verified
        except AssertionError as err:
            failures.append((name, str(err)))
    _report(capfd, 10, not failures,
            f"abelian invariants preserved across {steps} certified elimination "
            f"steps over all {len(SCRIPTS)} replay scripts at window 4")
    assert not failures, failures


def test_registry_ends_green():
    # the claim runner must agree with the criteria above and never refute
    report = run_claims(window=4)
    refuted = [r.claim for r in report.refuted]
    assert report.exit_status == 0 and not refuted, refuted
    # the exact output of `braidcomm verify --window 4 --format json-lines`,
    # so a speed change that moves any verdict, window or detail fails here
    output = "".join(r.json_line() + "\n" for r in report.results)
    assert hashlib.sha256(output.encode()).hexdigest() == (
        "4d96e8b12eb923ffecbc1178c900cc17d0212d7ada99e5c1a6a858f0d1357a04")
