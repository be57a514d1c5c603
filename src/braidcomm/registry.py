"""Claim registry and verification reports.

Every claim the batch runner knows is a data record binding an id, the
group and strand count it concerns, a one-line statement, the ids of the
claims it requires, and the runner that checks it.  Verdicts come from a
four-value enum:

  verified          the check ran and passed
  refuted           the check ran and failed
  externally-cited  recorded on outside authority, never machine-checked
  out-of-scope      tracked for the summary table but not examined

Claims about groups that merely inherit a property through a verified
surjection (finite generation and perfectness pass to quotients) require
the claims for the covering group and the surjection identification; their
runners only spell the inheritance out.  ``run`` checks each claim at most
once per call and refutes a claim whose prerequisite is not verified.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial

from . import abelian, quotients, replays
from .catalog import catalog
from .derived import verify_simplification
from .rewriting import expansion_identity_holds
from .tietze import ReplayError, TruncatedPresentation


@dataclass
class ClaimResult:
    claim: str
    group: str
    n: int | None
    window: int | None  # the largest window the checks behind the verdict ran at
    verdict: str
    detail: str

    def json_line(self) -> str:
        return json.dumps({
            "claim": self.claim, "group": self.group, "n": self.n,
            "window": self.window, "verdict": self.verdict, "detail": self.detail,
        }, sort_keys=True)


@dataclass
class VerificationReport:
    results: list[ClaimResult] = field(default_factory=list)

    @property
    def refuted(self) -> list[ClaimResult]:
        return [r for r in self.results if r.verdict == "refuted"]

    @property
    def exit_status(self) -> int:
        return 1 if self.refuted else 0


def _verdict(ok: bool) -> str:
    return "verified" if ok else "refuted"


# ---------------------------------------------------------------------------
# claim runners; each is called as runner(window) and returns
# (verdict, detail, window the check ran at).  A check that does not
# truncate reports the requested window; one that checks nothing, None.


def _run_expansion_identity(group: str, n: int, window: int):
    bound = min(window, 3)
    ok, checked = expansion_identity_holds(group, n, bound)
    return _verdict(ok), f"{checked} (relator, key) pairs with |m|,|k| <= {bound}", bound


def _run_relator_list(group: str, n: int, window: int):
    M = max(window, 3)
    rep = verify_simplification(group, n, M)
    detail = "replayed collapse reproduces the stored list on the interior" if rep.ok else str(rep)
    return _verdict(rep.ok), detail, M


_FINGEN_SCRIPTS = {
    ("GVB", 4): "fingen-gvb4", ("GVB", 5): "fingen-gvb-n5", ("GVB", 6): "fingen-gvb-n6",
    ("SG", 5): "fingen-sg-n5", ("SG", 6): "fingen-sg-n6",
}


def _run_fingen(group: str, n: int, window: int):
    M = max(window, 5)
    # the start holds only the relators the moves read; see replays
    p = replays.SCRIPTS[_FINGEN_SCRIPTS[(group, n)]](M)
    survivors = p.interior()
    expected = replays.expected_fingen_survivors(group, n)
    ok = survivors == expected
    return _verdict(ok), f"{len(survivors)} interior generators survive the collapse at window {M}", M


def _run_gvb3_not_fingen(window: int):
    windows = (3, 4, min(max(window, 5), 7))
    ranks = [quotients.free_quotient_certificate_gvb3(M) for M in windows]
    ok = ranks == sorted(set(ranks)) and all(r == 2 * (M - 2) for r, M in zip(ranks, windows))
    return _verdict(ok), f"free quotient ranks {ranks} grow with the window", windows[-1]


def _run_sg3_not_fingen(window: int):
    windows = (4, 5, min(max(window, 6), 8))
    ranks = [quotients.sg3_abelianization_certificate(M) for M in windows]
    ok = ranks == sorted(set(ranks)) and all(
        r == 2 * (2 * (M - 2) + 1) for r, M in zip(ranks, windows))
    return _verdict(ok), f"torsion-free quotient ranks {ranks} grow with the window", windows[-1]


def _run_perfect(group: str, n: int, window: int):
    M = max(window, 4)
    rep = abelian.perfectness_window_check(group, n, M)
    return _verdict(rep.perfect_on_interior), str(rep), M


def _run_gvb3_not_perfect(window: int):
    M = max(window, 4)
    rank = quotients.free_quotient_certificate_gvb3(M)
    return _verdict(rank > 0), (f"surjects onto a free group of rank {rank}; "
                                "its abelianization is nontrivial"), M


def _run_sg3_not_perfect(window: int):
    M = max(window, 4)
    rank = quotients.sg3_abelianization_certificate(M)
    return _verdict(rank > 0), f"abelianization has free rank {rank} on the interior", M


def _run_ambient_ab(group: str, n: int, window: int):
    p = TruncatedPresentation.from_schema(catalog(group, n), 0)
    free_rank, torsion = abelian.abelian_invariants(p)
    ok = free_rank == 2 and not torsion
    return _verdict(ok), f"ambient abelianization: free rank {free_rank}, torsion {torsion}", window


def _run_edge(edge: str, n: int, window: int):
    rep = quotients.verify_diagram_edge(edge, n)
    return _verdict(rep.ok), str(rep), window


def _run_sg3_quotient(window: int):
    M = max(window, 4)
    main, mutated = quotients.sg3_quotient_matches(M, (frozenset(), frozenset({("b", (0, 3))})))
    ok = main.ok and not mutated.ok
    return _verdict(ok), ("substitution matches and the mutation is detected" if ok
                          else f"substitution: {main}; mutation: {mutated}"), M


def _stated(verdict: str, detail: str):
    """A runner that checks nothing itself: an inheritance spelled out once
    its prerequisites are verified, a citation, or an untracked claim."""
    return lambda window: (verdict, detail, None)


@dataclass(frozen=True)
class Claim:
    id: str
    group: str  # "gvb", "sg", "ub"
    n: int | None
    statement: str
    runner: object
    requires: tuple[str, ...] = ()


def build_registry() -> list[Claim]:
    claims: list[Claim] = []

    def add(cid, group, n, statement, runner, requires=()):
        claims.append(Claim(cid, group, n, statement, runner, requires))

    for g, tag in (("GVB", "gvb"), ("SG", "sg")):
        for n in (3, 4, 5, 6):
            add(f"expansion-identity:{tag}:{n}", tag, n,
                f"rewriting then expanding every conjugated {g}_{n} relator returns it",
                partial(_run_expansion_identity, g, n))
            add(f"relator-list:{tag}:{n}", tag, n,
                f"the stored {g}'_{n} relator list is reproduced by replayed collapse",
                partial(_run_relator_list, g, n))
            add(f"ambient-ab:{tag}:{n}", tag, n, f"{g}_{n} abelianizes to Z x Z",
                partial(_run_ambient_ab, g, n))
    add("fingen:gvb:4", "gvb", 4, "GVB'_4 is generated by 9 elements",
        partial(_run_fingen, "GVB", 4))
    for n in (5, 6):
        add(f"fingen:gvb:{n}", "gvb", n, f"GVB'_{n} is generated by {3 * n - 7} elements",
            partial(_run_fingen, "GVB", n))
        add(f"fingen:sg:{n}", "sg", n, f"SG'_{n} is generated by {2 * n - 4} elements",
            partial(_run_fingen, "SG", n))
    sg3_to_sg4 = _stated("verified", "inherits from SG'_3 through the verified quotient map")
    add("not-fingen:gvb:3", "gvb", 3, "GVB'_3 is not finitely generated", _run_gvb3_not_fingen)
    add("not-fingen:sg:3", "sg", 3, "SG'_3 is not finitely generated", _run_sg3_not_fingen)
    add("not-fingen:sg:4", "sg", 4, "SG'_4 is not finitely generated", sg3_to_sg4,
        requires=("sg3-quotient-of-sg4", "not-fingen:sg:3"))
    for n in (3, 4):
        add(f"not-fingen:ub:{n}", "ub", n, f"UB'_{n} is not finitely generated",
            _stated("verified", f"inherits from SG'_{n} through the verified surjection"),
            requires=(f"diagram:kappa:{n}", f"not-fingen:sg:{n}"))
    for g, tag in (("GVB", "gvb"), ("SG", "sg")):
        for n in (5, 6):
            add(f"perfect:{tag}:{n}", tag, n, f"{g}'_{n} is perfect",
                partial(_run_perfect, g, n))
    add("not-perfect:gvb:3", "gvb", 3, "GVB'_3 is not perfect", _run_gvb3_not_perfect)
    add("not-perfect:gvb:4", "gvb", 4, "GVB'_4 is not perfect",
        _stated("externally-cited", "recorded on outside authority; not machine-checked here"))
    add("not-perfect:sg:3", "sg", 3, "SG'_3 is not perfect", _run_sg3_not_perfect)
    add("not-perfect:sg:4", "sg", 4, "SG'_4 is not perfect", sg3_to_sg4,
        requires=("sg3-quotient-of-sg4", "not-perfect:sg:3"))
    for edge in sorted(quotients.EDGES):
        for n in (3, 4):
            grp = {"alpha": "gvb", "gamma": "gvb", "beta": "gvb", "delta": "gvb",
                   "omega": "sg", "zeta": "gvb", "xi": "ub", "kappa": "ub"}[edge]
            add(f"diagram:{edge}:{n}", grp, n,
                f"quotient map {edge} at n={n} lands on its stated target",
                partial(_run_edge, edge, n))
    add("sg3-quotient-of-sg4", "sg", 4,
        "killing a[3] and b[m,3] in SG'_4 gives exactly SG'_3", _run_sg3_quotient)
    unexamined = _stated("out-of-scope", "finite presentability is open and not examined")
    add("fp:gvb", "gvb", None, "finite presentability of GVB'_n", unexamined)
    add("fp:sg", "sg", None, "finite presentability of SG'_n", unexamined)
    return claims


REGISTRY = build_registry()


def run(claim_filter: str = "", groups: str = "all", ns=(3, 4, 5, 6),
        window: int = 4) -> VerificationReport:
    """Execute the matching claims and everything they require; report the
    matching ones in id order.

    Each claim is checked at most once per call.  A claim whose prerequisite
    is not verified is refuted without running.  A runner that raises a
    certificate, replay or value error refutes its claim; the remaining
    claims still run."""
    by_id = {c.id: c for c in REGISTRY}
    if claim_filter and not any(claim_filter in cid for cid in by_id):
        raise KeyError(f"no claim id matches {claim_filter!r}")
    done: dict[str, ClaimResult] = {}

    def check(claim: Claim) -> ClaimResult:
        if claim.id in done:
            return done[claim.id]
        prereqs = [check(by_id[pid]) for pid in claim.requires]
        failed = next((r for r in prereqs if r.verdict != "verified"), None)
        used = None
        if failed is not None:
            verdict = "refuted"
            detail = f"prerequisite {failed.claim} is {failed.verdict}: {failed.detail}"
        else:
            try:
                verdict, detail, used = claim.runner(window)
            except (quotients.CertificateError, ReplayError, ValueError) as exc:
                # a check that cannot complete refutes its claim, never the batch
                verdict, detail = "refuted", f"{type(exc).__name__}: {exc}"
        windows = [w for w in (used, *(r.window for r in prereqs)) if w is not None]
        done[claim.id] = ClaimResult(claim.id, claim.group, claim.n,
                                     max(windows, default=None), verdict, detail)
        return done[claim.id]

    return VerificationReport([check(c) for c in select(claim_filter, groups, ns)])


def select(claim_filter: str = "", groups: str = "all", ns=(3, 4, 5, 6)) -> list[Claim]:
    """The claims :func:`run` reports, in id order."""
    wanted_groups = {"gvb", "sg", "ub"} if groups == "all" else {groups}
    return [c for c in sorted(REGISTRY, key=lambda c: c.id)
            if claim_filter in c.id and c.group in wanted_groups
            and (c.n is None or c.n in ns)]


# ---------------------------------------------------------------------------
# summary table


def _summarize(results: list[ClaimResult], prefix: str, yes_ns, no_ns) -> str:
    by_id = {r.claim: r for r in results}

    def mark(cid):
        r = by_id.get(cid)
        if r is None:
            return "?"
        return {"verified": "yes", "refuted": "REFUTED",
                "externally-cited": "cited", "out-of-scope": "-"}[r.verdict]

    yes = ", ".join(f"n={n}:{mark(f'{prefix}:{n}')}" for n in yes_ns if f"{prefix}:{n}" in by_id)
    no = ", ".join(f"n={n}:{mark(f'not-{prefix}:{n}')}" for n in no_ns
                   if f"not-{prefix}:{n}" in by_id)
    parts = [p for p in (yes, no and f"not for {no}") if p]
    return "; ".join(parts) if parts else "not run"


def emit_table(report: VerificationReport) -> str:
    """Summary rows mirroring the three headline properties per family."""
    rows = []
    for g, tag in (("GVB'", "gvb"), ("SG'", "sg")):
        results = [r for r in report.results if r.group == tag]
        if not results:
            continue
        fg = _summarize(results, f"fingen:{tag}", (4, 5, 6), (3, 4))
        perfect = _summarize(results, f"perfect:{tag}", (5, 6), (3, 4))
        rows.append((g, fg, perfect, "out-of-scope (open)"))
    ub = [r for r in report.results if r.claim.startswith("not-fingen:ub:")]
    if ub:
        fg = "; ".join(f"n={r.n}:{'not f.g.' if r.verdict == 'verified' else r.verdict}"
                       for r in sorted(ub, key=lambda r: r.claim))
        rows.append(("UB'", fg, "not examined", "not examined"))
    headers = ("", "finitely generated", "perfect", "finitely presented")
    table = [headers] + rows
    widths = [max(len(str(row[i])) for row in table) for i in range(4)]
    lines = []
    for row in table:
        lines.append("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def emit_claims(report: VerificationReport) -> str:
    lines = []
    for r in report.results:
        lines.append(f"[{r.verdict:>16}] {r.claim}: {r.detail}")
    return "\n".join(lines) + "\n"
