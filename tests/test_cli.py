import dataclasses
import json
from collections import Counter

import pytest

from braidcomm import cli, quotients, registry
from braidcomm.grammar import parse_presentation
from braidcomm.registry import ClaimResult, VerificationReport, emit_table


def run_cli(capsys, *argv):
    status = cli.main(list(argv))
    out = capsys.readouterr().out
    return status, out


def test_verify_json_lines_is_deterministic(capsys):
    args = ("verify", "--group", "sg", "--n", "3", "--window", "4",
            "--claims", "ambient-ab", "--format", "json-lines")
    status1, out1 = run_cli(capsys, *args)
    status2, out2 = run_cli(capsys, *args)
    assert status1 == status2 == 0
    assert out1 == out2
    records = [json.loads(line) for line in out1.splitlines()]
    assert records == [{
        "claim": "ambient-ab:sg:3", "group": "sg", "n": 3, "window": 4,
        "verdict": "verified",
        "detail": "ambient abelianization: free rank 2, torsion []",
    }]


def one_error_line(capsys, argv) -> str:
    """Run argv, expect exit 2 with nothing on stdout and one error line."""
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1
    return errors[0]


def test_verify_unknown_claim_filter(capsys):
    error = one_error_line(capsys, ["verify", "--claims", "nonsense-claim-id"])
    assert "argument --claims:" in error and "nonsense-claim-id" in error


def test_verify_claim_filter_outside_the_selection(capsys):
    # "kappa" names only ub diagram edges, which --group sg leaves out
    error = one_error_line(capsys, ["verify", "--group", "sg", "--claims", "kappa",
                                    "--format", "json-lines"])
    assert "argument --claims:" in error and "'kappa'" in error
    assert "--group sg" in error and "--n 3,4,5,6" in error


@pytest.mark.parametrize("claim,window,effective", [
    ("fingen:sg:5", 3, 5),             # the replay clamps the window up
    ("expansion-identity:sg:3", 6, 3),  # the identity check clamps it down
    ("not-fingen:sg:4", 4, 6),          # the largest window of its prerequisites
    ("fp:sg", 4, None),                 # nothing was checked
])
def test_verify_reports_the_effective_window(capsys, claim, window, effective):
    status, out = run_cli(capsys, "verify", "--claims", claim, "--window", str(window),
                          "--format", "json-lines")
    records = [json.loads(line) for line in out.splitlines()]
    assert status == 0 and [r["claim"] for r in records] == [claim]
    assert records[0]["window"] == effective


def test_exit_status_tracks_refutations():
    ok = VerificationReport([ClaimResult("x", "sg", 3, 4, "verified", "")])
    assert ok.exit_status == 0
    bad = VerificationReport([ClaimResult("x", "sg", 3, 4, "refuted", "")])
    assert bad.exit_status == 1


def test_emit_table_rows_follow_the_claims_present():
    report = registry.run(claim_filter="perfect:sg", ns=(5,), window=4)
    table = emit_table(report)
    assert "SG'" in table and "GVB'" not in table


def test_export_presentation_round_trips(capsys):
    status, out = run_cli(capsys, "export-presentation", "--group", "sg", "--n", "4")
    assert status == 0
    pres = parse_presentation(out)
    assert pres.name == "SG" and pres.n == 4
    status, out = run_cli(capsys, "export-presentation", "--group", "gvb-derived", "--n", "5")
    assert status == 0
    assert parse_presentation(out).name == "GVB'"


def test_export_unknown_group(capsys):
    status = cli.main(["export-presentation", "--group", "zz", "--n", "4"])
    assert status == 2


def test_replay_writes_transcript(tmp_path, capsys):
    path = tmp_path / "transcript.txt"
    status, _ = run_cli(capsys, "replay", "--script", "gvb3-free-quotient",
                        "--window", "3", "--transcript", str(path))
    assert status == 0
    text = path.read_text()
    assert text.startswith("start gvb3-free-quotient")
    assert "interior survivors (2):" in text


def test_replay_checks_the_transcript_directory_first(tmp_path, capsys, monkeypatch):
    def never(window):
        raise AssertionError("the replay ran")

    monkeypatch.setitem(cli.replays.SCRIPTS, "gvb3-free-quotient", never)
    path = tmp_path / "no" / "such" / "t.txt"
    error = one_error_line(capsys, ["replay", "--script", "gvb3-free-quotient",
                                    "--window", "3", "--transcript", str(path)])
    assert "argument --transcript:" in error and str(path.parent) in error


def test_replay_refuses_a_directory_as_transcript_first(tmp_path, capsys, monkeypatch):
    def never(window):
        raise AssertionError("the replay ran")

    monkeypatch.setitem(cli.replays.SCRIPTS, "gvb3-free-quotient", never)
    error = one_error_line(capsys, ["replay", "--script", "gvb3-free-quotient",
                                    "--window", "3", "--transcript", str(tmp_path) + "/"])
    assert "argument --transcript:" in error and "is a directory" in error


def test_replay_unknown_script(capsys):
    assert cli.main(["replay", "--script", "nope", "--window", "3"]) == 2


@pytest.mark.parametrize("argv,flag", [
    (("verify", "--window", "-3", "--claims", "expansion-identity"), "--window"),
    (("verify", "--window", "2"), "--window"),
    (("replay", "--script", "gvb3-free-quotient", "--window", "-1"), "--window"),
    (("verify", "--n", "3,x"), "--n"),
    (("verify", "--n", "99"), "--n"),
    (("export-presentation", "--group", "sg", "--n", "2"), "--n"),
    (("export-presentation", "--group", "sg", "--n", "0"), "--n"),
    (("export-presentation", "--group", "sg", "--n", "-1"), "--n"),
    (("verify", "--n", ",,,"), "--n"),
    (("verify", "--n", ""), "--n"),
])
def test_bad_window_or_n_exits_two_with_one_error_line(capsys, argv, flag):
    assert f"argument {flag}:" in one_error_line(capsys, argv)


def test_one_failing_claim_does_not_abort_the_batch(monkeypatch):
    def broken(window):
        raise quotients.CertificateError("forged failure")

    claims = [dataclasses.replace(c, runner=broken) if c.id == "ambient-ab:sg:4" else c
              for c in registry.REGISTRY]
    monkeypatch.setattr(registry, "REGISTRY", claims)
    report = registry.run(claim_filter="ambient-ab:sg", window=4)
    verdicts = {r.claim: (r.verdict, r.detail) for r in report.results}
    assert verdicts.pop("ambient-ab:sg:4") == ("refuted", "CertificateError: forged failure")
    assert sorted(verdicts) == ["ambient-ab:sg:3", "ambient-ab:sg:5", "ambient-ab:sg:6"]
    assert all(verdict == "verified" for verdict, _ in verdicts.values())
    assert report.exit_status == 1


def test_prerequisites_exist_and_form_no_cycle():
    by_id = {c.id: c for c in registry.REGISTRY}
    assert len(by_id) == len(registry.REGISTRY)
    finished: set[str] = set()

    def visit(cid, path):
        assert cid in by_id, f"{path[-1]} requires unknown claim {cid}"
        assert cid not in path, f"cycle through {path + (cid,)}"
        if cid not in finished:
            for pid in by_id[cid].requires:
                visit(pid, path + (cid,))
            finished.add(cid)

    for cid in by_id:
        visit(cid, ())


def forged_refutation(window):
    return "refuted", "forged refutation", 6


def forged_error(window):
    raise quotients.CertificateError("forged failure")


@pytest.mark.parametrize("runner", [forged_refutation, forged_error])
def test_refuted_prerequisite_refutes_its_heirs(monkeypatch, runner):
    claims = [dataclasses.replace(c, runner=runner) if c.id == "not-fingen:sg:3" else c
              for c in registry.REGISTRY]
    monkeypatch.setattr(registry, "REGISTRY", claims)
    report = registry.run(claim_filter="not-fingen", window=4)
    results = {r.claim: r for r in report.results}
    assert results["not-fingen:sg:3"].verdict == "refuted"
    assert results["not-fingen:gvb:3"].verdict == "verified"
    for heir in ("not-fingen:sg:4", "not-fingen:ub:3", "not-fingen:ub:4"):
        assert results[heir].verdict == "refuted"
        assert "prerequisite" in results[heir].detail
        assert "not-fingen:sg:3" in results[heir].detail
    assert report.exit_status == 1


CHECKS = ("sg3_abelianization_certificate", "free_quotient_certificate_gvb3",
          "sg3_as_quotient_of_sg4", "verify_diagram_edge")


@pytest.fixture(scope="module")
def counted_batch():
    """One full batch at window 4, counting runner, certificate and edge calls."""
    runner_calls: Counter = Counter()
    check_calls: list = []

    def counted_runner(claim):
        def runner(window):
            runner_calls[claim.id] += 1
            return claim.runner(window)
        return dataclasses.replace(claim, runner=runner)

    def counted_check(name, fn):
        def check(*args, **kwargs):
            check_calls.append((name, args, repr(sorted(kwargs.items()))))
            return fn(*args, **kwargs)
        return check

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(registry, "REGISTRY", [counted_runner(c) for c in registry.REGISTRY])
        for name in CHECKS:
            mp.setattr(quotients, name, counted_check(name, getattr(quotients, name)))
        report = registry.run(window=4)
    return report, runner_calls, check_calls


def test_a_batch_checks_each_claim_once(counted_batch):
    report, runner_calls, check_calls = counted_batch
    assert len(report.results) == len(registry.REGISTRY)
    assert max(runner_calls.values()) == 1
    assert len(check_calls) == 26 and len(set(check_calls)) == 24


def test_single_claim_matches_the_batch(counted_batch):
    report, _, _ = counted_batch
    batch = {r.claim: r for r in report.results}
    single = registry.run(claim_filter="not-fingen:ub:4", window=4)
    assert [r.claim for r in single.results] == ["not-fingen:ub:4"]
    assert single.results[0] == batch["not-fingen:ub:4"]
