import dataclasses
import json

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


def test_verify_unknown_claim_filter(capsys):
    with pytest.raises(KeyError):
        cli.main(["verify", "--claims", "nonsense-claim-id"])


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


def test_replay_unknown_script(capsys):
    assert cli.main(["replay", "--script", "nope", "--window", "3"]) == 2


@pytest.mark.parametrize("argv,flag", [
    (("verify", "--window", "-3", "--claims", "expansion-identity"), "--window"),
    (("verify", "--window", "2"), "--window"),
    (("replay", "--script", "gvb3-free-quotient", "--window", "-1"), "--window"),
    (("verify", "--n", "3,x"), "--n"),
])
def test_bad_window_or_n_exits_two_with_one_error_line(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and f"argument {flag}:" in errors[0]
    assert "Traceback" not in captured.err


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
