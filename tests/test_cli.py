import dataclasses
import hashlib
import json
from collections import Counter

import pytest

from braidcomm import cli, quotients, registry
from braidcomm.grammar import parse_presentation
from braidcomm.registry import ClaimResult, VerificationReport, emit_table
from braidcomm.words import fmt_gen
from oracles import run_on_full_start


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
    error = one_error_line(capsys, ["export-presentation", "--group", "zz", "--n", "4"])
    assert "argument --group:" in error and "'zz'" in error


def test_replay_writes_transcript(tmp_path, capsys):
    path = tmp_path / "transcript.txt"
    status, _ = run_cli(capsys, "replay", "--script", "gvb3-free-quotient",
                        "--window", "3", "--transcript", str(path))
    assert status == 0
    text = path.read_text()
    assert text.startswith("start gvb3-free-quotient")
    assert "interior survivors (2):" in text


@pytest.mark.parametrize("script", sorted(cli.replays.SCRIPTS))
def test_replay_writes_the_full_route_transcript(script, tmp_path, capsys):
    """``replay`` runs on a pruned start; its bytes are the full start's."""
    path = tmp_path / "transcript.txt"
    status, _ = run_cli(capsys, "replay", "--script", script, "--window", "4",
                        "--transcript", str(path))
    assert status == 0
    full = run_on_full_start(cli.replays.SCRIPTS[script], 4)
    survivors = sorted(full.interior())
    assert path.read_bytes() == (
        full.transcript_text() + f"interior survivors ({len(survivors)}): "
        + ", ".join(map(fmt_gen, survivors)) + "\n").encode()


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
    error = one_error_line(capsys, ["replay", "--script", "nope", "--window", "3"])
    assert "argument --script:" in error and "'nope'" in error


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


# SHA-256 of every `export-presentation` output for n = 3..6; any change to a
# stored schema, its order or its spelling changes the hash
EXPORT_GOLDEN = {
    ("b", 3): "6146b21428e6a4783e1c8352366cd483f6089f18ca81d17075278d74b669c19c",
    ("s", 3): "7157cf617ff7ec3606a07e9cb3d7cb92ee29e29563d5c0955c18604310a5c77c",
    ("vb", 3): "d3c3f5ffcba06080727365b1ccb777a3a5c30f92678ab7c02c5c64e3d0d0bc3c",
    ("wb", 3): "373a2f622ac54931edd3bc7eeac9ce72724f9f4ca975b13ea563e2dc6a2db1a3",
    ("gvb", 3): "b37c0ad95e96a94ee4c5195608125592069e9d83f37efd785733e7264c63ea54",
    ("sg", 3): "5896370b37d764ddd970b2d11fc8bca7944feafec5477b4ef71ec7c1e4649238",
    ("ub", 3): "61cdea4989a447755eff813a98ea2068168904b40617c526881293ce1ddbbd19",
    ("gvb-derived", 3): "9392d4ed2ba6b77c911a7e123745f60561bf99ace41399502990ce40cd867f59",
    ("sg-derived", 3): "e45424677f5e39a3823ddeb7e5b8d22658163d771718270d3a3062c1d5aed448",
    ("gvb-derived-raw", 3): "f200181641453dc49fea3b015a45b6a818251775e7db5c7b573aeca7b41e4688",
    ("sg-derived-raw", 3): "2d446dad35d99dcb885e263ef3a465c9dc741560d2a671384c8ccddd81e0a251",
    ("b", 4): "20e0e89613b8b640afa73de15fb37c168076eb379382e5b360cd2dc09da11c2f",
    ("s", 4): "ce3693ac3f0f717cb0847e0a813603e12f874bd998c284d3f34c6756aea2ccb5",
    ("vb", 4): "14c8abe6eae168858ea04559fef9f8ca7be534ad92c8fb59cb4d5e59fab6a678",
    ("wb", 4): "2d242918c3305d0c098c79e3e6c9840e6f0f072a3bcf8d88641293f451e0924f",
    ("gvb", 4): "3e012319fd4744b0ea7d977e87dccf71ae6e6f490ce426fe40095469aefa2be2",
    ("sg", 4): "12b1d5b689a4eedcda8a9d103fac3876cf623e002eb3518a15e6aaf75f31cbe0",
    ("ub", 4): "a17d41846e56846fa6acf9798d8607d4c9c462abf7a43d6017c52339de7ee0d8",
    ("gvb-derived", 4): "53e0aaeb1714d619926048fd10019da9f5977e706f50f2753da93e9a5195d450",
    ("sg-derived", 4): "a6424711e4dc2e3f092db7cce49f91b81891a8f93ed0d13b08a420c5b68e732e",
    ("gvb-derived-raw", 4): "0c59aaca8c8c3d0a01cfce731ca480a41de72d60b36c4bcad337443e3831a625",
    ("sg-derived-raw", 4): "2921fd99fe36235d9d4778d95f70976ce6ec5015a5bc0f30937c55044110a18e",
    ("b", 5): "7b0e50724c23b7c5d8c434df0171858271b89359d340dcad648d642046361b64",
    ("s", 5): "83178fc9cb733072532136c6c3ce60694711afdb1446a22f3e6e50e88cbed19d",
    ("vb", 5): "5ac5f7a5455f56aecbf903077e7ebdcc78c4778e9a9f8bf14487c7647724eed7",
    ("wb", 5): "8ba92bcc8dba4af453aad938645f7cb706afd2fbbef161d688b28dd711c1903f",
    ("gvb", 5): "31ed3dbe46271f3205461e38039d799fce94d43fa3fea376c4a8dd1092d8fd5a",
    ("sg", 5): "8e713cb1d7fd5594095f1e80299db74ec9d1bc0b508debd630db4b4f7e278b8c",
    ("ub", 5): "1094c2fbbe7baf9a29f85d1a81eebfe4f36544e2f0c221c63d584440f655df72",
    ("gvb-derived", 5): "c4ddc2668f4570407e7bc83a7a1c0bd9df2ffb8d0ca128543269245194272b4f",
    ("sg-derived", 5): "2c85d62ee7471966919ed4e2e03b974cfc3958fbeeafb105ecedb4b812497d6e",
    ("gvb-derived-raw", 5): "ec37a2ca70792811452f43746189a4f86818890cbf053b371728670b28999ed8",
    ("sg-derived-raw", 5): "b4f3487675aba32a0dfbeca1d9baf2f3d8899d31489c37c0e8e3d1d1304c63e4",
    ("b", 6): "32c9096c0911489d792ce30fb71df665fff4b985a43f53e74f919e5568bfc4dc",
    ("s", 6): "879c48a7c79ae5ede46ceb5883ad0461f043f33a1f9fa6ae0e708d4482653ef9",
    ("vb", 6): "d99dc4088905f71569415f27004acbf9395e7e6674460cd586325529c4799991",
    ("wb", 6): "13db0aef5c01dc965dabae3b346e6685c276cf29073d1363c8d330e60376fa71",
    ("gvb", 6): "975635a1274608fc452028fbbe133f49f6082e79cbfd34692f8ba2e7222b4fb9",
    ("sg", 6): "89956b83aa8332e8331b21f23e52d94e2230801702e6ff2d0f6387e15e5906c7",
    ("ub", 6): "9e49686d8497235e679becdc49e024fd70a150e2544b5d7975ab60fee6c4c8f7",
    ("gvb-derived", 6): "e896047904eb14014c64d7d4f453818a28481b23d4cf28129b98d2c02eb02816",
    ("sg-derived", 6): "a3d7d22df192e0a8b3b57ce72fe6862c82961c90785193986c268ead10fb602b",
    ("gvb-derived-raw", 6): "a0a83463d28c52c01949135308c8b426b0405996e0258eef6ae77f8f9c06a831",
    ("sg-derived-raw", 6): "21cafc32a37962974f49439330c046b5ffa96476589fe07cc58233cd9e4c74a8",
}


@pytest.mark.parametrize("group,n", sorted(EXPORT_GOLDEN))
def test_export_matches_golden_hash(capsys, group, n):
    status, out = run_cli(capsys, "export-presentation", "--group", group, "--n", str(n))
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXPORT_GOLDEN[(group, n)]


def test_export_golden_covers_every_group():
    assert sorted(EXPORT_GOLDEN) == sorted((g, n) for g in cli.EXPORTABLE for n in (3, 4, 5, 6))
