import hashlib

import pytest

from braidcomm import registry, replays
from braidcomm.abelian import relation_matrix
from braidcomm.replays import (
    SCRIPTS,
    expected_fingen_survivors,
    gvb3_quotient_chain,
    gvb4_fingen,
    gvbn_fingen,
    sgn_fingen,
    simplify,
)
from braidcomm.tietze import ReplayError, TruncatedPresentation, origin_of
from braidcomm.words import fmt_gen
from oracles import run_on_full_start


def test_collapse_survivors_at_window_four():
    p = gvb4_fingen(4)
    assert p.interior() == expected_fingen_survivors("GVB", 4)
    p = gvbn_fingen(5, 4)
    assert p.interior() == expected_fingen_survivors("GVB", 5)
    p = sgn_fingen(5, 4)
    assert p.interior() == expected_fingen_survivors("SG", 5)


def test_fingen_needs_five_strands():
    with pytest.raises(ValueError):
        gvbn_fingen(4, 4)
    with pytest.raises(ValueError):
        sgn_fingen(3, 4)


def test_collapse_transcripts_record_every_move():
    p = gvb4_fingen(4)
    text = p.transcript_text()
    assert text.startswith("start fingen-gvb4")
    assert "eliminate b[0,0,2] via" in text
    assert ":=" in text


def test_gvb3_chain_leaves_only_the_free_letters():
    p = gvb3_quotient_chain(4)
    survivors = p.interior()
    assert survivors == {("a", (0, k, 1)) for k in (-2, -1, 1, 2)}
    assert p.interior_relator_set() == set()
    assert "adjoin a[0,0,1] a[1,0,2]" in p.transcript_text()


def test_simplify_runs_in_registry_names():
    for name in ("simplify-gvb-n3", "simplify-sg-n6", "fingen-sg-n6",
                 "gvb3-free-quotient", "sg3-abelianization"):
        assert name in SCRIPTS


def test_simplify_is_deterministic_across_groups():
    for group, n in (("GVB", 4), ("SG", 5)):
        t1 = simplify(group, n, 3).transcript_text()
        t2 = simplify(group, n, 3).transcript_text()
        assert t1 == t2


def test_scripts_fail_loudly_on_too_small_windows():
    # window 1 leaves no room for the recurrences to reach their bases
    with pytest.raises(ReplayError):
        gvb4_fingen(1)


# SHA-256 of transcript, sorted interior survivors and callback event kinds
# for every script at windows 3..6; any change to a replay's moves, their
# order or the events its observer sees changes the hash
GOLDEN = {
    ("fingen-gvb-n5", 3): "a822ba77469e11ce7e0282ac05d02cfc888d0009437bb17851269b45694b7200",
    ("fingen-gvb-n6", 3): "9c2e8d167c5d2b8417fe9a1ee16879b44a9aa5d8ae8dab8347ccefe5c2f3f855",
    ("fingen-gvb4", 3): "10bdaf005d8892545395fe6a5fc420aba30763f87d8cd65655401efd76d3e26a",
    ("fingen-sg-n5", 3): "8800e018533a6258290979ea475bdd2903f72841f77d1feb207a573d40c359dd",
    ("fingen-sg-n6", 3): "3f3011ffc21bf1dfa97e7ddc0fe54e29577abbf44803bc68bbbcc89d505c4591",
    ("gvb3-free-quotient", 3): "2e52266c758e567076dc9f03c801e232308f15518ec2b0ffcad1fbf76e891e8f",
    ("sg3-abelianization", 3): "96f35d16c42741350493a2eee7f91befc76b38a144ec25d46233cb0d71757e49",
    ("simplify-gvb-n3", 3): "455747c6b0d6d2b0e1f30af343393398e1b321c13e43939e45d211208011c81f",
    ("simplify-gvb-n4", 3): "226ec8be703cfe99bf471b46ca819c351aa2e291aaa4d01ec90a6fa9a271a402",
    ("simplify-gvb-n5", 3): "6c0752e9f053429a6271690b5e9ac8fc09546e5ca52ddeefe6c82c9fafe2c694",
    ("simplify-gvb-n6", 3): "42cdfa8bc9c8344f13882405de556f5cf22295d46c3121583b84c879dec91618",
    ("simplify-sg-n3", 3): "3a94fceab3a0f7207c23da07c947b35d4b4a860c618d365c6d3847bb57cfa9a5",
    ("simplify-sg-n4", 3): "a44db536f25cf02026bf0521fd369af8b776cb988bffa7032d8eaffa7c0f98da",
    ("simplify-sg-n5", 3): "683109ad6e4ef18d6e00203af61e8de782c8a3b51171184cb3063c4a76f5ec1c",
    ("simplify-sg-n6", 3): "3bcab1349a34cddc9777158c2a419e03655b439a8ad1c4bb0511988627cf6ed9",
    ("fingen-gvb-n5", 4): "14ee803e65bb5ecb2d7ccc3d3dde8bd531f220310d539237bc5b2d6fcbc6bb2e",
    ("fingen-gvb-n6", 4): "88f9c8fba65561f707ca68f2aa4be33cce9947aac85c7ff3761de0cf3cc0adc4",
    ("fingen-gvb4", 4): "9f5dbfe33f9c6b0aa62eb5bac9fe60f0b85a0f3c3df88f0507de0306a25634ca",
    ("fingen-sg-n5", 4): "5cf2c8467b06824d707ce75841568a3500fb96662ff24345cf69a67ca2ecf066",
    ("fingen-sg-n6", 4): "b451899b33726e4fcec94f24d1b9eb926542c90b2ea8fc41cadbfbe4c3b2f100",
    ("gvb3-free-quotient", 4): "c61a315a8148bcfe59c3a09f1fee8ab1ebedb454ebebb3d4f9c86022f70ad09d",
    ("sg3-abelianization", 4): "88a753900f933e2fb39b94307a1383741990bd5b102fb4eeea4437be02067808",
    ("simplify-gvb-n3", 4): "37e2dcbd4aaa16c395e541d56c337919e79d809f45f08a7b9b0811f3c0ef6591",
    ("simplify-gvb-n4", 4): "4462ab54fc753f8328f80501e052e528eecf44ae5a4781e05947161af230855a",
    ("simplify-gvb-n5", 4): "6f3d362624e6f81a34c20ea5541fb304c3913097c745647312987d6e547a8026",
    ("simplify-gvb-n6", 4): "91bf6f5d27965ce2e725c4b6dbd25a0b68e22bd30aa9bee493f0fda6eaca0307",
    ("simplify-sg-n3", 4): "09d715f698e21f48226417fe0c5837656ef78d97e3bc1b83478f23f9fb3dcf63",
    ("simplify-sg-n4", 4): "101c638a278af92afae3a1d0bdb67fc824b4ca9fbe03137d15fc30f00cb2a0c5",
    ("simplify-sg-n5", 4): "34d5bf14b5b5a6e586d4ad0e6fa9b3f460af9506718431a9dc7a102d9abdd346",
    ("simplify-sg-n6", 4): "9784f473e6b212cf61c88b20b5eb4903e513d0f72c347a562bb9c7be26b8f33c",
    ("fingen-gvb-n5", 5): "2542bb084c09129b87560446319b9906d319a89d13f3531184113fd0300c3c7d",
    ("fingen-gvb-n6", 5): "9c8ae7d30ccb074a1727a717559b9a96d216bd86dd127114df1434921bdd2a2e",
    ("fingen-gvb4", 5): "22226264196b42faf0bd23228efd70202b486929774b751ef9c6d80349d1488d",
    ("fingen-sg-n5", 5): "881d41698123de478f0a353fffe97088cd5c0a473478add276abf8c399dc5452",
    ("fingen-sg-n6", 5): "8e050209df7508d579a25bdf3cc00ee2a5ca398aa9d2bd37ff843cd50a65bbfe",
    ("gvb3-free-quotient", 5): "e19428341e461ad4873009c636b9e31e706ac0b50053818669ced0e0f27663fa",
    ("sg3-abelianization", 5): "281019de81dbbdc8797037436be81081bf437b02f2e90ad4e22d95b52c6a5c0d",
    ("simplify-gvb-n3", 5): "cddb58872ce355445f863f6f53958f1162879b4879ce1cea864c295faefadd60",
    ("simplify-gvb-n4", 5): "86fa2377e96e6e2a681f06676239a64bcc43e3c301ef4add676fa8b18092df5a",
    ("simplify-gvb-n5", 5): "2aab49bf7d940bb465b1bbfaad0780ddfb7ce4ac77a206a3418bcbaac9c7051c",
    ("simplify-gvb-n6", 5): "56237bdd0b6dcc7f3eaa5c848f34224094693e6f7f71c2d2e935b575f5a5092e",
    ("simplify-sg-n3", 5): "058101a80b3ca864f88f51acdbe8e7a8a84dee059b20bab69cc0852f8ab78097",
    ("simplify-sg-n4", 5): "3dc55e3967be6f128882d75a064b06e43443a3ca9ea11f1657e181976a63e51a",
    ("simplify-sg-n5", 5): "61478c066a50a9af909c903bc8a736cd8c79141aa2c5b86563dd414b95d86212",
    ("simplify-sg-n6", 5): "e9c24b27d6088409d59642d50136fee3b3eb2ec7e56d181a804685be6360997f",
    ("fingen-gvb-n5", 6): "d67ffe409e3c40f44cde7ae4da451e16a510beb2ec7b9eb492dfe787755f0663",
    ("fingen-gvb-n6", 6): "4ceae2f24fc548c53e47be39d12d23c4c576186556067a6e5d11f39b5c368dbd",
    ("fingen-gvb4", 6): "979a2a488f9786928f99af0f99c4a364f7743c519daa64278cfaf184adb68e38",
    ("fingen-sg-n5", 6): "4ca8aec1224bf36fc99b77cbcd58c34d92fdd73ddae39251ad6c2fac3191a6c0",
    ("fingen-sg-n6", 6): "04958c6c094d635a2034ea50d02bbdf00d780662c280adc149c1a38e30a12af4",
    ("gvb3-free-quotient", 6): "509e898b5be14f9531eba66e537e8f0e00a2aead6b7ee1093787b24b81e24dc1",
    ("sg3-abelianization", 6): "643522f9766554a9b513528dd968c916c2a24899369d9f4b64fe84ea1d7a82a8",
    ("simplify-gvb-n3", 6): "7016e83e7afa3f79677924ae292b88a2193dfad97dafdb16fab133de5e7d0bad",
    ("simplify-gvb-n4", 6): "55019763c6079541ea53677ee139f2fa7557314a46a611102b71d9d8cd655102",
    ("simplify-gvb-n5", 6): "5ee95b5607b176db3db5d09d105ab6c0aa4ff8ec1d615531224119164d48e3ac",
    ("simplify-gvb-n6", 6): "f42bfaed51d400bdfeb0378e733c005809e53fd2c2610f9d45729cdd28793a02",
    ("simplify-sg-n3", 6): "ab16613bff711ff002956abba1f4d6074e820d76ad653bcc795cd00e736cb440",
    ("simplify-sg-n4", 6): "2fb4628a1ca20e9059e86be078bd4cae8cd2ee9e39dc2e8d790f00b428052f07",
    ("simplify-sg-n5", 6): "4358bb70e7305a69419a04f7af90dea20945461cc3f92d0e061a4f7af619ea98",
    ("simplify-sg-n6", 6): "d455e42628253c0f15381ade4d6d6914d9ad164ff1c5776252e2ba04f4d051ee",
}


FINGEN = ("fingen-gvb4", "fingen-gvb-n5", "fingen-gvb-n6", "fingen-sg-n5", "fingen-sg-n6")


def _fingerprint(p, kinds):
    survivors = ", ".join(fmt_gen(g) for g in sorted(p.interior()))
    blob = "\n--\n".join((p.transcript_text(), survivors, " ".join(kinds)))
    return hashlib.sha256(blob.encode()).hexdigest()


def _observer(kinds, start):
    """An observer that appends the kind of each event to ``kinds`` and
    copies the relators the presentation holds at ``start`` into ``start``."""
    def see(step):
        kinds.append(step["kind"])
        if step["kind"] == "start":
            start.update(step["presentation"].relators)
    return see


def _assert_pruned_replays_like(pruned, start, name, window):
    """A start pruned to the relators the moves read replays exactly like
    the full start of the eager route, ``start`` line included, while
    holding fewer relators.  Its unread start words and the relators it
    held at ``start`` are the eager start's relators, id for id.  It
    reports every relator of the full route, id for id, and so the same
    interior relators and relation matrix."""
    eager_start = {}
    full = run_on_full_start(SCRIPTS[name], window, callback=_observer([], eager_start))
    unread = dict(pruned.unread_relators())
    assert list(unread) == sorted(unread) and not unread.keys() & start.keys()
    assert {**start, **unread} == eager_start
    assert pruned.transcript == full.transcript
    assert pruned.gens == full.gens
    assert pruned.interior() == full.interior()
    assert len(pruned.relators) < len(full.relators)
    assert pruned.all_relators() == full.relators
    assert pruned.closure(unread.items()) == pruned.all_relators()
    assert pruned.interior_relator_set() == full.interior_relator_set()
    assert relation_matrix(pruned) == relation_matrix(full)


@pytest.mark.parametrize("name,window", sorted(GOLDEN))
def test_replay_matches_golden_hash(name, window):
    kinds, start = [], {}
    p = SCRIPTS[name](window, callback=_observer(kinds, start))
    assert _fingerprint(p, kinds) == GOLDEN[(name, window)]
    _assert_pruned_replays_like(p, start, name, window)


def test_golden_covers_every_script():
    assert {name for name, _ in GOLDEN} == set(SCRIPTS)
    assert {name for name in SCRIPTS if name.startswith("fingen-")} == set(FINGEN)


def test_the_pruned_start_replays_like_the_full_one_past_the_golden_windows():
    # simplify-gvb-n6 leaves the largest share of its start unkept
    for name, window in (("fingen-sg-n6", 8), ("simplify-sg-n6", 7), ("simplify-gvb-n6", 7),
                         ("gvb3-free-quotient", 8)):
        start = {}
        p = SCRIPTS[name](window, callback=_observer([], start))
        _assert_pruned_replays_like(p, start, name, window)


def test_every_move_writes_its_origins_as_origin_of_builds_them(monkeypatch):
    """The scripts spell origins out as binding pairs; each must be the
    origin ``origin_of`` gives: its label and its bindings, sorted."""
    runs = []
    split = replays._moves_and_keep

    def seen(moves):
        moves, keep = split(moves)
        runs.append(moves)
        return moves, keep

    monkeypatch.setattr(replays, "_moves_and_keep", seen)
    for script in SCRIPTS.values():
        script(3)
    origins = []
    for move in (move for moves in runs for move in moves):
        if isinstance(move, replays.Eliminate):
            origins.append(move.via)
        elif isinstance(move, replays.Derive):
            origins += [move.source, move.origin, *move.doomed.values()]
        elif isinstance(move, replays.Adjoin):
            origins += [origin for _, origin in move.relators]
    assert len(runs) == len(SCRIPTS) and len(origins) > 3000
    for label, items in origins:
        assert len(dict(items)) == len(items)
        assert (label, items) == origin_of(label, dict(items))


@pytest.mark.parametrize("name", ("fingen-sg-n5", "simplify-sg-n4"))
def test_a_run_with_an_observer_starts_pruned(name):
    """The ``start`` event of an observed run shows a pruned start, whose
    ``all_relators()`` are the eager start's relators, id for id."""
    starts = {}

    def observer(route):
        def see(step):
            if step["kind"] == "start":
                p = step["presentation"]
                starts[route] = (len(p.relators), dict(p.all_relators()))
        return see

    p = SCRIPTS[name](3, callback=observer("pruned"))
    run_on_full_start(SCRIPTS[name], 3, callback=observer("eager"))
    (held, relators), (eager_held, eager) = starts["pruned"], starts["eager"]
    counted = int(p.transcript[0].split(", ")[-1].removesuffix(" relators"))
    assert held < eager_held == counted
    assert relators == eager


def _start_vias(name, window):
    """The origins of the start relators a full run eliminates with, in
    the order it uses them."""
    held, vias = {}, []

    def observer(step):
        if step["kind"] == "start":
            held["p"] = step["presentation"]
            held["start"] = set(held["p"].origins.values())
        elif step["kind"] == "eliminate":
            vias.append(held["p"].origins[step["defining_rid"]])

    SCRIPTS[name](window, callback=observer)
    return [via for via in vias if via in held["start"]]


@pytest.mark.parametrize("name", FINGEN + ("simplify-sg-n5", "gvb3-free-quotient"))
def test_a_pruned_start_without_a_named_via_refutes(name, monkeypatch):
    claim = {script: f"fingen:{group.lower()}:{n}"
             for (group, n), script in registry._FINGEN_SCRIPTS.items()}.get(name)
    build = TruncatedPresentation.from_schema
    vias = _start_vias(name, 5)
    for dropped in (vias[0], vias[len(vias) // 2], vias[-1]):
        def without(schema, window, name="", callback=None, keep=None):
            assert dropped in keep
            return build(schema, window, name, callback, keep=keep - {dropped})

        monkeypatch.setattr(TruncatedPresentation, "from_schema", without)
        with pytest.raises(ReplayError, match="no longer present"):
            SCRIPTS[name](5)
        if claim is None:
            continue
        result, = registry.run(claim, ns=(4, 5, 6), window=5).results
        assert result.verdict == "refuted"
        assert result.detail.startswith("ReplayError: ") and "no longer present" in result.detail
        assert str(dropped) in result.detail
