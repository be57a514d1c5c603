import pytest

from braidcomm.catalog import FAMILIES, catalog
from braidcomm.derived import raw_derived, simplified_derived
from braidcomm.schemas import band
from oracles import ParseError, gen, instantiate, parse_presentation, parse_word, word


def test_round_trip_whole_catalog():
    presentations = [catalog(f, n) for f in FAMILIES for n in (3, 4, 5, 6)]
    presentations += [simplified_derived(g, n) for g in ("GVB", "SG") for n in (3, 4, 5, 6)]
    presentations += [raw_derived(g, n) for g in ("GVB", "SG") for n in (3, 4, 5, 6)]
    for pres in presentations:
        assert parse_presentation(str(pres)) == pres


def test_unlabelled_gen_and_rel_lines():
    text = (
        "presentation demo\n"
        "n 5\n"
        "gen s arity 1 range 1..n-1\n"
        "rel forall i,j where |i-j|>1 : s[i] s[j] s[i]^-1 s[j]^-1\n"
    )
    pres = parse_presentation(text)
    assert pres.families == (("s", ((1, 4),)),)
    rel = pres.relators[0]
    assert rel.params == ("i", "j")
    assert rel.guards == (band("i", "j"),)
    assert instantiate(rel, {"i": 1, "j": 3}) == word(
        gen("s", 1), gen("s", 3), (gen("s", 1), -1), (gen("s", 3), -1))


def test_empty_relator_is_a_positioned_error():
    text = "presentation x\nn 4\ngen s arity 1 range 1..3\nrel forall i :\n"
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert err.value.line == 4


def test_undeclared_family_and_arity_mismatch():
    base = "presentation x\nn 4\ngen s arity 1 range 1..3\n"
    with pytest.raises(ParseError, match="undeclared family 'r'"):
        parse_presentation(base + "rel forall i : r[i]\n")
    with pytest.raises(ParseError, match="undeclared family 's' of arity 2"):
        parse_presentation(base + "rel forall i : s[i,0]\n")
    with pytest.raises(ParseError, match="unbound"):
        parse_presentation(base + "rel forall i : s[j]\n")


def test_header_errors():
    with pytest.raises(ParseError, match="missing n"):
        parse_presentation("presentation x\ngen s arity 1 range 1..3\n")
    with pytest.raises(ParseError, match="unknown directive"):
        parse_presentation("presentation x\nn 4\nbogus line\n")
    with pytest.raises(ParseError, match="n used before"):
        parse_presentation("presentation x\ngen s arity 1 range 1..n-1\nn 4\n")


def test_n_in_a_relator_before_the_n_header_is_an_error():
    base = "presentation x\ngen s arity 1 range 1..3\n"
    with pytest.raises(ParseError, match="n used before") as err:
        parse_presentation(base + "rel forall i where i<=n-2 : s[i]\nn 4\n")
    assert err.value.line == 3
    with pytest.raises(ParseError, match="n used before"):
        parse_presentation(base + "rel : s[n-1]\nn 4\n")


def test_a_non_integer_arity_is_a_positioned_error():
    with pytest.raises(ParseError, match="expected: gen") as err:
        parse_presentation("presentation x\nn 4\ngen s arity x range 1..3\n")
    assert err.value.line == 3


def test_a_family_declared_twice_is_a_positioned_error():
    base = "presentation x\nn 4\ngen a arity 1 range 1..3\n"
    with pytest.raises(ParseError, match="family 'a' of arity 1 declared twice") as err:
        parse_presentation(base + "gen a arity 1 range 1..2\n")
    assert err.value.line == 4
    # one letter at two arities is two families
    pres = parse_presentation(base + "gen a arity 3 range int,int,1..2\n")
    assert pres.families == (("a", ((1, 3),)), ("a", (None, None, (1, 2))))


def test_a_relator_label_used_twice_is_a_positioned_error():
    base = "presentation x\nn 4\ngen c arity 1 range int\n"
    with pytest.raises(ParseError, match="relator label 't' used twice") as err:
        parse_presentation(base + "rel t forall m : c[m]\nrel t forall m : c[m] c[m+1]\n")
    assert err.value.line == 5
    # an explicit label may collide with an automatic one, in either order
    with pytest.raises(ParseError, match="relator label 'rel1' used twice") as err:
        parse_presentation(base + "rel forall m : c[m]\nrel rel1 forall m : c[m+1]\n")
    assert err.value.line == 5
    with pytest.raises(ParseError, match="relator label 'rel2' used twice") as err:
        parse_presentation(base + "rel rel2 forall m : c[m]\nrel forall m : c[m+1]\n")
    assert err.value.line == 5


def test_a_parameter_listed_twice_is_a_positioned_error():
    base = "presentation x\nn 4\ngen c arity 1 range int\n"
    with pytest.raises(ParseError, match="parameter 'm' listed twice") as err:
        parse_presentation(base + "rel s forall k : c[k]\nrel t forall m,k,m : c[m]\n")
    assert err.value.line == 5
    # one name in two relators is two parameters
    pres = parse_presentation(base + "rel s forall m : c[m]\nrel t forall m : c[m+1]\n")
    assert [rel.params for rel in pres.relators] == [("m",), ("m",)]


def test_a_relator_whose_letters_may_coincide_is_a_positioned_error():
    base = "presentation x\nn 4\ngen c arity 1 range int\n"
    with pytest.raises(ParseError, match=r"c\[m\] and c\[k\]\^-1 of t may coincide") as err:
        parse_presentation(base + "rel t forall m,k : c[m] c[k]^-1\n")
    assert err.value.line == 4
    # a band guard keeps them apart
    pres = parse_presentation(base + "rel t forall m,k where |m-k|>0 : c[m] c[k]^-1\n")
    assert str(pres.relators[0]) == "forall m,k where |m-k|>0 : c[m] c[k]^-1"


def test_comments_and_blank_lines_are_ignored():
    text = (
        "# header comment\n"
        "presentation demo\n\n"
        "n 3\n"
        "gen s arity 1 range 1..2   # strands\n"
        "rel forall i where i<=1 : s[i] s[i+1] s[i] s[i+1]^-1 s[i]^-1 s[i+1]^-1\n"
    )
    pres = parse_presentation(text)
    assert len(pres.relators) == 1


def test_parse_word_round_trip():
    for text in ("1", "s1", "s1^2 r3^-1 a[0,1,2]", "b[-1,0,2]^-3 a4"):
        assert str(parse_word(text)) == text
    with pytest.raises(ParseError):
        parse_word("s1^")
    with pytest.raises(ParseError):
        parse_word("a[i,0]")
