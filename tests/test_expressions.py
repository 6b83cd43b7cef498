"""Expression grammar: parsing, precedence, and positioned errors."""
from __future__ import annotations

import pytest

from foldcheck.catalog import atom, connected_sum, product
from foldcheck.errors import ExpressionError
from foldcheck.expressions import parse_expression


def same_record(m, n) -> bool:
    """Value-level fingerprint comparison for manifold records."""
    return (
        m.name == n.name
        and m.dim == n.dim
        and m.euler == n.euler
        and m.signature == n.signature
        and m.orientable == n.orientable
        and m.algebra.ranks == n.algebra.ranks
        and [str(m.w.component(d)) for d in range(m.dim + 1)]
        == [str(n.w.component(d)) for d in range(n.dim + 1)]
    )


@pytest.mark.parametrize("text", ["S3", "RP4", "CP2~", "K3", "Sigma2", "N5"])
def test_atoms_parse(text):
    assert same_record(parse_expression(text), atom(text))


def test_whitespace_is_ignored():
    assert same_record(parse_expression("  RP4   #  RP4 "), parse_expression("RP4#RP4"))


def test_product_binds_tighter_than_sum():
    got = parse_expression("RP4 # S2 x S2")
    expected = connected_sum(atom("RP4"), product(atom("S2"), atom("S2")))
    assert same_record(got, expected)


def test_left_associativity():
    got = parse_expression("S1 x S1 x S2")
    expected = product(product(atom("S1"), atom("S1")), atom("S2"))
    assert same_record(got, expected)


def test_parentheses_override():
    got = parse_expression("(RP4 # S4) x S1")
    expected = product(connected_sum(atom("RP4"), atom("S4")), atom("S1"))
    assert same_record(got, expected)


def test_repetition_shorthand():
    assert same_record(parse_expression("3#RP4"),
                       connected_sum(connected_sum(atom("RP4"), atom("RP4")), atom("RP4")))
    assert same_record(parse_expression("1#K3"), atom("K3"))
    assert same_record(parse_expression("2 # (S2 x S2)"),
                       connected_sum(product(atom("S2"), atom("S2")),
                                     product(atom("S2"), atom("S2"))))


def test_repetition_applies_to_the_factor_only():
    # 2#RP4 # S4 means (RP4 # RP4) # S4
    got = parse_expression("2#RP4 # S4")
    expected = connected_sum(connected_sum(atom("RP4"), atom("RP4")), atom("S4"))
    assert same_record(got, expected)


@pytest.mark.parametrize(
    "text,position,message",
    [
        ("", 0, "empty expression"),
        ("RP4 @", 4, "unexpected character"),
        ("RP4 # S3", 4, "cannot sum dimensions"),
        ("RP4 x", 5, "unexpected end of expression"),
        ("# RP4", 0, "expected an atom"),
        ("RP4 RP4", 4, "unexpected trailing input"),
        ("(RP4", 4, "expected ')'"),
        ("(RP4))", 5, "unexpected trailing input"),
        ("0#RP4", 0, "repetition count must be >= 1"),
        ("3 RP4", 1, "expected '#' after a repetition count"),
        ("RP0", 0, "out of range"),
        ("S2 x (S1 # RP2)", 9, "cannot sum dimensions"),
        pytest.param(
            "(" * 3000 + "RP4" + ")" * 3000, 100, "nests deeper than 100", id="deep-parens"
        ),
        pytest.param("2#" * 3000 + "RP4", 200, "nests deeper than 100", id="deep-repeats"),
    ],
)
def test_error_positions(text, position, message):
    with pytest.raises(ExpressionError) as excinfo:
        parse_expression(text)
    assert excinfo.value.position == position
    assert message in str(excinfo.value)
    assert f"(at position {position})" in str(excinfo.value)


def test_unknown_atom_has_position():
    with pytest.raises(ExpressionError) as excinfo:
        parse_expression("S2 x K4")
    # "K4" fails to lex as an atom: K is the unexpected character
    assert excinfo.value.position == 5


def test_round_trip_through_name():
    # rendered names of simple combinations re-parse to equal records
    for text in ["RP4 # RP4", "RP2 x S2", "(CP2 # CP2) x S2"]:
        m = parse_expression(text)
        again = parse_expression(m.name)
        assert same_record(m, again)
