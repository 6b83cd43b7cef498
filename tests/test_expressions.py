"""Expression grammar: parsing, precedence, and positioned errors."""
from __future__ import annotations

from functools import reduce

import pytest

from foldcheck import catalog
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


def construction(m):
    """Everything a record holds: labels, every table and every invariant."""
    A = m.algebra
    return (
        m.name, m.dim, m.orientable, m.euler, m.signature,
        m.stably_parallelizable, m.torsion_free, A.basis,
        [(key, A.mult[key].tobytes()) for key in sorted(A.mult)],
        [(key, A.sq_table[key].tobytes()) for key in sorted(A.sq_table)],
        A.fundamental.tobytes(), A.unit.tobytes(),
        [c.tobytes() for c in m.w.components], [c.tobytes() for c in m.wu.components],
        m.p1, m.w3_twisted,
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


REPEATED = ["S3", "RP4", "RP5", "CP2~", "CP3", "K3", "Sigma2", "N5", "(S2 x S2)", "(RP4 # CP2)"]


@pytest.mark.parametrize("k", [1, 2, 3, 5])
@pytest.mark.parametrize("operand", REPEATED)
def test_repetition_shorthand(operand, k):
    # k # A is the left fold of two-piece sums, down to every label and note
    piece = parse_expression(operand)
    fold = reduce(connected_sum, [piece] * k)
    assert construction(parse_expression(f"{k} # {operand}")) == construction(fold)


def test_three_piece_sum_matches_the_fold():
    pieces = [atom("K3"), parse_expression("RP4 # CP2"), atom("K3")]
    assert construction(connected_sum(*pieces)) == construction(
        connected_sum(connected_sum(pieces[0], pieces[1]), pieces[2])
    )


def test_repetition_builds_one_connected_sum(monkeypatch):
    calls = []
    build = catalog.connected_sum_algebra

    def counting(*pieces):
        calls.append(len(pieces))
        return build(*pieces)

    monkeypatch.setattr(catalog, "connected_sum_algebra", counting)
    assert parse_expression("30#RP4").algebra.ranks == (1, 30, 30, 30, 1)
    assert calls == [30]


def test_repetition_count_with_leading_zeros():
    assert same_record(parse_expression("0001#RP4"), atom("RP4"))
    assert same_record(parse_expression("0" * 5000 + "2#RP4"), parse_expression("2#RP4"))


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
        ("1001#S4", 0, "repetition count must be <= 1000"),
        pytest.param(
            "9" * 5000 + "#RP4", 0, "repetition count must be <= 1000", id="5000-digit-count"
        ),
        pytest.param(
            "0" * 5000 + "#RP4", 0, "repetition count must be >= 1", id="5000-zero-count"
        ),
        ("1000#RP4", 4, "over the budget of 33554432 bytes"),
        ("N3000", 0, "over the budget"),
        ("S2 x Sigma3000", 5, "over the budget"),
        ("K3 x K3 x K3", 8, "over the budget of 33554432 bytes"),
        pytest.param("2#" * 40 + "RP4", 65, "over the budget", id="nested-repeats-budget"),
        # the grammar is ASCII: other scripts' digits and spaces are not tokens
        pytest.param("S2 x RP٣", 5, "unexpected character 'R'", id="arabic-indic-digit"),
        pytest.param("RP4\u00a0x S2", 3, "unexpected character", id="no-break-space"),
        # near misses of atom tokens: a single atom is matched before a family,
        # and no family matches its letters without digits
        ("CP22~", 4, "unexpected character '~'"),
        ("CP2~~", 4, "unexpected character '~'"),
        ("K33", 2, "unexpected trailing input"),
        ("Sigm1", 0, "unexpected character 'S'"),
        ("SS1", 0, "unexpected character 'S'"),
        ("RP", 0, "unexpected character 'R'"),
        ("S2 x N", 5, "unexpected character 'N'"),
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
