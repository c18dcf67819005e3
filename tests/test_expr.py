"""Expression grammar and canonical formatter."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffsig import (
    Multivector,
    ParseError,
    Signature,
    format_multivector,
    parse_multivector,
    wedge,
)
from cliffsig.expr import MAX_NESTING


def test_literal_examples():
    sig = Signature(2, 0)
    a = parse_multivector("1 + 2*e1^e2", sig)
    assert a == Multivector(sig, {0: 1, 0b11: 2})

    sig01 = Signature(0, 1)
    assert parse_multivector("e1*e1", sig01) == -1

    assert parse_multivector("e2^e1 + e1^e2", sig).is_zero()


def test_blade_literal_folds_generators_in_written_order():
    sig = Signature(2, 0)
    assert parse_multivector("e2e1", sig) == -parse_multivector("e1^e2", sig)
    assert parse_multivector("e1e1", sig) == 1
    # multi-digit indices name single generators
    sig12 = Signature(12, 0)
    assert parse_multivector("e12", sig12) == Multivector.blade(sig12, 1 << 11)


def test_rationals_parens_precedence():
    sig = Signature(2, 0)
    assert parse_multivector("1/3", sig).scalar_part() == Fraction(1, 3)
    assert parse_multivector("(1 + e1) * (1 - e1)", sig).is_zero()
    # '*' and '^' associate left at equal precedence
    assert parse_multivector("2*e1^e2", sig) == 2 * wedge(
        Multivector.basis_vector(sig, 1), Multivector.basis_vector(sig, 2)
    )
    assert parse_multivector("-e1 + e1", sig).is_zero()


def test_parse_errors_carry_position():
    sig = Signature(2, 0)
    with pytest.raises(ParseError) as err:
        parse_multivector("1 + $", sig)
    assert err.value.position == 4

    with pytest.raises(ParseError) as err:
        parse_multivector("e1 + ", sig)
    assert err.value.position == len("e1 + ")

    with pytest.raises(ParseError) as err:
        parse_multivector("(1 + e1", sig)
    assert err.value.position >= 7

    with pytest.raises(ParseError) as err:
        parse_multivector("1/0", sig)
    assert "denominator" in str(err.value)


def test_parenthesis_nesting_limit():
    sig = Signature(1, 0)
    deepest = "(" * MAX_NESTING + "e1" + ")" * MAX_NESTING
    assert parse_multivector(deepest, sig) == Multivector.basis_vector(sig, 1)
    with pytest.raises(ParseError) as err:
        parse_multivector("(" + deepest + ")", sig)
    assert err.value.position == MAX_NESTING


def test_out_of_range_index_is_parse_error():
    sig = Signature(1, 1)
    with pytest.raises(ParseError) as err:
        parse_multivector("e3", sig)
    assert "e3" in str(err.value) and "Cl(1,1)" in str(err.value)


def test_over_long_numeral_is_parse_error():
    # int() refuses numerals past the interpreter's digit limit (4,300 by
    # default); that is a parse error at the token, not a bare ValueError
    sig = Signature(1, 1)
    digits = "1" * 5000
    for text, position in [(digits, 0), ("e" + digits, 0), ("1/" + digits, 2)]:
        with pytest.raises(ParseError, match="5000 digits") as err:
            parse_multivector(text, sig)
        assert err.value.position == position


def test_canonical_format():
    sig = Signature(3, 0)
    a = Multivector(
        sig,
        {0: Fraction(1), 0b11: Fraction(2), 0b111: Fraction(-1, 3)},
    )
    assert format_multivector(a) == "1 + 2*e1^e2 - 1/3*e1^e2^e3"
    assert format_multivector(Multivector.zero(sig)) == "0"
    assert format_multivector(Multivector.scalar(sig, -3)) == "-3"
    assert format_multivector(Multivector.blade(sig, 0b1, -1)) == "-e1"
    # ordered by grade, then lexicographically by index set
    b = Multivector(sig, {0b110: 1, 0b011: 1, 0b100: 1})
    assert format_multivector(b) == "e3 + e1^e2 + e2^e3"


@st.composite
def multivectors(draw):
    sig = Signature(2, 2)
    n_terms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n_terms):
        mask = draw(st.integers(0, sig.full_mask))
        terms[mask] = Fraction(draw(st.integers(-20, 20)), draw(st.integers(1, 12)))
    return Multivector(sig, terms)


@settings(max_examples=300, deadline=None)
@given(multivectors())
def test_format_parse_roundtrip(a):
    assert parse_multivector(format_multivector(a), a.sig) == a


@pytest.mark.parametrize(
    "text, position",
    [("1/", 2), ("1/e1", 2), ("1/(2)", 2), ("2 + 3/ * e1", 7)],
)
def test_slash_needs_denominator_digits(text, position):
    # a rational coefficient is digits / digits: anything else after the
    # slash is refused where it stands
    with pytest.raises(ParseError, match="expected denominator digits after '/'") as err:
        parse_multivector(text, Signature(2, 0))
    assert err.value.position == position


@pytest.mark.parametrize(
    "text, expected",
    [("e1\t+\te2  ", "e1 + e2"), ("\te1 ^ e2\t\n", "e1^e2"), ("1 + e2  \t", "1 + e2")],
)
def test_tabs_and_trailing_whitespace_are_skipped(text, expected):
    assert format_multivector(parse_multivector(text, Signature(2, 1))) == expected


@pytest.mark.parametrize(
    "text, message, position",
    [
        # empty, blank, or cut short after an operator: the end is where
        # the text ends, trailing whitespace included
        ("", "unexpected end of expression", 0),
        ("   ", "unexpected end of expression", 3),
        ("\t\n", "unexpected end of expression", 2),
        ("1 +\t", "unexpected end of expression", 4),
        # 'e' with no digits starts no token
        ("e", "unexpected character 'e'", 0),
        ("e1 + e", "unexpected character 'e'", 5),
        ("e1e", "unexpected character 'e'", 2),
        # a bad character is named where it stands, not where the
        # whitespace before it starts, and before any later parse error
        ("1 +   $", "unexpected character '$'", 6),
        ("\t\t@", "unexpected character '@'", 2),
        ("1/0 $", "unexpected character '$'", 4),
        ("e9 $", "unexpected character '$'", 3),
        # a ')' with no '('
        (")", "expected a rational, a blade like e1e2, or '('", 0),
        ("e1 )", "unexpected ')'", 3),
        ("(e1))", "unexpected ')'", 4),
    ],
)
def test_parse_error_messages_and_positions(text, message, position):
    with pytest.raises(ParseError) as err:
        parse_multivector(text, Signature(2, 1))
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position
