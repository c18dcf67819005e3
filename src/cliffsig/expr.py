"""Text form of multivectors: a small expression grammar and the
canonical formatter, used by the CLI and the test fixtures.

Grammar (whitespace-insensitive)::

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := factor (('*'|'^') factor)*
    factor   := rational | blade | '(' expr ')'
    blade    := 'e' digits ('e' digits)*
    rational := digits ('/' digits)?

'*' and '^' bind equally and associate left; '*' is the geometric product
by default (the CLI substitutes a deformed product there), '^' is always
the exterior product.  A blade literal multiplies the named generators in
the written order with the geometric product, so "e2e1" is -e1^e2 and
"e1e1" is the square of e1.  Note "e12" names the single generator e_12.

Canonical output: terms ordered by grade then by index set, coefficient
1 elided, e.g. ``1 + 2*e1^e2 - 1/3*e1^e2^e3``; ``parse(format(a)) == a``.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from typing import Callable

from .core import Multivector, Signature, blade_indices, blade_sort_key, geometric_product, wedge

#: One token per match; ``bad`` takes any character no token starts with.
_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<blade>(?:e\d+)+)|(?P<op>[-+*^/()])|(?P<bad>\S))"
)

ProductFn = Callable[[Multivector, Multivector], Multivector]

#: Deepest parenthesis nesting accepted; the parser recurses once per
#: level, so this keeps it well inside the interpreter's recursion limit.
MAX_NESTING = 100


class ParseError(ValueError):
    """Syntax or range error in a multivector expression."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _int(digits: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ParseError(f"numeral of {len(digits)} digits is too long", pos) from None


class _Parser:
    def __init__(self, text: str, sig: Signature, star: ProductFn):
        self.sig = sig
        self.ops = {"+": operator.add, "-": operator.sub, "*": star, "^": wedge}
        self.depth = self.idx = 0
        matches = _TOKEN.finditer(text)
        self.tokens = [(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup)) for m in matches]
        for kind, val, pos in self.tokens:
            if kind == "bad":
                raise ParseError(f"unexpected character {val!r}", pos)
        self.tokens.append(("end", "", len(text)))

    def _take(self, *ops: str):
        """The next token, consumed; with ``ops``, only an operator among
        them, else None and nothing consumed."""
        token = self.tokens[self.idx]
        if ops and token[1] not in ops:
            return None
        self.idx += 1
        return token

    def _fold(self, value: Multivector, operand, *ops: str) -> Multivector:
        """``value`` and each following operand, joined left to right by
        the operators ``ops``."""
        while token := self._take(*ops):
            value = self.ops[token[1]](value, operand())
        return value

    def parse(self) -> Multivector:
        value = self.expr()
        kind, val, pos = self._take()
        if kind != "end":
            raise ParseError(f"unexpected {val!r}", pos)
        return value

    def expr(self) -> Multivector:
        sign = self._take("+", "-")
        value = self.term()
        return self._fold(-value if sign and sign[1] == "-" else value, self.term, "+", "-")

    def term(self) -> Multivector:
        return self._fold(self.factor(), self.factor, "*", "^")

    def factor(self) -> Multivector:
        kind, val, pos = self._take()
        if kind == "num":
            coeff = Fraction(_int(val, pos))
            if self._take("/"):
                kind, val, pos = self._take()
                if kind != "num":
                    raise ParseError("expected denominator digits after '/'", pos)
                den = _int(val, pos)
                if den == 0:
                    raise ParseError("zero denominator", pos)
                coeff /= den
            return Multivector.scalar(self.sig, coeff)
        if kind == "blade":
            return self._blade(val, pos)
        if val == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            if not self._take(")"):
                raise ParseError("expected ')'", self.tokens[self.idx][2])
            return inner
        if kind == "end":
            raise ParseError("unexpected end of expression", pos)
        raise ParseError("expected a rational, a blade like e1e2, or '('", pos)

    def _blade(self, literal: str, pos: int) -> Multivector:
        value = Multivector.scalar(self.sig, 1)
        for part in literal[1:].split("e"):
            i = _int(part, pos)
            if not 1 <= i <= self.sig.n:
                raise ParseError(f"basis vector e{i} out of range for {self.sig}", pos)
            value = geometric_product(value, Multivector.basis_vector(self.sig, i))
        return value


def parse_multivector(
    text: str, sig: Signature, star: ProductFn | None = None
) -> Multivector:
    """Parse ``text`` over Cl(p,q); ``star`` replaces the '*' product."""
    return _Parser(text, sig, star or geometric_product).parse()


def format_multivector(a: Multivector) -> str:
    """Canonical text form; parses back to the same value."""
    terms = a.terms
    if not terms:
        return "0"
    pieces: list[str] = []
    for mask in sorted(terms, key=blade_sort_key):
        coeff = terms[mask]
        negative = coeff < 0
        mag = -coeff if negative else coeff
        if mask == 0:
            body = str(mag)
        else:
            blade = "^".join(f"e{i}" for i in blade_indices(mask))
            body = blade if mag == 1 else f"{mag}*{blade}"
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)
