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

import re
from fractions import Fraction
from typing import Callable

from .core import Multivector, Signature, blade_indices, blade_sort_key, geometric_product, wedge

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<blade>(?:e\d+)+)|(?P<op>[-+*^/()]))"
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
        self.text = text
        self.sig = sig
        self.star = star
        self.depth = 0
        self.tokens: list[tuple[str, str, int]] = []
        self._tokenize()
        self.idx = 0

    def _tokenize(self):
        pos = 0
        text = self.text
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                where = len(text) - len(stripped)
                raise ParseError(f"unexpected character {text[where]!r}", where)
            for kind in ("num", "blade", "op"):
                val = m.group(kind)
                if val is not None:
                    self.tokens.append((kind, val, m.start(kind)))
                    break
            pos = m.end()

    def _peek(self):
        if self.idx < len(self.tokens):
            return self.tokens[self.idx]
        return ("end", "", len(self.text))

    def _next(self):
        tok = self._peek()
        self.idx += 1
        return tok

    def parse(self) -> Multivector:
        value = self.expr()
        kind, val, pos = self._peek()
        if kind != "end":
            raise ParseError(f"unexpected {val!r}", pos)
        return value

    def expr(self) -> Multivector:
        negate = False
        kind, val, _ = self._peek()
        if kind == "op" and val in "+-":
            self._next()
            negate = val == "-"
        value = self.term()
        if negate:
            value = -value
        while True:
            kind, val, _ = self._peek()
            if kind == "op" and val in "+-":
                self._next()
                rhs = self.term()
                value = value - rhs if val == "-" else value + rhs
            else:
                return value

    def term(self) -> Multivector:
        value = self.factor()
        while True:
            kind, val, _ = self._peek()
            if kind == "op" and val in "*^":
                self._next()
                rhs = self.factor()
                value = self.star(value, rhs) if val == "*" else wedge(value, rhs)
            else:
                return value

    def factor(self) -> Multivector:
        kind, val, pos = self._next()
        if kind == "num":
            coeff = Fraction(_int(val, pos))
            k2, v2, _ = self._peek()
            if k2 == "op" and v2 == "/":
                self._next()
                k3, v3, p3 = self._next()
                if k3 != "num":
                    raise ParseError("expected denominator digits after '/'", p3)
                den = _int(v3, p3)
                if den == 0:
                    raise ParseError("zero denominator", p3)
                coeff /= den
            return Multivector.scalar(self.sig, coeff)
        if kind == "blade":
            return self._blade(val, pos)
        if kind == "op" and val == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            k2, v2, p2 = self._next()
            if not (k2 == "op" and v2 == ")"):
                raise ParseError("expected ')'", p2)
            return inner
        raise ParseError(
            "expected a rational, a blade like e1e2, or '('" if kind != "end" else "unexpected end of expression",
            pos,
        )

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
