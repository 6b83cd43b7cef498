"""Parser/evaluator for the catalog expression grammar.

Expressions denote closed manifolds built from atoms with ``#``
(connected sum) and ``x`` (cartesian product)::

    expr   := sum
    sum    := prod ("#" prod)*
    prod   := factor ("x" factor)*
    factor := INT "#" factor | ATOM | "(" expr ")"

``k # T`` abbreviates the k-fold connected sum ``T # ... # T`` (1 <= k <=
1000), built in one pass with the labels of the left fold.  Both
operators are left associative and ``x`` binds tighter than ``#``, so
``RP4 # S2 x S2`` means ``RP4 # (S2 x S2)``.  Whitespace is ignored.  The
grammar is ASCII: digits and spaces of other scripts are unexpected
characters.
"""
from __future__ import annotations

import re
from typing import List, NamedTuple

from . import catalog
from .catalog import Manifold, connected_sum, product
from .errors import DimensionMismatch, ExpressionError

__all__ = ["parse_expression"]

# The atom tokens of the catalog's table, the single atoms first, so that
# CP2~ is not read as CP2 and then ~.
_ATOM_TOKENS = "|".join([*map(re.escape, catalog._SINGLES), *(rf"{stem}\d+" for stem in catalog._FAMILIES)])
_TOKEN_RE = re.compile(
    rf"""
    (?P<ws>\s+)
  | (?P<atom>{_ATOM_TOKENS})
  | (?P<int>\d+)
  | (?P<hash>\#)
  | (?P<cross>x)
  | (?P<lparen>\()
  | (?P<rparen>\))
    """,
    re.VERBOSE | re.ASCII,
)


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> List[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ExpressionError(f"unexpected character {text[pos]!r}", pos)
        if match.lastgroup != "ws":
            tokens.append(_Token(match.lastgroup, match.group(), pos))
        pos = match.end()
    return tokens


class _Parser:
    # Each "(" costs three stack frames and each "k #" one; this bound keeps
    # the deepest parse far below the interpreter's recursion limit.
    MAX_DEPTH = 100
    # ``k # A`` holds k summands at once; this bounds their list and the
    # time spent on summands with no middle cohomology, where the table
    # budget does not bite.
    MAX_COUNT = 1000

    def __init__(self, tokens: List[_Token], length: int):
        self.tokens = tokens
        self.length = length
        self.index = 0
        self.depth = 0

    def peek(self) -> _Token | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def parse(self) -> Manifold:
        result = self._sum()
        trailing = self.peek()
        if trailing is not None:
            raise ExpressionError("unexpected trailing input", trailing.pos)
        return result

    def _sum(self) -> Manifold:
        result = self._prod()
        while (token := self.peek()) is not None and token.kind == "hash":
            self.advance()
            result = _combine(connected_sum, token.pos, result, self._prod())
        return result

    def _prod(self) -> Manifold:
        result = self._factor()
        while (token := self.peek()) is not None and token.kind == "cross":
            self.advance()
            result = _combine(product, token.pos, result, self._factor())
        return result

    def _nested(self, token: _Token, parse):
        """Run ``parse`` one nesting level below ``token``."""
        if self.depth == self.MAX_DEPTH:
            raise ExpressionError(
                f"expression nests deeper than {self.MAX_DEPTH} levels", token.pos
            )
        self.depth += 1
        result = parse()
        self.depth -= 1
        return result

    def _factor(self) -> Manifold:
        token = self.peek()
        if token is None:
            raise ExpressionError("unexpected end of expression", self.length)
        if token.kind == "int":
            self.advance()
            # Too many digits is over the bound whatever they are; checking
            # the length first keeps int() off strings it refuses to convert.
            digits = token.text.lstrip("0")
            if len(digits) > len(str(self.MAX_COUNT)):
                count = self.MAX_COUNT + 1
            else:
                count = int(digits or "0")
            if count < 1:
                raise ExpressionError("repetition count must be >= 1", token.pos)
            if count > self.MAX_COUNT:
                raise ExpressionError(
                    f"repetition count must be <= {self.MAX_COUNT}", token.pos
                )
            hash_token = self.peek()
            if hash_token is None or hash_token.kind != "hash":
                raise ExpressionError(
                    "expected '#' after a repetition count",
                    token.pos + len(token.text),
                )
            self.advance()
            operand = self._nested(token, self._factor)
            if count == 1:
                return operand
            return _combine(connected_sum, hash_token.pos, *[operand] * count)
        if token.kind == "atom":
            self.advance()
            try:
                return catalog.atom(token.text)
            except ValueError as exc:
                raise ExpressionError(str(exc), token.pos) from exc
        if token.kind == "lparen":
            self.advance()
            result = self._nested(token, self._sum)
            closing = self.peek()
            if closing is None or closing.kind != "rparen":
                pos = self.length if closing is None else closing.pos
                raise ExpressionError("expected ')'", pos)
            self.advance()
            return result
        raise ExpressionError(
            "expected an atom, a repetition count, or '('", token.pos
        )


def _combine(op, pos: int, *operands: Manifold) -> Manifold:
    try:
        return op(*operands)
    except (DimensionMismatch, ValueError) as exc:
        raise ExpressionError(str(exc), pos) from exc


def parse_expression(text: str) -> Manifold:
    """Parse and evaluate a catalog expression, returning the manifold.

    Raises :class:`ExpressionError` (with a character position) on any
    syntax error or on a combination error such as a dimension mismatch
    between connected-sum operands.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ExpressionError("empty expression", 0)
    return _Parser(tokens, len(text)).parse()
