"""Propositional formulas over linguistic-truth-valued atoms.

Concrete syntax (loosest to tightest binding):

    formula  ::= disj ('->' formula)?          right associative
    disj     ::= conj ('|' conj)*
    conj     ::= unary ('&' unary)*
    unary    ::= ('!' | '~') unary | atom | '(' formula ')'
    atom     ::= [A-Za-z_][A-Za-z0-9_]*

Whitespace is insignificant.  ``render`` produces the canonical text with
minimal parentheses, and ``parse(render(f)) == f`` for every formula.

Truth evaluation is structural: each connective maps to the corresponding
algebra operation of the valuation's config, and negation to the polarity
flip.  Every atom must be assigned; evaluation never invents defaults.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

from .errors import ParseError, UnboundAtomError
from .lattice import AlgebraConfig, LinguisticValue


class Formula:
    """Base class for formula nodes."""

    __slots__ = ()

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


# ----------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<atom>[A-Za-z_][A-Za-z0-9_]*)|(?P<implies>->)|(?P<op>[!~&|()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[at]!r}", at)
        if m.group("atom"):
            tokens.append(("atom", m.group("atom"), m.start("atom")))
        elif m.group("implies"):
            tokens.append(("->", "->", m.start("implies")))
        else:
            op = m.group("op")
            tokens.append((op, op, m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str, what: str):
        token = self.peek()
        if token[0] != kind:
            raise ParseError(what, token[2])
        return self.advance()

    def formula(self) -> Formula:
        left = self.disjunction()
        if self.peek()[0] == "->":
            self.advance()
            return Implies(left, self.formula())
        return left

    def disjunction(self) -> Formula:
        node = self.conjunction()
        while self.peek()[0] == "|":
            self.advance()
            node = Or(node, self.conjunction())
        return node

    def conjunction(self) -> Formula:
        node = self.unary()
        while self.peek()[0] == "&":
            self.advance()
            node = And(node, self.unary())
        return node

    def unary(self) -> Formula:
        kind, value, pos = self.peek()
        if kind in ("!", "~"):
            self.advance()
            return Not(self.unary())
        if kind == "(":
            self.advance()
            node = self.formula()
            self.expect(")", "expected ')'")
            return node
        if kind == "atom":
            self.advance()
            return Atom(value)
        raise ParseError("expected a formula", pos)


def parse(text: str) -> Formula:
    """Parse formula text; raises ParseError with an offset on bad input,
    including input nested deeper than the interpreter's recursion limit."""
    parser = _Parser(text)
    try:
        node = parser.formula()
    except RecursionError:
        raise ParseError("formula nested too deeply", parser.peek()[2]) from None
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ParseError("unexpected trailing input", pos)
    return node


# ----------------------------------------------------------------------
# Rendering

_PREC = {Implies: 1, Or: 2, And: 3, Not: 4, Atom: 5}


def render(node: Formula) -> str:
    """Canonical text with minimal parentheses; inverse of parse."""
    return _render(node, 0)


def _render(node: Formula, min_prec: int) -> str:
    prec = _PREC[type(node)]
    if isinstance(node, Atom):
        text = node.name
    elif isinstance(node, Not):
        text = "!" + _render(node.child, prec)
    elif isinstance(node, Implies):
        # right associative: only an Implies on the left needs parentheses
        text = f"{_render(node.left, prec + 1)} -> {_render(node.right, prec)}"
    else:
        symbol = "&" if isinstance(node, And) else "|"
        text = f"{_render(node.left, prec)} {symbol} {_render(node.right, prec + 1)}"
    if prec < min_prec:
        return f"({text})"
    return text


def atom_names(node: Formula) -> set[str]:
    if isinstance(node, Atom):
        return {node.name}
    if isinstance(node, Not):
        return atom_names(node.child)
    return atom_names(node.left) | atom_names(node.right)


# ----------------------------------------------------------------------
# Evaluation


@dataclass(frozen=True)
class Valuation:
    """A total assignment of truth values to atom names for one algebra."""

    config: AlgebraConfig
    assignment: Mapping[str, LinguisticValue]

    def __post_init__(self):
        for name, value in self.assignment.items():
            self.config.validate_value(value)

    def value_of(self, name: str) -> LinguisticValue:
        try:
            return self.assignment[name]
        except KeyError:
            raise UnboundAtomError(name) from None


def evaluate(node: Formula, valuation: Valuation) -> LinguisticValue:
    config = valuation.config
    if isinstance(node, Atom):
        return valuation.value_of(node.name)
    if isinstance(node, Not):
        return config.negate(evaluate(node.child, valuation))
    left = evaluate(node.left, valuation)
    right = evaluate(node.right, valuation)
    if isinstance(node, And):
        return config.meet(left, right)
    if isinstance(node, Or):
        return config.join(left, right)
    return config.implies(left, right)
