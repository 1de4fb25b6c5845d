"""Propositional formulas over linguistic-truth-valued atoms.

Concrete syntax (loosest to tightest binding):

    formula  ::= disj ('->' formula)?          right associative
    disj     ::= conj ('|' conj)*
    conj     ::= unary ('&' unary)*
    unary    ::= ('!' | '~') unary | atom | '(' formula ')'
    atom     ::= [A-Za-z_][A-Za-z0-9_]*

Whitespace is insignificant.  ``render`` produces the canonical text with
minimal parentheses, and ``parse(render(f)) == f`` for every formula.
``parse`` reads the tokens with one ``findall``, which skips a bad character;
only when the tokens do not spell the text's ``split()`` is it looked for, at
the end of the text's longest prefix of tokens and whitespace.

Truth evaluation is structural: each connective is the algebra operation
of the valuation's config, run on carrier indices by the config's kernel.
Each atom's value is checked and encoded once and only the result decoded,
so ``values()`` and the tables are never built.  Every atom must be assigned.

No function here recurses, so any depth that fits in memory works: ``parse``
runs one loop over the tokens with an operand and an operator stack, and
``evaluate``, ``render``, ``atom_names`` and the nodes' ``==``, ``hash`` and
``repr`` walk the tree with explicit stacks.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Mapping

from .errors import ParseError, UnboundAtomError, require
from .lattice import AlgebraConfig, LinguisticValue


class Formula:
    """Base class for formula nodes.  Two trees are equal when their
    post-order sequences of (node class, atom name) are: each class has a
    fixed number of children, so that sequence fixes the tree."""

    __slots__ = ()

    def __str__(self) -> str:
        return render(self)

    def _shape(self) -> list[tuple[type, str | None]]:
        return [(type(n), n.name if type(n) is Atom else None) for n in _postorder(self)]

    def __eq__(self, other):
        if not isinstance(other, Formula):
            # not a plain tuple's equal either: the hashes would differ
            return False if isinstance(other, tuple) else NotImplemented
        return self._shape() == other._shape()

    def __ne__(self, other):  # a node is also a tuple, whose != would come first
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self) -> int:
        return hash(tuple(self._shape()))

    def __lt__(self, other):  # trees are not ordered; tuple order would recurse
        return NotImplemented

    __le__ = __gt__ = __ge__ = __lt__

    def __repr__(self) -> str:
        """The named-tuple form, e.g. ``Not(child=Atom(name='P'))``, written
        from a stack of pending texts and nodes."""
        out, todo = [], [self]
        while todo:
            item = todo.pop()
            kind = type(item)
            if kind is str:
                out.append(item)
            elif kind is Atom:
                out.append(f"Atom(name={item.name!r})")
            elif kind is Not:
                todo += (")", item.child, "Not(child=")
            else:
                todo += (")", item.right, ", right=", item.left, f"{kind.__name__}(left=")
        return "".join(out)


# each node a named tuple of its children (an atom, of its name); equality,
# hashing and repr come from Formula, without recursion
class Atom(Formula, namedtuple("Atom", "name")):
    __slots__ = ()


class Not(Formula, namedtuple("Not", "child")):
    __slots__ = ()


class And(Formula, namedtuple("And", "left right")):
    __slots__ = ()


class Or(Formula, namedtuple("Or", "left right")):
    __slots__ = ()


class Implies(Formula, namedtuple("Implies", "left right")):
    __slots__ = ()


# ----------------------------------------------------------------------
# Parsing

_ATOM_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(rf"{_ATOM_RE.pattern}|->|[!~&|()]")
# the longest prefix of tokens and whitespace: it ends at the first bad character
_READABLE = rf"(?:\s*(?:{_TOKEN_RE.pattern}))*\s*"

# binary operator token -> (precedence, node class); only '->' groups right
_BINARY = {"->": (1, Implies), "|": (2, Or), "&": (3, And)}
_NEGATION = frozenset("!~")


def _offset(text: str, k: int) -> int:
    """Where token k of ``text`` starts, or its length past the last token."""
    starts = [m.start() for m in _TOKEN_RE.finditer(text)]
    return starts[k] if k < len(starts) else len(text)


def parse(text: str) -> Formula:
    """Parse formula text; raises ParseError with an offset on bad input.
    One ``findall`` reads every token first, so a bad character, looked for
    only when the tokens do not spell ``text.split()``, is reported before
    any syntax error; offsets are looked up only for an error."""
    tokens = _TOKEN_RE.findall(text)
    if "".join(tokens) != "".join(text.split()):  # ``split`` and ``\s`` agree
        offset = re.match(_READABLE, text).end()
        raise ParseError(f"unexpected character {text[offset]!r}", offset)

    new = tuple.__new__  # each node is a tuple of its children
    operands: list[Formula] = []
    operators: list[str] = []  # '!', '~', '(' and binary operator tokens
    depth = 0  # open parentheses
    want_operand = True
    for k, token in enumerate(tokens):
        if want_operand:
            if token in _NEGATION or token == "(":
                operators.append(token)
                depth += token == "("
                continue
            if token in _BINARY or token == ")":
                raise ParseError("expected a formula", _offset(text, k))
            operands.append(new(Atom, (token,)))
        elif token in _BINARY:
            precedence = _BINARY[token][0] + (token == "->")  # an earlier '->' waits
            while operators and _BINARY.get(operators[-1], (0,))[0] >= precedence:
                right = operands.pop()  # '(' has no precedence and stops the loop
                operands[-1] = new(_BINARY[operators.pop()][1], (operands[-1], right))
            operators.append(token)
            want_operand = True
            continue
        elif token == ")" and depth:
            while (top := operators.pop()) != "(":
                right = operands.pop()
                operands[-1] = new(_BINARY[top][1], (operands[-1], right))
            depth -= 1
        else:
            message = "expected ')'" if depth else "unexpected trailing input"
            raise ParseError(message, _offset(text, k))
        # an operand is complete: the negations in front of it apply now
        while operators and operators[-1] in _NEGATION:
            operators.pop()
            operands[-1] = new(Not, (operands[-1],))
        want_operand = False
    if want_operand or depth:
        raise ParseError("expected a formula" if want_operand else "expected ')'", len(text))
    while operators:
        right = operands.pop()
        operands[-1] = new(_BINARY[operators.pop()][1], (operands[-1], right))
    return operands[0]


# ----------------------------------------------------------------------
# Walking a tree


def _postorder(node: Formula) -> list[Formula]:
    """Every node of the tree, left subtree first and each node after its
    subtrees: a node-right-left pre-order, reversed."""
    order, lefts = [node], []  # lefts: left subtrees still to visit
    while True:
        kind = type(node)
        if kind is Not:
            node = node.child
        elif kind is not Atom:
            lefts.append(node.left)
            node = node.right
        elif lefts:
            node = lefts.pop()
        else:
            break
        order.append(node)
    order.reverse()
    return order


def _fold(node: Formula, atom, ops):
    """``node``'s value, bottom-up over one post-order walk: ``atom(name)`` for
    an atom, ``ops[Not](x)`` and ``ops[And|Or|Implies](x, y)`` for the rest."""
    values = []
    push, pop, negate = values.append, values.pop, ops[Not]
    for n in _postorder(node):
        kind = type(n)
        if kind is Atom:
            push(atom(n.name))
        elif kind is Not:
            values[-1] = negate(values[-1])
        else:
            right = pop()
            values[-1] = ops[kind](values[-1], right)
    return values[0]


def atom_names(node: Formula) -> set[str]:
    return {n.name for n in _postorder(node) if type(n) is Atom}


# ----------------------------------------------------------------------
# Rendering

# node class -> (precedence, symbol, least precedence of the left and the
# right operand that needs no parentheses); '->' groups to the right, and
# '!' has precedence 4
_RENDER = {Implies: (1, " -> ", 2, 1), Or: (2, " | ", 2, 3), And: (3, " & ", 3, 4)}


def render(node: Formula) -> str:
    """Canonical text with minimal parentheses; inverse of parse.  A stack of
    pending texts and (node, least precedence) pairs writes each piece once."""
    out, todo = [], [(node, 0)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, least = item
        kind = type(node)
        if kind is Atom:
            out.append(node.name)
            continue
        if kind is Not:
            precedence, pieces = 4, ((node.child, 4), "!")
        else:
            precedence, symbol, left, right = _RENDER[kind]
            pieces = ((node.right, right), symbol, (node.left, left))
        todo += (")", *pieces, "(") if precedence < least else pieces
    return "".join(out)


# ----------------------------------------------------------------------
# Evaluation


class Valuation(namedtuple("Valuation", "config assignment")):
    """A total assignment of truth values to atom names for one algebra."""

    __slots__ = ()

    def __new__(cls, config: AlgebraConfig, assignment: Mapping[str, LinguisticValue]):
        require(config, AlgebraConfig)
        for value in assignment.values():
            config.validate_value(value)
        return tuple.__new__(cls, (config, assignment))

    _make = classmethod(lambda cls, fields: cls(*fields))  # ``_replace`` validates too

    def value_of(self, name: str) -> LinguisticValue:
        try:
            return self.assignment[name]
        except KeyError:
            raise UnboundAtomError(name) from None


def _operations(kernel) -> dict:
    """Each connective's operation in a config's kernel or its rows (same field
    names): ``evaluate`` folds the kernel's, `lingtruth.inference` the rows."""
    return {Not: kernel.negate, And: kernel.meet, Or: kernel.join, Implies: kernel.implies}


class _Codes(dict):
    """Atom name -> carrier index, each value checked and encoded on first use."""

    __slots__ = ("encode", "value_of")

    def __missing__(self, name: str) -> int:
        code = self[name] = self.encode(self.value_of(name))
        return code


def evaluate(node: Formula, valuation: Valuation) -> LinguisticValue:
    kernel, codes = valuation.config._kernel, _Codes()
    codes.encode, codes.value_of = kernel.encode, valuation.value_of
    return kernel.decode(_fold(node, codes.__getitem__, _operations(kernel)))
