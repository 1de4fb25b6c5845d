import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lingtruth.errors import DomainError, ParseError, UnboundAtomError
from lingtruth.formula import (
    And,
    Atom,
    Formula,
    Implies,
    Not,
    Or,
    Valuation,
    atom_names,
    evaluate,
    parse,
    render,
)
from lingtruth.lattice import AlgebraConfig, LinguisticValue, Polarity, lia, qlia

T = LinguisticValue.true
F = LinguisticValue.false


def deep_formula(shape: str, depth: int) -> str:
    """A formula nested ``depth`` levels deep in one of four ways."""
    return {
        "not": "!" * depth + "P",
        "parens": "(" * depth + "P" + ")" * depth,
        "implies": " -> ".join(["P"] * depth),
        "and": " & ".join(["P"] * depth),
    }[shape]


# each shape's value at P = v1F in lia(4), for an even depth
DEEP_VALUES = {"not": F(1), "parens": F(1), "implies": T(4), "and": F(1)}
# formulas nested deeper than the default recursion limit, one per way to nest
DEEP_FORMULAS = {shape: deep_formula(shape, 3000) for shape in DEEP_VALUES}


def deep_rendered(shape: str, depth: int) -> str:
    """The canonical text of ``deep_formula(shape, depth)``: only the
    parentheses go."""
    return "P" if shape == "parens" else deep_formula(shape, depth)


class TestParsing:
    def test_single_connective(self):
        assert parse("P -> Q") == Implies(Atom("P"), Atom("Q"))

    def test_precedence(self):
        assert parse("!P & Q -> R") == Implies(And(Not(Atom("P")), Atom("Q")), Atom("R"))

    def test_implication_is_right_associative(self):
        assert parse("A -> B -> C") == Implies(Atom("A"), Implies(Atom("B"), Atom("C")))

    def test_and_binds_tighter_than_or(self):
        assert parse("P | Q & R") == Or(Atom("P"), And(Atom("Q"), Atom("R")))

    def test_both_negation_signs(self):
        assert parse("~P") == parse("!P") == Not(Atom("P"))

    def test_parentheses(self):
        assert parse("P & (Q | R)") == And(Atom("P"), Or(Atom("Q"), Atom("R")))

    def test_equality_and_repr_are_structural(self):
        node = parse("!P & Q -> R")
        assert repr(node) == ("Implies(left=And(left=Not(child=Atom(name='P')), "
                              "right=Atom(name='Q')), right=Atom(name='R'))")
        assert node == Implies(And(Not(Atom("P")), Atom("Q")), Atom("R"))
        assert parse("P & Q") != parse("P | Q") and parse("P & Q") != parse("Q & P")
        assert Atom("P") != "P" and len({parse("P -> Q"), parse("(P) -> (Q)")}) == 1

    @pytest.mark.parametrize("text", ["P", "!P", "P & Q", "P | Q", "P -> Q"])
    def test_not_equal_is_the_negation_of_equal(self, text):
        node = parse(text)
        for other in (parse(text), parse("Q"), parse("!Q"), parse("Q & P"), parse("Q -> P")):
            assert (node != other) is not (node == other)
        # a node is a tuple of its children, but hashes by its shape
        fields = tuple(node)
        assert (node == fields, fields == node, node != fields) == (False, False, True)

    @pytest.mark.parametrize("node", [Atom("P"), Not(Atom("P")), And(Atom("P"), Atom("Q")),
                                      Or(Atom("P"), Atom("Q")), Implies(Atom("P"), Atom("Q"))],
                             ids=lambda node: type(node).__name__)
    def test_nodes_are_not_ordered(self, node):
        for other in (node, Atom("Q")):
            for compare in (lambda a, b: a < b, lambda a, b: a > b,
                            lambda a, b: a <= b, lambda a, b: a >= b):
                with pytest.raises(TypeError):
                    compare(node, other)

    def test_whitespace_insignificant(self):
        assert parse("  P->Q  ") == parse("P -> Q")

    def test_atom_lexical_rule(self):
        assert parse("_left2 -> right_3") == Implies(Atom("_left2"), Atom("right_3"))


class TestParseErrors:
    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError) as err:
            parse("(P")
        assert err.value.position == 2

    def test_dangling_operator(self):
        with pytest.raises(ParseError) as err:
            parse("P &")
        assert err.value.position == 3

    def test_empty_input(self):
        with pytest.raises(ParseError) as err:
            parse("")
        assert err.value.position == 0

    def test_trailing_garbage(self):
        with pytest.raises(ParseError) as err:
            parse("P Q")
        assert err.value.position == 2

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            parse("P + Q")
        assert err.value.position == 2

    @pytest.mark.parametrize("text, position", [("P Q -", 4), ("( & ) -", 6), ("P ) -", 4)])
    def test_bad_character_is_reported_before_a_syntax_error(self, text, position):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"unexpected character '-' (at offset {position})"

    @pytest.mark.parametrize("text, message, position", [
        ("P & Q)", "unexpected trailing input", 5),
        ("(P & Q", "expected ')'", 6),
        ("(P & Q R", "expected ')'", 7),
        ("P & Q R", "unexpected trailing input", 6),
        ("!(P) !Q", "unexpected trailing input", 5),
        ("P -> ", "expected a formula", 5),
        ("(!)", "expected a formula", 2),
    ])
    def test_syntax_error_messages(self, text, message, position):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"{message} (at offset {position})"


# every code point, and the whitespace among them
EVERY_CHARACTER = "".join(map(chr, range(sys.maxunicode + 1)))
WHITESPACE = re.sub(r"\S+", "", EVERY_CHARACTER)


def parse_outcome(text: str) -> tuple:
    try:
        return "ok", render(parse(text))
    except ParseError as exc:
        return str(exc).rsplit(" (at offset", 1)[0], exc.position


# text -> its canonical text or the ParseError's message and offset; recorded
# with the tokenizer whose last group caught any bad character
TOKENIZER_OUTCOMES = [
    ('P\u2003->\u2003Q', ('ok', 'P -> Q')),
    ('\u3000P\u3000&\u3000!Q\u3000', ('ok', 'P & !Q')),
    ('P\x85|\x85Q', ('ok', 'P | Q')),
    ('P\x1c->\x1cQ', ('ok', 'P -> Q')),
    ('P -> Q', ('ok', 'P -> Q')),
    ('P->Q', ('ok', 'P -> Q')),
    ('P & é', ("unexpected character 'é'", 4)),
    ('é', ("unexpected character 'é'", 0)),
    ('P -> ٣', ("unexpected character '٣'", 5)),
    ('x٣', ("unexpected character '٣'", 1)),
    ('1P', ("unexpected character '1'", 0)),
    ('P & 1P', ("unexpected character '1'", 4)),
    ('P - Q', ("unexpected character '-'", 2)),
    ('P -', ("unexpected character '-'", 2)),
    ('P > Q', ("unexpected character '>'", 2)),
    ('>', ("unexpected character '>'", 0)),
    ('P --> Q', ("unexpected character '-'", 2)),
    ('P -> -> Q', ('expected a formula', 5)),
    ('P- >Q', ("unexpected character '-'", 1)),
    ('P\u2003Q', ('unexpected trailing input', 2)),
    ('\u3000(P', ("expected ')'", 3)),
    ('(P é', ("unexpected character 'é'", 3)),
    ('P Q é', ("unexpected character 'é'", 4)),
    ('!\x85', ('expected a formula', 2)),
    ('P ->', ('expected a formula', 4)),
    ('\x1c', ('expected a formula', 1)),
]


@st.composite
def _respaced(draw):
    """One text of tokens and bad characters, as in criterion 16, twice:
    the whitespace characters between them drawn afresh for each copy."""
    pieces = draw(st.lists(st.sampled_from([
        "P", "x1", "_a", "!", "~", "(", ")", "&", "|", "->", "-", ">", "9", "é", None, None,
    ]), max_size=30))
    spaces = st.sampled_from(WHITESPACE)
    return ["".join(p or draw(spaces) for p in pieces) for _ in range(2)]


class TestTokens:
    def test_split_and_regex_whitespace_agree(self):
        # parse finds a bad character by comparing its tokens with the text's
        # ``split``; that holds only while ``split`` and ``\s`` agree
        assert "".join(EVERY_CHARACTER.split()) == re.sub(r"\s+", "", EVERY_CHARACTER)

    @pytest.mark.parametrize("text, outcome", TOKENIZER_OUTCOMES)
    def test_outcomes_are_pinned(self, text, outcome):
        assert parse_outcome(text) == outcome

    @settings(max_examples=500)
    @given(_respaced())
    def test_whitespace_characters_are_interchangeable(self, texts):
        assert parse_outcome(texts[0]) == parse_outcome(texts[1])


class TestDeepNesting:
    # this case used to pin a refusal of deep input; it keeps its name
    @pytest.mark.parametrize("shape", ["not", "parens", "implies"])
    def test_recursive_nesting_is_a_parse_error(self, shape):
        node = parse(DEEP_FORMULAS[shape])
        assert evaluate(node, Valuation(lia(4), {"P": F(1)})) == DEEP_VALUES[shape]
        assert render(node) == deep_rendered(shape, 3000)

    @pytest.mark.parametrize("shape", DEEP_VALUES)
    def test_hundred_thousand_levels(self, shape):
        depth = 100_000
        node = parse(deep_formula(shape, depth))
        assert evaluate(node, Valuation(lia(4), {"P": F(1)})) == DEEP_VALUES[shape]
        assert render(node) == deep_rendered(shape, depth)
        assert atom_names(node) == {"P"}

    @pytest.mark.parametrize("shape", DEEP_VALUES)
    def test_equality_hash_and_repr_at_hundred_thousand_levels(self, shape):
        depth = 100_000
        node = parse(deep_formula(shape, depth))
        twin = parse(deep_formula(shape, depth))
        assert node == twin and hash(node) == hash(twin)
        if shape != "parens":  # parentheses leave only the atom
            assert node != parse(deep_formula(shape, depth - 2))
        atom, levels = "Atom(name='P')", depth - (shape in ("implies", "and"))
        assert repr(node) == {
            "not": "Not(child=" * levels + atom + ")" * levels,
            "parens": atom,
            "implies": f"Implies(left={atom}, right=" * levels + atom + ")" * levels,
            "and": "And(left=" * levels + atom + f", right={atom})" * levels,
        }[shape]

    @pytest.mark.parametrize("shape", DEEP_VALUES)
    def test_not_equal_is_not_equal_at_hundred_thousand_levels(self, shape):
        """A node is also a tuple, whose ``!=`` would compare fields and recurse."""
        node, twin = (parse(deep_formula(shape, 100_000)) for _ in range(2))
        other = parse(deep_formula(shape, 99_998))
        assert (node != twin) is False and (node != other) is (shape != "parens")

    def test_long_conjunction_parses_in_a_loop(self):
        node, depth = parse(DEEP_FORMULAS["and"]), 0
        while isinstance(node, And):
            assert node.right == Atom("P")
            node, depth = node.left, depth + 1
        assert (node, depth) == (Atom("P"), 2999)


class TestRendering:
    def test_plain_connectives(self):
        assert render(Implies(Atom("P"), Atom("Q"))) == "P -> Q"
        assert render(And(Not(Atom("P")), Atom("Q"))) == "!P & Q"

    def test_forced_parentheses(self):
        assert render(Not(And(Atom("P"), Atom("Q")))) == "!(P & Q)"
        assert (
            render(Implies(Implies(Atom("A"), Atom("B")), Atom("C")))
            == "(A -> B) -> C"
        )

    def test_right_association_needs_no_parens(self):
        node = Implies(Atom("A"), Implies(Atom("B"), Atom("C")))
        assert render(node) == "A -> B -> C"

    def test_nested_same_precedence(self):
        assert render(And(And(Atom("A"), Atom("B")), Atom("C"))) == "A & B & C"
        assert render(And(Atom("A"), And(Atom("B"), Atom("C")))) == "A & (B & C)"


_atoms = st.sampled_from(["P", "Q", "R", "S", "x1", "_y"]).map(Atom)
_formulas = st.recursive(
    _atoms,
    lambda sub: st.one_of(
        sub.map(Not),
        st.tuples(sub, sub).map(lambda t: And(*t)),
        st.tuples(sub, sub).map(lambda t: Or(*t)),
        st.tuples(sub, sub).map(lambda t: Implies(*t)),
    ),
    max_leaves=24,
)


@settings(max_examples=300)
@given(_formulas)
def test_parse_render_round_trip(node):
    assert parse(render(node)) == node


def _deep_random_formula(rng, depth: int) -> Formula:
    """A formula ``depth`` levels deep: each level negates the formula so
    far or joins it, on either side, to an atom or a negated atom."""
    node = Atom(rng.choice("PQR"))
    for _ in range(depth):
        shape = rng.randrange(7)
        if shape == 0:
            node = Not(node)
            continue
        other = Atom(rng.choice("PQR"))
        if shape % 2:
            other = Not(other)
        kind = (And, Or, Implies)[shape % 3]
        node = kind(node, other) if shape < 4 else kind(other, node)
    return node


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(1000, 5000))
def test_deep_parse_render_round_trip(seed, depth):
    text = render(_deep_random_formula(random.Random(seed), depth))
    assert render(parse(text)) == text


def test_atom_names():
    assert atom_names(parse("(P & !Q) -> P | R")) == {"P", "Q", "R"}


# MP and MT schema values at n = 10**6, LIA and QLIA with i = 3
_SHARED_HUGE = {
    ("v3F", "v500000T"): ("v999997T", "v500003T"),
    ("v500000F", "v3T"): ("v500003T", "v999997T"),
    ("v999999T", "v3F"): ("v999999T", "v999998T"),
    ("v999997F", "v4T"): ("v1000000T", "v1000000T"),
}
HUGE_SCHEMA_VALUES = {
    "LIA": {
        ("v1F", "v4F"): ("v999999T", "v999997T"),
        ("v4T", "v1T"): ("v999997T", "v999999T"),
        ("v999997T", "v4F"): ("v999999T", "v999999T"),
        **_SHARED_HUGE,
    },
    "QLIA": {  # the removed link between v3F and v999997T lifts these
        ("v1F", "v4F"): ("v1000000T", "v999997T"),
        ("v4T", "v1T"): ("v999997T", "v1000000T"),
        ("v999997T", "v4F"): ("v1000000T", "v999999T"),
        **_SHARED_HUGE,
    },
}


class TestEvaluation:
    def test_modus_ponens_schema(self):
        val = Valuation(lia(4), {"P": T(3), "Q": T(2)})
        assert evaluate(parse("(P & (P -> Q)) -> Q"), val) == T(3)

    def test_atom_identity(self):
        val = Valuation(lia(4), {"P": F(1)})
        assert evaluate(parse("P"), val) == F(1)

    def test_double_negation(self):
        val = Valuation(lia(4), {"P": F(2)})
        assert evaluate(parse("!!P"), val) == F(2)

    def test_quasi_modus_tollens_schema(self):
        val = Valuation(qlia(4, 2), {"P": T(3), "Q": T(1)})
        assert evaluate(parse("(!Q & (P -> Q)) -> !P"), val) == T(4)

    def test_evaluation_builds_no_operation_tables(self):
        # the tables cost far more than one evaluation at large n
        config = qlia(300, 7)
        val = Valuation(config, {"P": T(250), "Q": F(7)})
        assert evaluate(parse("(!Q & (P -> Q)) -> !P | P"), val) == T(300)
        assert "tables" not in vars(config)

    @pytest.mark.parametrize("config", [lia(10**6), qlia(10**6, 3)], ids=["LIA", "QLIA"])
    def test_schemas_at_a_million_grades_build_neither_carrier_nor_tables(
            self, monkeypatch, config):
        def refuse(*args):
            raise AssertionError("evaluate built the carrier or the operation tables")

        monkeypatch.setattr(AlgebraConfig, "values", refuse)
        monkeypatch.setattr(AlgebraConfig, "tables", property(refuse))
        mp, mt = parse("(P & (P -> Q)) -> Q"), parse("(!Q & (P -> Q)) -> !P")
        # (e(P), e(Q)): MP and MT values, recorded from the closed-form
        # evaluator that preceded the index kernel
        expected = HUGE_SCHEMA_VALUES[config.kind]
        for (p, q), values in expected.items():
            val = Valuation(config, {"P": config.parse_value(p), "Q": config.parse_value(q)})
            assert (str(evaluate(mp, val)), str(evaluate(mt, val))) == values

    def test_every_atom_value_is_checked(self):
        val = Valuation(lia(4), {"P": lia(4).top()})
        val.assignment["P"] = LinguisticValue(9, Polarity.T)  # after the Valuation's check
        for text in ("P", "P & P"):
            with pytest.raises(DomainError):
                evaluate(parse(text), val)

    def test_self_implication_lifts_to_formulas(self):
        alg = lia(4)
        for v in alg.values():
            assert evaluate(parse("P -> P"), Valuation(alg, {"P": v})) == alg.top()

    def test_contraposition_lifts_to_formulas(self):
        alg = qlia(4, 2)
        forward = parse("P -> Q")
        backward = parse("!Q -> !P")
        for p in alg.values():
            for q in alg.values():
                val = Valuation(alg, {"P": p, "Q": q})
                assert evaluate(forward, val) == evaluate(backward, val)

    def test_unassigned_atom_is_named(self):
        val = Valuation(lia(4), {"P": T(1)})
        with pytest.raises(UnboundAtomError) as err:
            evaluate(parse("P & Q"), val)
        assert err.value.atom == "Q"

    def test_each_atom_is_read_once_in_first_occurrence_order(self):
        for text, first in (("Q & P", "Q"), ("(R -> P) & !Q", "R"), ("P | (Q & P)", "P")):
            with pytest.raises(UnboundAtomError) as err:
                evaluate(parse(text), Valuation(lia(4), {}))
            assert err.value.atom == first

        read = []

        class Recording(dict):
            def __getitem__(self, name):
                read.append(name)
                return dict.__getitem__(self, name)

        formula = parse("(P & Q) -> (P | !Q) & P")
        value = evaluate(formula, Valuation(lia(4), Recording(Q=F(2), P=T(1))))
        assert read == ["P", "Q"]
        assert value == evaluate(formula, Valuation(lia(4), {"P": T(1), "Q": F(2)}))

    def test_valuation_validates_values(self):
        from lingtruth.errors import DomainError

        with pytest.raises(DomainError):
            Valuation(lia(2), {"P": T(9)})
