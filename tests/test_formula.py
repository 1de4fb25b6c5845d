import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lingtruth.errors import ParseError, UnboundAtomError
from lingtruth.formula import (
    And,
    Atom,
    Implies,
    Not,
    Or,
    Valuation,
    atom_names,
    evaluate,
    parse,
    render,
)
from lingtruth.lattice import LinguisticValue, lia, qlia

T = LinguisticValue.true
F = LinguisticValue.false

# formulas nested deeper than the default recursion limit, one per way to nest
DEEP_FORMULAS = {
    "not": "!" * 3000 + "P",
    "parens": "(" * 3000 + "P" + ")" * 3000,
    "implies": " -> ".join(["P"] * 3000),
    "and": " & ".join(["P"] * 3000),
}


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


class TestDeepNesting:
    @pytest.mark.parametrize("shape", ["not", "parens", "implies"])
    def test_recursive_nesting_is_a_parse_error(self, shape):
        text = DEEP_FORMULAS[shape]
        with pytest.raises(ParseError, match="nested too deeply") as err:
            parse(text)
        assert 0 <= err.value.position < len(text)

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


def test_atom_names():
    assert atom_names(parse("(P & !Q) -> P | R")) == {"P", "Q", "R"}


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

    def test_valuation_validates_values(self):
        from lingtruth.errors import DomainError

        with pytest.raises(DomainError):
            Valuation(lia(2), {"P": T(9)})
