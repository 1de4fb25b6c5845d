import functools

import pytest
from hypothesis import given, settings
from strategies import algebra_pairs

from lingtruth import inference
from lingtruth.errors import DomainError, ParseError
from lingtruth.lattice import (
    DEFAULT_LABELS_N4,
    AlgebraConfig,
    LinguisticValue,
    Polarity,
    canonical,
    default_labels,
    lia,
    qlia,
)

T = LinguisticValue.true
F = LinguisticValue.false


class TestConfigValidation:
    def test_negative_n_rejected(self):
        with pytest.raises(DomainError):
            lia(-1)

    def test_quasi_kind_needs_n_at_least_two(self):
        with pytest.raises(DomainError):
            qlia(1, 1)

    @pytest.mark.parametrize("bad", [0, 4, 5, -2])
    def test_noncomparable_index_must_be_interior(self, bad):
        with pytest.raises(DomainError):
            qlia(4, bad)

    @pytest.mark.parametrize("n, noncomparable", [
        (2.0, None), (True, None), ("4", None), (4.0, 2), (3, 1.5), (3, True), (4, "2"),
    ])
    def test_parameters_must_be_ints(self, n, noncomparable):
        with pytest.raises(DomainError, match="must be an int"):
            AlgebraConfig(n, noncomparable)

    def test_labels_must_match_chain_length(self):
        with pytest.raises(DomainError):
            lia(4, labels=("a", "b"))

    def test_labels_must_be_distinct(self):
        with pytest.raises(DomainError):
            lia(1, labels=("same", "Same"))

    @pytest.mark.parametrize("blank", ["", " ", "\t"])
    def test_labels_must_not_be_blank(self, blank):
        with pytest.raises(DomainError):
            lia(1, labels=("low", blank))

    @pytest.mark.parametrize("labels", [(1, 2), ("low", None), ("low", b"high"), "ab", 5])
    def test_labels_must_be_strings(self, labels):
        with pytest.raises(DomainError, match="hedge label"):
            AlgebraConfig(1, labels=labels)

    def test_default_labels_only_for_five_hedges(self):
        assert default_labels(4) == DEFAULT_LABELS_N4
        assert default_labels(3) is None


class TestCarrier:
    def test_bounds(self):
        alg = lia(4)
        assert alg.top() == T(4)
        assert alg.bottom() == F(4)

    def test_bounds_degenerate(self):
        alg = lia(0)
        assert alg.top() == T(0)
        assert alg.bottom() == F(0)

    def test_enumeration_order(self):
        assert lia(1).values() == (F(1), F(0), T(0), T(1))
        assert lia(0).values() == (F(0), T(0))
        assert len(lia(4).values()) == 10

    def test_validate_value(self):
        alg = lia(2)
        assert alg.validate_value(T(2)) == T(2)
        with pytest.raises(DomainError):
            alg.validate_value(T(3))

    @pytest.mark.parametrize(
        "op", ["negate", "join", "meet", "implies", "leq", "mp_closed", "mt_closed"])
    @pytest.mark.parametrize("polarity", [Polarity.F, Polarity.T], ids=["F", "T"])
    @pytest.mark.parametrize("grade", [-1, 5])
    def test_operations_reject_values_outside_the_carrier(self, grade, polarity, op):
        bad = LinguisticValue(grade, polarity)
        for config in (lia(4), qlia(4, 2)):
            if op in ("mp_closed", "mt_closed"):
                fn = functools.partial(getattr(inference, op), config)
            else:
                fn = getattr(config, op)
            calls = [(bad,)] if op == "negate" else [(bad, T(2)), (F(1), bad), (bad, bad)]
            for args in calls:
                with pytest.raises(DomainError):
                    fn(*args)


class TestValueConstruction:
    @pytest.mark.parametrize("raw, polarity", [(1, Polarity.T), (0, Polarity.F),
                                                (True, Polarity.T), (False, Polarity.F)])
    def test_int_and_bool_polarity_coerced(self, raw, polarity):
        value = LinguisticValue(3, raw)
        assert value.polarity is polarity
        assert value == LinguisticValue(3, polarity)

    def test_int_polarity_joins_like_enum(self):
        assert lia(4).join(LinguisticValue(3, 1), T(1)) == T(3)

    @pytest.mark.parametrize("bad", [2, -1, 1.0, "T", None])
    def test_other_polarity_rejected(self, bad):
        with pytest.raises(DomainError):
            LinguisticValue(3, bad)

    @pytest.mark.parametrize("op", ["join", "implies", "negate", "mp_closed"])
    @pytest.mark.parametrize("grade", [2.5, True, "2", None])
    def test_non_int_grade_rejected(self, grade, op):
        # 2.5 and True would pass the carrier's range check; "2" and None
        # would fail it with a TypeError
        config = lia(4)
        if op == "mp_closed":
            fn = functools.partial(inference.mp_closed, config)
        else:
            fn = getattr(config, op)
        with pytest.raises(DomainError):
            bad = LinguisticValue(grade, Polarity.T)
            fn(bad) if op == "negate" else fn(bad, T(1))


# every configuration with n <= 16, LIA then QLIA i = 1..n-1 for each n
SMALL_CONFIGS = [c for n in range(17) for c in [lia(n)] + [qlia(n, i) for i in range(1, n)]]


class TestOpTables:
    @pytest.mark.parametrize("config", SMALL_CONFIGS)
    def test_tables_tabulate_the_operations(self, config):
        tables = config.tables
        values = config.values()
        assert tables.values == values
        assert values[tables.top] == config.top()
        for i, a in enumerate(values):
            assert values[tables.negate[i]] == config.negate(a)
            for j, b in enumerate(values):
                assert values[tables.implies[i][j]] == config.implies(a, b)
                assert values[tables.join[i][j]] == config.join(a, b)
                assert values[tables.meet[i][j]] == config.meet(a, b)
                assert tables.leq[i][j] == config.leq(a, b)

    def test_tables_are_built_once_per_config(self):
        config = qlia(5, 2)
        assert config.tables is config.tables
        assert qlia(5, 2).tables is not config.tables


class TestNegation:
    def test_flips_polarity_keeps_grade(self):
        alg = lia(4)
        assert alg.negate(T(2)) == F(2)
        assert alg.negate(T(4)) == F(4)

    def test_involution(self):
        alg = lia(4)
        assert alg.negate(alg.negate(F(3))) == F(3)


class TestJoinMeet:
    def test_plain_mixed_join(self):
        alg = lia(4)
        assert alg.join(T(0), F(0)) == T(4)
        assert alg.join(T(3), F(2)) == T(3)  # i+j = 5 >= n

    def test_quasi_special_join(self):
        alg = qlia(4, 2)
        assert alg.join(T(2), F(2)) == T(3)

    def test_join_idempotent(self):
        for alg in (lia(4), qlia(4, 2)):
            for a in alg.values():
                assert alg.join(a, a) == a

    def test_plain_meets(self):
        alg = lia(4)
        assert alg.meet(T(2), F(2)) == F(2)  # i+j = 4 >= n
        assert alg.meet(T(2), F(1)) == F(2)  # i+j = 3 <= n

    def test_quasi_meets(self):
        alg = qlia(4, 2)
        assert alg.meet(T(2), F(1)) == F(3)
        assert alg.meet(T(2), F(2)) == F(3)  # the non-comparable pair

    def test_commutative(self):
        for alg in (lia(4), qlia(4, 2)):
            for a in alg.values():
                for b in alg.values():
                    assert alg.join(a, b) == alg.join(b, a)
                    assert alg.meet(a, b) == alg.meet(b, a)


class TestImplication:
    @pytest.mark.parametrize(
        "a, b, expected",
        [
            (F(2), F(4), T(2)),
            (T(2), F(4), F(2)),
            (F(0), T(2), T(2)),
            (T(3), T(2), T(3)),
        ],
    )
    def test_worked_values(self, a, b, expected):
        assert lia(4).implies(a, b) == expected

    def test_self_implication_is_top(self):
        for alg in (lia(4), qlia(4, 2), lia(0)):
            for a in alg.values():
                assert alg.implies(a, a) == alg.top()

    def test_contrapositive_identity(self):
        for alg in (lia(4), qlia(4, 2)):
            for a in alg.values():
                for b in alg.values():
                    assert alg.implies(a, b) == alg.implies(alg.negate(b), alg.negate(a))


class TestOrder:
    def test_cross_link(self):
        assert lia(4).leq(F(2), T(2))

    def test_quasi_pair_not_comparable(self):
        alg = qlia(4, 2)
        assert not alg.leq(F(2), T(2))
        assert not alg.leq(T(2), F(2))
        assert alg.leq(F(2), T(3))

    def test_reflexive(self):
        for alg in (lia(4), qlia(4, 2)):
            for a in alg.values():
                assert alg.leq(a, a)

    def test_leq_matches_meet(self):
        for alg in (lia(5), qlia(5, 2), lia(0)):
            for a in alg.values():
                for b in alg.values():
                    assert alg.leq(a, b) == (alg.meet(a, b) == a)

    @settings(max_examples=300)
    @given(algebra_pairs())
    def test_leq_is_the_product_order_less_one_link(self, drawn):
        # a value is the pair (b, p): polarity bit, and grade counted up the chain
        config, a, b = drawn
        n, i = config.n, config.noncomparable

        def pair(v):
            return (1, v.grade) if v.is_true else (0, n - v.grade)

        (ba, pa), (bb, pb) = pair(a), pair(b)
        removed = i is not None and ((ba, pa), (bb, pb)) == ((0, n - i), (1, n - i))
        assert config.leq(a, b) == (ba <= bb and pa <= pb and not removed)


class TestTextForms:
    def test_canonical(self):
        assert canonical(T(3)) == "v3T"
        assert canonical(F(0)) == "v0F"
        assert str(T(12)) == "v12T"

    def test_parse_canonical(self):
        alg = lia(4)
        assert alg.parse_value("v3T") == T(3)
        assert alg.parse_value(" v0F ") == F(0)

    def test_parse_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            lia(2).parse_value("v3T")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParseError):
            lia(4).parse_value("3T")
        with pytest.raises(ParseError):
            lia(4).parse_value("vxT")

    @pytest.mark.parametrize("text", ["v03T", "v00F", "v010T"])
    def test_parse_rejects_leading_zeros(self, text):
        with pytest.raises(ParseError):
            lia(12).parse_value(text)

    def test_labeled_forms(self):
        alg = lia(4, labels=DEFAULT_LABELS_N4)
        assert alg.label(T(3)) == "quite True"
        assert alg.describe(T(3)) == "v3T (quite True)"
        assert alg.parse_value("quite True") == T(3)
        assert alg.parse_value("RATHER false") == F(2)

    def test_unlabeled_describe_falls_back(self):
        assert lia(3).describe(T(1)) == "v1T"

    def test_round_trip_all_values(self):
        alg = lia(4, labels=DEFAULT_LABELS_N4)
        for v in alg.values():
            assert alg.parse_value(canonical(v)) == v
            assert alg.parse_value(alg.label(v)) == v


def test_polarity_words():
    assert Polarity.T.word == "True"
    assert Polarity.F.word == "False"


def test_kind_names():
    assert lia(4).kind == "LIA"
    assert qlia(4, 2).kind == "QLIA"


def test_labels_coerced_to_tuple():
    alg = AlgebraConfig(n=1, labels=["low", "high"])
    assert alg.labels == ("low", "high")
