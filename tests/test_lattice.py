import functools
import random

import pytest
from hypothesis import given, settings
from planted import BYTE_LIMIT_CONFIGS, wide_rows, with_entry
from strategies import algebra_pairs

from lingtruth import axioms, inference, lattice, oracle
from lingtruth.errors import DomainError, ParseError
from lingtruth.formula import Valuation, evaluate, parse
from lingtruth.hedges import HedgeChain
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

    @pytest.mark.parametrize("label", [" a", "a ", "a\n", "\ta b"])
    def test_labels_must_not_start_or_end_with_whitespace(self, label):
        """Such a label would not parse back: ``label`` of a value gives
        text that ``parse_value`` strips and then cannot match."""
        with pytest.raises(DomainError, match="whitespace"):
            lia(1, labels=(label, "b"))

    def test_inner_whitespace_round_trips(self):
        config = lia(1, labels=("a  b", "c"))
        for value in config.values():
            assert config.parse_value(config.label(value)) == value

    @pytest.mark.parametrize("labels", [(1, 2), ("low", None), ("low", b"high"), "ab", 5])
    def test_labels_must_be_strings(self, labels):
        with pytest.raises(DomainError, match="hedge label"):
            AlgebraConfig(1, labels=labels)

    @pytest.mark.parametrize("call", [
        lambda: axioms.check_axiom("lia(2)", axioms.Axiom.I1),
        lambda: axioms.check_lattice_laws(3),
        lambda: axioms.check_involution(None),
        lambda: oracle.build_covers(4),
        lambda: oracle.verify_lattice(None),
        lambda: oracle.cross_check_ops("x"),
        lambda: oracle.verify_lattice(lia(2)),
        lambda: oracle.to_dot(lia(2)),
        lambda: oracle.to_json_dict(None),
        lambda: inference.inference_table("lia(2)", inference.RuleId.MP),
        lambda: inference.mp_closed("lia(2)", T(1), T(2)),
        lambda: inference.mt_closed(None, T(1), T(2)),
        lambda: inference.mp_direct(2, T(1), T(2)),
        lambda: inference.mt_direct("x", T(1), T(2)),
        lambda: Valuation("x", {}),
    ], ids=["check_axiom", "check_lattice_laws", "check_involution", "build_covers",
            "verify_lattice", "cross_check_ops", "verify_lattice-config", "to_dot",
            "to_json_dict", "inference_table",
            "mp_closed", "mt_closed", "mp_direct", "mt_direct", "Valuation"])
    def test_non_configs_rejected(self, call):
        # each used to fail with an AttributeError, or (Valuation) only later
        with pytest.raises(DomainError, match="expected (AlgebraConfig|CoverGraph), got"):
            call()

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
        "op", ["negate", "join", "meet", "implies", "leq", "mp_closed", "mt_closed", "label",
               "describe"])
    @pytest.mark.parametrize("polarity", [Polarity.F, Polarity.T], ids=["F", "T"])
    @pytest.mark.parametrize("grade", [-1, 5])
    def test_operations_reject_values_outside_the_carrier(self, grade, polarity, op):
        bad = LinguisticValue(grade, polarity)
        # the text forms once read a label past the carrier, or from its end
        labels = ("a", "b", "c", "d", "e")
        for config in (lia(4), qlia(4, 2), lia(4, labels), qlia(4, 2, labels)):
            if op in ("mp_closed", "mt_closed"):
                fn = functools.partial(getattr(inference, op), config)
            else:
                fn = getattr(config, op)
            single = op in ("negate", "label", "describe")
            calls = [(bad,)] if single else [(bad, T(2)), (F(1), bad), (bad, bad)]
            for args in calls:
                with pytest.raises(DomainError):
                    fn(*args)


    @pytest.mark.parametrize("call", [
        lambda: inference.mp_closed(lia(2), "v1T", "v2T"),
        lambda: lia(4).join("v1T", lia(4).top()),
        lambda: lia(4).validate_value(3),
        lambda: Valuation(lia(4), {"P": "v1T"}),
    ], ids=["mp_closed", "join", "validate_value", "Valuation"])
    def test_non_values_rejected(self, call):
        # each used to fail with an AttributeError on .grade
        with pytest.raises(DomainError, match="not a truth value"):
            call()

    @pytest.mark.parametrize("op", ["negate", "join", "meet", "implies", "leq", "mt_closed"])
    @pytest.mark.parametrize("bad", ["v1T", 3, None, (2, Polarity.T)],
                             ids=["str", "int", "None", "tuple"])
    def test_operations_reject_non_values(self, bad, op):
        config = qlia(4, 2)
        if op == "mt_closed":
            fn = functools.partial(inference.mt_closed, config)
        else:
            fn = getattr(config, op)
        calls = [(bad,)] if op == "negate" else [(bad, T(2)), (F(1), bad)]
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


class TestRecords:
    """Values and configs are named tuples: equal to plain tuples, but not
    ordered, and ``_replace`` validates as the constructor does."""

    def test_values_are_not_ordered(self):
        # tuple order (grade, polarity) would put v1T below v2F
        for compare in (lambda a, b: a < b, lambda a, b: a > b,
                        lambda a, b: a <= b, lambda a, b: a >= b):
            with pytest.raises(TypeError):
                compare(T(1), F(2))

    def test_tuple_views(self):
        assert T(3) == (3, Polarity.T) and hash(T(3)) == hash((3, 1))
        assert qlia(4, 2) == (4, 2, None) and AlgebraConfig(*qlia(4, 2)) == qlia(4, 2)
        assert lia(1, ["a", "b"]).labels == ("a", "b")

    @pytest.mark.parametrize("replace", [
        lambda: T(3)._replace(grade=2.5),
        lambda: T(3)._replace(polarity=2),
        lambda: lia(4)._replace(n=-1),
        lambda: lia(4)._replace(noncomparable=2, n=1),
        lambda: lia(4)._replace(labels=("a",)),
        lambda: Valuation(lia(4), {})._replace(assignment={"P": T(5)}),
        lambda: HedgeChain(4)._replace(n=True),
        lambda: oracle.build_covers(lia(1))._replace(covers=frozenset({(F(1), T(5))})),
    ], ids=["grade", "polarity", "n", "noncomparable", "labels", "Valuation", "HedgeChain",
            "CoverGraph"])
    def test_replace_validates(self, replace):
        with pytest.raises(DomainError):
            replace()

    def test_replaced_config_has_its_own_tables(self):
        config = lia(3)
        config.tables
        fresh = config._replace()
        assert fresh == config and "tables" not in vars(fresh)


# every configuration with n <= 16, LIA then QLIA i = 1..n-1 for each n
SMALL_CONFIGS = [c for n in range(17) for c in [lia(n)] + [qlia(n, i) for i in range(1, n)]]


class TestOpTables:
    @pytest.mark.parametrize("config", SMALL_CONFIGS)
    def test_tables_tabulate_the_operations(self, config):
        tables = config.tables
        values = config.values()
        assert len(tables.negate) == len(values)
        assert values[-1] == config.top()  # the checks take top as the last index
        for i, a in enumerate(values):
            assert values[tables.negate[i]] == config.negate(a)
            for j, b in enumerate(values):
                assert values[tables.implies[i][j]] == config.implies(a, b)
                assert values[tables.join[i][j]] == config.join(a, b)
                assert values[tables.meet[i][j]] == config.meet(a, b)
                assert (tables.join[i][j] == j) == config.leq(a, b)

    @pytest.mark.parametrize("config", SMALL_CONFIGS)
    def test_order_is_the_paper_order(self, config):
        # both codings read <= off their join; the reference shares no code with either
        n, i, join = config.n, config.noncomparable, config.tables.join
        for x, a in enumerate(config.values()):
            for y, b in enumerate(config.values()):
                assert (join[x][y] == y) == config.leq(a, b) == paper_leq(n, i, a, b)

    @pytest.mark.parametrize("config", [
        lia(127), qlia(127, 60), lia(128), qlia(128, 60), lia(200), qlia(200, 100),
        pytest.param(qlia(127, 1), id="QLIA-127-1"),
        pytest.param(qlia(127, 126), id="QLIA-127-126"),
    ], ids=lambda c: f"{c.kind}-{c.n}")
    def test_tables_match_the_kernel_above_the_exhaustive_range(self, config):
        """Seeded whole rows and columns, with those through both ends of
        the removed link (v_iF, v_(n-i)T; v_0F and v_nT for LIA), against
        the scalar kernel; the tests above stop at n = 16.  At qlia(127, 1)
        and qlia(127, 126) the patched rows sit at the ends of the byte
        rows."""
        kernel, tables = config._kernel, config.tables
        size, i = 2 * config.n + 2, config.noncomparable or 0
        ends = [kernel.encode(F(i)), kernel.encode(T(config.n - i))]
        pairs = {(x, y) for x in random.Random(config.n).sample(range(size), 24) + ends
                 for y in range(size)}
        pairs |= {(y, x) for x, y in pairs}
        assert [*tables.negate] == [kernel.negate(x) for x in range(size)]
        for x, y in pairs:
            assert tables.join[x][y] == kernel.join(x, y)
            assert tables.meet[x][y] == kernel.meet(x, y)
            assert tables.implies[x][y] == kernel.implies(x, y)

    def test_tables_are_built_once_per_config(self):
        config = qlia(5, 2)
        assert config.tables is config.tables
        assert qlia(5, 2).tables is not config.tables

    @pytest.mark.parametrize("config", SMALL_CONFIGS)
    def test_rows_compose_as_the_table(self, config):
        """Columns and maps of every operation table, on its byte rows and on
        tuple copies of them as above 256 elements: ``_columns`` transposes
        the table in the type of its rows, and a composed row or column is
        the table read twice, and has the type of the rows."""
        for table in config.tables[1:] + wide_rows(config).tables[1:]:  # join, meet, implies
            carrier = range(len(table))
            table_columns = [[table[w][z] for w in carrier] for z in carrier]
            # twice[x][y][z] is table[x][table[y][z]]
            twice = [[[*map(row_x.__getitem__, row_y)] for row_y in table] for row_x in table]
            maps, columns, column_maps, compose = lattice._rows(table)
            row_type = type(table[0])
            assert [[*column] for column in columns] == table_columns, row_type
            split = lattice._columns(table)
            assert {*map(type, split)} == {row_type}
            assert [*map(tuple, split)] == [*zip(*table)], row_type
            for x in carrier:
                composed = [compose(row, maps[x]) for row in table]
                assert {type(row) for row in composed} == {row_type}
                assert [[*row] for row in composed] == twice[x], (row_type, x)
                # column z read by row x is twice[x][w][z] over w
                assert [compose(column, maps[x]) for column in columns] == [
                    row_type(cells) for cells in zip(*twice[x])], (row_type, x)
                assert [[*compose(table[x], column_map)] for column_map in column_maps] == [
                    [*map(column.__getitem__, table[x])] for column in table_columns
                ], (row_type, x)

    def test_rows_stop_at_a_byte(self):
        """``_held`` keeps the rows ``tables`` builds as they are: up to 256
        elements (n = 127) byte rows composed by ``bytes.translate``, above
        (n = 128) tuple rows composed by ``_gather``, with maps, columns and
        column maps of the row type."""
        for config, row_type in BYTE_LIMIT_CONFIGS:
            for table in config.tables[1:]:
                maps, columns, column_maps, compose = lattice._held(config, table)
                assert compose is (bytes.translate if row_type is bytes else lattice._gather), (
                    config)
                for held in (maps, columns, column_maps):
                    assert {*map(type, held)} == {row_type}, config

    def test_tables_are_built_in_the_type_rows_compose(self):
        """Every row of join, meet and implies, and negate, is ``bytes`` up to
        256 elements (n = 127) and a tuple above (n = 128)."""
        for config, row_type in BYTE_LIMIT_CONFIGS:
            tables = config.tables
            assert type(tables.negate) is row_type, config
            for table in tables[1:]:
                assert {*map(type, table)} == {row_type}, config

    def test_rows_are_held_once_per_config(self, monkeypatch):
        """``_held`` builds each operation table's rows once per config: a
        whole ``check`` and both inference tables run ``_rows``, which makes
        one ``_RowMaps`` a call, once for each of join, meet and implies.  A
        table planted in place of the built one gets rows of its own."""
        built, row_maps = [], lattice._RowMaps
        monkeypatch.setattr(lattice, "_RowMaps",
                            lambda *held: built.append(held) or row_maps(*held))
        config = qlia(6, 2)
        tables = config.tables
        axioms.check_all_axioms(config)
        axioms.check_lattice_laws(config)
        axioms.check_involution(config)
        for rule in inference.RuleId:
            inference.inference_table(config, rule)
        assert len(built) == 3
        assert sorted(vars(config)["_held"]) == sorted(map(id, tables[1:]))
        assert lattice._held(config, tables.implies) is lattice._held(config, tables.implies)
        assert len(built) == 3
        planted = with_entry(tables.implies, 0, 0, tables.implies[0][0] ^ 1)
        columns = lattice._held(config, planted).columns
        assert len(built) == 4
        assert columns[0][0] == planted[0][0] != tables.implies[0][0]

def paper_implies(n, a, b):
    """a -> b by the four cases of the paper, as the lattice module docstring
    states them; a test-only reference that shares no code with the kernel
    or the tables."""
    i, j = a.grade, b.grade
    if a.polarity is Polarity.T:
        if b.polarity is Polarity.T:
            return LinguisticValue(min(n, n - i + j), Polarity.T)
        return LinguisticValue(max(0, i + j - n), Polarity.F)
    if b.polarity is Polarity.T:
        return LinguisticValue(min(n, i + j), Polarity.T)
    return LinguisticValue(min(n, n - j + i), Polarity.T)


def paper_leq(n, i, a, b):
    """a <= b as the product order of the lattice module docstring on pairs
    (b, p), polarity bit and grade counted up the chain, less the removed
    link (v_iF, v_(n-i)T) when i is not None; a test-only reference that
    shares no code with the kernel or the tables."""
    def pair(v):
        return (1, v.grade) if v.is_true else (0, n - v.grade)

    (ba, pa), (bb, pb) = pair(a), pair(b)
    removed = i is not None and ((ba, pa), (bb, pb)) == ((0, n - i), (1, n - i))
    return ba <= bb and pa <= pb and not removed


class TestImplicationReference:
    @pytest.mark.parametrize("n", range(17))
    def test_every_pair_up_to_n16(self, n):
        schema = parse("P -> Q")
        for config in [lia(n)] + [qlia(n, i) for i in range(1, n)]:
            values, implies = config.values(), config.tables.implies
            for x, a in enumerate(values):
                for y, b in enumerate(values):
                    expected = paper_implies(n, a, b)
                    assert config.implies(a, b) == expected
                    assert values[implies[x][y]] == expected
                    assert evaluate(schema, Valuation(config, {"P": a, "Q": b})) == expected

    @settings(max_examples=300)
    @given(algebra_pairs())
    def test_large_chains(self, drawn):
        config, a, b = drawn
        expected = paper_implies(config.n, a, b)
        assert config.implies(a, b) == expected
        assert evaluate(parse("P -> Q"), Valuation(config, {"P": a, "Q": b})) == expected


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
        config, a, b = drawn
        assert config.leq(a, b) == paper_leq(config.n, config.noncomparable, a, b)


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
