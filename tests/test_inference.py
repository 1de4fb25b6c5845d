import collections
import functools
import random

import pytest
from hypothesis import given, settings
from planted import BYTE_LIMIT_CONFIGS, wide_rows
from strategies import algebra_pairs

from lingtruth import inference, lattice
from lingtruth.axioms import check_all_axioms
from lingtruth.errors import DomainError
from lingtruth.inference import (
    BranchLabel,
    InferenceTable,
    RuleId,
    _case,
    _case_tables,
    inference_table,
    mp_closed,
    mp_direct,
    mt_closed,
    mt_direct,
    verify_examples,
)
from lingtruth.lattice import LIA, QLIA, AlgebraConfig, LinguisticValue, lia, qlia
from lingtruth.oracle import build_covers, cross_check_ops

T = LinguisticValue.true
F = LinguisticValue.false

PLAIN = lia(4)
QUASI = qlia(4, 2)


class TestDirectEvaluation:
    @pytest.mark.parametrize(
        "p, q, expected",
        [
            (T(3), T(2), T(3)),
            (F(2), F(4), T(2)),
            (F(0), T(2), T(4)),
        ],
    )
    def test_mp_plain(self, p, q, expected):
        assert mp_direct(PLAIN, p, q) == expected

    @pytest.mark.parametrize(
        "p, q, expected",
        [
            (F(2), F(4), T(4)),
            (F(0), T(2), T(2)),
        ],
    )
    def test_mt_plain(self, p, q, expected):
        assert mt_direct(PLAIN, p, q) == expected

    def test_mt_quasi(self):
        assert mt_direct(QUASI, T(2), F(3)) == T(3)

    @pytest.mark.parametrize("config", [PLAIN, QUASI, lia(0), lia(7)])
    def test_classical_modus_ponens(self, config):
        top = config.top()
        assert mp_direct(config, top, top) == top


class TestClosedForms:
    def test_branch_text(self):
        assert str(BranchLabel("3.1", "i<=j")) == "3.1:i<=j"

    @pytest.mark.parametrize(
        "config, p, q, value, branch",
        [
            (PLAIN, T(3), T(2), T(3), "3.1:i>=j,2i<=n+j"),
            (PLAIN, T(2), F(4), T(2), "3.3:i+j>=n,n<=i+j/2"),
            (QUASI, T(2), F(3), T(4), "4.3:k+l=n+1,k=n-i"),
        ],
    )
    def test_mp_closed(self, config, p, q, value, branch):
        got_value, got_branch = mp_closed(config, p, q)
        assert got_value == value
        assert str(got_branch) == branch

    @pytest.mark.parametrize(
        "config, p, q, value, branch",
        [
            (PLAIN, F(2), F(4), T(4), "3.2:i<=j,2j>=n+i"),
            (QUASI, T(3), T(1), T(4), "4.1:k>l,2l<=k+1,k-l=i"),
            (PLAIN, T(3), T(2), T(3), "3.1:j<=i<=2j"),
        ],
    )
    def test_mt_closed(self, config, p, q, value, branch):
        got_value, got_branch = mt_closed(config, p, q)
        assert got_value == value
        assert str(got_branch) == branch


@settings(max_examples=300)
@given(algebra_pairs())
def test_closed_forms_equal_direct_evaluation(drawn):
    config, p, q = drawn
    assert mp_closed(config, p, q)[0] == mp_direct(config, p, q)
    assert mt_closed(config, p, q)[0] == mt_direct(config, p, q)


@settings(max_examples=300)
@given(algebra_pairs())
def test_mt_is_mp_on_the_contrapositive(drawn):
    config, p, q = drawn
    assert mt_direct(config, p, q) == mp_direct(config, q.negated(), p.negated())


class TestTables:
    def test_row_counts(self):
        assert len(inference_table(PLAIN, RuleId.MP)) == 100
        assert len(inference_table(lia(1), RuleId.MT)) == 16
        assert len(inference_table(QUASI, RuleId.MP)) == 100

    @pytest.mark.parametrize("config", [PLAIN, QUASI, lia(1), qlia(5, 3)])
    @pytest.mark.parametrize("rule", [RuleId.MP, RuleId.MT])
    def test_direct_matches_closed(self, config, rule):
        assert all(row.agree for row in inference_table(config, rule))

    @pytest.mark.parametrize("rule", ["MP", "mt", None])
    def test_rule_must_be_a_rule_id(self, rule):
        with pytest.raises(DomainError, match="RuleId"):
            inference_table(lia(1), rule)

    def test_row_dict_schema(self):
        row = inference_table(PLAIN, RuleId.MP)[0].to_dict()
        assert set(row) == {"p", "q", "rule", "direct", "closed", "branch", "agree"}
        assert row["rule"] == "MP"
        table, _, case = row["branch"].partition(":")
        assert table in {"3.1", "3.2", "3.3", "3.4"} and case

    def test_deterministic_order(self):
        first = [r.to_dict() for r in inference_table(QUASI, RuleId.MT)]
        second = [r.to_dict() for r in inference_table(QUASI, RuleId.MT)]
        assert first == second

    def test_rows_are_served_from_the_columns(self):
        table = inference_table(lia(1), RuleId.MP)
        rows = list(table)
        values = lia(1).values()
        assert [(row.p, row.q) for row in rows] == [(p, q) for p in values for q in values]
        assert table[-1] == rows[-1] == table[15]
        assert table[3:7] == rows[3:7]
        assert rows[5].p == rows[5].q == F(0)
        with pytest.raises(IndexError):
            table[16]

    @pytest.mark.parametrize("noncomparable", [None, 2])
    @pytest.mark.parametrize("rule", [RuleId.MP, RuleId.MT])
    def test_kernel_alone_makes_the_table(self, noncomparable, rule, monkeypatch):
        """A table comes from the config's cached operation rows and its rows
        are decoded by the kernel; the axiom checker and the oracle reuse
        those rows, so they are built once.  Both value columns hold carrier
        indices, so they agree entry by entry."""
        builds, build = [], AlgebraConfig.tables.func
        counted = functools.cached_property(lambda config: builds.append(config) or build(config))
        counted.__set_name__(AlgebraConfig, "tables")
        monkeypatch.setattr(AlgebraConfig, "tables", counted)
        config = AlgebraConfig(4, noncomparable)
        table = inference_table(config, rule)
        indices = [table.values.index(row.closed) for row in table]
        assert indices == [*table.closed] == [*table.direct]
        assert table.disagreements() == [] and table[-1] == table[len(table) - 1]
        assert builds == [config]
        check_all_axioms(config)
        cross_check_ops(build_covers(config))
        assert builds == [config]

    @pytest.mark.parametrize("rule", [RuleId.MP, RuleId.MT])
    def test_schema_folds_over_rows_not_cells(self, rule):
        """The direct column maps whole rows and columns of the operations,
        so the scalar kernel's operations run at most once per carrier
        element; a fold over cells calls them 3N^2 times for MP, 5N^2 for MT."""
        config = lia(40)
        kernel, calls = config._kernel, collections.Counter()

        def counted(name):
            def op(*args):
                calls[name] += 1
                return getattr(kernel, name)(*args)
            return op

        names = ("negate", "join", "meet", "implies")
        vars(config)["_kernel"] = kernel._replace(**{name: counted(name) for name in names})
        table = inference_table(config, rule)
        assert table.disagreements() == []
        assert sum(calls.values()) <= 2 * config.n + 2, calls

    def test_byte_and_list_folds_agree(self):
        """On ``bytes`` rows the direct column is folded with
        ``bytes.translate`` into a ``bytearray``, on tuple rows (above 256
        elements) with ``itemgetter`` into a list, and the closed column is
        filled likewise; every config with n <= 16 gives the same direct,
        closed and branch values on tuple copies of its rows as on its byte
        rows, the value columns lists there."""
        configs = [c for n in range(17) for c in [lia(n)] + [qlia(n, i) for i in range(1, n)]]
        for config in configs:
            wide = wide_rows(config)
            for rule in RuleId:
                table, listed = inference_table(config, rule), inference_table(wide, rule)
                assert (type(table.direct), type(table.closed), type(table.branch)) == (
                    bytearray, bytearray, bytearray), (config, rule)
                assert (type(listed.direct), type(listed.closed), type(listed.branch)) == (
                    list, list, bytearray), (config, rule)
                assert ([*listed.direct], [*listed.closed], listed.branch) == (
                    [*table.direct], [*table.closed], table.branch), (config, rule)

    def test_byte_fold_stops_at_a_byte(self):
        """The direct fold reads its maps through ``lattice._held``, so it
        takes the types that ``test_lattice.py::test_rows_stop_at_a_byte``
        asserts on both sides of 256 elements."""
        assert inference._held is lattice._held

    def test_columns_are_compact(self):
        """Up to 256 elements all three columns are ``bytearray``s; above,
        the value columns are lists and ``branch`` stays a ``bytearray``;
        for both rules, each column one entry per row."""
        for config, row_type in BYTE_LIMIT_CONFIGS:
            value_type = bytearray if row_type is bytes else list
            for rule in RuleId:
                table = inference_table(config, rule)
                assert (type(table.direct), type(table.closed), type(table.branch)) == (
                    value_type, value_type, bytearray), (config, rule)
                assert len(table.direct) == len(table.closed) == len(table.branch) == (
                    len(table)), (config, rule)


# every configuration with n <= 8, LIA then QLIA i = 1..n-1 for each n
SMALL_CONFIGS = [c for n in range(9) for c in [lia(n)] + [qlia(n, i) for i in range(1, n)]]
SCALAR_CLOSED = {RuleId.MP: mp_closed, RuleId.MT: mt_closed}


class TestClosedColumns:
    """The table's closed grades and branches, computed a row half at a
    time, equal the scalar closed forms row by row."""

    @pytest.mark.parametrize("rule", [RuleId.MP, RuleId.MT])
    def test_every_row_up_to_n8(self, rule):
        closed = SCALAR_CLOSED[rule]
        mismatches = [
            (str(config), row.to_dict())
            for config in SMALL_CONFIGS
            for row in inference_table(config, rule)
            if (row.closed, row.branch) != closed(config, row.p, row.q)
        ]
        assert mismatches == []

    @pytest.mark.parametrize("config", [lia(96), qlia(96, 7)], ids=["lia96", "qlia96-7"])
    @pytest.mark.parametrize("rule", [RuleId.MP, RuleId.MT])
    def test_seeded_rows_at_n96(self, config, rule):
        table = inference_table(config, rule)
        closed = SCALAR_CLOSED[rule]
        rng = random.Random(f"{config.kind}:{rule.value}")
        for k in rng.sample(range(len(table)), 256):
            row = table[k]
            assert (row.closed, row.branch) == closed(config, row.p, row.q), row.to_dict()


# ----------------------------------------------------------------------
# Test-only reference: the MP case tables written as nested conditionals,
# one function per table (4.1 runs 3.1).  Each takes (n, nc, grade of P,
# grade of Q) and returns (grade, case text); none shares code with the
# case tables' data in ``lingtruth.inference``, their reader or their fill.


def _mp_31(n, nc, i, j):
    if i <= j:
        return n, "i<=j"
    if 2 * i <= n + j:
        return n - i + j, "i>=j,2i<=n+j"
    return i, "i>=j,2i>=n+j"


def _mp_32(n, nc, i, j):
    if i >= j:
        return n, "i>=j"
    if j <= 2 * i:
        return n - j + i, "i<=j<=2i"
    return n - i, "j>=2i"


def _mp_33(n, nc, i, j):
    if i + j <= n:
        return n, "i+j<=n"
    if 2 * n <= 2 * i + j:
        return i, "i+j>=n,n<=i+j/2"
    return 2 * n - i - j, "i+j>=n,n>=i+j/2"


def _mp_34(n, nc, i, j):
    if i + j >= n:
        return n, "i+j>=n"
    if n <= 2 * i + j:
        return i + j, "i+j<=n,n<=2i+j"
    return n - i, "i+j<=n,n>=2i+j"


def _mp_42(n, nc, k, l):
    if k >= l:
        return n, "k>=l"
    if l - k != nc:
        if l <= 2 * k:
            return n - l + k, "k<l<=2k,l-k!=i"
        return n - k, "l>=2k,l-k!=i"
    if 2 * k > l + 1:
        return n - l + k, "k<l,2k>l+1,l-k=i"
    return min(n, n - k + 1), "k<l,2k<=l+1,l-k=i"


def _mp_43(n, nc, k, l):
    if k + l <= n:
        if k != n - nc:
            return n, "k+l<=n,k!=n-i"
        return n, "k+l<=n,k=n-i"
    if k != n - nc:
        if 2 * n <= 2 * k + l:
            return k, "k+l>n,k!=n-i,n<=k+l/2"
        return 2 * n - k - l, "k+l>n,k!=n-i,n>=k+l/2"
    if l <= 2 * nc:
        if k + l == n + 1:
            return n, "k+l=n+1,k=n-i"
        return 2 * n - k - l + 1, "k+l>n+1,k=n-i,2(n-k)>=l-1"
    return k, "k+l>n,k=n-i,2(n-k)<=l-1"


def _mp_44(n, nc, k, l):
    if k + l >= n:
        return n, "k+l>=n"
    if k + l != n - nc:
        if n <= 2 * k + l:
            return k + l, "k+l<n,k+l!=n-i,n<=2k+l"
        return n - k, "k+l<n,k+l!=n-i,n>=2k+l"
    # the implication value is v_(n-i)T, the top of the missing link
    if 2 * k + l > n:
        return k + l, "k+l=n-i,n<2k+l"
    if k <= 1:
        return n, "k+l=n-i,n>=2k+l,k<=1"
    return n - k + 1, "k+l=n-i,n>=2k+l,k>=2"


# (algebra kind, e(P) is true, e(Q) is true) -> (table, case function)
REFERENCE_TABLES = {
    (LIA, True, True): ("3.1", _mp_31),
    (LIA, False, False): ("3.2", _mp_32),
    (LIA, True, False): ("3.3", _mp_33),
    (LIA, False, True): ("3.4", _mp_34),
    (QLIA, True, True): ("4.1", _mp_31),
    (QLIA, False, False): ("4.2", _mp_42),
    (QLIA, True, False): ("4.3", _mp_43),
    (QLIA, False, True): ("4.4", _mp_44),
}
# 4.1 runs 3.1's case function, which names the cases with 3.1's grades
RENAMED_41 = {"i<=j": "k<=l", "i>=j,2i<=n+j": "k>=l,2k<=n+l", "i>=j,2i>=n+j": "k>=l,2k>=n+l"}
# a label as (table, case text), for each branch code
LABEL_NAMES = [(label.table, label.case) for label in InferenceTable.labels]
# the MP case (table, case text) -> the MT case it is renamed to: the labels
# are the 33 MP cases, then the MT case of each in the same order
MT_RENAMING = dict(zip(InferenceTable.labels[:33], InferenceTable.labels[33:]))


@functools.cache
def reference_label(rule, table, case):
    """(table, case text) of the reference's case; an MT label is the MP
    case on (!Q, !P) renamed by ``MT_RENAMING``."""
    key = (table, RENAMED_41[case] if table == "4.1" else case)
    if rule is RuleId.MP:
        return key
    return MT_RENAMING[key].table, MT_RENAMING[key].case


def reference_cells(config, rule, p_true, i, q_true, q_grades):
    """The reference's (grade, label) of ``rule`` with e(P) of grade i and
    e(Q) of each grade in ``q_grades``, the polarities as given."""
    n, nc = config.n, config.noncomparable
    if rule is RuleId.MP:
        table, case_fn = REFERENCE_TABLES[config.kind, p_true, q_true]
        cells = [case_fn(n, nc, i, j) for j in q_grades]
    else:  # MP on (!Q, !P): negation keeps the grades
        table, case_fn = REFERENCE_TABLES[config.kind, not q_true, not p_true]
        cells = [case_fn(n, nc, j, i) for j in q_grades]
    return [(grade, reference_label(rule, table, case)) for grade, case in cells]


def carrier_halves(n):
    """(is true, grades) of each half of the carrier, in carrier order."""
    return (False, range(n, -1, -1)), (True, range(n + 1))


def reference_table(config, rule):
    """The reference's (grade, label) of every row, in carrier order."""
    halves = carrier_halves(config.n)
    return [cell for p_true, p_grades in halves for i in p_grades for q_true, q_grades in halves
            for cell in reference_cells(config, rule, p_true, i, q_true, q_grades)]


def filled(table):
    """The (grade, label) of every row of an ``InferenceTable``, off its columns."""
    s = table.config.n + 1
    return [(c - s, LABEL_NAMES[b]) for c, b in zip(table.closed, table.branch)]


CONFIGS_UP_TO_32 = [c for n in range(33) for c in [lia(n)] + [qlia(n, i) for i in range(1, n)]]


class TestCaseTableReference:
    """The case tables, read cell by cell by the scalar reader and filled by
    intervals into the table columns, equal the reference."""

    @pytest.mark.parametrize("rule", [RuleId.MP, RuleId.MT])
    def test_every_cell_up_to_n32(self, rule):
        """The fill, and the scalar reader's core ``_case`` (``mp_closed`` and
        ``mt_closed`` add only checks and wrapping), at every cell of every
        config with n <= 32."""
        for config in CONFIGS_UP_TO_32:
            n, nc = config.n, config.noncomparable or 0
            expected = reference_table(config, rule)
            assert filled(inference_table(config, rule)) == expected, str(config)
            halves, read = carrier_halves(n), []
            for p_true, p_grades in halves:
                for i in p_grades:
                    for q_true, q_grades in halves:
                        cases = _case_tables()[rule, config.kind, p_true, q_true]
                        if rule is RuleId.MP:
                            read += [_case(cases, i, j, n, nc) for j in q_grades]
                        else:  # MP on (!Q, !P), the grade of Q first
                            read += [_case(cases, j, i, n, nc) for j in q_grades]
            assert [(grade, LABEL_NAMES[code]) for grade, code in read] == expected, str(config)

    @pytest.mark.parametrize("rule", [RuleId.MP, RuleId.MT])
    def test_public_readers_at_every_cell_up_to_n12(self, rule):
        closed = SCALAR_CLOSED[rule]
        for config in CONFIGS_UP_TO_32:
            if config.n <= 12:
                values = config.values()
                read = [closed(config, p, q) for p in values for q in values]
                assert all(value.is_true for value, _ in read)
                assert [(value.grade, (label.table, label.case)) for value, label in read] \
                    == reference_table(config, rule), str(config)

    @pytest.mark.parametrize(
        "config", [lia(96), qlia(96, 40), lia(300), qlia(300, 1), qlia(300, 299)],
        ids=["lia96", "qlia96-40", "lia300", "qlia300-1", "qlia300-299"])
    @pytest.mark.parametrize("rule", [RuleId.MP, RuleId.MT])
    def test_seeded_rows(self, config, rule):
        table = inference_table(config, rule)
        rng = random.Random(f"{config.n}:{config.noncomparable}:{rule.value}")
        for k in rng.sample(range(len(table)), 256):
            row = table[k]
            [(grade, label)] = reference_cells(
                config, rule, row.p.is_true, row.p.grade, row.q.is_true, [row.q.grade])
            value, branch = SCALAR_CLOSED[rule](config, row.p, row.q)
            assert row.closed == value == T(grade), row.to_dict()
            assert (row.branch.table, row.branch.case) == (branch.table, branch.case) == label

    @pytest.mark.parametrize("config", [lia(40), qlia(40, 13)], ids=["lia40", "qlia40-13"])
    @pytest.mark.parametrize("rule", [RuleId.MP, RuleId.MT])
    def test_fill_makes_no_call_per_cell(self, config, rule, monkeypatch):
        """The columns are filled by intervals: a table builds, and equals
        the reference, with the scalar reader made to raise."""
        def refuse(*args):
            raise AssertionError("the closed columns read a cell through the scalar reader")

        monkeypatch.setattr(inference, "_case", refuse)
        monkeypatch.setattr(inference, "_closed", refuse)
        assert filled(inference_table(config, rule)) == reference_table(config, rule)


class TestBoundaryTraps:
    """Cells where the case texts overlap and the code's conditions pick one
    case.  The expected labels are the code's; each MT one, named through
    ``MT_RENAMING``, is also pinned as literal text; each cell is checked in
    the scalar reader and in the table, against the direct value."""

    @staticmethod
    def check(config, rule, p, q, value, label):
        assert SCALAR_CLOSED[rule](config, p, q) == (value, label)
        values = config.values()
        row = inference_table(config, rule)[values.index(p) * len(values) + values.index(q)]
        assert (row.p, row.q, row.direct, row.closed, row.branch) == (p, q, value, value, label)

    @pytest.mark.parametrize("n, i", [(3, 1), (9, 4), (40, 13), (41, 20)])
    def test_43_last_case_at_l_2i_plus_1(self, n, i):
        """At k = n - i, l = 2i + 1 the texts "2(n-k)>=l-1" and "2(n-k)<=l-1"
        both hold; the code tests l <= 2i and reports the second.  MT meets
        the cell as MP on (!Q, !P)."""
        config, k, l = qlia(n, i), n - i, 2 * i + 1
        key = ("4.3", "k+l>n,k=n-i,2(n-k)<=l-1")
        self.check(config, RuleId.MP, T(k), F(l), T(k), BranchLabel(*key))
        self.check(config, RuleId.MT, T(l), F(k), T(k), MT_RENAMING[key])
        assert str(MT_RENAMING[key]) == "4.3:k+l>n,l=n-i,2(n-l)<=k-1"

    @pytest.mark.parametrize("n, i", [(3, 1), (9, 4), (40, 13), (41, 39)])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_42_min_on_the_l_minus_k_i_rows(self, n, i, k):
        """On l - k = i, 4.2's last case is min(n, n - k + 1): n at k = 0,
        n - k + 1 from k = 1 on, under one case text."""
        config, l = qlia(n, i), k + i
        key = ("4.2", "k<l,2k<=l+1,l-k=i")
        value = T(min(n, n - k + 1))
        self.check(config, RuleId.MP, F(k), F(l), value, BranchLabel(*key))
        self.check(config, RuleId.MT, T(l), T(k), value, MT_RENAMING[key])
        assert str(MT_RENAMING[key]) == "4.1:k>l,2l<=k+1,k-l=i"


class TestBoundaryCoincidence:
    """Where two cases of a table overlap at an equality boundary, both
    value formulas must give the same element."""

    def test_plain_tables(self):
        for n in range(1, 9):
            for i in range(n + 1):
                for j in range(n + 1):
                    if i >= j and 2 * i == n + j:  # 3.1 MP
                        assert n - i + j == i
                    if i >= j and i == 2 * j:  # 3.1 MT
                        assert n - i + j == n - j
                    if i <= j and j == 2 * i:  # 3.2 MP
                        assert n - j + i == n - i
                    if i <= j and 2 * j == n + i:  # 3.2 MT
                        assert n - j + i == j
                    if i + j >= n and 2 * n == 2 * i + j:  # 3.3 MP
                        assert i == 2 * n - i - j
                    if i + j >= n and 2 * n == 2 * j + i:  # 3.3 MT
                        assert j == 2 * n - i - j
                    if i + j <= n and n == 2 * i + j:  # 3.4 MP
                        assert i + j == n - i
                    if i + j <= n and n == 2 * j + i:  # 3.4 MT
                        assert i + j == n - j

    def test_quasi_seams(self):
        for n in range(2, 9):
            for nc in range(1, n):
                for k in range(n + 1):
                    for l in range(n + 1):
                        if k - l == nc and 2 * l == k + 1:  # 4.1 MT
                            assert n - k + l == min(n, n - l + 1)
                        if l - k == nc and 2 * k == l + 1:  # 4.2 MP
                            assert n - l + k == min(n, n - k + 1)
                        if k == n - nc and k + l > n and l == 2 * nc + 1:  # 4.3 MP
                            assert 2 * n - k - l + 1 == k
                        if l == n - nc and k + l > n and k == 2 * nc + 1:  # 4.3 MT
                            assert 2 * n - k - l + 1 == l
                        if k + l < n and k + l != n - nc and 2 * k + l == n:  # 4.4 MP
                            assert k + l == n - k
                        if k + l < n and k + l != n - nc and 2 * l + k == n:  # 4.4 MT
                            assert k + l == n - l


class TestGradedness:
    """The rules are absolutely true on the easy half of each polarity
    pattern and properly graded elsewhere."""

    @pytest.mark.parametrize("n", [1, 4, 6])
    def test_true_chain_upward_pairs_are_absolute(self, n):
        config = lia(n)
        top = config.top()
        for i in range(n + 1):
            for j in range(i, n + 1):
                assert mp_direct(config, T(i), T(j)) == top
                assert mt_direct(config, T(i), T(j)) == top

    @pytest.mark.parametrize("n", [1, 4, 6])
    def test_false_chain_downward_pairs_are_absolute(self, n):
        config = lia(n)
        top = config.top()
        for i in range(n + 1):
            for j in range(i + 1):
                assert mp_direct(config, F(i), F(j)) == top
                assert mt_direct(config, F(i), F(j)) == top

    def test_classical_corners(self):
        for config in (PLAIN, QUASI):
            top, bottom = config.top(), config.bottom()
            for p, q in ((top, bottom), (bottom, top)):
                assert mp_direct(config, p, q) == top
                assert mt_direct(config, p, q) == top

    def test_quasi_true_chain_upward_pairs(self):
        top = QUASI.top()
        for k in range(5):
            for l in range(k, 5):
                assert mp_direct(QUASI, T(k), T(l)) == top
                assert mt_direct(QUASI, T(k), T(l)) == top

    def test_some_pair_is_strictly_graded(self):
        assert mp_direct(PLAIN, T(3), T(2)) == T(3) != PLAIN.top()


class TestWorkedExamples:
    def test_all_eight_pass(self):
        report = verify_examples()
        assert report.all_passed
        assert len(report.checks) == 8

    def test_example_values(self):
        by_name = {c.example: c for c in verify_examples().checks}
        assert by_name["3.2"].mp == T(2) and by_name["3.2"].mt == T(4)
        assert by_name["4.3"].mp == T(4) and by_name["4.3"].mt == T(3)

    def test_report_dicts(self):
        dicts = verify_examples().to_dicts()
        assert [d["example"] for d in dicts] == [
            "3.1", "3.2", "3.3", "3.4", "4.1", "4.2", "4.3", "4.4",
        ]
        assert all(d["passed"] for d in dicts)
