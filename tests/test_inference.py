import random

import pytest
from hypothesis import given, settings
from strategies import algebra_pairs

from lingtruth.errors import DomainError
from lingtruth.inference import (
    BranchLabel,
    RuleId,
    inference_table,
    mp_closed,
    mp_direct,
    mt_closed,
    mt_direct,
    verify_examples,
)
from lingtruth.lattice import LinguisticValue, lia, qlia

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
