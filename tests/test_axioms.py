import itertools
import math
import random

import pytest
from planted import BYTE_LIMIT_CONFIGS, chain_product, goedel, lukasiewicz, wide_rows, with_entry

from lingtruth import axioms, lattice, oracle
from lingtruth.axioms import (
    Axiom,
    Classification,
    check_all_axioms,
    check_axiom,
    check_involution,
    check_lattice_laws,
    classify,
)
from lingtruth.errors import DomainError
from lingtruth.lattice import QLIA, AlgebraConfig, LinguisticValue, lia, qlia
from lingtruth.oracle import CoverGraph, build_covers, cross_check_ops, verify_lattice

T = LinguisticValue.true
F = LinguisticValue.false


class TestSingleAxioms:
    def test_plain_distributes_implication_over_join(self):
        assert check_axiom(lia(4), Axiom.I6).holds

    def test_quasi_breaks_i6_with_known_witness(self):
        result = check_axiom(qlia(4, 2), Axiom.I6, max_witnesses=None)
        assert not result.holds
        hits = [
            w
            for w in result.witnesses
            if (w.x, w.y, w.z) == (T(2), F(2), T(0))
        ]
        assert len(hits) == 1
        assert hits[0].lhs == T(1) and hits[0].rhs == T(2)

    def test_quasi_keeps_i2(self):
        assert check_axiom(qlia(4, 2), Axiom.I2).holds

    def test_quasi_keeps_first_five(self):
        config = qlia(4, 2)
        for axiom in (Axiom.I1, Axiom.I2, Axiom.I3, Axiom.I4, Axiom.I5):
            assert check_axiom(config, axiom).holds, axiom


class TestLatticeLaws:
    @pytest.mark.parametrize("config", [lia(4), qlia(4, 2), lia(1)])
    def test_all_laws_hold(self, config):
        for law in check_lattice_laws(config):
            assert law.holds, law.name

    def test_law_names(self):
        names = {law.name for law in check_lattice_laws(lia(1))}
        assert names == {
            "join-idempotent",
            "meet-idempotent",
            "join-commutative",
            "meet-commutative",
            "join-associative",
            "meet-associative",
            "join-absorption",
            "meet-absorption",
        }


class TestInvolution:
    @pytest.mark.parametrize("config", [lia(4), qlia(4, 2), lia(0)])
    def test_order_reversing_involution(self, config):
        assert check_involution(config).holds

    def test_quasi_kind_reverses_the_order_but_at_one_pair(self):
        """Every config with n <= 16: in QLIA negation fails to reverse only
        v_(n-i)F <= v_iT, whose mirror is the missing cross link, and not
        even that when 2i = n, the count ``check``'s verdict expects."""
        for config in SMALL_CONFIGS:
            n, i = config.n, config.noncomparable
            expected = [(F(n - i), T(i))] if config.kind == QLIA and 2 * i != n else []
            result = check_involution(config, None)
            assert [(w.x, w.y) for w in result.witnesses] == expected, config
            assert result.total_violations == len(expected), config


class TestClassification:
    def test_plain_is_lia(self):
        assert classify(check_all_axioms(lia(4))) is Classification.LIA

    def test_quasi_is_qlia(self):
        assert classify(check_all_axioms(qlia(4, 2))) is Classification.QLIA

    def test_smallest_quasi_config(self):
        # No triple with i+k+1 < n exists at n=2, yet I6/I7 still fail
        # through grade-saturated instances, so this classifies as QLIA.
        assert classify(check_all_axioms(qlia(2, 1))) is Classification.QLIA


class TestReporting:
    def test_witness_cap_preserves_total(self):
        result = check_axiom(qlia(4, 2), Axiom.I6, max_witnesses=3)
        assert len(result.witnesses) == 3
        assert result.total_violations == 48
        assert not result.holds

    @pytest.mark.parametrize("check", [
        lambda config, cap: check_axiom(config, Axiom.I6, max_witnesses=cap),
        lambda config, cap: check_lattice_laws(config, max_witnesses=cap),
        lambda config, cap: check_involution(config, max_witnesses=cap),
    ], ids=["axiom", "laws", "involution"])
    def test_negative_cap_is_rejected(self, check):
        for cap in (-1, 1.5, 2.0, "3", True, [1]):
            config = qlia(4, 2)
            with pytest.raises(DomainError, match="max_witnesses"):
                check(config, cap)
            assert "tables" not in vars(config)  # rejected before any work

    @pytest.mark.parametrize("axiom", ["I1", 1, None, Classification.LIA])
    def test_axiom_must_be_an_axiom(self, axiom):
        config = lia(2)
        with pytest.raises(DomainError, match="not an axiom"):
            check_axiom(config, axiom)
        assert "tables" not in vars(config)

    def test_uncapped(self):
        result = check_axiom(qlia(4, 2), Axiom.I6, max_witnesses=None)
        assert len(result.witnesses) == result.total_violations == 48

    def test_deterministic_reports(self):
        first = check_axiom(qlia(5, 2), Axiom.I7, max_witnesses=None)
        second = check_axiom(qlia(5, 2), Axiom.I7, max_witnesses=None)
        assert first.witnesses == second.witnesses

    def test_json_shape(self):
        d = check_axiom(qlia(4, 2), Axiom.I6, max_witnesses=1).to_dict()
        assert d["axiom"] == "I6"
        assert d["holds"] is False
        assert d["total_violations"] == 48
        assert set(d["witnesses"][0]) == {"x", "y", "z", "lhs", "rhs"}

    def test_pair_axiom_witness_omits_z(self):
        result = check_all_axioms(lia(1))
        d = check_involution(lia(1)).to_dict()
        assert d["holds"] is True
        assert all(result[axiom].holds for axiom in Axiom)


# every configuration with n <= 16, LIA then QLIA i = 1..n-1 for each n
SMALL_CONFIGS = [c for n in range(17) for c in [lia(n)] + [qlia(n, i) for i in range(1, n)]]


def _naive(tables, name):
    """Violations (x, y, z, lhs, rhs) of one cubic check by a plain triple
    loop, in the order x, then y, then z."""
    imp, join, meet = tables.implies, tables.join, tables.meet
    sides = {
        "I1": lambda x, y, z: (imp[x][imp[y][z]], imp[y][imp[x][z]]),
        "I6": lambda x, y, z: (imp[join[x][y]][z], meet[imp[x][z]][imp[y][z]]),
        "I7": lambda x, y, z: (imp[meet[x][y]][z], join[imp[x][z]][imp[y][z]]),
        "join-associative": lambda x, y, z: (join[join[x][y]][z], join[x][join[y][z]]),
        "meet-associative": lambda x, y, z: (meet[meet[x][y]][z], meet[x][meet[y][z]]),
    }[name]
    carrier = range(len(imp))
    return [(x, y, z, *pair) for x in carrier for y in carrier for z in carrier
            if (pair := sides(x, y, z))[0] != pair[1]]


def _naive_pairs(tables, name):
    """Violations (x, y, None, lhs, rhs) of one row-screened pair check by a
    plain double loop, in the order x, then y."""
    neg, join, meet, imp, _ = tables
    sides = {
        "I3": lambda x, y: (imp[x][y], imp[neg[y]][neg[x]]),
        "I5": lambda x, y: (imp[imp[x][y]][y], imp[imp[y][x]][x]),
        "join-commutative": lambda x, y: (join[x][y], join[y][x]),
        "meet-commutative": lambda x, y: (meet[x][y], meet[y][x]),
        "join-absorption": lambda x, y: (join[x][meet[x][y]], x),
        "meet-absorption": lambda x, y: (meet[x][join[x][y]], x),
    }[name]
    carrier = range(len(imp))
    return [(x, y, None, *pair) for x in carrier for y in carrier
            if (pair := sides(x, y))[0] != pair[1]]


def _pair_reports(rows, max_witnesses=None):
    """The I3, I5, commutativity and absorption reports of a holder, as
    (name, count, witnesses as carrier-index tuples, None where a check has
    no z)."""
    index = {v: k for k, v in enumerate(rows.values)}
    results = [check_axiom(rows, axiom, max_witnesses) for axiom in (Axiom.I3, Axiom.I5)]
    results += [law for law in check_lattice_laws(rows, max_witnesses)
                if law.name.endswith(("commutative", "absorption"))]
    return [(r.name, r.total_violations,
             [tuple(None if v is None else index[v] for v in w) for w in r.witnesses])
            for r in results]


def _cubic_reports(rows, max_witnesses=None):
    """The I1, I6, I7 and associativity reports of a holder, as (name,
    count, witnesses as carrier-index tuples)."""
    index = {v: k for k, v in enumerate(rows.values)}
    results = [check_axiom(rows, axiom, max_witnesses)
               for axiom in (Axiom.I1, Axiom.I6, Axiom.I7)]
    results += [law for law in check_lattice_laws(rows, max_witnesses)
                if law.name.endswith("associative")]
    return [(r.name, r.total_violations,
             [tuple(index[v] for v in (w.x, w.y, w.z, w.lhs, w.rhs)) for w in r.witnesses])
            for r in results]


@pytest.fixture(params=["screened", "wide"])
def screen(request):
    """The holder of a fresh copy of a config, on byte rows or on tuple
    copies of them, as above 256 elements."""
    if request.param == "wide":
        return lambda config: wide_rows(config).tables
    return lambda config: AlgebraConfig(*config).tables


class TestRowScreen:
    @pytest.mark.parametrize("config", [lia(3), qlia(4, 2), qlia(6, 1)], ids=str)
    def test_single_wrong_entries_are_all_reported(self, config, screen):
        """One wrong entry planted in implies, join or meet, on the diagonal
        and at random cells: every cubic report equals the plain triple
        loop's, count and witnesses.  A wrong x v x or x ^ x at the bottom or
        the top breaks associativity only where op[x] after op[y] still
        equals op[y]."""
        rng = random.Random(f"{config.n} {config.noncomparable}")
        size = 2 * config.n + 2
        cells = [(x, x) for x in range(size)]
        cells += [(rng.randrange(size), rng.randrange(size)) for _ in range(8)]
        for op in ("implies", "join", "meet"):
            for i, j in cells:
                tables = screen(config)  # fresh maps
                table = getattr(tables, op)
                entry = (table[i][j] + rng.randrange(1, size)) % size  # any other value
                # a ``_replace``d holder holds its maps anew
                tables = tables._replace(**{op: with_entry(table, i, j, entry)})
                expected = [(name, len(bad), bad) for name, bad in (
                    (name, _naive(tables, name)) for name in
                    ("I1", "I6", "I7", "join-associative", "meet-associative"))]
                assert _cubic_reports(tables) == expected, (op, i, j, entry)
                # past the cap, rows are counted and not collected; a cap past
                # the count reads I6 and I7 off their counted slices
                for cap in (0, 1, 10 ** 6):
                    assert _cubic_reports(tables, cap) == [
                        (name, count, bad[:cap]) for name, count, bad in expected
                    ], (op, i, j, entry, cap)

    @pytest.mark.parametrize("config", [lia(3), qlia(4, 2), qlia(6, 1)], ids=str)
    def test_single_wrong_entries_in_pair_checks_are_all_reported(self, config, screen):
        """As above for the pair checks that screen whole rows: one wrong
        entry planted in implies, join or meet, on the diagonal and at random
        cells, and the I3, I5, commutativity and absorption reports equal the
        plain double loop's, count and witnesses, capped or not."""
        rng = random.Random(f"pairs {config.n} {config.noncomparable}")
        size = 2 * config.n + 2
        cells = [(x, x) for x in range(size)]
        cells += [(rng.randrange(size), rng.randrange(size)) for _ in range(8)]
        names = ("I3", "I5", "join-commutative", "meet-commutative", "join-absorption",
                 "meet-absorption")
        caught = 0  # plantings that break some pair check (a cell x -> y = y' -> x' may not)
        for op in ("implies", "join", "meet"):
            for i, j in cells:
                tables = screen(config)  # fresh maps
                table = getattr(tables, op)
                entry = (table[i][j] + rng.randrange(1, size)) % size  # any other value
                # a ``_replace``d holder holds its maps anew
                tables = tables._replace(**{op: with_entry(table, i, j, entry)})
                expected = [(name, len(bad), bad) for name, bad in (
                    (name, _naive_pairs(tables, name)) for name in names)]
                caught += any(count for _, count, _ in expected)
                assert _pair_reports(tables) == expected, (op, i, j, entry)
                for cap in (0, 1):
                    assert _pair_reports(tables, cap) == [
                        (name, count, bad[:cap]) for name, count, bad in expected
                    ], (op, i, j, entry, cap)
        assert caught > len(cells) * 2

    def test_wide_rows_give_the_same_reports(self):
        """Every config with n <= 16 gives the same axiom, law and involution
        reports on tuple copies of its rows as on its byte rows, uncapped and
        capped at 0, 1 and 10."""
        for config in SMALL_CONFIGS:
            wide = wide_rows(config)
            for cap in (None, 0, 1, 10):
                assert _reports(wide, cap) == _reports(config, cap), (config, cap)

    def test_caps_at_and_past_the_count(self, screen):
        """Every QLIA config with n <= 16: I6 and I7 capped one below, at and
        one past their count, and far past it, give the uncapped count and the
        first witnesses of the uncapped report.  At or past the count the
        violations are read off the counted slices, with no walk."""
        for config in SMALL_CONFIGS:
            if config.kind != QLIA:
                continue
            rows = screen(config)
            for axiom in (Axiom.I6, Axiom.I7):
                every = check_axiom(rows, axiom, None)
                for cap in (every.total_violations - 1, every.total_violations,
                            every.total_violations + 1, 10 ** 6):
                    result = check_axiom(rows, axiom, cap)
                    assert (result.total_violations, result.witnesses) == (
                        every.total_violations, every.witnesses[:cap]), (config, axiom, cap)

    def test_capped_counts_are_exact(self, screen):
        """Every report of every config with n <= 16, capped at 0, 1 and 10:
        the count of the uncapped report and the first witnesses of it."""
        for config in SMALL_CONFIGS:
            rows = screen(config)
            every = _reports(rows, None)
            for cap in (0, 1, 10):
                assert _reports(rows, cap) == [
                    (r.name, r.total_violations, r.witnesses[:cap]) for r in every
                ], (config, cap)

    def test_screen_stops_at_a_byte(self, monkeypatch):
        """The screens read their maps and columns through the holder's
        ``held``, so they take the types that
        ``test_lattice.py::test_rows_stop_at_a_byte`` asserts on both sides
        of 256 elements."""
        seen, held = [], lattice._Rows.held
        monkeypatch.setattr(lattice._Rows, "held",
                            lambda rows, table: seen.append((rows, table)) or held(rows, table))
        for config, _ in BYTE_LIMIT_CONFIGS:
            check_axiom(config, Axiom.I3, 0)
            assert len(seen) == 1 and seen[0][0] is config.tables, config
            assert seen.pop()[1] is config.tables.implies, config

    def test_screens_walk_only_the_rows_that_differ(self, monkeypatch):
        """Every config with n <= 16, uncapped: the screens walk a row or
        column cell by cell (the only use of ``zip`` in ``axioms``) once for
        each that holds a witness, so never in LIA, and ``cross_check_ops``
        walks exactly the rows that hold a residuation exception, one in
        QLIA and none in LIA: the stated rule it checks needs no walk.  A
        screen that compared rows of two types would walk every row and
        report the same."""
        walks = []

        def walking(*rows):
            walks.append(rows)
            return zip(*rows)

        def enumerating(items):
            walks.append(items)
            return enumerate(items)

        monkeypatch.setattr(axioms, "zip", walking, raising=False)
        monkeypatch.setattr(oracle, "enumerate", enumerating, raising=False)
        for config in SMALL_CONFIGS:
            walked = sum(len({tuple(getattr(w, name) for name in _WALKED[r.name])
                              for w in r.witnesses})
                         for r in _reports(config, None) if r.name in _WALKED)
            assert len(walks) == walked, config
            assert config.kind == QLIA or not walked, config

            graph = build_covers(config)
            graph.up, graph.joins, graph.meets  # built before the walks are counted
            walks.clear()
            report = cross_check_ops(graph)
            walked = {a for a, _ in report.residuation_exceptions}
            assert report.implemented == [], config
            # each walk enumerates the graph's elements, as does the value lookup
            assert sum(items is graph.elements for items in walks) == len(walked) + 1, config
            assert len(walked) == (config.kind == QLIA), config
            walks.clear()

    def test_slices_leave_no_pair_to_compose(self, monkeypatch):
        """Every config with n <= 16, on byte rows: I1 and associativity
        hold, so their whole slices agree at every x and no pair's row is
        composed (absorption composes one row per x of join and of meet).
        In LIA, I6 and I7 compose only the N rows of each z's count."""
        composed, held = [], lattice._Rows.held

        def counting(rows, table):
            maps = held(rows, table)

            def compose(cells, row_map):
                composed.append(cells)
                return maps.compose(cells, row_map)

            return maps._replace(compose=compose)

        monkeypatch.setattr(lattice._Rows, "held", counting)
        for config in SMALL_CONFIGS:
            size = len(config.tables.implies)
            check_axiom(config, Axiom.I1)
            assert composed == [], config
            check_lattice_laws(config)
            assert len(composed) == 2 * size, config
            if config.kind != QLIA:
                for axiom in (Axiom.I6, Axiom.I7):
                    composed.clear()
                    check_axiom(config, axiom)
                    assert len(composed) == size * size, (config, axiom)
            composed.clear()

    def test_screens_stop_where_the_cap_is_reached(self, monkeypatch):
        """Every QLIA config with n <= 16, capped at 0, 1, 3 and 10, at the
        first x's witness count and one past it: I6 and I7 count their
        violations on byte rows before they walk, so the walk of the columns
        that differ (the only use of ``zip`` in ``axioms``) ends at the start
        of the x where the cap is reached.  At cap 0 it walks no column; at
        cap k it walks the columns of each x up to the one where k is
        reached, and none if k is at or above the count, whose violations
        the count reads off the slices.  Every count is the uncapped count."""
        walks = []

        def walking(*rows):
            walks.append(rows)
            return zip(*rows)

        monkeypatch.setattr(axioms, "zip", walking, raising=False)
        for config in SMALL_CONFIGS:
            if config.kind != QLIA:
                continue
            for axiom in (Axiom.I6, Axiom.I7):
                every = check_axiom(config, axiom, None)
                # each x's witnesses and the columns (x, z) that hold them
                per_x = [[*group] for _, group in itertools.groupby(every.witnesses,
                                                                   lambda w: w.x)]
                kept = [*itertools.accumulate(map(len, per_x))]
                columns = [len({w.z for w in group}) for group in per_x]
                for cap in {0, 1, 3, 10, kept[0], kept[0] + 1}:
                    walks.clear()
                    result = check_axiom(config, axiom, cap)
                    assert result.total_violations == every.total_violations, (config, cap)
                    assert result.witnesses == every.witnesses[:cap], (config, cap)
                    walked = next((k + 1 for k, total in enumerate(kept) if total >= cap),
                                  len(kept)) if 0 < cap < every.total_violations else 0
                    assert len(walks) == sum(columns[:walked]), (config, axiom, cap)


def _naive_order(tables):
    """The I4 and involution violations by a plain double loop, in the order
    x, then y, as (x, y, z, lhs, rhs) with None for what a check does not use."""
    neg, join, _, imp, _ = tables
    carrier, top = range(len(imp)), len(imp) - 1
    i4 = [(x, y, None, imp[x][y], imp[y][x]) for x in carrier for y in carrier
          if x != y and imp[x][y] == top and imp[y][x] == top]
    involution = [(x, None, None, neg[neg[x]], x) for x in carrier if neg[neg[x]] != x]
    involution += [(x, y, None, neg[y], neg[x]) for x in carrier for y in carrier
                   if join[x][y] == y and join[neg[y]][neg[x]] != neg[x]]
    return [("I4", len(i4), i4), ("involution", len(involution), involution)]


def _order_reports(rows, max_witnesses=None):
    """The I4 and involution reports of a holder, as (name, count,
    witnesses as carrier-index tuples, None where a check has no y)."""
    index = {v: k for k, v in enumerate(rows.values)}
    return [(r.name, r.total_violations,
             [tuple(None if v is None else index[v] for v in w) for w in r.witnesses])
            for r in (check_axiom(rows, Axiom.I4, max_witnesses),
                      check_involution(rows, max_witnesses))]


class TestOrderScreens:
    """I4 and the involution screen byte rows as flat marks and walk only the
    rows of x that hold a violation; tuple rows walk every row."""

    def test_every_config_up_to_n16(self, screen):
        """Every config with n <= 16, on byte rows and on tuple copies of
        them: the counts and witnesses of the plain double loop, uncapped and
        capped at 0 and 1."""
        for config in SMALL_CONFIGS:
            rows = screen(config)
            expected = _naive_order(rows)
            for cap in (None, 0, 1):
                assert _order_reports(rows, cap) == [
                    (name, count, bad[slice(cap)]) for name, count, bad in expected
                ], (config, cap)

    @pytest.mark.parametrize("config", [lia(3), qlia(4, 2), qlia(6, 1), qlia(16, 5)], ids=str)
    def test_planted_entries_are_reported(self, config, screen):
        """Wrong entries planted in implies, join and negate, at every cell of
        implies and join and every place of negate: each report equals the
        plain loop's.  Among them, a pair with x -> y = y -> x = top and a
        failed order reversal are each caught."""
        size, top = 2 * config.n + 2, 2 * config.n + 1
        caught = {"I4": 0, "involution": 0}
        plantings = [(op, i, j) for op in ("implies", "join") for i in range(size)
                     for j in range(size)] + [("negate", i, None) for i in range(size)]
        for op, i, j in plantings[::7 if config.n > 8 else 1]:
            tables = screen(config)  # fresh maps
            if op == "negate":
                neg = [*tables.negate]
                neg[i] = (neg[i] + 1) % size
                tables = tables._replace(negate=type(tables.negate)(neg))
            else:
                table = getattr(tables, op)
                entry = top if op == "implies" else j  # a top, or x v y = y
                if table[i][j] == entry:
                    continue
                tables = tables._replace(**{op: with_entry(table, i, j, entry)})
            expected = _naive_order(tables)  # a ``_replace``d holder holds its maps anew
            for name, count, _ in expected:
                caught[name] += count > 0
            assert _order_reports(tables) == expected, (op, i, j)
            assert _order_reports(tables, 1) == [
                (name, count, bad[:1]) for name, count, bad in expected], (op, i, j)
        assert caught["I4"] and caught["involution"], caught

    def test_a_planted_pair_and_reversal_are_caught(self):
        """lia(3): v3F -> v2F = top already, and planting v2F -> v3F = top
        makes the pair one I4 violation each way; planting v3T v v0T = v0T
        reads v3T <= v0T, which negation maps to v0F <= v3F, and it is not."""
        tables = lia(3).tables
        planted = tables._replace(
            implies=with_entry(tables.implies, 1, 0, 7), join=with_entry(tables.join, 7, 4, 4))
        i4 = check_axiom(planted, Axiom.I4)
        assert (i4.total_violations, i4.witnesses) == (2, [
            axioms.Witness(F(3), F(2), None, T(3), T(3)),
            axioms.Witness(F(2), F(3), None, T(3), T(3))])
        involution = check_involution(planted)
        assert involution.witnesses == [axioms.Witness(T(3), T(0), None, F(0), F(3))]


# the fields of a witness that name the row or column its screen walks
_WALKED = {"I1": "xz", "I3": "x", "I5": "x", "I6": "xz", "I7": "xz",
           "join-commutative": "x", "meet-commutative": "x",
           "join-associative": "xy", "meet-associative": "xy",
           "join-absorption": "x", "meet-absorption": "x"}


def _reports(config, max_witnesses):
    """Every axiom, lattice-law and involution report of ``config``, a
    config or a holder."""
    results = check_all_axioms(config, max_witnesses)
    return ([results[a] for a in Axiom] + check_lattice_laws(config, max_witnesses)
            + [check_involution(config, max_witnesses)])


def _quasi_counts(n, i):
    """The I6 and I7 violation counts of qlia(n, i): quadratic forms in (n, i),
    two regions split at 2i = n, fitted to exhaustive checks over n = 5..24.
    They share no code with the checker, so they check it as far as it runs."""
    if 2 * i <= n:
        return (5 * n * n - 8 * n * i + 3 * i * i + 7 * n - 5 * i + 2,
                n * n + 2 * n * i - 3 * i * i + 7 * n - 11 * i - 2)
    return (5 * n * n - 8 * n * i + 3 * i * i + 11 * n - 9 * i + 6,
            n * n + 2 * n * i - 3 * i * i + 7 * n - 7 * i + 2)


def _checked_counts(config):
    return tuple(check_axiom(config, axiom, max_witnesses=0).total_violations
                 for axiom in (Axiom.I6, Axiom.I7))


class TestQuasiViolationCounts:
    def test_every_config_up_to_n32(self):
        pairs = [(n, i) for n in range(2, 33) for i in range(1, n)]
        assert len(pairs) == 496
        assert {pair: _checked_counts(qlia(*pair)) for pair in pairs} == {
            pair: _quasi_counts(*pair) for pair in pairs}

    def test_seeded_configs_up_to_n127(self):
        """Past n = 32 up to n = 127, the most byte rows take: the 2i = n seam,
        the edge indices at n = 127 and six seeded configs."""
        draw = random.Random(127)
        pairs = [(126, 63), (127, 63), (127, 64), (127, 1), (127, 126)]
        pairs += [(n, draw.randint(1, n - 1)) for n in sorted(draw.sample(range(33, 127), 6))]
        assert {pair: _checked_counts(qlia(*pair)) for pair in pairs} == {
            pair: _quasi_counts(*pair) for pair in pairs}

    @pytest.mark.parametrize("n, i", [(20, 7), (31, 15), (31, 16), (32, 1), (32, 31)])
    def test_wide_rows(self, n, i):
        assert _checked_counts(wide_rows(qlia(n, i))) == _quasi_counts(n, i)


def _factorisations(limit, least=2):
    """Every product of factors >= 2, listed in ascending order, up to
    ``limit``."""
    return [(m, *rest) for m in range(least, limit + 1)
            for rest in [(), *_factorisations(limit // m, m)]]


# every product of chains of even size <= 32, each factorisation once
PRODUCTS = [sizes for sizes in _factorisations(32) if math.prod(sizes) % 2 == 0]


def _product_covers(config, sizes):
    """The cover graph of the product of the chains of ``sizes``, on
    ``config.values()`` in the order of ``planted.chain_product``'s indices:
    a covers b where they differ by one step in one factor.  ``CoverGraph``
    takes a config, so the product is checked through one of its size."""
    values, elements = config.values(), [*itertools.product(*map(range, sizes))]
    position = {e: k for k, e in enumerate(elements)}
    return CoverGraph(config, values, frozenset(
        (values[position[e]], values[position[(*e[:f], e[f] + 1, *e[f + 1:])]])
        for e in elements for f, m in enumerate(sizes) if e[f] + 1 < m))


class TestChainProducts:
    """Products of Łukasiewicz chains are MV-algebras, and so lattice
    implication algebras, which the code never builds but for L2 x L(n+1);
    the same products with the Gödel implication are Heyting algebras and,
    unless Boolean, fail I3 and I5."""

    def test_lukasiewicz_products_are_lia(self):
        """Every axiom, lattice law and the involution hold, and the oracle,
        on the product's own cover edges, certifies the bounds and finds the
        rows, the order and residuation as they are."""
        assert len(PRODUCTS) == 56 and (2, 16) in PRODUCTS and (16, 2) not in PRODUCTS
        for sizes in PRODUCTS:
            rows = chain_product(sizes, lukasiewicz)
            assert classify(check_all_axioms(rows, 0)) is Classification.LIA, sizes
            assert all(law.holds for law in check_lattice_laws(rows, 0)), sizes
            assert check_involution(rows, 0).holds, sizes
            # the oracle reads the rows of a graph's config, named by its values
            config = lia(len(rows.values) // 2 - 1)
            vars(config)["tables"] = rows._replace(values=config.values())
            graph = _product_covers(config, sizes)
            assert verify_lattice(graph).is_lattice, sizes
            report = cross_check_ops(graph)
            assert report.clean and report.residuation_exceptions == [], sizes

    def test_goedel_products_fail_i3_and_i5(self):
        """Exactly I3 and I5 fail, as often as a plain double loop finds,
        unless every factor has two elements (a Boolean algebra)."""
        for sizes in PRODUCTS:
            rows = chain_product(sizes, goedel)
            results = check_all_axioms(rows, 0)
            failed = {a.value: results[a].total_violations for a in Axiom if not results[a].holds}
            expected = {} if set(sizes) == {2} else {
                name: len(_naive_pairs(rows, name)) for name in ("I3", "I5")}
            assert failed == expected, sizes

    def test_product_witnesses_name_coordinates(self):
        """A product's witnesses name its elements by their coordinates, not
        by linguistic values: in L3 x L2 with the Gödel implication, the
        first I3 violation is x = (1, 0), y = (0, 0), where x -> y =
        (1 -> 0, 0 -> 0) = (0, 1) and y' -> x' = (2, 1) -> (1, 1) = (1, 1)."""
        result = check_axiom(chain_product((3, 2), goedel), Axiom.I3, 1)
        assert (result.total_violations, result.witnesses) == (
            8, [axioms.Witness((1, 0), (0, 0), None, (0, 1), (1, 1))])

    def test_lia_is_l2_times_l_n_plus_1(self):
        """The paper's LIA is the product L2 x L(n+1), indexed as its carrier
        index b(n+1) + p, on both sides of the byte limit."""
        for n in [*range(41), 127, 128]:
            assert lia(n).tables[:4] == chain_product((2, n + 1), lukasiewicz)[:4], n
