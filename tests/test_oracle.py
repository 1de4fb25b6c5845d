import json

import pytest
from planted import wide_rows, with_entry
from stated import stated_rows

from lingtruth.errors import DomainError
from lingtruth.lattice import AlgebraConfig, LinguisticValue, lia, qlia
from lingtruth.oracle import (
    CoverGraph,
    OpMismatch,
    build_covers,
    cross_check_ops,
    to_dot,
    to_json_dict,
    verify_lattice,
)

T = LinguisticValue.true
F = LinguisticValue.false

SMALL_CONFIGS = [lia(n) for n in range(9)] + [
    qlia(n, i) for n in range(2, 9) for i in range(1, n)
]


def _two_by_two_poset():
    """F1, F0 < T0, T1 with no other order: not a lattice."""
    lows, highs = (F(1), F(0)), (T(0), T(1))
    return CoverGraph(
        lia(1), lows + highs, frozenset((low, high) for low in lows for high in highs)
    )


def _order(graph):
    """``leq``, ``lub`` and ``glb`` of the graph on values, read off its
    position tables ``up``, ``joins`` and ``meets``."""
    elements = graph.elements
    position = {e: k for k, e in enumerate(elements)}.__getitem__

    def leq(a, b):
        return bool(graph.up[position(a)] >> position(b) & 1)

    def bound(table):
        def at(a, b):
            k = table[position(a)][position(b)]
            return None if k is None else elements[k]
        return at

    return leq, bound(graph.joins), bound(graph.meets)


class TestCoverConstruction:
    def test_two_point_chain(self):
        graph = build_covers(lia(0))
        assert graph.covers == frozenset({(F(0), T(0))})

    def test_plain_n1_covers(self):
        graph = build_covers(lia(1))
        assert graph.covers == frozenset(
            {
                (F(1), F(0)),  # false chain upward
                (T(0), T(1)),  # true chain upward
                (F(0), T(1)),  # cross links k -> n-k
                (F(1), T(0)),
            }
        )

    def test_positions_give_the_edges_value_by_value(self):
        """Every config with n <= 32: ``build_covers``, which lays its edges as
        positions, equals the graph built edge by edge from values."""
        for n in range(33):
            for config in [lia(n), *(qlia(n, i) for i in range(1, n))]:
                covers = {(F(g), F(g - 1)) for g in range(n, 0, -1)}
                covers |= {(T(g), T(g + 1)) for g in range(n)}
                covers |= {(F(k), T(n - k)) for k in range(n + 1) if k != config.noncomparable}
                assert build_covers(config) == CoverGraph(
                    config, config.values(), frozenset(covers)), config

    def test_quasi_kind_drops_one_cross_link(self):
        plain = build_covers(lia(4)).covers
        quasi = build_covers(qlia(4, 2)).covers
        assert plain - quasi == {(F(2), T(2))}

    @pytest.mark.parametrize(
        "make",
        [
            # a cover end that is a value of the config but not an element
            lambda: verify_lattice(CoverGraph(lia(1), (F(1),), frozenset({(F(1), T(0))}))),
            lambda: CoverGraph(lia(1), (F(1), "x"), frozenset()),
            lambda: CoverGraph(lia(1), (F(1), T(2)), frozenset()),
            lambda: CoverGraph(lia(1), (F(1), F(1)), frozenset()),
            lambda: CoverGraph(lia(1), (F(1), F(0)), frozenset({(F(1), F(0), T(0))})),
            lambda: CoverGraph("lia(1)", (F(1), F(0)), frozenset()),
        ],
        ids=["edge-end-not-element", "element-not-value", "grade-outside-carrier",
             "repeated-element", "edge-not-pair", "not-a-config"],
    )
    def test_bad_input_is_domain_error(self, make):
        with pytest.raises(DomainError):
            make()


class TestReachability:
    def test_bottom_below_top(self):
        graph = build_covers(lia(4))
        leq = _order(graph)[0]
        assert leq(F(4), T(4))

    def test_true_chain_not_below_false_chain(self):
        graph = build_covers(lia(4))
        leq = _order(graph)[0]
        assert not leq(T(0), F(0))

    def test_noncomparable_pair(self):
        graph = build_covers(qlia(4, 2))
        leq = _order(graph)[0]
        assert not leq(F(2), T(2))
        assert leq(F(2), T(3))

    def test_cross_reachability_pattern(self):
        n = 6
        graph = build_covers(lia(n))
        leq = _order(graph)[0]
        for k in range(n + 1):
            for j in range(n + 1):
                assert leq(F(k), T(j)) == (j >= n - k)

    def test_cross_reachability_pattern_quasi(self):
        n, nc = 6, 2
        graph = build_covers(qlia(n, nc))
        leq = _order(graph)[0]
        for k in range(n + 1):
            for j in range(n + 1):
                expected = (j >= n - k) and not (k == nc and j == n - nc)
                assert leq(F(k), T(j)) == expected

    def test_leq_is_reachability_over_covers(self):
        """Every pair of every n <= 8 config, with the carrier listed bottom-up
        and top-down, and of a non-lattice poset, against a breadth-first
        search along the cover edges."""
        graphs = [_two_by_two_poset()]
        for config in SMALL_CONFIGS:
            graph = build_covers(config)
            graphs += [graph, CoverGraph(config, graph.elements[::-1], graph.covers)]
        for graph in graphs:
            leq = _order(graph)[0]
            for a in graph.elements:
                reached, frontier = {a}, [a]
                while frontier:
                    frontier = [upper for lower, upper in graph.covers
                                if lower in frontier and upper not in reached]
                    reached.update(frontier)
                for b in graph.elements:
                    assert leq(a, b) == (b in reached), (graph.config, a, b)

    def test_partial_order_properties(self):
        for config in (lia(5), qlia(5, 3), lia(0)):
            graph = build_covers(config)
            leq = _order(graph)[0]
            values = graph.elements
            for a in values:
                assert leq(a, a)
                for b in values:
                    if leq(a, b) and leq(b, a):
                        assert a == b
                    for c in values:
                        if leq(a, b) and leq(b, c):
                            assert leq(a, c)


class TestBounds:
    def test_plain_bounds(self):
        graph = build_covers(lia(4))
        _, lub, glb = _order(graph)
        assert lub(T(0), F(0)) == T(4)
        assert glb(T(0), F(0)) == F(4)

    def test_quasi_pair_bounds(self):
        graph = build_covers(qlia(4, 2))
        _, lub, glb = _order(graph)
        assert lub(T(2), F(2)) == T(3)
        assert glb(T(2), F(2)) == F(3)

    def test_identity_cases(self):
        graph = build_covers(lia(3))
        _, lub, glb = _order(graph)
        for a in graph.elements:
            assert lub(a, a) == a
            assert glb(a, graph.config.top()) == a

    def test_bound_algebra_laws(self):
        """Oracle joins/meets are commutative, idempotent, absorptive, monotone."""
        for config in (lia(4), qlia(4, 2)):
            graph = build_covers(config)
            leq, lub, glb = _order(graph)
            values = graph.elements
            for a in values:
                assert lub(a, a) == a
                assert glb(a, a) == a
                for b in values:
                    assert lub(a, b) == lub(b, a)
                    assert glb(a, b) == glb(b, a)
                    assert lub(a, glb(a, b)) == a
                    assert glb(a, lub(a, b)) == a
                    if leq(a, b):
                        for c in values:
                            assert leq(lub(a, c), lub(b, c))
                            assert leq(glb(a, c), glb(b, c))


def _unique_extreme_bound(graph, order, a, b, below):
    """The unique minimal common upper bound of a and b (below=False) or
    unique maximal common lower bound (below=True), by exhaustive search
    over the graph's ``order``; None if absent or ambiguous."""
    leq = (lambda u, v: order(v, u)) if below else order
    bounds = [c for c in graph.elements if leq(a, c) and leq(b, c)]
    extreme = [u for u in bounds if not any(v != u and leq(v, u) for v in bounds)]
    return extreme[0] if len(extreme) == 1 else None


class TestBoundsAgainstExhaustiveSearch:
    def test_every_pair_up_to_n8(self):
        for config in SMALL_CONFIGS:
            graph = build_covers(config)
            leq, lub, glb = _order(graph)
            for a in graph.elements:
                for b in graph.elements:
                    assert lub(a, b) == _unique_extreme_bound(graph, leq, a, b, False)
                    assert glb(a, b) == _unique_extreme_bound(graph, leq, a, b, True)

    def test_missing_bounds_are_none(self):
        """In the poset F1, F0 < T0, T1 (no cross order otherwise) F1 and F0
        have two minimal upper bounds and T0, T1 have none."""
        graph = _two_by_two_poset()
        leq, lub, glb = _order(graph)
        for a in graph.elements:
            for b in graph.elements:
                assert lub(a, b) == _unique_extreme_bound(graph, leq, a, b, False)
                assert glb(a, b) == _unique_extreme_bound(graph, leq, a, b, True)
        assert lub(F(1), F(0)) is None
        assert lub(T(0), T(1)) is None
        assert glb(T(0), T(1)) is None
        assert lub(F(1), T(0)) == T(0)


class TestLatticeCertificate:
    def test_no_defects(self):
        for config in (lia(4), qlia(4, 2), lia(0)):
            report = verify_lattice(build_covers(config))
            assert report.is_lattice
            assert report.missing_joins == [] and report.missing_meets == []

    def test_non_lattice_defects(self):
        """Both pairs of the poset's two minimal and two maximal elements, in
        carrier order, lack a join and a meet."""
        report = verify_lattice(_two_by_two_poset())
        defects = [(F(1), F(0)), (F(0), F(1)), (T(0), T(1)), (T(1), T(0))]
        assert not report.is_lattice
        assert report.missing_joins == defects
        assert report.missing_meets == defects

    def test_joins_and_meets_are_reported_apart(self):
        """With a top above T0 and T1, only the meet of T0 and T1 is missing."""
        graph = _two_by_two_poset()
        covers = graph.covers | {(T(0), T(2)), (T(1), T(2))}
        report = verify_lattice(CoverGraph(lia(2), graph.elements + (T(2),), covers))
        assert report.missing_joins == [(F(1), F(0)), (F(0), F(1))]
        assert report.missing_meets == [(F(1), F(0)), (F(0), F(1)), (T(0), T(1)), (T(1), T(0))]

    def test_report_dict_shape(self):
        d = verify_lattice(build_covers(lia(1))).to_dict()
        assert d["is_lattice"] is True
        assert d["missing_joins"] == []


class TestCrossCheck:
    def test_plain_everything_agrees(self):
        report = cross_check_ops(build_covers(lia(4)))
        assert report.clean
        assert report.stated == []
        assert report.residuation_exceptions == []

    def test_quasi_implementation_agrees(self):
        report = cross_check_ops(build_covers(qlia(4, 2)))
        assert report.clean

    def test_quasi_stated_join_scope_deviation(self):
        """The stated raised-join branch is wrong for false grades above i."""
        report = cross_check_ops(build_covers(qlia(5, 2)))
        pairs = {
            (str(m.a), str(m.b)): (str(m.got), str(m.expected))
            for m in report.stated
            if m.op == "join"
        }
        assert pairs[("v3T", "v4F")] == ("v4T", "v3T")
        assert all(m.rule == "2.4-item3" for m in report.stated)

    def test_quasi_residuation_exception_is_the_missing_link(self):
        report = cross_check_ops(build_covers(qlia(4, 2)))
        assert report.residuation_exceptions == [(F(2), T(2))]

    def test_wrong_table_entries_are_reported(self):
        """lia(2) carrier positions: F2 F1 F0 T0 T1 T2.  Each wrong join or
        meet entry gives one mismatch, in row-major pair order, and a wrong
        join that reads as x v y = y a second one, on leq."""
        config = lia(2)
        tables = config.tables
        join = with_entry(tables.join, 1, 3, 5)  # v1F v v0T = v1T, not v2T
        # the cached rows live in the instance dict
        vars(config)["tables"] = tables._replace(
            # v0F v v0T = v2T, not v0T, which would read as v0F <= v0T
            join=with_entry(join, 2, 3, 3),
            meet=with_entry(tables.meet, 4, 2, 0),  # v1T ^ v0F = v1F, not v2F
        )
        report = cross_check_ops(build_covers(config))
        assert report.implemented == [
            OpMismatch("join", F(1), T(0), T(2), T(1)),
            OpMismatch("join", F(0), T(0), T(0), T(2)),
            OpMismatch("leq", F(0), T(0), True, False),
            OpMismatch("meet", T(1), F(0), F(2), F(1)),
        ]
        assert [m.to_dict() for m in report.implemented] == [
            {"op": "join", "a": "v1F", "b": "v0T", "got": "v2T", "expected": "v1T"},
            {"op": "join", "a": "v0F", "b": "v0T", "got": "v0T", "expected": "v2T"},
            {"op": "leq", "a": "v0F", "b": "v0T", "got": True, "expected": False},
            {"op": "meet", "a": "v1T", "b": "v0F", "got": "v2F", "expected": "v1F"},
        ]
        assert report.stated == [] and report.residuation_exceptions == []

    @pytest.mark.parametrize("config", [lia(2), qlia(3, 1)], ids=str)
    def test_every_single_wrong_entry_is_reported(self, config):
        """A wrong entry planted at each position of each table shows up in the
        report as a pair-by-pair walk over the graph's own bounds and order
        finds it, leq read off the join; the stated deviations stay those of
        the unplanted tables."""
        clean = cross_check_ops(build_covers(config))
        size = 2 * config.n + 2
        top = size - 1
        for op in ("join", "meet", "implies"):
            for i in range(size):
                for j in range(size):
                    planted = AlgebraConfig(*config)
                    tables = planted.tables
                    entry = getattr(tables, op)[i][j]
                    if op == "implies":  # top or not: residuation reads only that
                        entry = 0 if entry == top else top
                    else:
                        entry = (entry + 1) % size
                    # the cached rows live in the instance dict
                    tables = vars(planted)["tables"] = tables._replace(
                        **{op: with_entry(getattr(tables, op), i, j, entry)})
                    graph = build_covers(planted)
                    leq, lub, glb = _order(graph)
                    report = cross_check_ops(graph)
                    values, implemented, residuation = graph.elements, [], []
                    for x, a in enumerate(values):
                        for y, b in enumerate(values):
                            expected = {"join": lub(a, b), "meet": glb(a, b), "leq": leq(a, b)}
                            got = {"join": values[tables.join[x][y]],
                                   "meet": values[tables.meet[x][y]],
                                   "leq": tables.join[x][y] == y}
                            for name in ("join", "meet", "leq"):
                                if got[name] != expected[name]:
                                    implemented.append(
                                        OpMismatch(name, a, b, got[name], expected[name]))
                            if (tables.implies[x][y] == top) != expected["leq"]:
                                residuation.append((a, b))
                    assert report.implemented == implemented, (op, i, j)
                    assert report.residuation_exceptions == residuation, (op, i, j)
                    assert report.stated == clean.stated, (op, i, j)
                    assert (implemented, residuation) != (
                        [], clean.residuation_exceptions), (op, i, j)

    @pytest.mark.parametrize("config", [lia(2), qlia(3, 1)], ids=str)
    def test_byte_and_tuple_rows_report_alike(self, config):
        """A wrong entry planted at each cell of each table: byte rows, which
        compare the order and the tops of implies as flat marks, and tuple
        copies of them, which compare row by row, give the same report."""
        size, clean = 2 * config.n + 2, cross_check_ops(build_covers(config))
        for op in ("join", "meet", "implies"):
            for i in range(size):
                for j in range(size):
                    reports = []
                    for planted in (AlgebraConfig(*config), wide_rows(config)):
                        tables = planted.tables
                        entry = (getattr(tables, op)[i][j] + 1) % size
                        if op == "implies":  # top or not: residuation reads only that
                            entry = 0 if tables.implies[i][j] == size - 1 else size - 1
                        vars(planted)["tables"] = tables._replace(
                            **{op: with_entry(getattr(tables, op), i, j, entry)})
                        reports.append(cross_check_ops(build_covers(planted)))
                    assert reports[0] == reports[1], (op, i, j)
                    assert reports[0] != clean, (op, i, j)

    def test_missing_bound_is_reported_as_null(self):
        """Without the cover edge v0F -> v1T of lia(1), v0F has no upper
        bound in common with a true value, and the meet of v0F and v1T
        drops to v1F."""
        config = lia(1)
        graph = build_covers(config)
        report = cross_check_ops(
            CoverGraph(config, graph.elements, graph.covers - {(F(0), T(1))}))
        assert report.implemented == [
            OpMismatch("join", F(0), T(0), T(1), None),
            OpMismatch("join", F(0), T(1), T(1), None),
            OpMismatch("meet", F(0), T(1), F(0), F(1)),
            OpMismatch("leq", F(0), T(1), True, False),
            OpMismatch("join", T(0), F(0), T(1), None),
            OpMismatch("join", T(1), F(0), T(1), None),
            OpMismatch("meet", T(1), F(0), F(0), F(1)),
        ]
        assert report.implemented[0].to_dict() == {
            "op": "join", "a": "v0F", "b": "v0T", "got": "v1T", "expected": None}
        assert '"expected": null' in json.dumps(report.to_dict())
        assert report.residuation_exceptions == [(F(0), T(1))]

    def test_cover_edges_that_close_a_cycle_are_domain_error(self):
        """Edges both ways between v0F and v0T of lia(1) give the two one
        up-set, so they order nothing and neither check runs; the edge
        v0F -> v0T alone closes no cycle, makes the carrier a chain and is
        reported against the tables like any other graph."""
        config = lia(1)
        graph = build_covers(config)
        cyclic = CoverGraph(config, graph.elements, graph.covers | {(F(0), T(0)), (T(0), F(0))})
        for check in (verify_lattice, cross_check_ops):
            with pytest.raises(DomainError, match="cycle"):
                check(cyclic)
        with pytest.raises(DomainError, match="cycle"):
            cyclic.meets  # on down-sets alone
        chain = CoverGraph(config, graph.elements, graph.covers | {(F(0), T(0))})
        assert verify_lattice(chain).is_lattice
        report = cross_check_ops(chain)
        assert report.implemented == [
            OpMismatch("join", F(0), T(0), T(1), T(0)),
            OpMismatch("meet", F(0), T(0), F(1), F(0)),
            OpMismatch("leq", F(0), T(0), False, True),
            OpMismatch("join", T(0), F(0), T(1), T(0)),
            OpMismatch("meet", T(0), F(0), F(1), F(0)),
        ]
        assert report.residuation_exceptions == [(F(0), T(0))]

    def test_user_graph_defects_are_not_blamed_on_the_paper(self):
        """On a cover graph built by hand that lacks an edge of the carrier,
        the stated rule checked is still item 3 alone: none in the plain
        kind, and only item-3 pairs in the quasi kind."""
        config = lia(1)
        graph = build_covers(config)
        report = cross_check_ops(
            CoverGraph(config, graph.elements, graph.covers - {(F(0), T(1))}))
        assert report.implemented and report.stated == []

        # item 3 of qlia(4, 2): v2T v v_lF = v3T for l = 4, 3, 2; without the
        # cross link v1F -> v3T, v2F lies below v4T alone, so even the join at
        # l = i differs from the stated one
        config = qlia(4, 2)
        graph = build_covers(config)
        report = cross_check_ops(
            CoverGraph(config, graph.elements, graph.covers - {(F(1), T(3))}))
        stated = [("join", F(4), T(2), T(3), T(2)), ("join", F(3), T(2), T(3), T(2)),
                  ("join", F(2), T(2), T(3), T(4))]
        stated += [(op, b, a, got, expected) for op, a, b, got, expected in stated]
        assert report.implemented
        assert report.stated == [OpMismatch(*m, rule="2.4-item3") for m in stated]

    def test_stated_transcription_differs_only_where_the_report_says(self):
        """Every config with n <= 32: the whole of rule 2.4's join and meet
        case lists as stated (``stated_rows``) meets as the oracle does,
        and joins otherwise at exactly the pairs that ``cross_check_ops``
        reports under item 3, in the same order."""
        configs = [lia(n) for n in range(33)]
        configs += [qlia(n, i) for n in range(2, 33) for i in range(1, n)]
        for config in configs:
            graph = build_covers(config)
            values = graph.elements
            joins, meets = stated_rows(config)
            assert meets == graph.meets, config
            differ = [
                OpMismatch("join", values[x], values[y], values[stated[y]],
                           values[oracle[y]], rule="2.4-item3")
                for x, (stated, oracle) in enumerate(zip(joins, graph.joins))
                if stated != oracle
                for y in range(len(values)) if stated[y] != oracle[y]
            ]
            assert cross_check_ops(graph).stated == differ, config

    def test_graph_out_of_table_order_is_rejected(self):
        """The graph must list the carrier in the order of the rows: reversed,
        or without its top, it is refused; listed in order, as a list or a
        tuple, it is checked and clean."""
        config = qlia(4, 2)
        graph = build_covers(config)
        top = config.top()
        for elements, covers in ((graph.elements[::-1], graph.covers),
                                 (graph.elements[:-1], {e for e in graph.covers if top not in e})):
            with pytest.raises(DomainError):
                cross_check_ops(CoverGraph(config, elements, frozenset(covers)))
        listed = CoverGraph(config, list(config.values()), graph.covers)
        assert cross_check_ops(listed).clean
        assert cross_check_ops(listed) == cross_check_ops(graph)

    def test_report_dict(self):
        d = cross_check_ops(build_covers(qlia(4, 2))).to_dict()
        assert d["implemented_mismatches"] == []
        assert d["kind"] == "QLIA" and d["noncomparable"] == 2
        assert len(d["stated_mismatches"]) == 4  # (v2T, v3F/v4F), both orders


class TestExports:
    def test_exports_build_no_order_tables(self):
        """The edges alone make the exports; the order and the bounds are
        built on first use, each once."""
        graph = build_covers(lia(300))
        to_dot(graph)
        to_json_dict(graph)
        assert not {"up", "joins", "meets"} & vars(graph).keys()
        assert graph.joins is graph.joins
        assert {"up", "joins"} <= vars(graph).keys() and "meets" not in vars(graph)

    def test_dot_output(self):
        dot = to_dot(build_covers(lia(4)))
        assert dot.startswith("digraph hasse {")
        assert dot.count('"v') >= 10
        assert '"v4F" -> "v3F";' in dot
        assert '"v2F" -> "v2T";' in dot

    def test_dot_quasi_drops_edge(self):
        dot = to_dot(build_covers(qlia(4, 2)))
        assert '"v2F" -> "v2T";' not in dot
        assert '"v1F" -> "v3T";' in dot

    def test_dot_labels(self):
        dot = to_dot(build_covers(lia(4, labels=("a", "b", "c", "d", "e"))))
        assert '[label="d True"]' in dot

    def test_dot_escapes_labels(self):
        """A quote or backslash in a label stays inside its DOT string as
        itself, not as the string's end or a DOT escape such as \\n."""
        dot = to_dot(build_covers(lia(1, labels=('say "hi"', "a\\nb"))))
        assert '"v0T" [label="say \\"hi\\" True"];' in dot
        assert '"v1F" [label="a\\\\nb False"];' in dot

    def test_json_export(self):
        d = to_json_dict(build_covers(lia(0)))
        assert d["nodes"] == ["v0F", "v0T"]
        assert d["edges"] == [["v0F", "v0T"]]
