"""Ground-truth order oracle for the truth-value carrier.

The closed-form operations in `lingtruth.lattice` are fast but easy to get
wrong around the non-comparable pair, so this module rebuilds the order from
first principles: lay down the cover edges of the carrier's Hasse diagram
and grow each element's up-set, a bitmask over the positions of the
carrier, along those edges until nothing changes: the reflexive-transitive
closure by plain reachability, refused if the edges close a cycle.  The
up-sets, and the down-sets grown alike down the edges, only build the
bounds: the least upper bound of a and b is the element whose up-set is
exactly ``up[a] & up[b]`` (found by one dict lookup), and None when no such
element exists; in a finite poset that is the same as "the unique minimal
common upper bound".  Greatest lower bounds are the dual, on down-sets.
The up-sets and the bounds of every pair are position tables of the graph,
each built on first use, so ``hasse``, which exports only the edges, builds
none of them.  Nothing here uses the closed forms or the operation tables.

`verify_lattice` and `cross_check_ops` both take a `CoverGraph`, so one
``check`` builds the graph and its tables once.  `cross_check_ops` reads
a <= b as a v b = b off the table's joins and the oracle's alike, and
compares three things against the oracle:

* on every pair, the operation rows the axiom checker and the inference
  tables read (``AlgebraConfig.tables``, computed from the carrier index),
  with the order read off their join; they must always agree;
* on its pairs, the one stated case rule that `lingtruth.discrepancies`
  corrects (note ``2.4-item3-scope``): rule 2.4 item 3 raises the quasi
  join of v_(n-i)T with each false grade l >= i to v_(n-(i-1))T, which the
  oracle refutes for l > i, and the report records each such pair.  The
  pairs come from grade arithmetic written from the case text, sharing no
  code with ``AlgebraConfig.tables``; the rest of rule 2.4 agrees with the
  oracle, as the tests confirm against a full transcription;
* on every pair, the residuation reading "a <= b iff a -> b = top", which
  in the quasi kind has exactly one exceptional pair.

Both checks compare whole rows with one equality each, in C, and walk a
row pair by pair only when it differs (`verify_lattice` only when the row
lacks a bound), so the reports list their entries in row-major pair order.
"""

from __future__ import annotations

import functools
import operator
from collections import namedtuple

from .errors import DomainError, require
from .lattice import AlgebraConfig, LinguisticValue, canonical


class CoverGraph(namedtuple("CoverGraph", "config elements covers")):
    """Hasse cover edges of a carrier, with the order and the bounds as
    tables over the positions of ``elements``, built on first use and
    cached in the instance dict.  The elements must be distinct values of
    ``config``, and each cover edge a (lower, upper) pair of them; anything
    else raises ``DomainError``."""

    def __new__(cls, config: AlgebraConfig, elements: tuple[LinguisticValue, ...],
                covers: frozenset[tuple[LinguisticValue, LinguisticValue]]):
        members = set(map(require(config, AlgebraConfig).validate_value, elements))
        if len(members) != len(elements):
            raise DomainError("the elements of a cover graph must be distinct")
        for edge in covers:
            if not (isinstance(edge, tuple) and len(edge) == 2 and members.issuperset(edge)):
                raise DomainError(f"cover edge {edge!r} is not a pair of the graph's elements")
        return tuple.__new__(cls, (config, elements, covers))

    _make = classmethod(lambda cls, fields: cls(*fields))  # ``_replace`` validates too

    @functools.cached_property
    def up(self) -> list[int]:
        """up[a]: the positions at or above position a, as a bitmask; cover
        edges that close a cycle raise ``DomainError``."""
        return _closure(self, down=False)

    @functools.cached_property
    def joins(self) -> list[list[int | None]]:
        """joins[a][b]: the position of the least upper bound of a and b, or None."""
        return _bounds(self.up)

    @functools.cached_property
    def meets(self) -> list[list[int | None]]:
        """meets[a][b]: the position of the greatest lower bound of a and b, or None."""
        return _bounds(_closure(self, down=True))


def _closure(graph: CoverGraph, down: bool) -> list[int]:
    """reach[a]: position a and every position above it (below it if
    ``down``) along the cover edges, as a bitmask; edges that close a cycle
    raise ``DomainError``."""
    index = {e: k for k, e in enumerate(graph.elements)}
    edges = sorted((index[lower], index[upper]) for lower, upper in graph.covers)
    # on a carrier listed bottom-up one pass reaches the closure, and the next
    # confirms it, if up-sets take the highest lower end first, down-sets the lowest
    edges = [(upper, lower) for lower, upper in edges] if down else edges[::-1]
    reach = [1 << k for k in range(len(index))]
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            if reach[b] & ~reach[a]:
                reach[a] |= reach[b]
                changed = True
    if len(set(reach)) < len(reach):  # two positions each reach the other
        raise DomainError("the cover edges close a cycle, so they are not an order")
    return reach


def _bounds(sets: list[int]) -> list[list[int | None]]:
    """bounds[a][b]: the position whose set is sets[a] & sets[b], or None."""
    # distinct elements have distinct up-sets (and down-sets): ``_closure`` checks it
    by_set = {mask: k for k, mask in enumerate(sets)}
    return [[by_set.get(x & y) for y in sets] for x in sets]


def build_covers(config: AlgebraConfig) -> CoverGraph:
    """Cover edges: the two hedge chains plus one cross link per false grade
    (minus the configured non-comparable one)."""
    values = require(config, AlgebraConfig).values()  # sized before any edge
    n, false, true = config.n, LinguisticValue.false, LinguisticValue.true
    covers = {(false(g), false(g - 1)) for g in range(n, 0, -1)}
    covers |= {(true(g), true(g + 1)) for g in range(n)}
    covers |= {(false(k), true(n - k)) for k in range(n + 1) if k != config.noncomparable}
    return CoverGraph(config, values, frozenset(covers))


class LatticeReport(namedtuple("LatticeReport", "config missing_joins missing_meets")):
    """Pairs of the carrier lacking a unique LUB or GLB (should be none):
    lists of (a, b) pairs, filled by ``verify_lattice``."""

    __slots__ = ()

    @property
    def is_lattice(self) -> bool:
        return not self.missing_joins and not self.missing_meets

    def to_dict(self) -> dict:
        return {
            "kind": self.config.kind,
            "n": self.config.n,
            "is_lattice": self.is_lattice,
            "missing_joins": [[canonical(a), canonical(b)] for a, b in self.missing_joins],
            "missing_meets": [[canonical(a), canonical(b)] for a, b in self.missing_meets],
        }


def verify_lattice(graph: CoverGraph) -> LatticeReport:
    """Every pair of the graph's carrier lacking a unique LUB or GLB."""
    report = LatticeReport(require(graph, CoverGraph).config, [], [])
    values = graph.elements
    for a, joins, meets in zip(values, graph.joins, graph.meets):
        if None not in joins and None not in meets:
            continue
        for b, join, meet in zip(values, joins, meets):
            if join is None:
                report.missing_joins.append((a, b))
            if meet is None:
                report.missing_meets.append((a, b))
    return report


# ----------------------------------------------------------------------
# Cross-checking the closed forms against the oracle


class OpMismatch(namedtuple("OpMismatch", "op a b got expected rule", defaults=(None,))):
    """One pair where an operation differs from the oracle: ``got`` and
    ``expected`` are values, bools (leq) or None (no bound); ``rule`` names
    the stated case rule, if any."""

    __slots__ = ()

    def to_dict(self) -> dict:
        def show(v):
            return canonical(v) if isinstance(v, LinguisticValue) else v

        entry = {
            "op": self.op,
            "a": canonical(self.a),
            "b": canonical(self.b),
            "got": show(self.got),
            "expected": show(self.expected),
        }
        if self.rule:
            entry["rule"] = self.rule
        return entry


class DiscrepancyReport(namedtuple("DiscrepancyReport",
                                   "config implemented stated residuation_exceptions")):
    """The oracle's verdict on one algebra, filled by ``cross_check_ops``:
    ``OpMismatch`` lists for the operation rows (``implemented``) and for
    the stated rule 2.4 item 3 (``stated``), and the (a, b) pairs where
    a -> b = top does not read as a <= b."""

    __slots__ = ()

    @property
    def clean(self) -> bool:
        """True when the implemented operations match the oracle everywhere."""
        return not self.implemented

    def to_dict(self) -> dict:
        return {
            "kind": self.config.kind,
            "n": self.config.n,
            "noncomparable": self.config.noncomparable,
            "implemented_mismatches": [m.to_dict() for m in self.implemented],
            "stated_mismatches": [m.to_dict() for m in self.stated],
            "residuation_exceptions": [
                [canonical(a), canonical(b)] for a, b in self.residuation_exceptions
            ],
        }


def _stated_item3(config: AlgebraConfig) -> list[tuple[int, int, int]]:
    """Rule 2.4 item 3 as the case list states it for the quasi kind: for
    the true grade k = n-i and every false grade l with n <= k+l,
    v_kT v v_lF = v_(n-(i-1))T.  Each such pair in both orders, as (a, b,
    stated) positions over ``config.values()`` in row-major order; none in
    the plain kind, whose item 3 needs no correction."""
    n, i = config.n, config.noncomparable
    if i is None:
        return []
    # positions of v_kT and v_(n-(i-1))T; v_lF sits at n-l, so the grades
    # l = n, ..., i take the positions 0, ..., n-i
    k, raised = 2 * n + 1 - i, 2 * n + 2 - i
    falses = range(n - i + 1)
    return [(f, k, raised) for f in falses] + [(k, f, raised) for f in falses]


def cross_check_ops(graph: CoverGraph) -> DiscrepancyReport:
    """Exhaustively compare the join/meet/leq rows of the graph's config
    with the oracle, a <= b read as a v b = b on both sides.  The graph must
    list the carrier in the order of ``config.values()``, so that its
    positions are the row indices."""
    config = require(graph, CoverGraph).config
    values = graph.elements
    if values != config.values():
        raise DomainError("cross_check_ops needs a graph over config.values(), in that order")
    report = DiscrepancyReport(config, [], [], [])
    value = dict(enumerate(values)).get  # value(None), a missing bound, is None
    top, positions = len(values) - 1, range(len(values))
    tables = config.tables
    rows = zip(values, graph.joins, graph.meets, tables.join, tables.meet, tables.implies)
    for a, joins, meets, join_row, meet_row, implies_row in rows:
        oracle_leq = list(map(operator.eq, joins, positions))
        # the rows may be bytes and the bounds a list that may hold None, so
        # the rows are compared as lists; equal join rows read equal orders
        if ([*join_row] == joins and [*meet_row] == meets
                and list(map(top.__eq__, implies_row)) == oracle_leq):
            continue
        leq_row = list(map(operator.eq, join_row, positions))
        for j, b in enumerate(values):
            join, meet, leq = joins[j], meets[j], oracle_leq[j]
            if join_row[j] != join:
                report.implemented.append(
                    OpMismatch("join", a, b, values[join_row[j]], value(join)))
            if meet_row[j] != meet:
                report.implemented.append(
                    OpMismatch("meet", a, b, values[meet_row[j]], value(meet)))
            if leq_row[j] != leq:
                report.implemented.append(OpMismatch("leq", a, b, leq_row[j], leq))
            if (implies_row[j] == top) != leq:
                report.residuation_exceptions.append((a, b))
    for x, y, stated in _stated_item3(config):
        join = graph.joins[x][y]
        if join != stated:
            report.stated.append(OpMismatch(
                "join", values[x], values[y], values[stated], value(join), rule="2.4-item3"))
    return report


# ----------------------------------------------------------------------
# Exports


def to_dot(graph: CoverGraph) -> str:
    """Graphviz digraph of the cover edges, directed lower -> upper."""
    config = require(graph, CoverGraph).config
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for value in graph.elements:
        name = canonical(value)
        if config.labels is not None:
            # a DOT string ends at '"', and a backslash starts \n, \l and the like
            label = config.label(value).replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  "{name}" [label="{label}"];')
        else:
            lines.append(f'  "{name}";')
    for lower, upper in sorted(graph.covers, key=lambda e: (canonical(e[0]), canonical(e[1]))):
        lines.append(f'  "{canonical(lower)}" -> "{canonical(upper)}";')
    lines.append("}")
    return "\n".join(lines)


def to_json_dict(graph: CoverGraph) -> dict:
    require(graph, CoverGraph)
    return {
        "kind": graph.config.kind,
        "n": graph.config.n,
        "noncomparable": graph.config.noncomparable,
        "nodes": [canonical(v) for v in graph.elements],
        "edges": sorted(
            [canonical(lower), canonical(upper)] for lower, upper in graph.covers
        ),
    }
