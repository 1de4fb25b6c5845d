"""Ground-truth order oracle for the truth-value carrier.

The closed-form operations in `lingtruth.lattice` are fast but easy to get
wrong around the non-comparable pair, so this module rebuilds the order from
first principles: lay down the cover edges of the carrier's Hasse diagram
and grow each element's up-set, a bitmask over the positions of the
carrier, along those edges until nothing changes.  That is the
reflexive-transitive closure by plain reachability; a <= b is one bit of
a's up-set, and the down-sets are its transpose.  The least upper bound of
a and b is the element whose up-set is exactly ``up[a] & up[b]`` (found by
one dict lookup), and None when no such element exists; in a finite poset
that is the same as "the unique minimal common upper bound".  Greatest
lower bounds are the dual, on down-sets.  The bounds of every pair are
computed once, when the graph is built; ``lub``, ``glb``, `verify_lattice`
and `cross_check_ops` only read them.  Nothing here uses the closed forms
or the operation tables.

`verify_lattice` and `cross_check_ops` both take a `CoverGraph`, so one
``check`` builds the graph once.  `cross_check_ops` compares three things
against the oracle on every pair:

* the operation tables the axiom checker and the inference tables read
  (``AlgebraConfig.tables``, computed from the carrier index); they must
  always agree;
* the join/meet branch tables exactly as stated in the source case lists,
  before the corrections documented in `lingtruth.discrepancies` (the
  quasi-kind join rule for grade pairs around the missing cross link
  genuinely disagrees, and the report records each such pair);
* the residuation reading "a <= b iff a -> b = top", which in the quasi
  kind has exactly one exceptional pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lattice import AlgebraConfig, LinguisticValue, canonical


@dataclass(frozen=True)
class CoverGraph:
    """Hasse cover edges of a carrier.  The order and the bounds of every
    pair are computed from them once, when the graph is built."""

    config: AlgebraConfig
    elements: tuple[LinguisticValue, ...]
    covers: frozenset[tuple[LinguisticValue, LinguisticValue]]

    def __post_init__(self):
        index = {e: k for k, e in enumerate(self.elements)}
        positions = range(len(self.elements))
        # up[k]: the positions of the elements at or above elements[k]
        up = [1 << k for k in positions]
        # highest lower end first: on a carrier listed bottom-up one pass
        # reaches the closure and the next one confirms it
        edges = sorted(((index[lower], index[upper]) for lower, upper in self.covers),
                       reverse=True)
        changed = True
        while changed:
            changed = False
            for lower, upper in edges:
                if up[upper] & ~up[lower]:
                    up[lower] |= up[upper]
                    changed = True
        down = [sum(1 << k for k in positions if up[k] >> j & 1) for j in positions]
        # distinct elements have distinct up-sets (and down-sets): the order
        # is antisymmetric
        by_up = {mask: k for k, mask in enumerate(up)}
        by_down = {mask: k for k, mask in enumerate(down)}
        fields = {
            "_index": index,
            "_up": up,
            "_lub": [[by_up.get(up[a] & up[b]) for b in positions] for a in positions],
            "_glb": [[by_down.get(down[a] & down[b]) for b in positions] for a in positions],
        }
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def leq(self, a: LinguisticValue, b: LinguisticValue) -> bool:
        return bool(self._up[self._index[a]] >> self._index[b] & 1)

    def lub(self, a: LinguisticValue, b: LinguisticValue) -> LinguisticValue | None:
        """Least common upper bound, or None if there is none."""
        k = self._lub[self._index[a]][self._index[b]]
        return None if k is None else self.elements[k]

    def glb(self, a: LinguisticValue, b: LinguisticValue) -> LinguisticValue | None:
        """Greatest common lower bound, or None if there is none."""
        k = self._glb[self._index[a]][self._index[b]]
        return None if k is None else self.elements[k]


def build_covers(config: AlgebraConfig) -> CoverGraph:
    """Cover edges: the two hedge chains plus one cross link per false grade
    (minus the configured non-comparable one)."""
    n = config.n
    covers = set()
    for g in range(n, 0, -1):
        covers.add((LinguisticValue.false(g), LinguisticValue.false(g - 1)))
    for g in range(n):
        covers.add((LinguisticValue.true(g), LinguisticValue.true(g + 1)))
    for k in range(n + 1):
        if k == config.noncomparable:
            continue
        covers.add((LinguisticValue.false(k), LinguisticValue.true(n - k)))
    return CoverGraph(config, config.values(), frozenset(covers))


@dataclass
class LatticeReport:
    """Pairs of the carrier lacking a unique LUB or GLB (should be none)."""

    config: AlgebraConfig
    missing_joins: list[tuple[LinguisticValue, LinguisticValue]] = field(default_factory=list)
    missing_meets: list[tuple[LinguisticValue, LinguisticValue]] = field(default_factory=list)

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
    report = LatticeReport(graph.config)
    values = graph.elements
    for a, lubs, glbs in zip(values, graph._lub, graph._glb):
        for b, lub, glb in zip(values, lubs, glbs):
            if lub is None:
                report.missing_joins.append((a, b))
            if glb is None:
                report.missing_meets.append((a, b))
    return report


# ----------------------------------------------------------------------
# Cross-checking the closed forms against the oracle


@dataclass(frozen=True)
class OpMismatch:
    op: str
    a: LinguisticValue
    b: LinguisticValue
    got: LinguisticValue | bool | None
    expected: LinguisticValue | bool | None
    rule: str | None = None

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


@dataclass
class DiscrepancyReport:
    """Implemented-vs-oracle and stated-vs-oracle comparison for one algebra."""

    config: AlgebraConfig
    implemented: list[OpMismatch] = field(default_factory=list)
    stated: list[OpMismatch] = field(default_factory=list)
    residuation_exceptions: list[tuple[LinguisticValue, LinguisticValue]] = field(
        default_factory=list
    )

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


def _stated_join(config: AlgebraConfig, a: LinguisticValue, b: LinguisticValue):
    """Mixed-polarity join exactly as the quasi-kind case list states it:
    the raised value v_(n-(i-1))T is used for every true grade k = n-i,
    regardless of the false grade."""
    if config.noncomparable is None or a.polarity is b.polarity:
        return config.join(a, b)
    t, f = (a, b) if a.is_true else (b, a)
    n, nc = config.n, config.noncomparable
    k, l = t.grade, f.grade
    if n <= k + l:
        if k == n - nc:
            return LinguisticValue.true(n - (nc - 1))
        return LinguisticValue.true(k)
    if l == nc:
        return LinguisticValue.true(n - (nc - 1))
    return LinguisticValue.true(n - l)


def _stated_meet(config: AlgebraConfig, a: LinguisticValue, b: LinguisticValue):
    """Mixed-polarity meet as stated (the case list scopes its special
    branches correctly, so this coincides with the implemented meet)."""
    if config.noncomparable is None or a.polarity is b.polarity:
        return config.meet(a, b)
    t, f = (a, b) if a.is_true else (b, a)
    n, nc = config.n, config.noncomparable
    k, l = t.grade, f.grade
    if n <= k + l:
        if k == n - nc and l == nc:
            return LinguisticValue.false(nc + 1)
        return LinguisticValue.false(l)
    if k == n - nc:
        return LinguisticValue.false(nc + 1)
    return LinguisticValue.false(n - k)


def cross_check_ops(graph: CoverGraph) -> DiscrepancyReport:
    """Exhaustively compare the join/meet/leq tables of the graph's config
    with the oracle."""
    config = graph.config
    report = DiscrepancyReport(config)
    tables = config.tables
    values = tables.values
    for i, a in enumerate(values):
        for j, b in enumerate(values):
            oracle_join = graph.lub(a, b)
            oracle_meet = graph.glb(a, b)
            oracle_leq = graph.leq(a, b)

            got_join = values[tables.join[i][j]]
            if got_join != oracle_join:
                report.implemented.append(OpMismatch("join", a, b, got_join, oracle_join))
            got_meet = values[tables.meet[i][j]]
            if got_meet != oracle_meet:
                report.implemented.append(OpMismatch("meet", a, b, got_meet, oracle_meet))
            got_leq = tables.leq[i][j]
            if got_leq != oracle_leq:
                report.implemented.append(OpMismatch("leq", a, b, got_leq, oracle_leq))

            stated_join = _stated_join(config, a, b)
            if stated_join != oracle_join:
                report.stated.append(
                    OpMismatch("join", a, b, stated_join, oracle_join, rule="2.4-item3")
                )
            stated_meet = _stated_meet(config, a, b)
            if stated_meet != oracle_meet:
                report.stated.append(
                    OpMismatch("meet", a, b, stated_meet, oracle_meet, rule="2.4-item7/8")
                )

            if (tables.implies[i][j] == tables.top) != oracle_leq:
                report.residuation_exceptions.append((a, b))
    return report


# ----------------------------------------------------------------------
# Exports


def to_dot(graph: CoverGraph) -> str:
    """Graphviz digraph of the cover edges, directed lower -> upper."""
    config = graph.config
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for value in graph.elements:
        name = canonical(value)
        if config.labels is not None:
            lines.append(f'  "{name}" [label="{config.label(value)}"];')
        else:
            lines.append(f'  "{name}";')
    for lower, upper in sorted(graph.covers, key=lambda e: (canonical(e[0]), canonical(e[1]))):
        lines.append(f'  "{canonical(lower)}" -> "{canonical(upper)}";')
    lines.append("}")
    return "\n".join(lines)


def to_json_dict(graph: CoverGraph) -> dict:
    return {
        "kind": graph.config.kind,
        "n": graph.config.n,
        "noncomparable": graph.config.noncomparable,
        "nodes": [canonical(v) for v in graph.elements],
        "edges": sorted(
            [canonical(lower), canonical(upper)] for lower, upper in graph.covers
        ),
    }
