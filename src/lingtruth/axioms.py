"""Exhaustive checker for the implication axioms I1-I7 and lattice laws.

All checks enumerate the whole carrier (pairs or triples as the axiom
demands) in the deterministic order of ``AlgebraConfig.values()``, so two
runs over the same algebra produce identical reports, including the order
of counterexamples.  They read the config's operation rows
(``AlgebraConfig.tables``, the rows `lingtruth.inference` folds), built
once per config from the carrier index and certified pair by pair by
`lingtruth.oracle`, so every operation is a row lookup on carrier indices;
the carrier size N comes from the rows, top is index N - 1 and x <= y is
x v y = y.  Row lookups are hoisted out of the inner loop, and only the
violations kept as witnesses are decoded into ``LinguisticValue``s.
Witness lists in reports are capped (10 by default) but the total
violation count is always exact; pass ``max_witnesses=None`` to keep every
witness.  A bad cap or axiom raises ``DomainError`` first.

The cubic families (I1, I6, I7 and associativity) screen whole rows
before they walk cells, and so do I3, commutativity and absorption.
``lattice._rows`` holds a table's columns and maps so that composing two
rows is one call in C, whatever type ``tables`` built them in, and
``lattice._held`` keeps what it holds once per config and table.  I1 and
associativity compare the whole z row of a pair (x, y) at once, and the
pair checks the whole y row of an x; I6 and I7 compare the whole y column
of a pair (x, z), walk columns, and sort each x's violations by (y, z).
Only a row or column that differs is walked cell by cell, so counts and
witness order are those of the plain loops.  Once the kept witnesses are
collected (I6 and I7 test that at the start of each x, whose violations are
sorted), a row or column of a cubic family that differs is only counted, as
the number of cells where its two sides differ, and builds no witness
tuples.

The axioms, for all x, y, z:

    I1  x -> (y -> z) = y -> (x -> z)
    I2  x -> x = top
    I3  x -> y = y' -> x'
    I4  x -> y = y -> x = top  implies  x = y   (checked as an implication)
    I5  (x -> y) -> y = (y -> x) -> x
    I6  (x v y) -> z = (x -> z) ^ (y -> z)
    I7  (x ^ y) -> z = (x -> z) v (y -> z)

An algebra satisfying I1-I7 classifies as LIA, one satisfying I1-I5 but
failing I6 or I7 as QLIA, anything else as NOT_QLIA.
"""

from __future__ import annotations

import enum
import operator
from collections import namedtuple

from .errors import DomainError, require
from .lattice import AlgebraConfig, LinguisticValue, _held, canonical


class Axiom(enum.Enum):
    I1 = "I1"
    I2 = "I2"
    I3 = "I3"
    I4 = "I4"
    I5 = "I5"
    I6 = "I6"
    I7 = "I7"


class Classification(enum.Enum):
    LIA = "LIA"
    QLIA = "QLIA"
    NOT_QLIA = "NotQLIA"


class Witness(namedtuple("Witness", "x y z lhs rhs")):
    """One violating assignment with the two sides that should be equal;
    y and z are None where the check does not use them."""

    __slots__ = ()

    def to_dict(self) -> dict:
        entry = {"x": canonical(self.x)}
        if self.y is not None:
            entry["y"] = canonical(self.y)
        if self.z is not None:
            entry["z"] = canonical(self.z)
        entry["lhs"] = canonical(self.lhs)
        entry["rhs"] = canonical(self.rhs)
        return entry


class CheckResult(namedtuple("CheckResult", "name total_violations witnesses")):
    __slots__ = ()

    @property
    def holds(self) -> bool:
        return self.total_violations == 0

    def to_dict(self) -> dict:
        return {
            "axiom": self.name,
            "holds": self.holds,
            "total_violations": self.total_violations,
            "witnesses": [w.to_dict() for w in self.witnesses],
        }


def _collect(name, config, violations, max_witnesses, uncollected=0):
    """Report ``violations``, tuples (x, y, z, lhs, rhs) of carrier indices
    with y and z None where the check does not use them, and ``uncollected``
    more counted past the cap.  The count is exact; only the kept
    violations are decoded into witnesses."""
    kept = violations if max_witnesses is None else violations[:max_witnesses]
    decode = config._kernel.decode
    witnesses = [
        Witness._make(None if k is None else decode(k) for k in violation)
        for violation in kept
    ]
    return CheckResult(name, len(violations) + uncollected, witnesses)


def _tables(config, max_witnesses):
    """``config.tables``, once the cap is None or exactly an int >= 0 (as for a grade)."""
    if max_witnesses is not None and (type(max_witnesses) is not int or max_witnesses < 0):
        raise DomainError(f"max_witnesses must be an int >= 0 or None, got {max_witnesses!r}")
    return require(config, AlgebraConfig).tables


def check_axiom(
    config: AlgebraConfig, axiom: Axiom, max_witnesses: int | None = 10
) -> CheckResult:
    if not isinstance(axiom, Axiom):
        raise DomainError(f"not an axiom: {axiom!r}")
    neg, join, meet, imp = _tables(config, max_witnesses)
    carrier, top = range(len(neg)), len(neg) - 1  # top is the last carrier index
    cap = float("inf") if max_witnesses is None else max_witnesses
    bad, uncollected = [], 0

    if axiom is Axiom.I1:
        maps, _, _, compose = _held(config, imp)
        for x in carrier:
            for y in carrier:
                # the z row at once: imp[x] after imp[y] against imp[y] after imp[x]
                lhs, rhs = compose(imp[y], maps[x]), compose(imp[x], maps[y])
                if lhs == rhs:
                    continue
                if len(bad) >= cap:
                    uncollected += sum(map(operator.ne, lhs, rhs))
                else:
                    bad += [(x, y, z, l, r) for z, l, r in zip(carrier, lhs, rhs) if l != r]
    elif axiom is Axiom.I2:
        for x in carrier:
            lhs = imp[x][x]
            if lhs != top:
                bad.append((x, None, None, lhs, top))
    elif axiom is Axiom.I3:
        _, _, column_maps, compose = _held(config, imp)
        for x in carrier:
            # the y row at once: imp[x] against column neg[x] of imp read at neg
            lhs, rhs = imp[x], compose(neg, column_maps[neg[x]])
            if lhs != rhs:
                bad += [(x, y, None, l, r) for y, l, r in zip(carrier, lhs, rhs) if l != r]
    elif axiom is Axiom.I4:
        for x in carrier:
            for y in carrier:
                if x != y and imp[x][y] == top and imp[y][x] == top:
                    bad.append((x, y, None, imp[x][y], imp[y][x]))
    elif axiom is Axiom.I5:
        for x in carrier:
            for y in carrier:
                lhs = imp[imp[x][y]][y]
                rhs = imp[imp[y][x]][x]
                if lhs != rhs:
                    bad.append((x, y, None, lhs, rhs))
    else:  # I6: (x v y) -> z = (x -> z) ^ (y -> z); I7 swaps v and ^
        inner, outer = (join, meet) if axiom is Axiom.I6 else (meet, join)
        _, columns, column_maps, compose = _held(config, imp)  # columns[z][w] is imp[w][z]
        outer_maps = _held(config, outer).maps
        for x in carrier:
            imp_x, inner_x = imp[x], inner[x]
            full, found = len(bad) >= cap, []  # x's violations are sorted: cap per x
            for z in carrier:
                # the y column at once: imp[inner_x[y]][z] against outer[imp_x[z]][imp[y][z]]
                lhs = compose(inner_x, column_maps[z])
                rhs = compose(columns[z], outer_maps[imp_x[z]])
                if lhs == rhs:
                    continue
                if full:
                    uncollected += sum(map(operator.ne, lhs, rhs))
                else:
                    found += [(x, y, z, l, r) for y, l, r in zip(carrier, lhs, rhs) if l != r]
            found.sort()  # by (y, z), the order of a walk over y, then z
            bad += found

    return _collect(axiom.value, config, bad, max_witnesses, uncollected)


def check_all_axioms(
    config: AlgebraConfig, max_witnesses: int | None = 10
) -> dict[Axiom, CheckResult]:
    return {axiom: check_axiom(config, axiom, max_witnesses) for axiom in Axiom}


def check_lattice_laws(
    config: AlgebraConfig, max_witnesses: int | None = 10
) -> list[CheckResult]:
    """Idempotence, commutativity, associativity and absorption for v and ^."""
    _, join, meet, _ = _tables(config, max_witnesses)
    carrier = range(len(join))
    results = []

    for name, op in (("join", join), ("meet", meet)):
        bad = [(x, None, None, op[x][x], x) for x in carrier if op[x][x] != x]
        results.append(_collect(f"{name}-idempotent", config, bad, max_witnesses))

    for name, op in (("join", join), ("meet", meet)):
        columns = _held(config, op).columns  # the y row at once: op[x] against column x
        bad = [
            (x, y, None, l, r)
            for x in carrier if op[x] != columns[x]
            for y, l, r in zip(carrier, op[x], columns[x]) if l != r
        ]
        results.append(_collect(f"{name}-commutative", config, bad, max_witnesses))

    cap = float("inf") if max_witnesses is None else max_witnesses
    for name, op in (("join", join), ("meet", meet)):
        maps, _, _, compose = _held(config, op)
        bad, uncollected = [], 0
        for x in carrier:
            op_x = op[x]
            for y in carrier:
                # the z row at once: op[op_x[y]] against op[x] after op[y]
                lhs, rhs = op[op_x[y]], compose(op[y], maps[x])
                if lhs == rhs:
                    continue
                if len(bad) >= cap:
                    uncollected += sum(map(operator.ne, lhs, rhs))
                else:
                    bad += [(x, y, z, l, r) for z, l, r in zip(carrier, lhs, rhs) if l != r]
        results.append(_collect(f"{name}-associative", config, bad, max_witnesses, uncollected))

    for name, outer, inner in (("join", join, meet), ("meet", meet, join)):
        maps, _, _, compose = _held(config, outer)
        bad = []
        for x in carrier:
            lhs = compose(inner[x], maps[x])  # the y row at once: outer[x] after inner[x]
            if lhs.count(x) != len(lhs):
                bad += [(x, y, None, l, x) for y, l in zip(carrier, lhs) if l != x]
        results.append(_collect(f"{name}-absorption", config, bad, max_witnesses))

    return results


def check_involution(config: AlgebraConfig, max_witnesses: int | None = 10) -> CheckResult:
    """Negation is an involution and reverses the order."""
    neg, join, _, _ = _tables(config, max_witnesses)
    carrier = range(len(neg))
    bad = [(x, None, None, neg[neg[x]], x) for x in carrier if neg[neg[x]] != x]
    bad += [  # x <= y is x v y = y
        (x, y, None, neg[y], neg[x])
        for x in carrier
        for y in carrier
        if join[x][y] == y and join[neg[y]][neg[x]] != neg[x]
    ]
    return _collect("involution", config, bad, max_witnesses)


def classify(results: dict[Axiom, CheckResult]) -> Classification:
    """Classify an algebra from its ``check_all_axioms`` results."""
    if all(results[axiom].holds for axiom in Axiom):
        return Classification.LIA
    if all(results[axiom].holds for axiom in (Axiom.I1, Axiom.I2, Axiom.I3, Axiom.I4, Axiom.I5)):
        return Classification.QLIA
    return Classification.NOT_QLIA
