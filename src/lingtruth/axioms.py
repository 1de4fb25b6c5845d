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

Every equation check but I2, I4, idempotence and involution compares
whole rows: ``lattice._rows`` holds a table's columns and maps so that
composing two rows is one call in C, whatever type ``tables`` built them
in, and ``lattice._held`` keeps what it holds once per config and table.
Each such check states its two sides as a filtered generator that yields
only the rows whose sides differ, and hands it to ``_screen``, the one
place that walks them: associativity compares the z row of a pair
(x, y), I1, I6 and I7 the y column of a pair (x, z), and I3, I5,
commutativity and absorption the y row of an x.  I5 is checked as the
symmetry of twice, where twice[y][x] = (x -> y) -> y is column y of
``implies`` read at itself, so it screens as commutativity does.

On byte rows the cubic checks first compare whole slices, a few calls in
C each, and compose pairs only where a slice differs.  I1 compares, per x,
the z-major slice of all (y, z) and associativity the y-major one, so only
the x whose slices differ yield pairs.  Under a cap, I6 and I7 compare,
per z, the x-major slice of all (x, y), count each differing slice's
violations as the non-zero bytes of the two sides' XOR, and yield pairs
only for the z whose slices differ; uncapped, the walk counts every
violation itself, so they yield every pair.  Tuple rows yield every pair
as above, since slicing them costs more than it saves.  ``_screen`` walks
a row that differs cell by cell and sorts each x's violations, so counts
and witness order are those of the plain loops; once the kept witnesses
are collected (tested at the start of each x) it stops if the exact total
is already counted, as for I6 and I7 above, and otherwise only counts the
cells where the two sides differ, building no witness tuples.  Slices are
built and dropped one x or z at a time, so memory stays O(N^2).

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
from .lattice import AlgebraConfig, LinguisticValue, _columns, _held, canonical


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


def _screen(name, config, differing, max_witnesses, walks_z=False, total=None):
    """Report the rows ``differing`` yields, (x, r, lhs, rhs) with x
    ascending, each a row or column whose two sides differ.  Cell c of a
    row where they differ is the violation (x, r, c) if ``walks_z``, else
    (x, c, r), and each x's violations are sorted, which is the order of
    the plain loops.  The cap is tested at the start of each x: once the
    kept witnesses are collected, the walk stops if ``total``, the exact
    count of violations, is given, and otherwise only counts a row, as the
    number of cells where its two sides differ."""
    cap = float("inf") if max_witnesses is None else max_witnesses
    bad, found, uncollected, full, last = [], [], 0, False, None
    for x, r, lhs, rhs in differing:
        if x != last:
            bad += sorted(found)
            found, full, last = [], len(bad) >= cap, x
            if full and total is not None:
                break
        if full:
            uncollected += sum(map(operator.ne, lhs, rhs))
        elif walks_z:
            found += [(x, r, c, a, b) for c, a, b in zip(range(len(lhs)), lhs, rhs) if a != b]
        else:
            found += [(x, c, r, a, b) for c, a, b in zip(range(len(lhs)), lhs, rhs) if a != b]
    bad += sorted(found)
    if total is not None:
        uncollected = total - len(bad)
    return _collect(name, config, bad, max_witnesses, uncollected)


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
    if axiom is Axiom.I2:
        bad = [(x, None, None, imp[x][x], top) for x in carrier if imp[x][x] != top]
        return _collect(axiom.value, config, bad, max_witnesses)
    if axiom is Axiom.I4:
        bad = [(x, y, None, imp[x][y], imp[y][x]) for x in carrier for y in carrier
               if x != y and imp[x][y] == top and imp[y][x] == top]
        return _collect(axiom.value, config, bad, max_witnesses)

    maps, columns, column_maps, compose = _held(config, imp)  # columns[z][w] is imp[w][z]
    sliced, total = type(imp[0]) is bytes, None  # byte rows compare whole slices first
    if axiom is Axiom.I1:
        xs = carrier
        if sliced:  # the z-major slice of x: row z is the y column of (x, z) below
            flat = b"".join(columns)
            xs = [x for x in carrier
                  if flat.translate(maps[x]) != b"".join([columns[v] for v in imp[x]])]
        # the y column of (x, z): imp[x] after column z against column imp[x][z]
        differing = ((x, z, lhs, rhs) for x in xs for imp_x in [imp[x]] for z in carrier
                     for lhs in [compose(columns[z], maps[x])] for rhs in [columns[imp_x[z]]]
                     if lhs != rhs)
    elif axiom is Axiom.I3:  # the y row of x: imp[x] against column neg[x] of imp read at neg
        differing = ((x, None, imp[x], rhs) for x in carrier
                     for rhs in [compose(neg, column_maps[neg[x]])] if imp[x] != rhs)
    elif axiom is Axiom.I5:
        # (x -> y) -> y is twice[y][x], column y of imp read at itself, so I5
        # says twice is symmetric: the y row of x is column x against row x
        twice = [compose(columns[y], column_maps[y]) for y in carrier]
        twice_columns = _columns(twice)
        differing = ((x, None, twice_columns[x], twice[x]) for x in carrier
                     if twice_columns[x] != twice[x])
    else:  # I6: (x v y) -> z = (x -> z) ^ (y -> z); I7 swaps v and ^
        inner, outer = (join, meet) if axiom is Axiom.I6 else (meet, join)
        outer_maps = _held(config, outer).maps
        zs = carrier
        if sliced and max_witnesses is not None:
            # counted first, so that the walk can stop at the cap (uncapped, it
            # counts every violation itself): the x-major slice of z,
            # imp[inner[x][y]][z] against outer[imp[x][z]][imp[y][z]], has the
            # non-zero bytes of its two sides' XOR as its count
            flat, cells, counts = b"".join(inner), len(imp) ** 2, {}
            for z in carrier:
                column = columns[z]
                lhs = flat.translate(column_maps[z])
                rhs = b"".join([compose(column, outer_maps[v]) for v in column])
                if lhs != rhs:
                    xor = int.from_bytes(lhs, "big") ^ int.from_bytes(rhs, "big")
                    counts[z] = cells - xor.to_bytes(cells, "big").count(0)
            zs, total = [*counts], sum(counts.values())
        # the y column of (x, z): imp[inner[x][y]][z] against outer[imp[x][z]][imp[y][z]]
        differing = ((x, z, lhs, rhs) for x in carrier for imp_x, inner_x in [(imp[x], inner[x])]
                     for z in zs for lhs in [compose(inner_x, column_maps[z])]
                     for rhs in [compose(columns[z], outer_maps[imp_x[z]])] if lhs != rhs)
    return _screen(axiom.value, config, differing, max_witnesses, total=total)


def check_all_axioms(
    config: AlgebraConfig, max_witnesses: int | None = 10
) -> dict[Axiom, CheckResult]:
    return {axiom: check_axiom(config, axiom, max_witnesses) for axiom in Axiom}


def check_lattice_laws(
    config: AlgebraConfig, max_witnesses: int | None = 10
) -> list[CheckResult]:
    """Idempotence, commutativity, associativity and absorption for v and ^."""
    _, join, meet, _ = _tables(config, max_witnesses)
    size = len(join)
    carrier = range(size)
    results = []

    for name, op in (("join", join), ("meet", meet)):
        bad = [(x, None, None, op[x][x], x) for x in carrier if op[x][x] != x]
        results.append(_collect(f"{name}-idempotent", config, bad, max_witnesses))

    for name, op in (("join", join), ("meet", meet)):
        columns = _held(config, op).columns  # the y row of x: op[x] against column x
        differing = ((x, None, op[x], columns[x]) for x in carrier if op[x] != columns[x])
        results.append(_screen(f"{name}-commutative", config, differing, max_witnesses))

    for name, op in (("join", join), ("meet", meet)):
        maps, _, _, compose = _held(config, op)
        xs = carrier
        if type(op[0]) is bytes:  # the y-major slice of x: row y is the z row of (x, y) below
            flat = b"".join(op)
            xs = [x for x in carrier if b"".join([op[v] for v in op[x]]) != flat.translate(maps[x])]
        # the z row of (x, y): op[op[x][y]] against op[x] after op[y]
        differing = ((x, y, lhs, rhs) for x in xs for op_x in [op[x]] for y in carrier
                     for lhs in [op[op_x[y]]] for rhs in [compose(op[y], maps[x])] if lhs != rhs)
        results.append(_screen(f"{name}-associative", config, differing, max_witnesses,
                               walks_z=True))

    for name, outer, inner in (("join", join, meet), ("meet", meet, join)):
        maps, _, _, compose = _held(config, outer)
        # the y row of x: outer[x] after inner[x] against x
        differing = ((x, None, lhs, type(lhs)((x,)) * size) for x in carrier
                     for lhs in [compose(inner[x], maps[x])] if lhs.count(x) != size)
        results.append(_screen(f"{name}-absorption", config, differing, max_witnesses))

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
