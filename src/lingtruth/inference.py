"""Graded Modus Ponens and Modus Tollens over linguistic truth values.

The two rule schemas are evaluated as formulas:

    MP   (P & (P -> Q)) -> Q
    MT   (!Q & (P -> Q)) -> !P

Given e(P) and e(Q), ``mp_direct``/``mt_direct`` compute the schema value by
structural evaluation.  ``mp_closed`` looks the MP value up in closed-form
branch tables keyed on the polarity pair of (e(P), e(Q)):

    table 3.1 / 4.1   both true          table 3.3 / 4.3   true, false
    table 3.2 / 4.2   both false         table 3.4 / 4.4   false, true

(3.x for the plain kind, 4.x for the quasi kind).  ``mt_closed`` has no
tables of its own: axiom I3 (x -> y = y' -> x') holds in both kinds, so
MT(P, Q) = MP(!Q, !P).  It evaluates MP on (!Q, !P) and reports the MT case
named in the last column of the MP case line that fired (the one covering
the same region), so its labels name the MT case lists, keyed on (e(P), e(Q)).
Like the direct forms, both closed forms reject a value outside the carrier
with ``DomainError``.  The tables follow the case derivations rather than
the published case lists, which contain a few symbol and scope errors;
`lingtruth.discrepancies` documents each one.  Half-grade comparisons such
as n <= i + j/2 are evaluated in exact integer arithmetic (2n <= 2i + j).

``inference_table`` returns an ``InferenceTable``: one row per ordered
carrier pair, held as three columns, the two value columns as carrier
indices.  The direct column comes from one walk of the schema's formula
tree over the config's operation rows (``AlgebraConfig.tables``), each node a
vector over e(P) or e(Q) or the matrix of all rows; per entry of a vector
operand a connective maps one row or column of its operation over a block
or a strided column, O(N) steps in Python per table, each one
``compose`` of the maps that the rows' holder keeps once per config (as
for the axiom screens); the holder's values name the table's rows.  The
column types follow the rows' type, which ``tables`` picks: the direct
column is the ``bytearray`` the fold writes into on ``bytes`` rows and a
list on tuple rows.  `lingtruth.formula` states which
operation each connective runs, for this walk and for ``evaluate``.  It
never calls ``mp_direct``, ``mt_direct`` or the kernel (the tests check it
against them); the axiom checks reuse the same rows.
The closed and branch columns read the MP lines that ``mp_closed`` reads,
held as data, into compact columns (``InferenceTable``).  MP's are filled
by chambers, row ranges in which every run end is affine in the row grade,
O(chambers · cases) steps in Python (``_half_rows``); MT's are MP's
transposed by I3.  The direct column folds each rule's own schema, so
neither value column is derived from the other, and a row's ``agree``
compares two independent computations; they must agree everywhere, and the
test suite checks this exhaustively for every verified algebra size.  An
``InferenceRow`` is built only when a row is indexed or iterated; the CLI
writers read the columns.  A rule that is not a ``RuleId``, or a config
that is not an ``AlgebraConfig``, raises ``DomainError``.
"""

from __future__ import annotations

import enum
import functools
import itertools
import operator
import re
from collections import namedtuple
from collections.abc import Sequence

from .errors import DomainError, require
from .formula import Not, Valuation, _fold, _operations, evaluate, parse
from .lattice import LIA, QLIA, AlgebraConfig, LinguisticValue, canonical, lia, qlia

MP_SCHEMA = parse("(P & (P -> Q)) -> Q")
MT_SCHEMA = parse("(!Q & (P -> Q)) -> !P")


class RuleId(enum.Enum):
    MP = "MP"
    MT = "MT"


class BranchLabel(namedtuple("BranchLabel", "table case")):
    """Which table and which case produced a closed-form value."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.table}:{self.case}"


class InferenceRow(namedtuple("InferenceRow", "p q rule direct closed branch")):
    __slots__ = ()

    @property
    def agree(self) -> bool:
        return self.direct == self.closed

    def to_dict(self) -> dict:
        return {
            "p": canonical(self.p),
            "q": canonical(self.q),
            "rule": self.rule.value,
            "direct": canonical(self.direct),
            "closed": canonical(self.closed),
            "branch": str(self.branch),
            "agree": self.agree,
        }


# ----------------------------------------------------------------------
# Direct evaluation


def mp_direct(config: AlgebraConfig, p: LinguisticValue, q: LinguisticValue) -> LinguisticValue:
    return evaluate(MP_SCHEMA, Valuation(config, {"P": p, "Q": q}))


def mt_direct(config: AlgebraConfig, p: LinguisticValue, q: LinguisticValue) -> LinguisticValue:
    return evaluate(MT_SCHEMA, Valuation(config, {"P": p, "Q": q}))


# ----------------------------------------------------------------------
# Closed forms: the eight MP case tables as data, one line per case: table |
# guard | value | case text | MT case.  Grades i = e(P), j = e(Q) in the plain
# kind (3.x); k = e(P), l = e(Q) and non-comparable index i in the quasi kind
# (4.x; 4.1 is 3.1 renamed: two true values never meet the missing link).
# The first case whose guard holds fires.  A guard lists integer-linear
# terms, the conditions of the case derivations; they part from the case
# texts on some boundaries (4.3 reports its last case at l = 2i + 1).  A
# value is an integer-linear grade; 4.2's last case text, min(n, n - k + 1),
# takes two lines.  In 4.4's last three cases P -> Q is v_(n-i)T.  Compiled,
# a linear form is the coefficients of (first grade, second grade, n, index,
# 1) and a guard term a form and its relation to 0 (``_case_tables``).
# MT reads the same lines: by I3, P -> Q = !Q -> !P in both kinds, so
# MT(P, Q) = (!Q & (!Q -> !P)) -> !P = MP(!Q, !P).  The branch it reports is
# the MT case covering the region of the MP case that fired on (!Q, !P), the
# last column; it is spelled out because the MT case lists do not follow from
# the MP ones by swapping grade names.
_TABLES = """
3.1 | i<=j               | n        | i<=j                      | 3.2:i>=j
3.1 | 2i<=n+j            | n-i+j    | i>=j,2i<=n+j              | 3.2:i<=j,2j<=n+i
3.1 |                    | i        | i>=j,2i>=n+j              | 3.2:i<=j,2j>=n+i
3.2 | i>=j               | n        | i>=j                      | 3.1:i<=j
3.2 | j<=2i              | n-j+i    | i<=j<=2i                  | 3.1:j<=i<=2j
3.2 |                    | n-i      | j>=2i                     | 3.1:i>2j
3.3 | i+j<=n             | n        | i+j<=n                    | 3.3:i+j<=n
3.3 | 2n<=2i+j           | i        | i+j>=n,n<=i+j/2           | 3.3:i+j>=n,n<=j+i/2
3.3 |                    | 2n-i-j   | i+j>=n,n>=i+j/2           | 3.3:i+j>=n,n>=j+i/2
3.4 | i+j>=n             | n        | i+j>=n                    | 3.4:i+j>=n
3.4 | n<=2i+j            | i+j      | i+j<=n,n<=2i+j            | 3.4:i+j<=n,n<=2j+i
3.4 |                    | n-i      | i+j<=n,n>=2i+j            | 3.4:i+j<=n,n>=2j+i
4.1 | k<=l               | n        | k<=l                      | 4.2:k>=l
4.1 | 2k<=n+l            | n-k+l    | k>=l,2k<=n+l              | 4.2:k<l,2l<=n+k
4.1 |                    | k        | k>=l,2k>=n+l              | 4.2:k<l,2l>=n+k
4.2 | k>=l               | n        | k>=l                      | 4.1:k<=l
4.2 | l-k!=i, l<=2k      | n-l+k    | k<l<=2k,l-k!=i            | 4.1:l<=k<=2l,k-l!=i
4.2 | l-k!=i             | n-k      | l>=2k,l-k!=i              | 4.1:k>=2l,k-l!=i
4.2 | 2k>=l+2            | n-l+k    | k<l,2k>l+1,l-k=i          | 4.1:k>l,2l>k+1,k-l=i
4.2 | k<=0               | n        | k<l,2k<=l+1,l-k=i         | 4.1:k>l,2l<=k+1,k-l=i
4.2 |                    | n-k+1    | k<l,2k<=l+1,l-k=i         | 4.1:k>l,2l<=k+1,k-l=i
4.3 | k+l<=n, k!=n-i     | n        | k+l<=n,k!=n-i             | 4.3:k+l<=n,l!=n-i
4.3 | k+l<=n             | n        | k+l<=n,k=n-i              | 4.3:k+l<=n,l=n-i
4.3 | k!=n-i, 2n<=2k+l   | k        | k+l>n,k!=n-i,n<=k+l/2     | 4.3:k+l>n,l!=n-i,n<=l+k/2
4.3 | k!=n-i             | 2n-k-l   | k+l>n,k!=n-i,n>=k+l/2     | 4.3:k+l>n,l!=n-i,n>=l+k/2
4.3 | l<=2i, k+l==n+1    | n        | k+l=n+1,k=n-i             | 4.3:k+l=n+1,l=n-i
4.3 | l<=2i              | 2n-k-l+1 | k+l>n+1,k=n-i,2(n-k)>=l-1 | 4.3:k+l>n+1,l=n-i,2(n-l)>=k-1
4.3 |                    | k        | k+l>n,k=n-i,2(n-k)<=l-1   | 4.3:k+l>n,l=n-i,2(n-l)<=k-1
4.4 | k+l>=n             | n        | k+l>=n                    | 4.4:k+l>=n
4.4 | k+l!=n-i, n<=2k+l  | k+l      | k+l<n,k+l!=n-i,n<=2k+l    | 4.4:k+l<n,k+l!=n-i,n<=2l+k
4.4 | k+l!=n-i           | n-k      | k+l<n,k+l!=n-i,n>=2k+l    | 4.4:k+l<n,k+l!=n-i,n>=2l+k
4.4 | 2k+l>=n+1          | k+l      | k+l=n-i,n<2k+l            | 4.4:k+l=n-i,n<2l+k
4.4 | k<=1               | n        | k+l=n-i,n>=2k+l,k<=1      | 4.4:k+l=n-i,n>=2l+k,l<=1
4.4 |                    | n-k+1    | k+l=n-i,n>=2k+l,k>=2      | 4.4:k+l=n-i,n>=2l+k,l>=2
"""
_LINES = [[field.strip() for field in line.split("|")] for line in _TABLES.strip().splitlines()]

# Every branch label, one shared object each, numbered by its code: the 33
# distinct MP cases in line order, then the MT case of each, in the same order.
_CASES = dict.fromkeys((table, case, mt) for table, _, _, case, mt in _LINES)
_BRANCHES = (*(BranchLabel(table, case) for table, case, _ in _CASES),
             *(BranchLabel(*mt.split(":", 1)) for *_, mt in _CASES))
_MT = len(_CASES)  # MT code = code of the MP case on (!Q, !P) + _MT
_TO_MT = bytes(range(_MT, 256)) + bytes(range(_MT))  # code c -> c + _MT, as a translate table


_RELATIONS = {"<=": operator.le, ">=": operator.le, "==": operator.eq, "!=": operator.ne}


def _form(text, less, names):
    """The coefficients of an integer-linear form like "2n-k-l+1", less
    ``less``, over ``names`` (first grade, second grade, n, index) and 1."""
    form = [0] * 5
    for side, part in ((1, text), (-1, less)):
        for sign, digits, name in re.findall(r"([+-]?)(\d*)([a-z]?)", part):
            if digits or name:
                form[names.index(name) if name else 4] += side * int(sign + (digits or "1"))
    return form


@functools.cache
def _case_tables():
    """(kind, e(P) is true, e(Q) is true) -> [(guard terms, value form, code)],
    the MP lines, parsed on first use."""
    entries = {}
    for table, guard, value, case, _ in _LINES:
        kind, names = (LIA, "ijn") if table[0] == "3" else (QLIA, "klni")
        p_true, q_true = table[2] in "13", table[2] in "14"  # x.1 true, true ... x.4 false, true
        terms = [(_form(*((rhs, lhs) if rel == ">=" else (lhs, rhs)), names), _RELATIONS[rel])
                 for lhs, rel, rhs in re.findall(r"([^,<>=!]+)([<>=!]=)([^,]+)", guard)]
        entries.setdefault((kind, p_true, q_true), []).append(
            (terms, _form(value, "", names), _BRANCHES.index((table, case))))
    return entries


def _case(cases, u, w, n, nc) -> tuple[int, int]:
    """The grade and branch code of the first of ``cases`` whose guard holds."""
    for terms, (a, b, c, d, e), code in cases:
        for (ta, tb, tc, td, te), relation in terms:
            if not relation(ta * u + tb * w + tc * n + td * nc + te, 0):
                break
        else:
            return a * u + b * w + c * n + d * nc + e, code


def _closed(config, rule, p, q) -> tuple[LinguisticValue, BranchLabel]:
    """The closed-form value of ``rule`` at (p, q) and the branch that fired."""
    require(config, AlgebraConfig).validate_value(p)
    config.validate_value(q)
    mt = rule is RuleId.MT  # MT is MP on (!Q, !P), and negation keeps the grades
    u, w = (q, p) if mt else (p, q)
    grade, code = _case(_case_tables()[config.kind, u.is_true != mt, w.is_true != mt],
                        u.grade, w.grade, config.n, config.noncomparable or 0)
    return LinguisticValue.true(grade), _BRANCHES[code + mt * _MT]


def mp_closed(config, p, q) -> tuple[LinguisticValue, BranchLabel]:
    return _closed(config, RuleId.MP, p, q)


def mt_closed(config, p, q) -> tuple[LinguisticValue, BranchLabel]:
    return _closed(config, RuleId.MT, p, q)


def _half_rows(cases, ramp, n, nc, p_true, q_true):
    """The closed and the branch pieces of each row of one row half, a tuple
    per row.  Row t holds P's grade t (n - t if false), column c Q's grade c
    (n - c), so a guard term is a·c + g·t + h against 0, a = 0 or ±1 on MP
    lines.  A term with a column flips at cuts, columns σ·t + κ where a
    segment starts; one without, at a break, a row next to its root.  A
    chamber is a range of rows without a break whose inner cuts keep their
    order: it ends where neighbouring cuts (or a cut and an edge) meet or
    cross, or where a cut comes in.  Its cases are read at its first row;
    each run end is a cut, affine in t, so each run is one slice of the ramp
    (or a repeated index) and one repeated code a row, made by C ``map``s."""
    def bind(form):  # (coefficient of c, of t, the rest)
        fu, fw, fn, fi, f1 = form
        return (fw if q_true else -fw, fu if p_true else -fu,
                fn * n + fi * nc + f1 + (0 if p_true else fu * n) + (0 if q_true else fw * n))

    lines, cuts, breaks = [], set(), {n + 1}
    for terms, value, code in cases:
        bound = [(*bind(form), relation) for form, relation in terms]
        for a, g, h, relation in bound:
            if not a:
                breaks.update((-h // g, -h // g + 1) if g else ())
            elif relation is operator.le:  # c <= -(g·t + h), or c >= g·t + h for a = -1
                cuts.add((-g, 1 - h) if a > 0 else (g, h))
            else:  # the point c = -a·(g·t + h), and the column after it
                cuts.update(((-a * g, -a * h), (-a * g, 1 - a * h)))
        a, g, h = bind(value)
        lines.append((bound, (a, g, h + n + 1), bytes((code,))))
    breaks = sorted(t for t in breaks if 0 < t <= n + 1)
    count, repeat, chambers, t = itertools.count, itertools.repeat, [], 0
    while t <= n:
        end, points = next(b for b in breaks if b > t), [(0, 0), (n + 1, 0)]
        for slope, start in cuts:
            x = slope * t + start
            if 0 < x <= n or x == (0 if slope > 0 else n + 1) and slope:  # in, or leaving an edge
                points.append((x, slope))
            elif slope and (x > 0) == (slope < 0):  # outside, coming in
                end = min(end, t + (x - n - 1 if x > 0 else -x) // abs(slope) + 1)
        points.sort()  # cuts tied at row t part at t + 1 in this order
        for (x, s), (y, r) in zip(points, points[1:]):
            if s > r:  # they meet (an empty segment, still affine) at the last row, or cross
                end = min(end, t + (y - x) // (s - r) + 1)
        runs, m = [], end - t
        for (lo, dlo), (hi, dhi) in zip(points, points[1:]):
            at, c = (t, lo) if hi > lo else (t + 1, lo + dlo)  # a tied segment opens at t + 1
            if at == end:
                continue
            for line in lines:
                for a, g, h, relation in line[0]:
                    if not relation(a * c + g * at + h, 0):
                        break
                else:
                    break
            if runs and runs[-1][0] is line:
                runs[-1][3:] = hi, dhi
            else:
                runs.append([line, lo, dlo, hi, dhi])
        chambers.append((t, m, runs))
        t = end

    def pieces(chamber):  # the closed pieces of each row of one chamber
        t, m, runs = chamber
        cells = []
        for (_, (a, g, h), _), lo, dlo, hi, dhi in runs:
            b = g * t + h  # index a·c + b at column c
            if a:
                starts, stops = count(a * lo + b, a * dlo + g), count(a * hi + b, a * dhi + g)
            else:  # one index, repeated
                starts, stops = count(b, g), count(b + 1, g)
            run = map(ramp.__getitem__, map(slice, starts, stops, repeat(a or 1, m)))
            cells.append(run if a else map(operator.mul, run, count(hi - lo, dhi - dlo)))
        return zip(*cells)

    def codes(chamber):
        t, m, runs = chamber
        return zip(*[map(operator.mul, repeat(code, m), count(hi - lo, dhi - dlo))
                     for (_, _, code), lo, dlo, hi, dhi in runs])

    # each chamber's maps are made when the join reaches it: made all at once
    # they held over a thousand tracked objects, a garbage collection a table
    flat = itertools.chain.from_iterable
    return flat(map(pieces, chambers)), flat(map(codes, chambers))


def _closed_columns(config: AlgebraConfig) -> tuple[bytearray | list, bytearray]:
    """Carrier index of the MP closed-form value and branch code of every
    row, in carrier order, filled by chambers.  The codes are below 256, so
    ``branch`` is a ``bytearray``; so is ``closed`` while ``config.tables``
    holds ``bytes`` rows, and a list otherwise."""
    n, nc, flat = config.n, config.noncomparable or 0, itertools.chain.from_iterable
    seq = type(config.tables.negate)  # bytes while every carrier index fits in one
    ramp = seq(range(2 * n + 2))
    # carrier order: false grades n down to 0, then true grades 0 up to n, for
    # e(P) and, within a row, for e(Q); a row is its false half's pieces, then
    # its true half's
    halves = [_half_rows(_case_tables()[config.kind, p_true, q_true], ramp, n, nc, p_true, q_true)
              for p_true in (False, True) for q_true in (False, True)]
    closed, branch = [flat(flat(flat([zip(halves[k][j], halves[k + 1][j]) for k in (0, 2)])))
                      for j in (0, 1)]
    return bytearray().join(closed) if seq is bytes else [*flat(closed)], bytearray().join(branch)


class InferenceTable(Sequence):
    """The MP or MT table of one algebra, held as columns.

    Row k pairs e(P) = values[k // len(values)] with e(Q) = values[k %
    len(values)], in carrier order.  ``direct[k]`` is the carrier index of
    the schema's value; ``closed[k]``, of the closed-form value, and
    ``branch[k]``, the index in ``labels`` of the case that fired (MP case c
    at c, its MT renaming at c + 33), are filled from the case tables.  The
    columns are held compactly: up to 256 carrier elements all three are
    ``bytearray``s; above that ``direct`` and ``closed`` are lists and
    ``branch`` stays a ``bytearray`` (every code is below 66).  Indexing
    and iteration build each ``InferenceRow`` on demand.  Its length is its
    row count, so it is not a tuple; two tables are equal only when they are
    the same object.
    """

    __slots__ = ("config", "rule", "direct", "closed", "branch")
    labels = _BRANCHES

    def __init__(self, config: AlgebraConfig, rule: RuleId, direct: Sequence[int],
                 closed: Sequence[int], branch: Sequence[int]):
        self.config, self.rule = config, rule
        self.direct, self.closed, self.branch = direct, closed, branch

    @property
    def values(self) -> tuple[LinguisticValue, ...]:
        return self.config.tables.values

    def __len__(self) -> int:
        return len(self.direct)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        k = range(len(self))[k]  # a negative k counts from the end; IndexError past it
        decode = self.config._kernel.decode
        p, q = divmod(k, 2 * self.config.n + 2)
        return InferenceRow(decode(p), decode(q), self.rule, decode(self.direct[k]),
                            decode(self.closed[k]), self.labels[self.branch[k]])

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def disagreements(self) -> list[int]:
        """The rows whose direct and closed-form values differ: none after one
        whole-column compare, as on every correct table, else by a walk."""
        if self.direct == self.closed:
            return []
        unequal = map(operator.ne, self.direct, self.closed)
        return list(itertools.compress(range(len(self)), unequal))


def _shaped(rows, kind, op):
    """``kind``'s operation (``op``: a negation vector or a table of the
    holder ``rows``, ``AlgebraConfig.tables``) on operands (axis, entries):
    a vector over e(P) or e(Q) (axis "P", "Q") or the matrix of all rows,
    entry p·size + q (axis None).

    A binary operation maps the cells of each entry of its vector operand
    through one row or column of ``op``, one ``compose`` of the maps
    ``rows.held(op)`` keeps, once per holder; the matrix is a
    ``bytearray`` while the rows are ``bytes``, a list otherwise.  No node of
    MP or MT combines two vectors over one atom, or two matrices, so a binary
    node always yields the matrix."""
    if kind is Not:
        return lambda x: (x[0], list(map(op.__getitem__, x[1])))
    # the matrix cells of entry k of a vector: a block over P, a stride over Q
    size = len(op)
    cells = {"P": lambda k: slice(k * size, (k + 1) * size), "Q": lambda k: slice(k, None, size)}

    def apply(x, y):
        # entry v of the vector operand maps its cells by row v of op (vector on
        # the left) or column v (on the right)
        left = x[0] is not None
        (axis, vector), (other_axis, other) = (x, y) if left else (y, x)
        maps, _, column_maps, compose = rows.held(op)
        by = maps if left else column_maps
        row_type = type(op[0])  # cells to compose have the rows' type
        other = row_type(other)
        out = bytearray(size * size) if row_type is bytes else [0] * (size * size)
        for k, v in enumerate(vector):
            at = cells[axis](k)
            out[at] = compose(other if other_axis else other[at], by[v])
        return None, out
    return apply


def inference_table(config: AlgebraConfig, rule: RuleId) -> InferenceTable:
    """One row per ordered (e(P), e(Q)) pair, in carrier enumeration order."""
    if type(rule) is not RuleId:
        raise DomainError(f"rule must be a RuleId, got {rule!r}")
    size = 2 * require(config, AlgebraConfig).n + 2
    # the schema folded as in ``evaluate``, over shaped operands: O(size)
    # maps of whole rows or columns of the operations, not one call per cell
    rows = config.tables
    ops = {kind: _shaped(rows, kind, op) for kind, op in _operations(rows).items()}
    atoms = {name: (name, range(size)) for name in "PQ"}
    _, direct = _fold(MP_SCHEMA if rule is RuleId.MP else MT_SCHEMA, atoms.__getitem__, ops)
    closed, branch = _closed_columns(config)
    if rule is RuleId.MT:  # MT(P, Q) = MP(!Q, !P) by I3, and !x is carrier index size - 1 - x
        mp, codes, last = closed, branch.translate(_TO_MT), size * size - 1
        closed, branch = mp[:], codes[:]
        for p in range(size):  # MT's row p is MP's column !p, read from the bottom up
            closed[p * size:p * size + size] = mp[last - p::-size]
            branch[p * size:p * size + size] = codes[last - p::-size]
    return InferenceTable(config, rule, direct, closed, branch)


# ----------------------------------------------------------------------
# The eight worked examples (five-grade chain; quasi kind uses index 2)


class ExampleCheck(namedtuple("ExampleCheck", "example kind p q expected_mp expected_mt "
                                             "mp mt mp_closed mt_closed")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return (
            self.mp == self.expected_mp
            and self.mt == self.expected_mt
            and self.mp_closed == self.expected_mp
            and self.mt_closed == self.expected_mt
        )

    def to_dict(self) -> dict:
        return {
            "example": self.example,
            "kind": self.kind,
            "p": canonical(self.p),
            "q": canonical(self.q),
            "expected_mp": canonical(self.expected_mp),
            "expected_mt": canonical(self.expected_mt),
            "mp": canonical(self.mp),
            "mt": canonical(self.mt),
            "passed": self.passed,
        }


class ExampleReport(namedtuple("ExampleReport", "checks")):
    __slots__ = ()

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dicts(self) -> list[dict]:
        return [c.to_dict() for c in self.checks]


_EXAMPLE_ROWS = (
    ("3.1", "LIA", "v3T", "v2T", "v3T", "v3T"),
    ("3.2", "LIA", "v2F", "v4F", "v2T", "v4T"),
    ("3.3", "LIA", "v2T", "v4F", "v2T", "v4T"),
    ("3.4", "LIA", "v0F", "v2T", "v4T", "v2T"),
    ("4.1", "QLIA", "v3T", "v1T", "v3T", "v4T"),
    ("4.2", "QLIA", "v1F", "v2F", "v3T", "v3T"),
    ("4.3", "QLIA", "v2T", "v3F", "v4T", "v3T"),
    ("4.4", "QLIA", "v0F", "v3T", "v4T", "v3T"),
)


def verify_examples() -> ExampleReport:
    """Recompute the eight reference inferences and compare index-exactly."""
    plain = lia(4)
    quasi = qlia(4, 2)
    checks = []
    for name, kind, p_text, q_text, mp_text, mt_text in _EXAMPLE_ROWS:
        config = plain if kind == "LIA" else quasi
        p = config.parse_value(p_text)
        q = config.parse_value(q_text)
        checks.append(
            ExampleCheck(
                example=name,
                kind=kind,
                p=p,
                q=q,
                expected_mp=config.parse_value(mp_text),
                expected_mt=config.parse_value(mt_text),
                mp=mp_direct(config, p, q),
                mt=mt_direct(config, p, q),
                mp_closed=mp_closed(config, p, q)[0],
                mt_closed=mt_closed(config, p, q)[0],
            )
        )
    return ExampleReport(checks)
