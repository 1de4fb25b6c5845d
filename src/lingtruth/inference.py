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
``compose`` of ``lattice._rows`` (as for the axiom screens), held once per
config.  The column types follow the rows' type, which ``tables`` picks:
the direct column is the ``bytearray`` the fold writes into on ``bytes``
rows and a list on tuple rows.  `lingtruth.formula` states which
operation each connective runs, for this walk and for ``evaluate``.  It
never calls ``mp_direct``, ``mt_direct`` or the kernel (the tests check it
against them); the axiom checks reuse the same rows.
The closed and branch columns read the case tables that ``mp_closed`` and
``mt_closed`` read, held as data: within a row half each case covers a few
runs of the column, each filled as one slice or repeat, so a table takes
O(N · cases) steps in Python, into compact columns (``InferenceTable``).
Neither value column is derived from the other, so a row's ``agree``
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
from .lattice import LIA, QLIA, AlgebraConfig, LinguisticValue, _held, canonical, lia, qlia

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
    """(rule, kind, e(P) is true, e(Q) is true) -> [(guard terms, value form, code)],
    parsed on first use.  MT is MP on (!Q, !P), grade of Q first, with MT codes."""
    entries = {}
    for table, guard, value, case, _ in _LINES:
        mp = _BRANCHES.index((table, case))  # the MP label comes first
        kind, names = (LIA, "ijn") if table[0] == "3" else (QLIA, "klni")
        p_true, q_true = table[2] in "13", table[2] in "14"  # x.1 true, true ... x.4 false, true
        terms = [(_form(*((rhs, lhs) if rel == ">=" else (lhs, rhs)), names), _RELATIONS[rel])
                 for lhs, rel, rhs in re.findall(r"([^,<>=!]+)([<>=!]=)([^,]+)", guard)]
        for key, code in (((RuleId.MP, kind, p_true, q_true), mp),
                          ((RuleId.MT, kind, not q_true, not p_true), mp + _MT)):
            entries.setdefault(key, []).append((terms, _form(value, "", names), code))
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
    cases = _case_tables()[rule, config.kind, p.is_true, q.is_true]
    u, w = (p.grade, q.grade) if rule is RuleId.MP else (q.grade, p.grade)
    grade, code = _case(cases, u, w, config.n, config.noncomparable or 0)
    return LinguisticValue.true(grade), _BRANCHES[code]


def mp_closed(config, p, q) -> tuple[LinguisticValue, BranchLabel]:
    return _closed(config, RuleId.MP, p, q)


def mt_closed(config, p, q) -> tuple[LinguisticValue, BranchLabel]:
    return _closed(config, RuleId.MT, p, q)


def _mask(a, b, relation):
    """The t >= 0 with a·t + b ``relation`` 0 as a bit set, negative if unbounded."""
    if a == 0:
        return -1 if relation(b, 0) else 0
    if relation is operator.le:  # t <= -b/a, or t >= -b/a for a < 0
        return (1 << max(-b // a + 1, 0)) - 1 if a > 0 else -1 << max(-(b // a), 0)
    point = 1 << -b // a if b % a == 0 and -b // a >= 0 else 0
    return point if relation is operator.eq else ~point


def _closed_columns(config: AlgebraConfig, rule: RuleId) -> tuple[bytearray | list, bytearray]:
    """Carrier index of the closed-form value and branch code of every row,
    in carrier order.  A row half fixes the row grade, so a guard holds on an
    interval of the column position c with at most one hole or point, kept
    as a bit set.  A case fires on its guard's bits less those of the cases
    before it; each run of them is one slice of a ramp of carrier indices
    (or one repeated index, ``ramp[b:b + 1] * k``) and one repeated code.
    The codes are below 256, so ``branch`` is a ``bytearray``; so is
    ``closed`` while ``config.tables`` holds ``bytes`` rows, and a list
    otherwise."""
    n, s, nc = config.n, config.n + 1, config.noncomparable or 0
    t, g = (1, 0) if rule is RuleId.MP else (0, 1)  # argument positions: column, row grade

    def bind(form, rising, lift=0):  # (coefficient of c, of the row grade, the rest)
        a, rest = form[t], form[2] * n + form[3] * nc + form[4] + lift
        return (a, form[g], rest) if rising else (-a, form[g], rest + a * n)

    seq = type(config.tables.negate)  # bytes while every carrier index fits in one
    ramp = seq(range(2 * s))
    closed, branch = bytearray() if seq is bytes else [], bytearray()
    # carrier order: false grades n down to 0, then true grades 0 up to n, for
    # e(P) and, within a row, for e(Q), whose grade at column c is c or n - c
    for p_true, p_grades in ((False, range(n, -1, -1)), (True, range(s))):
        halves = [[([(*bind(form, q_true), relation) for form, relation in terms],
                    bind(value, q_true, s), bytes((code,)))
                   for terms, value, code in _case_tables()[rule, config.kind, p_true, q_true]]
                  for q_true in (False, True)]
        for row in p_grades:
            for cases in halves:
                free, runs = (2 << n) - 1, []
                for terms, (a, ga, b), code in cases:
                    bits = free
                    for ta, tg, tb, relation in terms:
                        bits &= _mask(ta, tg * row + tb, relation)
                    free ^= bits
                    while bits:  # the lowest run lo..hi: index a·c + b at each c in it
                        lo = (bits & -bits).bit_length() - 1
                        high = (bits + (1 << lo)) & ~bits  # bit hi + 1
                        bits &= -high
                        runs.append((lo, high.bit_length() - 2, a, ga * row + b, code))
                for lo, hi, a, b, code in sorted(runs):
                    k = hi - lo + 1
                    closed += ramp[a * lo + b:a * hi + a + b:a] if a else ramp[b:b + 1] * k
                    branch += code * k
    return closed, branch


class InferenceTable(Sequence):
    """The MP or MT table of one algebra, held as columns.

    Row k pairs e(P) = values[k // len(values)] with e(Q) = values[k %
    len(values)], in carrier order.  ``direct[k]`` is the carrier index of
    the schema's value; ``closed[k]``, of the closed-form value, and
    ``branch[k]``, the index in ``labels`` of the case that fired (MP case c
    at c, its MT renaming at c + 33), are filled by runs from the case
    tables.  The columns are held compactly: up to 256 carrier elements all
    three are ``bytearray``s; above that ``direct`` and ``closed`` are lists
    and ``branch`` stays a ``bytearray`` (every code is below 66).  Indexing
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
        return self.config.values()

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


def _shaped(config: AlgebraConfig, kind, op):
    """``kind``'s operation (``op``: a negation vector or a table of
    ``config.tables``) on operands (axis, entries): a vector over e(P) or
    e(Q) (axis "P", "Q") or the matrix of all rows, entry p·size + q (axis
    None).

    A binary operation maps the cells of each entry of its vector operand
    through one row or column of ``op``, one ``compose`` of ``lattice._rows``
    each, held once per config (``lattice._held``); the matrix is a
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
        maps, _, column_maps, compose = _held(config, op)
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
    ops = {kind: _shaped(config, kind, op) for kind, op in _operations(config.tables).items()}
    atoms = {name: (name, range(size)) for name in "PQ"}
    _, direct = _fold(MP_SCHEMA if rule is RuleId.MP else MT_SCHEMA, atoms.__getitem__, ops)
    return InferenceTable(config, rule, direct, *_closed_columns(config, rule))


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
