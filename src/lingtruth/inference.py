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
MT(P, Q) = MP(!Q, !P).  It evaluates MP on (!Q, !P) and renames the MP
branch that fired to the MT case covering the same region, so its labels
still name the MT case lists, keyed on the polarity pair of (e(P), e(Q)).
Like the direct forms, both closed forms reject a value outside the carrier
with ``DomainError``.
The tables follow the case derivations rather than the published case
lists, which contain a few symbol and scope errors;
`lingtruth.discrepancies` documents each one.
Half-grade comparisons such as n <= i + j/2 are evaluated in exact integer
arithmetic (2n <= 2i + j).

``inference_table`` returns an ``InferenceTable``: one row per ordered
carrier pair, held as three columns, the two value columns as carrier
indices.  The direct column comes from one walk of the schema's formula
tree over the config's operation rows (``AlgebraConfig._rows``), each node a
vector over e(P) or e(Q) or the matrix of all rows; per entry of a vector
operand a connective maps one row or column of its operation over a block
or a strided column, O(N) steps in Python per table.  `lingtruth.formula`
states which operation each connective runs, for this walk and for
``evaluate``.  It never calls ``mp_direct``, ``mt_direct`` or the kernel
(the tests check it against them) and builds no ``AlgebraConfig.tables``.
The closed and branch columns come from the same dispatch table as
``mp_closed`` and ``mt_closed``: one entry per rule, kind and polarity pair,
holding the case function and the branch code of each case it reports (an
MT entry is the MP entry of (!Q, !P)).  They are filled row by row in
carrier order, one call per cell.  Neither value column is derived from the
other, so a row's ``agree`` compares two independent computations; they
must agree everywhere, and the test suite checks this exhaustively for
every verified algebra size.  An ``InferenceRow`` is built only when a row
is indexed or iterated; the CLI writers read the columns.  A rule that is
not a ``RuleId``, or a config that is not an ``AlgebraConfig``, raises
``DomainError``.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter
from typing import ClassVar

from .errors import DomainError, require
from .formula import Not, Valuation, _fold, _operations, evaluate, parse
from .lattice import LIA, QLIA, AlgebraConfig, LinguisticValue, canonical, lia, qlia

MP_SCHEMA = parse("(P & (P -> Q)) -> Q")
MT_SCHEMA = parse("(!Q & (P -> Q)) -> !P")


class RuleId(enum.Enum):
    MP = "MP"
    MT = "MT"


@dataclass(frozen=True)
class BranchLabel:
    """Which table and which case produced a closed-form value."""

    table: str
    case: str

    def __str__(self) -> str:
        return f"{self.table}:{self.case}"


@dataclass(frozen=True)
class InferenceRow:
    p: LinguisticValue
    q: LinguisticValue
    rule: RuleId
    direct: LinguisticValue
    closed: LinguisticValue
    branch: BranchLabel

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
# MP closed forms, plain kind (3.1 - 3.4; grades i = e(P), j = e(Q)).
# Every case function takes (n, nc, grade of P, grade of Q); the plain
# tables ignore the non-comparable index nc.


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


# ----------------------------------------------------------------------
# MP closed forms, quasi kind (4.2 - 4.4; grades k = e(P), l = e(Q),
# non-comparable index i).  Table 4.1 is table 3.1: two true values never
# meet the missing cross link.


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
_MP_TABLES = {
    (LIA, True, True): ("3.1", _mp_31),
    (LIA, False, False): ("3.2", _mp_32),
    (LIA, True, False): ("3.3", _mp_33),
    (LIA, False, True): ("3.4", _mp_34),
    (QLIA, True, True): ("4.1", _mp_31),
    (QLIA, False, False): ("4.2", _mp_42),
    (QLIA, True, False): ("4.3", _mp_43),
    (QLIA, False, True): ("4.4", _mp_44),
}

# ----------------------------------------------------------------------
# MT closed forms.  By I3, P -> Q = !Q -> !P in both kinds, so
# MT(P, Q) = (!Q & (!Q -> !P)) -> !P = MP(!Q, !P).  The MP case that fires
# on (!Q, !P) is renamed to the MT case covering the same region, which is
# what the branch field reports.  The renaming is spelled out because the
# MT case lists do not follow from the MP ones by swapping grade names.

_MT_BRANCHES = {
    tuple(mp.split(":", 1)): BranchLabel(*mt.split(":", 1))
    for mp, mt in (
        ("3.1:i<=j", "3.2:i>=j"),
        ("3.1:i>=j,2i<=n+j", "3.2:i<=j,2j<=n+i"),
        ("3.1:i>=j,2i>=n+j", "3.2:i<=j,2j>=n+i"),
        ("3.2:i>=j", "3.1:i<=j"),
        ("3.2:i<=j<=2i", "3.1:j<=i<=2j"),
        ("3.2:j>=2i", "3.1:i>2j"),
        ("3.3:i+j<=n", "3.3:i+j<=n"),
        ("3.3:i+j>=n,n<=i+j/2", "3.3:i+j>=n,n<=j+i/2"),
        ("3.3:i+j>=n,n>=i+j/2", "3.3:i+j>=n,n>=j+i/2"),
        ("3.4:i+j>=n", "3.4:i+j>=n"),
        ("3.4:i+j<=n,n<=2i+j", "3.4:i+j<=n,n<=2j+i"),
        ("3.4:i+j<=n,n>=2i+j", "3.4:i+j<=n,n>=2j+i"),
        ("4.1:k<=l", "4.2:k>=l"),
        ("4.1:k>=l,2k<=n+l", "4.2:k<l,2l<=n+k"),
        ("4.1:k>=l,2k>=n+l", "4.2:k<l,2l>=n+k"),
        ("4.2:k>=l", "4.1:k<=l"),
        ("4.2:k<l<=2k,l-k!=i", "4.1:l<=k<=2l,k-l!=i"),
        ("4.2:l>=2k,l-k!=i", "4.1:k>=2l,k-l!=i"),
        ("4.2:k<l,2k>l+1,l-k=i", "4.1:k>l,2l>k+1,k-l=i"),
        ("4.2:k<l,2k<=l+1,l-k=i", "4.1:k>l,2l<=k+1,k-l=i"),
        ("4.3:k+l<=n,k!=n-i", "4.3:k+l<=n,l!=n-i"),
        ("4.3:k+l<=n,k=n-i", "4.3:k+l<=n,l=n-i"),
        ("4.3:k+l>n,k!=n-i,n<=k+l/2", "4.3:k+l>n,l!=n-i,n<=l+k/2"),
        ("4.3:k+l>n,k!=n-i,n>=k+l/2", "4.3:k+l>n,l!=n-i,n>=l+k/2"),
        ("4.3:k+l=n+1,k=n-i", "4.3:k+l=n+1,l=n-i"),
        ("4.3:k+l>n+1,k=n-i,2(n-k)>=l-1", "4.3:k+l>n+1,l=n-i,2(n-l)>=k-1"),
        ("4.3:k+l>n,k=n-i,2(n-k)<=l-1", "4.3:k+l>n,l=n-i,2(n-l)<=k-1"),
        ("4.4:k+l>=n", "4.4:k+l>=n"),
        ("4.4:k+l<n,k+l!=n-i,n<=2k+l", "4.4:k+l<n,k+l!=n-i,n<=2l+k"),
        ("4.4:k+l<n,k+l!=n-i,n>=2k+l", "4.4:k+l<n,k+l!=n-i,n>=2l+k"),
        ("4.4:k+l=n-i,n<2k+l", "4.4:k+l=n-i,n<2l+k"),
        ("4.4:k+l=n-i,n>=2k+l,k<=1", "4.4:k+l=n-i,n>=2l+k,l<=1"),
        ("4.4:k+l=n-i,n>=2k+l,k>=2", "4.4:k+l=n-i,n>=2l+k,l>=2"),
    )
}


# Every branch label, one shared object each, numbered by its code: the 33
# MP cases, then the MT case each one is renamed to, in the same order.
_BRANCHES = (*(BranchLabel(*key) for key in _MT_BRANCHES), *_MT_BRANCHES.values())
_MT = len(_MT_BRANCHES)  # MT code = code of the MP case on (!Q, !P) + _MT


def _dispatch():
    """(rule, kind, e(P) is true, e(Q) is true) -> (case function, code of
    each case text it returns).  An MT entry is the MP entry of (!Q, !P),
    its codes offset by ``_MT``; MT callers pass the grade of Q first, since
    negation keeps the grade."""
    codes = {}  # table -> {case text: MP code}
    for code, (table, case) in enumerate(_MT_BRANCHES):
        codes.setdefault(table, {})[case] = code
    # table 4.1 runs table 3.1's case function, which reports 3.1's case
    # texts (grades named i, j); both tables list their cases in one order
    codes["4.1"] = dict(zip(codes["3.1"], codes["4.1"].values()))
    entries = {}
    for (kind, p_true, q_true), (table, case_fn) in _MP_TABLES.items():
        entries[RuleId.MP, kind, p_true, q_true] = case_fn, codes[table]
        entries[RuleId.MT, kind, not q_true, not p_true] = case_fn, {
            case: code + _MT for case, code in codes[table].items()}
    return entries


_CLOSED = _dispatch()


def _closed(config, rule, p, q) -> tuple[LinguisticValue, BranchLabel]:
    """The closed-form value of ``rule`` at (p, q) and the branch that fired."""
    require(config, AlgebraConfig).validate_value(p)
    config.validate_value(q)
    case_fn, codes = _CLOSED[rule, config.kind, p.is_true, q.is_true]
    i, j = (p.grade, q.grade) if rule is RuleId.MP else (q.grade, p.grade)
    grade, case = case_fn(config.n, config.noncomparable, i, j)
    return LinguisticValue.true(grade), _BRANCHES[codes[case]]


def mp_closed(config, p, q) -> tuple[LinguisticValue, BranchLabel]:
    return _closed(config, RuleId.MP, p, q)


def mt_closed(config, p, q) -> tuple[LinguisticValue, BranchLabel]:
    return _closed(config, RuleId.MT, p, q)


def _closed_columns(config: AlgebraConfig, rule: RuleId) -> tuple[list[int], list[int]]:
    """Carrier index of the closed-form value and branch code of every row,
    in carrier order."""
    n, nc, s = config.n, config.noncomparable, config.n + 1
    # carrier order: the false values from grade n down to 0, then the true
    # values from grade 0 up to n, for e(P) and, within each row, for e(Q)
    halves = ((False, range(n, -1, -1)), (True, range(s)))
    closed, branch = [], []
    for p_true, p_grades in halves:
        for i in p_grades:
            for q_true, q_grades in halves:
                case_fn, codes = _CLOSED[rule, config.kind, p_true, q_true]
                if rule is RuleId.MP:
                    cells = [case_fn(n, nc, i, j) for j in q_grades]
                else:  # MP on (!Q, !P): negation keeps the grades
                    cells = [case_fn(n, nc, j, i) for j in q_grades]
                closed += [s + grade for grade, _ in cells]  # v_gT, at index s + g
                branch += [codes[case] for _, case in cells]
    return closed, branch


@dataclass(frozen=True, eq=False)
class InferenceTable(Sequence):
    """The MP or MT table of one algebra, held as columns.

    Row k pairs e(P) = values[k // len(values)] with e(Q) = values[k %
    len(values)], in carrier enumeration order.  ``direct[k]`` and
    ``closed[k]`` are the carrier indices of the schema's value and of the
    closed-form value, and ``branch[k]`` the index in ``labels`` of the case
    that fired: an MP case below 33, the MT case renamed from MP case c at
    c + 33.  Indexing and iteration build each ``InferenceRow`` when it is
    asked for.
    """

    config: AlgebraConfig
    rule: RuleId
    direct: list[int]
    closed: list[int]
    branch: list[int]
    labels: ClassVar[tuple[BranchLabel, ...]] = _BRANCHES

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
        """The rows whose direct and closed-form values differ."""
        return [k for k, (d, c) in enumerate(zip(self.direct, self.closed)) if d != c]


def _shaped(size: int, kind, op):
    """``kind``'s operation (``op``: a negation vector or rows) on operands
    (axis, entries): a vector over e(P) or e(Q) (axis "P", "Q") or the matrix
    of all rows, entry p·size + q (axis None)."""
    if kind is Not:
        return lambda x: (x[0], list(map(op.__getitem__, x[1])))
    # the matrix cells of entry k of a vector: a block over P, a stride over Q
    cells = {"P": lambda k: slice(k * size, (k + 1) * size), "Q": lambda k: slice(k, None, size)}

    def apply(x, y):
        # entry v of the vector operand maps its cells by row v of op (vector on
        # the left) or column v (on the right); no schema combines two matrices
        (axis, vector), (other_axis, other), maps = (
            (x, y, op) if x[0] is not None else (y, x, list(zip(*op))))
        if other_axis == axis:  # both over one atom: a vector again
            return axis, [maps[v][w] for v, w in zip(vector, other)]
        out = [0] * (size * size)
        for k, v in enumerate(vector):
            at = cells[axis](k)  # size >= 2 cells, so the itemgetter returns a tuple
            out[at] = itemgetter(*(other if other_axis else other[at]))(maps[v])
        return None, out
    return apply


def inference_table(config: AlgebraConfig, rule: RuleId) -> InferenceTable:
    """One row per ordered (e(P), e(Q)) pair, in carrier enumeration order."""
    if type(rule) is not RuleId:
        raise DomainError(f"rule must be a RuleId, got {rule!r}")
    size = 2 * require(config, AlgebraConfig).n + 2
    # the schema folded as in ``evaluate``, over shaped operands: O(size)
    # maps of whole rows or columns of the operations, not one call per cell
    ops = {kind: _shaped(size, kind, op) for kind, op in _operations(config._rows()).items()}
    atoms = {name: (name, range(size)) for name in "PQ"}
    _, direct = _fold(MP_SCHEMA if rule is RuleId.MP else MT_SCHEMA, atoms.__getitem__, ops)
    return InferenceTable(config, rule, direct, *_closed_columns(config, rule))


# ----------------------------------------------------------------------
# The eight worked examples (five-grade chain; quasi kind uses index 2)


@dataclass(frozen=True)
class ExampleCheck:
    example: str
    kind: str
    p: LinguisticValue
    q: LinguisticValue
    expected_mp: LinguisticValue
    expected_mt: LinguisticValue
    mp: LinguisticValue
    mt: LinguisticValue
    mp_closed: LinguisticValue
    mt_closed: LinguisticValue

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


@dataclass
class ExampleReport:
    checks: list[ExampleCheck]

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
