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
carrier pair, held as three columns.  The direct column holds carrier
indices from one walk of the schema's formula tree over the config's integer
operation tables (``AlgebraConfig.tables``), each node a column with one
entry per row, so it never calls ``mp_direct`` or ``mt_direct``; the test
suite checks it against them.  The closed grade and branch columns come from
the same case functions as ``mp_closed``, called once per cell of each
polarity block's (n+1) x (n+1) grade grid; MT reads the MP block of
(!Q, !P) transposed.  Neither column is derived from the other, so a row's
``agree`` compares two independent computations; they must agree
everywhere, and the test suite checks this exhaustively for every verified
algebra size.  An ``InferenceRow`` is built only when a row is indexed or
iterated; the CLI writers read the columns.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from typing import ClassVar

from .formula import And, Implies, Not, Or, Valuation, _fold, evaluate, parse
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

_IJ_TO_KL = str.maketrans("ij", "kl")


def _mp_code(table: str, case: str) -> int:
    """Index in ``_BRANCHES`` of the MP case that ``table``'s case function
    reports as ``case``."""
    if table == "4.1":
        case = case.translate(_IJ_TO_KL)  # table 3.1's cases in the quasi grade names
    return _MP_CODES[table, case]


def _mp_case(config, p_true, q_true, i, j) -> tuple[int, int]:
    """MP grade for e(P) of grade i and e(Q) of grade j with the given
    polarities, with the code of the case that produced it."""
    table, case_fn = _MP_TABLES[config.kind, p_true, q_true]
    grade, case = case_fn(config.n, config.noncomparable, i, j)
    return grade, _mp_code(table, case)


def _mp_block(config, p_true, q_true, offset=0):
    """``_mp_case`` over one polarity block's whole grade grid, as two flat
    lists: entry i·(n+1) + j is the grade and the case code for e(P) of
    grade i and e(Q) of grade j.  ``offset`` is added to every code (``_MT``
    gives the MT labels of the same cases)."""
    table, case_fn = _MP_TABLES[config.kind, p_true, q_true]
    n, nc = config.n, config.noncomparable
    grid = range(n + 1)
    code = {}  # one code lookup per distinct case, not per cell
    grades, codes = [], []
    for i in grid:
        # one grid row of (grade, case) pairs at a time, freed before the
        # next: a block keeps two flat lists alive, not a pair per cell, so
        # building it does not set off the cyclic garbage collector
        cells = [case_fn(n, nc, i, j) for j in grid]
        for _, case in cells:
            if case not in code:
                code[case] = _mp_code(table, case) + offset
        grades += [grade for grade, _ in cells]
        codes += [code[case] for _, case in cells]
    return grades, codes


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
_MP_CODES = {key: code for code, key in enumerate(_MT_BRANCHES)}
_MT = len(_MT_BRANCHES)  # MT code = code of the MP case on (!Q, !P) + _MT


def _closed_grade(config, rule, p, q) -> tuple[int, BranchLabel]:
    """Grade of the closed-form value of ``rule`` at (p, q) and its branch."""
    if rule is RuleId.MP:
        grade, code = _mp_case(config, p.is_true, q.is_true, p.grade, q.grade)
        return grade, _BRANCHES[code]
    # MP on (!Q, !P); negation keeps the grade and flips the polarity
    grade, code = _mp_case(config, not q.is_true, not p.is_true, q.grade, p.grade)
    return grade, _BRANCHES[code + _MT]


def mp_closed(config, p, q) -> tuple[LinguisticValue, BranchLabel]:
    config.validate_value(p)
    config.validate_value(q)
    grade, branch = _closed_grade(config, RuleId.MP, p, q)
    return LinguisticValue.true(grade), branch


def mt_closed(config, p, q) -> tuple[LinguisticValue, BranchLabel]:
    config.validate_value(p)
    config.validate_value(q)
    grade, branch = _closed_grade(config, RuleId.MT, p, q)
    return LinguisticValue.true(grade), branch


def _closed_columns(config: AlgebraConfig, rule: RuleId) -> tuple[list[int], list[int]]:
    """Closed-form grade and branch code of every row, in carrier order,
    from one ``_mp_block`` per polarity block."""
    n = config.n
    s = n + 1
    blocks = {}
    for p_true, q_true in itertools.product((False, True), repeat=2):
        if rule is RuleId.MP:
            blocks[p_true, q_true] = _mp_block(config, p_true, q_true)
        else:
            # MT(P, Q) = MP(!Q, !P): the MP block of (!Q, !P), transposed
            blocks[p_true, q_true] = _mp_block(config, not q_true, not p_true, _MT)
    if rule is RuleId.MP:
        def row(grid, i):  # grades i of e(P), 0..n of e(Q)
            return grid[i * s:(i + 1) * s]
    else:
        def row(grid, i):  # column i of the (!Q, !P) block
            return grid[i::s]
    closed, branch = [], []
    # carrier order: the false values from grade n down to 0, then the true
    # values from grade 0 up to n, for e(P) and, within each row, for e(Q)
    for p_true, p_grades in ((False, range(n, -1, -1)), (True, range(s))):
        false_grades, false_codes = blocks[p_true, False]
        true_grades, true_codes = blocks[p_true, True]
        for i in p_grades:
            closed += row(false_grades, i)[::-1]
            closed += row(true_grades, i)
            branch += row(false_codes, i)[::-1]
            branch += row(true_codes, i)
    return closed, branch


@dataclass(frozen=True, eq=False)
class InferenceTable(Sequence):
    """The MP or MT table of one algebra, held as columns.

    Row k pairs e(P) = values[k // len(values)] with e(Q) = values[k %
    len(values)], in carrier enumeration order.  ``direct[k]`` is the
    carrier index of the schema's value, ``closed[k]`` the grade of the
    closed-form value (always a true value) and ``branch[k]`` the index in
    ``labels`` of the case that fired.  Indexing and iteration build each
    ``InferenceRow`` when it is asked for.
    """

    config: AlgebraConfig
    rule: RuleId
    direct: list[int]
    closed: list[int]
    branch: list[int]
    labels: ClassVar[tuple[BranchLabel, ...]] = _BRANCHES

    @property
    def values(self) -> tuple[LinguisticValue, ...]:
        return self.config.tables.values

    def __len__(self) -> int:
        return len(self.direct)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        k = range(len(self))[k]  # a negative k counts from the end; IndexError past it
        values = self.values
        p, q = divmod(k, len(values))
        return InferenceRow(values[p], values[q], self.rule, values[self.direct[k]],
                            values[self.config.n + 1 + self.closed[k]],
                            self.labels[self.branch[k]])

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def disagreements(self) -> list[int]:
        """The rows whose direct and closed-form values differ."""
        true_base = self.config.n + 1  # v_gT sits at carrier index n + 1 + g
        return [k for k, (d, g) in enumerate(zip(self.direct, self.closed))
                if d != true_base + g]


def inference_table(config: AlgebraConfig, rule: RuleId) -> InferenceTable:
    """One row per ordered (e(P), e(Q)) pair, in carrier enumeration order."""
    tables = config.tables
    negate, carrier = tables.negate, range(len(tables.values))
    atoms = {"P": [p for p in carrier for _ in carrier], "Q": [*carrier] * len(carrier)}

    def lookup(op):  # a binary connective, one table lookup per row
        return lambda left, right: [op[x][y] for x, y in zip(left, right)]

    # the schema folded as in ``evaluate``, over whole columns of indices
    direct = _fold(MP_SCHEMA if rule is RuleId.MP else MT_SCHEMA, atoms.__getitem__, {
        Not: lambda column: [negate[x] for x in column],
        And: lookup(tables.meet), Or: lookup(tables.join), Implies: lookup(tables.implies),
    })
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
