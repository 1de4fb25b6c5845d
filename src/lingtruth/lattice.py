"""Linguistic truth values and their (quasi) lattice implication algebra.

A linguistic truth value pairs a hedge grade with a basic polarity:
``v3T`` is "quite True", ``v2F`` is "rather False" (under the default
five-hedge labels).  The carrier V of an algebra with hedge count n holds
the 2(n+1) values v_0F..v_nF, v_0T..v_nT, ordered so that

    v_nF < ... < v_0F,    v_0T < ... < v_nT,    v_kF <= v_(n-k)T,

with bottom v_nF (absolutely False) and top v_nT (absolutely True).

Two algebra kinds are supported:

* the plain kind ("LIA"): every cross link v_kF <= v_(n-k)T is present and
  the structure satisfies all seven implication axioms I1-I7;
* the quasi kind ("QLIA"): one cross link is removed, making v_iF and
  v_(n-i)T non-comparable for a single configured index i.  Joins and meets
  gain special branches around that pair, and axioms I6/I7 fail.

The implication operation is the same in both kinds:

    v_iT -> v_jF = v_max(0, i+j-n)F        v_iF -> v_jT = v_min(n, i+j)T
    v_iT -> v_jT = v_min(n, n-i+j)T        v_iF -> v_jF = v_min(n, n-j+i)T

The carrier index of a value is x = b·(n+1) + p, where b is its polarity
bit (F = 0, T = 1) and p is its grade for a T value and n - grade for an F
value; this is the order of ``AlgebraConfig.values()``.  On the pairs
(b, p) the plain kind is the product of the two-element chain and the
chain 0..n: join, meet and <= are coordinate-wise max, min and <=,
negation is (1 - b, n - p), and x -> y is (b <= b', min(n, n - p + p')).
The quasi kind changes one <= entry and the joins and meets around the
removed link.

``AlgebraConfig.tables`` computes every operation from the carrier index,
once per config, as integer tables that the exhaustive checks in
`lingtruth.axioms` and ``inference_table`` read.  The ``AlgebraConfig``
methods stay the closed forms on ``LinguisticValue``s: they are the library
API, what `lingtruth.formula` evaluates with, and the reference the tests
compare the tables with entry by entry.  They raise ``DomainError`` for a
value whose grade is outside 0..n.  `lingtruth.oracle` re-derives
joins, meets and the order from the cover graph alone and certifies the
tables on every pair.
"""

from __future__ import annotations

import enum
import functools
import re
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import DomainError, ParseError

LIA = "LIA"
QLIA = "QLIA"

#: Hedge names for the classic five-grade chain (n = 4), weakest first.
DEFAULT_LABELS_N4 = ("slightly", "somewhat", "rather", "quite", "absolutely")


class Polarity(enum.IntEnum):
    """Basic truth value: F (c_0) or T (c_1)."""

    F = 0
    T = 1

    @property
    def word(self) -> str:
        return "True" if self is Polarity.T else "False"


@dataclass(frozen=True)
class LinguisticValue:
    """One carrier element v_(grade)(polarity).  The grade must be an int
    (not a bool); the carrier's range 0..n is checked by the algebra."""

    grade: int
    polarity: Polarity

    def __post_init__(self):
        if type(self.grade) is not int:
            # a float or bool grade would pass the carrier's range check
            raise DomainError(f"grade must be an int, got {self.grade!r}")
        polarity = self.polarity
        if type(polarity) is not Polarity:
            # the polarity checks compare by identity, so 0, 1 and bools
            # must become Polarity members
            if type(polarity) not in (int, bool) or polarity not in (0, 1):
                raise DomainError(f"polarity must be a Polarity, 0 or 1, got {polarity!r}")
            object.__setattr__(self, "polarity", Polarity(polarity))

    @staticmethod
    def true(grade: int) -> "LinguisticValue":
        return LinguisticValue(grade, Polarity.T)

    @staticmethod
    def false(grade: int) -> "LinguisticValue":
        return LinguisticValue(grade, Polarity.F)

    @property
    def is_true(self) -> bool:
        return self.polarity is Polarity.T

    def negated(self) -> "LinguisticValue":
        return LinguisticValue(self.grade, Polarity.F if self.is_true else Polarity.T)

    def __str__(self) -> str:
        return canonical(self)

    def __repr__(self) -> str:
        return f"LinguisticValue({canonical(self)!r})"


def canonical(value: LinguisticValue) -> str:
    """Compact text form, e.g. ``v3T``."""
    return f"v{value.grade}{'T' if value.is_true else 'F'}"


_CANONICAL_RE = re.compile(r"v(0|[1-9]\d*)([TF])\Z")


@dataclass(frozen=True)
class OpTables:
    """The operations of one algebra as integer tables.

    Elements are the indices of ``values`` (the order of
    ``AlgebraConfig.values()``): ``implies[a][b]`` is the index of
    values[a] -> values[b], likewise ``join`` and ``meet``; ``negate[a]``
    is the index of values[a]'; ``leq[a][b]`` is values[a] <= values[b];
    ``top`` is the index of the top element.
    """

    values: tuple[LinguisticValue, ...]
    implies: tuple[tuple[int, ...], ...]
    join: tuple[tuple[int, ...], ...]
    meet: tuple[tuple[int, ...], ...]
    negate: tuple[int, ...]
    leq: tuple[tuple[bool, ...], ...]
    top: int


@dataclass(frozen=True)
class AlgebraConfig:
    """An immutable algebra over linguistic truth values.

    ``n`` is the maximum hedge grade (the carrier has 2(n+1) elements).
    ``noncomparable`` selects the quasi kind: the index i whose pair
    (v_iF, v_(n-i)T) is non-comparable.  ``labels`` optionally names the
    hedge grades, weakest first, for display and parsing.
    """

    n: int
    noncomparable: int | None = None
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        # exactly int, as for a grade: a float or bool passes the range checks
        if type(self.n) is not int:
            raise DomainError(f"hedge count n must be an int, got {self.n!r}")
        if self.noncomparable is not None and type(self.noncomparable) is not int:
            raise DomainError(
                f"non-comparable index must be an int or None, got {self.noncomparable!r}"
            )
        if self.n < 0:
            raise DomainError(f"hedge count n must be >= 0, got {self.n}")
        if self.noncomparable is not None:
            if self.n < 2:
                raise DomainError("a non-comparable pair needs n >= 2")
            if not 1 <= self.noncomparable <= self.n - 1:
                raise DomainError(
                    f"non-comparable index {self.noncomparable} outside 1..{self.n - 1}"
                )
        if self.labels is not None:
            # a bare string would be read as one label per character
            if isinstance(self.labels, str) or not isinstance(self.labels, Iterable):
                raise DomainError(f"hedge labels must be a sequence of str, got {self.labels!r}")
            if not isinstance(self.labels, tuple):
                object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != self.n + 1:
                raise DomainError(
                    f"need {self.n + 1} hedge labels, got {len(self.labels)}"
                )
            for label in self.labels:
                if type(label) is not str:
                    raise DomainError(f"hedge label must be a str, got {label!r}")
            if any(not label.strip() for label in self.labels):
                raise DomainError("hedge labels must not be blank")
            lowered = [label.lower() for label in self.labels]
            if len(set(lowered)) != len(lowered):
                raise DomainError("hedge labels must be distinct")

    # ------------------------------------------------------------------
    # Carrier

    @property
    def kind(self) -> str:
        return LIA if self.noncomparable is None else QLIA

    def top(self) -> LinguisticValue:
        return LinguisticValue.true(self.n)

    def bottom(self) -> LinguisticValue:
        return LinguisticValue.false(self.n)

    def values(self) -> tuple[LinguisticValue, ...]:
        """All carrier elements: false chain bottom-up, then true chain."""
        false_side = [LinguisticValue.false(g) for g in range(self.n, -1, -1)]
        true_side = [LinguisticValue.true(g) for g in range(self.n + 1)]
        return tuple(false_side + true_side)

    @functools.cached_property
    def tables(self) -> OpTables:
        """The operations tabulated over ``values()``, built on first use.

        Index x = b·(n+1) + p is the pair (b, p) of the module docstring.
        Each table row is a chain row over p, once per polarity half.
        """
        n = self.n
        s = n + 1
        chain = range(s)
        join_c = [[max(p, q) for q in chain] for p in chain]
        meet_c = [[min(p, q) for q in chain] for p in chain]
        implies_c = [[min(n, n - p + q) for q in chain] for p in chain]
        leq_c = [[p <= q for q in chain] for p in chain]

        def lift(row):  # the same grades in the half with polarity bit 1
            return [s + q for q in row]

        # rows b = 0, then b = 1; the halves of a row are b' = 0 and b' = 1
        join = [r + lift(r) for r in join_c] + [lift(r) * 2 for r in join_c]
        meet = [r * 2 for r in meet_c] + [r + lift(r) for r in meet_c]
        implies = [lift(r) * 2 for r in implies_c] + [r + lift(r) for r in implies_c]
        leq = [r * 2 for r in leq_c] + [[False] * s + r for r in leq_c]
        if self.noncomparable is not None:
            # v_iF = (0, m) and v_(n-i)T = (1, m) lose their cross link
            m = n - self.noncomparable
            leq[m][s + m] = False
            for k in range(m + 1):  # v_iF v v_kT, k <= n-i, rises above v_(n-i)T
                join[m][s + k] = join[s + k][m] = s + m + 1
            for p in range(m, s):  # v_(n-i)T ^ v_gF, g <= i, sinks below v_iF
                meet[s + m][p] = meet[p][s + m] = m - 1

        return OpTables(
            values=self.values(),
            implies=tuple(map(tuple, implies)),
            join=tuple(map(tuple, join)),
            meet=tuple(map(tuple, meet)),
            negate=tuple(range(2 * s - 1, -1, -1)),  # (1 - b, n - p)
            leq=tuple(map(tuple, leq)),
            top=2 * s - 1,
        )

    def validate_value(self, value: LinguisticValue) -> LinguisticValue:
        self._check(value)
        return value

    def _check(self, *values: LinguisticValue) -> None:
        n = self.n
        for value in values:
            if not 0 <= value.grade <= n:
                raise DomainError(f"grade of {value} outside 0..{n}")

    # ------------------------------------------------------------------
    # Operations (each raises DomainError for a value outside the carrier)

    def negate(self, a: LinguisticValue) -> LinguisticValue:
        self._check(a)
        return a.negated()

    def join(self, a: LinguisticValue, b: LinguisticValue) -> LinguisticValue:
        self._check(a, b)
        if a.polarity is b.polarity:
            grade = max(a.grade, b.grade) if a.is_true else min(a.grade, b.grade)
            return LinguisticValue(grade, a.polarity)
        t, f = (a, b) if a.is_true else (b, a)
        return self._mixed_join(t.grade, f.grade)

    def meet(self, a: LinguisticValue, b: LinguisticValue) -> LinguisticValue:
        self._check(a, b)
        if a.polarity is b.polarity:
            grade = min(a.grade, b.grade) if a.is_true else max(a.grade, b.grade)
            return LinguisticValue(grade, a.polarity)
        t, f = (a, b) if a.is_true else (b, a)
        return self._mixed_meet(t.grade, f.grade)

    def _mixed_join(self, k: int, l: int) -> LinguisticValue:
        """Least upper bound of v_kT and v_lF."""
        n, nc = self.n, self.noncomparable
        if nc is not None and l == nc and k <= n - nc:
            # v_lF sits just under v_(n-nc+1)T once its own cross link is gone.
            return LinguisticValue.true(n - nc + 1)
        if k + l >= n:
            return LinguisticValue.true(k)
        return LinguisticValue.true(n - l)

    def _mixed_meet(self, k: int, l: int) -> LinguisticValue:
        """Greatest lower bound of v_kT and v_lF."""
        n, nc = self.n, self.noncomparable
        if nc is not None and k == n - nc and l <= nc:
            # Dual special case: v_kT reaches the false chain only at v_(nc+1)F.
            return LinguisticValue.false(nc + 1)
        if k + l >= n:
            return LinguisticValue.false(l)
        return LinguisticValue.false(n - k)

    def implies(self, a: LinguisticValue, b: LinguisticValue) -> LinguisticValue:
        self._check(a, b)
        n = self.n
        i, j = a.grade, b.grade
        if a.is_true:
            if b.is_true:
                return LinguisticValue.true(min(n, n - i + j))
            return LinguisticValue.false(max(0, i + j - n))
        if b.is_true:
            return LinguisticValue.true(min(n, i + j))
        return LinguisticValue.true(min(n, n - j + i))

    def leq(self, a: LinguisticValue, b: LinguisticValue) -> bool:
        self._check(a, b)
        if a.polarity is b.polarity:
            return a.grade <= b.grade if a.is_true else a.grade >= b.grade
        if a.is_true:
            return False
        # a false, b true: a reaches b through its lowest available cross link.
        if self.noncomparable is not None and a.grade == self.noncomparable:
            return b.grade >= self.n - a.grade + 1
        return b.grade >= self.n - a.grade

    # ------------------------------------------------------------------
    # Text forms

    def label(self, value: LinguisticValue) -> str:
        """Labeled form such as ``quite True``; falls back to canonical."""
        if self.labels is None:
            return canonical(value)
        return f"{self.labels[value.grade]} {value.polarity.word}"

    def describe(self, value: LinguisticValue) -> str:
        """Canonical form, with the labeled form in parentheses if labeled."""
        if self.labels is None:
            return canonical(value)
        return f"{canonical(value)} ({self.label(value)})"

    def parse_value(self, text: str) -> LinguisticValue:
        """Parse either text form.  Labels are matched case-insensitively."""
        raw = text.strip()
        m = _CANONICAL_RE.match(raw)
        if m:
            value = LinguisticValue(int(m.group(1)), Polarity[m.group(2)])
            return self.validate_value(value)
        if self.labels is not None:
            parts = raw.rsplit(None, 1)
            if len(parts) == 2:
                name, word = parts[0].lower(), parts[1].lower()
                if word in ("true", "false"):
                    for grade, candidate in enumerate(self.labels):
                        if candidate.lower() == name:
                            polarity = Polarity.T if word == "true" else Polarity.F
                            return LinguisticValue(grade, polarity)
        raise ParseError(f"not a truth value: {text!r}", 0)


def lia(n: int, labels: tuple[str, ...] | None = None) -> AlgebraConfig:
    """Algebra with every cross link present (all of I1-I7 hold)."""
    return AlgebraConfig(n=n, labels=labels)


def qlia(n: int, noncomparable: int, labels: tuple[str, ...] | None = None) -> AlgebraConfig:
    """Algebra with the pair (v_iF, v_(n-i)T) made non-comparable."""
    return AlgebraConfig(n=n, noncomparable=noncomparable, labels=labels)


def default_labels(n: int) -> tuple[str, ...] | None:
    """Standard hedge names where the chain length has them (only n = 4)."""
    return DEFAULT_LABELS_N4 if n == 4 else None
