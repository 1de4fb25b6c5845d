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
The quasi kind drops the cover edge v_iF <= v_(n-i)T, which moves only the
joins and meets around it: both codings below read x <= y as x v y = y.

``AlgebraConfig._kernel`` holds these operations as scalar functions of
carrier indices, built with the config.  The ``AlgebraConfig`` methods and
`lingtruth.formula`'s evaluation run on it; values are encoded into it,
raising ``DomainError`` for anything but a ``LinguisticValue`` with grade in
0..n, and only results are decoded, with no check, as a carrier index names
a valid value.  ``AlgebraConfig.tables`` codes the algebra a second time, as
whole rows sliced from per-config chain ramps and built once per config on
first use.  It alone picks the rows' type, ``bytes`` up to 256 carrier
elements and tuples above.  It returns one holder, a ``_Rows``, that
carries the algebra: the rows, the carrier's values, decoded once, and the
maps its ``held`` builds and keeps for composing whole rows of that type.
`lingtruth.inference` folds the MP/MT schemas over these rows, and the
checks in `lingtruth.axioms` and `lingtruth.oracle` read the same holder; the
oracle re-derives joins, meets and the order from the cover graph alone and
so certifies them.  The tests compare the two codings.
"""

from __future__ import annotations

import enum
import functools
import operator
import re
from collections import namedtuple
from collections.abc import Iterable

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


class LinguisticValue(namedtuple("LinguisticValue", "grade polarity")):
    """One carrier element v_(grade)(polarity).  The grade must be an int
    (not a bool); the carrier's range 0..n is checked by the algebra.  Not
    ordered: the lattice order is the algebra's, so ``<`` raises TypeError."""

    __slots__ = ()

    def __new__(cls, grade: int, polarity: Polarity):
        if type(grade) is not int:
            # a float or bool grade would pass the carrier's range check
            raise DomainError(f"grade must be an int, got {grade!r}")
        if type(polarity) is not Polarity:
            # the polarity checks compare by identity, so 0, 1 and bools
            # must become Polarity members
            if type(polarity) not in (int, bool) or polarity not in (0, 1):
                raise DomainError(f"polarity must be a Polarity, 0 or 1, got {polarity!r}")
            polarity = Polarity(polarity)
        return tuple.__new__(cls, (grade, polarity))

    _make = classmethod(lambda cls, fields: cls(*fields))  # ``_replace`` validates too

    def __lt__(self, other):  # tuple order (grade, polarity) is not the lattice order
        return NotImplemented

    __le__ = __gt__ = __ge__ = __lt__

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
    return f"v{value[0]}{'FT'[value[1]]}"  # the polarity is a Polarity, 0 or 1


_CANONICAL_RE = re.compile(r"v(0|[1-9][0-9]*)([TF])\Z")  # ``\d`` also takes non-ASCII digits


_Kernel = namedtuple("_Kernel", "encode decode negate join meet implies")
_RowMaps = namedtuple("_RowMaps", "maps columns column_maps compose")


class _Rows(namedtuple("_Rows", "negate join meet implies values")):
    """One algebra (``AlgebraConfig.tables``, or a test's that no config
    builds): its operations as rows over carrier indices, named as in the
    kernel so that ``formula._operations`` reads either, and ``values[x]``,
    the element x names.  No ``__slots__``: ``held`` keeps maps in its dict."""

    def held(self, table) -> _RowMaps:
        """A square table of carrier indices (one of the holder's) held for
        composing whole rows, built on first use and kept once per table:
        ``columns`` are its ``_columns``, and ``compose(cells, maps[x])`` is
        row x read at each of ``cells``, so that ``compose(table[y],
        maps[x])[z] == table[x][table[y][z]]``; ``column_maps`` do the same
        for the columns.  A composed row has the type of the table's rows, so
        the two compare with ``==``.  The rows are held as they are: any but
        ``bytes`` (the tuples ``tables`` builds above 256 carrier elements)
        are composed by ``_gather``, each row and column its own map."""
        if id(table) not in vars(self):  # the entry keeps ``table`` alive: no other takes its id
            columns = _columns(table)
            maps = table, columns, columns, _gather
            if type(table[0]) is bytes:  # by ``bytes.translate``, maps padded to 256 bytes
                pad = bytes(256 - len(table))
                maps = ([row + pad for row in table], columns,
                        [column + pad for column in columns], bytes.translate)
            vars(self)[id(table)] = table, _RowMaps(*maps)
        return vars(self)[id(table)][1]


def _columns(table):
    """The columns of a square table of carrier indices, each of the type of
    its rows: ``columns[z][w] == table[w][z]``.  ``bytes`` rows are sliced
    out of the joined table, any other rows transposed by ``zip``."""
    if type(table[0]) is not bytes:
        return [*zip(*table)]
    flat, size = b"".join(table), len(table)
    return [flat[z::size] for z in range(size)]


def _equal_to(value):
    """A ``bytes.translate`` table that marks ``value`` 1 and any other byte 0."""
    return bytes(value) + b"\1" + bytes(255 - value)


def _order_marks(join):
    """x <= y, read as x v y = y off the byte rows of a join table, as flat
    0/1 bytes: the zero bytes of the flat table XOR the identity rows."""
    size = len(join)
    xor = int.from_bytes(b"".join(join), "big") ^ int.from_bytes(bytes(range(size)) * size, "big")
    return xor.to_bytes(size * size, "big").translate(_equal_to(0))


def _gather(cells, row):
    """``row`` at each index of ``cells`` (size >= 2 of them, so a tuple)."""
    return operator.itemgetter(*cells)(row)


class AlgebraConfig(namedtuple("AlgebraConfig", "n noncomparable labels")):
    """An immutable algebra over linguistic truth values.

    ``n`` is the maximum hedge grade (the carrier has 2(n+1) elements).
    ``noncomparable`` selects the quasi kind: the index i whose pair
    (v_iF, v_(n-i)T) is non-comparable.  ``labels`` optionally names the
    hedge grades, weakest first, for display and parsing.  No ``__slots__``:
    the kernel and the tables' holder, which carries the rows, their maps
    and the carrier's values, are kept in the instance dict.
    """

    def __new__(cls, n: int, noncomparable: int | None = None,
                labels: tuple[str, ...] | None = None):
        # exactly int, as for a grade: a float or bool passes the range checks
        if type(n) is not int:
            raise DomainError(f"hedge count n must be an int, got {n!r}")
        if noncomparable is not None and type(noncomparable) is not int:
            raise DomainError(
                f"non-comparable index must be an int or None, got {noncomparable!r}"
            )
        if n < 0:
            raise DomainError(f"hedge count n must be >= 0, got {n}")
        if noncomparable is not None:
            if n < 2:
                raise DomainError("a non-comparable pair needs n >= 2")
            if not 1 <= noncomparable <= n - 1:
                raise DomainError(
                    f"non-comparable index {noncomparable} outside 1..{n - 1}"
                )
        if labels is not None:
            # a bare string would be read as one label per character
            if isinstance(labels, str) or not isinstance(labels, Iterable):
                raise DomainError(f"hedge labels must be a sequence of str, got {labels!r}")
            labels = tuple(labels)
            if len(labels) != n + 1:
                raise DomainError(f"need {n + 1} hedge labels, got {len(labels)}")
            for label in labels:
                if type(label) is not str:
                    raise DomainError(f"hedge label must be a str, got {label!r}")
            if any(not label.strip() for label in labels):
                raise DomainError("hedge labels must not be blank")
            if any(label != label.strip() for label in labels):  # label() would not parse back
                raise DomainError("hedge labels must not start or end with whitespace")
            lowered = [label.lower() for label in labels]
            if len(set(lowered)) != len(lowered):
                raise DomainError("hedge labels must be distinct")
        config = tuple.__new__(cls, (n, noncomparable, labels))
        vars(config)["_kernel"] = config._build_kernel()  # no cached_property: that locks
        return config

    _make = classmethod(lambda cls, fields: cls(*fields))  # ``_replace`` validates too

    def __getstate__(self):  # a copy or an unpickled config builds its own kernel
        return None

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
        """All carrier elements: false chain bottom-up, then true chain; sized
        first, so an n too large for a list raises ``OverflowError`` at once."""
        return tuple(map(self._kernel.decode, [*range(2 * self.n + 2)]))

    @functools.cached_property
    def tables(self) -> _Rows:
        """The operations as rows over carrier indices, built on first use and
        shared, so never mutated: ``join[x][y]`` is the index of x v y,
        likewise ``meet`` and ``implies``, ``negate`` is read off column 0 of
        ``implies`` and ``values`` is ``values()``.  Each row, and ``negate``,
        is ``bytes`` while every index fits in a byte (up to 256 carrier
        elements) and a tuple above; this is the one test of that limit, and
        the code that reads the rows follows their type.  Row x = (b, p) has
        halves b' = 0, 1 over p': max(p, p') is a plateau and a range,
        min(p, p') a range and a plateau, min(n, n - p + p') a ramp slice,
        lifted by n + 1 for bit 1; a plateau of k entries v is
        ``up[v:v + 1] * k``."""
        n, s = self.n, self.n + 1
        seq = bytes if s <= 128 else tuple
        up = seq(range(2 * s))
        ramp = seq(min(n, t) for t in range(2 * n + 1))  # min(n, t); row p reads t = n-p..2n-p
        lifted = seq(s + t for t in ramp)
        join, meet, implies = [None] * 2 * s, [None] * 2 * s, [None] * 2 * s
        for p in range(s):  # rows x = p (b = 0) and x = s + p (b = 1)
            low, high = up[p:p + 1] * p + up[p:s], up[s + p:s + p + 1] * p + up[s + p:]
            join[p], join[s + p] = low + high, high + high
            low, high = up[:p] + up[p:p + 1] * (s - p), up[s:s + p] + up[s + p:s + p + 1] * (s - p)
            meet[p], meet[s + p] = low + low, low + high
            low, high = ramp[n - p:2 * n - p + 1], lifted[n - p:2 * n - p + 1]
            implies[p], implies[s + p] = high + high, low + high
        if self.noncomparable is not None:
            # v_iF = (0, m) and v_(n-i)T = (1, m) lose their cross link; each
            # patched row is rebuilt once, from slices
            m = n - self.noncomparable
            raised, sunk = up[s + m + 1:s + m + 2], up[m - 1:m]
            # v_iF v v_kT, k <= n-i, rises above v_(n-i)T
            join[m] = join[m][:s] + raised * (m + 1) + join[m][s + m + 1:]
            for k in range(s, s + m + 1):
                join[k] = join[k][:m] + raised + join[k][m + 1:]
            # v_(n-i)T ^ v_gF, g <= i, sinks below v_iF
            meet[s + m] = meet[s + m][:m] + sunk * (s - m) + meet[s + m][s:]
            for p in range(m, s):
                meet[p] = meet[p][:s + m] + sunk + meet[p][s + m + 1:]
        return _Rows(seq(row[0] for row in implies), join, meet, implies, self.values())

    def _build_kernel(self) -> _Kernel:
        """The product forms of the module docstring on carrier indices."""
        n, s, true = self.n, self.n + 1, Polarity.T
        make = functools.partial(tuple.__new__, LinguisticValue)
        # v_iF = (0, m) and v_(n-i)T = (1, m); in the plain kind m = -1 matches nothing
        m = -1 if self.noncomparable is None else n - self.noncomparable
        sm = s + m
        negate = (2 * s - 1).__sub__  # (1 - b, n - p) is N - 1 - x

        def encode(value):
            if not isinstance(value, LinguisticValue):
                raise DomainError(f"not a truth value: {value!r}")
            if not 0 <= value.grade <= n:
                raise DomainError(f"grade of {value} outside 0..{n}")
            return s + value.grade if value.polarity is true else n - value.grade
        def decode(x):  # a carrier index makes a valid value, so none is checked
            return make((x - s, true) if x >= s else (n - x, Polarity.F))
        def join(x, y):  # (max(b, b'), max(p, p'))
            if (x < s) is (y < s):
                return x if x > y else y
            f, t = (x, y) if x < s else (y, x)  # f false, t true
            if f == m and t <= sm:  # v_iF v v_kT, k <= n-i, rises above v_(n-i)T
                return sm + 1
            return t if t > f + s else f + s
        def meet(x, y):  # (min(b, b'), min(p, p'))
            if (x < s) is (y < s):
                return x if x < y else y
            f, t = (x, y) if x < s else (y, x)  # f false, t true
            if t == sm and f >= m:  # v_(n-i)T ^ v_gF, g <= i, sinks below v_iF
                return m - 1
            return f if f < t - s else t - s
        def implies(x, y):  # (b <= b')·(n+1) + min(n, n - p + p')
            p = n + y - x
            if x < s <= y:
                p -= s
            elif y < s <= x:  # b > b': the false side
                p += s
                return p if p < n else n
            return s + (p if p < n else n)

        return _Kernel(encode, decode, negate, join, meet, implies)

    def validate_value(self, value: LinguisticValue) -> LinguisticValue:
        self._kernel.encode(value)
        return value

    # ------------------------------------------------------------------
    # Operations (each raises DomainError for a value outside the carrier)

    def negate(self, a: LinguisticValue) -> LinguisticValue:
        k = self._kernel
        return k.decode(k.negate(k.encode(a)))

    def join(self, a: LinguisticValue, b: LinguisticValue) -> LinguisticValue:
        k = self._kernel
        return k.decode(k.join(k.encode(a), k.encode(b)))

    def meet(self, a: LinguisticValue, b: LinguisticValue) -> LinguisticValue:
        k = self._kernel
        return k.decode(k.meet(k.encode(a), k.encode(b)))

    def implies(self, a: LinguisticValue, b: LinguisticValue) -> LinguisticValue:
        k = self._kernel
        return k.decode(k.implies(k.encode(a), k.encode(b)))

    def leq(self, a: LinguisticValue, b: LinguisticValue) -> bool:
        k = self._kernel
        x, y = k.encode(a), k.encode(b)
        return k.join(x, y) == y  # the lattice order: a v b = b

    # ------------------------------------------------------------------
    # Text forms

    def label(self, value: LinguisticValue) -> str:
        """Labeled form such as ``quite True``; falls back to canonical."""
        self.validate_value(value)
        if self.labels is None:
            return canonical(value)
        return f"{self.labels[value.grade]} {value.polarity.word}"

    def describe(self, value: LinguisticValue) -> str:
        """Canonical form, with the labeled form in parentheses if labeled."""
        label = self.label(value)
        return label if self.labels is None else f"{canonical(value)} ({label})"

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
