"""Operation tables put in place of a config's built ones, or held by a
holder of their own, shared by the tests.  Each keeps the row type that
``AlgebraConfig.tables`` builds, so that the code reading the rows takes
the path it takes on built rows."""

import itertools
import math

from lingtruth.lattice import AlgebraConfig, _Rows, lia, qlia

# configs on both sides of the byte limit, each with the row type ``tables``
# builds for it: 256 elements at n = 127, 258 at n = 128
BYTE_LIMIT_CONFIGS = [(lia(127), bytes), (qlia(127, 60), bytes),
                      (lia(128), tuple), (qlia(128, 60), tuple)]


def with_entry(table, i, j, entry):
    """``table`` with entry [i][j] replaced; row i keeps its type."""
    rows, row = [*table], [*table[i]]
    row[j] = entry
    rows[i] = type(table[i])(row)
    return rows


def wide_rows(config):
    """A fresh copy of ``config`` whose tables, ``negate`` included, are
    tuple copies of the built ones, the rows ``tables`` builds above 256
    carrier elements: the axiom screens compose them with ``itemgetter``,
    and the inference value columns are lists, at any size."""
    wide, tables = AlgebraConfig(*config), config.tables
    vars(wide)["tables"] = tables._replace(negate=tuple(tables.negate), **{
        name: [*map(tuple, getattr(tables, name))] for name in ("join", "meet", "implies")})
    return wide


def lukasiewicz(m, x, y):
    """x -> y in the Łukasiewicz chain 0 < 1 < ... < m - 1; x -> 0 is its
    negation m - 1 - x."""
    return min(m - 1, m - 1 - x + y)


def goedel(m, x, y):
    """x -> y in the Gödel (Heyting) chain 0 < 1 < ... < m - 1."""
    return m - 1 if x <= y else y


def _product_rows(sizes, op):
    """rows[a][b]: the element ``op(m, x, y)`` gives factor by factor on the
    elements a and b of the product of the chains 0 < ... < m - 1, m in
    ``sizes``; an element is its mixed-radix index, the first factor the
    most significant."""
    if not sizes:
        return [[0]]
    m, inner = sizes[0], _product_rows(sizes[1:], op)
    stride = len(inner)
    return [[lift + r for lift in [op(m, x, y) * stride for y in range(m)] for r in rest]
            for x in range(m) for rest in inner]


def chain_product(sizes, implication):
    """The holder of the product of the chains of ``sizes``: join and meet
    the componentwise max and min, ``implies`` ``implication(m, x, y)`` in
    each factor and ``negate`` the Łukasiewicz negation.  Elements are
    indexed as in ``_product_rows``, so the bottom is 0 and the top the last
    index, as ``axioms`` assumes, and each is named by its coordinates, the
    tuple of its grades in the factors.  The rows have the type ``tables``
    builds for that size: bytes up to 256 elements, tuples above."""
    seq = bytes if math.prod(sizes) <= 256 else tuple
    tables = [[*map(seq, _product_rows(sizes, op))] for op in (
        lambda m, x, y: max(x, y), lambda m, x, y: min(x, y), implication)]
    negate = seq(row[0] for row in _product_rows(sizes, lukasiewicz))
    return _Rows(negate, *tables, tuple(itertools.product(*map(range, sizes))))
