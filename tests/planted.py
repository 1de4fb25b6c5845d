"""Operation tables put in place of a config's built ones, shared by the
tests.  Each keeps the row type that ``AlgebraConfig.tables`` builds, so
that the code reading the rows takes the path it takes on built rows."""

from lingtruth.lattice import AlgebraConfig, lia, qlia

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
    vars(wide)["tables"] = tables._make(
        [tuple(tables.negate), *([*map(tuple, table)] for table in tables[1:])])
    return wide
