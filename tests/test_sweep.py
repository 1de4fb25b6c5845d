"""The exhaustive sweep (``tests/sweep.py``) compares every entry of the
``implies`` and ``negate`` rows with an independent coding: a planted wrong
entry fails it."""

import pytest
import sweep
from planted import with_entry

from lingtruth.lattice import AlgebraConfig, lia, qlia


def planted(config, **rows):
    """A fresh copy of ``config`` whose tables have ``rows`` in place."""
    copy = AlgebraConfig(*config)
    vars(copy)["tables"] = config.tables._replace(**rows)
    return copy


@pytest.mark.parametrize("config", [lia(5), qlia(5, 2)], ids=["lia5", "qlia5-2"])
def test_built_rows_pass(config):
    assert sweep.operation_faults(config, sweep.reference_rows(config.n)) == []


@pytest.mark.parametrize("config", [lia(5), qlia(5, 2)], ids=["lia5", "qlia5-2"])
def test_a_planted_implies_entry_fails(config):
    implies = config.tables.implies
    entry = (implies[3][7] + 1) % 12
    wrong, _ = sweep.failures(planted(config, implies=with_entry(implies, 3, 7, entry)),
                              sweep.reference_rows(config.n))
    assert f"implies[3][7] = {entry}, expected {implies[3][7]}" in wrong


def test_a_planted_negate_entry_fails():
    config = qlia(5, 2)
    negate = config.tables.negate
    faulty = type(negate)([*negate[:4], negate[5], *negate[5:]])
    assert sweep.operation_faults(planted(config, negate=faulty), sweep.reference_rows(5)) \
        == [f"negate[4] = {negate[5]}, expected {negate[4]}"]
