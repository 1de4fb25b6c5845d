import pytest

from lingtruth import lattice


@pytest.fixture
def wide_rows(monkeypatch):
    """The axiom screens and the direct fold compose rows as they do above
    256 carrier elements (tuples and ``itemgetter``), at any size: the rows
    ``lattice._held`` keeps per config are built by ``_wide_rows``."""
    monkeypatch.setattr(lattice, "_rows", lattice._wide_rows)
