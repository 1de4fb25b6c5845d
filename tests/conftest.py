import pytest

from lingtruth import axioms, inference, lattice


@pytest.fixture
def wide_rows(monkeypatch):
    """The axiom screens and the direct fold compose rows as they do above
    256 carrier elements (tuples and ``itemgetter``), at any size."""
    for module in (axioms, inference):
        monkeypatch.setattr(module, "_rows", lattice._wide_rows)
