import pytest

from lingtruth.errors import DomainError
from lingtruth.hedges import HedgeChain


@pytest.mark.parametrize(
    "n, j, k, expected",
    [(4, 1, 3, 3), (4, 2, 2, 2), (7, 0, 7, 7)],
)
def test_join(n, j, k, expected):
    assert HedgeChain(n).join(j, k) == expected


@pytest.mark.parametrize(
    "n, j, k, expected",
    [(4, 1, 3, 1), (4, 4, 4, 4), (7, 0, 7, 0)],
)
def test_meet(n, j, k, expected):
    assert HedgeChain(n).meet(j, k) == expected


@pytest.mark.parametrize("n, j, expected", [(4, 1, 3), (4, 2, 2), (6, 0, 6)])
def test_negate(n, j, expected):
    assert HedgeChain(n).negate(j) == expected


@pytest.mark.parametrize("n, j, k, expected", [(4, 3, 2, 3), (4, 2, 2, 4), (4, 0, 1, 4)])
def test_implies(n, j, k, expected):
    assert HedgeChain(n).implies(j, k) == expected


def test_out_of_range_indices_rejected():
    chain = HedgeChain(3)
    with pytest.raises(DomainError):
        chain.join(0, 4)
    with pytest.raises(DomainError):
        chain.negate(-1)
    with pytest.raises(DomainError):
        HedgeChain(-1)


@pytest.mark.parametrize("n", [True, 4.0, "3", None])
def test_non_int_chain_length_rejected(n):
    with pytest.raises(DomainError, match="must be an int"):
        HedgeChain(n)


@pytest.mark.parametrize("op, args", [
    ("join", (1.5, 2)), ("meet", (2, "1")), ("negate", (True,)), ("implies", (1, 1.0)),
])
def test_non_int_indices_rejected(op, args):
    with pytest.raises(DomainError, match="must be an int"):
        getattr(HedgeChain(4), op)(*args)


def test_single_hedge_chain_degenerates():
    chain = HedgeChain(0)
    assert chain.join(0, 0) == chain.meet(0, 0) == chain.negate(0) == 0
    assert chain.implies(0, 0) == 0


@pytest.mark.parametrize("n", range(9))
def test_involution_and_order_reversal(n):
    chain = HedgeChain(n)
    for j in chain.indices():
        assert chain.negate(chain.negate(j)) == j
        for k in chain.indices():
            if j <= k:
                assert chain.negate(k) <= chain.negate(j)


@pytest.mark.parametrize("n", range(9))
def test_residuation_on_the_chain(n):
    """j -> k saturates at the top exactly when j <= k."""
    chain = HedgeChain(n)
    for j in chain.indices():
        for k in chain.indices():
            assert (chain.implies(j, k) == n) == (j <= k)


@pytest.mark.parametrize("n", range(9))
def test_chain_satisfies_all_seven_implication_axioms(n):
    """Exhaustive I1-I7 over the bare hedge chain (top element is h_n)."""
    c = HedgeChain(n)
    idx = list(c.indices())
    for x in idx:
        assert c.implies(x, x) == n  # I2
        for y in idx:
            assert c.implies(x, y) == c.implies(c.negate(y), c.negate(x))  # I3
            if x != y:  # I4
                assert not (c.implies(x, y) == n and c.implies(y, x) == n)
            lhs = c.implies(c.implies(x, y), y)  # I5
            rhs = c.implies(c.implies(y, x), x)
            assert lhs == rhs
            for z in idx:
                assert c.implies(x, c.implies(y, z)) == c.implies(y, c.implies(x, z))  # I1
                assert c.implies(c.join(x, y), z) == c.meet(
                    c.implies(x, z), c.implies(y, z)
                )  # I6
                assert c.implies(c.meet(x, y), z) == c.join(
                    c.implies(x, z), c.implies(y, z)
                )  # I7
