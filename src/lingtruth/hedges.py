"""The linguistic hedge chain H = {h_0, ..., h_n}.

Hedges grade how strongly a basic truth value holds (slightly, somewhat,
rather, ..., absolutely).  The chain is totally ordered by index and carries
four operations:

    join       h_j v h_k  = h_max(j,k)
    meet       h_j ^ h_k  = h_min(j,k)
    negate     h_j'       = h_(n-j)
    implies    h_j -> h_k = h_min(n, n-j+k)

With these the chain is itself a lattice implication algebra; the test suite
checks the seven defining axioms exhaustively for every n <= 8.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DomainError


class HedgeChain(namedtuple("HedgeChain", "n")):
    """A chain of n+1 hedge grades, indexed 0..n."""

    __slots__ = ()

    def __new__(cls, n: int):
        if type(n) is not int:
            raise DomainError(f"hedge chain n must be an int, got {n!r}")
        if n < 0:
            raise DomainError(f"hedge chain needs n >= 0, got {n}")
        return tuple.__new__(cls, (n,))

    _make = classmethod(lambda cls, fields: cls(*fields))  # ``_replace`` validates too

    def _check(self, j: int) -> None:
        if type(j) is not int:
            raise DomainError(f"hedge index must be an int, got {j!r}")
        if not 0 <= j <= self.n:
            raise DomainError(f"hedge index {j} outside 0..{self.n}")

    def indices(self) -> range:
        return range(self.n + 1)

    def join(self, j: int, k: int) -> int:
        self._check(j)
        self._check(k)
        return max(j, k)

    def meet(self, j: int, k: int) -> int:
        self._check(j)
        self._check(k)
        return min(j, k)

    def negate(self, j: int) -> int:
        self._check(j)
        return self.n - j

    def implies(self, j: int, k: int) -> int:
        self._check(j)
        self._check(k)
        return min(self.n, self.n - j + k)
