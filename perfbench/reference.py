"""Reference evaluator for answer checks; imports nothing from lingtruth.

The carrier of chain length n has the values v_gT and v_gF for g = 0..n,
ordered by the definition: the false chain v_nF < ... < v_0F, the true chain
v_0T < ... < v_nT, and the cross links v_kF <= v_(n-k)T, one of which
(k = removed) is absent in the quasi kind.  The order is the reachability
relation of those links, held as up-set and down-set bitmasks computed on
first use; join and meet are found by searching the common bounds.  Implication
comes from reading the plain carrier as the product of the two-element
chain and the Lukasiewicz chain 0..n: v_gT is (1, g) and v_gF is (0, n-g),
and each coordinate takes the Lukasiewicz implication min(top, top - a + b).
Both algebra kinds share that implication.

Elements are ints indexing ``RefAlgebra.elements``, which lists the false
chain bottom-up and then the true chain: the enumeration order that the
checker's witness lists and the inference tables follow.
"""

from __future__ import annotations


class RefAlgebra:
    def __init__(self, n: int, removed: int | None = None):
        self.n = n
        self.removed = removed
        self.elements = [("F", g) for g in range(n, -1, -1)] + [("T", g) for g in range(n + 1)]
        self.size = len(self.elements)
        index = {e: k for k, e in enumerate(self.elements)}
        self._index = index
        upper = [[] for _ in self.elements]
        for g in range(n, 0, -1):
            upper[index["F", g]].append(index["F", g - 1])
        for g in range(n):
            upper[index["T", g]].append(index["T", g + 1])
        for k in range(n + 1):
            if k != removed:
                upper[index["F", k]].append(index["T", n - k])
        lower = [[] for _ in self.elements]
        for a, ups in enumerate(upper):
            for b in ups:
                lower[b].append(a)
        self._edges = {"up": upper, "down": lower}
        self._sets = {"up": [None] * self.size, "down": [None] * self.size}
        self.top = index["T", n]

    # ------------------------------------------------------------------
    # Text

    def text(self, e: int) -> str:
        polarity, grade = self.elements[e]
        return f"v{grade}{polarity}"

    def element(self, text: str) -> int:
        return self._index[text[-1], int(text[1:-1])]

    # ------------------------------------------------------------------
    # Operations

    def _reach(self, direction: str, e: int) -> int:
        """Bitmask of the elements reachable from ``e`` (itself included),
        memoized, by an explicit stack since chains are long."""
        sets, edges = self._sets[direction], self._edges[direction]
        stack = [e]
        while stack:
            x = stack[-1]
            if sets[x] is not None:
                stack.pop()
                continue
            pending = [y for y in edges[x] if sets[y] is None]
            if pending:
                stack.extend(pending)
                continue
            reach = 1 << x
            for y in edges[x]:
                reach |= sets[y]
            sets[x] = reach
            stack.pop()
        return sets[e]

    def leq(self, a: int, b: int) -> bool:
        return bool(self._reach("up", a) >> b & 1)

    def join(self, a: int, b: int) -> int:
        """The common upper bound whose up-set is all common upper bounds."""
        common = self._reach("up", a) & self._reach("up", b)
        rest = common
        while rest:  # lowest index first: the likely answer
            low = rest & -rest
            c = low.bit_length() - 1
            if self._reach("up", c) == common:
                return c
            rest ^= low
        raise ValueError(f"{self.text(a)}, {self.text(b)} have no least upper bound")

    def meet(self, a: int, b: int) -> int:
        """The common lower bound whose down-set is all common lower bounds."""
        common = self._reach("down", a) & self._reach("down", b)
        rest = common
        while rest:  # highest index first: the likely answer
            c = rest.bit_length() - 1
            if self._reach("down", c) == common:
                return c
            rest ^= 1 << c
        raise ValueError(f"{self.text(a)}, {self.text(b)} have no greatest lower bound")

    def _coords(self, e: int) -> tuple[int, int]:
        polarity, grade = self.elements[e]
        return (1, grade) if polarity == "T" else (0, self.n - grade)

    def implies(self, a: int, b: int) -> int:
        (pa, ga), (pb, gb) = self._coords(a), self._coords(b)
        polarity = min(1, 1 - pa + pb)
        grade = min(self.n, self.n - ga + gb)
        if polarity:
            return self._index["T", grade]
        return self._index["F", self.n - grade]

    def negate(self, a: int) -> int:
        polarity, grade = self.elements[a]
        return self._index["F" if polarity == "T" else "T", grade]

    # ------------------------------------------------------------------
    # Whole-carrier counts for the axiom checker

    def tables(self):
        r = range(self.size)
        imp = [[self.implies(a, b) for b in r] for a in r]
        join = [[self.join(a, b) for b in r] for a in r]
        meet = [[self.meet(a, b) for b in r] for a in r]
        neg = [self.negate(a) for a in r]
        return imp, join, meet, neg

    def axiom_report(self, cap: int = 10) -> dict[str, tuple[int, list[list[str]]]]:
        """Per axiom I1-I7: (violation count, first ``cap`` witnesses as
        [x, y, z, lhs, rhs] texts with absent slots omitted)."""
        imp, join, meet, neg = self.tables()
        top, r, t = self.top, range(self.size), self.text
        found: dict[str, int] = {}
        kept: dict[str, list[list[str]]] = {}

        def bad(name, *values):
            found[name] = found.get(name, 0) + 1
            if found[name] <= cap:
                kept.setdefault(name, []).append([t(v) for v in values])

        for x in r:
            if imp[x][x] != top:
                bad("I2", x, imp[x][x], top)
            for y in r:
                if imp[x][y] != imp[neg[y]][neg[x]]:
                    bad("I3", x, y, imp[x][y], imp[neg[y]][neg[x]])
                if x != y and imp[x][y] == top and imp[y][x] == top:
                    bad("I4", x, y, imp[x][y], imp[y][x])
                lhs, rhs = imp[imp[x][y]][y], imp[imp[y][x]][x]
                if lhs != rhs:
                    bad("I5", x, y, lhs, rhs)
        for axiom in ("I1", "I6", "I7"):
            for x in r:
                for y in r:
                    for z in r:
                        if axiom == "I1":
                            lhs, rhs = imp[x][imp[y][z]], imp[y][imp[x][z]]
                        elif axiom == "I6":
                            lhs, rhs = imp[join[x][y]][z], meet[imp[x][z]][imp[y][z]]
                        else:
                            lhs, rhs = imp[meet[x][y]][z], join[imp[x][z]][imp[y][z]]
                        if lhs != rhs:
                            bad(axiom, x, y, z, lhs, rhs)
        return {
            f"I{k}": (found.get(f"I{k}", 0), kept.get(f"I{k}", [])) for k in range(1, 8)
        }

    def involution_report(self, cap: int = 10) -> tuple[int, list[list[str]]]:
        """Negation undone twice, then order reversal: (violation count,
        first ``cap`` witnesses as [x, y, lhs, rhs] texts)."""
        r, t, neg = range(self.size), self.text, self.negate
        bad = [[t(x), t(neg(neg(x))), t(x)] for x in r if neg(neg(x)) != x]
        bad += [
            [t(x), t(y), t(neg(y)), t(neg(x))]
            for x in r
            for y in r
            if self.leq(x, y) and not self.leq(neg(y), neg(x))
        ]
        return len(bad), bad[:cap]

    def residuation_exceptions(self) -> list[list[str]]:
        """Pairs where "a -> b is top" and "a <= b" disagree."""
        r = range(self.size)
        return [
            [self.text(a), self.text(b)]
            for a in r
            for b in r
            if (self.implies(a, b) == self.top) != self.leq(a, b)
        ]

    # ------------------------------------------------------------------
    # Inference schemas and formulas

    def mp(self, p: int, q: int) -> int:
        """(P & (P -> Q)) -> Q"""
        return self.implies(self.meet(p, self.implies(p, q)), q)

    def mt(self, p: int, q: int) -> int:
        """(!Q & (P -> Q)) -> !P"""
        return self.implies(self.meet(self.negate(q), self.implies(p, q)), self.negate(p))

    def evaluate(self, tree, assignment: dict[str, int]) -> int:
        kind = tree[0]
        if kind == "atom":
            return assignment[tree[1]]
        if kind == "not":
            return self.negate(self.evaluate(tree[1], assignment))
        left = self.evaluate(tree[1], assignment)
        right = self.evaluate(tree[2], assignment)
        if kind == "and":
            return self.meet(left, right)
        if kind == "or":
            return self.join(left, right)
        return self.implies(left, right)


# Precedence of the concrete syntax, loosest first; "imp" is right associative.
_PREC = {"imp": 1, "or": 2, "and": 3, "not": 4, "atom": 5}
_SYMBOL = {"imp": "->", "or": "|", "and": "&"}


def render(tree, min_prec: int = 0) -> str:
    """Canonical text with the fewest parentheses the grammar allows."""
    kind = tree[0]
    prec = _PREC[kind]
    if kind == "atom":
        text = tree[1]
    elif kind == "not":
        text = "!" + render(tree[1], prec)
    elif kind == "imp":
        text = f"{render(tree[1], prec + 1)} -> {render(tree[2], prec)}"
    else:
        text = f"{render(tree[1], prec)} {_SYMBOL[kind]} {render(tree[2], prec + 1)}"
    return f"({text})" if prec < min_prec else text


# The eight worked inferences: (example, n, removed link, P, Q, MP, MT).
EXAMPLES = (
    ("3.1", 4, None, "v3T", "v2T", "v3T", "v3T"),
    ("3.2", 4, None, "v2F", "v4F", "v2T", "v4T"),
    ("3.3", 4, None, "v2T", "v4F", "v2T", "v4T"),
    ("3.4", 4, None, "v0F", "v2T", "v4T", "v2T"),
    ("4.1", 4, 2, "v3T", "v1T", "v3T", "v4T"),
    ("4.2", 4, 2, "v1F", "v2F", "v3T", "v3T"),
    ("4.3", 4, 2, "v2T", "v3F", "v4T", "v3T"),
    ("4.4", 4, 2, "v0F", "v3T", "v4T", "v3T"),
)
