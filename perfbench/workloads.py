"""The three workloads: seeded inputs, one op each, and the answer checks.

verify    one ``check --format json`` verdict through ``lingtruth.cli.main``
tables    one ``infer --rule mp|mt --format csv`` table through ``lingtruth.cli.main``
formulas  one eval request through the library API

Each workload is a closed loop with one client: an op starts when the one
before it has returned.  Inputs depend on the seed alone.  ``run`` is the
timed part of an op; ``check`` runs after the clock stops and compares the
answer with ``reference``, which shares no code with lingtruth.

An op *fails* when it raises anything but ParseError, DomainError or
UnboundAtomError, returns a wrong answer, or exits nonzero where 0 is due.
A wrong answer (a wrong value, exit code, witness, count or error offset)
also makes the run incorrect; a crash alone does not.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass, field

from lingtruth import AlgebraConfig, DomainError, ParseError, UnboundAtomError, Valuation
from lingtruth import evaluate, parse, render
from lingtruth.cli import main as cli_main
from reference import EXAMPLES, RefAlgebra
from reference import render as ref_render

# Ops come in pairs: a cheap op with a dear one, or two ops of the middle
# kind.  Every prefix of a block then keeps the block's cost mix, and half
# of all ops are of the middle kind, so the median latency is one of them
# whatever the seed and wherever the run is cut.  A verdict at these chain
# lengths takes 1-2 s in lingtruth 0.1.0; tables at these have
# about 10^4 to 4*10^4 rows.
VERIFY_PAIRS = (((11, "LIA"), (13, "LIA")), ((12, "QLIA"), (12, "QLIA")))
TABLE_PAIRS = (
    ((48, "mp"), (96, "mt")), ((48, "mt"), (96, "mp")),
    ((72, "mp"), (72, "mp")), ((72, "mp"), (72, "mp")),
)

TABLE_SAMPLE = 32  # rows per table checked against the reference
POOL_SIZE = 512  # distinct (n, i) configs in the formulas pool
MAX_POOL_N = 300
ATOM_NAMES = ("P", "Q", "R", "S", "wet", "cold", "x1", "y_2", "Alpha", "_tmp")
DEEP_PROBES = 8  # requests nested 248 to 400 deep, outside the op stream
MALFORMED_SHARE = 0.03
CHECK_SHARE = 1 / 32  # valid requests checked against the reference
BAD_CHARS = "#$%@?^=+*/;:"


def direct(name, fn, *args):
    """The untraced form of ``Tracer.call``."""
    return fn(*args)


@dataclass
class Op:
    index: int
    n: int
    removed: int | None
    argv: list[str] = field(default_factory=list)
    rule: str = ""
    sample: tuple[int, ...] = ()

    @property
    def kind(self) -> str:
        return "LIA" if self.removed is None else "QLIA"

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass
class Request:
    index: int
    n: int
    removed: int | None
    values: list[tuple[str, str]]
    text: str
    tree: tuple
    nodes: int
    shape: str  # "value", "malformed" or "deep"
    offset: int | None
    checked: bool

    @property
    def label(self) -> str:
        assigned = " ".join(f"-a {name}={text}" for name, text in self.values)
        flags = "" if self.removed is None else f" --qlia --noncomp {self.removed}"
        return f"eval --n {self.n}{flags} {assigned} {self.text[:60]!r}"


@dataclass
class Outcome:
    digest: str
    failed: bool = False
    wrong: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    def expect(self, condition: bool, problem: str) -> None:
        if not condition:
            self.wrong.append(problem)
            self.failed = True


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def blocks(rng: random.Random, pairs):
    """Endless blocks of the given pairs, the pairs and the two ops within
    each pair in seeded order."""
    pairs = list(pairs)
    while True:
        rng.shuffle(pairs)
        for pair in pairs:
            yield from (pair if rng.random() < 0.5 else pair[::-1])


def run_cli(argv: list[str], call) -> tuple[int | None, str, str, BaseException | None]:
    out, err = io.StringIO(), io.StringIO()
    code, exc = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call("cli.main", cli_main, argv)
        except SystemExit as stop:
            code = stop.code
        except Exception as raised:  # a crash is a failed op, not a stopped run
            exc = raised
    return code, out.getvalue(), err.getvalue(), exc


def _cli_outcome(result) -> tuple[Outcome, str | None]:
    code, out, err, exc = result
    outcome = Outcome(_sha(out), counts={"output_bytes": len(out.encode())})
    if exc is not None:
        outcome.failed = True
        outcome.counts["crashed"] = 1
        return outcome, None
    outcome.expect(code == 0, f"exit {code}: {err.strip()[:200]}")
    return outcome, (out if code == 0 else None)


def _qlia_flags(removed: int | None) -> list[str]:
    return [] if removed is None else ["--qlia", "--noncomp", str(removed)]


class Verify:
    name = "verify"
    block = 4
    traced_ops = 8

    def __init__(self, seed: int):
        self.rng = random.Random(f"verify:{seed}")
        self._reference: dict = {}
        self._stated: dict = {}

    def ops(self):
        for index, (n, kind) in enumerate(blocks(self.rng, VERIFY_PAIRS)):
            removed = self.rng.randint(1, n - 1) if kind == "QLIA" else None
            argv = ["check", "--n", str(n), *_qlia_flags(removed), "--format", "json"]
            yield Op(index, n, removed, argv)

    def warm_up(self, call) -> None:
        run_cli(["check", "--n", "4", "--format", "json"], call)

    @staticmethod
    def probes() -> list:
        return []

    def run(self, op: Op, call):
        return run_cli(op.argv, call)

    @staticmethod
    def size(op: Op) -> int:
        return (2 * op.n + 2) ** 3  # carrier triples

    def _expected(self, op: Op):
        key = (op.n, op.removed)
        if key not in self._reference:
            ref = RefAlgebra(op.n, op.removed)
            self._reference[key] = (
                ref.axiom_report(), ref.involution_report(), ref.residuation_exceptions()
            )
        return self._reference[key]

    def check(self, op: Op, result) -> Outcome:
        outcome, out = _cli_outcome(result)
        if out is not None:
            try:
                self._compare(op, json.loads(out), outcome)
            except (ValueError, KeyError, TypeError) as exc:
                outcome.expect(False, f"unreadable report: {exc!r}")
        return outcome

    def _compare(self, op: Op, report: dict, outcome: Outcome) -> None:
        axioms, involution, residuation = self._expected(op)
        expect = outcome.expect
        expect(report["requested"] == op.kind, f"requested {report['requested']}")
        expect(report["classification"] == op.kind, f"classified {report['classification']}")
        expect(report["ok"] is True, "ok is not true")
        violations = 0
        for entry in report["axioms"]:
            name = entry["axiom"]
            count, witnesses = axioms[name]
            violations += entry["total_violations"]
            expect(entry["total_violations"] == count,
                   f"{name}: {entry['total_violations']} violations, reference {count}")
            expect(entry["holds"] == (count == 0), f"{name}: holds is {entry['holds']}")
            expect([list(w.values()) for w in entry["witnesses"]] == witnesses,
                   f"{name}: witnesses differ from the reference")
            if name in ("I1", "I2", "I3", "I4", "I5"):
                expect(entry["holds"], f"{name} fails on a {op.kind}")
        expect(len(report["axioms"]) == 7, "not seven axioms")
        expect(all(law["holds"] for law in report["laws"]), "a lattice law fails")
        got = report["involution"]
        expect((got["total_violations"], [list(w.values()) for w in got["witnesses"]])
               == involution, "involution report differs from the reference")
        expect(report["lattice"]["is_lattice"], "not a lattice")
        oracle = report["oracle"]
        expect(oracle["implemented_mismatches"] == [], "closed forms disagree with the oracle")
        expect(oracle["residuation_exceptions"] == residuation,
               "residuation exceptions differ from the reference")
        stated = len(oracle["stated_mismatches"])
        first = self._stated.setdefault((op.n, op.removed), stated)
        expect(stated == first, f"stated mismatches {stated}, earlier {first}")
        outcome.counts.update(
            triples=self.size(op), pairs=(2 * op.n + 2) ** 2,
            violations=violations, stated_mismatches=stated,
        )


class Tables:
    name = "tables"
    block = 8
    traced_ops = 8

    def __init__(self, seed: int):
        self.rng = random.Random(f"tables:{seed}")
        self._ref: RefAlgebra | None = None
        self._branches: dict = {}

    def ops(self):
        for index, (n, rule) in enumerate(blocks(self.rng, TABLE_PAIRS)):
            removed = self.rng.randint(1, n - 1) if self.rng.random() < 0.5 else None
            argv = ["infer", "--rule", rule, "--n", str(n), *_qlia_flags(removed),
                    "--format", "csv"]
            sample = tuple(sorted(self.rng.sample(range((2 * n + 2) ** 2), TABLE_SAMPLE)))
            yield Op(index, n, removed, argv, rule, sample)

    def warm_up(self, call) -> None:
        run_cli(["infer", "--rule", "mp", "--n", "8", "--format", "csv"], call)

    @staticmethod
    def probes() -> list:
        return []

    def run(self, op: Op, call):
        return run_cli(op.argv, call)

    @staticmethod
    def size(op: Op) -> int:
        return (2 * op.n + 2) ** 2  # rows

    def check(self, op: Op, result) -> Outcome:
        outcome, out = _cli_outcome(result)
        if out is not None:
            try:
                self._compare(op, out, outcome)
            except ValueError as exc:  # a row without seven fields
                outcome.expect(False, f"unreadable table: {exc!r}")
        return outcome

    def _compare(self, op: Op, out: str, outcome: Outcome) -> None:
        ref = self._ref
        if ref is None or (ref.n, ref.removed) != (op.n, op.removed):
            ref = self._ref = RefAlgebra(op.n, op.removed)
        texts = [ref.text(e) for e in range(ref.size)]
        schema = ref.mp if op.rule == "mp" else ref.mt
        family = "3." if op.removed is None else "4."
        sample = set(op.sample)
        reader = csv.reader(io.StringIO(out))
        expect = outcome.expect
        expect(next(reader, None) == ["p", "q", "rule", "direct", "closed", "branch", "agree"],
               "bad header")
        rows = disagreements = 0
        labels = set()
        for k, (p, q, rule, value, closed, branch, agree) in enumerate(reader):
            rows += 1
            a, b = divmod(k, ref.size)
            if k >= ref.size ** 2 or p != texts[a] or q != texts[b]:
                expect(False, f"row {k} is ({p}, {q}), out of carrier order")
                break
            if agree != "true" or value != closed:
                disagreements += 1
            labels.add(branch)
            pattern = ref.elements[a][0] + ref.elements[b][0]
            table = family + {"TT": "1", "FF": "2", "TF": "3", "FT": "4"}[pattern]
            if not branch.startswith(table + ":"):
                expect(False, f"row {k}: branch {branch} outside table {table}")
            if k in sample:
                expected = texts[schema(a, b)]
                expect(rule == op.rule.upper() and value == expected,
                       f"{rule}({p}, {q}) = {value}, reference {expected}")
        expect(rows == ref.size ** 2, f"{rows} rows, expected {ref.size ** 2}")
        expect(disagreements == 0, f"{disagreements} rows disagree")
        first = self._branches.setdefault((op.n, op.removed, op.rule), len(labels))
        expect(len(labels) == first, f"{len(labels)} branches fired, earlier {first}")
        outcome.counts.update(rows=rows, disagreements=disagreements, branches_fired=len(labels))


# ----------------------------------------------------------------------
# formulas


def random_tree(rng: random.Random, atoms: list[str], size: int):
    """A formula with ``size`` binary connectives, as nested tuples."""
    if size == 0:
        node = ("atom", rng.choice(atoms))
    else:
        left = rng.randint(0, size - 1)
        node = (rng.choice(("and", "or", "imp")),
                random_tree(rng, atoms, left), random_tree(rng, atoms, size - 1 - left))
    if rng.random() < 0.2:
        node = ("not", node)
    return node


def _atoms(tree) -> set[str]:
    if tree[0] == "atom":
        return {tree[1]}
    return set().union(*(_atoms(child) for child in tree[1:]))


def _nodes(tree) -> int:
    return 1 if tree[0] == "atom" else 1 + sum(_nodes(child) for child in tree[1:])


def spelled(rng: random.Random, tree) -> str:
    """Every binary connective in parentheses, with uneven spacing and
    either negation sign."""
    kind = tree[0]
    if kind == "atom":
        return tree[1]
    if kind == "not":
        return rng.choice("!~") + spelled(rng, tree[1])
    gaps = [rng.choice(("", " ", "  ")) for _ in range(4)]
    symbol = {"and": "&", "or": "|", "imp": "->"}[kind]
    return (f"({gaps[0]}{spelled(rng, tree[1])}{gaps[1]}{symbol}{gaps[2]}"
            f"{spelled(rng, tree[2])}{gaps[3]})")


class Formulas:
    name = "formulas"
    block = 1000
    traced_ops = 10000

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"formulas:{seed}")
        self.pool: list[tuple[int, int | None]] = []
        seen = set()
        while len(self.pool) < POOL_SIZE:
            n = self.rng.randint(2, MAX_POOL_N)
            config = (n, None if self.rng.random() < 0.5 else self.rng.randint(1, n - 1))
            if config not in seen:
                seen.add(config)
                self.pool.append(config)

    def ops(self, rng: random.Random | None = None):
        rng = rng or self.rng
        for index in itertools.count():
            n, removed = rng.choice(self.pool)
            atoms = rng.sample(ATOM_NAMES, rng.randint(1, 6))
            tree = random_tree(rng, atoms, rng.randint(0, 20))
            values = [(name, f"v{rng.randint(0, n)}{rng.choice('TF')}")
                      for name in sorted(_atoms(tree))]
            text = ref_render(tree) if rng.random() < 0.5 else spelled(rng, tree)
            shape, offset = "value", None
            if rng.random() < MALFORMED_SHARE:
                shape = "malformed"
                # any offset that does not split the two characters of "->"
                offsets = [k for k in range(len(text) + 1) if text[k - 1:k + 1] != "->"]
                offset = rng.choice(offsets)
                text = text[:offset] + rng.choice(BAD_CHARS) + text[offset:]
            checked = shape != "value" or rng.random() < CHECK_SHARE
            yield Request(index, n, removed, values, text, tree, _nodes(tree), shape,
                          offset, checked)

    def warm_up(self, call) -> None:
        for request in itertools.islice(self.ops(random.Random("warm-up")), 200):
            self.run(request, call)

    def probes(self) -> list[Request]:
        """Valid requests wrapped in 248 to 400 parentheses, every one
        checked.  They are not ops: the recursive parser of 0.1.0 overflows
        on them, and the op stream holds only inputs on which no op fails."""
        rng = random.Random(f"formulas-deep:{self.seed}")
        valid = (r for r in self.ops(rng) if r.shape == "value")
        deep = []
        for request in itertools.islice(valid, DEEP_PROBES):
            depth = 248 if not deep else rng.randint(249, 400)
            text = "(" * depth + request.text + ")" * depth
            deep.append(dataclasses.replace(request, text=text, shape="deep", checked=True))
        return deep

    def run(self, op: Request, call):
        try:
            config = call("lattice.AlgebraConfig", AlgebraConfig, op.n, op.removed)
            assignment = {name: call("lattice.parse_value", config.parse_value, text)
                          for name, text in op.values}
            node = call("formula.parse", parse, op.text)
            valuation = call("formula.Valuation", Valuation, config, assignment)
            value = call("formula.evaluate", evaluate, node, valuation)
            return value, call("formula.render", render, node), None
        except Exception as exc:  # classified by check()
            return None, None, exc

    @staticmethod
    def size(op: Request) -> int:
        return op.nodes

    def check(self, op: Request, result) -> Outcome:
        value, rendered, exc = result
        if exc is None:
            outcome = Outcome(_sha(f"{value}\t{rendered}"))
        else:
            outcome = Outcome(_sha(f"{type(exc).__name__}:{getattr(exc, 'position', '')}"))
        expect = outcome.expect
        if op.shape == "malformed":
            expect(isinstance(exc, ParseError) and exc.position == op.offset,
                   f"planted error at {op.offset}: got {exc!r}")
            outcome.counts["rejected"] = 1
        elif isinstance(exc, RecursionError):
            outcome.failed = True
            outcome.counts["overflowed"] = 1
        elif op.shape == "deep" and isinstance(exc, ParseError):
            # a documented depth limit refuses the input with an offset
            expect(0 <= exc.position <= len(op.text), f"refused at {exc.position}")
            outcome.counts["rejected"] = 1
        elif isinstance(exc, (ParseError, DomainError, UnboundAtomError)):
            expect(False, f"valid input refused: {exc!r}")
        elif exc is not None:
            outcome.failed = True
            outcome.counts["crashed"] = 1
        elif op.checked:
            ref = RefAlgebra(op.n, op.removed)
            assignment = {name: ref.element(text) for name, text in op.values}
            expected = ref.text(ref.evaluate(op.tree, assignment))
            expect(str(value) == expected, f"value {value}, reference {expected}")
            expect(rendered == ref_render(op.tree), f"rendered {rendered!r}")
        outcome.counts["nodes"] = op.nodes
        return outcome


WORKLOADS = {cls.name: cls for cls in (Verify, Tables, Formulas)}


def check_examples() -> list[str]:
    """The eight reference inferences: ``verify-examples`` against the
    hand-written list, and the list against the reference evaluator."""
    code, out, err, exc = run_cli(["verify-examples", "--format", "json"], direct)
    if exc is not None or code != 0:
        return [f"verify-examples: exit {code}, {exc!r} {err.strip()[:200]}"]
    problems = []
    got = {row["example"]: row for row in json.loads(out)}
    for example, n, removed, p, q, mp, mt in EXAMPLES:
        ref = RefAlgebra(n, removed)
        pair = ref.element(p), ref.element(q)
        if (ref.text(ref.mp(*pair)), ref.text(ref.mt(*pair))) != (mp, mt):
            problems.append(f"example {example}: reference disagrees with the list")
        row = got.pop(example, None)
        if row is None or (row["p"], row["q"], row["mp"], row["mt"], row["passed"]) != (
            p, q, mp, mt, True,
        ):
            problems.append(f"example {example}: {row}")
    if got:
        problems.append(f"unexpected examples {sorted(got)}")
    return problems
