"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the pass/fail lines.
Every check is exact (the algebra has no tolerances); the two timed
criteria assert their stated wall-clock budgets.
"""

import hashlib
import random
import time

import pytest

from lingtruth import cli
from lingtruth.axioms import (
    Axiom,
    check_all_axioms,
    check_axiom,
    check_involution,
    check_lattice_laws,
)
from lingtruth.discrepancies import STATEMENT_NOTES
from lingtruth.errors import ParseError
from lingtruth.formula import And, Atom, Implies, Not, Or, parse, render
from lingtruth.inference import (
    InferenceTable,
    RuleId,
    inference_table,
    mp_closed,
    mp_direct,
    mt_closed,
    mt_direct,
    verify_examples,
)
from lingtruth.lattice import LinguisticValue, lia, qlia
from lingtruth.oracle import build_covers, cross_check_ops

T = LinguisticValue.true
F = LinguisticValue.false

PLAIN_CONFIGS = [lia(n) for n in range(9)]
QUASI_CONFIGS = [qlia(n, i) for n in range(2, 9) for i in range(1, n)]
# the LIA chains verified exhaustively beyond n = 8
WIDE_PLAIN_CONFIGS = [lia(n) for n in range(9, 33)]
# the QLIA configs verified exhaustively beyond n = 8 (criteria 2 and 3)
WIDE_QUASI_CONFIGS = [qlia(n, i) for n in range(9, 17) for i in range(1, n)]


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"acceptance criterion {number} ({name}): {'PASS' if ok else 'FAIL'}{detail}")
    assert ok, f"criterion {number} failed: {name}{detail}"


def test_criterion_1_plain_axiom_suite():
    started = time.perf_counter()
    failures = []
    for config in PLAIN_CONFIGS + WIDE_PLAIN_CONFIGS:
        results = check_all_axioms(config, max_witnesses=1)
        for axiom in Axiom:
            if not results[axiom].holds:
                failures.append((config.n, axiom.value))
        for law in check_lattice_laws(config, max_witnesses=1):
            if not law.holds:
                failures.append((config.n, law.name))
        if not check_involution(config).holds:
            failures.append((config.n, "involution"))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 10.0
    _report(1, "LIA axiom suite n=0..32", ok, f" [{elapsed:.2f}s]" if ok else f" {failures[:5]}")


def test_criterion_2_quasi_axiom_suite():
    failures = []
    for config in QUASI_CONFIGS + WIDE_QUASI_CONFIGS:
        n, i = config.n, config.noncomparable
        for axiom in (Axiom.I1, Axiom.I2, Axiom.I3, Axiom.I4, Axiom.I5):
            if not check_axiom(config, axiom, max_witnesses=0).holds:
                failures.append((n, i, axiom.value))
        witness_grades = [k for k in range(n + 1) if i + k + 1 < n]
        if not witness_grades:
            continue
        r6 = check_axiom(config, Axiom.I6, max_witnesses=None)
        r7 = check_axiom(config, Axiom.I7, max_witnesses=None)
        if r6.holds or r7.holds:
            failures.append((n, i, "I6/I7 unexpectedly hold"))
            continue
        for k in witness_grades:
            triple = (T(n - i), F(i), T(k))
            found6 = [w for w in r6.witnesses if (w.x, w.y, w.z) == triple]
            found7 = [w for w in r7.witnesses if (w.x, w.y, w.z) == triple]
            if not (found6 and found6[0].lhs == T(i + k - 1) and found6[0].rhs == T(i + k)):
                failures.append((n, i, k, "I6 witness"))
            if not (found7 and found7[0].lhs == T(i + k + 1) and found7[0].rhs == T(i + k)):
                failures.append((n, i, k, "I7 witness"))
    _report(2, "QLIA suite n=2..16 with exact I6/I7 witnesses", not failures,
            "" if not failures else f" {failures[:5]}")


def test_criterion_3_oracle_equivalence():
    started = time.perf_counter()
    mismatches = []
    for config in PLAIN_CONFIGS + QUASI_CONFIGS + WIDE_PLAIN_CONFIGS + WIDE_QUASI_CONFIGS:
        report = cross_check_ops(build_covers(config))
        if not report.clean:
            mismatches.append((config.kind, config.n, config.noncomparable,
                               len(report.implemented)))
    elapsed = time.perf_counter() - started
    _report(3, "operation tables vs cover-graph oracle", not mismatches,
            f" [{elapsed:.2f}s]" if not mismatches else f" {mismatches[:5]}")


def test_criterion_4_closed_tables():
    started = time.perf_counter()
    configs = rows = 0
    disagreements = []
    # every configuration with n <= 32, LIA then QLIA i = 1..n-1 for each n;
    # built here so that their operation tables are freed as the test goes
    for n in range(33):
        for config in [lia(n)] + [qlia(n, i) for i in range(1, n)]:
            configs += 1
            for rule in (RuleId.MP, RuleId.MT):
                table = inference_table(config, rule)
                rows += len(table)
                disagreements += [(config.kind, n, config.noncomparable, table[k].to_dict())
                                  for k in table.disagreements()]
    elapsed = time.perf_counter() - started
    ok = not disagreements and (configs, rows) == (529, 2_417_544) and elapsed < 5.0
    _report(4, "closed tables match direct evaluation, n=0..32", ok,
            f" [{elapsed:.2f}s]" if ok else f" {configs} configs, {rows} rows, {elapsed:.2f}s,"
            f" {disagreements[:3]}")


def test_criterion_5_worked_examples():
    report = verify_examples()
    expected = {
        "3.1": ("v3T", "v3T"),
        "3.2": ("v2T", "v4T"),
        "3.3": ("v2T", "v4T"),
        "3.4": ("v4T", "v2T"),
        "4.1": ("v3T", "v4T"),
        "4.2": ("v3T", "v3T"),
        "4.3": ("v4T", "v3T"),
        "4.4": ("v4T", "v3T"),
    }
    problems = []
    for check in report.checks:
        want_mp, want_mt = expected[check.example]
        if (str(check.mp), str(check.mt)) != (want_mp, want_mt) or not check.passed:
            problems.append(check.to_dict())
    ok = not problems and report.all_passed and len(report.checks) == 8
    _report(5, "eight worked examples, index-exact", ok,
            "" if ok else f" {problems}")


def test_criterion_6_gradedness_remarks():
    config = lia(4)
    top = config.top()
    problems = []
    for i in range(5):
        for j in range(5):
            if i <= j:
                if mp_direct(config, T(i), T(j)) != top or mt_direct(config, T(i), T(j)) != top:
                    problems.append(("true-chain", i, j))
            if i >= j:
                if mp_direct(config, F(i), F(j)) != top or mt_direct(config, F(i), F(j)) != top:
                    problems.append(("false-chain", i, j))
    for p, q in ((T(4), F(4)), (F(4), T(4))):
        if mp_direct(config, p, q) != top or mt_direct(config, p, q) != top:
            problems.append(("corner", str(p), str(q)))
    graded = [
        (p, q)
        for p in config.values()
        for q in config.values()
        if mp_direct(config, p, q) != top
    ]
    if not graded:
        problems.append(("no strictly graded pair",))
    _report(6, "absolute and graded regions of the rules", not problems,
            "" if not problems else f" {problems[:5]}")


def _random_formula(rng: random.Random, depth: int):
    names = ("P", "Q", "R", "S", "T_0", "u1")
    if depth == 0 or rng.random() < 0.25:
        return Atom(rng.choice(names))
    shape = rng.randrange(4)
    if shape == 0:
        return Not(_random_formula(rng, depth - 1))
    left = _random_formula(rng, depth - 1)
    right = _random_formula(rng, depth - 1)
    return (And, Or, Implies)[shape - 1](left, right)


def test_criterion_7_parser_round_trip(capsys):
    rng = random.Random(20260809)
    problems = []
    for _ in range(1000):
        node = _random_formula(rng, rng.randint(0, 6))
        if parse(render(node)) != node:
            problems.append(render(node))

    # the three malformed-input cases must exit with the usage code and
    # report a position or the offending atom name
    cases = [
        (["eval", "--n", "4", "(P", "-a", "P=v1T"], "offset 2"),
        (["eval", "--n", "4", "P &", "-a", "P=v1T"], "offset 3"),
        (["eval", "--n", "4", "Q", "-a", "P=v1T"], "'Q'"),
    ]
    for argv, needle in cases:
        code = cli.main(argv)
        err = capsys.readouterr().err
        if code != 2 or needle not in err:
            problems.append((argv, code, err.strip()))
    _report(7, "parser round-trip and error reporting", not problems,
            "" if not problems else f" {problems[:3]}")


def test_criterion_8_discrepancy_report():
    ids = {note.id for note in STATEMENT_NOTES}
    ok = "3.2-mt-vl1" in ids and "2.4-item3-scope" in ids
    # the scope correction is also confirmed computationally: the stated
    # join disagrees with the oracle on (v3T, v4F) in the n=5, i=2 algebra,
    # as ``check --format json`` reports it
    stated = cross_check_ops(build_covers(qlia(5, 2))).to_dict()["stated_mismatches"]
    ok = ok and {"op": "join", "a": "v3T", "b": "v4F", "got": "v4T", "expected": "v3T",
                 "rule": "2.4-item3"} in stated
    _report(8, "machine-readable correction entries", ok)


def test_criterion_9_mt_is_mp_on_contrapositive():
    mismatches = []
    for config in PLAIN_CONFIGS + QUASI_CONFIGS:
        for p in config.values():
            for q in config.values():
                mt = mt_direct(config, p, q)
                mp = mp_direct(config, q.negated(), p.negated())
                if mt != mp:
                    mismatches.append((config.kind, config.n, config.noncomparable,
                                       str(p), str(q), str(mt), str(mp)))
    _report(9, "MT(P,Q) = MP(!Q,!P) by direct evaluation", not mismatches,
            "" if not mismatches else f" {mismatches[:5]}")


def test_criterion_10_every_branch_label_fires():
    fired = {"MP": set(), "MT": set()}
    for config in PLAIN_CONFIGS + QUASI_CONFIGS:
        for p in config.values():
            for q in config.values():
                fired["MP"].add(mp_closed(config, p, q)[1])
                fired["MT"].add(mt_closed(config, p, q)[1])
    # the labels are the 33 MP cases, then the MT case each is renamed to
    mp_labels, mt_labels = InferenceTable.labels[:33], InferenceTable.labels[33:]
    ok = (
        len(fired["MP"]) == len(fired["MT"]) == len(set(mp_labels)) == len(mt_labels) == 33
        and fired["MP"] == set(mp_labels)
        and fired["MT"] == set(mt_labels)
    )
    _report(10, "all 33 MP and 33 MT case labels fire", ok,
            "" if ok else f" MP {len(fired['MP'])}, MT {len(fired['MT'])}")


# sha256 of the concatenated ``infer --format csv`` output over n = 0..8,
# each n as LIA and then QLIA with --noncomp 1..n-1
INFER_CSV_SHA256 = {
    "mp": "0e8342ef70185c565663489c1f79c4ebec3eea558f76b22eb91d63d399c56d54",
    "mt": "dc15b0c2f5af8b5ce5ff476ac465ff60d391e13f6afc24140eb10eaaa983f46f",
}


# sha256 of ``infer --format csv`` at the sizes the ``tables`` benchmark runs
INFER_CSV_LARGE_SHA256 = {
    ("mp", "96"): "008425d60358ebdf8e60c48a8cb2e811e044bb15c9aea83c93384ce5461dce72",
    ("mt", "96"): "da0f8ee16fa82e2e89ad54096cc75279b8dea6b210ce1d0ee98826474ba35de4",
    ("mp", "96", "7"): "c587504c869c06aba23dd37af5615e9fa4a12a7838e41cfa142785005b865add",
    ("mt", "96", "7"): "b01ad579a16976e86b0ff1e9d2b78038d76c3213888b43bc8dc5d57e4bc163ac",
    ("mp", "72", "30"): "b54b581c2e6ecf544ab4c4bc7b9062c997de28dff82a6fcc126395472c8a5df3",
    ("mt", "72", "30"): "3311b91d649ce7bf3d42e593cfe214acecd5615c4adfb5c91a4db5f7df612692",
}


def test_criterion_11_infer_csv_is_pinned(capsys):
    changed = []
    for rule, expected in INFER_CSV_SHA256.items():
        digest = hashlib.sha256()
        for n in range(9):
            for kind in [[]] + [["--qlia", "--noncomp", str(i)] for i in range(1, n)]:
                cli.main(["infer", "--rule", rule, "--n", str(n), "--format", "csv", *kind])
                digest.update(capsys.readouterr().out.encode())
        if digest.hexdigest() != expected:
            changed.append(rule)
    for (rule, n, *noncomp), expected in INFER_CSV_LARGE_SHA256.items():
        kind = ["--qlia", "--noncomp", *noncomp] if noncomp else []
        cli.main(["infer", "--rule", rule, "--n", n, "--format", "csv", *kind])
        if hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() != expected:
            changed.append(" ".join([rule, n, *noncomp]))
    _report(11, "infer CSV output byte-identical to the pinned digests", not changed,
            "" if not changed else f" changed: {changed}")


# sha256 of the concatenated ``check`` output over n = 0..8, each n as LIA
# and then QLIA with --noncomp 1..n-1, each in json and then text format
CHECK_SHA256 = "e4118c9cbf307ba54569e71f32751dbc7b4846be07d4a3910930f294bc562296"


def test_criterion_12_check_output_is_pinned(capsys):
    digest = hashlib.sha256()
    for n in range(9):
        for kind in [[]] + [["--qlia", "--noncomp", str(i)] for i in range(1, n)]:
            for fmt in ("json", "text"):
                cli.main(["check", "--n", str(n), "--format", fmt, *kind])
                digest.update(capsys.readouterr().out.encode())
    ok = digest.hexdigest() == CHECK_SHA256
    _report(12, "check output byte-identical to the pinned digest", ok,
            "" if ok else f" got {digest.hexdigest()}")


def test_criterion_13_column_direct_is_schema_evaluation():
    # inference_table evaluates the schemas over the operation tables;
    # formula.evaluate through mp_direct/mt_direct is the reference
    mismatches = []
    for config in PLAIN_CONFIGS + QUASI_CONFIGS:
        for rule, direct in ((RuleId.MP, mp_direct), (RuleId.MT, mt_direct)):
            for row in inference_table(config, rule):
                if row.direct != direct(config, row.p, row.q):
                    mismatches.append((config.kind, config.n, config.noncomparable,
                                       row.to_dict()))
    _report(13, "column-wise direct values equal formula evaluation", not mismatches,
            "" if not mismatches else f" {mismatches[:3]}")


# sha256 of the concatenated ``hasse`` output over n = 0..8, each n as LIA
# and then QLIA with --noncomp 1..n-1, each in dot and then json format
HASSE_SHA256 = "84894ba47b80f4b770fff1c7335200ef704ab0a90112a44a251f61ad8117f0b6"


def test_criterion_14_hasse_output_is_pinned(capsys):
    digest = hashlib.sha256()
    for n in range(9):
        for kind in [[]] + [["--qlia", "--noncomp", str(i)] for i in range(1, n)]:
            for fmt in ("dot", "json"):
                cli.main(["hasse", "--n", str(n), "--format", fmt, *kind])
                digest.update(capsys.readouterr().out.encode())
    ok = digest.hexdigest() == HASSE_SHA256
    _report(14, "hasse output byte-identical to the pinned digest", ok,
            "" if ok else f" got {digest.hexdigest()}")


# sha256 of the concatenated ``infer`` output over n = 0..8, each n as LIA
# and then QLIA with --noncomp 1..n-1, each in json and then text format
INFER_JSON_TEXT_SHA256 = {
    "mp": "39b854286a1a5edcce0f6c6dbd75ca35e1a7b126a701b1a04e9495d8db5c45e7",
    "mt": "29e82e8a92657d4490d64e82d2ba9aefba710914097650987faf0a6935299901",
}


# sha256 of ``infer --format json`` at sizes the ``tables`` benchmark runs
INFER_JSON_LARGE_SHA256 = {
    ("mp", "72", "30"): "bd95fca7b3c09de6a410439f642fe993fefac04b98f60b5351bcb50b0ab60608",
    ("mt", "96"): "23b8215c365f6abea267913f06cb1f3153a13c1f3c1532a66a95c20cff02a28b",
}


def test_criterion_15_infer_json_and_text_are_pinned(capsys):
    changed = []
    for rule, expected in INFER_JSON_TEXT_SHA256.items():
        digest = hashlib.sha256()
        for n in range(9):
            for kind in [[]] + [["--qlia", "--noncomp", str(i)] for i in range(1, n)]:
                for fmt in ("json", "text"):
                    cli.main(["infer", "--rule", rule, "--n", str(n), "--format", fmt, *kind])
                    digest.update(capsys.readouterr().out.encode())
        if digest.hexdigest() != expected:
            changed.append(rule)
    for (rule, n, *noncomp), expected in INFER_JSON_LARGE_SHA256.items():
        kind = ["--qlia", "--noncomp", *noncomp] if noncomp else []
        cli.main(["infer", "--rule", rule, "--n", n, "--format", "json", *kind])
        if hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() != expected:
            changed.append(" ".join([rule, n, *noncomp, "json"]))
    _report(15, "infer JSON and text output byte-identical to the pinned digests",
            not changed, "" if not changed else f" changed: {changed}")


# pieces of the criterion 16 strings: operands (with the prefix operators
# and '('), operators (with ')'), the glue between tokens (none, so that
# neighbours can fuse, or whitespace), and characters no formula contains
_OPERANDS = ("P", "Q", "x1", "_a", "!", "~", "(")
_OPERATORS = ("&", "|", "->", ")")
_GLUE = ("", "", " ", "  ", "\t")
_BAD = ("-", ">", "+", "9", "é", "=", "\n#")


def _parser_corpus(count: int, seed: int):
    """Random strings of tokens and bad characters.  Each piece is drawn
    from the class the grammar expects next 95 % of the time, and open
    parentheses are closed at the end, so about one string in nine parses."""
    rng = random.Random(seed)
    for _ in range(count):
        pieces, operand = [], True
        for _ in range(rng.randint(0, 24)):
            r = rng.random()
            if r < 0.02:
                token = rng.choice(_BAD)
            else:
                token = rng.choice(_OPERANDS if operand == (r < 0.95) else _OPERATORS)
            operand = token not in ("P", "Q", "x1", "_a", ")")
            pieces += (token, rng.choice(_GLUE))
        pieces += ")" * (pieces.count("(") - pieces.count(")"))
        yield "".join(pieces)


def _parse_outcome(text: str) -> str:
    try:
        return "ok\t" + render(parse(text))
    except ParseError as exc:
        return f"err\t{exc}\t{exc.position}"


# sha256 of the newline-joined outcomes of parsing each string of
# ``_parser_corpus(100_000, 20261018)``: its canonical text, or the
# ParseError's message and offset; computed with the recursive-descent
# parser that the iterative one replaced
PARSER_CORPUS_SHA256 = "b4aa6effde8fdb1a3a47e6914700e9fa4b9d9aba9b4101586b5b3c429a227c6c"


def test_criterion_16_parser_outcomes_are_pinned():
    outcomes = "\n".join(map(_parse_outcome, _parser_corpus(100_000, 20261018)))
    digest = hashlib.sha256(outcomes.encode()).hexdigest()
    ok = digest == PARSER_CORPUS_SHA256
    _report(16, "parse and render outcomes on 100000 random strings pinned", ok,
            "" if ok else f" got {digest}")


# sha256 of ``verify-examples`` output in each format
VERIFY_EXAMPLES_SHA256 = {
    "text": "0a44e1bc0eeff3d1a4630c8da82c8e0e0406b45ae78246f0db8e463c2e1aea59",
    "json": "0ec2144881f17e0de5a8cfe89ef19d74328316c7d7e195cf40cee2bf9cf13082",
}


def test_criterion_17_verify_examples_output_is_pinned(capsys):
    changed = []
    for fmt, expected in VERIFY_EXAMPLES_SHA256.items():
        code = cli.main(["verify-examples", "--format", fmt])
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        if (code, digest) != (0, expected):
            changed.append(f"{fmt}: exit {code}, sha256 {digest}")
    _report(17, "verify-examples output byte-identical to the pinned digests", not changed,
            "" if not changed else f" got {changed}")


if __name__ == "__main__":
    pytest.main([__file__, "-s", "-v"])
