"""Exhaustive sweep over every config with n in a range, outside the test
suite, which checks every config only up to n = 32.

For each config, LIA n and QLIA (n, i) for every 1 <= i < n, in that order:

* ``lingtruth check --format json`` (witnesses capped at the default 10)
  must exit 0, its whole verdict;
* in QLIA, its I6 and I7 counts must equal the quadratic forms of
  ``test_axioms._quasi_counts``, which share no code with the checker;
* every entry of its ``implies`` and ``negate`` rows must equal an
  independent coding, computed a row at a time once per n (both kinds
  share them): the four cases of ``test_lattice.paper_implies``, and
  negation as the value of the same grade and the other polarity;
* the MP and MT inference tables must have no row whose direct value
  differs from its closed form.

It prints one line per n, and at the end one sha256 over every ``check``
report in sweep order, so a later run can tell a changed report from a
changed verdict.  ``--shard K/M`` runs only the configs whose place in the
sweep order is K modulo M, to split the work over processes; its digest
covers those reports alone.  Exits 1 if any config fails.

    PYTHONPATH=src python tests/sweep.py 0 64
    PYTHONPATH=src python tests/sweep.py 0 127 --shard 1/4
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import sys
import time

from test_axioms import _quasi_counts
from test_lattice import paper_implies

from lingtruth import cli
from lingtruth.inference import RuleId, inference_table
from lingtruth.lattice import LinguisticValue, Polarity, lia, qlia


def _shard(text):
    k, _, m = text.partition("/")
    k, m = int(k), int(m)
    if not 0 <= k < m:
        raise argparse.ArgumentTypeError(f"want K/M with 0 <= K < M, got {text!r}")
    return k, m


def reference_rows(n):
    """(``implies`` rows, ``negate``) of chain length n as carrier indices,
    with the carrier written out in carrier order: the false grades n down
    to 0, then the true grades 0 up to n."""
    values = [*(LinguisticValue(g, Polarity.F) for g in range(n, -1, -1)),
              *(LinguisticValue(g, Polarity.T) for g in range(n + 1))]
    index = {value: x for x, value in enumerate(values)}
    implies = [[index[paper_implies(n, a, b)] for b in values] for a in values]
    other = {Polarity.F: Polarity.T, Polarity.T: Polarity.F}
    negate = [index[LinguisticValue(v.grade, other[v.polarity])] for v in values]
    return implies, negate


def operation_faults(config, reference):
    """Each entry of the config's ``implies`` and ``negate`` rows that
    differs from ``reference_rows``, at most three of each."""
    implies, negate = reference
    rows = config.tables
    wrong = [f"implies[{x}][{y}] = {got}, expected {want}"
             for x, (row, expected) in enumerate(zip(rows.implies, implies)) if [*row] != expected
             for y, (got, want) in enumerate(zip(row, expected)) if got != want][:3]
    return wrong + [f"negate[{x}] = {got}, expected {want}"
                    for x, (got, want) in enumerate(zip(rows.negate, negate)) if got != want][:3]


def failures(config, reference):
    """What is wrong with one config, given ``reference_rows(config.n)``,
    and its ``check`` report."""
    argv = ["check", "--n", str(config.n), "--format", "json"]
    if config.noncomparable is not None:
        argv += ["--qlia", "--noncomp", str(config.noncomparable)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    report, wrong = out.getvalue(), []
    if code != 0:
        wrong.append(f"check exits {code}")
    if config.noncomparable is not None:
        counts = {a["axiom"]: a["total_violations"] for a in json.loads(report)["axioms"]}
        if (counts["I6"], counts["I7"]) != _quasi_counts(config.n, config.noncomparable):
            wrong.append(f"I6/I7 counts {counts['I6']}/{counts['I7']}")
    for rule in RuleId:
        if inference_table(config, rule).disagreements():
            wrong.append(f"{rule.value} direct and closed values differ")
    return wrong + operation_faults(config, reference), report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("low", type=int, help="least n")
    parser.add_argument("high", type=int, help="greatest n")
    parser.add_argument("--shard", type=_shard, default=(0, 1), metavar="K/M")
    args = parser.parse_args(argv)
    k, m = args.shard
    digest, places, reports, failed = hashlib.sha256(), itertools.count(), 0, 0
    for n in range(args.low, args.high + 1):
        start, configs, bad, reference = time.perf_counter(), 0, 0, None
        for config in [lia(n), *(qlia(n, i) for i in range(1, n))]:
            if next(places) % m != k:
                continue
            reference = reference or reference_rows(n)
            wrong, report = failures(config, reference)
            digest.update(report.encode())
            configs += 1
            if wrong:
                bad += 1
                print(f"FAIL {config}: {'; '.join(wrong)}", file=sys.stderr)
        reports, failed = reports + configs, failed + bad
        print(f"n={n} configs={configs} failed={bad} seconds={time.perf_counter() - start:.2f}",
              flush=True)
    print(f"sha256 {digest.hexdigest()} over {reports} reports, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
