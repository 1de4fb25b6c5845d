"""Exhaustive sweep over every config with n in a range, outside the test
suite, which checks every config only up to n = 32.

For each config, LIA n and QLIA (n, i) for every 1 <= i < n, in that order:

* ``lingtruth check --format json`` (witnesses capped at the default 10)
  must exit 0, its whole verdict;
* in QLIA, its I6 and I7 counts must equal the quadratic forms of
  ``test_axioms._quasi_counts``, which share no code with the checker;
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

from lingtruth import cli
from lingtruth.inference import RuleId, inference_table
from lingtruth.lattice import lia, qlia


def _shard(text):
    k, _, m = text.partition("/")
    k, m = int(k), int(m)
    if not 0 <= k < m:
        raise argparse.ArgumentTypeError(f"want K/M with 0 <= K < M, got {text!r}")
    return k, m


def failures(config):
    """What is wrong with one config, and its ``check`` report."""
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
    return wrong, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("low", type=int, help="least n")
    parser.add_argument("high", type=int, help="greatest n")
    parser.add_argument("--shard", type=_shard, default=(0, 1), metavar="K/M")
    args = parser.parse_args(argv)
    k, m = args.shard
    digest, places, reports, failed = hashlib.sha256(), itertools.count(), 0, 0
    for n in range(args.low, args.high + 1):
        start, configs, bad = time.perf_counter(), 0, 0
        for config in [lia(n), *(qlia(n, i) for i in range(1, n))]:
            if next(places) % m != k:
                continue
            wrong, report = failures(config)
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
