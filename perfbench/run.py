"""The lingtruth benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload verify|tables|formulas --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; lingtruth is imported from its
``src`` directory and from nowhere else.  With ``--trace 0`` the workload
runs untraced for S seconds and the last line of standard output is a JSON
object with the end-to-end metrics.  With ``--trace 1`` a fixed prefix of
the same op stream runs twice, untraced and traced, op by op in alternating
order, and the JSON object carries the per-layer metrics.  Both write a
report with every op's output fingerprint and work counts (and, traced, the
spans) to ``.perfbench-out/``.  The exit code is 0 when every answer checks
out, 1 when one does not and 2 when the checkout has no lingtruth.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

SETUP_RUNS = 9
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import lingtruth, lingtruth.cli; print(time.perf_counter() - t)"
)
MICRO_VALUES = 40  # carrier values per config in the per-call timings
MICRO_CONFIGS = 6
KEPT_OPS = 1000


def measure_setup() -> list[float]:
    """Import time of lingtruth and lingtruth.cli, each in a fresh
    interpreter; the first one, which may compile bytecode, is dropped."""
    samples = []
    for k in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        if k:
            samples.append(float(done.stdout))
    return samples


class Tally:
    """Outcomes of the ops of one run, in op order; inputs and fingerprints
    are kept for the first ``KEPT_OPS`` ops."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.counts: dict[str, int] = {}
        self.records: list[dict] = []

    def add(self, op, outcome) -> None:
        self.attempted += 1
        self.failed += outcome.failed
        for name, value in outcome.counts.items():
            self.counts[name] = self.counts.get(name, 0) + value
        self.wrong.extend(f"op {op.index} ({op.label}): {w}" for w in outcome.wrong[:3])
        if len(self.records) < KEPT_OPS:
            self.records.append({"op": op.index, "input": op.label, "sha256": outcome.digest,
                                 "failed": outcome.failed, "counts": outcome.counts})

    def fingerprint(self, ops: int) -> str:
        joined = "".join(record["sha256"] for record in self.records[:ops])
        return hashlib.sha256(joined.encode()).hexdigest()


def timed(workload, op, call):
    t0 = perf_counter()
    result = workload.run(op, call)
    return perf_counter() - t0, result


def untraced_run(workload, seconds: float, direct) -> tuple[dict, Tally, dict]:
    setup = measure_setup()
    workload.warm_up(direct)
    tally = Tally()
    times = array("d")
    size = 0
    stream = workload.ops()
    start = perf_counter()
    while perf_counter() - start < seconds:
        op = next(stream)
        elapsed, result = timed(workload, op, direct)
        times.append(elapsed)
        size += workload.size(op)
        tally.add(op, workload.check(op, result))
    busy = sum(times)
    p50, rate = statistics.median(times), len(times) / busy
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_ms_p50": (p50 * 1e3, "ms"),
        "ops_per_s": (rate, "1/s"),
        "items_per_s": (size / busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    # the same figures under the names each workload's users know them by
    named = {
        "verify": [("verdict_s_p50", p50, "s"), ("verdicts_per_s", rate, "1/s")],
        "tables": [("table_s_p50", p50, "s"), ("rows_per_s", size / busy, "1/s")],
        "formulas": [("eval_us_p50", p50 * 1e6, "us"), ("evals_per_s", rate, "1/s")],
    }[workload.name]
    counts = f"{tally.failed} failed / {tally.attempted} attempted"
    named.append(("failed_share", tally.failed / tally.attempted, f"share ({counts})"))
    detail = {"samples": len(times), "busy_s": busy, "setup_samples_s": setup,
              "named_metrics": {name: value for name, value, _ in named}}
    print(f"{workload.name}: {len(times)} ops in {busy:.2f} s busy, closed loop, one client")
    for name, value, unit in named:
        print(f"  {workload.name}.{name} = {value:.6g} {unit}")
    return metrics, tally, detail


# ----------------------------------------------------------------------
# Traced run


def micro_timings(configs) -> dict:
    """Per-call cost of single operations over all ordered pairs of at most
    ``MICRO_VALUES`` carrier values of each config, median of three passes."""
    from lingtruth import AlgebraConfig, HedgeChain
    from lingtruth.inference import mp_closed, mp_direct, mt_closed, mt_direct

    def per_call(jobs) -> float:
        calls = sum(len(args) for _, args in jobs)
        passes = []
        for _ in range(3):
            spent = 0.0
            for fn, args in jobs:
                t0 = perf_counter()
                for a in args:
                    fn(*a)
                spent += perf_counter() - t0
            passes.append(spent / calls)
        return statistics.median(passes)

    prepared = []
    for n, removed in configs:
        config = AlgebraConfig(n, removed)
        values = config.values()
        if len(values) > MICRO_VALUES:
            values = [values[k * len(values) // MICRO_VALUES] for k in range(MICRO_VALUES)]
        prepared.append((config, values, [(a, b) for a in values for b in values]))
    jobs = {
        f"lattice.{op}_ns": [(getattr(c, op), pairs) for c, _, pairs in prepared]
        for op in ("join", "meet", "implies", "leq")
    }
    jobs["lattice.negate_ns"] = [(c.negate, [(v,) for v in values]) for c, values, _ in prepared]
    jobs["lattice.config_us"] = [
        (AlgebraConfig, [(c.n, c.noncomparable)] * 200) for c, _, _ in prepared
    ]
    jobs["lattice.parse_value_us"] = [
        (c.parse_value, [(str(v),) for v in values]) for c, values, _ in prepared
    ]
    jobs["hedges.implies_ns"] = [
        (HedgeChain(c.n).implies, [(a.grade, b.grade) for a, b in pairs])
        for c, _, pairs in prepared
    ]
    for name, fn in (("mp_closed_ns", mp_closed), ("mt_closed_ns", mt_closed),
                     ("mp_direct_us", mp_direct), ("mt_direct_us", mt_direct)):
        jobs[f"inference.{name}"] = [(fn, [(c, a, b) for a, b in pairs]) for c, _, pairs in prepared]
    scale = {"ns": 1e9, "us": 1e6}
    return {
        name: (per_call(job) * scale[name[-2:]], name[-2:]) for name, job in jobs.items()
    }


def traced_run(workload, direct) -> tuple[dict, Tally, dict, object]:
    from spans import Tracer

    tracer = Tracer()
    ops = list(itertools.islice(workload.ops(), workload.traced_ops))
    workload.warm_up(direct)
    tally = Tally()
    plain = traced = 0.0
    mismatched = []
    for op in ops:
        tracer.op_id = op.index
        results = {}
        for tracing in ((False, True) if op.index % 2 == 0 else (True, False)):
            if tracing:
                with tracer.interposed():
                    elapsed, results[True] = timed(workload, op, tracer.call)
                traced += elapsed
            else:
                elapsed, results[False] = timed(workload, op, direct)
                plain += elapsed
        outcome = workload.check(op, results[True])
        if workload.check(op, results[False]).digest != outcome.digest:
            mismatched.append(f"op {op.index}: traced and untraced outputs differ")
        tally.add(op, outcome)
    tally.wrong.extend(mismatched)

    count = len(ops)
    calls, inclusive, layer_self, roots = tracer.summary()
    total, _ = tracer.durations()

    def per_op(ns: float) -> float:
        return ns / count / 1e9

    def spent(name: str) -> float:
        return per_op(inclusive.get(name, 0))

    def own(layer: str) -> float:
        return per_op(layer_self.get(layer, 0))

    def per_call(name: str, scale: float) -> float:
        return inclusive.get(name, 0) / calls[name] / 1e9 * scale if name in calls else 0.0

    def axiom_s(*axioms: str) -> float:
        """Time in the op's own axiom checks, leaving out the repeat inside classify."""
        ids = {tracer.names.index(f"axioms.check_axiom:{a}") for a in axioms
               if f"axioms.check_axiom:{a}" in tracer.names}
        return per_op(sum(total[k] for k, nid in enumerate(tracer.name)
                          if nid in ids and not tracer.inside(k, "axioms.classify")))

    counts = tally.counts
    configs = list(dict.fromkeys((op.n, op.removed) for op in ops))[:MICRO_CONFIGS]
    metrics = {
        "axioms.I1_s": (axiom_s("I1"), "s"),
        "axioms.I6_s": (axiom_s("I6"), "s"),
        "axioms.I7_s": (axiom_s("I7"), "s"),
        "axioms.pair_axioms_s": (axiom_s("I2", "I3", "I4", "I5"), "s"),
        "axioms.laws_s": (spent("axioms.check_lattice_laws"), "s"),
        "axioms.involution_s": (spent("axioms.check_involution"), "s"),
        "axioms.classify_s": (spent("axioms.classify"), "s"),
        "axioms.self_s": (own("axioms"), "s"),
        "axioms.triples": (counts.get("triples", 0), "count"),
        "axioms.violations": (counts.get("violations", 0), "count"),
        "oracle.build_covers_s": (spent("oracle.build_covers"), "s"),
        "oracle.verify_lattice_s": (spent("oracle.verify_lattice"), "s"),
        "oracle.cross_check_ops_s": (spent("oracle.cross_check_ops"), "s"),
        "oracle.self_s": (own("oracle"), "s"),
        "oracle.pairs": (counts.get("pairs", 0), "count"),
        "oracle.stated_mismatches": (counts.get("stated_mismatches", 0), "count"),
        "lattice.self_s": (own("lattice"), "s"),
        "formula.parse_us": (per_call("formula.parse", 1e6), "us"),
        "formula.valuation_us": (per_call("formula.Valuation", 1e6), "us"),
        "formula.evaluate_us": (per_call("formula.evaluate", 1e6), "us"),
        "formula.render_us": (per_call("formula.render", 1e6), "us"),
        "formula.self_s": (own("formula"), "s"),
        "formula.nodes": (counts.get("nodes", 0), "count"),
        "formula.rejected": (counts.get("rejected", 0), "count"),
        "formula.overflowed": (0, "count"),  # set from the deep-nesting probe
        "inference.table_s": (per_call("inference.inference_table", 1), "s"),
        "inference.self_s": (own("inference"), "s"),
        "inference.rows": (counts.get("rows", 0), "count"),
        "inference.disagreements": (counts.get("disagreements", 0), "count"),
        "inference.branches_fired": (counts.get("branches_fired", 0), "count"),
        "cli.main_s": (spent("cli.main"), "s"),
        "cli.format_s": (own("cli"), "s"),
        "cli.output_bytes": (counts.get("output_bytes", 0), "count"),
        "trace.op_wall_s": (plain / count, "s"),
        "trace.overhead_s": ((traced - plain) / count, "s"),
        "trace.unattributed_s": ((traced * 1e9 - roots) / count / 1e9, "s"),
        "trace.spans": (len(tracer.start), "count"),
    }
    metrics.update(micro_timings(configs))
    detail = {
        "ops": count,
        "span_calls": calls,
        "layer_self_s_per_op": {k: per_op(v) for k, v in sorted(layer_self.items())},
    }
    print(f"{workload.name}: {count} ops traced, {len(tracer.start)} spans")
    print(f"  untraced op wall {plain / count:.6g} s = layer self times "
          f"{per_op(sum(layer_self.values())):.6g} s + unattributed "
          f"{metrics['trace.unattributed_s'][0]:.6g} s - tracing overhead "
          f"{metrics['trace.overhead_s'][0]:.6g} s")
    for layer, seconds in detail["layer_self_s_per_op"].items():
        print(f"  {layer} self {seconds:.6g} s per op")
    return metrics, tally, detail, tracer


def deep_probe(workload, tally: Tally, direct) -> dict:
    """Run the workload's deep-nesting requests once, untimed and outside
    the op stream.  A wrong answer makes the run incorrect; an overflow is
    counted and printed, as the known limit of the recursive parser."""
    outcomes = [(op, workload.check(op, workload.run(op, direct))) for op in workload.probes()]
    for op, outcome in outcomes:
        tally.wrong.extend(f"deep probe ({op.label}): {w}" for w in outcome.wrong[:3])
    probe = {
        "requests": len(outcomes),
        "failed": sum(outcome.failed for _, outcome in outcomes),
        "overflowed": sum(outcome.counts.get("overflowed", 0) for _, outcome in outcomes),
    }
    if outcomes:
        print(f"  deep-nesting probe, not ops: {probe['failed']} of {probe['requests']} "
              f"requests 248-400 parentheses deep fail, {probe['overflowed']} "
              "with RecursionError")
    return probe


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["verify", "tables", "formulas"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lingtruth" / "__init__.py").is_file():
        print(f"error: no lingtruth sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lingtruth

    if Path(lingtruth.__file__).resolve().parent != (SRC / "lingtruth").resolve():
        print(f"error: lingtruth imported from {lingtruth.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, check_examples, direct

    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        metrics, tally, detail, tracer = traced_run(workload, direct)
    else:
        metrics, tally, detail = untraced_run(workload, args.seconds, direct)
        tracer = None
    tally.wrong.extend(check_examples())
    probe = deep_probe(workload, tally, direct)
    if args.trace:
        metrics["formula.overflowed"] = (probe["overflowed"], "count")

    fingerprint_ops = min(workload.block, tally.attempted)
    print(f"  fingerprint of the first {fingerprint_ops} ops: "
          f"{tally.fingerprint(fingerprint_ops)}")
    for problem in tally.wrong[:20]:
        print(f"  WRONG {problem}")
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0],
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "detail": detail, "deep_probe": probe, "counts": tally.counts, "wrong": tally.wrong,
        "fingerprint": {"ops": fingerprint_ops, "sha256": tally.fingerprint(fingerprint_ops)},
        "ops": tally.records,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.tsv.gz")

    correct = not tally.wrong
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
