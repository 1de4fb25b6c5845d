"""Command-line front end.

Subcommands:

    check            axiom suite, lattice laws, oracle cross-check, classify
    eval             evaluate a formula under explicit atom assignments
    infer            materialize the MP or MT table for a whole carrier
    verify-examples  recompute the eight reference inferences
    hasse            export the carrier's cover graph (DOT or JSON)
    discrepancies    print the case-table correction notes as JSON

Exit codes: 0 success, 1 verification failure (any failed check), 2 usage,
config or output error (a closed stdout is an output error), running out
of memory (``error: out of memory``) or an n too large for a list
(``error: too large: ...``).  All output goes to stdout, diagnostics to
stderr.

``main`` builds the argument parser on its first call and reuses it for
every later call in the process; parsing leaves no state in it.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import operator
import os
import sys

from . import __version__
from .axioms import (
    Axiom,
    check_all_axioms,
    check_involution,
    check_lattice_laws,
    classify,
)
from .discrepancies import STATEMENT_NOTES
from .errors import DomainError, ParseError, UnboundAtomError
from .formula import _ATOM_RE, Valuation, evaluate, parse
from .inference import RuleId, inference_table, verify_examples
from .lattice import AlgebraConfig, canonical, default_labels
from .oracle import build_covers, cross_check_ops, to_dot, to_json_dict, verify_lattice


def _algebra_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--n", type=int, default=4, help="maximum hedge grade (default 4)")
    parent.add_argument(
        "--qlia",
        action="store_true",
        help="use the quasi kind (one non-comparable pair)",
    )
    parent.add_argument(
        "--noncomp",
        type=int,
        default=None,
        metavar="I",
        help="non-comparable index (required with --qlia)",
    )
    parent.add_argument(
        "--labels",
        default=None,
        help="comma-separated hedge names, weakest first (n+1 of them)",
    )
    return parent


def _build_algebra(args) -> AlgebraConfig:
    if args.qlia and args.noncomp is None:
        raise DomainError("--qlia requires --noncomp")
    if not args.qlia and args.noncomp is not None:
        raise DomainError("--noncomp only makes sense with --qlia")
    if args.labels is not None:
        labels = tuple(name.strip() for name in args.labels.split(","))
    else:
        labels = default_labels(args.n)
    return AlgebraConfig(
        n=args.n,
        noncomparable=args.noncomp if args.qlia else None,
        labels=labels,
    )


def _count(text: str) -> int:
    """A non-negative int option value; anything else is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


# line breaks as repr writes them, for the arguments argparse echoes as they are
_LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # the usage text, then the error on one line
        super().error(message.translate(_LINE_BREAKS))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lingtruth",
        description="linguistic truth-valued propositional logic toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    algebra = _algebra_parent()

    p_check = sub.add_parser(
        "check",
        parents=[algebra],
        help="run the axiom suite and oracle cross-check",
    )
    p_check.add_argument("--format", choices=["text", "json"], default="text")
    p_check.add_argument(
        "--max-witnesses",
        type=_count,
        default=10,
        help="counterexamples kept per report entry (default 10)",
    )

    p_eval = sub.add_parser(
        "eval",
        parents=[algebra],
        help="evaluate a formula, e.g. \"(P & (P -> Q)) -> Q\"",
    )
    p_eval.add_argument("formula", help="formula text")
    p_eval.add_argument(
        "-a",
        "--assign",
        action="append",
        default=[],
        metavar="NAME=v3T",
        help="atom assignment (repeatable)",
    )
    p_eval.add_argument("--format", choices=["text", "json"], default="text")

    p_infer = sub.add_parser(
        "infer",
        parents=[algebra],
        help="materialize an inference-rule table over the carrier",
    )
    p_infer.add_argument("--rule", choices=["mp", "mt"], required=True)
    p_infer.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_infer.add_argument(
        "--diff-only",
        action="store_true",
        help="emit only rows where direct and closed-form values disagree",
    )

    p_examples = sub.add_parser(
        "verify-examples",
        help="recompute the eight reference inferences (n=4; quasi index 2)",
    )
    p_examples.add_argument("--format", choices=["text", "json"], default="text")

    p_hasse = sub.add_parser(
        "hasse",
        parents=[algebra],
        help="export the carrier's cover graph",
    )
    p_hasse.add_argument("--format", choices=["dot", "json"], default="dot")

    sub.add_parser(
        "discrepancies",
        help="print the machine-readable case-table correction notes",
    )

    return parser


# ----------------------------------------------------------------------
# Commands


def _axiom_headline(kind: str, results) -> str:
    held = [a.value for a in Axiom if results[a].holds]
    failed = [a.value for a in Axiom if not results[a].holds]
    if not failed:
        return f"{kind}: I1..I7 hold"
    if held == [f"I{i}" for i in range(1, len(held) + 1)]:
        held_text = f"I1..I{len(held)}" if len(held) > 1 else "I1"
    else:
        held_text = ",".join(held)
    return f"{kind}: {held_text} hold; {','.join(failed)} fail"


def cmd_check(args) -> int:
    config = _build_algebra(args)
    cap = args.max_witnesses
    axioms = check_all_axioms(config, max_witnesses=cap)
    laws = check_lattice_laws(config, max_witnesses=cap)
    involution = check_involution(config, max_witnesses=cap)
    classification = classify(axioms)
    graph = build_covers(config)
    lattice_report = verify_lattice(graph)
    oracle_report = cross_check_ops(graph)
    # in the quasi kind negation reverses the order but at one pair: v_(n-i)F
    # <= v_iT through its cross link, while v_iF and v_(n-i)T are not
    # comparable; for 2i = n that pair is its own mirror and none fails.
    # v_iF -> v_(n-i)T = top though the two are not comparable, the one pair
    # where residuation does not read the order; they sit at n-i and 2n+1-i
    n, i = config.n, config.noncomparable
    exceptions = [] if i is None else [(graph.elements[n - i], graph.elements[2 * n + 1 - i])]
    ok = (classification.value == config.kind and oracle_report.clean
          and oracle_report.residuation_exceptions == exceptions
          and all(law.holds for law in laws) and lattice_report.is_lattice
          and involution.total_violations == (i is not None and 2 * i != n))

    if args.format == "json":
        payload = {
            "n": config.n,
            "noncomparable": config.noncomparable,
            "requested": config.kind,
            "classification": classification.value,
            "axioms": [axioms[a].to_dict() for a in Axiom],
            "laws": [law.to_dict() for law in laws],
            "involution": involution.to_dict(),
            "lattice": lattice_report.to_dict(),
            "oracle": oracle_report.to_dict(),
            "ok": ok,
        }
        print(_json(payload))
    else:
        print(_axiom_headline(classification.value, axioms))
        law_failures = [law.name for law in laws if not law.holds]
        print(
            "lattice laws: all hold"
            if not law_failures
            else f"lattice laws: {','.join(law_failures)} fail"
        )
        print(f"involution: {'holds' if involution.holds else 'fails'}")
        print(
            "bounds: every pair has a unique join and meet"
            if lattice_report.is_lattice
            else f"bounds: {len(lattice_report.missing_joins)} join / "
            f"{len(lattice_report.missing_meets)} meet defects"
        )
        print(
            "oracle: closed forms agree on every pair"
            if oracle_report.clean
            else f"oracle: {len(oracle_report.implemented)} mismatches"
        )
        if oracle_report.residuation_exceptions != exceptions:
            print(f"residuation: fails at {len(oracle_report.residuation_exceptions)} pairs "
                  f"(expected {len(exceptions)})")
        if oracle_report.stated:
            print(
                f"stated-form deviations vs oracle: {len(oracle_report.stated)} "
                "pairs (see discrepancies)"
            )
        print(f"classification: {classification.value} (requested {config.kind})")
    return 0 if ok else 1


def _json(value, indent="\n") -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it, ``indent``
    being the line break and indent of the line it starts on: dicts with
    string keys, lists and tuples are laid out here, strings quoted by
    ``json``'s C quoter, ints, bools and None written as ``json`` writes
    them, and any other value by ``json.dumps``."""
    if type(value) is str:
        return _quote(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        items = [f"{_quote(key)}: {_json(item, inner)}" for key, item in value.items()]
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        return f"[{inner}{(',' + inner).join([_json(item, inner) for item in value])}{indent}]"
    return _SCALARS.get(type(value), json.dumps)(value)


_quote = json.encoder.encode_basestring_ascii
_SCALARS = {int: int.__repr__, bool: {True: "true", False: "false"}.__getitem__,
            type(None): lambda _: "null"}


def _parse_assignments(config, pairs):
    assignment = {}
    for item in pairs:
        name, sep, value_text = item.partition("=")
        if not sep or not name:
            raise DomainError(f"bad assignment {item!r}, expected NAME=v3T")
        name = name.strip()
        if not _ATOM_RE.fullmatch(name):
            raise DomainError(f"bad assignment {item!r}: {name!r} is not an atom name")
        if name in assignment:
            raise DomainError(f"atom {name!r} is assigned more than once")
        assignment[name] = config.parse_value(value_text)
    return assignment


def cmd_eval(args) -> int:
    config = _build_algebra(args)
    node = parse(args.formula)
    valuation = Valuation(config, _parse_assignments(config, args.assign))
    value = evaluate(node, valuation)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "formula": str(node),
                    "value": canonical(value),
                    "label": config.label(value),
                }
            )
        )
    else:
        print(config.describe(value))
    return 0


def _csv_field(text: str) -> str:
    """``text`` as a CSV field: quoted when it holds a comma (some branch
    labels), else as it is.  No carrier value, rule name or branch label
    holds a quote, CR or LF, or is empty."""
    return f'"{text}"' if "," in text else text


def _row_chunks(table, keys, quote, seps, agree, between="") -> list[str]:
    """The rows in ``keys`` as text, ``between`` between rows: seps[0], then
    the row's e(P), e(Q), direct, closed and branch texts, each followed by
    the next string of ``seps``, then ``agree[True]`` or ``agree[False]``.
    ``keys`` is every row of the table or, ascending, the rows whose direct
    and closed values differ.

    Each carrier value and branch label goes through ``quote`` once per
    table, pre-joined to the separators around it: an e(P) text, an e(Q)
    text, a "direct, closed" text per carrier value with both the same, a
    direct and a closed text for the values of a split row, and a "branch,
    agree, between" text per label and agreement.  Nothing follows the last
    row.  There are two paths:

    * the whole table: one chunk per e(P) block (the 2n + 2 rows sharing an
      e(P)), four slots a row of a list filled from slices of the three
      columns with ``itemgetter``, and one join.  The rows whose direct and
      closed values differ get those two slots patched with the split texts
      and ``agree[False]`` before the join;
    * fewer rows (``--diff-only``): they are the disagreements, so each is a
      split row, joined as one chunk from its five texts."""
    values = [quote(canonical(v)) for v in table.values]
    size = len(values)
    p_text = [seps[0] + v + seps[1] for v in values]
    q_text = [v + seps[2] for v in values]
    direct_text = [v + seps[3] for v in values]
    closed_text = [v + seps[4] for v in values]
    tails = [quote(str(label)) + seps[5] for label in table.labels]
    split = [tail + agree[False] + between for tail in tails]
    if len(keys) < len(table):
        direct, closed, branch = table.direct, table.closed, table.branch
        chunks = [p_text[k // size] + q_text[k % size] + direct_text[direct[k]]
                  + closed_text[closed[k]] + split[branch[k]] for k in keys]
    else:
        same_text = [v + seps[3] + v + seps[4] for v in values]
        agreed = [tail + agree[True] + between for tail in tails]
        chunks = []
        for p, start in enumerate(range(0, len(table), size)):
            block = slice(start, start + size)
            direct, closed, branch = table.direct[block], table.closed[block], table.branch[block]
            slots = [p_text[p]] * (4 * size)
            slots[1::4] = q_text
            slots[2::4] = operator.itemgetter(*closed)(same_text)
            slots[3::4] = operator.itemgetter(*branch)(agreed)
            if direct != closed:
                for j in itertools.compress(range(size), map(operator.ne, direct, closed)):
                    slots[4 * j + 2] = direct_text[direct[j]] + closed_text[closed[j]]
                    slots[4 * j + 3] = split[branch[j]]
            chunks.append("".join(slots))
    if chunks:  # nothing follows the last row
        chunks[-1] = chunks[-1].removesuffix(between)
    return chunks


def _rows_csv(table, keys) -> str:
    rule = _csv_field(table.rule.value)
    chunks = _row_chunks(table, keys, _csv_field, ("", ",", f",{rule},", ",", ",", ","),
                         {True: "true\r\n", False: "false\r\n"})
    return "".join(["p,q,rule,direct,closed,branch,agree\r\n", *chunks])


def _rows_json(table, keys) -> str:
    """The rows as ``json.dumps([row.to_dict() ...], indent=2)`` writes them."""
    if not keys:
        return "[]"
    seps = ('  {\n    "p": ', ',\n    "q": ',
            f',\n    "rule": {json.dumps(table.rule.value)},\n    "direct": ',
            ',\n    "closed": ', ',\n    "branch": ', ',\n    "agree": ')
    chunks = _row_chunks(table, keys, json.dumps, seps,
                         {True: "true\n  }", False: "false\n  }"}, ",\n")
    return "".join(["[\n", *chunks, "\n]"])


def _rows_grid(table) -> str:
    config = table.config
    names = [canonical(v) for v in table.values]
    size = len(names)
    width = max(map(len, names)) + 2
    lines = [f"{table.rule.value} table, {config.kind} n={config.n}"
             f"{'' if config.noncomparable is None else f' i={config.noncomparable}'}"
             " (rows e(P), columns e(Q))"]
    header = " " * width + "".join(name.rjust(width) for name in names)
    lines.append(header)
    disagreements = set(table.disagreements())
    cells = [(names[c] + ("*" if k in disagreements else "")).rjust(width)
             for k, c in enumerate(table.closed)]
    # the rows are in carrier order: e(P) = values[k] for rows k*size ... (k+1)*size - 1
    for k, name in enumerate(names):
        lines.append(name.rjust(width) + "".join(cells[k * size:(k + 1) * size]))
    lines.append(
        "all rows: direct evaluation matches the closed form"
        if not disagreements
        else f"*{len(disagreements)} rows disagree with direct evaluation"
    )
    if config.labels is not None:
        legend = ", ".join(f"v{g}={name}" for g, name in enumerate(config.labels))
        lines.append(f"hedges: {legend}")
    return "\n".join(lines)


def cmd_infer(args) -> int:
    config = _build_algebra(args)
    rule = RuleId.MP if args.rule == "mp" else RuleId.MT
    table = inference_table(config, rule)
    keys = table.disagreements() if args.diff_only else range(len(table))
    if args.format == "json":
        print(_rows_json(table, keys))
    elif args.format == "csv":
        sys.stdout.write(_rows_csv(table, keys))
    elif args.diff_only:
        chunks = _row_chunks(table, keys, str,
                             ("", " ", f" {rule.value} direct=", " closed=", " branch=", "\n"),
                             {True: "", False: ""})
        print(f"{''.join(chunks)}{len(keys)} disagreements")
    else:
        print(_rows_grid(table))
    return 1 if args.diff_only and keys else 0


def cmd_verify_examples(args) -> int:
    report = verify_examples()
    if args.format == "json":
        print(_json(report.to_dicts()))
    else:
        for check in report.checks:
            d = check.to_dict()
            status = "pass" if check.passed else "FAIL"
            print(
                f"example {d['example']} [{d['kind']}] P={d['p']} Q={d['q']}: "
                f"MP={d['mp']} (expected {d['expected_mp']}), "
                f"MT={d['mt']} (expected {d['expected_mt']})  {status}"
            )
        passed = sum(1 for c in report.checks if c.passed)
        print(f"{passed}/{len(report.checks)} examples pass")
    return 0 if report.all_passed else 1


def cmd_hasse(args) -> int:
    config = _build_algebra(args)
    graph = build_covers(config)
    if args.format == "json":
        print(_json(to_json_dict(graph)))
    else:
        print(to_dot(graph))
    return 0


def cmd_discrepancies(args) -> int:
    print(_json([note.to_dict() for note in STATEMENT_NOTES]))
    return 0


_COMMANDS = {
    "check": cmd_check,
    "eval": cmd_eval,
    "infer": cmd_infer,
    "verify-examples": cmd_verify_examples,
    "hasse": cmd_hasse,
    "discrepancies": cmd_discrepancies,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads every command line with, built on first use."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    out_of_memory = False
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except (DomainError, ParseError, UnboundAtomError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except MemoryError:
        out_of_memory = True  # reported below, once the failed command's frames are freed
    except OverflowError as exc:  # a size past what a Python list can index
        print(f"error: too large: {exc}", file=sys.stderr)
    except BrokenPipeError:
        # the reader went away; send the unwritten rest to devnull so the
        # flush at interpreter exit is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if out_of_memory:
        print("error: out of memory", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
