import contextlib
import csv
import functools
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lingtruth import cli
from lingtruth.axioms import CheckResult, Classification
from lingtruth.inference import ExampleReport, InferenceTable, RuleId, inference_table
from lingtruth.lattice import AlgebraConfig, LinguisticValue, canonical, lia
from lingtruth.oracle import LatticeReport

SRC = Path(__file__).resolve().parents[1] / "src"

# formulas nested deeper than the default recursion limit, one per way to nest
DEEP_FORMULAS = {
    "not": "!" * 3000 + "P",
    "parens": "(" * 3000 + "P" + ")" * 3000,
    "implies": " -> ".join(["P"] * 3000),
    "and": " & ".join(["P"] * 3000),
}
# each shape's value at P = v1T with --n 4 (the depth is even)
DEEP_VALUES = {"not": "v1T", "parens": "v1T", "implies": "v4T", "and": "v1T"}


# sha256 of ``lingtruth discrepancies`` stdout
DISCREPANCIES_SHA256 = "2edfbf8d6126ca17786dd3242b15a91b8596b3fd8a63b026ef3fd09846a2716b"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# rows to plant disagreements at, as (e(P) block, e(Q) position), counted
# from the end when negative: several in one block, its first and last
# rows among them; one in each of several blocks; one alone; the last row;
# the first row; every row of n = 8, which --diff-only writes as a whole table
PLANTED = {
    "one-block": [(2, 0), (2, 5), (2, 6), (2, 17)],
    "across-blocks": [(0, 3), (1, 3), (5, 7), (10, 17)],
    "alone": [(7, 4)],
    "last-row": [(1, 1), (-1, -1)],
    "first-row": [(0, 0)],
    "every-row": [(p, q) for p in range(18) for q in range(18)],
}
FIELDS = ("p", "q", "rule", "direct", "closed", "branch", "agree")


def _row_by_row(table, keys, fmt) -> str:
    """``infer`` stdout for the rows in ``keys``, one ``InferenceRow`` at a time."""
    rows = [table[k].to_dict() for k in keys]
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(FIELDS)
        for row in rows:
            writer.writerow([*(row[name] for name in FIELDS[:-1]), str(row["agree"]).lower()])
        return out.getvalue()
    return "".join(f"{row['p']} {row['q']} {row['rule']} direct={row['direct']} "
                   f"closed={row['closed']} branch={row['branch']}\n"
                   for row in rows) + f"{len(rows)} disagreements\n"


class TestCheck:
    def test_plain_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--n", "4")
        assert code == 0
        assert out.startswith("LIA: I1..I7 hold")
        assert "classification: LIA (requested LIA)" in out

    def test_quasi_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--n", "4", "--qlia", "--noncomp", "2")
        assert code == 0
        assert out.startswith("QLIA: I1..I5 hold; I6,I7 fail")

    def test_bad_noncomp_is_config_error(self, capsys):
        code, _, err = run(capsys, "check", "--n", "4", "--qlia", "--noncomp", "4")
        assert code == 2
        assert "error:" in err

    def test_noncomp_requires_qlia(self, capsys):
        code, _, err = run(capsys, "check", "--n", "4", "--noncomp", "2")
        assert code == 2

    @pytest.mark.parametrize("cap", ["-1", "x"])
    def test_bad_witness_cap_is_usage_error(self, capsys, cap):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "--n", "4", "--qlia", "--noncomp", "2",
                      "--max-witnesses", cap, "--format", "json"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "--max-witnesses" in err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "check", "--n", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["classification"] == "LIA"
        assert len(payload["axioms"]) == 7
        assert len(payload["laws"]) == 8

    def test_classification_mismatch_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "classify", lambda results: Classification.NOT_QLIA)
        code, out, _ = run(capsys, "check", "--n", "4")
        assert code == 1

    @pytest.mark.parametrize("name, failing", [
        ("check_lattice_laws",
         lambda config, max_witnesses: [CheckResult("join-commutative", 1, [])]),
        ("check_involution", lambda config, max_witnesses: CheckResult("involution", 1, [])),
        ("verify_lattice", lambda graph: LatticeReport(graph.config, [graph.elements[:2]], [])),
    ], ids=["laws", "involution", "lattice"])
    def test_every_printed_check_is_in_the_verdict(self, capsys, monkeypatch, name, failing):
        """A failed lattice law, involution or lattice certificate fails the
        verdict, as a wrong classification or oracle mismatch does."""
        monkeypatch.setattr(cli, name, failing)
        code, out, _ = run(capsys, "check", "--n", "4", "--format", "json")
        assert code == 1 and json.loads(out)["ok"] is False
        code, out, _ = run(capsys, "check", "--n", "4")
        assert code == 1 and ("fail" in out or "defects" in out)

    @pytest.mark.parametrize("i", [1, 2])
    def test_quasi_involution_is_judged_by_its_one_exception(self, capsys, monkeypatch, i):
        """In QLIA the involution fails at one pair when 2i != n and at none
        when 2i = n; any other count fails the verdict."""
        argv = ["check", "--n", "4", "--qlia", "--noncomp", str(i), "--format", "json"]
        assert run(capsys, *argv)[0] == 0
        real = cli.check_involution
        monkeypatch.setattr(cli, "check_involution", lambda config, max_witnesses: CheckResult(
            "involution", real(config, max_witnesses).total_violations + 1, []))
        code, out, _ = run(capsys, *argv)
        assert code == 1 and json.loads(out)["ok"] is False

    @pytest.mark.parametrize("flags", [[], ["--qlia", "--noncomp", "1"]], ids=["LIA", "QLIA"])
    def test_residuation_is_judged_by_its_exceptions(self, capsys, monkeypatch, flags):
        """Residuation reads the order everywhere but at the quasi kind's
        missing cross link; one more exceptional pair fails the verdict."""
        argv = ["check", "--n", "4", *flags, "--format", "json"]
        assert run(capsys, *argv)[0] == 0
        real = cli.cross_check_ops

        def one_more(graph):
            report = real(graph)
            report.residuation_exceptions.append(graph.elements[:2])
            return report

        monkeypatch.setattr(cli, "cross_check_ops", one_more)
        code, out, _ = run(capsys, *argv)
        assert code == 1 and json.loads(out)["ok"] is False
        code, out, _ = run(capsys, *argv[:-2])
        expected = 1 if flags else 0
        assert code == 1 and f"residuation: fails at {expected + 1} pairs (expected {expected})" in out


class TestEval:
    def test_labeled_output(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--n", "4", "(P & (P -> Q)) -> Q",
            "-a", "P=v3T", "-a", "Q=v2T",
        )
        assert code == 0
        assert out.strip() == "v3T (quite True)"

    def test_self_implication(self, capsys):
        code, out, _ = run(capsys, "eval", "--n", "4", "P -> P", "-a", "P=v1F")
        assert code == 0
        assert out.startswith("v4T")

    def test_unlabeled_chain_prints_indices(self, capsys):
        code, out, _ = run(capsys, "eval", "--n", "3", "P", "-a", "P=v2T")
        assert code == 0
        assert out.strip() == "v2T"

    def test_missing_atom(self, capsys):
        code, _, err = run(capsys, "eval", "--n", "4", "Q", "-a", "P=v1T")
        assert code == 2
        assert "'Q'" in err

    def test_parse_error_reports_offset(self, capsys):
        code, _, err = run(capsys, "eval", "--n", "4", "(P", "-a", "P=v1T")
        assert code == 2
        assert "offset 2" in err

    def test_bad_assignment_syntax(self, capsys):
        code, _, err = run(capsys, "eval", "--n", "4", "P", "-a", "P")
        assert code == 2

    def test_bad_value(self, capsys):
        code, _, err = run(capsys, "eval", "--n", "4", "P", "-a", "P=v9T")
        assert code == 2

    def test_repeated_atom_is_config_error(self, capsys):
        code, out, err = run(capsys, "eval", "--n", "4", "P", "-a", "P=v1T", "-a", "P=v3T")
        assert code == 2
        assert out == ""
        assert "'P'" in err

    def test_leading_zero_grade_is_parse_error(self, capsys):
        code, out, err = run(capsys, "eval", "--n", "4", "P", "-a", "P=v03T")
        assert code == 2
        assert out == ""
        assert "not a truth value" in err

    def test_non_ascii_digit_grade_is_parse_error(self, capsys):
        code, out, err = run(capsys, "eval", "--n", "20", "P", "-a", "P=v1\u0663T")
        assert code == 2
        assert out == ""
        assert "not a truth value" in err

    # this case used to pin a refusal of deep input; it keeps its name
    @pytest.mark.parametrize("shape", DEEP_FORMULAS)
    def test_deep_formula_is_usage_error(self, capsys, shape):
        text = DEEP_FORMULAS[shape]
        code, out, err = run(capsys, "eval", "--n", "4", text, "-a", "P=v1T", "--format", "json")
        assert (code, err) == (0, "")
        value = DEEP_VALUES[shape]
        label = {"v1T": "somewhat True", "v4T": "absolutely True"}[value]
        rendered = "P" if shape == "parens" else text
        assert json.loads(out) == {"formula": rendered, "value": value, "label": label}

    @pytest.mark.parametrize("item", [" =v1T", "9x=v2T", "P Q=v2T"])
    def test_name_no_formula_can_contain_is_config_error(self, capsys, item):
        code, out, err = run(capsys, "eval", "--n", "4", "P", "-a", "P=v1T", "-a", item)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: bad assignment {item!r}") and err.count("\n") == 1

    def test_name_is_stripped_before_the_check(self, capsys):
        code, out, _ = run(capsys, "eval", "--n", "4", "P", "-a", " P =v1T")
        assert (code, out) == (0, "v1T (somewhat True)\n")

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--n", "4", "P->Q", "-a", "P=v0F", "-a", "Q=v2T",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload == {"formula": "P -> Q", "value": "v2T", "label": "rather True"}


class TestInfer:
    def test_csv_row_count(self, capsys):
        code, out, _ = run(capsys, "infer", "--rule", "mp", "--n", "4", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 100
        assert all(row["agree"] == "true" for row in rows)

    def test_json_row_count(self, capsys):
        code, out, _ = run(capsys, "infer", "--rule", "mp", "--n", "1", "--format", "json")
        rows = json.loads(out)
        assert len(rows) == 16
        assert set(rows[0]) == {"p", "q", "rule", "direct", "closed", "branch", "agree"}

    def test_diff_only_is_empty(self, capsys):
        code, out, _ = run(
            capsys, "infer", "--rule", "mt", "--n", "4",
            "--qlia", "--noncomp", "2", "--diff-only",
        )
        assert code == 0
        assert "0 disagreements" in out

    @pytest.fixture(params=["direct", "closed"])
    def disagreement(self, request, monkeypatch):
        """The lia(1) MP table with v1F for v1T at (v0F, v0F) in one column."""
        table = inference_table(lia(1), RuleId.MP)
        getattr(table, request.param)[5] = table.values.index(LinguisticValue.false(1))
        monkeypatch.setattr(cli, "inference_table", lambda config, rule: table)
        row = table[5].to_dict()
        assert row[request.param] == "v1F" and row["agree"] is False
        return row

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_diff_only_prints_disagreement(self, capsys, disagreement, fmt):
        code, out, _ = run(capsys, "infer", "--rule", "mp", "--n", "1",
                           "--diff-only", "--format", fmt)
        assert code == 1
        row = disagreement
        if fmt == "json":
            assert json.loads(out) == [row]
        elif fmt == "csv":
            assert list(csv.DictReader(io.StringIO(out))) == [{**row, "agree": "false"}]
        else:
            assert out == (f"v0F v0F MP direct={row['direct']} closed={row['closed']} "
                           f"branch={row['branch']}\n1 disagreements\n")

    def test_grid_marks_disagreement(self, capsys, disagreement):
        code, out, _ = run(capsys, "infer", "--rule", "mp", "--n", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[3].split() == ["v0F", "v1T", disagreement["closed"] + "*", "v1T", "v1T"]
        assert lines[-1] == "*1 rows disagree with direct evaluation"

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("diff_only", [False, True])
    def test_builds_no_operation_tables(self, capsys, monkeypatch, fmt, diff_only):
        """No operation tables of its own: infer folds the config's cached
        rows, ``AlgebraConfig.tables``, and builds them once."""
        configs, builds = [], []

        def recording(config, rule):
            configs.append(config)
            return inference_table(config, rule)

        build = AlgebraConfig.tables.func
        counted = functools.cached_property(lambda config: builds.append(config) or build(config))
        counted.__set_name__(AlgebraConfig, "tables")
        monkeypatch.setattr(AlgebraConfig, "tables", counted)
        monkeypatch.setattr(cli, "inference_table", recording)
        code, _, _ = run(capsys, "infer", "--rule", "mt", "--n", "4", "--qlia", "--noncomp", "2",
                         "--format", fmt, *["--diff-only"] * diff_only)
        assert code == 0 and len(configs) == 1
        assert builds == configs and "tables" in vars(configs[0])

    @pytest.mark.parametrize("fmt", ["csv", "json", "csv-diff", "json-diff", "text-diff"])
    @pytest.mark.parametrize("planted", PLANTED, ids=list(PLANTED))
    @pytest.mark.parametrize("kind", [[], ["--qlia", "--noncomp", "3"]], ids=["lia", "qlia"])
    def test_planted_rows_match_a_row_by_row_writer(self, capsys, monkeypatch, kind, planted,
                                                    fmt):
        """The writer, planted disagreements in either column included,
        writes what a row-by-row writer over the rows does."""
        config = AlgebraConfig(n=8, noncomparable=int(kind[-1]) if kind else None)
        rule = RuleId.MT if kind else RuleId.MP
        table = inference_table(config, rule)
        size = len(table.values)
        keys = sorted((block % size) * size + q % size for block, q in PLANTED[planted])
        for number, k in enumerate(keys):  # alternately the direct and the closed value
            column, other = ((table.direct, table.closed), (table.closed, table.direct))[number % 2]
            column[k] = (other[k] + 1 + number % (size - 1)) % size
        assert table.disagreements() == keys
        monkeypatch.setattr(cli, "inference_table", lambda config, rule: table)
        fmt, _, diff = fmt.partition("-")
        code, out, _ = run(capsys, "infer", "--rule", rule.value.lower(), "--n", "8", *kind,
                           "--format", fmt, *["--diff-only"] * bool(diff))
        assert code == (1 if diff else 0)
        assert out == _row_by_row(table, keys if diff else range(len(table)), fmt)

    def test_grid_output(self, capsys):
        code, out, _ = run(capsys, "infer", "--rule", "mp", "--n", "4")
        assert code == 0
        assert "MP table, LIA n=4" in out
        assert "hedges: v0=slightly" in out
        assert "direct evaluation matches the closed form" in out

    def test_rule_flag_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["infer", "--n", "4"])
        assert exc.value.code == 2


class TestVerifyExamples:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, "verify-examples")
        assert code == 0
        assert out.count("  pass") == 8
        assert "8/8 examples pass" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "verify-examples", "--format", "json")
        rows = json.loads(out)
        assert len(rows) == 8 and all(row["passed"] for row in rows)

    def test_failure_exit(self, capsys, monkeypatch):
        broken = ExampleReport(checks=[])
        monkeypatch.setattr(cli, "verify_examples", lambda: broken)
        monkeypatch.setattr(
            type(broken), "all_passed", property(lambda self: False)
        )
        code, _, _ = run(capsys, "verify-examples")
        assert code == 1


class TestHasse:
    def test_dot_nodes(self, capsys):
        code, out, _ = run(capsys, "hasse", "--n", "4", "--format", "dot")
        assert code == 0
        assert out.startswith("digraph")
        assert sum(1 for line in out.splitlines() if "->" in line) == 13

    def test_quasi_drops_cross_edge(self, capsys):
        _, plain, _ = run(capsys, "hasse", "--n", "4", "--format", "dot")
        _, quasi, _ = run(
            capsys, "hasse", "--n", "4", "--qlia", "--noncomp", "2", "--format", "dot"
        )
        assert '"v2F" -> "v2T";' in plain
        assert '"v2F" -> "v2T";' not in quasi

    def test_json_two_point(self, capsys):
        code, out, _ = run(capsys, "hasse", "--n", "0", "--format", "json")
        payload = json.loads(out)
        assert len(payload["nodes"]) == 2
        assert len(payload["edges"]) == 1

    def test_custom_labels(self, capsys):
        code, out, _ = run(
            capsys, "hasse", "--n", "1", "--labels", "low,high", "--format", "dot"
        )
        assert code == 0
        assert '[label="high True"]' in out

    def test_wrong_label_count(self, capsys):
        code, _, err = run(capsys, "hasse", "--n", "4", "--labels", "a,b")
        assert code == 2

    @pytest.mark.parametrize("labels", ["a,b,c,", "a,b, ,d"])
    def test_blank_label_is_config_error(self, capsys, labels):
        code, out, err = run(capsys, "hasse", "--n", "3", "--labels", labels)
        assert code == 2
        assert out == ""
        assert "blank" in err


class TestDiscrepancies:
    def test_notes_are_json(self, capsys):
        code, out, _ = run(capsys, "discrepancies")
        assert code == 0
        notes = json.loads(out)
        ids = {note["id"] for note in notes}
        assert "3.2-mt-vl1" in ids
        assert "2.4-item3-scope" in ids

    def test_output_is_pinned(self, capsys):
        """Every note, field and byte of the output, as first recorded."""
        code, out, _ = run(capsys, "discrepancies")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == DISCREPANCIES_SHA256


# texts with the characters JSON escapes or writes as \u escapes: quotes,
# backslashes, control characters, non-ASCII and astral ones
_texts = st.text(st.characters() | st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028é😀'),
                 max_size=12)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _texts,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(_texts, inner)),
    max_leaves=12)


def _indented_dumps(value):
    return json.dumps(value, indent=2)


class TestJsonWriter:
    @settings(max_examples=200, deadline=None)
    @given(_json_values)
    def test_writes_what_indented_dumps_writes(self, value):
        assert cli._json(value) == json.dumps(value, indent=2)

    def test_commands_print_what_indented_dumps_prints(self, capsys, monkeypatch):
        """``check`` and ``hasse`` on every config with n <= 16, and
        ``discrepancies`` and ``verify-examples``: the same stdout as with
        ``json.dumps(..., indent=2)`` in place of the writer."""
        argvs = [["discrepancies"], ["verify-examples", "--format", "json"]]
        for n in range(17):
            for flags in [[], *(["--qlia", "--noncomp", str(i)] for i in range(1, n))]:
                argvs += [[command, "--n", str(n), *flags, "--format", "json"]
                          for command in ("check", "hasse")]
        written = [run(capsys, *argv) for argv in argvs]
        monkeypatch.setattr(cli, "_json", _indented_dumps)
        assert [run(capsys, *argv) for argv in argvs] == written


@pytest.mark.parametrize(
    "argv",
    [["check", "--n", "4"], ["infer", "--rule", "mp", "--n", "8", "--format", "json"]],
    ids=["short", "long"],
)
def test_closed_stdout_is_output_error(argv):
    """A reader that closes the pipe early gets exit 2 and no traceback,
    whether the write fails in a print (long) or in the final flush (short)."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)  # the short output must wait for the flush
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)  # nothing will read what the command prints
    try:
        proc = subprocess.run([sys.executable, "-m", "lingtruth.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, b"")


def test_out_of_memory_is_exit_2(capsys, monkeypatch):
    """A MemoryError becomes one line on stderr and exit 2, not a traceback;
    the command raises it without allocating anything."""
    def exhausted(args):
        raise MemoryError
    monkeypatch.setitem(cli._COMMANDS, "infer", exhausted)
    assert run(capsys, "infer", "--rule", "mp") == (2, "", "error: out of memory\n")


def test_out_of_memory_is_reported_once_the_command_is_freed(monkeypatch):
    """The out-of-memory line is printed after the failed command's frames,
    and what they hold, are freed: a stderr that cannot write while the
    command's local is alive still gets the line, and ``main`` returns 2
    instead of letting a second MemoryError escape (exit 1)."""
    held = []

    def exhausted(args):
        hoard = set()  # a local the traceback keeps alive
        held.append(weakref.ref(hoard))
        raise MemoryError

    class Stderr(io.StringIO):
        def write(self, text):
            if held[0]() is not None:
                raise MemoryError
            return super().write(text)

    monkeypatch.setitem(cli._COMMANDS, "infer", exhausted)
    monkeypatch.setattr(sys, "stderr", Stderr())
    assert cli.main(["infer", "--rule", "mp"]) == 2
    assert sys.stderr.getvalue() == "error: out of memory\n"


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv", [["infer", "--rule", "mp", "--n", "99999999999999999999"],
                                  ["check", "--n", "9223372036854775807"],
                                  ["hasse", "--n", "99999999999999999999", "--format", "dot"],
                                  ["hasse", "--n", "99999999999999999999", "--format", "json"]],
                         ids=["infer", "check", "hasse-dot", "hasse-json"])
def test_size_past_a_list_is_exit_2(argv):
    """An n whose carrier is too long for any list is one error line and
    exit 2, not a traceback and exit 1 (which means a disagreement or a
    violation); the length is refused before anything is allocated.  The
    command runs in a process with bounded time and address space, so one
    that builds anything of that size fails here instead of growing."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "lingtruth.cli", *argv], capture_output=True,
                          env=env, timeout=30, preexec_fn=_limit_memory)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.startswith(b"error: too large: ") and proc.stderr.count(b"\n") == 1


class TestParser:
    def test_built_once_per_process_and_not_at_import(self):
        """``main`` builds its parser on the first call and reuses it."""
        code = """if True:
            import argparse, contextlib, io
            built, init = [], argparse.ArgumentParser.__init__
            def counting(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                init(self, *args, **kwargs)
            argparse.ArgumentParser.__init__ = counting
            from lingtruth import cli
            at_import = built.count("lingtruth")
            with contextlib.redirect_stdout(io.StringIO()):
                for argv in (["check", "--n", "2"], ["infer", "--rule", "mt", "--n", "2"],
                             ["eval", "P", "-a", "P=v1T"], ["discrepancies"]):
                    assert cli.main(argv) == 0
            print(at_import, built.count("lingtruth"))
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 1\n", "")

    def test_usage_error_stays_on_one_line(self, capsys):
        """argparse echoes an unknown argument as it is; its line breaks are
        escaped, so the error is the one line after the usage text."""
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--n", "0", "P", "a\nb\r\u2028c"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert err.splitlines()[-1] == "lingtruth: error: unrecognized arguments: a\\nb\\r\\u2028c"

    def test_assignments_do_not_carry_over(self, capsys):
        """The ``-a`` list of one call is not the default of the next."""
        assert run(capsys, "eval", "P -> Q", "-a", "P=v1T", "-a", "Q=v2T")[:2] == (
            0, "v4T (absolutely True)\n")
        code, out, err = run(capsys, "eval", "P -> Q")
        assert (code, out) == (2, "")
        assert err == "error: atom 'P' has no assigned truth value\n"

    def test_parser_works_after_an_exit(self, capsys):
        """``--version`` and a usage error leave the parser fit for the next call."""
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["infer", "--n", "4"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, _ = run(capsys, "check", "--n", "2")
        assert code == 0 and out.startswith("LIA: I1..I7 hold")


def test_import_loads_no_dataclasses_inspect_or_typing():
    """Every CLI call is a fresh process, so the import is part of its cost:
    the records are named tuples, and ``dataclasses`` alone pulls in
    ``inspect``, ``ast`` and ``dis``."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import lingtruth, lingtruth.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def _csv_writer_field(text: str) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="").writerow([text])
    return out.getvalue()


class TestCsvField:
    """``_csv_field`` quotes a text that holds a comma and passes any other
    through, which is what csv.writer writes for every text ``infer``
    quotes: the branch labels, the rule names and the carrier values."""

    def test_every_text_infer_quotes(self):
        texts = [str(label) for label in InferenceTable.labels]
        texts += [rule.value for rule in RuleId]
        texts += [canonical(value) for value in lia(300).values()]  # every grade up to 300
        assert len(texts) == 66 + 2 + 602
        assert [cli._csv_field(text) for text in texts] == list(map(_csv_writer_field, texts))


def _algebra_flags(draw, n):
    """The quasi kind with a --noncomp inside or outside 1..n-1, seldom
    --qlia or --noncomp alone, and up to n = 40 --labels of mostly n + 1
    names with quotes, a comma in a name splitting it in two."""
    argv = []
    if draw(st.booleans()):
        noncomp = draw(st.integers(1, max(n - 1, 1)) | st.integers(-1, 11))
        argv += ["--qlia", "--noncomp", str(noncomp)]
    elif not draw(st.integers(0, 9)):
        argv += draw(st.sampled_from([["--qlia"], ["--noncomp", "1"]]))
    if n <= 40 and draw(st.booleans()):
        count = max(n + 1 + draw(st.sampled_from([0, 0, 0, -1, 1])), 0)
        decor = st.sampled_from(["", "'", '"', '""', " -"])
        labels = [f"{draw(decor)}h{k}{draw(decor)}" for k in range(count)]
        if labels and not draw(st.integers(0, 3)):
            labels[draw(st.integers(0, count - 1))] += ",x"
        argv.append(f"--labels={','.join(labels)}")
    return argv


@st.composite
def _infer_argv(draw):
    """``infer`` command lines at n <= 10 and seldom up to 40, mostly valid:
    either rule (or, seldom, none), every format, --diff-only or not, and
    the algebra flags of ``_algebra_flags``."""
    n = draw(st.integers(-1, 10)) if draw(st.integers(0, 9)) else draw(st.integers(11, 40))
    argv = ["infer", "--n", str(n), "--format", draw(st.sampled_from(["text", "json", "csv"]))]
    if draw(st.integers(0, 9)):
        argv += ["--rule", draw(st.sampled_from(["mp", "mt"]))]
    argv += _algebra_flags(draw, n)
    if draw(st.booleans()):
        argv.append("--diff-only")
    return argv


# formula text: mostly well-formed pieces, in any order
_FORMULA_PIECES = st.sampled_from(["P", "Q", "R", "!", "~", "&", "|", "->", "(", ")", " ",
                                   "P1", "_", "-", ">", "v1T", "\n", "é"])
# atom assignments: canonical and labelled values, in range or not, and malformed ones
_ASSIGNMENTS = st.sampled_from(["P=v1T", "Q=v0F", "R=v2T", "P=v9T", "Q = h1 true", "P=h0 False",
                                "P=", "=v1T", "P", "1=v1T", "Q=vT", "P=h1 True "])


@st.composite
def _command_argv(draw):
    """Command lines of the other five commands at n in -1..6, seldom up to
    40 (up to 10**6 for ``eval``, which builds no carrier), mostly valid:
    their formats, ``check``'s witness cap, ``eval``'s formula, seldom
    nested a few thousand deep, and assignments, the algebra flags of
    ``_algebra_flags``, and seldom an unknown option."""
    command = draw(st.sampled_from(["check", "eval", "hasse", "verify-examples", "discrepancies"]))
    argv = [command]
    if command in ("check", "eval", "hasse"):
        if draw(st.integers(0, 9)):
            n = draw(st.integers(-1, 6))
        else:
            n = draw(st.integers(7, 10**6 if command == "eval" else 40))
        argv += ["--n", str(n), *_algebra_flags(draw, n)]
    if command != "discrepancies" and draw(st.integers(0, 4)):
        formats = ["dot", "json"] if command == "hasse" else ["text", "json"]
        argv += ["--format", draw(st.sampled_from(formats))]
    if command == "check" and draw(st.booleans()):
        argv.append(f"--max-witnesses={draw(st.sampled_from(['0', '1', '3', '-1', 'x']))}")
    if command == "eval":
        for assignment in draw(st.lists(_ASSIGNMENTS, max_size=3)):
            argv += ["-a", assignment]
    if not draw(st.integers(0, 19)):
        argv.append(draw(st.sampled_from(["--bogus", "--n", "--format=xml", "extra"])))
    if command == "eval":  # after "--", so that a formula may start with "-"
        formula = "".join(draw(st.lists(_FORMULA_PIECES, max_size=10)))
        if not draw(st.integers(0, 9)):  # past the default recursion limit
            depth = draw(st.integers(1000, 5000))
            formula = draw(st.sampled_from(["!" * depth + formula,
                                            "(" * depth + formula + ")" * depth]))
        argv += ["--", formula]
    return argv


def _exit_and_out(argv):
    """``cli.main``'s exit code (a SystemExit's included), stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=500, deadline=None)
@given(_infer_argv())
def test_infer_argv_fuzz(argv):
    """Any such command line ends in exit 0, 1 or 2, raises nothing else,
    and prints the same on a second run."""
    code, out, _ = _exit_and_out(argv)
    assert code in (0, 1, 2)
    assert _exit_and_out(argv)[:2] == (code, out)


@settings(max_examples=300, deadline=None)
@given(_command_argv())
def test_command_argv_fuzz(argv):
    """Any such command line ends in exit 0, 1 or 2, raises nothing else,
    prints the same on a second run, and on exit 2 writes one ``error:``
    line, or argparse's usage text followed by its error line."""
    code, out, err = _exit_and_out(argv)
    assert code in (0, 1, 2)
    assert _exit_and_out(argv)[:2] == (code, out)
    if code == 2:
        lines = err.splitlines()
        if lines[0].startswith("usage: "):
            # the subcommand's parser names it; the top one, for unknown options
            assert lines[-1].startswith((f"lingtruth {argv[0]}: error: ", "lingtruth: error: "))
            assert sum("error:" in line for line in lines) == 1
        else:
            assert err.startswith("error: ") and err.count("\n") == 1
