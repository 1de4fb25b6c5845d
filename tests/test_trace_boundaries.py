"""The benchmark's tracer rebinds the lingtruth names in
``perfbench/spans.py``'s ``BOUNDARIES`` and skips any a module no longer
has, so a renamed function would silently zero the per-layer metric timed
through it.  These checks make such a rename fail the suite instead."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# per-layer metric -> the boundaries whose spans it reads
METRIC_BOUNDARIES = {
    "axioms.I1_s, I6_s, I7_s, pair_axioms_s": [("axioms", "check_axiom")],
    "axioms.self_s": [("cli", "check_all_axioms")],
    "axioms.laws_s": [("cli", "check_lattice_laws")],
    "axioms.involution_s": [("cli", "check_involution")],
    "axioms.classify_s": [("cli", "classify")],
    "oracle.build_covers_s": [("cli", "build_covers")],
    "oracle.verify_lattice_s": [("cli", "verify_lattice")],
    "oracle.cross_check_ops_s": [("cli", "cross_check_ops")],
    "inference.table_s": [("cli", "inference_table")],
}
TRACED = sorted({b for boundaries in METRIC_BOUNDARIES.values() for b in boundaries})


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


def test_metric_boundaries_are_traced():
    assert set(TRACED) <= set(_boundaries())


@pytest.mark.parametrize("module_name, name", TRACED, ids=[f"{m}.{n}" for m, n in TRACED])
def test_traced_name_exists(module_name, name):
    module = importlib.import_module(f"lingtruth.{module_name}")
    assert callable(getattr(module, name, None)), f"lingtruth.{module_name} has no {name}"
