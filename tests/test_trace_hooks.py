"""The benchmark's tracer wraps package names; they must keep resolving."""

import importlib.util
from pathlib import Path

from gtoric import stabilizer
from gtoric.catalog import build_hamiltonian
from gtoric.lattice import Lattice

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    spans = load_spans()
    tracer = spans.Tracer()
    originals = [owner.__dict__.get(attr) for owner, attr, *_ in spans.TARGETS]
    try:
        tracer.install()  # KeyError when a traced name was renamed away
        sm = stabilizer.StabilizerModel.from_hamiltonian(
            build_hamiltonian("m1", Lattice("torus", 2, 2))
        )
        stabilizer.report(sm)
        stabilizer.is_logical(sm, sm.generators[0][0])
        stabilizer.gsd(sm.with_flipped_target(0))
    finally:
        tracer.uninstall()
    assert [owner.__dict__.get(attr) for owner, attr, *_ in spans.TARGETS] == originals
    # one analysis per model: one commutation check and one elimination per
    # CSS block (X and Z), shared by the flipped copy and read by is_logical
    assert tracer.calls["stabilizer.check_commuting"] == 1
    assert tracer.calls["linalg.row_echelon_mod_p"] == 2
    assert tracer.calls["linalg.smith_normal_form"] == 0


def test_one_exponent_matrix_per_report():
    spans = load_spans()
    tracer = spans.Tracer()
    sm = stabilizer.StabilizerModel.from_hamiltonian(build_hamiltonian("m1", Lattice("torus", 3, 3)))
    try:
        tracer.install()
        stabilizer.report(sm)
    finally:
        tracer.uninstall()
    # the analysis decomposes the spec's table block by block, never the dense matrix
    assert tracer.calls["stabilizer.exponent_matrix"] == 0


def test_queries_read_the_table():
    spans = load_spans()
    tracer = spans.Tracer()
    sm = stabilizer.StabilizerModel.from_hamiltonian(build_hamiltonian("m1", Lattice("torus", 3, 3)))
    try:
        tracer.install()
        stabilizer.syndrome(sm, sm.generators[0][0])
        stabilizer.is_logical(sm, sm.generators[0][0])
    finally:
        tracer.uninstall()
    # flips are one product over the exponent table, not one call per generator
    assert tracer.calls["stabilizer.exponent_matrix"] == 0
    assert tracer.calls["paulis.symplectic_phase"] == 0


def test_one_smith_form_per_composite_analysis():
    spans = load_spans()
    tracer = spans.Tracer()
    sm = stabilizer.StabilizerModel.from_hamiltonian(build_hamiltonian("zn:6", Lattice("torus", 3, 3)))
    try:
        tracer.install()
        stabilizer.report(sm)
    finally:
        tracer.uninstall()
    # one Smith form per CSS block; the Z_2 and Z_3 parts run inside each,
    # not as traced echelon calls
    assert tracer.calls["linalg.smith_normal_form"] == 2
    assert tracer.calls["linalg.row_echelon_mod_p"] == 0
    metrics = spans.layer_metrics(tracer, [[1.0]], 1.0, 1.0)
    assert metrics["linalg.eliminations_per_answer"] == 2.0
