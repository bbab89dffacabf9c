"""Measure, under the tracer, the hotspot shares that ROADMAP.md states
from single runs.

    python3 perfbench/hotspots.py [--out perfbench/out/hotspots.json]

1. ``pauli_permutation``'s share of the dense ground-space count of mnondeg
   on torus:2x2 (stated: about 92 %).
2. Which ``stabilizer`` function has the largest self time in ``report`` on
   m1 at the gsd-ladder's largest m1 rung and at 16x16 (stated:
   ``check_commuting``).
3. Eliminations and commutation checks per ``report`` (stated: 5 and 2).

Shares are of traced time; counted calls (``symplectic_phase``,
``PauliString.__mul__``) add their wrapper cost to the enclosing span.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def traced(spans, label, fn):
    tracer = spans.Tracer()
    tracer.task = label
    tracer.install()
    try:
        value = fn()
    finally:
        tracer.uninstall()
    inclusive, own = spans.span_times(tracer.spans, lambda task: task == label)
    return value, inclusive, own, tracer.calls


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    run.use_checkout_sources()
    import spans
    import workloads
    from gtoric import catalog, oracle, stabilizer
    from gtoric.lattice import Lattice

    out = {}
    h = catalog.build_hamiltonian("mnondeg", Lattice.from_spec("torus:2x2"))
    count, inclusive, _, _ = traced(spans, "dense", lambda: oracle.ground_space_dimension(h))
    total = inclusive["oracle.ground_space_dimension"]
    out["dense mnondeg torus:2x2"] = {
        "ground_space_dimension": count,
        "seconds": total,
        "pauli_permutation_share": inclusive["paulis.pauli_permutation"] / total,
        "digit_table_share": inclusive["paulis._digit_table"] / total,
    }

    largest = max(m for model, m, n in workloads.LADDER if model == "m1" and m == n)
    for size in (largest, 16):
        sm = stabilizer.StabilizerModel.from_hamiltonian(
            catalog.build_hamiltonian("m1", Lattice.from_spec(f"torus:{size}x{size}"))
        )
        rep, inclusive, own, calls = traced(spans, "report", lambda: stabilizer.report(sm))
        own_stab = {k: v for k, v in own.items() if k.startswith("stabilizer.")}
        reports = calls["stabilizer.report"]
        out[f"m1 torus:{size}x{size} report"] = {
            "gsd_is_closed_form": rep["gsd"] == workloads.closed_form_gsd("m1", size, size),
            "seconds": inclusive["stabilizer.report"],
            "stabilizer_self_s": own_stab,
            "largest_stabilizer_self": max(own_stab, key=own_stab.get),
            "check_commuting_share": inclusive["stabilizer.check_commuting"]
            / inclusive["stabilizer.report"],
            "eliminations_per_report": (
                calls["linalg.row_echelon_mod_p"] + calls["linalg.smith_normal_form"]
            ) / reports,
            "check_commuting_per_report": calls["stabilizer.check_commuting"] / reports,
        }

    text = json.dumps(out, indent=1, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
