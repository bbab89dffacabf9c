"""Spans and counters around calls into gtoric, recorded from outside.

The tracer replaces a public function at the attribute its caller looks up
(a module global such as ``stabilizer.symplectic_phase``, or a method on a
class such as ``OperatorSum.__mul__``) with a wrapper, and puts the original
back afterwards.  Nothing under ``src/`` knows it is being traced.

A span wrapper records ``[name, start, end, parent, task]`` in memory.  A
count wrapper only counts calls: it is used for functions that are called
millions of times, where a span per call would cost more than the call.  The
time of a counted call therefore lands in the self time of the span that
encloses it.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter

from gtoric import catalog, commutation, groupoids, linalg, oracle, paulis, stabilizer

# modules that get a self-time share; lattice work runs inside catalog spans
LAYERS = ("catalog", "paulis", "linalg", "stabilizer", "oracle", "commutation")

# functions whose time is reported from the traced set-up, not from rounds
SETUP_SPANS = ("catalog.vertex_projector_family",)


def _gens_if_top(args, kwargs, result, top):
    return {"stabilizer.generators": len(args[0].generators)} if top else {}


def _answer(args, kwargs, result, top):
    if not top:
        return {}
    return {"stabilizer.generators": len(args[0].generators), "answers": 1}


def _expanded_terms(args, kwargs, result, top):
    return {"catalog.expanded_terms": sum(len(t.opsum.terms) for t in result.terms)}


def _opsum_mul(args, kwargs, result, top):
    a, b = args
    if not isinstance(b, paulis.OperatorSum):
        return {}
    return {"paulis.pauli_products": len(a.terms) * len(b.terms), "merge_kept": len(result.terms)}


def _echelon_cells(args, kwargs, result, top):
    rows, cols = result[0].shape
    return {"linalg.echelon_cells": rows * cols}


def _dense_path(args, kwargs, result, top):
    h = args[0]
    dim = h.n**h.lattice.n_sites
    path = "oracle.eig_path.calls" if dim <= oracle.DENSE_EIG_DIM else "oracle.trace_path.calls"
    return {path: 1, "oracle.amplitudes": dim}


def _trace_amplitudes(args, kwargs, result, top):
    _, lat, n = args
    return {"oracle.amplitudes": n**lat.n_sites}


def _model_amplitudes(args, kwargs, result, top):
    h = args[0]
    return {"oracle.amplitudes": h.n**h.lattice.n_sites}


def _corner_states(args, kwargs, result, top):
    size = len(args[0])
    return {"commutation.states_visited": size**4 * size**2}


def _summed_states(args, kwargs, result, top):
    return {"commutation.states_visited": len(args[0]) ** 4}


# (owner, attribute, span name, "span" | "count", amount function or None)
TARGETS = [
    (catalog, "build_hamiltonian", "catalog.build_hamiltonian", "span", _expanded_terms),
    (catalog, "product_of_projectors", "catalog.product_of_projectors", "span", None),
    (catalog, "vertex_projector_family", "catalog.vertex_projector_family", "span", None),
    (paulis.OperatorSum, "__mul__", "paulis.OperatorSum.mul", "span", _opsum_mul),
    (paulis.OperatorSum, "sparse_matrix", "paulis.OperatorSum.sparse_matrix", "span", None),
    (paulis.OperatorSum, "apply", "paulis.OperatorSum.apply", "span", None),
    (paulis, "pauli_permutation", "paulis.pauli_permutation", "span", None),
    (paulis, "_digit_table", "paulis._digit_table", "span", None),
    (paulis, "symplectic_phase", "paulis.symplectic_phase", "count", None),
    (stabilizer, "symplectic_phase", "paulis.symplectic_phase", "count", None),
    (paulis.PauliString, "__mul__", "paulis.PauliString.mul", "count", None),
    (linalg, "row_echelon_mod_p", "linalg.row_echelon_mod_p", "span", _echelon_cells),
    (linalg, "smith_normal_form", "linalg.smith_normal_form", "span", None),
    (stabilizer, "report", "stabilizer.report", "span", _answer),
    (stabilizer, "gsd", "stabilizer.gsd", "span", _answer),
    (stabilizer, "phase_consistent", "stabilizer.phase_consistent", "span", None),
    (stabilizer, "syndrome", "stabilizer.syndrome", "span", _gens_if_top),
    (stabilizer, "is_logical", "stabilizer.is_logical", "span", _answer),
    (stabilizer, "logically_equivalent", "stabilizer.logically_equivalent", "span", _answer),
    (stabilizer, "confinement_profile", "stabilizer.confinement_profile", "span", _gens_if_top),
    (stabilizer, "in_stabilizer_group", "stabilizer.in_stabilizer_group", "span", None),
    (stabilizer.StabilizerModel, "check_commuting", "stabilizer.check_commuting", "span", None),
    (stabilizer.StabilizerModel, "exponent_matrix", "stabilizer.exponent_matrix", "count", None),
    (oracle, "ground_space_dimension", "oracle.ground_space_dimension", "span", _dense_path),
    (oracle, "trace_product", "oracle.trace_product", "span", _trace_amplitudes),
    (oracle, "construct_ground_state", "oracle.construct_ground_state", "span", _model_amplitudes),
    (oracle, "measure_syndrome", "oracle.measure_syndrome", "span", _model_amplitudes),
    (commutation, "check_corner_commutation", "commutation.check_corner_commutation", "span",
     _corner_states),
    (commutation, "check_summed_commutation", "commutation.check_summed_commutation", "span",
     _summed_states),
    (groupoids.Groupoid, "compose", "groupoids.compose", "count", None),
]

# every per-layer metric the traced run prints, with its unit
PER_LAYER = {
    "catalog.build_hamiltonian.calls": "count",
    "catalog.build_hamiltonian.s": "s",
    "catalog.build_hamiltonian.self_s": "s",
    "catalog.product_of_projectors.s": "s",
    "catalog.expanded_terms": "count",
    "catalog.vertex_projector_family.s": "s",
    "paulis.OperatorSum.mul.calls": "count",
    "paulis.OperatorSum.mul.s": "s",
    "paulis.OperatorSum.mul.self_s": "s",
    "paulis.pauli_products": "count",
    "paulis.merge_ratio": "ratio",
    "paulis.pauli_permutation.calls": "count",
    "paulis.pauli_permutation.s": "s",
    "paulis._digit_table.s": "s",
    "paulis.OperatorSum.sparse_matrix.s": "s",
    "paulis.OperatorSum.apply.calls": "count",
    "paulis.OperatorSum.apply.s": "s",
    "paulis.symplectic_phase.calls": "count",
    "paulis.PauliString.mul.calls": "count",
    "linalg.row_echelon_mod_p.calls": "count",
    "linalg.row_echelon_mod_p.s": "s",
    "linalg.echelon_cells": "count",
    "linalg.smith_normal_form.calls": "count",
    "linalg.smith_normal_form.s": "s",
    "linalg.eliminations_per_answer": "ratio",
    "stabilizer.report.calls": "count",
    "stabilizer.report.s": "s",
    "stabilizer.report.self_s": "s",
    "stabilizer.gsd.calls": "count",
    "stabilizer.check_commuting.calls": "count",
    "stabilizer.check_commuting.s": "s",
    "stabilizer.phase_consistent.s": "s",
    "stabilizer.phase_consistent.self_s": "s",
    "stabilizer.exponent_matrix.calls": "count",
    "stabilizer.syndrome.s": "s",
    "stabilizer.is_logical.s": "s",
    "stabilizer.logically_equivalent.s": "s",
    "stabilizer.confinement_profile.s": "s",
    "stabilizer.in_stabilizer_group.calls": "count",
    "stabilizer.generators": "count",
    "oracle.ground_space_dimension.s": "s",
    "oracle.ground_space_dimension.self_s": "s",
    "oracle.trace_product.s": "s",
    "oracle.construct_ground_state.s": "s",
    "oracle.measure_syndrome.s": "s",
    "oracle.eig_path.calls": "count",
    "oracle.trace_path.calls": "count",
    "oracle.amplitudes": "count",
    "commutation.check_corner_commutation.calls": "count",
    "commutation.check_corner_commutation.s": "s",
    "commutation.check_summed_commutation.s": "s",
    "commutation.states_visited": "count",
    "groupoids.compose.calls": "count",
    **{f"layer.{layer}.self_share": "ratio" for layer in LAYERS},
    "layer.untraced.self_share": "ratio",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Installs the wrappers in ``TARGETS`` and keeps what they record."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, task id]
        self.calls = Counter()
        self.amounts = Counter()
        self.task = None
        self._stack = []
        self._saved = []

    def install(self):
        for owner, attr, name, kind, amount in TARGETS:
            original = owner.__dict__[attr]
            if kind == "span":
                wrapper = self._span_wrapper(name, original, amount)
            else:
                wrapper = self._count_wrapper(name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _span_wrapper(self, name, fn, amount):
        spans, stack, calls, amounts = self.spans, self._stack, self.calls, self.amounts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            rec = [name, 0.0, 0.0, parent, self.task]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            calls[name] += 1
            if amount is not None:
                amounts.update(amount(args, kwargs, result, parent is None))
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def reset_counts(self):
        """Forget calls and amounts; spans are kept, tagged by task id."""
        self.calls.clear()
        self.amounts.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def span_times(spans, keep):
    """Inclusive and self seconds per span name, over spans whose task id
    satisfies ``keep``.  Self time is the duration minus the time covered by
    direct child spans."""
    child = Counter()
    for name, start, end, parent, task in spans:
        if parent is not None:
            child[parent] += end - start
    inclusive, own = Counter(), Counter()
    for i, (name, start, end, parent, task) in enumerate(spans):
        if keep(task):
            inclusive[name] += end - start
            own[name] += end - start - child[i]
    return inclusive, own


def layer_metrics(tracer, traced_rounds, traced_wall, untraced_wall, setup_task="setup"):
    """Per-layer metrics of a traced run: counts and seconds per traced
    round, self-time shares of all traced task time, and the tracing
    overhead as the traced minus the untraced ``wall_s``."""
    inclusive, own = span_times(tracer.spans, lambda task: task not in (None, setup_task))
    setup_inclusive, _ = span_times(tracer.spans, lambda task: task == setup_task)
    calls, amounts = tracer.calls, tracer.amounts
    rounds = len(traced_rounds)
    busy = sum(map(sum, traced_rounds))
    out = {}
    for metric in PER_LAYER:
        base, _, suffix = metric.rpartition(".")
        if base in SETUP_SPANS:
            value = setup_inclusive[base]
        elif suffix == "calls" and base in calls:
            value = calls[base] / rounds
        elif suffix == "s":
            value = inclusive[base] / rounds
        elif suffix == "self_s":
            value = own[base] / rounds
        else:
            value = amounts[metric] / rounds
        out[metric] = value
    out["paulis.merge_ratio"] = _ratio(amounts["merge_kept"], amounts["paulis.pauli_products"])
    eliminations = calls["linalg.row_echelon_mod_p"] + calls["linalg.smith_normal_form"]
    out["linalg.eliminations_per_answer"] = _ratio(eliminations, amounts["answers"])
    shares = Counter()
    for name, seconds in own.items():
        shares[name.split(".", 1)[0]] += seconds
    for layer in LAYERS:
        out[f"layer.{layer}.self_share"] = _ratio(shares[layer], busy)
    out["layer.untraced.self_share"] = _ratio(busy - sum(shares[l] for l in LAYERS), busy)
    out["trace.wall_s"] = traced_wall
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.overhead_frac"] = _ratio(traced_wall - untraced_wall, untraced_wall)
    return out


def _ratio(num, den):
    return num / den if den else 0.0
