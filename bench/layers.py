"""Which package functions the traced run wraps, and the per-layer metrics.

Each entry of :data:`PATCHES` names the module attribute a caller looks
the function up through, the span name (``<layer>.<function>``) and an
optional counter that reads work counts off the arguments and result.
:func:`per_layer_metrics` turns the spans of the traced tasks into the
``per_layer`` metrics listed in ``BENCHMARK.json``: counts and times per
task (mean over the traced tasks), ratios over the pooled counts.  A
layer that a workload never reaches reads 0, as does a ratio whose base
is 0; the result file carries the bases.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import threading

import qcembed
import qcembed.cli
import qcembed.embedding
import qcembed.scan
import qcembed.sim
import qcembed.vqe

from tracing import Span, Tracer, enclosing, self_times

AMPLITUDE_BYTES = 16  # complex128


def _pauli_counts(applications: int, n_qubits: int) -> dict:
    return {"pauli_applications": applications, "bytes": applications * 2**n_qubits * AMPLITUDE_BYTES}


def _evolve_counts(args, kwargs, state):
    ansatz, parameters = args[0], args[1]
    applications = sum(
        len(generator) for theta, generator in zip(parameters, ansatz.generators) if theta != 0.0
    )
    return _pauli_counts(applications, ansatz.n_qubits)


def _expectation_counts(args, kwargs, value):
    state, op = args[0], args[1]
    return _pauli_counts(len(op), state.n_qubits)


def _fingerprint(active) -> str:
    digest = hashlib.blake2b(digest_size=16)
    digest.update(f"{active.n_orbitals},{active.n_electrons},{active.inactive_energy.hex()}".encode())
    digest.update(active.one_body_eff.tobytes())
    digest.update(active.two_body_dense().tobytes())
    return digest.hexdigest()


def _solver_entry(extra):
    """Counter for the first call an active solver makes on its
    Hamiltonian; records the Hamiltonian's bitwise fingerprint."""

    def counter(args, kwargs, result):
        return {"fingerprint": _fingerprint(args[0]), **extra(result)}

    return counter


def _minimize_counts(args, kwargs, result):
    return {
        "evaluations": result.evaluations,
        "accepted": len(result.iterate_energies),
        "converged": int(result.converged),
    }


def _embedding_counts(args, kwargs, state):
    return {"iterations": len(state.energy_history)}


def _scan_counts(args, kwargs, result):
    _, rows = result
    return {"points": len(rows), "converged": sum(row.converged for row in rows)}


PATCHES = (
    (qcembed.vqe, "evolve_ansatz", "sim.evolve_ansatz", _evolve_counts),
    (qcembed.embedding, "evolve_ansatz", "sim.evolve_ansatz", _evolve_counts),
    (qcembed.vqe, "expectation", "sim.expectation", _expectation_counts),
    (qcembed.embedding, "minimize", "vqe.minimize", _minimize_counts),
    (qcembed.embedding, "fci_solve", "fci.fci_solve",
     _solver_entry(lambda r: {"basis_dimension": r.basis_dimension})),
    (qcembed, "run_embedding", "embedding.run_embedding", _embedding_counts),
    (qcembed.scan, "run_embedding", "embedding.run_embedding", _embedding_counts),
    (qcembed.embedding, "map_active_hamiltonian", "sim.map_active_hamiltonian",
     _solver_entry(lambda r: {"terms": len(r)})),
    (qcembed.embedding, "build_uccsd_ansatz", "sim.build_uccsd_ansatz",
     lambda a, k, r: {"parameters": r.n_parameters}),
    (qcembed.sim, "spin_orbital_hamiltonian", "fermion.spin_orbital_hamiltonian", None),
    (qcembed.sim, "map_parity", "mappings.map_parity", None),
    (qcembed.sim, "two_qubit_reduction", "mappings.two_qubit_reduction", None),
    (qcembed.embedding, "lift_reduced_parity_state", "sim.lift_reduced_parity_state", None),
    (qcembed.embedding, "spin_summed_one_rdm", "sim.spin_summed_one_rdm", None),
    (qcembed.embedding, "solve_rhf", "meanfield.solve_rhf",
     lambda a, k, r: {"iterations": r.iterations}),
    (qcembed.embedding, "transform_to_mo_basis", "activespace.transform_to_mo_basis", None),
    (qcembed.embedding, "reduce_in_orbital_basis", "activespace.reduce_in_orbital_basis", None),
    (qcembed, "read_fcidump", "integrals.read_fcidump",
     lambda a, k, r: {"bytes": os.path.getsize(a[0])}),
    (qcembed.scan, "read_fcidump", "integrals.read_fcidump",
     lambda a, k, r: {"bytes": os.path.getsize(a[0])}),
    (qcembed, "save_fcidump", "integrals.save_fcidump", None),
    (qcembed.cli, "mu_scan", "scan.mu_scan", _scan_counts),
)

SOLVER_ENTRIES = ("fci.fci_solve", "sim.map_active_hamiltonian")

# (metric, unit, better) in BENCHMARK.json order
METRICS = (
    ("sim.evolve_ansatz.calls", "count", "lower"),
    ("sim.evolve_ansatz.s", "s", "lower"),
    ("sim.expectation.calls", "count", "lower"),
    ("sim.expectation.s", "s", "lower"),
    ("sim.pauli_applications", "count", "lower"),
    ("sim.bytes_computed", "B", "lower"),
    ("vqe.minimize.calls", "count", "lower"),
    ("vqe.minimize.s", "s", "lower"),
    ("vqe.minimize.self_s", "s", "lower"),
    ("vqe.evaluations", "count", "lower"),
    ("vqe.accepted_per_eval", "ratio", "higher"),
    ("vqe.converged_frac", "ratio", "higher"),
    ("fci.fci_solve.calls", "count", "lower"),
    ("fci.fci_solve.s", "s", "lower"),
    ("fci.basis_dimension", "count", "lower"),
    ("embedding.run_embedding.calls", "count", "lower"),
    ("embedding.run_embedding.s", "s", "lower"),
    ("embedding.run_embedding.self_s", "s", "lower"),
    ("embedding.iterations", "count", "lower"),
    ("embedding.repeat_solve_frac", "ratio", "lower"),
    ("sim.map_active_hamiltonian.calls", "count", "lower"),
    ("sim.map_active_hamiltonian.s", "s", "lower"),
    ("sim.map_active_hamiltonian.terms", "count", "lower"),
    ("sim.build_uccsd_ansatz.calls", "count", "lower"),
    ("sim.build_uccsd_ansatz.s", "s", "lower"),
    ("sim.build_uccsd_ansatz.parameters", "count", "lower"),
    ("fermion.spin_orbital_hamiltonian.calls", "count", "lower"),
    ("fermion.spin_orbital_hamiltonian.s", "s", "lower"),
    ("mappings.map_parity.calls", "count", "lower"),
    ("mappings.map_parity.s", "s", "lower"),
    ("mappings.two_qubit_reduction.calls", "count", "lower"),
    ("mappings.two_qubit_reduction.s", "s", "lower"),
    ("sim.lift_reduced_parity_state.s", "s", "lower"),
    ("sim.spin_summed_one_rdm.s", "s", "lower"),
    ("meanfield.solve_rhf.calls", "count", "lower"),
    ("meanfield.solve_rhf.s", "s", "lower"),
    ("meanfield.solve_rhf.iterations", "count", "lower"),
    ("activespace.transform_to_mo_basis.s", "s", "lower"),
    ("activespace.reduce_in_orbital_basis.calls", "count", "lower"),
    ("activespace.reduce_in_orbital_basis.s", "s", "lower"),
    ("integrals.read_fcidump.calls", "count", "lower"),
    ("integrals.read_fcidump.s", "s", "lower"),
    ("integrals.read_fcidump.bytes", "B", "lower"),
    ("integrals.save_fcidump.calls", "count", "lower"),
    ("integrals.save_fcidump.s", "s", "lower"),
    ("scan.mu_scan.s", "s", "lower"),
    ("scan.points", "count", "lower"),
    ("scan.concurrency", "ratio", "lower"),
    ("scan.converged_frac", "ratio", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.self_coverage", "ratio", "higher"),
)


def install(tracer: Tracer) -> None:
    for module, attribute, name, counter in PATCHES:
        tracer.install(module, attribute, name, counter)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def repeat_solves(spans: list[Span]) -> tuple[int, int]:
    """(repeated, total) solver calls: a call repeats when its active
    Hamiltonian is bitwise equal to that of the previous solver call in
    the same ``run_embedding``."""
    previous: dict[int, str] = {}
    repeated = total = 0
    for span in sorted(spans, key=lambda s: s.start):
        if span.name not in SOLVER_ENTRIES:
            continue
        run = enclosing(span, "embedding.run_embedding")
        key = id(run)
        total += 1
        repeated += previous.get(key) == span.attrs["fingerprint"]
        previous[key] = span.attrs["fingerprint"]
    return repeated, total


def per_layer_metrics(
    task_spans: list[list[Span]],
    task_walls: list[float],
    untraced_walls: list[float],
    setup_spans: list[Span],
    task_thread: int | None = None,
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics and the bases of their ratios.

    ``task_spans[k]`` holds the spans of traced task k, whose wall time is
    ``task_walls[k]``; ``task_thread`` is the thread the tasks ran on.
    """
    if task_thread is None:
        task_thread = threading.get_ident()
    n_tasks = max(len(task_spans), 1)
    spans = [span for group in task_spans for span in group]
    own = self_times(spans)
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    exclusive: dict[str, float] = {}
    sums: dict[str, float] = {}
    for span in spans:
        calls[span.name] = calls.get(span.name, 0) + 1
        inclusive[span.name] = inclusive.get(span.name, 0.0) + span.duration
        exclusive[span.name] = exclusive.get(span.name, 0.0) + own[id(span)]
        for key, value in span.attrs.items():
            if key != "fingerprint":
                sums[f"{span.name}:{key}"] = sums.get(f"{span.name}:{key}", 0) + value

    def per_task(table: dict, name: str) -> float:
        return table.get(name, 0) / n_tasks

    def per_call(name: str, key: str) -> float:
        return _ratio(sums.get(f"{name}:{key}", 0), calls.get(name, 0))

    def sim_total(key: str) -> float:
        return sums.get(f"sim.evolve_ansatz:{key}", 0) + sums.get(f"sim.expectation:{key}", 0)

    repeated, solver_calls = repeat_solves(spans)
    scan_wall = inclusive.get("scan.mu_scan", 0.0)
    embed_wall = inclusive.get("embedding.run_embedding", 0.0)
    traced_wall = sum(task_walls)
    own_thread_self = sum(own[id(s)] for s in spans if s.thread == task_thread)
    setup_calls = sum(1 for s in setup_spans if s.name == "integrals.save_fcidump")
    setup_time = sum(s.duration for s in setup_spans if s.name == "integrals.save_fcidump")
    wall = statistics.median(task_walls) if task_walls else 0.0
    untraced = statistics.median(untraced_walls) if untraced_walls else 0.0

    metrics: dict[str, float] = {}
    for name, _, _ in METRICS:
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            metrics[name] = per_task(calls, layer)
        elif kind == "s":
            metrics[name] = per_task(inclusive, layer)
        elif kind == "self_s":
            metrics[name] = per_task(exclusive, layer)
    metrics.update(
        {
            "sim.pauli_applications": sim_total("pauli_applications") / n_tasks,
            "sim.bytes_computed": sim_total("bytes") / n_tasks,
            "vqe.evaluations": per_task(sums, "vqe.minimize:evaluations"),
            "vqe.accepted_per_eval": _ratio(
                sums.get("vqe.minimize:accepted", 0), sums.get("vqe.minimize:evaluations", 0)
            ),
            "vqe.converged_frac": per_call("vqe.minimize", "converged"),
            "fci.basis_dimension": per_call("fci.fci_solve", "basis_dimension"),
            "embedding.iterations": per_call("embedding.run_embedding", "iterations"),
            "embedding.repeat_solve_frac": _ratio(repeated, solver_calls),
            "sim.map_active_hamiltonian.terms": per_call("sim.map_active_hamiltonian", "terms"),
            "sim.build_uccsd_ansatz.parameters": per_call("sim.build_uccsd_ansatz", "parameters"),
            "meanfield.solve_rhf.iterations": per_call("meanfield.solve_rhf", "iterations"),
            "integrals.read_fcidump.bytes": per_task(sums, "integrals.read_fcidump:bytes"),
            "integrals.save_fcidump.calls": float(setup_calls),
            "integrals.save_fcidump.s": setup_time,
            "scan.points": per_task(sums, "scan.mu_scan:points"),
            "scan.concurrency": _ratio(embed_wall, scan_wall),
            "scan.converged_frac": _ratio(
                sums.get("scan.mu_scan:converged", 0), sums.get("scan.mu_scan:points", 0)
            ),
            "trace.wall_s": wall,
            "trace.untraced_wall_s": untraced,
            "trace.overhead_s": wall - untraced,
            "trace.self_coverage": _ratio(own_thread_self, traced_wall),
        }
    )
    bases = {
        "traced_tasks": len(task_spans),
        "untraced_tasks": len(untraced_walls),
        "solver_calls": solver_calls,
        "repeated_solver_calls": repeated,
        "vqe.evaluations_total": sums.get("vqe.minimize:evaluations", 0),
        "vqe.accepted_total": sums.get("vqe.minimize:accepted", 0),
        "vqe.minimize_calls_total": calls.get("vqe.minimize", 0),
        "fci.fci_solve_calls_total": calls.get("fci.fci_solve", 0),
        "scan.points_total": sums.get("scan.mu_scan:points", 0),
        "scan.mu_scan_s_total": scan_wall,
        "embedding.run_embedding_s_total": embed_wall,
        "traced_wall_s_total": traced_wall,
        "task_thread_self_s_total": own_thread_self,
    }
    return {name: metrics[name] for name, _, _ in METRICS}, bases
