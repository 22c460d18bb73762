"""Self-tests of the benchmark's own code; run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import re
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import compare
import layers
import run
import workloads
from tracing import Span, Tracer, self_times

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_self_time_subtracts_direct_children_only():
    root = Span("root", 0.0, 10.0)
    a = Span("a", 1.0, 4.0, parent=root)
    b = Span("b", 5.0, 9.0, parent=root)
    c = Span("c", 6.0, 7.0, parent=b)
    worker = Span("worker", 2.0, 8.0, thread=1)  # root of another thread
    own = self_times([root, a, b, c, worker])
    assert own[id(root)] == pytest.approx(3.0)
    assert own[id(a)] == pytest.approx(3.0)
    assert own[id(b)] == pytest.approx(3.0)
    assert own[id(c)] == pytest.approx(1.0)
    assert own[id(worker)] == pytest.approx(6.0)
    assert sum(own[id(s)] for s in (root, a, b, c)) == pytest.approx(root.duration)


def test_tracer_keeps_a_parent_stack_per_thread_and_restores():
    ns = types.SimpleNamespace()
    ns.inner = lambda: time.sleep(0.005)

    def outer():
        ns.inner()
        ns.inner()

    ns.outer = outer
    original_inner, original_outer = ns.inner, ns.outer
    tracer = Tracer()
    tracer.install(ns, "inner", "t.inner")
    tracer.install(ns, "outer", "t.outer")
    with ThreadPoolExecutor(max_workers=4) as pool:
        for future in [pool.submit(ns.outer) for _ in range(8)]:
            future.result()
    tracer.uninstall()
    assert ns.inner is original_inner and ns.outer is original_outer

    spans = tracer.take()
    assert len(spans) == 24 and tracer.spans == []
    for span in spans:
        if span.name == "t.inner":
            assert span.parent.name == "t.outer"
            assert span.parent.thread == span.thread
            assert span.parent.start <= span.start <= span.end <= span.parent.end
        else:
            assert span.parent is None
    own = self_times(spans)
    for span in (s for s in spans if s.name == "t.outer"):
        children = [s for s in spans if s.parent is span]
        assert len(children) == 2
        assert own[id(span)] == pytest.approx(span.duration - sum(c.duration for c in children))
        assert own[id(span)] >= 0.0


def test_repeat_solves_compares_within_one_embedding():
    first, second = Span("embedding.run_embedding", 0, 10), Span("embedding.run_embedding", 0, 10)
    entries = [
        Span("sim.map_active_hamiltonian", 1, 2, parent=first, attrs={"fingerprint": "x"}),
        Span("sim.map_active_hamiltonian", 3, 4, parent=first, attrs={"fingerprint": "x"}),
        Span("fci.fci_solve", 1.5, 2, parent=second, attrs={"fingerprint": "x"}),
        Span("fci.fci_solve", 3.5, 4, parent=second, attrs={"fingerprint": "y"}),
    ]
    assert layers.repeat_solves([first, second, *entries]) == (1, 4)


def test_traced_fci_embedding_matches_untraced_and_repeats_half():
    import qcembed

    integrals = qcembed.read_fcidump(workloads.FIXTURES / "h2_sto3g_0735.fcidump")
    args = (integrals, qcembed.ActiveSpaceSpec(2, 2), qcembed.EmbeddingConfig(active_solver="fci"))
    untraced = qcembed.run_embedding(*args)
    tracer = Tracer()
    layers.install(tracer)
    try:
        start = time.perf_counter()
        traced = qcembed.run_embedding(*args)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert qcembed.embedding.fci_solve is qcembed.fci.fci_solve
    assert qcembed.run_embedding is qcembed.embedding.run_embedding
    assert traced.energy_history == untraced.energy_history

    metrics, bases = layers.per_layer_metrics([tracer.take()], [wall], [wall], [])
    assert metrics["embedding.repeat_solve_frac"] == 0.5
    assert metrics["fci.fci_solve.calls"] == len(traced.energy_history) == 2
    assert metrics["embedding.iterations"] == 2
    assert 0.9 < metrics["trace.self_coverage"] <= 1.0
    assert bases["solver_calls"] == 2


def test_metric_lists_agree_with_benchmark_json():
    metrics, _ = layers.per_layer_metrics([], [], [], [], task_thread=threading.get_ident())
    assert list(metrics) == [name for name, _, _ in layers.METRICS]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(layers.METRICS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_benchmark_json_within_contract_limits():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in BENCHMARK[key]]
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) for key in ("end_to_end", "per_layer") for m in BENCHMARK[key])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCHMARK["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_speed_factor_uses_the_loops_around_each_task():
    reference = run.CALIBRATION_REFERENCE_S
    factors = run.speeds([reference, 2 * reference, reference])
    assert factors == pytest.approx([(2 / 3) ** run.SPEED_EXPONENT] * 2)
    assert run.speeds([reference]) == []


def _result(workload, seed, trace, energies, **metrics):
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "energies": energies,
        "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()},
    }


def test_compare_flags_moved_energies_and_counts_only():
    base = [
        _result("w", 1, 0, [-1.0, -2.0], wall_s=1.0),
        _result("w", 2, 0, [-1.5], wall_s=2.0),
        _result("w", 1, 1, [-1.0, -2.0], **{"vqe.evaluations": 644, "sim.expectation.s": 1.0}),
    ]
    same = [
        _result("w", 1, 0, [-1.0, -2.0], wall_s=0.5),
        _result("w", 2, 0, [-1.5], wall_s=0.7),
        _result("w", 1, 1, [-1.0, -2.0], **{"vqe.evaluations": 644, "sim.expectation.s": 0.1}),
    ]
    assert compare.flags(base, same) == []

    moved = [
        _result("w", 1, 0, [-1.0, -2.0 + 1e-12], wall_s=1.0),
        _result("w", 1, 1, [-1.0, -2.0], **{"vqe.evaluations": 600, "sim.expectation.s": 1.0}),
        _result("w", 3, 0, [-9.0], wall_s=1.0),  # seed absent from base: nothing to compare
    ]
    found = compare.flags(base, moved)
    assert len(found) == 2
    assert "energies moved" in found[0] and "seed=1 trace=0" in found[0]
    assert "vqe.evaluations moved 644 -> 600" in found[1]


def test_compare_summary_quartiles_over_untraced_runs():
    results = [_result("w", s, 0, [], wall_s=float(s)) for s in range(1, 6)]
    results.append(_result("w", 9, 1, [], wall_s=100.0))
    q1, median, q3 = compare.summarize(results)[("w", "wall_s")]
    assert (q1, median, q3) == (1.5, 3.0, 4.5)


def test_mu_inputs_are_deterministic_per_seed(tmp_path):
    runs = {}
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        work = tmp_path / label
        work.mkdir()
        inputs = workloads.WORKLOADS["mu-scan-lih"].setup(work, seed)
        contents = [path.read_bytes() for path in inputs.files] + [inputs.config.read_bytes()]
        runs[label] = (inputs, contents)
    (a, a_files), (b, b_files), (c, c_files) = runs["a"], runs["b"], runs["c"]
    assert a_files == b_files and a.expected_mu == b.expected_mu and a.references == b.references
    assert c_files != a_files

    for inputs in (a, c):
        grid = workloads.mu_grid()
        assert len(inputs.files) == len(grid) == 8
        best = min(range(len(grid)), key=lambda k: inputs.references[k])
        assert grid[best] == inputs.expected_mu
        gaps = sorted(inputs.references)
        assert gaps[1] - gaps[0] >= workloads.MU_OFFSET_RANGE_HA[0] - 1e-12


def test_planted_offsets_zero_only_at_the_planted_point():
    for seed in range(20):
        offsets, planted = workloads.planted_offsets(seed)
        assert offsets[planted] == 0.0
        assert all(lo >= workloads.MU_OFFSET_RANGE_HA[0] for k, lo in enumerate(offsets) if k != planted)
