"""Damped self-consistency cycle: schedules, exactness limits, histories."""

import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcembed.activespace import ActiveSpaceSpec
from qcembed.embedding import (
    EmbeddingConfig,
    EmbeddingError,
    damping_factor,
    run_embedding,
    write_iteration_log_csv,
)
from qcembed.meanfield import solve_rhf
from qcembed.vqe import VqeConfig


def test_damping_factor_table():
    config = EmbeddingConfig()
    assert damping_factor(1, config) == 0.2
    assert damping_factor(4, config) == pytest.approx(0.1)
    assert damping_factor(16, config) == pytest.approx(0.05)
    assert damping_factor(100, config) == 0.05  # floor active


def test_damping_factor_invalid_iteration():
    with pytest.raises(ValueError, match="1-based"):
        damping_factor(0)


def test_config_validation():
    with pytest.raises(ValueError):
        EmbeddingConfig(threshold=0.0)
    with pytest.raises(ValueError):
        EmbeddingConfig(damping_floor=0.3, damping_scale=0.2)
    with pytest.raises(ValueError):
        EmbeddingConfig(active_solver="magic")
    EmbeddingConfig(damping_floor=1.0, damping_scale=1.0)  # damping disabled is legal


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_refuses_non_finite_threshold(value):
    with pytest.raises(ValueError, match="threshold must be finite"):
        EmbeddingConfig(threshold=value)


def test_full_active_space_equals_fci_and_converges_at_two(golden, h2_integrals):
    state = run_embedding(
        h2_integrals, ActiveSpaceSpec(2, 2), EmbeddingConfig(active_solver="fci")
    )
    assert state.converged
    assert state.iteration == 2
    assert state.energy_history[0] == pytest.approx(golden["h2_0735"]["e_fci"], abs=1e-8)
    assert state.final_energy == pytest.approx(golden["h2_0735"]["e_fci"], abs=1e-8)
    assert state.delta_history[-1] == pytest.approx(0.0, abs=1e-12)


def test_empty_active_space_equals_rhf_exactly(h2o_integrals):
    mf = solve_rhf(h2o_integrals)
    state = run_embedding(
        h2o_integrals, ActiveSpaceSpec(0, 0), EmbeddingConfig(active_solver="fci")
    )
    assert state.converged
    assert state.final_energy == pytest.approx(mf.energy, abs=1e-12)


FIXTURE_SPACES = {
    "h2": [(2, 1), (2, 2)],
    "lih": [(2, 2), (2, 3), (2, 4), (4, 4)],
    "h2o": [(2, 2), (4, 4), (6, 5)],
}


def test_fixture_spaces_converge_within_two(golden, request):
    """The paper's two-iteration convergence: the built-in solvers solve
    once, and iteration 2 confirms with a delta of exactly 0."""
    for solver_name in ("fci", "vqe"):
        for molecule, specs in FIXTURE_SPACES.items():
            integrals = request.getfixturevalue(f"{molecule}_integrals")
            for spec in specs:
                state = run_embedding(
                    integrals,
                    ActiveSpaceSpec(*spec),
                    EmbeddingConfig(active_solver=solver_name),
                    VqeConfig(seed=0),
                )
                label = f"{solver_name} {molecule} {spec}"
                assert state.converged, label
                assert state.iteration == 2, label
                assert state.delta_history[1] == 0.0, label
                assert state.solver_evaluations[1] == 0, label
                if (solver_name, molecule, spec) == ("fci", "h2o", (2, 2)):
                    # golden energy for this fixture
                    assert state.final_energy == pytest.approx(
                        golden["h2o"]["e_casci_2_2"], abs=1e-8
                    )


def test_damping_disabled_reaches_same_fixed_point(h2_integrals):
    default = run_embedding(h2_integrals, ActiveSpaceSpec(2, 2), EmbeddingConfig(active_solver="fci"))
    undamped = run_embedding(
        h2_integrals,
        ActiveSpaceSpec(2, 2),
        EmbeddingConfig(active_solver="fci", damping_floor=1.0, damping_scale=1.0),
    )
    assert undamped.final_energy == pytest.approx(default.final_energy, abs=1e-8)


def test_alpha_history_matches_formula(h2_integrals):
    drift = iter(np.linspace(0.0, 1.0, 30))

    def drifting_solver(active_h, iteration):
        return -1.0 - next(drift), np.eye(active_h.n_orbitals), 1

    config = EmbeddingConfig(active_solver=drifting_solver, max_embedding_iterations=20)
    state = run_embedding(h2_integrals, ActiveSpaceSpec(2, 2), config)
    assert not state.converged
    assert len(state.alpha_history) == 20
    for i, alpha in enumerate(state.alpha_history, start=1):
        assert alpha == max(0.05, 0.2 / math.sqrt(i))


def test_density_positivity_and_trace_each_iteration(h2o_integrals):
    state = run_embedding(
        h2o_integrals, ActiveSpaceSpec(4, 4), EmbeddingConfig(active_solver="fci")
    )
    eigenvalues = np.linalg.eigvalsh(state.damped_density)
    assert eigenvalues.min() >= -1e-8
    assert eigenvalues.max() <= 2.0 + 1e-8
    assert np.trace(state.damped_density) == pytest.approx(h2o_integrals.n_electrons, abs=1e-8)


def test_density_positivity_at_every_intermediate_iteration(h2_integrals):
    """Sample the damped density after each iteration count of a drifting run."""

    def make_solver():
        counter = iter(range(100))

        def solver(active_h, iteration):
            k = next(counter)
            gamma = np.diag([2.0 - 0.05 * k / (k + 1), 0.05 * k / (k + 1)])
            return -1.0 - 0.1 * k, gamma, 1

        return solver

    for max_iter in (1, 2, 3, 5, 8):
        config = EmbeddingConfig(active_solver=make_solver(), max_embedding_iterations=max_iter)
        state = run_embedding(h2_integrals, ActiveSpaceSpec(2, 2), config)
        eigenvalues = np.linalg.eigvalsh(state.damped_density)
        assert eigenvalues.min() >= -1e-8, f"iteration {max_iter}"
        assert eigenvalues.max() <= 2.0 + 1e-8, f"iteration {max_iter}"


def test_idempotent_restart(h2_integrals):
    config = EmbeddingConfig(active_solver="fci")
    first = run_embedding(h2_integrals, ActiveSpaceSpec(2, 2), config)
    assert first.converged
    resumed = run_embedding(h2_integrals, ActiveSpaceSpec(2, 2), config, resume_from=first)
    assert resumed.converged
    assert resumed.iteration == first.iteration + 1
    assert resumed.delta_history[-1] < config.threshold
    # alpha indexing stays consistent with the global iteration count
    for i, alpha in enumerate(resumed.alpha_history, start=1):
        assert alpha == max(0.05, 0.2 / math.sqrt(i))


def test_resume_refuses_mismatched_density_shape(h2_integrals, h2o_integrals):
    config = EmbeddingConfig(active_solver="fci")
    h2_state = run_embedding(h2_integrals, ActiveSpaceSpec(2, 2), config)
    with pytest.raises(EmbeddingError, match="shape"):
        run_embedding(h2o_integrals, ActiveSpaceSpec(2, 2), config, resume_from=h2_state)


def test_resume_refuses_different_orbital_selection(h2o_integrals):
    config = EmbeddingConfig(active_solver="fci", max_embedding_iterations=1)
    state = run_embedding(h2o_integrals, ActiveSpaceSpec(2, 2), config)
    with pytest.raises(EmbeddingError, match="state active orbitals"):
        run_embedding(h2o_integrals, ActiveSpaceSpec(4, 4), config, resume_from=state)
    inactive_only = dataclasses.replace(state, active_orbitals=())
    with pytest.raises(EmbeddingError, match="state inactive orbitals"):
        run_embedding(h2o_integrals, ActiveSpaceSpec(4, 4), config, resume_from=inactive_only)
    unrecorded = dataclasses.replace(state, active_orbitals=(), inactive_orbitals=())
    resumed = run_embedding(h2o_integrals, ActiveSpaceSpec(4, 4), config, resume_from=unrecorded)
    assert resumed.iteration == state.iteration + 1


def test_resume_refuses_foreign_environment_density(h2o_integrals):
    """A (4e,4o) density leaks outside the (2e,2o) window, so its bath is
    not the inactive occupation the resuming run reduces against."""
    config = EmbeddingConfig(active_solver="fci", max_embedding_iterations=1)
    state = run_embedding(h2o_integrals, ActiveSpaceSpec(4, 4), config)
    unrecorded = dataclasses.replace(state, active_orbitals=(), inactive_orbitals=())
    with pytest.raises(EmbeddingError, match="environment density"):
        run_embedding(h2o_integrals, ActiveSpaceSpec(2, 2), config, resume_from=unrecorded)


def test_vqe_energy_dominates_fci_energy(h2o_integrals):
    spec = ActiveSpaceSpec(2, 2)
    with_fci = run_embedding(h2o_integrals, spec, EmbeddingConfig(active_solver="fci"))
    with_vqe = run_embedding(
        h2o_integrals, spec, EmbeddingConfig(active_solver="vqe"), VqeConfig(seed=0)
    )
    assert with_vqe.converged
    assert with_vqe.final_energy >= with_fci.final_energy - 1e-9
    assert with_vqe.final_energy == pytest.approx(with_fci.final_energy, abs=1e-5)


def test_solver_failure_is_annotated():
    import qcembed.integrals as qi

    integrals = qi.parse_fcidump(" &FCI NORB=2,NELEC=2,MS2=0,\n &END\n-1.0 1 1 0 0\n-0.3 2 2 0 0\n0.5 1 1 1 1\n")

    def broken_solver(active_h, iteration):
        raise RuntimeError("exploded")

    with pytest.raises(EmbeddingError, match="iteration 1"):
        run_embedding(integrals, ActiveSpaceSpec(2, 2), EmbeddingConfig(active_solver=broken_solver))


def test_iteration_log_csv_schema(h2_integrals):
    state = run_embedding(h2_integrals, ActiveSpaceSpec(2, 2), EmbeddingConfig(active_solver="fci"))
    buffer = io.StringIO()
    write_iteration_log_csv(state, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "iteration,alpha,energy,delta_energy,solver_evaluations"
    assert len(lines) == len(state.energy_history) + 1
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[1] == "0.2"
    assert first[3] == ""  # no predecessor energy
    second = lines[2].split(",")
    assert second[3] != ""


def test_unconverged_reference_rejected(h2o_integrals):
    # a mean-field reference that cannot converge in the embedded solve
    import qcembed.embedding as emb
    import qcembed.meanfield as mfmod

    original = mfmod.solve_rhf

    def broken(*args, **kwargs):
        result = original(*args, max_iter=1, tol=1e-15)
        return result

    emb_solve = emb.solve_rhf
    try:
        emb.solve_rhf = broken
        with pytest.raises(EmbeddingError, match="mean-field"):
            run_embedding(h2o_integrals, ActiveSpaceSpec(2, 2), EmbeddingConfig(active_solver="fci"))
    finally:
        emb.solve_rhf = emb_solve


def _count_calls(monkeypatch, name):
    """Record the first argument of every call to qcembed.embedding.<name>."""
    import qcembed.embedding as emb

    calls = []
    original = getattr(emb, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(emb, name, counted)
    return calls


@pytest.mark.parametrize("solver_name, entry", [("fci", "fci_solve"), ("vqe", "minimize")])
@pytest.mark.parametrize("molecule, spec", [("h2", (2, 2)), ("h2o", (4, 4))])
def test_builtin_solver_reuses_unchanged_hamiltonian(
    monkeypatch, request, molecule, spec, solver_name, entry
):
    import qcembed.embedding as emb

    integrals = request.getfixturevalue(f"{molecule}_integrals")
    vqe_config = VqeConfig(seed=7)
    calls = _count_calls(monkeypatch, entry)
    state = run_embedding(
        integrals, ActiveSpaceSpec(*spec), EmbeddingConfig(active_solver=solver_name), vqe_config
    )
    assert state.converged and state.iteration == 2
    assert len(calls) == 1

    # an unwrapped callable doing the same work solves in every iteration
    if solver_name == "fci":
        unwrapped = emb._solve_active_fci
    else:
        unwrapped = emb._make_vqe_solver(vqe_config)
    reference = run_embedding(
        integrals, ActiveSpaceSpec(*spec), EmbeddingConfig(active_solver=unwrapped), vqe_config
    )
    assert len(calls) == 1 + reference.iteration
    assert state.energy_history == reference.energy_history
    assert np.array_equal(state.damped_density, reference.damped_density)
    assert reference.solver_evaluations[0] > 0
    assert state.solver_evaluations == (reference.solver_evaluations[0], 0)


@pytest.mark.parametrize("molecule, spec", [("h2", (2, 2)), ("h2o", (4, 4))])
def test_one_reduction_and_one_builtin_solve_per_run(monkeypatch, request, molecule, spec):
    integrals = request.getfixturevalue(f"{molecule}_integrals")
    reductions = _count_calls(monkeypatch, "reduce_in_orbital_basis")
    for solver_name, entry in (("fci", "fci_solve"), ("vqe", "minimize")):
        solves = _count_calls(monkeypatch, entry)
        config = EmbeddingConfig(active_solver=solver_name)
        first = run_embedding(integrals, ActiveSpaceSpec(*spec), config, VqeConfig(seed=7))
        assert len(solves) == 1
        resumed = run_embedding(
            integrals, ActiveSpaceSpec(*spec), config, VqeConfig(seed=7), resume_from=first
        )
        assert len(solves) == 2
        n = first.solver_evaluations[0]
        assert n > 0
        assert first.solver_evaluations == (n, 0)
        assert resumed.solver_evaluations == (n, 0, n)
    assert len(reductions) == 4

    # a callable solver is called in every iteration, always with the same Hamiltonian
    seen = []

    def solver(active, iteration):
        seen.append(active)
        return -float(iteration), np.eye(active.n_orbitals), 1

    config = EmbeddingConfig(active_solver=solver, max_embedding_iterations=3)
    run_embedding(integrals, ActiveSpaceSpec(*spec), config)
    assert len(seen) == 3 and all(active is seen[0] for active in seen)
    assert len(reductions) == 5


def test_builtin_solver_repeats_return_a_private_one_rdm():
    from oracles import random_active_hamiltonian

    import qcembed.embedding as emb

    solver = emb._resolve_solver(EmbeddingConfig(active_solver="fci"), None)
    active = random_active_hamiltonian(np.random.default_rng(61), 3)
    energy, gamma, evaluations = solver(active, 1)
    repeat_energy, repeat_gamma, repeat_evaluations = solver(active, 2)
    assert (evaluations, repeat_evaluations) == (1, 0) and repeat_energy == energy
    assert np.array_equal(repeat_gamma, gamma) and repeat_gamma is not gamma
    # neither returned 1-RDM aliases the one kept for later iterations
    gamma[0, 0] = repeat_gamma[0, 0] = np.nan
    assert np.isfinite(solver(active, 3)[1]).all()


@pytest.mark.parametrize(
    "molecule, specs",
    [
        ("h2", [(2, 1), (2, 2)]),
        ("lih", [(2, 2), (2, 3), (4, 4)]),
        ("h2o", [(2, 2), (4, 4), (6, 5)]),
    ],
)
def test_active_hamiltonian_is_fixed_across_iterations(request, molecule, specs):
    """Whatever the damping schedule and whatever symmetric 1-RDM the
    solver returns, every mixed density keeps the inactive occupations
    bitwise outside the active window, so the reduction done once per run
    is the one every iteration would give."""
    integrals = request.getfixturevalue(f"{molecule}_integrals")
    unit = st.floats(0.0, 1.0, exclude_min=True)
    for spec in specs:

        @given(
            damping=st.tuples(unit, unit).map(sorted),
            max_iterations=st.integers(1, 6),
            seed=st.integers(0, 2**32 - 1),
        )
        @settings(max_examples=25, deadline=None)
        def check(damping, max_iterations, seed):
            rng = np.random.default_rng(seed)

            def solver(active, iteration):
                gamma = rng.normal(size=(active.n_orbitals, active.n_orbitals))
                return rng.normal(), gamma + gamma.T, 1

            floor, scale = damping
            config = EmbeddingConfig(
                active_solver=solver,
                max_embedding_iterations=max_iterations,
                damping_floor=floor,
                damping_scale=scale,
            )
            state = run_embedding(integrals, ActiveSpaceSpec(*spec), config)
            active = list(state.active_orbitals)
            occupation = np.zeros(integrals.n_orbitals)
            occupation[list(state.inactive_orbitals)] = 2.0
            environment = np.delete(np.delete(state.damped_density, active, 0), active, 1)
            assert np.array_equal(environment, np.diag(np.delete(occupation, active)))

        check()
