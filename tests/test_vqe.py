"""VQE driver: initialization determinism, convergence, trace contract,
the batched gradient sweep against the serial reference, and the
optimizer's BLAS thread pin."""

import ctypes
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcembed.activespace import ActiveSpaceSpec, reduce_integrals
from qcembed.fci import fci_solve
from qcembed.meanfield import solve_rhf
from qcembed.pauli import PauliSum
from qcembed.report import csv_text
from qcembed.sim import build_uccsd_ansatz, map_active_hamiltonian
from qcembed import vqe
from qcembed.vqe import (
    VqeConfig,
    VqeError,
    initialize_parameters,
    minimize,
)

from oracles import reference_minimize


@pytest.fixture(scope="module")
def h2_problem(h2_integrals):
    mf = solve_rhf(h2_integrals)
    active = reduce_integrals(h2_integrals, mf, ActiveSpaceSpec(2, 2))
    hamiltonian = map_active_hamiltonian(active)
    ansatz = build_uccsd_ansatz(active.n_orbitals, active.n_electrons)
    return active, hamiltonian, ansatz


def test_initialize_zero_count():
    assert initialize_parameters(0, VqeConfig(seed=3)).shape == (0,)


def test_initialize_sigma_zero_gives_hf_start():
    params = initialize_parameters(5, VqeConfig(seed=3, sigma=0.0))
    assert np.array_equal(params, np.zeros(5))


def test_initialize_deterministic_for_fixed_seed():
    a = initialize_parameters(3, VqeConfig(seed=123))
    b = initialize_parameters(3, VqeConfig(seed=123))
    assert np.array_equal(a, b)
    c = initialize_parameters(3, VqeConfig(seed=124))
    assert not np.array_equal(a, c)


def test_initialize_scale():
    params = initialize_parameters(4000, VqeConfig(seed=9, sigma=0.001))
    assert np.std(params) == pytest.approx(0.001, rel=0.1)


def test_config_validation():
    with pytest.raises(ValueError):
        VqeConfig(sigma=-0.1)
    with pytest.raises(ValueError):
        VqeConfig(max_iterations=0)
    with pytest.raises(ValueError):
        VqeConfig(tolerance=0.0)


@pytest.mark.parametrize("name", ["sigma", "tolerance", "gradient_step"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_config_refuses_non_finite_numbers(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        VqeConfig(**{name: value})


def test_zero_parameter_ansatz_returns_hf_energy():
    ansatz = build_uccsd_ansatz(1, 2)  # no virtuals: 0 parameters
    assert ansatz.n_parameters == 0
    hamiltonian = PauliSum.identity(ansatz.n_qubits, -0.75)
    with mock.patch.object(vqe, "_scipy_openblas") as lookup:
        result = minimize(hamiltonian, ansatz, VqeConfig(seed=0))
    lookup.assert_not_called()  # no optimizer runs, so the BLAS pool is left alone
    assert result.energy == pytest.approx(-0.75)
    assert result.evaluations == 1
    assert result.converged
    assert list(result.trace) == [(0, -0.75)]
    assert result.iterations == 0
    assert result.message == "no parameters to optimize"
    assert result.gradient_norm == 0.0


def test_h2_vqe_reaches_fci(h2_problem):
    active, hamiltonian, ansatz = h2_problem
    fci = fci_solve(active)
    result = minimize(hamiltonian, ansatz, VqeConfig(seed=0))
    assert result.converged
    assert result.energy == pytest.approx(fci.ground_energy, abs=1e-6)
    assert result.energy >= fci.ground_energy - 1e-9  # variational


def test_trace_records_every_evaluation(h2_problem):
    _, hamiltonian, ansatz = h2_problem
    result = minimize(hamiltonian, ansatz, VqeConfig(seed=0))
    assert result.evaluations == len(result.trace)
    assert [index for index, _ in result.trace] == list(range(len(result.trace)))
    assert result.trace  # non-empty


def test_iterate_energies_monotone_non_increasing(h2_problem):
    _, hamiltonian, ansatz = h2_problem
    result = minimize(hamiltonian, ansatz, VqeConfig(seed=2))
    energies = result.iterate_energies
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
    assert result.energy == pytest.approx(energies[-1], abs=1e-12)


def test_reproducibility_bitwise(h2_problem):
    _, hamiltonian, ansatz = h2_problem
    a = minimize(hamiltonian, ansatz, VqeConfig(seed=11))
    b = minimize(hamiltonian, ansatz, VqeConfig(seed=11))
    assert a.energy == b.energy
    assert np.array_equal(a.parameters, b.parameters)
    assert a.trace == b.trace


def test_sigma_zero_and_default_reach_same_minimum(h2_problem):
    _, hamiltonian, ansatz = h2_problem
    zero_start = minimize(hamiltonian, ansatz, VqeConfig(seed=0, sigma=0.0))
    gaussian = minimize(hamiltonian, ansatz, VqeConfig(seed=0, sigma=1e-3))
    assert zero_start.energy == pytest.approx(gaussian.energy, abs=1e-6)


def test_non_finite_energy_raises_with_trace(h2_problem):
    """Every row of the start point's sweep is NaN: E(x0) is refused before
    anything is recorded, with the serial reference's trace and message."""
    _, _, ansatz = h2_problem
    bad = PauliSum.identity(ansatz.n_qubits, float("nan"))
    with pytest.raises(VqeError) as expected:
        reference_minimize(bad, ansatz, VqeConfig(seed=0))
    with pytest.raises(VqeError) as err:
        minimize(bad, ansatz, VqeConfig(seed=0))
    assert err.value.trace == expected.value.trace == []
    assert str(err.value) == str(expected.value)


def test_qubit_count_mismatch_rejected(h2_problem):
    _, hamiltonian, _ = h2_problem
    other = build_uccsd_ansatz(3, 2)
    with pytest.raises(ValueError, match="qubits"):
        minimize(hamiltonian, other, VqeConfig())


def test_trace_csv_export(h2_problem):
    _, hamiltonian, ansatz = h2_problem
    result = minimize(hamiltonian, ansatz, VqeConfig(seed=0))
    lines = csv_text(("evaluation_index", "energy"), result.trace).splitlines()
    assert lines[0] == "evaluation_index,energy"
    assert len(lines) == len(result.trace) + 1
    index, energy = lines[1].split(",")
    assert int(index) == 0
    float(energy)  # parses


# -- run records ---------------------------------------------------------------


def central_gradient(hamiltonian, ansatz, theta, h):
    from qcembed.sim import evolve_ansatz, expectation

    def energy(point):
        return expectation(evolve_ansatz(ansatz, point), hamiltonian)

    grad = np.empty(len(theta))
    for k in range(len(theta)):
        step = np.zeros(len(theta))
        step[k] = h
        grad[k] = (energy(theta + step) - energy(theta - step)) / (2.0 * h)
    return grad


def test_run_records_on_tolerance_stop(h2_problem):
    _, hamiltonian, ansatz = h2_problem
    config = VqeConfig(seed=0)
    result = minimize(hamiltonian, ansatz, config)
    assert result.converged
    assert result.iterations == len(result.iterate_energies) >= 2
    assert result.message == "energy change between iterates below tolerance 1e-06"
    # the last gradient was taken at the accepted iterate the run returns
    expected = central_gradient(hamiltonian, ansatz, result.parameters, config.gradient_step)
    assert result.gradient_norm == np.max(np.abs(expected))
    assert result.evaluations == len(result.trace)  # the records cost no evaluation


def test_tolerance_stop_on_the_last_allowed_iterate_is_converged(h2_problem):
    """A StopIteration on the capped iterate, where scipy's iteration
    limit is also reached, is the same tolerance stop as without a cap."""
    _, hamiltonian, ansatz = h2_problem
    free = minimize(hamiltonian, ansatz, VqeConfig(seed=0))
    capped = minimize(hamiltonian, ansatz, VqeConfig(seed=0, max_iterations=free.iterations))
    assert free.converged
    assert_same_run(capped, free)
    assert capped.message == free.message


def test_run_records_on_iteration_cap(h2_problem):
    _, hamiltonian, ansatz = h2_problem
    result = minimize(hamiltonian, ansatz, VqeConfig(seed=0, max_iterations=1))
    assert not result.converged
    assert result.iterations == 1
    assert "ITERATIONS REACHED LIMIT" in result.message
    assert np.isfinite(result.gradient_norm) and result.gradient_norm > 0.0


# -- the batched gradient sweep against the serial reference -------------------


PROBLEMS = (("h2", 2, 2), ("lih", 2, 3), ("h2o", 4, 4))


@pytest.fixture(scope="module")
def problems(request):
    built = []
    for molecule, n_electrons, n_orbitals in PROBLEMS:
        integrals = request.getfixturevalue(f"{molecule}_integrals")
        active = reduce_integrals(
            integrals, solve_rhf(integrals), ActiveSpaceSpec(n_electrons, n_orbitals)
        )
        built.append(
            (map_active_hamiltonian(active), build_uccsd_ansatz(active.n_orbitals, active.n_electrons))
        )
    return built


def assert_same_run(actual, expected):
    assert actual.trace == expected.trace
    assert actual.parameters.tobytes() == expected.parameters.tobytes()
    assert actual.energy == expected.energy
    assert actual.evaluations == expected.evaluations
    assert actual.iterate_energies == expected.iterate_energies
    assert actual.converged == expected.converged


@given(
    which=st.integers(0, len(PROBLEMS) - 1),
    seed=st.integers(0, 2**32 - 1),
    sigma=st.one_of(st.just(0.0), st.floats(1e-4, 0.5)),
    max_iterations=st.sampled_from((2, 50)),
    block_rows=st.sampled_from((None, 1, 3, 5)),
)
@settings(max_examples=30, deadline=None)
def test_sweep_is_bitwise_reference(problems, which, seed, sigma, max_iterations, block_rows):
    hamiltonian, ansatz = problems[which]
    config = VqeConfig(seed=seed, sigma=sigma, max_iterations=max_iterations)
    # 2n+1 rows in blocks of 3 or 5 leave a partial last block on every problem
    block = vqe._BLOCK_AMPLITUDES if block_rows is None else block_rows * 2**ansatz.n_qubits
    with mock.patch.object(vqe, "_BLOCK_AMPLITUDES", block):
        result = minimize(hamiltonian, ansatz, config)
    assert_same_run(result, reference_minimize(hamiltonian, ansatz, config))


def sweep_rows(theta, h):
    """theta, theta + h e_0, theta - h e_0, theta + h e_1, ...: the rows of
    one point's sweep, in trace order."""
    rows = [theta]
    for k in range(len(theta)):
        for step in (h, -h):
            shifted = theta.copy()
            shifted[k] = theta[k] + step
            rows.append(shifted)
    return np.array(rows)


@pytest.mark.parametrize("which", range(len(PROBLEMS)))
@pytest.mark.parametrize("seed", [0, 7, 31])
@pytest.mark.parametrize("block_rows", [None, 3])
def test_each_point_is_simulated_once(problems, which, seed, block_rows):
    hamiltonian, ansatz = problems[which]
    n = ansatz.n_parameters
    config = VqeConfig(seed=seed)
    blocks = []
    evolve_rows = vqe._evolve_rows

    def spy_rows(ansatz, thetas):
        blocks.append(np.array(thetas))
        return evolve_rows(ansatz, thetas)

    block = vqe._BLOCK_AMPLITUDES if block_rows is None else block_rows * 2**ansatz.n_qubits
    with (
        mock.patch.object(vqe, "_BLOCK_AMPLITUDES", block),
        mock.patch.object(vqe, "_evolve_rows", spy_rows),
        mock.patch.object(vqe, "evolve_ansatz", side_effect=vqe.evolve_ansatz) as single,
    ):
        result = minimize(hamiltonian, ansatz, config)
    assert n > 0 and single.call_count == 0
    # the blocks tile whole sweeps: none straddles two points
    starts = np.cumsum([0] + [len(rows) for rows in blocks[:-1]])
    assert all(start % (2 * n + 1) + len(rows) <= 2 * n + 1 for start, rows in zip(starts, blocks))
    swept = np.concatenate(blocks)
    assert len(swept) % (2 * n + 1) == 0
    for sweep in swept.reshape(-1, 2 * n + 1, n):
        assert sweep.tobytes() == sweep_rows(sweep[0], config.gradient_step).tobytes()
    # every accepted iterate reuses its point's energy
    assert len(swept) == result.evaluations - result.iterations


# (problem, block sizes of one sweep) with 4 x 64 amplitudes per block: LiH
# (2e,3o) sweeps 17 rows of 16 amplitudes, H2O (4e,4o) 53 rows of 64
TABLE_CASES = {"zero parameters": (None, [1]), "lih": (1, [16, 1]), "h2o": (2, [4] * 13 + [1])}


@pytest.mark.parametrize("case", TABLE_CASES)
def test_minimize_compiles_its_table_once(problems, monkeypatch, case):
    which, sweep_blocks = TABLE_CASES[case]
    if which is None:
        ansatz = build_uccsd_ansatz(1, 2)  # no virtuals: 0 parameters
        hamiltonian = PauliSum.identity(ansatz.n_qubits, -0.75)
    else:
        hamiltonian, ansatz = problems[which]
    compiles, blocks = [], []
    grouped_operator, expectation_rows = vqe._grouped_operator, vqe._expectation_rows

    def spy_compile(op, rows):
        compiles.append(op)
        assert np.isin(ansatz._support, rows).all()  # the table covers the support
        return grouped_operator(op, rows)

    def spy_rows(amps, table, rows):
        blocks.append(len(amps))
        return expectation_rows(amps, table, rows)

    monkeypatch.setattr(vqe, "_BLOCK_AMPLITUDES", 4 * 64)
    monkeypatch.setattr(vqe, "_grouped_operator", spy_compile)
    monkeypatch.setattr(vqe, "_expectation_rows", spy_rows)
    for call in (1, 2):
        result = minimize(hamiltonian, ansatz, VqeConfig(seed=0, max_iterations=3))
        assert len(compiles) == call and compiles[-1] is hamiltonian
    # every sweep of both calls read the one table of its call
    assert len(blocks) % len(sweep_blocks) == 0 and len(blocks) > len(sweep_blocks)
    assert blocks == sweep_blocks * (len(blocks) // len(sweep_blocks))
    assert sum(blocks) == 2 * (result.evaluations - result.iterations)


@pytest.mark.parametrize("which", range(len(PROBLEMS)))
def test_one_objective_and_iterate_energies_from_scipy(problems, which):
    """scipy gets energy and gradient from one callable (jac=True), each
    callback entry is the ``fun`` scipy hands over in
    ``intermediate_result``, and a StopIteration from the callback ends
    the run at that iterate, converged."""
    import inspect

    import scipy.optimize

    from qcembed.sim import evolve_ansatz, expectation

    hamiltonian, ansatz = problems[which]
    n = ansatz.n_parameters
    config = VqeConfig(seed=3, sigma=0.1)
    x0 = initialize_parameters(n, config)
    # energies no simulation produces: the entries can only come from scipy
    handed = [-123.25, -123.5, -123.5 + 0.5 * config.tolerance]
    seen = {}

    def fake_minimize(fun, x, jac, callback, **kwargs):
        seen["jac"] = jac
        seen["parameters"] = set(inspect.signature(callback).parameters)
        seen["start"] = fun(x)
        for step, energy in enumerate(handed, start=1):
            point = x + 0.01 * step
            try:
                callback(intermediate_result=scipy.optimize.OptimizeResult(x=point, fun=energy))
            except StopIteration:
                seen["stopped"] = step
                return scipy.optimize.OptimizeResult(x=point, fun=energy, message="STOP: fake")
        return scipy.optimize.OptimizeResult(x=x, fun=-1.0, message="fake")

    with mock.patch("scipy.optimize.minimize", fake_minimize):
        result = minimize(hamiltonian, ansatz, config)

    assert seen["jac"] is True
    assert seen["parameters"] == {"intermediate_result"}
    energy, gradient = seen["start"]
    assert gradient.shape == (n,)
    rows = sweep_rows(x0, config.gradient_step)
    swept = [expectation(evolve_ansatz(ansatz, row), hamiltonian) for row in rows]
    assert [value for _, value in result.trace[: 2 * n + 1]] == swept
    assert energy == swept[0]
    assert [value for _, value in result.trace[2 * n + 1 :]] == handed
    assert [index for index, _ in result.trace] == list(range(2 * n + 1 + len(handed)))
    assert seen["stopped"] == len(handed)
    assert result.converged
    assert result.message == "energy change between iterates below tolerance 1e-06"
    assert result.iterate_energies == tuple(handed)
    assert result.iterations == len(handed)
    assert result.energy == handed[-1]
    assert result.parameters.tobytes() == (x0 + 0.01 * len(handed)).tobytes()
    assert result.gradient_norm == np.max(np.abs(gradient))


def overflow_hamiltonian(ansatz, k):
    """c (I + X_k) with c the largest double and X_k the X-string of
    generator k: finite at the Hartree-Fock state, infinite at one of the
    two states shifted along theta_k, where c cos(h) + c sin(h) overflows."""
    from qcembed.pauli import PauliString

    c = float(np.finfo(float).max)
    x_mask = ansatz.generators[k].sorted_terms()[0][0].x_mask
    return PauliSum(
        ansatz.n_qubits,
        {PauliString(ansatz.n_qubits): c, PauliString(ansatz.n_qubits, x_mask, 0): c},
    )


@pytest.mark.parametrize("block_rows", [None, 1, 4])
@np.errstate(over="ignore", invalid="ignore")  # the overflow is the point of the test
def test_non_finite_shifted_row_raises_with_reference_trace(problems, block_rows):
    _, ansatz = problems[2]
    k = 3
    hamiltonian = overflow_hamiltonian(ansatz, k)
    config = VqeConfig(seed=0, sigma=0.0)
    with pytest.raises(VqeError) as expected:
        reference_minimize(hamiltonian, ansatz, config)
    # the start point and the rows of generators 0..k-1 came first
    assert len(expected.value.trace) in (1 + 2 * k, 2 + 2 * k)
    block = vqe._BLOCK_AMPLITUDES if block_rows is None else block_rows * 2**ansatz.n_qubits
    with mock.patch.object(vqe, "_BLOCK_AMPLITUDES", block), pytest.raises(VqeError) as err:
        minimize(hamiltonian, ansatz, config)
    assert err.value.trace == expected.value.trace
    assert str(err.value) == str(expected.value)


@pytest.mark.parametrize(("which", "k", "seed"), [(1, 0, 0), (2, 3, 0)])
@pytest.mark.parametrize("block_rows", [None, 1])
@np.errstate(over="ignore", invalid="ignore")  # the overflow is the point of the test
def test_non_finite_start_point_raises_with_reference_trace(problems, which, k, seed, block_rows):
    """E(x0) itself overflows: the error comes before anything is recorded,
    although the start point's whole sweep was simulated first."""
    _, ansatz = problems[which]
    hamiltonian = overflow_hamiltonian(ansatz, k)
    config = VqeConfig(seed=seed, sigma=0.3)
    with pytest.raises(VqeError) as expected:
        reference_minimize(hamiltonian, ansatz, config)
    assert expected.value.trace == []
    block = vqe._BLOCK_AMPLITUDES if block_rows is None else block_rows * 2**ansatz.n_qubits
    with mock.patch.object(vqe, "_BLOCK_AMPLITUDES", block), pytest.raises(VqeError) as err:
        minimize(hamiltonian, ansatz, config)
    assert err.value.trace == []
    assert str(err.value) == str(expected.value)


# -- scipy's OpenBLAS held to the calling thread during the optimizer ----------


@pytest.fixture
def blas_threads():
    """Reads the thread count of scipy's OpenBLAS pool, which is set to 2
    for the test (so a restore is told apart from the pin) and put back
    after it."""
    import scipy.optimize  # noqa: F401  (loads scipy's OpenBLAS)

    library = vqe._scipy_openblas()
    if library is None:
        pytest.skip("scipy has no bundled OpenBLAS exporting openblas_set_num_threads_local")
    try:
        get_threads = library.scipy_openblas_get_num_threads
    except AttributeError:
        pytest.skip("scipy's OpenBLAS exports no scipy_openblas_get_num_threads")
    get_threads.argtypes = []
    get_threads.restype = ctypes.c_int
    previous = library.openblas_set_num_threads_local(2)
    try:
        yield get_threads
    finally:
        library.openblas_set_num_threads_local(previous)


def spy_on_energies(read):
    """Patch the objective's and the gradient's energy kernels to record
    ``read()`` on every call."""
    seen = {"expectation": [], "_expectation_rows": []}

    def spy(name):
        function = getattr(vqe, name)

        def wrapper(*args, **kwargs):
            seen[name].append(read())
            return function(*args, **kwargs)

        return mock.patch.object(vqe, name, wrapper)

    return seen, spy("expectation"), spy("_expectation_rows")


STOPS = {
    "tolerance": (VqeConfig(seed=0), "energy change between iterates below tolerance"),
    "iteration cap": (VqeConfig(seed=0, max_iterations=1), "ITERATIONS REACHED LIMIT"),
    "non-finite energy": (VqeConfig(seed=0), "non-finite energy"),
}


@pytest.mark.parametrize("stop", STOPS)
def test_blas_thread_count_restored_on_every_stop(h2_problem, blas_threads, stop):
    _, hamiltonian, ansatz = h2_problem
    config, message = STOPS[stop]
    if stop == "non-finite energy":
        hamiltonian = PauliSum.identity(ansatz.n_qubits, float("nan"))
    seen, spy_objective, spy_gradient = spy_on_energies(blas_threads)
    with spy_objective, spy_gradient:
        try:
            result = minimize(hamiltonian, ansatz, config)
        except VqeError as error:
            result = error
    assert message in (str(result) if stop == "non-finite energy" else result.message)
    assert set(seen["expectation"]) | set(seen["_expectation_rows"]) == {1}
    assert blas_threads() == 2


def test_overlapping_minimizations_share_one_pin(problems, blas_threads):
    """The pool's thread count is process-wide: a thread that finishes
    first must not restore it under another that is still optimizing,
    and the last to finish restores it."""
    hamiltonian, ansatz = problems[1]
    seen, spy_objective, spy_gradient = spy_on_energies(blas_threads)
    failures = []

    def worker(seed):
        try:
            for offset in range(3):
                minimize(hamiltonian, ansatz, VqeConfig(seed=seed + offset))
        except Exception as error:  # reported by the assertion below
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with spy_objective, spy_gradient:
            threads = [threading.Thread(target=worker, args=(10 * i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert set(seen["expectation"]) | set(seen["_expectation_rows"]) == {1}
    assert blas_threads() == 2


@pytest.mark.parametrize("which", range(len(PROBLEMS)))
def test_run_without_scipy_openblas_is_bitwise_pinned_run(problems, which):
    hamiltonian, ansatz = problems[which]
    config = VqeConfig(seed=5)
    pinned = minimize(hamiltonian, ansatz, config)
    with mock.patch.object(vqe, "_scipy_openblas", return_value=None):
        unpinned = minimize(hamiltonian, ansatz, config)
    assert_same_run(unpinned, pinned)
    assert unpinned.message == pinned.message
    assert unpinned.gradient_norm == pinned.gradient_norm


@pytest.mark.parametrize("block_rows", [None, 1, 4])
@pytest.mark.parametrize("position", ["first", "middle", "last", "second sweep"])
def test_nan_inside_a_sweep_raises_with_the_trace_before_it(problems, position, block_rows):
    """The expectation rows of a sweep come back with a NaN at one row (a
    NaN in the Hamiltonian's table would reach every row, as NaN x 0 is
    NaN): the error carries every evaluation before that row, as recorded
    one by one."""
    hamiltonian, ansatz = problems[1]
    n = ansatz.n_parameters
    config = VqeConfig(seed=5, sigma=0.3)
    clean = minimize(hamiltonian, ansatz, config)
    bad = {"first": 0, "middle": n, "last": 2 * n, "second sweep": 2 * n + 1 + n}[position]
    assert bad < len(clean.trace)
    seen = {"rows": 0}
    expectation_rows = vqe._expectation_rows

    def with_nan(amps, table, rows):
        energies = expectation_rows(amps, table, rows)
        start, seen["rows"] = seen["rows"], seen["rows"] + len(energies)
        if start <= bad < seen["rows"]:
            energies[bad - start] = np.nan
        return energies

    block = vqe._BLOCK_AMPLITUDES if block_rows is None else block_rows * 2**ansatz.n_qubits
    with mock.patch.object(vqe, "_expectation_rows", with_nan), \
            mock.patch.object(vqe, "_BLOCK_AMPLITUDES", block), pytest.raises(VqeError) as err:
        minimize(hamiltonian, ansatz, config)
    assert str(err.value) == "non-finite energy nan during optimization"
    assert err.value.trace == list(clean.trace[:bad])
