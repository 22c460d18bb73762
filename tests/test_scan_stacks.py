"""A mu-scan solves the mean-field references of its same-shape points as
one stack: every row equals the row of the point's lone ``read_fcidump``
and ``run_embedding``, bit for bit, and a stack makes one ``eigh`` call
per Roothaan step."""

import dataclasses
import math

import numpy as np
import pytest

from qcembed import scan
from qcembed.activespace import ActiveSpaceSpec
from qcembed.embedding import EmbeddingConfig, run_embedding
from qcembed.integrals import IntegralSet, read_fcidump, save_fcidump
from qcembed.meanfield import solve_rhf
from qcembed.scan import MuScanRow, MuScanSpec, mu_grid, mu_scan
from qcembed.vqe import VqeConfig

from conftest import FIXTURE_DIR
from test_meanfield import spy_on_eigh

ACTIVE = ActiveSpaceSpec(2, 2)


def perturbed(base: IntegralSet, seed: int, scale: float = 1e-2) -> IntegralSet:
    """``base`` with a symmetric one-body perturbation: its RHF takes its own
    number of steps."""
    noise = np.random.default_rng(seed).normal(scale=scale, size=base.one_body.shape)
    return dataclasses.replace(base, one_body=base.one_body + noise + noise.T)


def degenerate(base: IntegralSet) -> IntegralSet:
    """``base`` whose core guess has a degenerate HOMO."""
    n_occ = base.n_electrons // 2
    levels, vectors = np.linalg.eigh(base.one_body)
    levels[n_occ] = levels[n_occ - 1]
    return dataclasses.replace(base, one_body=vectors @ np.diag(levels) @ vectors.T)


def write_scan(tmp_path, points) -> MuScanSpec:
    """A grid from 1.0 in steps of 0.5 with one file per point: an
    ``IntegralSet`` is saved, text is written as it stands."""
    inputs = {}
    for k, point in enumerate(points):
        mu = 1.0 + 0.5 * k
        path = tmp_path / f"point{k}.fcidump"
        if isinstance(point, str):
            path.write_text(point)
        else:
            save_fcidump(point, path)
        inputs[mu] = path
    return MuScanSpec(mu_start=1.0, mu_end=1.0 + 0.5 * (len(points) - 1), mu_step=0.5, per_mu_inputs=inputs)


def serial_rows(spec: MuScanSpec, config: EmbeddingConfig, vqe_config=None) -> list[MuScanRow]:
    """The rows of a scan that reads and embeds one point after another."""
    rows = []
    for mu in mu_grid(spec):
        try:
            state = run_embedding(read_fcidump(spec.per_mu_inputs[mu]), ACTIVE, config, vqe_config)
        except Exception as exc:  # noqa: BLE001
            rows.append(MuScanRow(mu, math.nan, math.nan, 0, False, error=f"{type(exc).__name__}: {exc}"))
            continue
        rows.append(
            MuScanRow(
                mu, state.mean_field_energy, state.final_energy, state.iteration, state.converged,
                sum(state.solver_evaluations),
            )
        )
    return rows


def bits(row: MuScanRow) -> tuple:
    """Every field of a row, each float by its bits (NaN included)."""
    return tuple(
        np.float64(value).view(np.uint64).item() if isinstance(value, float) else value
        for value in dataclasses.astuple(row)
    )


@pytest.fixture(scope="module")
def lih():
    return read_fcidump(FIXTURE_DIR / "lih_sto3g.fcidump")


@pytest.fixture(scope="module")
def h2():
    return read_fcidump(FIXTURE_DIR / "h2_sto3g_0735.fcidump")


def test_a_same_shape_scan_makes_one_eigh_call_per_step(tmp_path, lih, monkeypatch):
    points = [perturbed(lih, seed) for seed in range(5)]
    spec = write_scan(tmp_path, points)
    iterations = [solve_rhf(read_fcidump(path)).iterations for path in spec.per_mu_inputs.values()]
    assert len(set(iterations)) > 1
    config, vqe_config = EmbeddingConfig(active_solver="vqe"), VqeConfig(seed=2)
    expected = serial_rows(spec, config, vqe_config)

    seen = spy_on_eigh(monkeypatch)
    _, rows = mu_scan(spec, ACTIVE, config, vqe_config)
    # The VQE embeddings call no eigh: every call is the stack's. Point
    # after point would make sum(iterations + 2) calls.
    assert len(seen) == max(iterations) + 2 < sum(it + 2 for it in iterations)
    assert [len(matrices) for matrices in seen[:2]] == [5, 5]
    assert [bits(row) for row in rows] == [bits(row) for row in expected]
    assert all(row.converged and row.evaluations > 0 for row in rows)


@pytest.mark.parametrize("budget", [None, 2 * 6**4, 1], ids=["default", "two-lih-points", "one-point"])
def test_mixed_scan_rows_are_the_serial_rows(tmp_path, lih, h2, monkeypatch, budget):
    if budget is not None:
        monkeypatch.setattr(scan, "_STACK_DOUBLES", budget)
    odd = dataclasses.replace(lih, n_electrons=3, spin_2ms=1)
    points = [
        perturbed(lih, 0),
        "&FCI NORB=6,NELEC=4,MS2=0,\n&END\nnot a record\n",  # a corrupt file ends no stack
        perturbed(lih, 1),
        degenerate(lih),
        perturbed(lih, 2),
        odd,
        perturbed(lih, 3),
        h2,  # NORB changes mid-grid
        perturbed(lih, 4),
        perturbed(lih, 5),
    ]
    spec = write_scan(tmp_path, points)
    config = EmbeddingConfig(active_solver="fci")
    mu_opt, rows = mu_scan(spec, ACTIVE, config)
    expected = serial_rows(spec, config)
    assert [bits(row) for row in rows] == [bits(row) for row in expected]
    assert [row.mu for row in rows] == mu_grid(spec)
    errors = [row.error.split(":")[0] for row in rows]
    assert errors == ["", "FcidumpError", "", "ScfError", "", "ScfError", "", "", "", ""]
    assert "degenerate HOMO" in rows[3].error and "even electron count" in rows[5].error
    assert mu_opt == scan.select_optimal_mu(expected)


def test_a_point_that_overflows_fails_alone_when_warnings_are_errors(tmp_path, lih):
    # pytest runs with warnings as errors: a RuntimeWarning raised in the
    # stacked arithmetic would fail every point of the stack
    one_body = lih.one_body.copy()
    one_body[5, 5] = 1e308  # finite, so the reader keeps it
    overflowing = dataclasses.replace(lih, one_body=one_body)
    spec = write_scan(tmp_path, [perturbed(lih, 0), overflowing, perturbed(lih, 1)])
    config = EmbeddingConfig(active_solver="fci")
    _, rows = mu_scan(spec, ACTIVE, config)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = serial_rows(spec, config)
    assert [bits(row) for row in rows] == [bits(row) for row in expected]
    assert [row.converged for row in rows] == [True, False, True]
    # which failure it is depends on the BLAS core's rounding of the inf
    assert rows[1].error.split(":")[0] in ("EmbeddingError", "ScfError")
