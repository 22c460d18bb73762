"""Mu-scan protocol, recovery arithmetic, report emission, config files."""

import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from qcembed.activespace import ActiveSpaceSpec, reduce_integrals
from qcembed.config import ConfigError, load_config
from qcembed.embedding import EmbeddingConfig
from qcembed.integrals import save_fcidump, write_fcidump
from qcembed.meanfield import solve_rhf
from qcembed.report import (
    ENERGY_TABLE_COLUMNS,
    RECOVERY_COLUMNS,
    RecoveryReport,
    ReportError,
    ResultRow,
    build_report,
    csv_text,
    json_text,
    load_reference_table,
    load_results,
    packaged_reference_table,
    recovery,
    recovery_values,
)
from qcembed.scan import (
    MuScanConfigError,
    MuScanError,
    MuScanRow,
    MuScanSpec,
    mu_grid,
    mu_scan,
    select_optimal_mu,
)
from qcembed.vqe import VqeConfig



# -- grid and argmin ---------------------------------------------------------


def test_default_grid_has_39_points():
    grid = mu_grid(MuScanSpec())
    assert len(grid) == 39
    assert grid[0] == 0.5
    assert grid[-1] == pytest.approx(10.0)
    steps = np.diff(grid)
    assert np.allclose(steps, 0.25)


def test_grid_endpoint_inclusive():
    assert mu_grid(MuScanSpec(mu_start=1.0, mu_end=2.0, mu_step=0.5)) == [1.0, 1.5, 2.0]


def rows_from_energies(energies, converged=None):
    converged = converged or [True] * len(energies)
    return [
        MuScanRow(mu=0.5 + 0.25 * k, e_hf=0.0, e_total=e, iterations=2, converged=c)
        for k, (e, c) in enumerate(zip(energies, converged))
    ]


def test_argmin_recovers_planted_minimum():
    grid = mu_grid(MuScanSpec())
    energies = [0.01 * (mu - 5.0) ** 2 - 1.0 for mu in grid]
    rows = rows_from_energies(energies)
    assert select_optimal_mu(rows) == 5.0


def test_argmin_excludes_non_converged():
    energies = [-1.0, -2.0, -1.5]
    converged = [True, False, True]
    rows = rows_from_energies(energies, converged)
    assert select_optimal_mu(rows) == pytest.approx(1.0)  # mu of the -1.5 row


def test_argmin_all_non_converged_is_error():
    rows = rows_from_energies([-1.0, -2.0], [False, False])
    with pytest.raises(MuScanError, match="converged"):
        select_optimal_mu(rows)


def test_argmin_tie_breaks_to_smaller_mu():
    rows = rows_from_energies([-1.0, -2.0, -2.0 + 1e-13])
    assert select_optimal_mu(rows) == pytest.approx(0.75)


def test_argmin_invariant_under_uniform_shift():
    rng = np.random.default_rng(71)
    energies = list(rng.normal(size=39))
    rows = rows_from_energies(energies)
    baseline = select_optimal_mu(rows)
    shifted = rows_from_energies([e + 123.456 for e in energies])
    assert select_optimal_mu(shifted) == baseline


# -- end-to-end scan over per-mu fixtures ------------------------------------


@pytest.fixture()
def mu_inputs(tmp_path, h2_integrals):
    """Three per-mu variants of the H2 fixture with a planted minimum at 1.5."""
    import dataclasses

    paths = {}
    for mu, offset in ((1.0, 0.02), (1.5, 0.0), (2.0, 0.05)):
        shifted = dataclasses.replace(h2_integrals, core_energy=h2_integrals.core_energy + offset)
        path = tmp_path / f"h2_mu{mu:.2f}.fcidump"
        save_fcidump(shifted, path)
        paths[mu] = path
    return paths


def test_mu_scan_end_to_end(mu_inputs):
    spec = MuScanSpec(mu_start=1.0, mu_end=2.0, mu_step=0.5, per_mu_inputs=mu_inputs)
    mu_opt, rows = mu_scan(spec, ActiveSpaceSpec(2, 2), EmbeddingConfig(active_solver="fci"))
    assert mu_opt == 1.5
    assert len(rows) == 3
    assert all(row.converged for row in rows)
    energies = {row.mu: row.e_total for row in rows}
    assert energies[1.0] == pytest.approx(energies[1.5] + 0.02, abs=1e-8)


def test_mu_scan_missing_inputs_lists_mu_values(mu_inputs):
    spec = MuScanSpec(mu_start=1.0, mu_end=2.5, mu_step=0.5, per_mu_inputs=mu_inputs)
    with pytest.raises(MuScanConfigError, match="2.5"):
        mu_scan(spec, ActiveSpaceSpec(2, 2), EmbeddingConfig(active_solver="fci"))


def test_mu_scan_determinism(mu_inputs):
    spec = MuScanSpec(mu_start=1.0, mu_end=2.0, mu_step=0.5, per_mu_inputs=mu_inputs)
    first = mu_scan(spec, ActiveSpaceSpec(2, 2), EmbeddingConfig(active_solver="fci"))
    second = mu_scan(spec, ActiveSpaceSpec(2, 2), EmbeddingConfig(active_solver="fci"))
    assert first[0] == second[0]
    assert [r.e_total for r in first[1]] == [r.e_total for r in second[1]]


def test_mu_scan_keeps_going_past_a_corrupt_point(mu_inputs):
    clean = MuScanSpec(mu_start=1.0, mu_end=2.0, mu_step=0.5, per_mu_inputs=mu_inputs)
    _, clean_rows = mu_scan(clean, ActiveSpaceSpec(2, 2), EmbeddingConfig(active_solver="fci"))
    mu_inputs[2.0].write_text("&FCI NORB=2,NELEC=2,MS2=0,\n&END\nnot a record\n")
    mu_opt, rows = mu_scan(clean, ActiveSpaceSpec(2, 2), EmbeddingConfig(active_solver="fci"))
    assert mu_opt == 1.5
    assert rows[:2] == clean_rows[:2]
    failed = rows[2]
    assert failed.mu == 2.0 and not failed.converged
    assert math.isnan(failed.e_hf) and math.isnan(failed.e_total)
    assert failed.iterations == 0 and failed.evaluations == 0
    assert failed.error.startswith("FcidumpError: ")
    assert all(row.error == "" for row in rows[:2])


def test_mu_scan_with_every_point_failing_names_the_reasons(mu_inputs):
    for path in mu_inputs.values():
        path.write_text("garbage\n")
    spec = MuScanSpec(mu_start=1.0, mu_end=2.0, mu_step=0.5, per_mu_inputs=mu_inputs)
    with pytest.raises(MuScanError, match=r"mu 1 failed: FcidumpError: .*mu 2 failed: FcidumpError"):
        mu_scan(spec, ActiveSpaceSpec(2, 2), EmbeddingConfig(active_solver="fci"))


# -- recovery arithmetic ------------------------------------------------------


def test_recovery_formula_published_rows():
    assert recovery(-75.841, -76.067, -76.205) == pytest.approx(62.1, abs=0.05)
    assert recovery(-187.174, -187.805, -188.102) == pytest.approx(68.0, abs=0.05)
    assert recovery(-230.074, -230.990, -231.502) == pytest.approx(64.1, abs=0.05)
    assert recovery(-246.043, -246.979, -247.519) == pytest.approx(63.4, abs=0.05)
    assert recovery(-382.319, -383.818, -384.673) == pytest.approx(63.7, abs=0.05)


def test_recovery_endpoints():
    assert recovery(-1.0, -1.0, -2.0) == 0.0
    assert recovery(-1.0, -2.0, -2.0) == pytest.approx(100.0)


def test_recovery_degenerate_references():
    with pytest.raises(ReportError, match="degenerate"):
        recovery(-1.0, -1.5, -1.0 + 1e-13)


def test_recovery_report_consistency_check():
    with pytest.raises(ReportError, match="disagrees"):
        RecoveryReport(
            molecule="water",
            mu_opt=None,
            n_active_electrons=6,
            n_active_orbitals=6,
            e_dft=-75.841,
            e_qdft=-76.067,
            e_ccsd=-76.205,
            recovery_percent=10.0,
        )


# -- report building and emission ---------------------------------------------


def reference_rows():
    return packaged_reference_table()


def test_packaged_reference_table_complete():
    table = reference_rows()
    assert set(table) == {"water", "carbon_dioxide", "benzene", "pyridine", "naphthalene"}
    assert table["water"].e_dft == -75.841
    assert table["water"].e_ccsd == -76.205
    assert table["benzene"].e_hf == -230.701


def test_reference_table_without_a_column_names_it():
    with pytest.raises(ReportError, match=r"^reference table: missing column\(s\) e_dft, e_ccsd$"):
        load_reference_table(io.StringIO("molecule,e_hf\nwater,-76.008\n"))


def test_build_report_best_flag_and_threshold():
    results = [
        ResultRow("water", 2, 6, -76.0656), ResultRow("water", 4, 6, -76.0598),
        ResultRow("water", 6, 6, -76.0671), ResultRow("water", 8, 6, -76.0645),
    ]
    rows = build_report(results, reference_rows())
    best = [r for r in rows if r.best_for_molecule]
    assert len(best) == 1
    assert best[0].n_active_electrons == 6
    assert all(r.above_threshold for r in rows)


def test_build_report_plateau_flag():
    # two active spaces tie at the rounded maximum
    e_dft, e_ccsd = -230.074, -231.502
    gap = e_ccsd - e_dft
    e_641 = e_dft + 0.641 * gap
    results = [
        ResultRow("benzene", 4, 6, e_641),
        ResultRow("benzene", 6, 6, e_641 - 1e-6),
        ResultRow("benzene", 2, 6, e_dft + 0.62 * gap),
    ]
    rows = build_report(results, reference_rows())
    plateau_rows = [r for r in rows if r.plateau]
    assert len(plateau_rows) == 2
    assert {r.n_active_electrons for r in plateau_rows} == {4, 6}


def test_build_report_missing_reference():
    with pytest.raises(ReportError, match="ethanol"):
        build_report([ResultRow("ethanol", 2, 2, -1.0)], reference_rows())


def test_empty_results_give_empty_report():
    assert build_report([], reference_rows()) == []


def test_recovery_csv_schema_and_formatting():
    results = [ResultRow("water", 6, 6, -76.067, mu=7.25)]
    rows = build_report(results, reference_rows())
    lines = csv_text(RECOVERY_COLUMNS, map(recovery_values, rows)).splitlines()
    header = lines[0].split(",")
    assert header[:8] == [
        "molecule", "ne", "no", "e_dft", "e_qdft", "e_ccsd",
        "recovery_percent", "above_60_threshold",
    ]
    fields = lines[1].split(",")
    assert fields[0] == "water"
    assert fields[3] == "-75.841"
    # ten significant digits
    assert fields[6] == format(rows[0].recovery_percent, ".10g")
    assert fields[7] == "true"


def _recovery_json(rows):
    return json_text([dict(zip(RECOVERY_COLUMNS, recovery_values(row))) for row in rows])


def test_recovery_json_round_trip():
    results = [ResultRow("water", 6, 6, -76.067, mu=7.25)]
    rows = build_report(results, reference_rows())
    payload = json.loads(_recovery_json(rows))
    assert payload[0]["molecule"] == "water"
    assert payload[0]["recovery_percent"] == pytest.approx(62.0879, abs=1e-3)


def test_recovery_json_writes_a_non_finite_energy_as_null():
    """A NaN energy passes the row's consistency check (NaN compares false),
    so the JSON writer must not let it through as a bare NaN token."""
    row = RecoveryReport("water", None, 6, 6, -75.841, float("nan"), -76.205, float("nan"))

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    payload = json.loads(_recovery_json([row]), parse_constant=refuse)
    assert payload[0]["e_qdft"] is None and payload[0]["recovery_percent"] is None
    assert payload[0]["e_dft"] == -75.841


def _energy_table(molecule, rows, ne, no):
    """The per-mu table of ``qcembed mu-scan`` for ``rows``."""
    table = [(molecule, r.mu, ne, no, r.e_hf, r.e_total, r.iterations, r.converged) for r in rows]
    return csv_text(ENERGY_TABLE_COLUMNS, table)


def test_energy_table_csv_schema():
    rows = [MuScanRow(mu=0.5, e_hf=-1.1, e_total=-1.13, iterations=2, converged=True)]
    lines = _energy_table("h2", rows, 2, 2).splitlines()
    assert lines[0] == "molecule,mu,ne,no,e_hf,e_qdft,iterations,converged"
    assert lines[1] == "h2,0.5,2,2,-1.1,-1.13,2,true"


def test_energy_table_round_trips_through_load_results(tmp_path):
    nan = float("nan")
    rows = [
        MuScanRow(mu=0.5, e_hf=-1.1, e_total=-1.13, iterations=2, converged=True),
        MuScanRow(mu=1.0, e_hf=nan, e_total=nan, iterations=0, converged=False, error="boom"),
        MuScanRow(mu=1.5, e_hf=-1.2, e_total=-1.25, iterations=3, converged=True),
    ]
    path = tmp_path / "table.csv"
    path.write_text(_energy_table("h2", rows, 2, 2), newline="")
    expected = [ResultRow("h2", 2, 2, -1.13, 0.5), ResultRow("h2", 2, 2, -1.25, 1.5)]
    assert load_results(path) == expected
    assert load_results(io.StringIO(path.read_text())) == expected


def test_report_row_recomputation_invariant():
    results = [ResultRow("pyridine", 6, 6, -246.979)]
    rows = build_report(results, reference_rows())
    row = rows[0]
    recomputed = 100.0 * (row.e_qdft - row.e_dft) / (row.e_ccsd - row.e_dft)
    assert abs(recomputed - row.recovery_percent) < 1e-9


# -- configuration files -------------------------------------------------------


def test_load_config_full(tmp_path, h2_integrals):
    save_fcidump(h2_integrals, tmp_path / "h2.fcidump")
    (tmp_path / "mu_1.00.fcidump").write_text(write_fcidump(h2_integrals))
    (tmp_path / "mu_1.50.fcidump").write_text(write_fcidump(h2_integrals))
    config_text = """
[system]
fcidump = h2.fcidump
molecule = h2

[active_space]
n_electrons = 2
n_orbitals = 2

[vqe]
seed = 7
sigma = 0.002
max_iterations = 40
tolerance = 1e-7

[embedding]
threshold = 1e-8
max_iterations = 15
damping_floor = 0.1
damping_scale = 0.3
active_solver = fci

[mu_scan]
mu_start = 1.0
mu_end = 1.5
mu_step = 0.5
inputs_pattern = mu_{mu:.2f}.fcidump
"""
    path = tmp_path / "run.ini"
    path.write_text(config_text)
    cfg = load_config(path)
    assert cfg.fcidump == (tmp_path / "h2.fcidump").resolve()
    assert cfg.molecule == "h2"
    assert cfg.active_spec == ActiveSpaceSpec(2, 2)
    assert cfg.vqe.seed == 7
    assert cfg.vqe.sigma == 0.002
    assert cfg.vqe.max_iterations == 40
    assert cfg.embedding.threshold == 1e-8
    assert cfg.embedding.active_solver == "fci"
    assert cfg.mu_scan is not None
    assert mu_grid(cfg.mu_scan) == [1.0, 1.5]
    assert set(cfg.mu_scan.per_mu_inputs) == {1.0, 1.5}


def test_load_config_explicit_mu_inputs(tmp_path):
    (tmp_path / "a.fcidump").write_text("")
    config_text = """
[mu_scan]
mu_start = 0.5
mu_end = 0.5
mu_step = 0.25

[mu_inputs]
0.5 = a.fcidump
"""
    path = tmp_path / "scan.ini"
    path.write_text(config_text)
    cfg = load_config(path)
    assert list(cfg.mu_scan.per_mu_inputs) == [0.5]


def test_explicit_mu_input_wins_over_the_pattern_on_a_rounded_grid(tmp_path):
    """0.1 + 2 * 0.1 is 0.30000000000000004: the entry for 0.3 replaces the
    pattern's file for that grid value instead of sitting beside it."""
    path = tmp_path / "scan.ini"
    path.write_text(
        "[mu_scan]\nmu_start = 0.1\nmu_end = 0.3\nmu_step = 0.1\n"
        "inputs_pattern = mu_{mu:.2f}.fcidump\n\n"
        "[mu_inputs]\n0.3 = special.fcidump\n"
    )
    spec = load_config(path).mu_scan
    grid = mu_grid(spec)
    assert grid[2] == 0.1 + 2 * 0.1 != 0.3
    assert list(spec.per_mu_inputs) == grid
    assert spec.per_mu_inputs[grid[2]] == tmp_path / "special.fcidump"
    assert spec.per_mu_inputs[grid[0]] == tmp_path / "mu_0.10.fcidump"


@pytest.mark.parametrize("key", ["nan", "inf", "-inf"])
def test_load_config_refuses_a_non_finite_mu_input(tmp_path, key):
    path = tmp_path / "scan.ini"
    path.write_text(f"[mu_scan]\nmu_start = 0.5\nmu_end = 0.5\n\n[mu_inputs]\n{key} = a.fcidump\n")
    with pytest.raises(ConfigError, match=rf"\[mu_inputs\] key '{key}' must be finite"):
        load_config(path)


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/run.ini")


def test_load_config_empty_sections_give_dataclass_defaults(tmp_path):
    path = tmp_path / "empty.ini"
    path.write_text("[vqe]\n[embedding]\n[mu_scan]\n")
    cfg = load_config(path)
    assert cfg.vqe == VqeConfig()
    assert cfg.embedding == EmbeddingConfig()
    assert cfg.mu_scan == MuScanSpec()


def test_load_config_bad_value(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[vqe]\nseed = banana\n")
    with pytest.raises(ConfigError, match="banana"):
        load_config(path)


@pytest.mark.parametrize(
    "section, key",
    [
        ("system", "fcidumps"),
        ("active_space", "n_electron"),
        ("vqe", "seeed"),
        ("embedding", "max_iteration"),
        ("mu_scan", "mu_stop"),
    ],
)
def test_load_config_rejects_unknown_key(tmp_path, section, key):
    path = tmp_path / "typo.ini"
    path.write_text(f"[{section}]\n{key} = 3\n")
    with pytest.raises(ConfigError, match=rf"\[{section}\] unknown key '{key}'"):
        load_config(path)


@pytest.mark.parametrize("section", ["embeding", "VQE", "mu-scan"])
def test_load_config_rejects_unknown_section(tmp_path, section):
    path = tmp_path / "typo.ini"
    path.write_text(f"[{section}]\nmax_iterations = 3\n")
    expected = "system, active_space, vqe, embedding, mu_scan, mu_inputs"
    with pytest.raises(ConfigError, match=rf"unknown section \[{section}\]; expected one of {expected}"):
        load_config(path)


def test_load_config_refuses_non_finite_tolerance(tmp_path):
    path = tmp_path / "nan.ini"
    path.write_text("[vqe]\ntolerance = nan\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == f"{path}: [vqe] tolerance must be finite, got nan"


@pytest.mark.parametrize(
    "section, lines, message",
    [
        ("vqe", "sigma = -1", "sigma must be >= 0, got -1.0"),
        ("embedding", "damping_floor = 2", "damping parameters must satisfy 0 < floor <= scale <= 1"),
        ("active_space", "n_electrons = 3\nn_orbitals = 4", "n_active_electrons must be even, got 3"),
        ("mu_scan", "mu_step = 0", "mu_step must be positive, got 0.0"),
        ("mu_scan", "mu_end = 0\ninputs_pattern = mu{mu}.fcidump", "mu_end must be >= mu_start"),
    ],
)
def test_load_config_names_the_file_and_section_of_a_refused_value(tmp_path, section, lines, message):
    path = tmp_path / "bad.ini"
    path.write_text(f"[{section}]\n{lines}\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value).startswith(f"{path}: [{section}] {message}")
    assert isinstance(err.value.__cause__, ValueError)


@pytest.mark.parametrize("name", ["mu_start", "mu_end", "mu_step"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_mu_scan_spec_refuses_non_finite_numbers(name, value):
    with pytest.raises(MuScanConfigError, match=f"{name} must be finite"):
        MuScanSpec(**{name: value})


def test_load_config_ignores_unknown_keys_inherited_from_default(tmp_path):
    path = tmp_path / "defaults.ini"
    path.write_text("[DEFAULT]\nowner = me\nseed = 3\n\n[vqe]\n\n[embedding]\n")
    cfg = load_config(path)
    assert cfg.vqe == VqeConfig(seed=3)
    assert cfg.embedding == EmbeddingConfig()


def test_load_config_mu_inputs_keys_stay_mu_values(tmp_path):
    path = tmp_path / "scan.ini"
    path.write_text("[mu_scan]\n\n[mu_inputs]\nseed = a.fcidump\n")
    with pytest.raises(ConfigError, match="not a mu value"):
        load_config(path)


def test_load_config_mu_inputs_skip_keys_inherited_from_default(tmp_path):
    path = tmp_path / "scan.ini"
    path.write_text(
        "[DEFAULT]\nseed = 7\n\n[vqe]\n\n"
        "[mu_scan]\nmu_start = 0.1\nmu_end = 0.3\nmu_step = 0.1\n"
        "inputs_pattern = mu_{mu:.2f}.fcidump\n\n"
        "[mu_inputs]\n0.3 = special.fcidump\n"
    )
    cfg = load_config(path)
    assert cfg.vqe == VqeConfig(seed=7)
    grid = mu_grid(cfg.mu_scan)
    assert list(cfg.mu_scan.per_mu_inputs) == grid
    assert cfg.mu_scan.per_mu_inputs[grid[2]] == tmp_path / "special.fcidump"


def test_load_config_refuses_an_own_unknown_key_that_default_also_sets(tmp_path):
    path = tmp_path / "defaults.ini"
    path.write_text("[DEFAULT]\nowner = me\n\n[vqe]\nowner = you\n\n[embedding]\n")
    with pytest.raises(ConfigError, match=r"\[vqe\] unknown key 'owner'"):
        load_config(path)


def test_load_config_own_mu_inputs_entry_wins_over_default_and_pattern(tmp_path):
    path = tmp_path / "scan.ini"
    path.write_text(
        "[DEFAULT]\n0.5 = a.fcidump\n\n"
        "[mu_scan]\nmu_start = 0.5\nmu_end = 1.0\nmu_step = 0.5\n"
        "inputs_pattern = mu_{mu:.2f}.fcidump\n\n"
        "[mu_inputs]\n0.5 = b.fcidump\n"
    )
    cfg = load_config(path)
    assert cfg.mu_scan.per_mu_inputs == {0.5: tmp_path / "b.fcidump", 1.0: tmp_path / "mu_1.00.fcidump"}


@pytest.mark.parametrize(
    "text, message",
    [
        ("[embeding]\n", "unknown section [embeding]; expected one of"),
        ("[vqe]\nbogus = 1\n", "[vqe] unknown key 'bogus'; expected one of"),
        ("[vqe]\nseed = banana\n", "[vqe] seed = 'banana': invalid literal"),
        ("[mu_scan]\n\n[mu_inputs]\nfirst = a.fcidump\n", "[mu_inputs] key 'first' is not a mu value"),
        ("[mu_scan]\n\n[mu_inputs]\ninf = a.fcidump\n", "[mu_inputs] key 'inf' must be finite"),
    ],
)
def test_every_config_error_names_the_file(tmp_path, text, message):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value).startswith(f"{path}: {message}")


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.ini"
    path.write_text(example)
    cfg = load_config(path)
    assert cfg.molecule == "h2" and cfg.active_spec == ActiveSpaceSpec(2, 2)
    assert cfg.vqe == VqeConfig(seed=7)
    assert cfg.embedding == EmbeddingConfig()
    assert cfg.mu_scan.per_mu_inputs[0.5] == tmp_path / "inputs/special.fcidump"
    assert cfg.mu_scan.per_mu_inputs[10.0] == tmp_path / "inputs/run_mu10.00.fcidump"


def test_benchmark_scan_config_loads(tmp_path, monkeypatch):
    import importlib
    import sys

    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    workloads = importlib.import_module("workloads")

    inputs = workloads.WORKLOADS["mu-scan-lih"].setup(tmp_path, 5)
    cfg = load_config(inputs.config)
    assert cfg.molecule == "lih" and cfg.active_spec == ActiveSpaceSpec(2, 3)
    assert cfg.vqe == VqeConfig(seed=5)
    assert list(cfg.mu_scan.per_mu_inputs.values()) == inputs.files


def test_load_reference_table_from_csv(tmp_path):
    path = tmp_path / "refs.csv"
    path.write_text("# comment\nmolecule,e_dft,e_ccsd\nwater,-75.841,-76.205\n")
    table = load_reference_table(path)
    assert table["water"].e_ccsd == -76.205
    assert table["water"].e_hf is None


def test_mu_scan_builds_each_ansatz_shape_once(mu_inputs, monkeypatch):
    from qcembed import sim

    sim._build_uccsd_ansatz.cache_clear()
    built = []
    enumerate_excitations = sim.uccsd_excitations  # called once per construction

    def counting(*args):
        built.append(args)
        return enumerate_excitations(*args)

    monkeypatch.setattr(sim, "uccsd_excitations", counting)
    spec = MuScanSpec(mu_start=1.0, mu_end=2.0, mu_step=0.5, per_mu_inputs=mu_inputs)
    _, rows = mu_scan(spec, ActiveSpaceSpec(2, 2), EmbeddingConfig(active_solver="vqe"))
    assert len(rows) == 3 and all(row.evaluations > 0 for row in rows)
    assert len(built) == 1
    mu_scan(spec, ActiveSpaceSpec(2, 2), EmbeddingConfig(active_solver="vqe"))
    assert len(built) == 1

    cached = sim.build_uccsd_ansatz(2, 2)
    fresh = sim._build_uccsd_ansatz.__wrapped__(2, 2, 0, "parity", True)
    assert len(built) == 2 and cached is not fresh
    assert cached == fresh  # every field but the compiled rotations
    assert len(cached._rotations) == len(fresh._rotations)
    for (*ours, our_entries), (*theirs, their_entries) in zip(cached._rotations, fresh._rotations):
        assert our_entries == their_entries
        for a, b in zip(ours, theirs):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    for a, b in ((cached._trig_rows, fresh._trig_rows), (cached._trig_scales, fresh._trig_scales)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# -- tooling ------------------------------------------------------------------


def test_traced_bench_patches_name_existing_attributes(monkeypatch, h2o_integrals):
    """The traced benchmark replaces package functions by module and name;
    a refactor that drops one of those names, or binds it to something
    that is not a function, must fail here too."""
    import importlib
    import sys

    bench = Path(__file__).parent.parent / "bench"
    monkeypatch.syspath_prepend(str(bench))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for name in ("layers", "tracing"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    layers = importlib.import_module("layers")
    missing = [
        f"{module.__name__}.{attribute}"
        for module, attribute, *_ in layers.PATCHES
        if not callable(getattr(module, attribute, None))
    ]
    assert not missing
    # the solver counters fingerprint each active Hamiltonian they see
    active = reduce_integrals(h2o_integrals, solve_rhf(h2o_integrals), ActiveSpaceSpec(4, 4))
    fingerprint = layers._fingerprint(active)
    assert fingerprint == layers._fingerprint(active) and len(fingerprint) == 32
