"""Command-line interface contracts (exit codes, output shapes, overrides)."""

import io
import itertools
import json
import math
import re
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from qcembed import cli
from qcembed.cli import main
from qcembed.integrals import save_fcidump

from conftest import FIXTURE_DIR, capture_mismatch


@pytest.fixture()
def h2_path(golden):
    return str(FIXTURE_DIR / golden["h2_0735"]["file"])


def test_embed_smoke(capsys, h2_path):
    code = main(["embed", "--fcidump", h2_path, "--active", "2,2", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "iteration,alpha,energy" in out
    assert "final energy:" in out
    assert "converged: True" in out


@pytest.mark.parametrize("max_iterations", [20, 1])
def test_embed_json_carries_the_csv_log(capsys, tmp_path, h2_path, max_iterations):
    config = tmp_path / "run.ini"
    config.write_text(f"[embedding]\nmax_iterations = {max_iterations}\nactive_solver = fci\n")
    flags = ["embed", "--fcidump", h2_path, "--active", "2,2", "--config", str(config)]
    csv_path, json_path = tmp_path / "log.csv", tmp_path / "log.json"
    csv_code = main(flags + ["--out", str(csv_path)])
    csv_out = capsys.readouterr().out
    json_code = main(flags + ["--format", "json", "--out", str(json_path)])
    json_out = capsys.readouterr().out
    # one iteration cannot converge: exit code 3 in either format
    assert csv_code == json_code == (0 if max_iterations > 1 else 3)
    assert csv_out.startswith(csv_path.read_bytes().decode())
    assert json_out == json_path.read_text()
    payload = json.loads(json_out)
    assert set(payload) == {"iterations", "final_energy", "converged"}
    assert payload["converged"] is (json_code == 0)
    header, *rows = csv_path.read_text().splitlines()
    assert len(payload["iterations"]) == len(rows) >= 1
    assert payload["iterations"][0]["delta_energy"] is None
    for row, record in zip(rows, payload["iterations"]):
        assert list(record) == header.split(",")
        cells = row.split(",")
        assert cells[0] == str(record["iteration"]) and cells[4] == str(record["solver_evaluations"])
        for cell, column in zip(cells[1:4], ("alpha", "energy", "delta_energy")):
            assert cell == ("" if record[column] is None else format(record[column], ".10g"))
    assert payload["final_energy"] == payload["iterations"][-1]["energy"]
    assert f"final energy: {payload['final_energy']:.10f} Ha" in csv_out


def test_embed_with_fci_solver(capsys, h2_path, golden):
    code = main(["embed", "--fcidump", h2_path, "--active", "2,2", "--solver", "fci"])
    out = capsys.readouterr().out
    assert code == 0
    assert f"{golden['h2_0735']['e_fci']:.10f}"[:12] in out


def test_hf_subcommand(capsys, h2_path, golden):
    code = main(["hf", "--fcidump", h2_path])
    out = capsys.readouterr().out
    assert code == 0
    assert "mean-field energy" in out
    printed = float(out.splitlines()[0].split()[-2])
    assert printed == pytest.approx(golden["h2_0735"]["e_hf"], abs=1e-9)


def test_main_builds_its_parser_once_and_each_call_parses_afresh(capsys, tmp_path, h2_path):
    """A second call without --out writes no file: it does not inherit the
    --out of the call before it, which shared its parser."""
    cli._build_parser.cache_clear()
    out = tmp_path / "hf.csv"
    assert main(["hf", "--fcidump", h2_path, "--out", str(out)]) == 0
    out.unlink()
    assert main(["hf", "--fcidump", h2_path]) == 0
    assert not out.exists()
    assert capsys.readouterr().out.count("mean-field energy") == 2
    assert cli._build_parser.cache_info().misses == 1


def test_hf_missing_fcidump_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hf"])
    assert exc.value.code not in (0, None)


def test_unknown_subcommand_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code != 0


def test_unknown_flag_nonzero(capsys, h2_path):
    with pytest.raises(SystemExit) as exc:
        main(["hf", "--fcidump", h2_path, "--nonsense"])
    assert exc.value.code != 0


def test_fci_subcommand(capsys, h2_path, golden):
    code = main(["fci", "--fcidump", h2_path])
    out = capsys.readouterr().out
    assert code == 0
    printed = float(out.splitlines()[1].split()[-2])
    assert printed == pytest.approx(golden["h2_0735"]["e_fci"], abs=1e-9)


@pytest.mark.parametrize("command", ["hf", "fci"])
def test_out_file_follows_the_format(capsys, tmp_path, h2_path, command):
    """--out holds CSV by default and JSON only under --format json: one
    header of the JSON record's fields and one row of its values."""
    csv_path, json_path = tmp_path / "out.csv", tmp_path / "out.json"
    assert main([command, "--fcidump", h2_path, "--out", str(csv_path)]) == 0
    assert main([command, "--fcidump", h2_path, "--format", "json", "--out", str(json_path)]) == 0
    capsys.readouterr()
    payload = json.loads(json_path.read_text())
    header, row = csv_path.read_text().splitlines()
    assert header.split(",") == list(payload)
    expected = []
    for value in payload.values():
        if isinstance(value, bool):
            expected.append(str(value).lower())
        elif isinstance(value, float):
            expected.append(format(value, ".10g"))
        elif isinstance(value, list):
            expected.append(" ".join(format(item, ".10g") for item in value))
        else:
            expected.append(str(value))
    assert row.split(",") == expected


def test_vqe_subcommand_with_trace_out(capsys, tmp_path, h2_path, golden):
    trace_path = tmp_path / "trace.csv"
    code = main(["vqe", "--fcidump", h2_path, "--active", "2,2", "--seed", "1", "--out", str(trace_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "VQE total energy" in out
    lines = trace_path.read_text().splitlines()
    assert lines[0] == "evaluation_index,energy"
    assert len(lines) > 2


def test_vqe_json_trace_out_carries_the_csv_trace(capsys, tmp_path, h2_path):
    csv_path, json_path = tmp_path / "trace.csv", tmp_path / "trace.json"
    flags = ["vqe", "--fcidump", h2_path, "--active", "2,2", "--seed", "1"]
    assert main(flags + ["--out", str(csv_path)]) == 0
    assert main(flags + ["--format", "json", "--out", str(json_path)]) == 0
    out = capsys.readouterr().out
    payload = json.loads(json_path.read_text())
    assert set(payload) == {"trace", "total_energy", "converged"}
    assert payload["converged"] is True
    assert f"VQE total energy: {payload['total_energy']:.10f} Ha" in out
    header, *rows = csv_path.read_text().splitlines()
    assert [list(record) for record in payload["trace"]] == [header.split(",")] * len(rows)
    assert [f"{r['evaluation_index']},{r['energy']:.10g}" for r in payload["trace"]] == rows


def test_contract_violation_reports_module_and_fails(capsys, tmp_path):
    bad = tmp_path / "bad.fcidump"
    bad.write_text(" &FCI NELEC=2,MS2=0,\n &END\n")
    code = main(["hf", "--fcidump", str(bad)])
    captured = capsys.readouterr()
    assert code != 0
    assert "FcidumpError" in captured.err


def test_roundtrip_subcommand(capsys, h2_path):
    code = main(["fcidump-roundtrip", "--fcidump", h2_path])
    out = capsys.readouterr().out
    assert code == 0
    assert "round-trip OK" in out


def test_report_subcommand_table_layout(capsys, tmp_path):
    results = tmp_path / "runs.csv"
    results.write_text(
        "molecule,mu,ne,no,e_hf,e_qdft,iterations,converged\n"
        "water,7.25,2,6,-76.008,-76.0656,2,true\n"
        "water,7.25,4,6,-76.008,-76.0598,2,true\n"
        "water,7.25,6,6,-76.008,-76.0671,2,true\n"
        "water,7.25,8,6,-76.008,-76.0645,2,true\n"
        "water,7.25,8,6,-76.008,-99.0,2,false\n"
    )
    code = main(["report", "--results", str(results)])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("molecule,ne,no,e_dft,e_qdft,e_ccsd,recovery_percent,above_60_threshold")
    assert len(lines) == 5  # non-converged row filtered out
    assert any("true" in line for line in lines[1:])


def test_report_with_explicit_references(capsys, tmp_path):
    references = tmp_path / "refs.csv"
    references.write_text("molecule,e_dft,e_ccsd\nwater,-75.841,-76.205\n")
    results = tmp_path / "runs.csv"
    results.write_text("molecule,mu,ne,no,e_hf,e_qdft,iterations,converged\nwater,7.25,6,6,-76.008,-76.067,2,true\n")
    code = main(["report", "--references", str(references), "--results", str(results), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["recovery_percent"] == pytest.approx(62.0879, abs=1e-3)


@pytest.mark.parametrize(
    "kind, header, missing",
    [("references", "molecule,e_dft", "e_ccsd"), ("results", "molecule,mu,no,e_hf", "ne, e_qdft")],
)
def test_report_names_the_file_and_its_missing_columns(capsys, tmp_path, kind, header, missing):
    files = {
        "references": "molecule,e_dft,e_ccsd\nwater,-75.841,-76.205\n",
        "results": "molecule,mu,ne,no,e_hf,e_qdft\nwater,7.25,6,6,-76.008,-76.067\n",
    }
    files[kind] = header + "\n"
    paths = {name: tmp_path / f"{name}.csv" for name in files}
    for name, text in files.items():
        paths[name].write_text(text)
    code = main(["report", "--references", str(paths["references"]), "--results", str(paths["results"])])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error [report.ReportError]: {paths[kind]}: missing column(s) {missing}" in err


@pytest.mark.parametrize(
    "kind, rows, message",
    [
        ("references", "# comment\nwater,-75.841,-76.205\nethanol,-154.0\n", "4: fewer fields than the header"),
        ("references", "water,-75.841,n/a\n", "2: cannot read e_ccsd 'n/a' as float"),
        ("results", "water,7.25,6,6,-76.008\n", "2: fewer fields than the header"),
        ("results", "water,7.25,6,6,-76.008,-76.067\nwater,7.5,6.5,6,-76.0,-76.1\n", "3: cannot read ne '6.5' as int"),
    ],
    ids=["references-short-row", "references-not-a-number", "results-short-row", "results-not-an-int"],
)
def test_report_names_the_file_and_line_of_a_bad_row(capsys, tmp_path, kind, rows, message):
    headers = {"references": "molecule,e_dft,e_ccsd\n", "results": "molecule,mu,ne,no,e_hf,e_qdft\n"}
    files = {
        "references": headers["references"] + "water,-75.841,-76.205\n",
        "results": headers["results"] + "water,7.25,6,6,-76.008,-76.067\n",
    }
    files[kind] = headers[kind] + rows
    paths = {name: tmp_path / f"{name}.csv" for name in files}
    for name, text in files.items():
        paths[name].write_text(text)
    code = main(["report", "--references", str(paths["references"]), "--results", str(paths["results"])])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error [report.ReportError]: {paths[kind]}:{message}" in err


def test_report_refuses_a_repeated_reference_molecule(capsys, tmp_path):
    references = tmp_path / "references.csv"
    references.write_text("molecule,e_dft,e_ccsd\nwater,-75.841,-76.205\n# again\nwater,-75.9,-76.3\n")
    results = tmp_path / "results.csv"
    results.write_text("molecule,mu,ne,no,e_hf,e_qdft\nwater,7.25,6,6,-76.008,-76.067\n")
    code = main(["report", "--references", str(references), "--results", str(results)])
    err = capsys.readouterr().err
    assert code == 2
    assert (
        f"error [report.ReportError]: {references}:4: second row for molecule 'water', "
        f"the first is {references}:2"
    ) in err


def test_mu_scan_subcommand_with_config(capsys, tmp_path, h2_integrals):
    import dataclasses

    for mu, offset in ((1.0, 0.01), (1.5, 0.0)):
        shifted = dataclasses.replace(h2_integrals, core_energy=h2_integrals.core_energy + offset)
        save_fcidump(shifted, tmp_path / f"mu_{mu:.2f}.fcidump")
    config = tmp_path / "scan.ini"
    config.write_text(
        "[active_space]\nn_electrons = 2\nn_orbitals = 2\n\n"
        "[embedding]\nactive_solver = fci\n\n"
        "[mu_scan]\nmu_start = 1.0\nmu_end = 1.5\nmu_step = 0.5\n"
        "inputs_pattern = mu_{mu:.2f}.fcidump\n"
    )
    out_path = tmp_path / "table.csv"
    code = main(["mu-scan", "--config", str(config), "--out", str(out_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "mu_opt = 1.5" in out
    lines = out_path.read_text().splitlines()
    assert lines[0] == "molecule,mu,ne,no,e_hf,e_qdft,iterations,converged"
    assert len(lines) == 3


def _refuse(constant):
    """A ``json.loads`` hook: RFC 8259 JSON has no NaN or Infinity."""
    raise ValueError(f"{constant} is not JSON")


def test_mu_scan_subcommand_reports_a_failed_point(capsys, tmp_path, h2_integrals):
    save_fcidump(h2_integrals, tmp_path / "mu_1.00.fcidump")
    (tmp_path / "mu_1.50.fcidump").write_text("garbage\n")
    config = tmp_path / "scan.ini"
    config.write_text(
        "[active_space]\nn_electrons = 2\nn_orbitals = 2\n\n"
        "[embedding]\nactive_solver = fci\n\n"
        "[mu_scan]\nmu_start = 1.0\nmu_end = 1.5\nmu_step = 0.5\n"
        "inputs_pattern = mu_{mu:.2f}.fcidump\n"
    )
    code = main(["mu-scan", "--config", str(config), "--out", str(tmp_path / "table.csv")])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "mu_opt = 1\n"
    assert captured.err.splitlines() == [
        "mu 1.5 failed: FcidumpError: line 1: missing namelist terminator (&END or /)"
    ]
    assert (tmp_path / "table.csv").read_text().splitlines()[2] == "system,1.5,2,2,nan,nan,0,false"
    code = main(["mu-scan", "--config", str(config), "--format", "json"])
    # the whole of stdout is the JSON document
    payload = json.loads(capsys.readouterr().out, parse_constant=_refuse)
    assert payload["mu_opt"] == 1.0
    # with the table in --out, stdout keeps the mu_opt line in either format
    code = main(["mu-scan", "--config", str(config), "--format", "json", "--out", str(tmp_path / "t.json")])
    assert code == 0 and capsys.readouterr().out == "mu_opt = 1\n"
    assert [row["error"] for row in payload["rows"]] == [
        "", "FcidumpError: line 1: missing namelist terminator (&END or /)"
    ]
    assert payload["rows"][1]["e_hf"] is None and payload["rows"][1]["e_total"] is None
    assert list(payload["rows"][0]) == [
        "mu", "e_hf", "e_total", "iterations", "converged", "evaluations", "error"
    ]


def test_cli_flag_overrides_config(capsys, tmp_path, h2_path):
    config = tmp_path / "run.ini"
    config.write_text("[active_space]\nn_electrons = 2\nn_orbitals = 1\n")
    # the config alone would give a 0-parameter problem; the flag overrides it
    code = main(["vqe", "--fcidump", h2_path, "--config", str(config), "--active", "2,2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "parameters: 3" in out


def test_bad_active_flag(capsys, h2_path):
    with pytest.raises(SystemExit):
        main(["vqe", "--fcidump", h2_path, "--active", "two,two"])


def test_config_value_refused_by_its_section_names_the_file(capsys, tmp_path):
    path = tmp_path / "nan.ini"
    path.write_text("[vqe]\ntolerance = nan\n")
    code = main(["vqe", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error [config.ConfigError]: {path}: [vqe] tolerance must be finite, got nan" in err


# Each command of the byte snapshot, with the inputs that
# _snapshot_inputs lays out; "{name}" is a path from that dict.
_SNAPSHOT_COMMANDS = {
    "hf": ["hf", "--fcidump", "{h2}"],
    "fci": ["fci", "--fcidump", "{lih}", "--active", "2,3"],
    "embed": ["embed", "--fcidump", "{h2}", "--active", "2,2", "--solver", "fci"],
    "mu-scan": ["mu-scan", "--config", "{scan}"],
    "report": ["report", "--references", "{references}", "--results", "{results}"],
}


def _snapshot_inputs(directory: Path) -> dict[str, str]:
    """Write the snapshot's input files into ``directory``: an FCI mu-scan
    of H2 whose second point is corrupt, and a report whose results hold
    a point without mu and a non-converged row."""
    shutil.copy(FIXTURE_DIR / "h2_sto3g_0735.fcidump", directory / "mu_1.00.fcidump")
    (directory / "mu_1.50.fcidump").write_text("garbage\n")
    (directory / "scan.ini").write_text(
        "[system]\nmolecule = h2\n\n"
        "[active_space]\nn_electrons = 2\nn_orbitals = 2\n\n"
        "[embedding]\nactive_solver = fci\n\n"
        "[mu_scan]\nmu_start = 1.0\nmu_end = 1.5\nmu_step = 0.5\n"
        "inputs_pattern = mu_{mu:.2f}.fcidump\n"
    )
    (directory / "references.csv").write_text("molecule,e_dft,e_ccsd\nwater,-75.841,-76.205\n")
    (directory / "results.csv").write_text(
        "molecule,mu,ne,no,e_hf,e_qdft,iterations,converged\n"
        "water,7.25,4,6,-76.008,-76.0598,2,true\n"
        "water,,6,6,-76.008,-76.0671,2,true\n"
        "water,7.25,8,6,-76.008,-99.0,2,false\n"
    )
    return {
        "h2": str(FIXTURE_DIR / "h2_sto3g_0735.fcidump"),
        "lih": str(FIXTURE_DIR / "lih_sto3g.fcidump"),
        "scan": str(directory / "scan.ini"),
        "references": str(directory / "references.csv"),
        "results": str(directory / "results.csv"),
    }


def _snapshot_cases(directory: Path):
    """Yield ("command/format/destination", {"code", "stdout", "stderr",
    "file"}) for every snapshot command in both formats, once to stdout
    and once with ``--out``; the file is read as bytes, so a line ending
    that changes is seen."""
    inputs = _snapshot_inputs(directory)
    for (name, template), fmt, destination in itertools.product(
        _SNAPSHOT_COMMANDS.items(), ("csv", "json"), ("stdout", "out")
    ):
        argv = [part.format(**inputs) for part in template] + ["--format", fmt]
        out_path = directory / f"{name}-{fmt}.out"
        if destination == "out":
            argv += ["--out", str(out_path)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv)
        written = out_path.read_bytes().decode() if destination == "out" else None
        yield f"{name}/{fmt}/{destination}", {
            "code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "file": written,
        }


def test_outputs_match_their_snapshot(tmp_path):
    """Exit code, stdout, stderr and the --out file of hf, fci, embed,
    mu-scan and report, in both formats and both destinations, are the
    bytes in fixtures/cli_snapshots.json (captured by dumping
    ``dict(_snapshot_cases(directory))`` as JSON).  The VQE commands are
    left out: their last digits follow the machine's floating point."""
    expected = json.loads((FIXTURE_DIR / "cli_snapshots.json").read_text())
    actual = dict(_snapshot_cases(tmp_path))
    assert list(actual) == list(expected)
    for key, result in actual.items():
        assert result == expected[key], capture_mismatch(key)


# A number in CLI output, and the relative bound the rounding check holds
# each one to: ten times the widest step between neighbouring values
# printed to 10 significant digits (1e-9), far below any physics change.
_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
SNAPSHOT_RELATIVE_BOUND = 1e-8


def test_outputs_hold_their_snapshot_on_any_blas_core(tmp_path):
    """The snapshot with its numbers read as numbers, so that it holds on
    every BLAS kernel: exit code, stderr and the text between the numbers
    of stdout and the --out file are the snapshot's, and every number lies
    within SNAPSHOT_RELATIVE_BOUND of the snapshot's."""
    expected = json.loads((FIXTURE_DIR / "cli_snapshots.json").read_text())
    actual = dict(_snapshot_cases(tmp_path))
    assert list(actual) == list(expected)
    for key, result in actual.items():
        snapshot = expected[key]
        assert (result["code"], result["stderr"]) == (snapshot["code"], snapshot["stderr"]), key
        for stream in ("stdout", "file"):
            text, captured = result[stream], snapshot[stream]
            assert (text is None) == (captured is None), f"{key} {stream}"
            if text is None:
                continue
            assert _NUMBER.split(text) == _NUMBER.split(captured), f"{key} {stream}"
            for number, expected_number in zip(_NUMBER.findall(text), _NUMBER.findall(captured)):
                assert math.isclose(float(number), float(expected_number), rel_tol=SNAPSHOT_RELATIVE_BOUND), (
                    f"{key} {stream}: {number} against {expected_number}"
                )
