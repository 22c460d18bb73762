"""Command-line entry points.

Subcommands: hf, fci, vqe, embed, mu-scan, report, fcidump-roundtrip.
Global flags (--fcidump, --active NE,NO, --seed, --config, --out,
--format) may come from a config file; explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from pathlib import Path

from .activespace import ActiveSpaceSpec, reduce_integrals
from .config import WorkbenchConfig, load_config
from .embedding import run_embedding, write_iteration_log_csv
from .fci import fci_solve
from .integrals import parse_fcidump, read_fcidump, write_fcidump
from .meanfield import solve_rhf
from .report import (
    ResultRow,
    build_report,
    load_reference_table,
    packaged_reference_table,
    recovery_rows_to_json,
    write_energy_table_csv,
    write_recovery_csv,
)
from .scan import mu_scan
from .sim import build_uccsd_ansatz, map_active_hamiltonian
from .vqe import minimize, write_trace_csv

__all__ = ["main"]


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fcidump", type=Path, help="FCIDUMP input file")
    parser.add_argument("--active", metavar="NE,NO", help="active space, e.g. 2,2")
    parser.add_argument("--seed", type=int, help="random seed for the VQE initialization")
    parser.add_argument("--config", type=Path, help="INI-style configuration file")
    parser.add_argument("--out", type=Path, help="output file path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcembed",
        description="Active-space quantum embedding workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("hf", "restricted mean-field solve of an FCIDUMP system"),
        ("fci", "exact diagonalization (optionally in an active space)"),
        ("vqe", "UCCSD-VQE on the active-space Hamiltonian"),
        ("embed", "self-consistent embedding cycle"),
        ("mu-scan", "scan the range-separation parameter over per-mu inputs"),
        ("report", "correlation-recovery report from results and references"),
        ("fcidump-roundtrip", "parse, re-emit and re-parse an FCIDUMP file"),
    ):
        sp = sub.add_parser(name, help=help_text)
        _add_common_flags(sp)
        if name == "mu-scan":
            sp.add_argument(
                "--workers",
                type=int,
                default=None,
                help="scan threads (default: serial; threads are slower, the work holds the GIL)",
            )
        if name == "report":
            sp.add_argument("--references", type=Path, help="reference-energy CSV (default: packaged table)")
            sp.add_argument("--results", type=Path, required=True, help="embedding results CSV")
        if name in ("embed", "mu-scan"):
            sp.add_argument("--solver", choices=("vqe", "fci"), help="active-space solver")
    return parser


def _load_workbench_config(args) -> WorkbenchConfig:
    cfg = load_config(args.config) if args.config else WorkbenchConfig()
    if args.fcidump is not None:
        cfg.fcidump = args.fcidump
    if args.active is not None:
        try:
            ne, no = (int(x) for x in args.active.split(","))
        except ValueError:
            raise SystemExit(f"error: --active expects NE,NO integers, got {args.active!r}")
        cfg.active_spec = ActiveSpaceSpec(ne, no)
    if args.seed is not None:
        cfg.vqe = dataclasses.replace(cfg.vqe, seed=args.seed)
    if getattr(args, "solver", None):
        cfg.embedding = dataclasses.replace(cfg.embedding, active_solver=args.solver)
    return cfg


def _require_fcidump(cfg: WorkbenchConfig, parser_name: str):
    if cfg.fcidump is None:
        raise SystemExit(f"error: {parser_name} requires --fcidump (or a [system] fcidump entry)")
    return read_fcidump(cfg.fcidump)


def _require_active(cfg: WorkbenchConfig, parser_name: str) -> ActiveSpaceSpec:
    if cfg.active_spec is None:
        raise SystemExit(f"error: {parser_name} requires --active NE,NO")
    return cfg.active_spec


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _cmd_hf(args) -> int:
    cfg = _load_workbench_config(args)
    integrals = _require_fcidump(cfg, "hf")
    mf = solve_rhf(integrals)
    payload = {
        "energy": mf.energy,
        "converged": mf.converged,
        "iterations": mf.iterations,
        "orbital_energies": [float(e) for e in mf.orbital_energies],
    }
    if args.format == "json":
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        print(f"mean-field energy: {mf.energy:.10f} Ha")
        print(f"converged: {mf.converged} after {mf.iterations} iterations")
        if args.out:
            args.out.write_text(json.dumps(payload, indent=2) + "\n")
    return 0


def _cmd_fci(args) -> int:
    cfg = _load_workbench_config(args)
    integrals = _require_fcidump(cfg, "fci")
    mf = solve_rhf(integrals)
    spec = cfg.active_spec or ActiveSpaceSpec(integrals.n_electrons, integrals.n_orbitals)
    active = reduce_integrals(integrals, mf, spec)
    result = fci_solve(active)
    total = result.ground_energy + active.inactive_energy
    print(f"active space: {spec.label}, determinant basis {result.basis_dimension}")
    print(f"total energy: {total:.10f} Ha")
    if args.out:
        args.out.write_text(json.dumps({"energy": total, "basis_dimension": result.basis_dimension}) + "\n")
    return 0


def _cmd_vqe(args) -> int:
    cfg = _load_workbench_config(args)
    integrals = _require_fcidump(cfg, "vqe")
    spec = _require_active(cfg, "vqe")
    mf = solve_rhf(integrals)
    active = reduce_integrals(integrals, mf, spec)
    hamiltonian = map_active_hamiltonian(active)
    ansatz = build_uccsd_ansatz(active.n_orbitals, active.n_electrons)
    result = minimize(hamiltonian, ansatz, cfg.vqe)
    total = result.energy + active.inactive_energy
    print(f"qubits: {ansatz.n_qubits}, parameters: {ansatz.n_parameters}")
    print(f"VQE total energy: {total:.10f} Ha ({result.evaluations} evaluations)")
    if args.out:
        with open(args.out, "w", newline="") as handle:
            write_trace_csv(result.trace, handle)
    return 0


def _cmd_embed(args) -> int:
    cfg = _load_workbench_config(args)
    integrals = _require_fcidump(cfg, "embed")
    spec = _require_active(cfg, "embed")
    state = run_embedding(integrals, spec, cfg.embedding, cfg.vqe)
    buffer = io.StringIO()
    write_iteration_log_csv(state, buffer)
    print(buffer.getvalue(), end="")
    print(f"final energy: {state.final_energy:.10f} Ha (converged: {state.converged})")
    if args.out:
        with open(args.out, "w", newline="") as handle:
            write_iteration_log_csv(state, handle)
    if not state.converged:
        return 3
    return 0


def _cmd_mu_scan(args) -> int:
    cfg = _load_workbench_config(args)
    if cfg.mu_scan is None:
        raise SystemExit("error: mu-scan requires a config file with a [mu_scan] section")
    spec = _require_active(cfg, "mu-scan")
    mu_opt, rows = mu_scan(cfg.mu_scan, spec, cfg.embedding, cfg.vqe, max_workers=args.workers)
    buffer = io.StringIO()
    write_energy_table_csv(
        cfg.molecule or "system",
        rows,
        spec.n_active_electrons,
        spec.n_active_orbitals,
        buffer,
    )
    text = buffer.getvalue()
    if args.format == "json":
        payload = {
            "mu_opt": mu_opt,
            "rows": [dataclasses.asdict(r) for r in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    _emit(text, args.out)
    print(f"mu_opt = {mu_opt:g}")
    return 0


def _cmd_report(args) -> int:
    references = (
        load_reference_table(args.references) if args.references else packaged_reference_table()
    )
    rows = []
    with open(args.results, newline="") as handle:
        for record in csv.DictReader(handle):
            if record.get("converged", "true").strip().lower() in ("false", "0", "no"):
                continue
            rows.append(
                ResultRow(
                    molecule=record["molecule"].strip(),
                    n_active_electrons=int(record["ne"]),
                    n_active_orbitals=int(record["no"]),
                    e_qdft=float(record["e_qdft"]),
                    mu=float(record["mu"]) if record.get("mu") not in (None, "") else None,
                )
            )
    report_rows = build_report(rows, references)
    if args.format == "json":
        text = recovery_rows_to_json(report_rows) + "\n"
    else:
        buffer = io.StringIO()
        write_recovery_csv(report_rows, buffer)
        text = buffer.getvalue()
    _emit(text, args.out)
    return 0


def _cmd_roundtrip(args) -> int:
    cfg = _load_workbench_config(args)
    integrals = _require_fcidump(cfg, "fcidump-roundtrip")
    emitted = write_fcidump(integrals)
    reparsed = parse_fcidump(emitted)
    if reparsed == integrals:
        print("round-trip OK: parse(write(parse(file))) is identical")
        if args.out:
            args.out.write_text(emitted)
        return 0
    print("round-trip FAILED: re-parsed integral set differs")
    return 4


_COMMANDS = {
    "hf": _cmd_hf,
    "fci": _cmd_fci,
    "vqe": _cmd_vqe,
    "embed": _cmd_embed,
    "mu-scan": _cmd_mu_scan,
    "report": _cmd_report,
    "fcidump-roundtrip": _cmd_roundtrip,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SystemExit:
        raise
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        module = type(exc).__module__.rsplit(".", maxsplit=1)[-1]
        print(f"error [{module}.{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
