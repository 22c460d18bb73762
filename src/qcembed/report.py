"""Correlation-recovery reporting against ingested reference energies.

The recovery percentage

    R = 100 * (E_embedded - E_DFT) / (E_CCSD - E_DFT)

measures how much of the baseline-to-coupled-cluster energy gap the
embedding closed: 0% is the plain baseline, 100% full recovery.
Reference energies (E_DFT, E_CCSD per molecule) are ingested constants;
a versioned copy of published values ships with the package data.

Every table the command line emits is written here, by :func:`csv_text`
and :func:`json_text`: a CSV cell holds a float to 10 significant
digits, a boolean in lower case, nothing for None and a list as its
items' cells joined by spaces; JSON writes a non-finite float as null.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import IO

__all__ = [
    "ReportError",
    "ReferenceRow",
    "ResultRow",
    "RecoveryReport",
    "recovery",
    "load_reference_table",
    "load_results",
    "packaged_reference_table",
    "build_report",
    "ENERGY_TABLE_COLUMNS",
    "RECOVERY_COLUMNS",
    "recovery_values",
    "csv_text",
    "json_text",
]

_DEGENERATE_TOLERANCE = 1e-12
_RECOVERY_CONSISTENCY = 1e-9
_PLATEAU_DECIMALS = 1  # ties are judged at the table's rounding
RECOVERY_THRESHOLD_PERCENT = 60.0


class ReportError(ValueError):
    """Missing reference data or inconsistent report rows."""


def recovery(e_dft: float, e_qdft: float, e_ccsd: float) -> float:
    """Percentage of the DFT-to-CCSD gap closed by the embedding energy."""
    gap = e_ccsd - e_dft
    if abs(gap) < _DEGENERATE_TOLERANCE:
        raise ReportError(
            f"degenerate reference pair: |e_ccsd - e_dft| = {abs(gap):.3e} < {_DEGENERATE_TOLERANCE}"
        )
    return 100.0 * (e_qdft - e_dft) / gap


@dataclass(frozen=True)
class ReferenceRow:
    molecule: str
    e_dft: float
    e_ccsd: float
    e_hf: float | None = None


@dataclass(frozen=True)
class ResultRow:
    """One embedding result: molecule, active-space label and total energy."""

    molecule: str
    n_active_electrons: int
    n_active_orbitals: int
    e_qdft: float
    mu: float | None = None


@dataclass(frozen=True)
class RecoveryReport:
    """Recovery row; the stored percentage is validated against the three
    energies at construction."""

    molecule: str
    mu_opt: float | None
    n_active_electrons: int
    n_active_orbitals: int
    e_dft: float
    e_qdft: float
    e_ccsd: float
    recovery_percent: float
    best_for_molecule: bool = False
    plateau: bool = False

    def __post_init__(self):
        expected = recovery(self.e_dft, self.e_qdft, self.e_ccsd)
        if abs(expected - self.recovery_percent) > _RECOVERY_CONSISTENCY:
            raise ReportError(
                f"stored recovery {self.recovery_percent!r} disagrees with the energies "
                f"(recomputed {expected!r})"
            )

    @property
    def above_threshold(self) -> bool:
        return self.recovery_percent >= RECOVERY_THRESHOLD_PERCENT


def _csv_records(reader: csv.DictReader, required: tuple[str, ...], source, line_numbers=None):
    """Yield (record, "source:line") per row of ``reader``; the reader's
    line k is the file's line ``line_numbers[k - 1]`` (default: k).  A
    header without a ``required`` column or a row shorter than it raises
    :class:`ReportError`."""
    missing = [name for name in required if name not in (reader.fieldnames or ())]
    if missing:
        raise ReportError(f"{source}: missing column(s) {', '.join(missing)}")
    for record in reader:
        line = line_numbers[reader.line_num - 1] if line_numbers else reader.line_num
        where = f"{source}:{line}"
        if None in record.values():
            raise ReportError(f"{where}: fewer fields than the header")
        yield record, where


def _field(record: dict, column: str, where: str, convert=float):
    """``convert(record[column])``, or :class:`ReportError` naming ``where``."""
    try:
        return convert(record[column])
    except ValueError:
        raise ReportError(f"{where}: cannot read {column} {record[column]!r} as {convert.__name__}") from None


def _source_lines(source: str | Path | IO[str], default_name: str) -> tuple[object, list[str]]:
    """(name for messages, lines) of a path or an open text stream."""
    if hasattr(source, "read"):
        return getattr(source, "name", default_name), source.read().splitlines()
    return source, Path(source).read_text().splitlines()


def load_reference_table(source: str | Path | IO[str]) -> dict[str, ReferenceRow]:
    """Read a reference-energy CSV with columns molecule, e_dft, e_ccsd
    (optionally e_hf); '#' lines are comments.  A missing column, a short
    row, a non-numeric energy or a second row for one molecule raises
    :class:`ReportError`."""
    name, lines = _source_lines(source, "reference table")
    kept = [k for k, line in enumerate(lines, 1) if line.strip() and not line.lstrip().startswith("#")]
    reader = csv.DictReader(lines[k - 1] for k in kept)
    table: dict[str, ReferenceRow] = {}
    first_row: dict[str, str] = {}
    for record, where in _csv_records(reader, ("molecule", "e_dft", "e_ccsd"), name, kept):
        molecule = record["molecule"].strip()
        if molecule in table:
            raise ReportError(
                f"{where}: second row for molecule {molecule!r}, the first is {first_row[molecule]}"
            )
        first_row[molecule] = where
        table[molecule] = ReferenceRow(
            molecule=molecule,
            e_dft=_field(record, "e_dft", where),
            e_ccsd=_field(record, "e_ccsd", where),
            e_hf=_field(record, "e_hf", where) if record.get("e_hf") not in (None, "") else None,
        )
    return table


# the per-mu energy table that ``qcembed mu-scan`` writes and load_results reads
ENERGY_TABLE_COLUMNS = ("molecule", "mu", "ne", "no", "e_hf", "e_qdft", "iterations", "converged")


def load_results(source: str | Path | IO[str]) -> list[ResultRow]:
    """Read an embedding results CSV such as the :data:`ENERGY_TABLE_COLUMNS`
    table of ``qcembed mu-scan``: columns molecule, ne, no, e_qdft and
    optionally mu; a row whose ``converged`` reads false, 0 or no is
    skipped.  A missing column, a short row or a non-numeric field raises
    :class:`ReportError`."""
    name, lines = _source_lines(source, "results table")
    rows = []
    for record, where in _csv_records(csv.DictReader(lines), ("molecule", "ne", "no", "e_qdft"), name):
        if record.get("converged", "true").strip().lower() in ("false", "0", "no"):
            continue
        rows.append(
            ResultRow(
                molecule=record["molecule"].strip(),
                n_active_electrons=_field(record, "ne", where, int),
                n_active_orbitals=_field(record, "no", where, int),
                e_qdft=_field(record, "e_qdft", where),
                mu=_field(record, "mu", where) if record.get("mu") not in (None, "") else None,
            )
        )
    return rows


def packaged_reference_table() -> dict[str, ReferenceRow]:
    """Reference energies shipped with the package (published constants)."""
    text = resources.files("qcembed").joinpath("data/reference_energies.csv").read_text()
    return load_reference_table(io.StringIO(text))


def build_report(results: list[ResultRow], references: dict[str, ReferenceRow]) -> list[RecoveryReport]:
    """Combine embedding results with reference energies.

    Flags the maximum-recovery active space per molecule; rows that tie
    with the maximum at one-decimal rounding share a plateau flag.
    Raises :class:`ReportError` for a molecule without reference data.
    """
    raw: list[RecoveryReport] = []
    for row in results:
        ref = references.get(row.molecule)
        if ref is None:
            raise ReportError(f"no reference energies for molecule {row.molecule!r}")
        percent = recovery(ref.e_dft, row.e_qdft, ref.e_ccsd)
        raw.append(
            RecoveryReport(
                molecule=row.molecule,
                mu_opt=row.mu,
                n_active_electrons=row.n_active_electrons,
                n_active_orbitals=row.n_active_orbitals,
                e_dft=ref.e_dft,
                e_qdft=row.e_qdft,
                e_ccsd=ref.e_ccsd,
                recovery_percent=percent,
            )
        )

    final: list[RecoveryReport] = []
    by_molecule: dict[str, list[RecoveryReport]] = {}
    for row in raw:
        by_molecule.setdefault(row.molecule, []).append(row)
    for molecule_rows in by_molecule.values():
        best = max(r.recovery_percent for r in molecule_rows)
        rounded_best = round(best, _PLATEAU_DECIMALS)
        at_max = [r for r in molecule_rows if round(r.recovery_percent, _PLATEAU_DECIMALS) == rounded_best]
        plateau = len(at_max) > 1
        for row in molecule_rows:
            is_best = row.recovery_percent == best
            on_plateau = plateau and round(row.recovery_percent, _PLATEAU_DECIMALS) == rounded_best
            final.append(replace(row, best_for_molecule=is_best, plateau=on_plateau))
    return final


RECOVERY_COLUMNS = (
    "molecule", "ne", "no", "e_dft", "e_qdft", "e_ccsd", "recovery_percent",
    "above_60_threshold", "best_for_molecule", "plateau", "mu_opt",
)


def recovery_values(row: RecoveryReport) -> tuple:
    """The fields of one report row, in :data:`RECOVERY_COLUMNS` order."""
    return (
        row.molecule, row.n_active_electrons, row.n_active_orbitals, row.e_dft, row.e_qdft,
        row.e_ccsd, row.recovery_percent, bool(row.above_threshold), bool(row.best_for_molecule),
        bool(row.plateau), row.mu_opt,
    )


def _csv_cell(value) -> str:
    """Floats as 10 significant digits, booleans lower case, None empty,
    a list as its items' cells joined by spaces."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".10g")
    if isinstance(value, list):
        return " ".join(_csv_cell(item) for item in value)
    return "" if value is None else str(value)


def csv_text(columns, rows) -> str:
    """A CSV table: the header ``columns``, then one line of cells per row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(columns)
    writer.writerows([_csv_cell(value) for value in row] for row in rows)
    return buffer.getvalue()


def json_text(payload) -> str:
    """Indented RFC 8259 JSON and a newline.  JSON has no NaN or Infinity,
    so a non-finite float (a failed scan point's energy) is written as null."""
    return json.dumps(_finite_or_null(payload), indent=2, allow_nan=False) + "\n"


def _finite_or_null(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(item) for item in value]
    return value
