"""FCIDUMP ingestion and emission.

The FCIDUMP text format (Knowles-Handy convention) carries one- and
two-electron integrals over an orthonormal orbital basis: a namelist
header declaring NORB, NELEC and MS2 followed by ``value i j k l``
records with 1-based indices.  Two-electron values are chemists'
notation (pq|rs) and enjoy the full 8-fold permutational symmetry

    (pq|rs) = (qp|rs) = (pq|sr) = (qp|sr) = (rs|pq) = ...

which this module exploits by storing one value per equivalence class,
in one vector ordered by :func:`canonical_classes`.  Full and active
integrals share that layout: the compiled qubit map multiplies the
vector, and the dense n^4 tensor is a gather from it.  FCIDUMP files
are the package's sole molecular-data ingestion path; basis sets and
geometries live upstream.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path
from typing import IO, Iterator

import numpy as np

__all__ = [
    "FcidumpError",
    "SymmetricTwoBody",
    "IntegralSet",
    "canonical_classes",
    "parse_fcidump",
    "read_fcidump",
    "write_fcidump",
    "save_fcidump",
]


class FcidumpError(ValueError):
    """Malformed FCIDUMP content.  Carries the offending 1-based line number."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


def _pair_indices(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Composite index p (p + 1) / 2 + q of every broadcast pair of
    (0-based) indices, taken in the order p >= q."""
    high, low = np.maximum(p, q), np.minimum(p, q)
    return high * (high + 1) // 2 + low


def _last_rows(keys: np.ndarray, n_keys: int) -> tuple[np.ndarray, np.ndarray]:
    """(each key in [0, n_keys) that occurs in ``keys``, in key order; the
    index of its last occurrence).  numpy leaves the winner of repeated
    fancy-index writes undefined, so a last-wins write goes through these
    rows, once a key; ``np.maximum.at`` is defined for repeated indices
    and, unlike ``np.unique``, needs no sort."""
    last = np.full(n_keys, -1)
    np.maximum.at(last, keys, np.arange(len(keys)))
    present = np.flatnonzero(last >= 0)
    return present, last[present]


def canonical_classes(n_orbitals: int) -> list[tuple[int, int, int, int]]:
    """The canonical representative (p, q, r, s) of every (pq|rs) class:
    p >= q, r >= s and (p, q) >= (r, s), sorted by index tuple.  This is
    the order of :meth:`SymmetricTwoBody.items_canonical` and of
    :meth:`SymmetricTwoBody.canonical_vector`, where the class with pair
    indices (pq, rs) sits at pq (pq + 1) / 2 + rs."""
    classes = []
    for p in range(n_orbitals):
        for q in range(p + 1):
            for r in range(p + 1):
                for s in range(q + 1 if r == p else r + 1):
                    classes.append((p, q, r, s))
    return classes


@lru_cache(maxsize=16)
def _canonical_gather(n_orbitals: int) -> tuple[np.ndarray, ...]:
    """The (p, q, r, s) index arrays of :func:`canonical_classes`."""
    table = np.array(canonical_classes(n_orbitals), dtype=np.intp).reshape(-1, 4)
    table.flags.writeable = False
    return tuple(table.T)


class SymmetricTwoBody:
    """Two-electron integrals (pq|rs) stored under 8-fold permutational symmetry.

    The storage is one float64 vector with one entry per class of
    :func:`canonical_classes`: the class with composite pair indices
    pq >= rs (p >= q, r >= s) sits at pq (pq + 1) / 2 + rs.  This is the
    vector the compiled qubit map multiplies, and the dense n^4 tensor is
    a gather from it.  Any of the 8 equivalent index orders resolves to
    the same entry; unset entries read +0.0.
    """

    __slots__ = ("n_orbitals", "_values")

    def __init__(self, n_orbitals: int):
        self.n_orbitals = int(n_orbitals)
        n_pairs = self.n_orbitals * (self.n_orbitals + 1) // 2
        self._values = np.zeros(n_pairs * (n_pairs + 1) // 2)

    def _index(self, p: int, q: int, r: int, s: int) -> int:
        n = self.n_orbitals
        if not all(0 <= i < n for i in (p, q, r, s)):
            raise IndexError(f"orbital index out of range for n_orbitals={n}: {(p, q, r, s)}")
        return _pair_indices(_pair_indices(p, q), _pair_indices(r, s))

    def get(self, p: int, q: int, r: int, s: int) -> float:
        return float(self._values[self._index(p, q, r, s)])

    def set(self, p: int, q: int, r: int, s: int, value: float) -> None:
        self.set_many([(p, q, r, s)], [value])

    def set_many(self, indices: np.ndarray, values: np.ndarray | list[float]) -> None:
        """Set the class of each row (p, q, r, s) of the (m, 4) ``indices``
        to the matching ``values``, in row order: where rows share a
        class, the last one wins.  A -0.0 is stored as +0.0, the value of
        an unset entry."""
        indices = np.asarray(indices, dtype=np.intp).reshape(-1, 4)
        outside = np.any((indices < 0) | (indices >= self.n_orbitals), axis=1)
        if outside.any():
            raise IndexError(
                f"orbital index out of range for n_orbitals={self.n_orbitals}: "
                f"{tuple(indices[outside][0].tolist())}"
            )
        p, q, r, s = indices.T
        classes, rows = _last_rows(_pair_indices(_pair_indices(p, q), _pair_indices(r, s)), len(self._values))
        self._values[classes] = np.asarray(values, dtype=float)[rows] + 0.0

    def items_canonical(self) -> Iterator[tuple[tuple[int, int, int, int], float]]:
        """Yield ((p, q, r, s), value) for the canonical representative of
        each nonzero class, sorted by index tuple.  Indices are 0-based with
        p >= q, r >= s and (p, q) >= (r, s)."""
        nonzero = np.flatnonzero(self._values)
        p, q, r, s = (index[nonzero].tolist() for index in _canonical_gather(self.n_orbitals))
        yield from zip(zip(p, q, r, s), self._values[nonzero].tolist())

    def canonical_vector(self) -> np.ndarray:
        """A copy of the value of every class of :func:`canonical_classes`,
        in that order, 0 where unset."""
        return self._values.copy()

    def dense(self) -> np.ndarray:
        """Expand to a full n^4 tensor (chemists' index order): element
        (p, q, r, s) reads the canonical vector at its class index."""
        orbitals = np.arange(self.n_orbitals)
        pair = _pair_indices(orbitals[:, None], orbitals[None, :])
        return self._values[_pair_indices(pair[:, :, None, None], pair[None, None, :, :])]

    @classmethod
    def from_dense(cls, tensor: np.ndarray) -> "SymmetricTwoBody":
        """Read ``tensor`` at the canonical representative of every class
        (the other seven index orders are never read); a -0.0 is stored as
        +0.0, as by :meth:`set`."""
        obj = cls(tensor.shape[0])
        obj._values = np.asarray(tensor[_canonical_gather(obj.n_orbitals)], dtype=float) + 0.0
        return obj

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymmetricTwoBody):
            return NotImplemented
        return self.n_orbitals == other.n_orbitals and np.array_equal(self._values, other._values)

    def __len__(self) -> int:
        return np.count_nonzero(self._values)


@dataclass(frozen=True)
class IntegralSet:
    """Molecular integrals over an orthonormal orbital basis.

    Attributes
    ----------
    n_orbitals, n_electrons, spin_2ms
        System size declarations from the FCIDUMP header (MS2 = 2*Ms).
    core_energy
        Scalar offset in Hartree (nuclear repulsion plus any frozen core
        folded in upstream).
    one_body
        Symmetric n x n matrix h_pq in Hartree.
    two_body
        (pq|rs) under 8-fold symmetry, chemists' notation, Hartree.
    """

    n_orbitals: int
    n_electrons: int
    spin_2ms: int
    core_energy: float
    one_body: np.ndarray
    two_body: SymmetricTwoBody = field(repr=False)

    def __post_init__(self):
        if self.n_orbitals < 1:
            raise ValueError(f"n_orbitals must be positive, got {self.n_orbitals}")
        if self.n_electrons < 0:
            raise ValueError(f"n_electrons must be non-negative, got {self.n_electrons}")
        if self.n_electrons > 2 * self.n_orbitals:
            raise ValueError(
                f"{self.n_electrons} electrons do not fit in {self.n_orbitals} orbitals"
            )
        h = np.array(self.one_body, dtype=float)  # a copy: the caller's array stays its own
        if h.shape != (self.n_orbitals, self.n_orbitals):
            raise ValueError(f"one_body shape {h.shape} does not match n_orbitals={self.n_orbitals}")
        if not np.array_equal(h, h.T):
            if not np.allclose(h, h.T, atol=1e-12):
                raise ValueError("one_body matrix is not symmetric")
            h = 0.5 * (h + h.T)
        h.flags.writeable = False
        object.__setattr__(self, "one_body", h)
        if self.two_body.n_orbitals != self.n_orbitals:
            raise ValueError("two_body dimension does not match n_orbitals")

    @cached_property
    def two_body_dense(self) -> np.ndarray:
        tensor = self.two_body.dense()
        tensor.flags.writeable = False
        return tensor

    @classmethod
    def from_arrays(
        cls,
        one_body: np.ndarray,
        two_body: np.ndarray | SymmetricTwoBody,
        core_energy: float = 0.0,
        n_electrons: int = 0,
        spin_2ms: int = 0,
    ) -> "IntegralSet":
        n = np.asarray(one_body).shape[0]
        if not isinstance(two_body, SymmetricTwoBody):
            two_body = SymmetricTwoBody.from_dense(np.asarray(two_body, dtype=float))
        return cls(n, n_electrons, spin_2ms, float(core_energy), one_body, two_body)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntegralSet):
            return NotImplemented
        return (
            self.n_orbitals == other.n_orbitals
            and self.n_electrons == other.n_electrons
            and self.spin_2ms == other.spin_2ms
            and self.core_energy == other.core_energy
            and np.array_equal(self.one_body, other.one_body)
            and self.two_body == other.two_body
        )


_HEADER_KEY = re.compile(r"([A-Za-z0-9_]+)\s*=\s*([^,\s=]+)")
_RECORD_CHUNK = 4096  # data records tokenised and converted per bulk call


def parse_fcidump(source: str | IO[str]) -> IntegralSet:
    """Parse FCIDUMP text into an :class:`IntegralSet`.

    ``source`` is the file content (or a readable text handle).  Header
    keys may be separated by commas or whitespace; ORBSYM/ISYM and other
    unknown keys are accepted and ignored.  Data records follow the
    namelist terminator (``&END`` or ``/``): ``value i j k l`` with
    1-based indices, where ``i j 0 0`` is a one-body entry, all-zero
    indices carry the core energy, and ``i 0 0 0`` records (orbital
    energies written by some emitters) are skipped.  A kept record whose
    value is not finite is refused.  Duplicate entries overwrite, last
    wins.

    The records are read in bulk, ``_RECORD_CHUNK`` at a time so that the
    tokens held at once do not grow with the file: one split tokenises a
    chunk, one ``np.array`` call converts its values and one its indices
    (each calling ``float()`` or ``int()`` on every token), and masks sort them
    into core, one-body, two-body and orbital-energy records.  Only when
    these find a malformed record are the records checked one at a time,
    so the error names the first malformed line and its first failed
    check, as a record-by-record reader would.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = source
    lines = text.splitlines()

    header_parts: list[str] = []
    data_start = None
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        upper = stripped.upper()
        terminator = None
        for token in ("&END", "/END", "/"):
            pos = upper.find(token)
            if pos >= 0:
                terminator = (pos, token)
                break
        if terminator is not None:
            header_parts.append(stripped[: terminator[0]])
            data_start = lineno  # data begins on the following line
            break
        header_parts.append(stripped)
    if data_start is None:
        raise FcidumpError("missing namelist terminator (&END or /)", len(lines) or 1)

    header = " ".join(header_parts)
    keys = {k.upper(): v for k, v in _HEADER_KEY.findall(header)}

    def header_int(name: str, required: bool, default: int = 0) -> int:
        if name not in keys:
            if required:
                raise FcidumpError(f"header is missing {name}", 1)
            return default
        try:
            return int(keys[name])
        except ValueError:
            raise FcidumpError(f"header {name}={keys[name]!r} is not an integer", 1) from None

    n_orbitals = header_int("NORB", required=True)
    n_electrons = header_int("NELEC", required=True)
    spin_2ms = header_int("MS2", required=False)
    if n_orbitals < 1:
        raise FcidumpError(f"NORB must be positive, got {n_orbitals}", 1)

    # Every kept record of a chunk is tokenised by one split of all of them,
    # joined with a NUL token that splits them apart again: no well-formed
    # record holds a NUL, so the split has one NUL after each five fields
    # exactly when every record has five fields.
    data_lines = list(filter(str.strip, lines[data_start:]))
    value_chunks, index_chunks = [], []
    for start in range(0, max(len(data_lines), 1), _RECORD_CHUNK):
        records = data_lines[start : start + _RECORD_CHUNK]
        joined = " \0 ".join(records + [""])
        if "!" in joined or "#" in joined:  # comment lines, or a malformed record
            records = [record for record in records if record.lstrip()[0] not in "!#"]
            joined = " \0 ".join(records + [""])
        tokens = joined.replace(",", " ").split()
        n_records = len(records)
        if not (len(tokens) == 6 * n_records and joined.count("\0") == tokens[5::6].count("\0") == n_records):
            raise _first_record_error(lines, data_start, n_orbitals)
        values = tokens[0::6]
        if "D" in joined or "d" in joined:
            values = [value.replace("D", "E").replace("d", "e") for value in values]
        try:  # both call float() and int() on each token
            value_chunks.append(np.array(values, dtype=np.float64))
            index_chunks.append(np.array([tokens[1::6], tokens[2::6], tokens[3::6], tokens[4::6]], dtype=np.intp))
        except (ValueError, OverflowError):
            raise _first_record_error(lines, data_start, n_orbitals) from None
    values, indices = np.concatenate(value_chunks), np.concatenate(index_chunks, axis=1)

    # with every index in [0, NORB], "nonzero" is "positive"
    outside = ((indices < 0) | (indices > n_orbitals)).any(axis=0)
    zero = indices == 0
    orbital_energy = ~zero[0] & zero[1:].all(axis=0)  # not part of the Hamiltonian
    core = zero.all(axis=0)
    one = ~zero[:2].any(axis=0) & zero[2:].all(axis=0)
    two = ~zero.any(axis=0)
    if (outside | ~orbital_energy & ~(np.isfinite(values) & (core | one | two))).any():
        raise _first_record_error(lines, data_start, n_orbitals)

    core_energy = float(values[core][-1]) if core.any() else 0.0
    # the last record of each (i j) / (j i) pair sets both elements
    p, q = indices[:2, one] - 1
    _, last = _last_rows(_pair_indices(p, q), n_orbitals * (n_orbitals + 1) // 2)
    p, q, one_values = p[last], q[last], values[one][last]
    one_body = np.zeros((n_orbitals, n_orbitals))
    one_body[p, q] = one_values
    one_body[q, p] = one_values
    two_body = SymmetricTwoBody(n_orbitals)
    two_body.set_many(indices[:, two].T - 1, values[two])
    return IntegralSet(n_orbitals, n_electrons, spin_2ms, core_energy, one_body, two_body)


def _first_record_error(lines: list[str], data_start: int, n_orbitals: int) -> FcidumpError:
    """The error of the first malformed data record, found by checking the
    records one at a time, in line order: field count, value, indices,
    index range, orbital-energy records skipped, finiteness, index pattern."""
    for lineno in range(data_start + 1, len(lines) + 1):
        stripped = lines[lineno - 1].strip()
        if not stripped or stripped[0] in "!#":
            continue
        fields = stripped.replace(",", " ").split()
        if len(fields) != 5:
            return FcidumpError(f"expected 'value i j k l', got {stripped!r}", lineno)
        try:
            value = float(fields[0].replace("D", "E").replace("d", "e"))
        except ValueError:
            return FcidumpError(f"non-numeric value field {fields[0]!r}", lineno)
        try:
            i, j, k, l = (int(f) for f in fields[1:])
        except ValueError:
            return FcidumpError(f"non-integer index in {stripped!r}", lineno)
        for idx in (i, j, k, l):
            if idx < 0 or idx > n_orbitals:
                return FcidumpError(f"index {idx} outside [0, NORB={n_orbitals}]", lineno)
        if j == k == l == 0 and i > 0:
            continue
        if not math.isfinite(value):
            return FcidumpError(f"non-finite value {fields[0]!r}", lineno)
        if not (i == j == k == l == 0 or (k == l == 0 and i > 0 and j > 0) or min(i, j, k, l) > 0):
            return FcidumpError(f"unrecognized index pattern {(i, j, k, l)}", lineno)
    raise AssertionError("the bulk checks refused a well-formed record")


def read_fcidump(path: str | Path) -> IntegralSet:
    """Read and parse an FCIDUMP file from disk."""
    return parse_fcidump(Path(path).read_text())


def write_fcidump(integrals: IntegralSet) -> str:
    """Emit canonical FCIDUMP text: symmetry-unique entries only, sorted by
    indices, with round-trip-exact float formatting (``parse(write(s)) == s``)."""
    n = integrals.n_orbitals
    lines = [
        f" &FCI NORB={n},NELEC={integrals.n_electrons},MS2={integrals.spin_2ms},",
        "  ORBSYM=" + "1," * n,
        "  ISYM=1,",
        " &END",
    ]
    for (p, q, r, s), value in integrals.two_body.items_canonical():
        lines.append(f" {float(value)!r} {p + 1} {q + 1} {r + 1} {s + 1}")
    for p in range(n):
        for q in range(p + 1):
            value = float(integrals.one_body[p, q])
            if value != 0.0:
                lines.append(f" {value!r} {p + 1} {q + 1} 0 0")
    lines.append(f" {float(integrals.core_energy)!r} 0 0 0 0")
    return "\n".join(lines) + "\n"


def save_fcidump(integrals: IntegralSet, path: str | Path) -> None:
    Path(path).write_text(write_fcidump(integrals))
