"""Z2 symmetry detection and qubit tapering for Pauli-sum operators.

Every Pauli term of an operator maps to a length-2n GF(2) vector
(x-part | z-part).  Let S be the span of the term vectors and S-perp its
symplectic complement, i.e. all Pauli strings commuting with every term.
The generators used here form a basis of the radical S intersect S-perp,
the kernel of the symplectic Gram matrix of a basis of S: they commute
with every Hamiltonian term *and* with each other by construction, and
each is itself a product of Hamiltonian terms (Bravyi et al.,
arXiv:1701.08213).

Tapering conjugates the operator by one Clifford per generator,
U_i = (g_i + sigma_i) / sqrt(2), where sigma_i is a single-qubit Pauli
that anticommutes with g_i and commutes with the other generators
(obtained from the pivots of the GF(2) row reduction).  After rotation
every term acts on the pivot qubit with I or sigma_i, so the qubit can
be replaced by a +-1 sector label and removed.  The union of all 2^g
sector spectra equals the spectrum of the input operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as cartesian_product

from .mappings import drop_qubit_positions
from .pauli import _PHASES, PauliString, PauliSum

__all__ = ["TaperingResult", "Z2Symmetries", "find_z2_symmetries", "taper_all_sectors"]


# -- GF(2) linear algebra on int-encoded bit vectors ------------------------


def _gf2_rref(rows: list[int], width: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    rows = [r for r in rows if r]
    pivots: list[int] = []
    reduced: list[int] = []
    for col in range(width):
        bit = 1 << col
        pivot_row = None
        for idx, row in enumerate(rows):
            if row & bit:
                pivot_row = rows.pop(idx)
                break
        if pivot_row is None:
            continue
        rows = [r ^ pivot_row if r & bit else r for r in rows]
        reduced = [r ^ pivot_row if r & bit else r for r in reduced]
        reduced.append(pivot_row)
        pivots.append(col)
    return reduced, pivots


def _gf2_kernel(rows: list[int], width: int) -> list[int]:
    """Basis of {v : row . v = 0 (mod 2) for all rows}."""
    reduced, pivots = _gf2_rref(rows, width)
    pivot_set = set(pivots)
    free_cols = [c for c in range(width) if c not in pivot_set]
    basis = []
    for free in free_cols:
        vec = 1 << free
        for row, pivot in zip(reduced, pivots):
            if (row >> free) & 1:
                vec |= 1 << pivot
        basis.append(vec)
    return basis


# -- symplectic encoding -----------------------------------------------------


def _to_vector(string: PauliString, n: int) -> int:
    return string.x_mask | (string.z_mask << n)


def _from_vector(vector: int, n: int) -> PauliString:
    mask = (1 << n) - 1
    return PauliString(n, vector & mask, vector >> n)


def _symplectic_partner(vector: int, n: int) -> int:
    """Swap x and z halves; v1 commutes with v2 iff partner(v1) . v2 is even."""
    mask = (1 << n) - 1
    return ((vector & mask) << n) | (vector >> n)


def _symplectic_product(v1: int, v2: int, n: int) -> int:
    """1 if the encoded Pauli strings anticommute, else 0."""
    return (_symplectic_partner(v1, n) & v2).bit_count() % 2


def _symmetry_radical(term_vectors: list[int], n: int) -> list[int]:
    """Reduced row echelon basis of the radical S intersect S-perp.

    A combination sum_i c_i s_i of the basis s_i of S lies in S-perp
    when it commutes with every s_j, so the radical is the GF(2) kernel
    of the basis's symplectic Gram matrix, mapped back through the basis.
    """
    basis, _ = _gf2_rref(term_vectors, 2 * n)
    gram = [sum(_symplectic_product(a, b, n) << j for j, b in enumerate(basis)) for a in basis]
    radical = []
    for combo in _gf2_kernel(gram, len(basis)):
        vector = 0
        for i, b in enumerate(basis):
            if (combo >> i) & 1:
                vector ^= b
        radical.append(vector)
    return _gf2_rref(radical, 2 * n)[0]


@dataclass(frozen=True)
class TaperingResult:
    """Tapered operator for one symmetry sector."""

    symmetry_generators: tuple[PauliString, ...]
    sector_labels: tuple[int, ...]
    tapered_operator: PauliSum
    qubit_count_before: int
    qubit_count_after: int


class Z2Symmetries:
    """Symmetry generators of an operator plus sector-tapering machinery."""

    def __init__(self, operator: PauliSum):
        n = operator.n_qubits
        self.n_qubits = n

        term_vectors = [_to_vector(s, n) for s, _ in operator if not s.is_identity]
        vectors = _symmetry_radical(term_vectors, n)

        # Assign each generator a dedicated qubit plus a single-qubit Pauli
        # that anticommutes with it alone.  Multiplying the other generators
        # by g_i (a group basis change) clears any remaining anticommutation,
        # so distinct qubits always suffice.
        qubits: list[int] = []
        sigmas: list[PauliString] = []
        used: set[int] = set()
        for i in range(len(vectors)):
            g = vectors[i]
            qubit = sigma_vec = None
            for q in range(n):
                if q in used:
                    continue
                x = (g >> q) & 1
                z = (g >> (n + q)) & 1
                if x == 0 and z == 0:
                    continue
                # local X -> sigma Z, local Z or Y -> sigma X
                sigma_vec = (1 << (n + q)) if (x == 1 and z == 0) else (1 << q)
                qubit = q
                break
            if qubit is None:
                raise AssertionError("no free qubit for a symmetry generator")
            for j in range(len(vectors)):
                if j != i and _symplectic_product(sigma_vec, vectors[j], n):
                    vectors[j] ^= g
            qubits.append(qubit)
            sigmas.append(_from_vector(sigma_vec, n))
            used.add(qubit)

        self.generators: tuple[PauliString, ...] = tuple(_from_vector(v, n) for v in vectors)
        self._pivot_qubits = qubits
        self._pivot_paulis = sigmas
        self._rotated = self._rotate(operator)

    @property
    def n_generators(self) -> int:
        return len(self.generators)

    def _rotate(self, op: PauliSum) -> PauliSum:
        """Conjugate by every U_i = (g_i + sigma_i)/sqrt(2).

        Terms commuting with sigma_i pass through; a term P that
        anticommutes picks up U P U^dag = -g_i sigma_i P (valid because
        every term commutes with g_i).
        """
        for generator, sigma in zip(self.generators, self._pivot_paulis):
            rotated: dict[PauliString, complex] = {}
            for string, coeff in op:
                if string.commutes_with(sigma):
                    new_string, new_coeff = string, coeff
                else:
                    e1, gs = generator.compose(sigma)
                    e2, new_string = gs.compose(string)
                    new_coeff = -coeff * _PHASES[(e1 + e2) % 4]
                rotated[new_string] = rotated.get(new_string, 0.0) + new_coeff
            op = PauliSum(op.n_qubits, rotated)
        return op

    def taper(self, sector: tuple[int, ...] | list[int]) -> PauliSum:
        """Project onto a sector (one +-1 label per generator) and drop the pivot qubits."""
        sector = tuple(sector)
        if len(sector) != self.n_generators:
            raise ValueError(f"expected {self.n_generators} sector labels, got {len(sector)}")
        if any(s not in (1, -1) for s in sector):
            raise ValueError(f"sector labels must be +-1, got {sector}")
        n = self.n_qubits
        positions = self._pivot_qubits
        out: dict[PauliString, complex] = {}
        for string, coeff in self._rotated:
            factor = 1
            for qubit, sigma, label in zip(positions, self._pivot_paulis, sector):
                x = (string.x_mask >> qubit) & 1
                z = (string.z_mask >> qubit) & 1
                if x == 0 and z == 0:
                    continue
                if x != ((sigma.x_mask >> qubit) & 1) or z != ((sigma.z_mask >> qubit) & 1):
                    raise AssertionError("rotation left a non-sigma Pauli on a pivot qubit")
                factor *= label
            new_string = PauliString(
                n - len(positions),
                drop_qubit_positions(string.x_mask, positions),
                drop_qubit_positions(string.z_mask, positions),
            )
            out[new_string] = out.get(new_string, 0.0) + factor * coeff
        return PauliSum(n - len(positions), out)

    def taper_result(self, sector: tuple[int, ...] | list[int]) -> TaperingResult:
        tapered = self.taper(sector)
        return TaperingResult(
            symmetry_generators=self.generators,
            sector_labels=tuple(sector),
            tapered_operator=tapered,
            qubit_count_before=self.n_qubits,
            qubit_count_after=self.n_qubits - self.n_generators,
        )

    def all_sectors(self):
        """Yield (sector_labels, tapered_operator) over all 2^g sectors."""
        for sector in cartesian_product((1, -1), repeat=self.n_generators):
            yield sector, self.taper(sector)

    def sector_of_occupation(self, occupation_mask: int) -> tuple[int, ...]:
        """Sector labels of a computational-basis state (Z-type generators only)."""
        labels = []
        for generator in self.generators:
            if generator.x_mask:
                raise ValueError(
                    f"generator {generator.label} is not Z-type; sector must be chosen by energy"
                )
            parity = (generator.z_mask & occupation_mask).bit_count() % 2
            labels.append(-1 if parity else 1)
        return tuple(labels)


def find_z2_symmetries(operator: PauliSum) -> Z2Symmetries:
    """Detect the Z2 symmetries of a Hermitian Pauli sum.

    An empty generator set is a valid outcome; ``taper`` is then the
    identity on the operator.
    """
    return Z2Symmetries(operator)


def taper_all_sectors(operator: PauliSum) -> list[TaperingResult]:
    """One :class:`TaperingResult` per sector, in the order of
    :meth:`Z2Symmetries.all_sectors`, each from one ``taper`` call."""
    syms = find_z2_symmetries(operator)
    return [syms.taper_result(sector) for sector in cartesian_product((1, -1), repeat=syms.n_generators)]
