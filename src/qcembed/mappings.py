"""Fermion-to-qubit mappings and the parity two-qubit reduction.

Jordan-Wigner encodes occupations directly:

    a+_j -> (X_j - iY_j)/2 * Z_{j-1} ... Z_0

The parity encoding stores cumulative occupation parities (qubit k holds
n_0 + ... + n_k mod 2).  Ladder operators follow the
Seeley-Richard-Love substitution

    a+_j -> X_{n-1} ... X_{j+1} * (X_j Z_{j-1} - iY_j)/2
    a_j  -> X_{n-1} ... X_{j+1} * (X_j Z_{j-1} + iY_j)/2

With blocked spin ordering the qubits at positions M-1 (cumulative alpha
parity, M spatial orbitals) and 2M-1 (total parity) are conserved for
particle-number eigenstates, so both can be replaced by their +-1
eigenvalues and removed.  ``_reduced_qubits`` and :func:`reduction_sector`
define those qubits and the values a sector fixes on them, for the
reduction here, the ansatz reference and ``sim.lift_reduced_parity_state``.

:func:`compile_linear_map` maps a family of operators once: given one
column of ladder terms per coefficient it returns the sparse matrix
whose product with the coefficients is the image.  It is how the package
maps the active-space Hamiltonian and the UCCSD generators
(``sim.map_active_hamiltonian`` and ``sim.build_uccsd_ansatz``).
:func:`map_jordan_wigner` and :func:`map_parity`, with
:func:`two_qubit_reduction`, map one operator term by term, composing
the same ladder products; the tests check the compiled map against them.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .fermion import FermionOperator, FermionTerm
from .pauli import _PHASES, PRUNE_TOLERANCE, PauliString, PauliSum

if TYPE_CHECKING:
    import scipy.sparse

__all__ = [
    "ReductionError",
    "map_jordan_wigner",
    "map_parity",
    "two_qubit_reduction",
    "reduction_sector",
    "occupation_to_parity_bits",
    "drop_qubit_positions",
    "compile_linear_map",
]


class ReductionError(ValueError):
    """Operator is not symmetric under the two parity qubits."""


def _jw_ladder(mode: int, n_modes: int, creation: bool) -> PauliSum:
    z_string = (1 << mode) - 1
    x_part = PauliString(n_modes, 1 << mode, z_string)
    y_part = PauliString(n_modes, 1 << mode, z_string | (1 << mode))
    sign = -0.5j if creation else 0.5j
    return PauliSum(n_modes, {x_part: 0.5, y_part: sign})


def _parity_ladder(mode: int, n_modes: int, creation: bool) -> PauliSum:
    update = ((1 << n_modes) - 1) & ~((1 << (mode + 1)) - 1)  # X on qubits above `mode`
    prev_z = (1 << (mode - 1)) if mode > 0 else 0
    xz_part = PauliString(n_modes, update | (1 << mode), prev_z)
    y_part = PauliString(n_modes, update | (1 << mode), 1 << mode)
    sign = -0.5j if creation else 0.5j
    return PauliSum(n_modes, {xz_part: 0.5, y_part: sign})


# a product of Pauli strings as {(x_mask, z_mask): coefficient}
_Terms = dict[tuple[int, int], complex]


def _prune(terms: _Terms) -> _Terms:
    # the simplification PauliSum applies on construction
    return {key: complex(c) for key, c in terms.items() if not abs(c) < PRUNE_TOLERANCE}


def _ladder_factor(ladder_sum: PauliSum) -> list[tuple[int, int, int, complex]]:
    return [(s.x_mask, s.z_mask, (s.x_mask & s.z_mask).bit_count(), c) for s, c in ladder_sum]


class _LadderProducts:
    """Ladder products of fermion terms on ``n_modes`` modes, composed on
    (x_mask, z_mask) keys with the phase rule of
    :meth:`PauliString.compose` and pruned after every ladder factor, as
    ``PauliSum.__matmul__`` would; each ladder image is built once."""

    def __init__(self, n_modes: int, ladder):
        self.n_modes = n_modes
        self.ladder = ladder
        self._factors: dict[tuple[int, bool], list[tuple[int, int, int, complex]]] = {}
        self._prefixes: dict[FermionTerm, _Terms] = {(): {(0, 0): 1.0 + 0.0j}}

    def _compose(self, terms: _Terms, mode: int, creation: bool) -> _Terms:
        key = (mode, creation)
        if key not in self._factors:
            self._factors[key] = _ladder_factor(self.ladder(mode, self.n_modes, creation))
        composed: _Terms = {}
        for (x1, z1), c1 in terms.items():
            y1 = (x1 & z1).bit_count()
            for x2, z2, y2, c2 in self._factors[key]:
                x3, z3 = x1 ^ x2, z1 ^ z2
                exponent = (y1 + y2 - (x3 & z3).bit_count() + 2 * (z1 & x2).bit_count()) % 4
                composed[x3, z3] = composed.get((x3, z3), 0.0) + c1 * c2 * _PHASES[exponent]
        return _prune(composed)

    def product(self, term: FermionTerm, coeff: complex) -> _Terms:
        """coeff times the ladder product of ``term``."""
        terms = _prune({(0, 0): coeff})
        for mode, creation in term:
            terms = self._compose(terms, mode, creation)
        return terms

    def unit_product(self, term: FermionTerm) -> _Terms:
        """``product(term, 1.0)``; every proper prefix of ``term`` is
        kept, so terms that share a prefix compose it once."""
        return self._compose(self._prefix(term[:-1]), *term[-1])

    def _prefix(self, term: FermionTerm) -> _Terms:
        if term not in self._prefixes:
            self._prefixes[term] = self._compose(self._prefix(term[:-1]), *term[-1])
        return self._prefixes[term]


def _map_with_ladder(op: FermionOperator, ladder) -> PauliSum:
    """Sum of the ladder products of every term, accumulated in one dict
    and simplified once; strings are built for the final terms only."""
    n = op.n_modes
    products = _LadderProducts(n, ladder)
    acc: _Terms = {}
    for term, coeff in op.items():
        for masks, value in products.product(term, coeff).items():
            acc[masks] = acc.get(masks, 0.0) + value
    return PauliSum(n, {PauliString(n, x, z): c for (x, z), c in acc.items()})


def map_jordan_wigner(op: FermionOperator) -> PauliSum:
    """Jordan-Wigner image of a fermionic operator, simplified and pruned."""
    return _map_with_ladder(op, _jw_ladder)


def map_parity(op: FermionOperator) -> PauliSum:
    """Parity-basis image of a fermionic operator, simplified and pruned.

    Spectrum-equivalent to :func:`map_jordan_wigner`; the two encodings
    differ by the basis permutation |n> -> |p(n)>, p_k = n_0 ^ ... ^ n_k.
    """
    return _map_with_ladder(op, _parity_ladder)


def occupation_to_parity_bits(occupation_mask: int, n_modes: int) -> int:
    """Map an occupation bitstring to its cumulative-parity bitstring."""
    parity = 0
    running = 0
    for k in range(n_modes):
        running ^= (occupation_mask >> k) & 1
        parity |= running << k
    return parity


def drop_qubit_positions(mask: int, positions: list[int]) -> int:
    """Remove the given bit positions from a mask, compressing the rest."""
    for pos in sorted(positions, reverse=True):
        lower = mask & ((1 << pos) - 1)
        mask = ((mask >> (pos + 1)) << pos) | lower
    return mask


def reduction_sector(n_electrons_total: int, n_electrons_alpha: int) -> tuple[int, int]:
    """Z eigenvalues (-1)^N_alpha and (-1)^N of the alpha-parity and total-parity qubits."""
    return 1 - 2 * (n_electrons_alpha % 2), 1 - 2 * (n_electrons_total % 2)


def _reduced_qubits(n_modes: int, reduced: bool = True) -> list[int]:
    """The qubits a map of 2M blocked modes drops: with the reduction the
    alpha-parity qubit M-1 and the total-parity qubit 2M-1, else none."""
    return [n_modes // 2 - 1, n_modes - 1] if reduced else []


def _check_reducible(n_qubits: int) -> None:
    if n_qubits < 2 or n_qubits % 2 != 0:
        raise ReductionError(f"two-qubit reduction needs an even qubit count >= 2, got {n_qubits}")


def _reduce_masks(
    x_mask: int, z_mask: int, n_qubits: int, sector: tuple[int, int]
) -> tuple[int, int, int]:
    """(x, z, sign) of one string with the parity qubits M-1 and 2M-1
    replaced by their Z eigenvalues ``sector`` and removed."""
    positions = _reduced_qubits(n_qubits)
    if any((x_mask >> position) & 1 for position in positions):
        raise ReductionError(
            f"term {PauliString(n_qubits, x_mask, z_mask).label} anticommutes with a parity qubit; "
            "operator is not parity-symmetric"
        )
    sign = math.prod(eigenvalue for position, eigenvalue in zip(positions, sector) if (z_mask >> position) & 1)
    return drop_qubit_positions(x_mask, positions), drop_qubit_positions(z_mask, positions), sign


def two_qubit_reduction(
    parity_op: PauliSum, n_electrons_total: int, n_electrons_alpha: int
) -> PauliSum:
    """Remove the alpha-parity and total-parity qubits of a parity-mapped operator.

    Requires blocked spin ordering (the operator must act on an even
    number 2M of qubits) and raises :class:`ReductionError` if any term
    anticommutes with Z on either special qubit, i.e. carries X or Y
    there.  The result acts on 2M - 2 qubits.
    """
    n = parity_op.n_qubits
    _check_reducible(n)
    sector = reduction_sector(n_electrons_total, n_electrons_alpha)
    reduced: dict[PauliString, complex] = {}
    for string, coeff in parity_op:
        x, z, sign = _reduce_masks(string.x_mask, string.z_mask, n, sector)
        new_string = PauliString(n - 2, x, z)
        reduced[new_string] = reduced.get(new_string, 0.0) + sign * coeff
    return PauliSum(n - 2, reduced)


_LADDERS = {"jordan-wigner": _jw_ladder, "parity": _parity_ladder}


def compile_linear_map(
    columns: Sequence[tuple[float, Sequence[FermionTerm]]],
    n_modes: int,
    mapping: str,
    sector: tuple[int, int] | None = None,
) -> tuple[list[PauliString], scipy.sparse.csr_array]:
    """Qubit images of a family of fermionic operators as one matrix.

    Column c = (weight, terms) stands for the operator weight * sum(terms),
    with a weight of 1 or 1/2.  Returns strings S and a sparse complex W
    (strings x columns) with

        image(sum_c x_c column_c) = sum_r (W @ x)_r S_r

    before pruning, from one pass over the unit ladder products that
    :func:`map_jordan_wigner` and :func:`map_parity` compose; the entries
    of W are sums of these exact binary fractions.  Those maps prune each
    term's scaled product after every factor, so terms with coefficients
    below about 1e-11 can lose strings there that W x keeps.  With a ``sector``
    (the :func:`reduction_sector` signs) the images are parity-mapped and
    two-qubit-reduced.  Rows are ordered by first appearance, columns in
    turn, as the map of the summed operator orders its terms; W stores
    no zeros and no empty rows.
    """
    import scipy.sparse  # here: only the qubit map needs scipy

    if mapping not in _LADDERS:
        raise ValueError(f"unknown mapping {mapping!r}")
    if sector is not None:
        if mapping != "parity":
            raise ReductionError("two-qubit reduction requires the parity mapping")
        _check_reducible(n_modes)
    products = _LadderProducts(n_modes, _LADDERS[mapping])
    row_of: dict[tuple[int, int], int] = {}
    rows: list[int] = []
    cols: list[int] = []
    values: list[complex] = []
    for col, (weight, terms) in enumerate(columns):
        image: _Terms = {}
        for term in terms:
            for masks, value in products.unit_product(term).items():
                image[masks] = image.get(masks, 0.0) + value
        for masks, value in image.items():
            row = row_of.setdefault(masks, len(row_of))
            if value != 0.0:
                rows.append(row)
                cols.append(col)
                values.append(weight * value)
    indices = (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp))
    matrix = scipy.sparse.csr_array(
        (np.array(values, dtype=np.complex128), indices), shape=(len(row_of), len(columns))
    )
    keys, matrix = _nonzero_rows(list(row_of), matrix)
    if sector is not None:
        # each string moves to its reduced row with the sector's sign
        reduced_of: dict[tuple[int, int], int] = {}
        signs = np.empty(len(keys))
        targets = np.empty(len(keys), dtype=np.intp)
        for k, (x, z) in enumerate(keys):
            x, z, signs[k] = _reduce_masks(x, z, n_modes, sector)
            targets[k] = reduced_of.setdefault((x, z), len(reduced_of))
        reduction = scipy.sparse.csr_array(
            (signs, (targets, np.arange(len(keys)))), shape=(len(reduced_of), len(keys))
        )
        # a sparse product stores no zeros
        keys, matrix = _nonzero_rows(list(reduced_of), reduction @ matrix)
    n_qubits = n_modes - len(_reduced_qubits(n_modes, sector is not None))
    return [PauliString(n_qubits, x, z) for x, z in keys], matrix


def _nonzero_rows(
    keys: list, matrix: scipy.sparse.csr_array
) -> tuple[list, scipy.sparse.csr_array]:
    # rows whose terms cancel in every column never survive a product
    kept = np.flatnonzero(np.diff(matrix.indptr))
    return [keys[k] for k in kept], matrix[kept]
