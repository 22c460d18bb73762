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
eigenvalues and removed.
"""

from __future__ import annotations

from .fermion import FermionOperator
from .pauli import _PHASES, PRUNE_TOLERANCE, PauliString, PauliSum

__all__ = [
    "ReductionError",
    "map_jordan_wigner",
    "map_parity",
    "two_qubit_reduction",
    "reduction_sector",
    "occupation_to_parity_bits",
    "drop_qubit_positions",
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


def _map_with_ladder(op: FermionOperator, ladder) -> PauliSum:
    """Sum of the ladder products of every term, accumulated in one dict
    and simplified once.

    Each product is composed on (x_mask, z_mask) keys with the phase rule
    of :meth:`PauliString.compose` and pruned after every ladder factor,
    as ``PauliSum.__matmul__`` would; strings are built for the final
    terms only.
    """
    n = op.n_modes
    acc: _Terms = {}
    cache: dict[tuple[int, bool], list[tuple[int, int, int, complex]]] = {}
    for term, coeff in op.items():
        product = _prune({(0, 0): coeff})
        for mode, creation in term:
            key = (mode, creation)
            if key not in cache:
                cache[key] = _ladder_factor(ladder(mode, n, creation))
            composed: _Terms = {}
            for (x1, z1), c1 in product.items():
                y1 = (x1 & z1).bit_count()
                for x2, z2, y2, c2 in cache[key]:
                    x3, z3 = x1 ^ x2, z1 ^ z2
                    exponent = (y1 + y2 - (x3 & z3).bit_count() + 2 * (z1 & x2).bit_count()) % 4
                    composed[x3, z3] = composed.get((x3, z3), 0.0) + c1 * c2 * _PHASES[exponent]
            product = _prune(composed)
        for masks, value in product.items():
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
    """Z eigenvalues (alpha-parity qubit, total-parity qubit) for a sector."""
    s_alpha = 1 if n_electrons_alpha % 2 == 0 else -1
    s_total = 1 if n_electrons_total % 2 == 0 else -1
    return s_alpha, s_total


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
    if n < 2 or n % 2 != 0:
        raise ReductionError(f"two-qubit reduction needs an even qubit count >= 2, got {n}")
    pos_alpha = n // 2 - 1
    pos_total = n - 1
    s_alpha, s_total = reduction_sector(n_electrons_total, n_electrons_alpha)

    positions = [pos_alpha, pos_total]
    reduced: dict[PauliString, complex] = {}
    for string, coeff in parity_op:
        if (string.x_mask >> pos_alpha) & 1 or (string.x_mask >> pos_total) & 1:
            raise ReductionError(
                f"term {string.label} anticommutes with a parity qubit; operator is not parity-symmetric"
            )
        factor = 1
        if (string.z_mask >> pos_alpha) & 1:
            factor *= s_alpha
        if (string.z_mask >> pos_total) & 1:
            factor *= s_total
        new_string = PauliString(
            n - 2,
            drop_qubit_positions(string.x_mask, positions),
            drop_qubit_positions(string.z_mask, positions),
        )
        reduced[new_string] = reduced.get(new_string, 0.0) + factor * coeff
    return PauliSum(n - 2, reduced)
