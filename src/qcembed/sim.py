"""Exact statevector simulation and the trotterized UCCSD ansatz.

Bit-endianness convention (used everywhere in this package): qubit k is
the least significant bit k of the amplitude index, so basis state
|q_{n-1} ... q_1 q_0> sits at index sum_k q_k 2^k.

Pauli strings act through bitmask traversal: for masks (x, z),

    P |b> = i^{|x & z|} (-1)^{|z & b|} |b ^ x>

which costs O(2^n) per term and never materializes a matrix.

One routine, :func:`_grouped_operator`, compiles every Pauli operator.
Strings with one X-mask x share the gather ``b ^ x``, so a sum of them
is one diagonal D followed by that gather, ``D * amps[b ^ x]``, and a
:class:`PauliSum` compiles into a (groups x rows) table of such diagonals
and gathers, one row per X-mask, on all or on given output rows.  The
table is built in one vectorised pass over the terms, each group summed
in term order from +0, and is not stored on the sum: a loop that reuses
one compiles it once and passes it in, as ``_block_energies`` does for
the VQE's Hamiltonian on the ansatz's support S; each public call
compiles its own.

Both the compile and ``_apply_operator`` add chunks of at most
``_CHUNK_AMPLITUDES``: terms or groups on rows 1.. of a buffer whose row
0 holds the running sum, by one ``np.add.reduce`` over the rows.  numpy
adds them in order, as ``+=`` would, when a row has 2 or more elements:
0 + t_0 + t_1 + ... in term or group order.  On 1 element it adds
pairwise, so such rows are held 2 wide beside a zero column.

* :func:`apply_pauli` and :func:`apply_pauli_exponential` apply the
  one-row table of a single string through ``_apply_operator``, the one
  kernel that applies a table: it accumulates from zero in group order,
  on one state or on a block.
* A :class:`UccsdAnsatz` compiles each generator G when it is
  constructed.  The terms of a UCCSD generator share one X-mask and G^2
  is diagonal with entries 0 or -1, so exp(theta G) = 1 + sin(theta) G
  + (1 - cos(theta)) G^2 is the identity off G's support and
  cos(theta) + sin(theta) G on it: one rotation of the connected
  amplitudes per generator, read off G's one-row table.  That table is
  compiled only on the rows the rotation can touch: the amplitudes that
  the rotations before it reach from the reference (S so far) and their
  images under G's X-mask.  Any other entry would map an exact 0 onto an
  exact 0.
  Every factor f is exactly +1 or -1, so a (f s) is bitwise (a f) s: a
  sweep scales its [sin; cos] table by [factors; 1] once, and a rotation
  is a gather of [source; connected], a product with its slice of that
  table, an add of the halves and a scatter to ``connected``.
* :func:`expectation` applies the operator's table with the same
  kernel and takes one complex dot with the result.

Both run on a block of states at once, through its (2^n, R) column view,
so a gather moves R contiguous values per index: ``_evolve_rows`` takes an
(R x n_parameters) array of parameter vectors and returns their (R x 2^n)
amplitudes, all 2^n of them, 0 off S, and ``_expectation_rows`` evaluates
every row of such a block, so each rotation or chunk costs its numpy calls
once per block, not once per state.  :func:`evolve_ansatz` and
:func:`expectation` are the block R = 1, and every row is bitwise equal to
its one-row call.  ``_block_energies`` is all that :func:`qcembed.vqe.minimize`
asks of the register: the energies of a block of parameter rows.

The UCCSD state is real: real integrals map to a table whose imaginary
parts are all exactly 0, and each generator's factors are real.  So a
table is kept as float64 when that holds, which is checked once as it
is built, a rotation's factors are float64, and ``_evolve_rows`` runs
on float64 amplitudes.  ``_expectation_rows`` works in the common type
of table and block, scatters op |a> into full-length complex128 rows and
takes every row's complex dot in one batched ``matmul``, bitwise the
``vdot`` the traces were pinned on.  The dot stays full-length and
contiguous: BLAS adds a shorter or strided one in other lanes.  The public
:class:`Statevector` and the functions that return one stay complex.

Every fermion operator reaches the qubits through one route,
:func:`~qcembed.mappings.compile_linear_map`, with the two-qubit
reduction applied in the same pass.  The qubit Hamiltonian is linear in
the integrals, so :func:`map_active_hamiltonian` compiles each
active-space shape (orbital count, mapping and reduction sector) once
into a sparse (candidate strings x integrals) matrix W and maps a
Hamiltonian as W times its integral vector; every embedding iteration
and mu-scan point of a shape shares one W, while a single embed pays one
compile, which costs more than one term-by-term map.  The ansatz maps
one column per excitation, the ladder product T, and reads generator
T - T^dagger off it as 2i Im(image(T)).  Mapping the fermion operator
term by term, the test oracle for both, gives the same generators
bitwise and the same Hamiltonian terms within 1e-12, in the same order
when no integral is exactly zero.  The oracle prunes each term's ladder
product below 1e-12 after every factor, so integrals below about 1e-11
can lose terms there that W keeps; W prunes only the final sums.  A
sector's (N_alpha, N_beta) comes from ``activespace._split_sector``, as
in :mod:`qcembed.fci`, and the reduced qubits and their values from
:mod:`qcembed.mappings`.

:func:`spin_summed_one_rdm` reads the density in the FCI string space,
one (N_alpha, N_beta) sector at a time, through the one 1-RDM routine
of :mod:`qcembed.fci`, which alone holds the E_pq sign rule: each
sector's amplitudes are gathered at the cached string space of its
shape, and the density is read from their string overlaps.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, field
from itertools import accumulate, combinations
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .activespace import ActiveHamiltonian, _check_sector, _split_sector
from .fci import _string_space

from .fermion import excitation_term, hamiltonian_columns, integral_vector
from .mappings import _reduced_qubits, compile_linear_map, drop_qubit_positions, occupation_to_parity_bits
from .mappings import reduction_sector
from .pauli import PRUNE_TOLERANCE, PauliSum, PauliString

# not called here: bench/layers.py traces the fermion expansion and the
# term-by-term maps under this module's names
from .fermion import spin_orbital_hamiltonian  # noqa: F401
from .mappings import map_parity, two_qubit_reduction  # noqa: F401

if TYPE_CHECKING:
    import scipy.sparse

__all__ = [
    "SimulationError",
    "Statevector",
    "hf_state",
    "apply_pauli",
    "apply_pauli_exponential",
    "expectation",
    "uccsd_excitations",
    "UccsdAnsatz",
    "build_uccsd_ansatz",
    "map_active_hamiltonian",
    "evolve_ansatz",
    "lift_reduced_parity_state",
    "spin_summed_one_rdm",
]

_IMAG_TOLERANCE = 1e-10

# distinct shapes kept by build_uccsd_ansatz and map_active_hamiltonian;
# a run or a mu-scan uses one
_ANSATZ_CACHE_SIZE = 8


class SimulationError(ValueError):
    """Contract violation in a simulator primitive."""


@dataclass(frozen=True)
class Statevector:
    """Dense complex amplitudes over 2^n_qubits basis states."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2**self.n_qubits,):
            raise SimulationError(
                f"amplitude vector of length {amps.shape} does not match {self.n_qubits} qubits"
            )
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def _occupation_mask(bits: str | int, n_qubits: int) -> int:
    if isinstance(bits, str):
        if len(bits) != n_qubits:
            raise SimulationError(f"bitstring {bits!r} does not have {n_qubits} bits")
        mask = 0
        for k, ch in enumerate(bits):  # character k = qubit k
            if ch == "1":
                mask |= 1 << k
            elif ch != "0":
                raise SimulationError(f"invalid bit {ch!r} in {bits!r}")
        return mask
    mask = int(bits)
    if mask < 0 or mask >= (1 << n_qubits):
        raise SimulationError(f"basis index {mask} out of range for {n_qubits} qubits")
    return mask


def hf_state(n_qubits: int, occupation_bits: str | int) -> Statevector:
    """Computational-basis state with amplitude 1 on the given bitstring.

    A string argument is read with character k as qubit k; an integer is
    taken as the basis index directly.
    """
    index = _occupation_mask(occupation_bits, n_qubits)
    amps = np.zeros(2**n_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return Statevector(n_qubits, amps)


# (diagonals, gathers), both (groups, rows): (op @ amps)[rows] is the column
# sum of diagonals * amps[gathers], one row per X-mask x with gather rows ^ x
_GroupedOperator = tuple[np.ndarray, np.ndarray]

# amplitudes per chunk of the table compile and _apply_operator and per block of
# VQE rows: the fastest block at 8 and 10 qubits (smaller blocks pay more numpy
# calls, larger ones fall out of cache).  One sweep of H8 (4e,5o) and (4e,6o) on
# a 2-vCPU VM, median of 10 alternating runs: 2^14 5.7 and 88.9 ms, 2^15 4.8 and
# 66.0 ms (10 of 10 runs faster at both), 2^16 4.7 and 70.9 ms.
_CHUNK_AMPLITUDES = 2**15
_PHASE_SIGNS = np.array([1j**k for k in range(4)])[:, None] * np.array([1.0, -1.0])  # i^k (-1)^p at [k, p]


def _grouped_operator(op: PauliSum, rows: np.ndarray | None = None) -> _GroupedOperator:
    """The X-mask table of ``op`` on output ``rows`` (default: all), built
    anew on every call: one row per X-mask in order of first appearance,
    each the sum of its group's terms in the order of ``op`` from +0.

    Each term's values coeff * (i^{|x & z|} (-1)^p) are read at every row's
    sign parity p, a chunk of terms at a time, and each group is one reduce.
    The diagonals are float64, the real parts of the sums, when every
    imaginary part is exactly 0, as for a mapped Hamiltonian or a UCCSD
    generator; any other operator keeps its complex table.
    """
    rows = np.arange(2**op.n_qubits, dtype=np.intp) if rows is None else rows
    groups: dict[int, list[tuple[PauliString, complex]]] = {}
    for term in op:
        groups.setdefault(term[0].x_mask, []).append(term)
    terms = [term for group in groups.values() for term in group]
    stops = list(accumulate(map(len, groups.values())))
    x_masks = np.array([string.x_mask for string, _ in terms], dtype=np.intp)
    z_masks = np.array([string.z_mask for string, _ in terms], dtype=np.intp)
    coeffs = np.array([coeff for _, coeff in terms], dtype=np.complex128)
    values = coeffs[:, None] * _PHASE_SIGNS[np.bitwise_count(x_masks & z_masks) % 4]
    sums = np.zeros((len(groups), max(len(rows), 2)), dtype=np.complex128)
    step = max(1, _CHUNK_AMPLITUDES // max(len(rows), 1))
    buffer = np.zeros((min(step, len(terms)) + 1, sums.shape[1]), dtype=np.complex128)
    for a in range(0, len(terms), step):
        chunk, k = slice(a, a + step), min(step, len(terms) - a)
        # (-1)^{|z & (r ^ x)|}: each term's sign at the gathered r ^ x
        negative = (np.bitwise_count((rows ^ x_masks[chunk, None]) & z_masks[chunk, None]) & 1).view(bool)
        np.copyto(buffer[1 : k + 1, : len(rows)], values[chunk, :1])
        np.copyto(buffer[1 : k + 1, : len(rows)], values[chunk, 1:], where=negative)
        first = bisect.bisect_right(stops, a)
        buffer[0], low = sums[first], 0  # the running sum of the group the chunk begins in
        for group in range(first, bisect.bisect_left(stops, a + k) + 1):
            high = min(stops[group] - a, k)
            np.add.reduce(buffer[low : high + 1], axis=0, initial=0.0, out=sums[group])
            low = high + 1
    diagonals = np.ascontiguousarray((sums if sums.imag.any() else sums.real)[:, : len(rows)])
    gathers = rows[None, :] ^ np.fromiter(groups, dtype=np.intp, count=len(groups))[:, None]
    return diagonals, gathers


def _apply_operator(columns: np.ndarray, table: _GroupedOperator) -> np.ndarray:
    """The table's rows of the operator applied to one state or to a
    (2^n, R) column block, accumulated from zero in group order, a chunk
    of groups per reduce, in the common type of table and amplitudes."""
    diagonals, gathers = table
    shape = diagonals.shape[1:] + columns.shape[1:]
    size = int(np.prod(shape))
    step = max(1, _CHUNK_AMPLITUDES // max(size, 1))
    buffer = np.zeros((min(step, len(diagonals)) + 1, max(size, 2)), dtype=np.result_type(diagonals, columns))
    stacked = buffer[:, :size].reshape((len(buffer),) + shape)
    per_state = (slice(None), slice(None)) + (None,) * (columns.ndim - 1)
    columns = columns.astype(buffer.dtype, copy=False)  # the cast a mixed product makes
    for a in range(0, len(diagonals), step):
        chunk, k = slice(a, a + step), min(step, len(diagonals) - a)
        taken = stacked[1 : k + 1]
        np.take(columns, gathers[chunk], axis=0, out=taken, mode="clip")  # in range: no checked copy
        # numpy multiplies a lone element in place outside its SIMD loop, rounding a complex product otherwise
        np.multiply(diagonals[chunk][per_state], taken if taken.size > 1 else taken.copy(), out=taken)
        np.add.reduce(buffer[: k + 1], axis=0, out=buffer[0])
    return stacked[0]


def apply_pauli(state: Statevector, pauli: PauliString) -> Statevector:
    if pauli.n_qubits != state.n_qubits:
        raise SimulationError("qubit count mismatch")
    table = _grouped_operator(PauliSum(pauli.n_qubits, {pauli: 1.0}))
    return Statevector(state.n_qubits, _apply_operator(state.amplitudes, table))


def apply_pauli_exponential(state: Statevector, pauli: PauliString, angle: float) -> Statevector:
    """exp(i * angle * P) |state>, exact and norm-preserving."""
    if pauli.n_qubits != state.n_qubits:
        raise SimulationError("qubit count mismatch")
    amps = state.amplitudes
    if angle != 0.0:
        applied = _apply_operator(amps, _grouped_operator(PauliSum(pauli.n_qubits, {pauli: 1.0})))
        amps = np.cos(angle) * amps + 1j * np.sin(angle) * applied
    return Statevector(state.n_qubits, amps)


def _row_dots(rows: np.ndarray, others: np.ndarray) -> np.ndarray:
    """``np.vdot`` of each row of an (R, N) complex128 block with that of
    another, bitwise: ``matmul`` hands each to BLAS's complex dot."""
    return np.matmul(rows.conj()[:, None, :], others[:, :, None])[:, 0, 0]


def _expectation_rows(amps: np.ndarray, table: _GroupedOperator, rows: np.ndarray | slice = slice(None)) -> np.ndarray:
    """<a_r| op |a_r> for every row a_r of an (R, 2^n) block, by op's
    table on output ``rows`` (default: all).

    op |a_r> from :func:`_apply_operator`, float64 for real states under a
    real table, is scattered into full-length complex128 rows, 0 elsewhere,
    for one complex dot per row with a complex128 copy of a_r: the energy
    every earlier trace holds, where a real dot would add in another order.
    Every row's imaginary residue must stay below 1e-10 and is discarded.
    """
    applied = np.zeros(amps.shape, dtype=np.complex128)
    applied[:, rows] = _apply_operator(amps.T, table).T
    values = _row_dots(np.ascontiguousarray(amps, dtype=np.complex128), applied)
    residue = np.abs(values.imag)
    if np.any(residue > _IMAG_TOLERANCE):
        raise SimulationError(
            f"expectation has imaginary residue {residue.max():.3e}; operator is not Hermitian"
        )
    return values.real


def expectation(state: Statevector, op: PauliSum) -> float:
    """<state| op |state> for a Hermitian op; the imaginary residue must
    stay below 1e-10 and is discarded."""
    if op.n_qubits != state.n_qubits:
        raise SimulationError("qubit count mismatch")
    return float(_expectation_rows(state.amplitudes[None, :], _grouped_operator(op))[0])


# -- UCCSD ansatz ------------------------------------------------------------


def uccsd_excitations(
    n_spatial: int, n_alpha: int, n_beta: int
) -> list[tuple[int, ...]]:
    """Enumerate spin- and particle-conserving singles and doubles.

    Spin orbitals are blocked (alpha 0..M-1, beta M..2M-1) with the
    lowest orbitals of each block occupied.  Ordering is deterministic:
    singles sorted by (occupied, virtual), then doubles sorted by
    (occ pair, virt pair); each tuple is (i, a) or (i, j, a, b).
    """
    _check_sector(n_spatial, n_alpha, n_beta, SimulationError)
    m = n_spatial
    occ_a = list(range(n_alpha))
    virt_a = list(range(n_alpha, m))
    occ_b = list(range(m, m + n_beta))
    virt_b = list(range(m + n_beta, 2 * m))

    singles = [(i, a) for i in occ_a for a in virt_a]
    singles += [(i, a) for i in occ_b for a in virt_b]
    singles.sort()

    doubles = []
    for i, j in combinations(occ_a, 2):
        for a, b in combinations(virt_a, 2):
            doubles.append((i, j, a, b))
    for i, j in combinations(occ_b, 2):
        for a, b in combinations(virt_b, 2):
            doubles.append((i, j, a, b))
    for i in occ_a:
        for j in occ_b:
            for a in virt_a:
                for b in virt_b:
                    doubles.append((i, j, a, b))
    doubles.sort()
    return singles + doubles


# (connected, source, factors): exp(theta G) leaves every amplitude off
# ``connected`` alone and sets amps[connected] to
# cos(theta) amps[connected] + sin(theta) factors * amps[source]; an ansatz
# holds the entries it keeps as the gather [source; connected], the scatter
# ``connected`` and their slice of a sweep's trig table [factors sin; cos]
_Rotation = tuple[np.ndarray, np.ndarray, np.ndarray]


def _compile_generator(generator: PauliSum, reached: np.ndarray) -> _Rotation:
    """The rotation of ``generator`` on the rows it can touch from the
    ``reached`` amplitudes (a bool mask over the register): those rows and
    their images under the generator's X-mask, a set closed under that
    flip, so every connected entry moves or receives a reached amplitude.
    The checks on G and G^2 run on these rows."""
    if any(abs(coeff.real) > _IMAG_TOLERANCE for _, coeff in generator):
        raise SimulationError("excitation generator is not anti-Hermitian")
    x_masks = {string.x_mask for string, _ in generator}
    if len(x_masks) != 1:
        raise SimulationError("excitation generator terms do not share one X-mask")
    rows = np.flatnonzero(reached | reached[np.arange(len(reached)) ^ x_masks.pop()])
    # (G amps)[b] = factors[b] * amps[source[b]] with source[b] = b ^ x
    (factors,), (source,) = _grouped_operator(generator, rows)
    residue = np.abs(factors.imag).max(initial=0.0)
    if residue > _IMAG_TOLERANCE:
        raise SimulationError(f"excitation generator has a factor with imaginary part {residue:.3e}")
    factors = factors.real  # the rotation runs on real amplitudes
    square = factors * factors[np.searchsorted(rows, source)]  # the diagonal of G^2
    projector = np.abs(square + 1.0) <= _IMAG_TOLERANCE
    if not np.all(projector | (np.abs(square) <= _IMAG_TOLERANCE)):
        raise SimulationError("excitation generator squared is not diagonal with entries 0 or -1")
    # a sweep folds f into its trig table: (a f) s is a (f s) bit for bit only for f = +-1
    if np.any(np.abs(factors[projector]) != 1.0):
        raise SimulationError("excitation generator has a factor other than exactly +1 or -1")
    return rows[projector], source[projector], factors[projector]


@dataclass(frozen=True)
class UccsdAnsatz:
    """Single-Trotter-step UCCSD ansatz, generators pre-mapped to Pauli sums.

    ``generators[k]`` is the qubit image of T_k - T_k^dagger (coefficients
    purely imaginary); evolution applies exp(theta_k G_k) once each, in
    enumeration order, starting from the mapped Hartree-Fock reference.
    Construction checks that every generator is anti-Hermitian, that its
    terms share one X-mask and that G_k^2 is diagonal with entries 0 or
    -1 on the rows its rotation can touch, and compiles it there into one
    closed-form rotation on the support,
    ``_support``; ``_trig_rows`` picks each kept entry's sin or cos from
    the rows [sin; cos] of a sweep, and ``_trig_scales`` its [factors; 1].
    """

    n_spatial: int
    n_alpha: int
    n_beta: int
    n_qubits: int
    reference_index: int
    excitations: tuple[tuple[int, ...], ...]
    generators: tuple[PauliSum, ...]
    mapping: str
    two_qubit_reduced: bool
    _rotations: tuple[tuple[np.ndarray, np.ndarray, slice], ...] = field(init=False, repr=False, compare=False)
    _support: np.ndarray = field(init=False, repr=False, compare=False)
    _trig_rows: np.ndarray = field(init=False, repr=False, compare=False)
    _trig_scales: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        reached = np.zeros(2**self.n_qubits, dtype=bool)
        reached[self.reference_index] = True
        rotations, trig_rows, scales = [], [], [np.empty(0)]
        for k, generator in enumerate(self.generators):
            connected, source, factors = _compile_generator(generator, reached)
            reached[connected] |= reached[source]
            start = len(trig_rows)
            trig_rows += [k] * len(factors) + [self.n_parameters + k] * len(factors)
            rotations.append((np.concatenate([source, connected]), connected, slice(start, len(trig_rows))))
            scales += [factors, np.ones(len(factors))]
        compiled = (tuple(rotations), np.flatnonzero(reached), np.array(trig_rows, np.intp), np.concatenate(scales))
        for array in (*compiled[1:], *(array for rotation in rotations for array in rotation[:2])):
            array.flags.writeable = False  # shared by every caller of a cached ansatz
        for name, value in zip(("_rotations", "_support", "_trig_rows", "_trig_scales"), compiled):
            object.__setattr__(self, name, value)

    @property
    def n_parameters(self) -> int:
        return len(self.excitations)


def build_uccsd_ansatz(
    n_spatial: int,
    n_electrons: int,
    spin_2ms: int = 0,
    mapping: str = "parity",
    two_qubit_reduced: bool = True,
) -> UccsdAnsatz:
    """Construct the UCCSD ansatz for an active space.

    With zero virtual orbitals the ansatz is valid and has 0 parameters.
    An ansatz depends on nothing but these arguments and is never
    modified, so the last few shapes are kept: a repeated call returns
    the ansatz built first, with its compiled rotations.
    """
    return _build_uccsd_ansatz(n_spatial, n_electrons, spin_2ms, mapping, two_qubit_reduced)


@functools.lru_cache(maxsize=_ANSATZ_CACHE_SIZE)
def _build_uccsd_ansatz(
    n_spatial: int, n_electrons: int, spin_2ms: int, mapping: str, two_qubit_reduced: bool
) -> UccsdAnsatz:
    n_alpha, n_beta = _split_sector(n_spatial, n_electrons, spin_2ms, SimulationError)
    n_modes = 2 * n_spatial
    sector = reduction_sector(n_electrons, n_alpha) if two_qubit_reduced else None
    dropped = _reduced_qubits(n_modes, two_qubit_reduced)
    n_qubits = n_modes - len(dropped)
    excitations = uccsd_excitations(n_spatial, n_alpha, n_beta)
    strings, matrix = compile_linear_map(
        [(1.0, (excitation_term(exc),)) for exc in excitations], n_modes, mapping, sector
    )
    # every Pauli string is Hermitian, so image(T^dagger) = conj(image(T)) and G maps to
    # 2i Im(image(T)); complex(0.0, .) keeps the +0 real part (2j * x has -0 for x < 0)
    columns = matrix.tocsc()
    bounds, rows, values = columns.indptr.tolist(), columns.indices.tolist(), columns.data.imag.tolist()
    generators = tuple(
        PauliSum(n_qubits, {strings[r]: complex(0.0, 2.0 * v) for r, v in zip(rows[a:b], values[a:b])})
        for a, b in zip(bounds, bounds[1:])
    )

    # the lowest n_alpha alpha and n_beta beta modes occupied
    reference = ((1 << n_alpha) - 1) | (((1 << n_beta) - 1) << n_spatial)
    if mapping == "parity":
        reference = occupation_to_parity_bits(reference, n_modes)
    reference = drop_qubit_positions(reference, dropped)

    return UccsdAnsatz(
        n_spatial=n_spatial,
        n_alpha=n_alpha,
        n_beta=n_beta,
        n_qubits=n_qubits,
        reference_index=reference,
        excitations=tuple(excitations),
        generators=generators,
        mapping=mapping,
        two_qubit_reduced=two_qubit_reduced,
    )


class _HamiltonianMap(NamedTuple):
    n_qubits: int
    strings: tuple[PauliString, ...]
    matrix: scipy.sparse.csr_array  # strings x integrals, read-only


@functools.lru_cache(maxsize=_ANSATZ_CACHE_SIZE)
def _compile_hamiltonian(
    n_orbitals: int, mapping: str, sector: tuple[int, int] | None
) -> _HamiltonianMap:
    n_modes = 2 * n_orbitals
    strings, matrix = compile_linear_map(hamiltonian_columns(n_orbitals), n_modes, mapping, sector)
    for array in (matrix.data, matrix.indices, matrix.indptr):
        array.flags.writeable = False  # shared by every Hamiltonian of the shape
    return _HamiltonianMap(n_modes - len(_reduced_qubits(n_modes, sector is not None)), tuple(strings), matrix)


def map_active_hamiltonian(
    active: ActiveHamiltonian,
    spin_2ms: int = 0,
    mapping: str = "parity",
    two_qubit_reduced: bool = True,
) -> PauliSum:
    """Qubit image of the active electronic Hamiltonian (no inactive offset).

    The image is linear in the integrals, so each shape (orbital count,
    mapping and, with the two-qubit reduction, the parity sector of the
    electron count and spin) is compiled once into a sparse matrix W over
    its candidate Pauli strings, and the last few shapes are kept.  A
    Hamiltonian is then W times its :func:`integral_vector`; its imaginary
    residue must stay below 1e-10 and is discarded, and the real parts
    are pruned as every ``PauliSum`` is, in one numpy mask.
    """
    n_alpha, _ = _split_sector(active.n_orbitals, active.n_electrons, spin_2ms, SimulationError)
    sector = reduction_sector(active.n_electrons, n_alpha) if two_qubit_reduced else None
    compiled = _compile_hamiltonian(active.n_orbitals, mapping, sector)
    values = compiled.matrix @ integral_vector(active)
    # a value PauliSum would prune cannot carry a residue above 1e-10
    residue = np.abs(values.imag).max(initial=0.0)
    if residue > _IMAG_TOLERANCE:
        raise ValueError(
            f"imaginary coefficient residue {residue:.3e} exceeds {_IMAG_TOLERANCE:.1e}"
        )
    # the constructor's prune in one mask (keeping non-finite values): it checks the rest
    kept = np.flatnonzero(~(np.abs(values.real) < PRUNE_TOLERANCE)).tolist()
    return PauliSum(compiled.n_qubits, dict(zip([compiled.strings[k] for k in kept], values.real[kept].tolist())))


def _evolve_rows(ansatz: UccsdAnsatz, thetas: np.ndarray) -> np.ndarray:
    """(R, 2^n) float64 amplitudes of the circuit at each row of an
    (R, n_parameters) parameter array.

    Generator k rotates the amplitudes it connects on the support in
    every row, with that row's cos and sin and the generator's factors f,
    gathered once per block into one table [f sin; cos].  Each value is
    the real part of the same arithmetic in complex128, whose imaginary
    part is exactly 0; at most the sign of a zero differs, where numpy's
    complex product adds a -0 cross term.
    """
    trig = np.concatenate([np.sin(thetas), np.cos(thetas)], axis=1).T[ansatz._trig_rows]
    trig *= ansatz._trig_scales[:, None]
    amps = np.zeros((2**ansatz.n_qubits, len(thetas)))
    amps[ansatz.reference_index] = 1.0
    for moved, connected, entries in ansatz._rotations:
        # [a_source (f s); a_connected c], then a_connected c + a_source (f s), in place
        rotated = amps.take(moved, axis=0)
        rotated *= trig[entries]
        kept = rotated[len(connected) :]
        kept += rotated[: len(connected)]
        amps[connected] = kept
    return amps.T


def evolve_ansatz(ansatz: UccsdAnsatz, parameters: np.ndarray) -> Statevector:
    """Apply the single-Trotter-step UCCSD circuit to the reference state.

    Each generator factor exp(theta_k G_k) is applied in closed form as
    one rotation of the amplitudes G_k connects.
    """
    parameters = np.asarray(parameters, dtype=float)
    if parameters.shape != (ansatz.n_parameters,):
        raise SimulationError(
            f"expected {ansatz.n_parameters} parameters, got shape {parameters.shape}"
        )
    return Statevector(ansatz.n_qubits, _evolve_rows(ansatz, parameters[None, :])[0])


def _block_energies(ansatz: UccsdAnsatz, hamiltonian: PauliSum) -> Callable[[np.ndarray], np.ndarray]:
    """The energy of every row theta of an (R, n_parameters) block, as a
    function: H's table is compiled here, once, on the ansatz's support, and
    each call simulates its rows ``_CHUNK_AMPLITUDES`` amplitudes at a time."""
    if hamiltonian.n_qubits != ansatz.n_qubits:
        raise SimulationError(f"hamiltonian acts on {hamiltonian.n_qubits} qubits, ansatz on {ansatz.n_qubits}")
    support = ansatz._support
    table = _grouped_operator(hamiltonian, support)
    block = max(1, _CHUNK_AMPLITUDES // 2**ansatz.n_qubits)

    def energies(thetas: np.ndarray) -> np.ndarray:
        blocks = (thetas[start : start + block] for start in range(0, len(thetas), block))
        return np.concatenate([_expectation_rows(_evolve_rows(ansatz, rows), table, support) for rows in blocks])

    return energies


# -- density feedback --------------------------------------------------------


def lift_reduced_parity_state(
    state: Statevector, n_spatial: int, n_alpha: int, n_beta: int
) -> Statevector:
    """Reconstruct the occupation-basis state behind a two-qubit-reduced
    parity-basis state.

    The removed qubits, which :mod:`qcembed.mappings` defines, carry fixed
    parities in a particle-number sector: bit M-1 is n_alpha mod 2 and bit
    2M-1 is (n_alpha + n_beta) mod 2.  After reinserting them, the parity
    basis maps back to the occupation basis through n_k = p_k xor p_{k-1}.
    """
    _check_sector(n_spatial, n_alpha, n_beta, SimulationError)
    n_modes = 2 * n_spatial
    positions = _reduced_qubits(n_modes)
    n_qubits = n_modes - len(positions)
    if state.n_qubits != n_qubits:
        raise SimulationError(f"expected a reduced register of {n_qubits} qubits, got {state.n_qubits}")
    parity = np.arange(2**state.n_qubits, dtype=np.int64)
    # reinsert each qubit's bit (1 where Z = -1) in ascending position, so each lands in place
    for position, eigenvalue in zip(positions, reduction_sector(n_alpha + n_beta, n_alpha)):
        low = parity & ((1 << position) - 1)
        parity = low | ((eigenvalue < 0) << position) | (parity >> position << (position + 1))
    # invert the cumulative parity: n_k = p_k xor p_{k-1}
    occupation = (parity ^ (parity << 1)) & ((1 << n_modes) - 1)
    nonzero = state.amplitudes != 0.0  # zeros, signed or not, stay +0
    amps = np.zeros(2**n_modes, dtype=np.complex128)
    amps[occupation[nonzero]] = state.amplitudes[nonzero]
    return Statevector(n_modes, amps)


def spin_summed_one_rdm(state: Statevector, n_spatial: int) -> np.ndarray:
    """gamma_pq = <a+_p,sigma a_q,sigma> summed over spin, from an
    occupation-basis statevector on 2 * n_spatial blocked modes.

    Index b holds alpha string b & (2^M - 1) and beta string b >> M.
    E_pq is real, so <c|E|c> = <a|E|a> + <b|E|b> for c = a + ib; the
    pass over b is skipped when b is exactly 0, as for every VQE state.
    """
    if state.n_qubits != 2 * n_spatial:
        raise SimulationError("state does not match 2 * n_spatial modes")
    amps = state.amplitudes
    nonzero = np.flatnonzero(amps)
    alpha_counts = np.bitwise_count(nonzero & ((1 << n_spatial) - 1))
    beta_counts = np.bitwise_count(nonzero >> n_spatial)
    gamma = np.zeros((n_spatial, n_spatial))
    for sector in np.unique(alpha_counts * (n_spatial + 1) + beta_counts).tolist():
        space = _string_space(n_spatial, *divmod(sector, n_spatial + 1))
        alpha, beta = space.alpha.strings, space.beta.strings
        vector = amps[alpha[:, None] | (beta[None, :] << n_spatial)].ravel()
        gamma += space.one_rdm(vector.real)
        if vector.imag.any():
            gamma += space.one_rdm(vector.imag)
    return gamma
