"""Exact diagonalization over the active determinant basis.

Determinants are pairs of alpha/beta occupation strings over the active
spatial orbitals (blocked spin-orbital convention shared with the qubit
mappings).  The basis is alpha-string major, beta-string minor, with
strings ordered by their integer bit value, so the Hartree-Fock
determinant is basis vector 0.  A sector's (n_alpha, n_beta) comes from
``activespace._split_sector``, the definition the qubit side shares.

The Hamiltonian is applied by string-based direct CI (Knowles & Handy,
Chem. Phys. Lett. 111, 315 (1984)):

    H = sum_pq k_pq E_pq + 1/2 sum_pqrs (pq|rs) E_pq E_rs,
    k_pq = h_pq - 1/2 sum_r (pr|rq),   E_pq = E^a_pq + E^b_pq = a+_pa a_qa + a+_pb a_qb.

Each spin gets one excitation table, holding every entry
E_pq|J> = sign |I> (q occupied in string J, p empty or p == q), with
sign = (-1)^(occupied orbitals strictly between p and q).  All alpha
modes sit below all beta modes, so a beta excitation passes no alpha
electron and the determinant sign factorises into the per-spin signs.
Every string has the same number L = k(n - k + 1) of entries for k
electrons, so a table is a set of (m strings, L) arrays.  The tables
depend only on the shape (n, n_alpha, n_beta): a small cache keeps one
read-only string space per shape (``_string_space``) that every solve,
1-RDM and VQE density of the shape shares; the matvec's index tables
are compiled onto it on the shape's first solve.  Index tables are
kept as intp arrays behind read-only views, and the gathers hand
``np.take`` the views' writeable owners: it copies, on every call, an
index array that is not a writeable intp array.

* Spin flip: with n_alpha == n_beta the alpha and beta strings are one
  set and share one table, and H, its determinant diagonal and the
  Hartree-Fock determinant are unchanged by transposing C[I, i].  Such a
  sector is solved on its spin-flip-even states C = C^T (Olsen et al.,
  J. Chem. Phys. 89, 2185 (1988)), in the orthonormal basis
  x = C[I, I], sqrt(2) C[I, i] for I < i: m(m + 1)/2 unknowns in place
  of m^2.  The solve returns the lowest even state, which for a closed
  shell is the singlet; a lower state with an antisymmetric C (odd total
  spin) is out of the contract.  Every other sector (S_z != 0) is
  solved on the whole m_a x m_b box of C.
* Davidson, the one eigensolver, on every sector: Davidson-Liu
  (Davidson, J. Comput. Phys. 17, 87 (1975)) from the Hartree-Fock
  determinant on a matvec
  D = E c (stacked over pq), G = 1/2 (pq|rs) D,
  sigma = sum_pq E_pq G_pq + sum_pq k_pq D_pq.  The 8-fold symmetry of
  (pq|rs) folds pq and qp onto the pair p >= q, so the matvec runs over
  the n(n+1)/2 operators E_pq + E_qp.  One operator serves every
  sector, on one of two row sets: the packed triangle I <= i of the
  even states, where D and G are symmetric in (I, i), or the whole box.
  D and G are (rows, n_pairs) arrays: D is two gathers of the signed
  vector, one per spin, G one pair-space product run in batches of at most
  ``_openblas.SINGLE_THREAD_GEMM_SIZE``, small enough for OpenBLAS to
  keep on the calling thread and on its small-matrix kernel, and sigma a
  gathered signed sum of G for alpha and, for beta, its mirror on the
  triangle or a second gathered signed sum on the box.  The index
  tables are compiled once per shape, on its first solve; every buffer
  is allocated once per solve.  Each step
  corrects the Ritz pair (theta, x) by (H_diag - theta)^-1 r,
  r = Hx - theta x, with the exact determinant diagonal H_diag from
  the strings' occupations; it stops at
  ||r|| < ``DAVIDSON_TOLERANCE`` and raises :class:`FciConvergenceError`
  after ``DAVIDSON_MAX_ITERATIONS`` steps.  A one-determinant sector
  converges on the first Ritz step, after one matvec.
* The spin-summed 1-RDM gamma_pq = <c| E_pq |c> is read from the string
  overlaps at the excitation tables, with no D: gamma^a_pq sums
  s (C C^T)[I, J] over the alpha entries E_pq|J> = s|I>, gamma^b the
  same with C^T C, and both are summed onto the pairs p >= q, so gamma
  is exactly symmetric.  It is the package's one 1-RDM routine:
  ``fci_solve``, :func:`compute_1rdm` and the VQE density
  (``sim.spin_summed_one_rdm``) all read it, each from the cached
  string space of its shape.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, NamedTuple

import numpy as np

from ._openblas import SINGLE_THREAD_GEMM_SIZE
from .activespace import ActiveHamiltonian, _split_sector
from .integrals import _pair_indices

__all__ = [
    "FciError",
    "FciCapacityError",
    "FciConvergenceError",
    "FciResult",
    "fci_solve",
    "compute_1rdm",
]

DEFAULT_DIMENSION_CAP = 40_000
# Davidson stops once ||H x - theta x|| < DAVIDSON_TOLERANCE and raises
# FciConvergenceError after DAVIDSON_MAX_ITERATIONS Ritz steps; it keeps
# at most DAVIDSON_MAX_SUBSPACE basis vectors and their images.
DAVIDSON_TOLERANCE = 1e-9
DAVIDSON_MAX_ITERATIONS = 200
DAVIDSON_MAX_SUBSPACE = 16
# clamp on |diag - theta|, and the fraction of its norm a correction must
# keep after orthogonalization to count as a new direction
_SMALL = 1e-8
# distinct (n, n_alpha, n_beta) shapes whose string spaces are kept
_SPACE_CACHE_SIZE = 8


class FciError(ValueError):
    """Inconsistent electron/spin specification."""


class FciCapacityError(RuntimeError):
    """Requested determinant basis exceeds the configured cap."""


class FciConvergenceError(RuntimeError):
    """The Davidson iteration did not reach ``DAVIDSON_TOLERANCE``."""


def _bit_strings(n_orbitals: int, n_occupied: int) -> list[int]:
    """All n_orbitals-bit masks with n_occupied bits set, in lexicographic
    (ascending integer) order."""
    strings = [sum(1 << k for k in occ) for occ in combinations(range(n_orbitals), n_occupied)]
    strings.sort()
    return strings


@dataclass(frozen=True)
class FciResult:
    """Ground eigenpair plus the spin-summed one-particle density matrix.

    ``ground_energy`` excludes the inactive energy offset; callers add
    it when reporting totals.  ``matvecs`` counts the Davidson matvecs, at
    least 1 for every solve (0 only for an empty active space, which needs
    none), and ``residual_norm`` is ||H c - E c||.
    """

    ground_energy: float
    ground_vector: np.ndarray
    basis_dimension: int
    one_rdm: np.ndarray
    n_orbitals: int
    alpha_strings: tuple[int, ...]
    beta_strings: tuple[int, ...]
    matvecs: int = 0
    residual_norm: float = 0.0


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of a fresh C-ordered copy of ``array``; the view's
    ``.base`` is that copy, the writeable array ``np.take`` gathers
    through without copying it (it copies, on every call, an index
    array that is not a writeable intp array)."""
    view = np.array(array, order="C").view()
    view.flags.writeable = False
    return view


class _ExcitationTable:
    """Every E_pq|J> = sign |I> over one spin's ascending strings,
    read-only.

    ``pair``, ``target`` and ``sign`` are (m, L) arrays: row J holds the
    L entries of string J, in (p, q) order, ``pair`` the pair
    max(p, q)(max(p, q) + 1)/2 + min(p, q) of each.  ``strings`` holds
    the m int64 occupation masks.
    """

    def __init__(self, n: int, n_occupied: int):
        masks = np.array(_bit_strings(n, n_occupied), dtype=np.int64)
        bit = np.left_shift(np.int64(1), np.arange(n, dtype=np.int64))
        occupied = (masks[:, None] & bit) != 0
        # allowed[J, p, q]: q occupied in J and p empty or p == q
        allowed = occupied[:, None, :] & (~occupied[:, :, None] | np.eye(n, dtype=bool))
        source, p, q = np.nonzero(allowed)  # row-major: sorted by source J
        between = (bit[np.maximum(p, q)] - 1) & ~((bit[np.minimum(p, q)] << 1) - 1)  # empty when p == q
        parity = np.bitwise_count(masks[source] & between) & 1
        moved = masks[source] ^ bit[p] ^ bit[q]

        shape = (len(masks), -1)
        self.n_pairs = n * (n + 1) // 2
        self.strings = masks
        self.pair = _pair_indices(p, q).reshape(shape)
        self.target = np.searchsorted(masks, moved).reshape(shape)
        self.sign = (1.0 - 2.0 * parity).reshape(shape)
        for array in (self.strings, self.pair, self.target, self.sign):
            array.flags.writeable = False

    def gather_rows(self) -> np.ndarray:
        """A fresh (m, n_pairs) intp array whose [I, pair] is the row of
        [C; -C; 0] (C with m rows) that the one entry E_pq|J> = s|I> of
        the pair reaching string I reads: J + m (s < 0), or 2m for none.
        No two entries of one pair reach the same string."""
        m = len(self.strings)
        rows = np.full((m, self.n_pairs), 2 * m, dtype=np.intp)
        rows[self.target, self.pair] = np.arange(m)[:, None] + m * (self.sign < 0)
        return rows

    def pair_sums(self, overlap: np.ndarray) -> np.ndarray:
        """Per pair, the sum of s overlap[I, J] over the entries
        E_pq|J> = s|I>.  For the overlap C C^T of the alpha strings (C^T C
        of the beta ones) that is this spin's <c| E_pq + E_qp |c> for
        p > q and <c| E_pp |c> for p == q."""
        m = len(self.strings)
        terms = self.sign * overlap[self.target, np.arange(m)[:, None]]
        return np.bincount(self.pair.ravel(), terms.ravel(), minlength=self.n_pairs)


class _StringSpace:
    """The alpha and beta excitation tables of one (n, n_alpha, n_beta)
    sector, read-only and shared: :func:`_string_space` keeps one per
    shape.  Equal alpha and beta string sets share one table.  The
    direct-CI matvec's tables (``tables``, :func:`_compile_tables`) are
    compiled on the shape's first solve and kept on the space: one
    operator on two row sets, the packed triangle I <= i of the
    spin-flip-even states when the string sets are one and the whole
    I x i box otherwise.  The 1-RDM never reads them.

    ``pair_of`` maps pq = p n + q to its pair p(p+1)/2 + q (p >= q),
    ``pairs`` each pair to its pq with p >= q.  The 1-RDM reads the
    string overlaps C C^T and C^T C at the excitation tables, with c
    viewed as C[I, i], and no D+ (see :meth:`one_rdm`).
    """

    def __init__(self, n: int, n_alpha: int, n_beta: int):
        self.n = n
        self.alpha = a = _ExcitationTable(n, n_alpha)
        self.beta = b = a if n_alpha == n_beta else _ExcitationTable(n, n_beta)
        m_a, m_b = self.shape = (len(a.strings), len(b.strings))
        self.dimension = m_a * m_b
        p, q = np.divmod(np.arange(n * n), n)
        self.pair_of = _pair_indices(p, q)  # pq -> pair
        self.pairs = np.flatnonzero(p >= q)  # pair -> pq with p >= q
        # gamma_pq = paired[pair_of[pq]] / 2 off the diagonal
        self._pair_scale = np.where(p == q, 1.0, 0.5)
        for array in (self.pair_of, self.pairs, self._pair_scale):
            array.flags.writeable = False

    @functools.cached_property
    def tables(self) -> _OperatorTables:
        """The direct-CI matvec's tables, compiled on first read."""
        return _compile_tables(self)

    def one_rdm(self, vector: np.ndarray) -> np.ndarray:
        """Spin-summed gamma_pq = <c| E^a_pq + E^b_pq |c> for c viewed as
        C[I, i]: gamma^a_pq sums s (C C^T)[I, J] over the alpha entries
        E_pq|J> = s|I>, gamma^b the same with C^T C over the beta ones.
        Both are summed onto the pairs, so gamma is exactly symmetric."""
        c = vector.reshape(self.shape)
        paired = self.alpha.pair_sums(c @ c.T) + self.beta.pair_sums(c.T @ c)
        return (paired[self.pair_of] * self._pair_scale).reshape(self.n, self.n)


class _SectorBasis:
    """Orthonormal basis of the coefficients C[I, i] (m_a x m_b) that the
    direct-CI operator runs on, one coordinate per row.

    ``packed`` (one string set, n_alpha == n_beta): the spin-flip-even
    C = C^T, coordinate x holding C[I, I] on the diagonal and
    sqrt(2) C[I, i] for I < i, pairs (I, i) in row-major order, so x[0]
    is the Hartree-Fock determinant; ``mirror`` holds the flat (i, I) of
    each row's (I, i) in ``upper``.  Otherwise the whole box, x = C, every
    row its own mirror.  ``index[I, i]`` is the row holding C[I, i].
    ``unpack`` is the isometry P: x -> C (flattened) and ``pack`` its
    transpose P^T, so pack(unpack(x)) == x and P^T H P is H restricted to
    the basis's states.  Its arrays are read-only.
    """

    def __init__(self, m_a: int, m_b: int, packed: bool):
        rows, cols = np.triu_indices(m_a) if packed else np.divmod(np.arange(m_a * m_b), m_b)
        self.dimension = len(rows)
        self.upper = rows * m_b + cols  # flat (I, i)
        self.mirror = cols * m_b + rows if packed else self.upper  # flat (i, I)
        own_mirror = (rows == cols) | (not packed)
        self._unpack_scale = np.where(own_mirror, 1.0, math.sqrt(0.5))
        self._pack_scale = np.where(own_mirror, 0.5, math.sqrt(0.5))
        index = np.empty(m_a * m_b, dtype=np.intp)
        index[self.upper] = index[self.mirror] = np.arange(self.dimension)
        self.index = index.reshape(m_a, m_b)
        for array in (self.upper, self.mirror, self._unpack_scale, self._pack_scale, self.index):
            array.flags.writeable = False

    def unpack(self, x: np.ndarray) -> np.ndarray:
        """P x: the flattened C."""
        c = np.empty(self.index.size)
        values = x * self._unpack_scale
        c[self.mirror] = values
        c[self.upper] = values
        return c

    def pack(self, c: np.ndarray) -> np.ndarray:
        """P^T c for a flattened C, which need not be symmetric."""
        return (c[self.upper] + c[self.mirror]) * self._pack_scale


def _integrals(active: ActiveHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """(k, eri) as (n*n,) and (n*n, n*n) arrays, pq flattened as p*n + q."""
    n = active.n_orbitals
    eri = active.two_body_dense()
    k = np.asarray(active.one_body_eff) - 0.5 * np.einsum("prrq->pq", eri)
    return k.ravel(), eri.reshape(n * n, n * n)


class _OperatorTables(NamedTuple):
    """The direct-CI matvec's index tables for one (n, n_alpha, n_beta)
    shape, compiled on the shape's first solve and shared, read-only, by
    every later one through its cached :class:`_StringSpace` (``tables``).

    Row t of ``basis`` holds (I, i); its slots in x~ = [x s; -x s; 0] (s
    the unpack scale, so x~[t] = C[I, i]) are ``first[t, pair]`` for the
    alpha half of D+[I, pair, i] and ``second[t, pair]`` for its beta
    half.  ``alpha_index[I, w, i]`` is the flat index into G (width
    n_pairs + 1) of G[row of (J, i), pair] for the w-th alpha entry
    E_pq|I> = ``alpha_sign[I, w]`` |J>, and ``beta_index[I, w, i]`` that
    of G[row of (I, j), pair] for the w-th beta entry
    E_pq|i> = ``beta_sign[w, i]`` |j>; on the packed triangle the beta
    half of sigma is the mirror of the alpha half, and ``beta_index`` is
    None.  The index tables are intp, and each is a read-only view whose
    ``.base`` is the writeable array the matvec hands ``np.take``.  The
    rows are padded to ``batches`` x ``rows`` for the pair-space product.
    """

    basis: _SectorBasis
    first: np.ndarray
    second: np.ndarray
    alpha_index: np.ndarray
    alpha_sign: np.ndarray
    beta_index: np.ndarray | None
    beta_sign: np.ndarray
    batches: int
    rows: int


def _compile_tables(space: _StringSpace) -> _OperatorTables:
    """The :class:`_OperatorTables` of a space with n > 0: on the packed
    triangle when its alpha and beta strings are one set, else on the
    whole box."""
    a, b = space.alpha, space.beta
    m_a, m_b = space.shape
    basis = _SectorBasis(m_a, m_b, packed=a is b)
    size, n_pairs, index = basis.dimension, len(space.pairs), basis.index
    width = n_pairs + 1
    upper_rows, upper_cols = np.divmod(basis.upper, m_b)

    def slots(index: np.ndarray) -> np.ndarray:
        """[v, i]: the x~ slot that gather entry v (a source string, m +
        one read with a minus sign, or 2m for none) reads at column i."""
        return np.concatenate((index, index + size, np.full((1, index.shape[1]), 2 * size, dtype=np.intp)))

    rows = SINGLE_THREAD_GEMM_SIZE // (n_pairs * width) or size
    batches = -(-size // rows)
    return _OperatorTables(
        basis=basis,
        first=_read_only(slots(index)[a.gather_rows()[upper_rows], upper_cols[:, None]]),
        second=_read_only(slots(index.T)[b.gather_rows()[upper_cols], upper_rows[:, None]]),
        alpha_index=_read_only(index[a.target[:, :, None], np.arange(m_b)] * width + a.pair[:, :, None]),
        alpha_sign=a.sign,
        beta_index=None if a is b else _read_only(index[np.arange(m_a)[:, None, None], b.target.T] * width + b.pair.T),
        beta_sign=b.sign.T,
        batches=batches,
        rows=-(-size // batches),
    )


@functools.lru_cache(maxsize=_SPACE_CACHE_SIZE)
def _string_space(n: int, n_alpha: int, n_beta: int) -> _StringSpace:
    """The cached string space of one shape, shared by every solve and
    1-RDM of it."""
    return _StringSpace(n, n_alpha, n_beta)


def _hamiltonian_operator(
    space: _StringSpace, k: np.ndarray, eri: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """x -> P^T H P x on the rows of ``space.tables.basis``:
    sigma = sum_pair (E+_pair G_pair + k_pair D+_pair), G = 1/2 (pq|rs) D+,
    with c viewed as C[I, i].

    D+[I, pair, i] = ((E_pq + E_qp) c)[I, i] for the pair p > q (E_pp c
    for p == q) is two gathers of x~, one per spin (:class:`_OperatorTables`).
    G = 1/2 D+ (pq|rs) is one pair-space product with k riding as one
    more column, run in batches small enough for OpenBLAS to keep on the
    calling thread.  E+ is symmetric, so (I, i) of sigma gathers
    s G[J, pair, i] over the alpha entries E_pq|I> = s|J> (sigma_a) and
    s G[I, pair, j] over the beta entries E_pq|i> = s|j> (sigma_b).  On the
    box P is the identity.  On the packed triangle C = C^T on one string
    table, D+ and G are symmetric in (I, i), sigma_b = sigma_a^T, and P^T
    maps sigma to 2 p (sigma_a[I, i] + sigma_a[i, I] + (k D+)[I, i]), p
    the pack scale.

    Every buffer is allocated here, once per solve: a fresh gather
    result would fault its pages in on every call.  The gathers read the
    cached tables' writeable owners (:func:`_read_only`), so no call
    copies a table."""
    tables, pairs, basis = space.tables, space.pairs, space.tables.basis
    first, second, alpha_index = (table.base for table in (tables.first, tables.second, tables.alpha_index))
    beta_index = None if tables.beta_index is None else tables.beta_index.base
    size, n_pairs = first.shape
    width = n_pairs + 1
    weights = np.empty((n_pairs, width))
    weights[:, :n_pairs] = 0.5 * eri[np.ix_(pairs, pairs)]
    weights[:, n_pairs] = k[pairs]
    signed = np.zeros(2 * size + 1)  # x~ = [x s; -x s; 0]
    padded = tables.batches * tables.rows
    # D+ on the padded rows; once the product has read it, the sigma gathers
    d = np.zeros(max(padded * n_pairs, alpha_index.size, 0 if beta_index is None else beta_index.size))
    d_rows = d[: padded * n_pairs].reshape(tables.batches, tables.rows, n_pairs)
    d_upper = d[: size * n_pairs].reshape(size, n_pairs)
    alpha_gathered = d[: alpha_index.size].reshape(alpha_index.shape)
    beta_gathered = None if beta_index is None else d[: beta_index.size].reshape(beta_index.shape)
    g = np.zeros((tables.batches, tables.rows, width))
    d_second = g.reshape(-1)[: size * n_pairs].reshape(size, n_pairs)  # until the product
    k_d = g.reshape(-1, width)[:size, n_pairs]
    scale = 2.0 * basis._pack_scale

    def matvec(x: np.ndarray) -> np.ndarray:
        np.multiply(x, basis._unpack_scale, out=signed[:size])
        np.negative(signed[:size], out=signed[size:-1])
        # mode="raise" would buffer each gather's output
        np.take(signed, first, out=d_upper, mode="clip")
        np.take(signed, second, out=d_second, mode="clip")
        np.add(d_upper, d_second, out=d_upper)
        np.matmul(d_rows, weights, out=g)
        np.take(g.reshape(-1), alpha_index, out=alpha_gathered, mode="clip")
        sigma = mirrored = np.einsum("Iw,Iwi->Ii", tables.alpha_sign, alpha_gathered).ravel()
        if beta_index is not None:
            np.take(g.reshape(-1), beta_index, out=beta_gathered, mode="clip")
            mirrored = np.einsum("wi,Iwi->Ii", tables.beta_sign, beta_gathered).ravel()
        return (sigma[basis.upper] + mirrored[basis.mirror] + k_d) * scale

    return matvec


def _diagonal(space: _StringSpace, k: np.ndarray, eri: np.ndarray) -> np.ndarray:
    """<Ii|H|Ii> = eps_a(I) + eps_b(i) + n_a(I) . J . n_b(i) for occupation
    rows n_s, eps_s = n_s . h_diag + 1/2 n_s . (J - K) . n_s, J_pq = (pp|qq),
    K_pq = (pq|qp) and h_pp = k_pp + 1/2 sum_r (pr|rp)."""
    n = space.n
    eri = eri.reshape(n, n, n, n)
    coulomb = np.einsum("ppqq->pq", eri)
    exchange = np.einsum("pqqp->pq", eri)
    h_diag = k.reshape(n, n).diagonal() + 0.5 * exchange.sum(axis=1)
    n_a, n_b = (((t.strings[:, None] >> np.arange(n)) & 1).astype(np.float64) for t in (space.alpha, space.beta))

    def spin_energy(occupations):
        same_spin = 0.5 * np.einsum("Ip,pq,Iq->I", occupations, coulomb - exchange, occupations)
        return occupations @ h_diag + same_spin

    diagonal = n_a @ coulomb @ n_b.T
    diagonal += spin_energy(n_a)[:, None]
    diagonal += spin_energy(n_b)[None, :]
    return diagonal.ravel()


def _davidson_ground(
    matvec: Callable[[np.ndarray], np.ndarray], diagonal: np.ndarray
) -> tuple[float, np.ndarray, int, float]:
    """Lowest eigenpair by Davidson-Liu from basis vector 0 (the
    Hartree-Fock determinant).

    Returns (energy, unit vector, matvecs, final residual norm).  Each
    step corrects the Ritz pair (theta, x) by t = r / (diag - theta),
    r = Hx - theta x, orthogonalized twice against the subspace; a
    correction the subspace already holds is replaced by the residual.
    A full subspace collapses onto x.
    """
    dimension = len(diagonal)
    max_subspace = min(DAVIDSON_MAX_SUBSPACE, dimension)
    basis = np.zeros((max_subspace, dimension))
    images = np.zeros((max_subspace, dimension))  # H applied to each basis row
    projected = np.zeros((max_subspace, max_subspace))
    basis[0, 0] = 1.0  # Hartree-Fock determinant
    images[0] = matvec(basis[0])
    projected[0, 0] = images[0, 0]
    size, matvecs = 1, 1

    for iteration in range(1, DAVIDSON_MAX_ITERATIONS + 1):
        thetas, ritz = np.linalg.eigh(projected[:size, :size])
        theta, coefficients = float(thetas[0]), ritz[:, 0]
        vector, image = coefficients @ basis[:size], coefficients @ images[:size]
        residual = image - theta * vector
        residual_norm = float(np.linalg.norm(residual))
        if residual_norm < DAVIDSON_TOLERANCE:
            return theta, vector / np.linalg.norm(vector), matvecs, residual_norm
        if iteration == DAVIDSON_MAX_ITERATIONS:
            break

        if size == max_subspace:
            images[0] = image
            basis[0] = vector
            projected[0, 0] = theta
            size = 1
        shift = diagonal - theta
        shift[np.abs(shift) < _SMALL] = _SMALL
        for candidate in (residual / shift, residual):
            start_norm = np.linalg.norm(candidate)
            for _ in range(2):
                candidate -= (basis[:size] @ candidate) @ basis[:size]
            norm = np.linalg.norm(candidate)
            if norm > _SMALL * start_norm:
                break
        else:  # even the residual lies in the subspace: no new direction
            break
        basis[size] = candidate / norm
        images[size] = matvec(basis[size])
        matvecs += 1
        projected[size, : size + 1] = basis[: size + 1] @ images[size]
        projected[: size + 1, size] = projected[size, : size + 1]
        size += 1

    raise FciConvergenceError(
        f"Davidson stopped unconverged after {iteration} iterations: residual norm "
        f"{residual_norm:.3e}, tolerance {DAVIDSON_TOLERANCE:.0e}, "
        f"cap {DAVIDSON_MAX_ITERATIONS} iterations"
    )


def fci_solve(
    active: ActiveHamiltonian,
    n_electrons: int | None = None,
    s_z: float = 0.0,
    dimension_cap: int = DEFAULT_DIMENSION_CAP,
) -> FciResult:
    """Lowest eigenpair of the active Hamiltonian in a fixed (N, S_z) sector;
    with n_alpha == n_beta, the lowest spin-flip-even state (symmetric
    C[I, i]; for a closed shell, the singlet), S_z != 0 sectors over the
    whole sector (see the module docstring).

    Every sector, a single determinant included, is solved by one
    Davidson iteration from the Hartree-Fock determinant, which raises
    :class:`FciConvergenceError` if it does not converge.
    ``basis_dimension`` is the whole sector's determinant count and
    ``ground_vector`` lives on it, whichever basis the solve used.
    ``matvecs`` (at least 1) and ``residual_norm`` (below
    ``DAVIDSON_TOLERANCE``) on the result say what the solve took.
    Exceeding ``dimension_cap`` (or 62 orbitals) raises
    :class:`FciCapacityError` before any string is enumerated.
    """
    if n_electrons is None:
        n_electrons = active.n_electrons
    twice_sz = round(2 * s_z)
    if abs(2 * s_z - twice_sz) > 1e-12:
        raise FciError(f"s_z must be a multiple of 1/2, got {s_z}")
    n = active.n_orbitals
    n_alpha, n_beta = _split_sector(n, n_electrons, twice_sz, FciError)

    if n == 0:
        vector = np.array([1.0])
        return FciResult(0.0, vector, 1, np.zeros((0, 0)), 0, (0,), (0,))

    dimension = math.comb(n, n_alpha) * math.comb(n, n_beta)
    if dimension > dimension_cap:
        raise FciCapacityError(
            f"basis dimension {dimension} exceeds the cap of {dimension_cap}"
        )
    if n > 62:  # strings are int64 masks; the sign rule shifts past bit n - 1
        raise FciCapacityError(f"{n} orbitals exceed the 62 an occupation string holds")

    space = _string_space(n, n_alpha, n_beta)
    k, eri = _integrals(active)
    basis = space.tables.basis
    # the determinant diagonal at x's rows preconditions exactly as it
    # does the symmetric C on the full sector
    energy, vector, matvecs, residual_norm = _davidson_ground(
        _hamiltonian_operator(space, k, eri), _diagonal(space, k, eri)[basis.upper]
    )
    vector = basis.unpack(vector)

    # deterministic global sign: largest-magnitude component positive
    pivot = int(np.argmax(np.abs(vector)))
    if vector[pivot] < 0:
        vector = -vector

    return FciResult(
        ground_energy=energy,
        ground_vector=vector,
        basis_dimension=dimension,
        one_rdm=space.one_rdm(vector),
        n_orbitals=n,
        alpha_strings=tuple(space.alpha.strings.tolist()),
        beta_strings=tuple(space.beta.strings.tolist()),
        matvecs=matvecs,
        residual_norm=residual_norm,
    )


def compute_1rdm(result: FciResult) -> np.ndarray:
    """Spin-summed one-particle reduced density matrix of the ground state,
    recomputed from the stored eigenvector."""
    n_alpha, n_beta = (strings[0].bit_count() for strings in (result.alpha_strings, result.beta_strings))
    return _string_space(result.n_orbitals, n_alpha, n_beta).one_rdm(result.ground_vector)
