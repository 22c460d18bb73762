"""Exact diagonalization over the active determinant basis.

Determinants are pairs of alpha/beta occupation strings over the active
spatial orbitals (blocked spin-orbital convention shared with the qubit
mappings).  The basis is alpha-string major, beta-string minor, with
strings ordered by their integer bit value, so the Hartree-Fock
determinant is basis vector 0.

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
read-only string space per shape (``_string_space``), with, for
n_alpha == n_beta, the spin-flip-even matvec's index tables, and every
solve, 1-RDM and VQE density of the shape shares it.  Index tables are
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
  spin) is out of the contract.  S_z != 0 sectors use the whole sector.
* Davidson, the one eigensolver, on every sector: Davidson-Liu
  (Davidson, J. Comput. Phys. 17, 87 (1975)) from the Hartree-Fock
  determinant on a matvec
  D = E c (stacked over pq), G = 1/2 (pq|rs) D,
  sigma = sum_pq E_pq G_pq + sum_pq k_pq D_pq.  The 8-fold symmetry of
  (pq|rs) folds pq and qp onto the pair p >= q, so the matvec runs over
  the n(n+1)/2 operators E_pq + E_qp.  Over a whole sector it is a
  gather per spin for D, one matrix product for G and a gathered signed
  sum per spin for sigma.  On the even states D and G are symmetric in
  (I, i) and are kept on the packed triangle I <= i alone, as
  (m(m+1)/2, n_pairs) arrays: D is two gathers of the packed vector, G
  one pair-space product run in batches small enough for OpenBLAS to
  keep on the calling thread, and sigma one gather of G and a signed
  sum.  Their index tables are compiled once per shape, with its
  string space; every buffer is allocated once per solve.  Each step
  corrects the Ritz pair (theta, x) by (H_diag - theta)^-1 r,
  r = Hx - theta x, with the exact determinant diagonal H_diag from
  the string occupations; it stops at
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

from .activespace import ActiveHamiltonian

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
# The spin-flip-even pair-space product runs in batches of at most this
# m * n * k, OpenBLAS's single-thread threshold (65536 times its default
# GEMM_MULTITHREAD_THRESHOLD of 4): a larger product wakes a BLAS worker
# that costs more CPU than it saves at these sizes.
_SINGLE_THREAD_GEMM_SIZE = 4 * 65536
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

    ``pq``, ``pair``, ``target`` and ``sign`` are (m, L) arrays: row J
    holds the L entries of string J, in (p, q) order, ``pair`` the pair
    max(p, q)(max(p, q) + 1)/2 + min(p, q) of each.  ``strings`` holds
    the m int64 occupation masks and ``occupations`` their (m, n) 0/1
    occupations.
    """

    def __init__(self, n: int, n_occupied: int):
        masks = np.array(_bit_strings(n, n_occupied), dtype=np.int64)
        bit = np.left_shift(np.int64(1), np.arange(n, dtype=np.int64))
        occupied = (masks[:, None] & bit) != 0
        # allowed[J, p, q]: q occupied in J and p empty or p == q
        allowed = occupied[:, None, :] & (~occupied[:, :, None] | np.eye(n, dtype=bool))
        source, p, q = np.nonzero(allowed)  # row-major: sorted by source J
        low, high = np.minimum(p, q), np.maximum(p, q)
        between = (bit[high] - 1) & ~((bit[low] << 1) - 1)  # empty when p == q
        parity = np.bitwise_count(masks[source] & between) & 1
        moved = masks[source] ^ bit[p] ^ bit[q]

        shape = (len(masks), -1)
        self.n_pairs = n * (n + 1) // 2
        self.strings = masks
        self.occupations = occupied.astype(np.float64)
        self.pq = (p * n + q).reshape(shape)
        self.pair = (high * (high + 1) // 2 + low).reshape(shape)
        self.target = np.searchsorted(masks, moved).reshape(shape)
        self.sign = (1.0 - 2.0 * parity).reshape(shape)
        for array in (self.strings, self.occupations, self.pq, self.pair, self.target, self.sign):
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
    shape.  Equal alpha and beta string sets share one table, and such a
    space with n > 0 also carries the spin-flip-even matvec's tables
    (``even``, :func:`_compile_even_tables`); otherwise ``even`` is None.

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
        high, low = np.maximum(p, q), np.minimum(p, q)
        self.pair_of = high * (high + 1) // 2 + low  # pq -> pair
        self.pairs = np.flatnonzero(p >= q)  # pair -> pq with p >= q
        # gamma_pq = paired[pair_of[pq]] / 2 off the diagonal
        self._pair_scale = np.where(p == q, 1.0, 0.5)
        for array in (self.pair_of, self.pairs, self._pair_scale):
            array.flags.writeable = False
        # an empty active space (n == 0) is never solved
        self.even = _compile_even_tables(self) if a is b and n else None

    def one_rdm(self, vector: np.ndarray) -> np.ndarray:
        """Spin-summed gamma_pq = <c| E^a_pq + E^b_pq |c> for c viewed as
        C[I, i]: gamma^a_pq sums s (C C^T)[I, J] over the alpha entries
        E_pq|J> = s|I>, gamma^b the same with C^T C over the beta ones.
        Both are summed onto the pairs, so gamma is exactly symmetric."""
        c = vector.reshape(self.shape)
        paired = self.alpha.pair_sums(c @ c.T) + self.beta.pair_sums(c.T @ c)
        return (paired[self.pair_of] * self._pair_scale).reshape(self.n, self.n)


class _SpinFlipEvenBasis:
    """Orthonormal basis of the symmetric C = C^T of an m x m sector.

    Coordinate x holds C[I, I] on the diagonal and sqrt(2) C[I, i] for
    I < i, pairs (I, i) in row-major order, so x[0] is the Hartree-Fock
    determinant.  ``unpack`` is the isometry P: x -> C (flattened) and
    ``pack`` its transpose P^T, so pack(unpack(x)) == x and P^T H P is H
    restricted to the spin-flip-even states.  Its arrays are read-only.
    """

    def __init__(self, m: int):
        rows, cols = np.triu_indices(m)
        self.m = m
        self.dimension = len(rows)
        self.upper = rows * m + cols  # flat (I, i), I <= i
        self.mirror = cols * m + rows  # flat (i, I)
        diagonal = rows == cols
        self._unpack_scale = np.where(diagonal, 1.0, math.sqrt(0.5))
        self._pack_scale = np.where(diagonal, 0.5, math.sqrt(0.5))
        for array in (self.upper, self.mirror, self._unpack_scale, self._pack_scale):
            array.flags.writeable = False

    def unpack(self, x: np.ndarray) -> np.ndarray:
        """P x: the flattened symmetric C."""
        c = np.empty(self.m * self.m)
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


def _alpha_sigma(space: _StringSpace) -> Callable[[np.ndarray], np.ndarray]:
    """G -> S G with S[I, J * n_pairs + pair] = s for each alpha entry
    E_pq|I> = s|J>, for G of shape (m_a, n_pairs, m_b).  E+ is
    symmetric, so S G is the alpha half of sum_pair E+_pair G_pair.
    Every string has the same L entries, so S G is one gather of the L
    rows G[J, pair] that string I reaches, into a buffer allocated once,
    and their signed sum."""
    a = space.alpha
    m_a, width = a.pq.shape
    m_b = space.shape[1]
    rows = (a.target * len(space.pairs) + a.pair).ravel()
    gathered = np.empty((m_a, width, m_b))

    def product(g: np.ndarray) -> np.ndarray:
        np.take(g.reshape(-1, m_b), rows, axis=0, out=gathered.reshape(-1, m_b), mode="clip")
        return np.einsum("Iw,Iwi->Ii", a.sign, gathered)

    return product


def _hamiltonian_operator(
    space: _StringSpace, k: np.ndarray, eri: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """c -> sigma = sum_pair (E+_pair G_pair + k_pair D+_pair), G = 1/2 (pq|rs) D+,
    over the whole sector.

    D+[I, pair, i] = ((E_pq + E_qp) c)[I, i] for the pair p > q (E_pp c
    for p == q), with c viewed as C[I, i], is two gathers: rows of
    [C; -C; 0] for alpha and columns of [C, -C, 0] for beta
    (:meth:`_ExcitationTable.gather_rows`), where slots no entry reaches
    read the zero.  E+ is symmetric, so (I, i) of sigma gathers
    s G[J, pair, i] over the entries E_pq|I> = s|J> of its alpha string
    (:func:`_alpha_sigma`) and s G[I, pair, j] over those of its beta
    string.  The gather tables, writeable intp arrays so that
    ``np.take`` copies none (:func:`_read_only`), and every buffer are
    made here, once per operator."""
    m_a, m_b = space.shape
    b = space.beta
    n_pairs = len(space.pairs)
    alpha_sigma = _alpha_sigma(space)
    alpha_rows = space.alpha.gather_rows().ravel()
    beta_cols = b.gather_rows().T.ravel()  # in (pair, i) order
    # columns of G as (m_a, n_pairs * m_b)
    beta_terms_index = np.ascontiguousarray((b.pair * m_b + b.target).T)
    beta_sign = b.sign.T
    half_eri = 0.5 * eri[np.ix_(space.pairs, space.pairs)]
    k = k[space.pairs]
    rows = np.zeros((2 * m_a + 1, m_b))  # [C; -C; 0]
    cols = np.zeros((m_a, 2 * m_b + 1))  # [C, -C, 0]
    d = np.empty((m_a, n_pairs, m_b))
    g = np.empty((m_a, n_pairs, m_b))  # the beta half of D+ until the product
    beta_terms = np.empty((m_a, b.pq.shape[1], m_b))

    def matvec(vector: np.ndarray) -> np.ndarray:
        c = np.reshape(vector, space.shape)
        rows[:m_a] = c
        np.negative(c, out=rows[m_a:-1])
        cols[:, :m_b] = c
        np.negative(c, out=cols[:, m_b:-1])
        np.take(rows, alpha_rows, axis=0, out=d.reshape(-1, m_b), mode="clip")
        np.take(cols, beta_cols, axis=1, out=g.reshape(m_a, -1), mode="clip")
        np.add(d, g, out=d)
        np.matmul(half_eri, d, out=g)
        sigma = alpha_sigma(g)
        np.take(g.reshape(m_a, -1), beta_terms_index, axis=1, out=beta_terms, mode="clip")
        np.multiply(beta_terms, beta_sign, out=beta_terms)
        sigma += beta_terms.sum(axis=1)
        sigma += np.matmul(k, d)
        return sigma.ravel()

    return matvec


class _EvenTables(NamedTuple):
    """The spin-flip-even matvec's index tables for one (n, n_alpha =
    n_beta) shape, read-only and shared by every solve of the shape
    through its cached :class:`_StringSpace` (``even``).

    Row t of the packed triangle is the pair (I, i), I <= i, of
    ``basis``; its slots in x~ = [x s; -x s; 0] (s the unpack scale, so
    x~[t] = C[I, i] = C[i, I]) are ``first[t, pair]`` for D_a[I, pair, i]
    and ``second[t, pair]`` for D_a[i, pair, I].  ``sigma_index[I, w, i]``
    is the flat index into G (width n_pairs + 1) of G[tri(J, i), pair]
    for the w-th alpha entry E_pq|I> = ``sign[I, w]`` |J>.  The three
    index tables are intp, and each is a read-only view whose ``.base``
    is the writeable array the matvec hands ``np.take``.  The triangle is
    padded to ``batches`` x ``rows`` rows for the pair-space product.
    """

    basis: _SpinFlipEvenBasis
    pairs: np.ndarray
    first: np.ndarray
    second: np.ndarray
    sigma_index: np.ndarray
    sign: np.ndarray
    batches: int
    rows: int


def _compile_even_tables(space: _StringSpace) -> _EvenTables:
    """The :class:`_EvenTables` of a space whose alpha and beta strings
    are one set."""
    a = space.alpha
    basis = _SpinFlipEvenBasis(space.shape[0])
    m, size, n_pairs = basis.m, basis.dimension, len(space.pairs)
    width = n_pairs + 1
    upper_rows, upper_cols = np.divmod(basis.upper, m)
    tri = np.empty(m * m, dtype=np.intp)  # (I, i) -> its triangle row, either order
    tri[basis.upper] = tri[basis.mirror] = np.arange(size)
    tri = tri.reshape(m, m)
    # slot[v, i]: the x~ slot that alpha gather entry v (a source string,
    # m + one read with a minus sign, or 2m for none) reads at column i
    slot = np.concatenate((tri, tri + size, np.full((1, m), 2 * size, dtype=np.intp)))
    alpha_rows = a.gather_rows()
    rows = _SINGLE_THREAD_GEMM_SIZE // (n_pairs * width) or size
    batches = -(-size // rows)
    return _EvenTables(
        basis=basis,
        pairs=space.pairs,
        first=_read_only(slot[alpha_rows[upper_rows], upper_cols[:, None]]),
        second=_read_only(slot[alpha_rows[upper_cols], upper_rows[:, None]]),
        sigma_index=_read_only(tri[a.target[:, :, None], np.arange(m)] * width + a.pair[:, :, None]),
        sign=a.sign,
        batches=batches,
        rows=-(-size // batches),
    )


@functools.lru_cache(maxsize=_SPACE_CACHE_SIZE)
def _string_space(n: int, n_alpha: int, n_beta: int) -> _StringSpace:
    """The cached string space of one shape, shared by every solve and
    1-RDM of it."""
    return _StringSpace(n, n_alpha, n_beta)


def _even_hamiltonian_operator(
    tables: _EvenTables, k: np.ndarray, eri: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """x -> P^T H P x on the spin-flip-even basis of an n_alpha == n_beta
    sector.  For C = C^T on one string table the beta gather is the
    transposed alpha gather, so D+[I, pair, i] = D_a[I, pair, i] +
    D_a[i, pair, I] is symmetric in (I, i) and lives on the packed
    triangle: two gathers of x~ (:class:`_EvenTables`).  G = 1/2 D+ (pq|rs)
    is symmetric as well, and the general operator's sigma becomes
    sigma_a + sigma_a^T + k D+ with sigma_a = S G its alpha half.  P^T
    maps that to 2 p (sigma_a[I, i] + sigma_a[i, I] + (k D+)[I, i]), p the
    pack scale.  k rides as one more column of the pair-space product,
    which runs in batches small enough for OpenBLAS to keep on the
    calling thread.

    Every buffer is allocated here, once per solve: a fresh gather
    result would fault its pages in on every call.  The gathers read the
    cached tables' writeable owners (:func:`_read_only`), so no call
    copies a table."""
    basis, pairs = tables.basis, tables.pairs
    first, second, sigma_index = (
        table.base for table in (tables.first, tables.second, tables.sigma_index)
    )
    size, n_pairs = first.shape
    width = n_pairs + 1
    weights = np.empty((n_pairs, width))
    weights[:, :n_pairs] = 0.5 * eri[np.ix_(pairs, pairs)]
    weights[:, n_pairs] = k[pairs]
    signed = np.zeros(2 * size + 1)  # x~ = [x s; -x s; 0]
    padded = tables.batches * tables.rows
    # D+ on the padded triangle; once the product has read it, the sigma gather
    d = np.zeros(max(padded * n_pairs, sigma_index.size))
    d_rows = d[: padded * n_pairs].reshape(tables.batches, tables.rows, n_pairs)
    d_upper = d[: size * n_pairs].reshape(size, n_pairs)
    gathered = d[: sigma_index.size].reshape(sigma_index.shape)
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
        np.take(g.reshape(-1), sigma_index, out=gathered, mode="clip")
        sigma = np.einsum("Iw,Iwi->Ii", tables.sign, gathered).ravel()
        return (sigma[basis.upper] + sigma[basis.mirror] + k_d) * scale

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
    n_a, n_b = space.alpha.occupations, space.beta.occupations

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
        vector = coefficients @ basis[:size]
        residual = coefficients @ images[:size] - theta * vector
        residual_norm = float(np.linalg.norm(residual))
        if residual_norm < DAVIDSON_TOLERANCE:
            return theta, vector / np.linalg.norm(vector), matvecs, residual_norm
        if iteration == DAVIDSON_MAX_ITERATIONS:
            break

        if size == max_subspace:
            images[0] = coefficients @ images[:size]
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
    if (n_electrons + twice_sz) % 2 != 0:
        raise FciError(f"inconsistent (n_electrons={n_electrons}, s_z={s_z})")
    n_alpha = (n_electrons + twice_sz) // 2
    n_beta = n_electrons - n_alpha
    n = active.n_orbitals
    if not (0 <= n_alpha <= n and 0 <= n_beta <= n):
        raise FciError(
            f"cannot place ({n_alpha} alpha, {n_beta} beta) electrons in {n} orbitals"
        )

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
    diagonal = _diagonal(space, k, eri)
    if space.even is not None:
        tables = space.even
        even = tables.basis
        # the determinant diagonal at x's pairs preconditions exactly as it
        # does the symmetric C on the full sector
        energy, vector, matvecs, residual_norm = _davidson_ground(
            _even_hamiltonian_operator(tables, k, eri), diagonal[even.upper]
        )
        vector = even.unpack(vector)
    else:
        energy, vector, matvecs, residual_norm = _davidson_ground(
            _hamiltonian_operator(space, k, eri), diagonal
        )

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
