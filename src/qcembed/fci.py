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

Each spin gets one excitation table per solve, holding every entry
E_pq|J> = sign |I> (q occupied in string J, p empty or p == q), with
sign = (-1)^(occupied orbitals strictly between p and q).  All alpha
modes sit below all beta modes, so a beta excitation passes no alpha
electron and the determinant sign factorises into the per-spin signs.
Every string has the same number L = k(n - k + 1) of entries for k
electrons, so a table is a set of (m strings, L) arrays.

* Lanczos (above ``dense_limit``): ``eigsh`` from the Hartree-Fock
  determinant on a matvec D = E c (stacked over pq), G = 1/2 (pq|rs) D,
  sigma = sum_pq E_pq G_pq + sum_pq k_pq D_pq.  The 8-fold symmetry of
  (pq|rs) folds pq and qp onto the pair p >= q, so the matvec runs over
  n(n+1)/2 operators E_pq + E_qp as gathers and one matrix product into
  buffers allocated once per solve.
* Dense: H = H_a (x) 1 + 1 (x) H_b + sum_pqrs (pq|rs) E^a_pq (x) E^b_rs,
  each one-spin H_s assembled by chaining table entries E_pq E_rs.
* The spin-summed 1-RDM is gamma_pq = c . (E_pq c), from the same D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .activespace import ActiveHamiltonian

__all__ = ["FciError", "FciCapacityError", "FciResult", "fci_solve", "compute_1rdm"]

DEFAULT_DIMENSION_CAP = 40_000
# Dense eigh wins below about 250 determinants and Lanczos above: random
# Hamiltonians, 2-vCPU VM, dimension 147 dense 6 ms vs Lanczos 12 ms,
# 300 dense 11 ms vs Lanczos 8 ms, 1225 dense 178 ms vs Lanczos 41 ms.
DENSE_DIMENSION_LIMIT = 250


class FciError(ValueError):
    """Inconsistent electron/spin specification."""


class FciCapacityError(RuntimeError):
    """Requested determinant basis exceeds the configured cap."""


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
    it when reporting totals.
    """

    ground_energy: float
    ground_vector: np.ndarray
    basis_dimension: int
    one_rdm: np.ndarray
    n_orbitals: int
    alpha_strings: tuple[int, ...]
    beta_strings: tuple[int, ...]


class _ExcitationTable:
    """Every E_pq|J> = sign |I> over one spin's ascending strings.

    ``pq``, ``target`` and ``sign`` are (m, L) arrays: row J holds the
    L entries of string J, in (p, q) order.
    """

    def __init__(self, strings, n: int):
        masks = np.asarray(strings, dtype=np.int64)
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
        self.pq = (p * n + q).reshape(shape)
        self.target = np.searchsorted(masks, moved).reshape(shape)
        self.sign = (1.0 - 2.0 * parity).reshape(shape)

    def one_spin_matrix(self, k: np.ndarray, half_eri: np.ndarray) -> np.ndarray:
        """Dense sum_pq k_pq E_pq + sum_pqrs half_eri[pq, rs] E_pq E_rs over
        this spin's strings, chaining E_rs|J> = t|K> with E_pq|K> = s|I>."""
        m = len(self.pq)
        source = np.arange(m)[:, None]
        one = np.bincount(
            (self.target * m + source).ravel(),
            weights=(k[self.pq] * self.sign).ravel(),
            minlength=m * m,
        )
        middle = self.target  # K for each (J, rs) entry
        values = half_eri[self.pq[middle], self.pq[:, :, None]]
        values *= self.sign[middle] * self.sign[:, :, None]
        two = np.bincount(
            (self.target[middle] * m + source[:, :, None]).ravel(),
            weights=values.ravel(),
            minlength=m * m,
        )
        return (one + two).reshape(m, m)


class _StringSpace:
    """The alpha and beta excitation tables of one (N, S_z) sector.

    ``excitations`` gives D+[I, pair, i] = ((E_pq + E_qp) c)[I, i] for the
    pair p > q (E_pp c for p == q), pair = p(p+1)/2 + q, with c viewed as
    C[I, i].  No two entries of one pair reach the same string, so D+ is
    two gathers: rows of [C; -C; 0] for alpha, columns of [C, -C, 0] for
    beta, where slots no entry reaches read the zero.  D+ is a buffer
    owned by the space and is overwritten by the next call.
    """

    def __init__(self, n: int, alpha_strings, beta_strings):
        self.n = n
        self.alpha = a = _ExcitationTable(alpha_strings, n)
        self.beta = b = _ExcitationTable(beta_strings, n)
        m_a, m_b = self.shape = (len(alpha_strings), len(beta_strings))
        self.dimension = m_a * m_b
        p, q = np.divmod(np.arange(n * n), n)
        high, low = np.maximum(p, q), np.minimum(p, q)
        self.pair_of = high * (high + 1) // 2 + low  # pq -> pair
        self.pairs = np.flatnonzero(p >= q)  # pair -> pq with p >= q
        n_pairs = len(self.pairs)
        alpha_rows = np.full((m_a, n_pairs), 2 * m_a, dtype=np.intp)
        alpha_rows[a.target, self.pair_of[a.pq]] = np.arange(m_a)[:, None] + m_a * (a.sign < 0)
        beta_cols = np.full((n_pairs, m_b), 2 * m_b, dtype=np.intp)
        beta_cols[self.pair_of[b.pq], b.target] = np.arange(m_b)[:, None] + m_b * (b.sign < 0)
        self._alpha_rows, self._beta_cols = alpha_rows.ravel(), beta_cols.ravel()
        self._d = np.empty((m_a, n_pairs, m_b))
        self._work = np.empty((m_a, n_pairs, m_b))

    def excitations(self, vector: np.ndarray) -> np.ndarray:
        """D+ with D+[I, pair, i] = (E+_pair c)[I, i]."""
        c = vector.reshape(self.shape)
        m_a, m_b = self.shape
        rows = np.concatenate((c, -c, np.zeros((1, m_b))))
        np.take(rows, self._alpha_rows, axis=0, out=self._d.reshape(-1, m_b), mode="clip")
        cols = np.concatenate((c, -c, np.zeros((m_a, 1))), axis=1)
        np.take(cols, self._beta_cols, axis=1, out=self._work.reshape(m_a, -1), mode="clip")
        self._d += self._work
        return self._d

    def one_rdm(self, vector: np.ndarray) -> np.ndarray:
        """Spin-summed gamma_pq = <c| E_pq |c> = <c| E+_pq |c> / 2 for p != q."""
        d = self.excitations(vector)
        paired = np.einsum("Ii,Iki->k", vector.reshape(self.shape), d)
        p, q = np.divmod(np.arange(self.n * self.n), self.n)
        return (paired[self.pair_of] * np.where(p == q, 1.0, 0.5)).reshape(self.n, self.n)


def _integrals(active: ActiveHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """(k, eri) as (n*n,) and (n*n, n*n) arrays, pq flattened as p*n + q."""
    n = active.n_orbitals
    eri = active.two_body_dense()
    k = np.asarray(active.one_body_eff) - 0.5 * np.einsum("prrq->pq", eri)
    return k.ravel(), eri.reshape(n * n, n * n)


def _dense_hamiltonian(space: _StringSpace, k: np.ndarray, eri: np.ndarray) -> np.ndarray:
    m_a, m_b = space.shape
    alpha, beta = space.alpha, space.beta
    # cross term sum (pq|rs) E^a_pq (x) E^b_rs, one weight per entry pair
    a_src = np.repeat(np.arange(m_a), alpha.pq.shape[1])
    b_src = np.repeat(np.arange(m_b), beta.pq.shape[1])
    rows = alpha.target.reshape(-1, 1) * m_b + beta.target.reshape(1, -1)
    cols = a_src[:, None] * m_b + b_src[None, :]
    values = eri[alpha.pq.reshape(-1, 1), beta.pq.reshape(1, -1)]
    values *= alpha.sign.reshape(-1, 1) * beta.sign.reshape(1, -1)
    dim = space.dimension
    cross = np.bincount((rows * dim + cols).ravel(), weights=values.ravel(), minlength=dim * dim)
    half_eri = 0.5 * eri
    matrix = np.kron(alpha.one_spin_matrix(k, half_eri), np.eye(m_b))
    matrix += np.kron(np.eye(m_a), beta.one_spin_matrix(k, half_eri))
    matrix += cross.reshape(dim, dim)
    return matrix


def _hamiltonian_operator(
    space: _StringSpace, k: np.ndarray, eri: np.ndarray
) -> scipy.sparse.linalg.LinearOperator:
    """sigma = sum_pair (E+_pair G_pair + k_pair D+_pair), G = 1/2 (pq|rs) D+.
    E+ is symmetric, so (I, i) gathers s G[J, pair, i] over the entries
    E_pq|I> = s|J> of its alpha string and s G[I, pair, j] over those of
    its beta string."""
    m_a, m_b = space.shape
    a, b = space.alpha, space.beta
    n_pairs = len(space.pairs)
    alpha_rows = a.target * n_pairs + space.pair_of[a.pq]  # rows of G as (m_a * n_pairs, m_b)
    beta_cols = (space.pair_of[b.pq] * m_b + b.target).T  # columns of G as (m_a, n_pairs * m_b)
    alpha_sign, beta_sign = a.sign[:, :, None], b.sign.T
    half_eri = 0.5 * eri[np.ix_(space.pairs, space.pairs)]
    k = k[space.pairs]
    g = np.empty((m_a, n_pairs, m_b))
    alpha_terms = np.empty((m_a, a.pq.shape[1], m_b))
    beta_terms = np.empty((m_a, b.pq.shape[1], m_b))

    def matvec(vector: np.ndarray) -> np.ndarray:
        d = space.excitations(np.ravel(vector))
        np.matmul(half_eri, d, out=g)
        np.take(g.reshape(-1, m_b), alpha_rows, axis=0, out=alpha_terms, mode="clip")
        np.multiply(alpha_terms, alpha_sign, out=alpha_terms)
        np.take(g.reshape(m_a, -1), beta_cols, axis=1, out=beta_terms, mode="clip")
        np.multiply(beta_terms, beta_sign, out=beta_terms)
        sigma = alpha_terms.sum(axis=1)
        sigma += beta_terms.sum(axis=1)
        sigma += np.matmul(k, d)
        return sigma.ravel()

    dim = space.dimension
    return scipy.sparse.linalg.LinearOperator((dim, dim), matvec=matvec, dtype=np.float64)


def fci_solve(
    active: ActiveHamiltonian,
    n_electrons: int | None = None,
    s_z: float = 0.0,
    dimension_cap: int = DEFAULT_DIMENSION_CAP,
    dense_limit: int = DENSE_DIMENSION_LIMIT,
) -> FciResult:
    """Lowest eigenpair of the active Hamiltonian in a fixed (N, S_z) sector.

    Dense diagonalization is used for basis dimensions up to
    ``dense_limit`` (and always for a single determinant); beyond that a
    Lanczos iteration with a deterministic Hartree-Fock start vector
    takes over.  Exceeding ``dimension_cap`` (or 62 orbitals) raises
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

    alpha_strings = tuple(_bit_strings(n, n_alpha))
    beta_strings = tuple(_bit_strings(n, n_beta))
    space = _StringSpace(n, alpha_strings, beta_strings)
    k, eri = _integrals(active)

    if dimension <= max(dense_limit, 1):  # ARPACK needs dimension >= 2
        energies, vectors = scipy.linalg.eigh(
            _dense_hamiltonian(space, k, eri), subset_by_index=[0, 0]
        )
    else:
        v0 = np.zeros(dimension)
        v0[0] = 1.0  # Hartree-Fock determinant
        energies, vectors = scipy.sparse.linalg.eigsh(
            _hamiltonian_operator(space, k, eri), k=1, which="SA", v0=v0
        )
    energy = float(energies[0])
    vector = vectors[:, 0]

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
        alpha_strings=alpha_strings,
        beta_strings=beta_strings,
    )


def compute_1rdm(result: FciResult) -> np.ndarray:
    """Spin-summed one-particle reduced density matrix of the ground state,
    recomputed from the stored eigenvector."""
    space = _StringSpace(result.n_orbitals, result.alpha_strings, result.beta_strings)
    return space.one_rdm(result.ground_vector)
