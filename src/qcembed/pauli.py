"""Pauli-string algebra on integer bitmasks.

A Pauli string is held in symplectic form: qubit k carries X iff bit k
of ``x_mask`` is set, Z iff bit k of ``z_mask`` is set, Y iff both.
Products, commutation checks and phase bookkeeping reduce to XOR/AND
plus popcounts, so sums with thousands of terms stay cheap.

Convention used package-wide: qubit 0 is the least significant bit of a
basis-state index, and character 0 (leftmost) of a label like ``"IZXI"``
refers to qubit 0.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

__all__ = ["PauliString", "PauliSum", "PRUNE_TOLERANCE"]

# Coefficients below this magnitude are dropped during simplification;
# the value sits under the noise floor of double-precision accumulation.
PRUNE_TOLERANCE = 1e-12

_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


class PauliString:
    """Immutable Hermitian Pauli string (no scalar prefactor)."""

    __slots__ = ("n_qubits", "x_mask", "z_mask", "_hash")

    def __init__(self, n_qubits: int, x_mask: int = 0, z_mask: int = 0):
        if n_qubits < 0:
            raise ValueError("n_qubits must be non-negative")
        full = (1 << n_qubits) - 1
        if x_mask & ~full or z_mask & ~full:
            raise ValueError(f"mask exceeds {n_qubits} qubits")
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "x_mask", x_mask)
        object.__setattr__(self, "z_mask", z_mask)
        object.__setattr__(self, "_hash", hash((n_qubits, x_mask, z_mask)))

    def __setattr__(self, name, value):
        raise AttributeError("PauliString is immutable")

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        return cls(n_qubits, 0, 0)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Build from 'IXYZ' characters; character k acts on qubit k."""
        x = z = 0
        for k, ch in enumerate(label):
            if ch == "X":
                x |= 1 << k
            elif ch == "Y":
                x |= 1 << k
                z |= 1 << k
            elif ch == "Z":
                z |= 1 << k
            elif ch != "I":
                raise ValueError(f"invalid Pauli character {ch!r} in {label!r}")
        return cls(len(label), x, z)

    @property
    def label(self) -> str:
        chars = []
        for k in range(self.n_qubits):
            x = (self.x_mask >> k) & 1
            z = (self.z_mask >> k) & 1
            chars.append("IXZY"[x + 2 * z])
        return "".join(chars)

    @property
    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    def commutes_with(self, other: "PauliString") -> bool:
        return ((self.x_mask & other.z_mask).bit_count() + (self.z_mask & other.x_mask).bit_count()) % 2 == 0

    def compose(self, other: "PauliString") -> tuple[int, "PauliString"]:
        """Product self * other as (phase_exponent, string) with the phase i**exponent.

        Writing each string as i^{|x&z|} X^x Z^z, the product's phase exponent is
        |x1&z1| + |x2&z2| - |x3&z3| + 2 |z1&x2|  (mod 4), x3 = x1^x2, z3 = z1^z2.
        """
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit count mismatch")
        x3 = self.x_mask ^ other.x_mask
        z3 = self.z_mask ^ other.z_mask
        exponent = (
            (self.x_mask & self.z_mask).bit_count()
            + (other.x_mask & other.z_mask).bit_count()
            - (x3 & z3).bit_count()
            + 2 * (self.z_mask & other.x_mask).bit_count()
        ) % 4
        return exponent, PauliString(self.n_qubits, x3, z3)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PauliString)
            and self.n_qubits == other.n_qubits
            and self.x_mask == other.x_mask
            and self.z_mask == other.z_mask
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "PauliString") -> bool:
        return (self.x_mask, self.z_mask) < (other.x_mask, other.z_mask)

    def __repr__(self) -> str:
        return f"PauliString({self.label!r})"


class PauliSum:
    """Weighted sum of Pauli strings with complex coefficients.

    Simplified on construction: coefficients of equal strings merge and
    anything below :data:`PRUNE_TOLERANCE` is dropped.  Instances hold
    their terms alone and are treated as immutable; all arithmetic
    returns new objects.
    """

    __slots__ = ("n_qubits", "_terms")

    def __init__(self, n_qubits: int, terms: Mapping[PauliString, complex] | None = None):
        self.n_qubits = n_qubits
        pruned: dict[PauliString, complex] = {}
        if terms:
            for string, coeff in terms.items():
                if string.n_qubits != n_qubits:
                    raise ValueError("term qubit count mismatch")
                # non-finite coefficients survive pruning so contract checks fire
                if not (abs(coeff) < PRUNE_TOLERANCE):
                    pruned[string] = complex(coeff)
        self._terms = pruned

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n_qubits: int, coeff: complex = 1.0) -> "PauliSum":
        return cls(n_qubits, {PauliString.identity(n_qubits): coeff})

    @classmethod
    def from_terms(cls, n_qubits: int, terms: Iterable[tuple[PauliString, complex]]) -> "PauliSum":
        acc: dict[PauliString, complex] = {}
        for string, coeff in terms:
            acc[string] = acc.get(string, 0.0) + coeff
        return cls(n_qubits, acc)

    @classmethod
    def from_label_dict(cls, labels: Mapping[str, complex]) -> "PauliSum":
        n = len(next(iter(labels)))
        return cls.from_terms(n, ((PauliString.from_label(l), c) for l, c in labels.items()))

    # -- inspection --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[PauliString, complex]]:
        return iter(self._terms.items())

    def terms(self) -> dict[PauliString, complex]:
        return dict(self._terms)

    def sorted_terms(self) -> list[tuple[PauliString, complex]]:
        return sorted(self._terms.items(), key=lambda t: (t[0].x_mask, t[0].z_mask))

    def coefficient(self, string: PauliString) -> complex:
        return self._terms.get(string, 0.0 + 0.0j)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def max_imaginary_part(self) -> float:
        return max((abs(c.imag) for c in self._terms.values()), default=0.0)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if not isinstance(other, PauliSum):
            return NotImplemented
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit count mismatch")
        acc = dict(self._terms)
        for string, coeff in other._terms.items():
            acc[string] = acc.get(string, 0.0) + coeff
        return PauliSum(self.n_qubits, acc)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "PauliSum":
        if isinstance(scalar, PauliSum):
            return NotImplemented
        return PauliSum(self.n_qubits, {s: c * scalar for s, c in self._terms.items()})

    __rmul__ = __mul__

    def __matmul__(self, other: "PauliSum") -> "PauliSum":
        """Operator product, distributing over all term pairs."""
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit count mismatch")
        acc: dict[PauliString, complex] = {}
        for s1, c1 in self._terms.items():
            for s2, c2 in other._terms.items():
                exponent, s3 = s1.compose(s2)
                acc[s3] = acc.get(s3, 0.0) + c1 * c2 * _PHASES[exponent]
        return PauliSum(self.n_qubits, acc)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self.n_qubits == other.n_qubits and self._terms == other._terms

    def allclose(self, other: "PauliSum", tol: float = 1e-10) -> bool:
        if self.n_qubits != other.n_qubits:
            return False
        keys = set(self._terms) | set(other._terms)
        return all(abs(self.coefficient(k) - other.coefficient(k)) <= tol for k in keys)

    def __repr__(self) -> str:
        return f"PauliSum(n_qubits={self.n_qubits}, terms={len(self._terms)})"
