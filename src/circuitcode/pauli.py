"""Pauli operators in the binary (x|z) representation with exact phases.

An operator is stored as ``i^phase_exp * sigma(x, z)`` where ``sigma`` is the
Hermitian convention: ``sigma(x, z) = i^{|x & z|} X^{x_1}Z^{z_1} (x) ...``.
Products track the phase exactly, and commutation is the parity of the
symplectic product of the packed x and z masks. Conjugation by Clifford
gates is the tableau's (``pauli_sim``).
"""

from __future__ import annotations

from .gf2 import BitVector

_PHASE_STR = {0: "+", 1: "+i", 2: "-", 3: "-i"}


class PauliOperator:
    __slots__ = ("n", "x", "z", "phase_exp")

    def __init__(self, n: int, x: int = 0, z: int = 0, phase_exp: int = 0):
        mask = (1 << n) - 1 if n else 0
        self.n = n
        self.x = x & mask
        self.z = z & mask
        self.phase_exp = phase_exp & 3

    @classmethod
    def from_xz_vector(cls, b: BitVector, phase_exp: int = 0) -> "PauliOperator":
        """Build from a length-2n vector laid out as (x | z)."""
        if b.n % 2:
            raise ValueError("vector must have even length")
        n = b.n // 2
        mask = (1 << n) - 1
        return cls(n, b.bits & mask, b.bits >> n, phase_exp)

    @classmethod
    def from_label(cls, label: str, n: int) -> "PauliOperator":
        """Parse labels like ``X1``, ``Z1Z2`` or ``Y2X3`` (1-based qubits)."""
        x = z = 0
        i = 0
        s = label.strip()
        sign_exp = 0
        if s.startswith("+"):
            s = s[1:]
        elif s.startswith("-"):
            sign_exp = 2
            s = s[1:]
        while i < len(s):
            kind = s[i].upper()
            if kind not in "XYZI":
                raise ValueError(f"bad Pauli letter {s[i]!r} in {label!r}")
            i += 1
            j = i
            while j < len(s) and s[j].isdigit():
                j += 1
            if j == i:
                raise ValueError(f"missing qubit index in {label!r}")
            q = int(s[i:j])
            if not 1 <= q <= n:
                raise ValueError(f"qubit {q} out of range in {label!r}")
            bit = 1 << (q - 1)
            if kind in ("X", "Y"):
                x |= bit
            if kind in ("Z", "Y"):
                z |= bit
            i = j
        return cls(n, x, z, sign_exp)

    def xz_vector(self) -> BitVector:
        return BitVector(2 * self.n, self.x | (self.z << self.n))

    def sign(self) -> int:
        """+1 or -1; raises if the phase is imaginary."""
        if self.phase_exp == 0:
            return 1
        if self.phase_exp == 2:
            return -1
        raise ValueError("operator has an imaginary phase")

    def is_identity_kind(self) -> bool:
        return self.x == 0 and self.z == 0

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        x3 = self.x ^ other.x
        z3 = self.z ^ other.z
        # sigma(x1,z1) sigma(x2,z2) = i^m sigma(x3,z3) with m counted from the
        # XZ normal ordering: pulling X^{x2} through Z^{z1} costs (-1)^{z1.x2}.
        m = (
            (self.x & self.z).bit_count()
            + (other.x & other.z).bit_count()
            + 2 * (self.z & other.x).bit_count()
            - (x3 & z3).bit_count()
        )
        return PauliOperator(self.n, x3, z3, self.phase_exp + other.phase_exp + m)

    def commutes_with(self, other: "PauliOperator") -> bool:
        """True iff the symplectic product x.z' + z.x' is even."""
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        return not ((self.x & other.z) ^ (self.z & other.x)).bit_count() & 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PauliOperator)
            and self.n == other.n
            and self.x == other.x
            and self.z == other.z
            and self.phase_exp == other.phase_exp
        )

    def __hash__(self) -> int:
        return hash((self.n, self.x, self.z, self.phase_exp))

    def label(self) -> str:
        if self.is_identity_kind():
            body = "I"
        else:
            parts = []
            for q in range(self.n):
                xb = (self.x >> q) & 1
                zb = (self.z >> q) & 1
                if xb and zb:
                    parts.append(f"Y{q + 1}")
                elif xb:
                    parts.append(f"X{q + 1}")
                elif zb:
                    parts.append(f"Z{q + 1}")
            body = "".join(parts)
        prefix = _PHASE_STR[self.phase_exp]
        return body if prefix == "+" else prefix + body

    def __repr__(self) -> str:
        return f"PauliOperator({self.label()!r}, n={self.n})"
