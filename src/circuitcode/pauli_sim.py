"""Stabiliser-tableau simulator and codeword-equation verification.

This module is the independent oracle for everything the Tanner-graph side
claims: it executes circuits on stabiliser states with exact sign tracking,
evaluates the Clifford sign of a codeword layer by layer, and checks each
codeword equation, optionally with injected Pauli errors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import codewords as cw
from .circuit import Circuit, OpKind, serialize
from .gf2 import BitVector
from .pauli import (
    PauliOperator,
    conjugate_by_cnot,
    conjugate_by_h,
    conjugate_by_pauli,
    conjugate_by_s,
)
from .tanner import TannerGraph


class Tableau:
    """Aaronson-Gottesman tableau of 2n signed Pauli rows, stored by column.

    ``x[q]`` and ``z[q]`` are bitmasks over the rows: bit i < n is
    destabiliser i and bit n + i is stabiliser i. Row k is the Pauli
    (-1)^r sigma(x, z), its sign r being bit k of the integer ``r``.
    Destabiliser i anticommutes with stabiliser i and commutes with every
    other generator (Aaronson-Gottesman, arXiv:quant-ph/0406196). Every gate
    is a few big-integer operations on the columns of its qubits, as in Stim
    (Gidney, arXiv:2103.02202, section 3).
    """

    def __init__(self, n: int):
        self.n = n
        self.x = [1 << q for q in range(n)]  # destabiliser q is X_q
        self.z = [1 << (n + q) for q in range(n)]  # stabiliser q is Z_q
        self.r = 0

    def copy(self) -> "Tableau":
        t = Tableau(0)
        t.n, t.x, t.z, t.r = self.n, self.x[:], self.z[:], self.r
        return t

    # -- gates --------------------------------------------------------------

    def apply_h(self, q: int):
        x, z = self.x[q], self.z[q]
        self.r ^= x & z
        self.x[q], self.z[q] = z, x

    def apply_s(self, q: int):
        x = self.x[q]
        self.r ^= x & self.z[q]
        self.z[q] ^= x

    def apply_cnot(self, control: int, target: int):
        x, z = self.x, self.z
        self.r ^= x[control] & z[target] & ~(x[target] ^ z[control])
        x[target] ^= x[control]
        z[control] ^= z[target]

    # No circuit operation applies a swap; kept because perfbench/tracing.py
    # wraps every ``Tableau.apply_*`` method by name.
    def apply_swap(self, a: int, b: int):
        x, z = self.x, self.z
        x[a], x[b] = x[b], x[a]
        z[a], z[b] = z[b], z[a]

    def apply_pauli(self, x_mask: int, z_mask: int):
        self.r ^= self._anticommuting(x_mask, z_mask)

    def apply_operation(self, op):
        kind = op.kind
        if kind is OpKind.H:
            self.apply_h(op.qubits[0] - 1)
        elif kind is OpKind.S:
            self.apply_s(op.qubits[0] - 1)
        elif kind is OpKind.CNOT:
            self.apply_cnot(op.qubits[0] - 1, op.qubits[1] - 1)
        elif kind is OpKind.PAULI_X:
            self.apply_pauli(1 << (op.qubits[0] - 1), 0)
        elif kind is OpKind.PAULI_Z:
            self.apply_pauli(0, 1 << (op.qubits[0] - 1))
        elif kind is OpKind.PAULI_Y:
            b = 1 << (op.qubits[0] - 1)
            self.apply_pauli(b, b)
        elif kind is OpKind.I:
            pass
        else:
            raise ValueError(f"{kind} is not a unitary operation")

    # -- measurement ----------------------------------------------------------

    def _anticommuting(self, x_mask: int, z_mask: int) -> int:
        """Mask of the rows that anticommute with sigma(x_mask, z_mask)."""
        rows = 0
        while z_mask:
            low = z_mask & -z_mask
            rows ^= self.x[low.bit_length() - 1]
            z_mask ^= low
        while x_mask:
            low = x_mask & -x_mask
            rows ^= self.z[low.bit_length() - 1]
            x_mask ^= low
        return rows

    def measure_pauli(self, p: PauliOperator, rng: random.Random | None = None) -> int:
        """Measure the Hermitian Pauli p; returns the outcome +1 or -1."""
        sign = p.sign()  # raises on imaginary phase
        s = 0 if sign == 1 else 1
        n = self.n
        anti = self._anticommuting(p.x, p.z)
        if not anti >> n:
            return self._group_sign(anti, p.x, p.z, s)
        if rng is None:
            raise ValueError("random outcome needs an rng")
        outcome = 1 if rng.random() < 0.5 else -1
        # The pivot is the lowest anticommuting stabiliser. Every other
        # anticommuting row, its own destabiliser aside, is multiplied by it.
        i = ((anti >> n) & -(anti >> n)).bit_length() - 1
        s_bit = 1 << (n + i)
        pivot = s_bit | (1 << i)
        rows = anti & ~pivot
        # Per row, the product's power of i is sum_q (a pz + b px)
        # + 2 sum_q c (mod 4), where (a, b) are the row's bits and (px, pz) the
        # pivot's on qubit q, and c is a b, a ~b or ~a b as the pivot has X, Z
        # or Y there. The first sum is counted in the bit planes lo and hi,
        # and lo ends at 0 because the rows commute with the pivot; each c
        # goes straight into hi.
        lo = hi = 0
        x, z, keep = self.x, self.z, ~pivot
        p_x, p_z, support = p.x, p.z, p.x | p.z
        for q in range(n):
            xq, zq = x[q], z[q]
            px, pz = xq & s_bit, zq & s_bit
            if px or pz:
                a, b = xq & rows, zq & rows
                if not pz:
                    add, c = b, a & b
                    xq ^= rows
                elif not px:
                    add, c = a, a & ~b
                    zq ^= rows
                else:
                    add, c = a ^ b, b & ~a
                    xq ^= rows
                    zq ^= rows
                hi ^= (lo & add) ^ c
                lo ^= add
            elif not ((xq | zq) & pivot or support >> q & 1):
                continue
            # the old pivot becomes destabiliser i, and p becomes stabiliser i
            x[q] = (xq & keep) | (px >> n) | (s_bit if p_x >> q & 1 else 0)
            z[q] = (zq & keep) | (pz >> n) | (s_bit if p_z >> q & 1 else 0)
        if lo:
            raise AssertionError("row product acquired an imaginary phase")
        r_pivot = self.r >> (n + i) & 1
        r = self.r ^ hi ^ (rows if r_pivot else 0)
        m = 0 if outcome == 1 else 1
        self.r = (r & ~pivot) | (r_pivot << i) | (((m + s) & 1) << (n + i))
        return outcome

    def measure_z(self, q: int, rng=None) -> int:
        return self.measure_pauli(PauliOperator(self.n, 0, 1 << q), rng)

    def stabilizes(self, p: PauliOperator) -> int | None:
        """Expectation of p when it is +-1; None when the expectation is 0."""
        s = 0 if p.sign() == 1 else 1
        anti = self._anticommuting(p.x, p.z)
        if anti >> self.n:
            return None
        return self._group_sign(anti, p.x, p.z, s)

    def _group_sign(self, anti: int, x: int, z: int, s: int) -> int:
        """The +-1 with which the state fixes (-1)^s sigma(x, z).

        The operator must commute with every stabiliser, so that ``anti``, its
        anticommutation mask, holds destabilisers only. It is then the product,
        in row order, of the stabilisers of those destabilisers.
        """
        n = self.n
        rows = (anti & ((1 << n) - 1)) << n
        # Power of i of the product. On one qubit, the ordered product of the
        # rows' single-qubit Paulis sigma(x_k, z_k) is i^e sigma(X, Z), with X
        # and Z the parities of the x_k and z_k, and
        # e = sum x_k z_k + 2 #{j < k: z_j = x_k = 1} - X Z.
        e = 2 * (self.r & rows).bit_count()
        gx = gz = 0
        for q in range(n):
            a, b = self.x[q] & rows, self.z[q] & rows
            if a and b:
                below = b << 1  # becomes the parity of b over the rows below
                shift = 1
                while shift < n:
                    below ^= below << shift
                    shift <<= 1
                e += (a & b).bit_count() + 2 * (a & below).bit_count()
            gx |= (a.bit_count() & 1) << q
            gz |= (b.bit_count() & 1) << q
        e -= (gx & gz).bit_count()
        if e & 1:
            raise AssertionError("row product acquired an imaginary phase")
        if gx != x or gz != z:
            raise AssertionError("operator commutes with the group but is not in it")
        return 1 if ((e >> 1) + s) & 1 == 0 else -1


def random_tableau(n: int, rng: random.Random) -> Tableau:
    """A random stabiliser state built from 12n + 6 random Clifford moves."""
    t = Tableau(n)
    for _ in range(12 * n + 6):
        r = rng.random()
        if n >= 2 and r < 0.35:
            a, b = rng.sample(range(n), 2)
            t.apply_cnot(a, b)
        elif r < 0.6:
            t.apply_h(rng.randrange(n))
        elif r < 0.85:
            t.apply_s(rng.randrange(n))
        else:
            q = rng.randrange(n)
            t.apply_pauli(1 << q if rng.random() < 0.5 else 0, 1 << q)
    return t


def state_containing(p: PauliOperator, n: int, rng: random.Random) -> Tableau:
    """A random stabiliser state whose group contains the Pauli p.

    Measures p on a random state; a -1 outcome is corrected with a Pauli
    that anticommutes with p on the lowest qubit p acts on (Z where p has an
    X part, else X), which moves the state into the +1 eigenspace.
    """
    if p.sign() != 1:
        raise ValueError("only +1 phases can be fixed")
    t = random_tableau(n, rng)
    if t.measure_pauli(p, rng=rng) == -1:
        low = (p.x | p.z) & -(p.x | p.z)
        flip = (0, low) if p.x & low else (low, 0)
        t.apply_pauli(*flip)
    return t


# ---------------------------------------------------------------------------
# Circuit execution


@dataclass
class RunResult:
    tableau: Tableau
    outcomes: dict[tuple[int, int], int] = field(default_factory=dict)


def run(
    circuit: Circuit,
    initial: Tableau | None = None,
    rng: random.Random | None = None,
    error_layers: dict[int, tuple[int, int]] | None = None,
) -> RunResult:
    """Execute a circuit on a stabiliser state.

    ``error_layers`` maps a time index t (0..depth) to an (x_mask, z_mask)
    Pauli applied after layer t.
    """
    t = initial.copy() if initial is not None else Tableau(circuit.n_qubits)
    if t.n != circuit.n_qubits:
        raise ValueError("tableau size does not match the circuit")
    outcomes: dict[tuple[int, int], int] = {}
    if error_layers and 0 in error_layers:
        x, z = error_layers[0]
        t.apply_pauli(x, z)
    for layer_no, layer in enumerate(circuit.layers, start=1):
        for op in layer:
            kind = op.kind
            if kind.is_measurement or kind.is_init:
                # an initialisation is a measurement whose -1 outcome is
                # flipped back by the anticommuting single-qubit Pauli
                q = op.qubits[0]
                b = 1 << (q - 1)
                z_basis = kind is OpKind.MEAS_Z or kind is OpKind.INIT_Z
                p = PauliOperator(t.n, 0, b) if z_basis else PauliOperator(t.n, b, 0)
                outcome = outcomes[(q, layer_no)] = t.measure_pauli(p, rng)
                if outcome == -1 and kind.is_init:
                    t.apply_pauli(p.z, p.x)
            else:
                t.apply_operation(op)
        if error_layers and layer_no in error_layers:
            x, z = error_layers[layer_no]
            t.apply_pauli(x, z)
    return RunResult(t, outcomes)


def conjugate_pauli(circuit: Circuit, p: PauliOperator) -> PauliOperator:
    """Conjugate p through a circuit of gates, tracking the exact sign."""
    if p.n != circuit.n_qubits:
        raise ValueError("operator size does not match the circuit")
    out = p
    for layer in circuit.layers:
        for op in layer:
            kind = op.kind
            if kind is OpKind.H:
                out = conjugate_by_h(out, op.qubits[0] - 1)
            elif kind is OpKind.S:
                out = conjugate_by_s(out, op.qubits[0] - 1)
            elif kind is OpKind.CNOT:
                out = conjugate_by_cnot(out, op.qubits[0] - 1, op.qubits[1] - 1)
            elif kind is OpKind.PAULI_X:
                out = conjugate_by_pauli(out, 1 << (op.qubits[0] - 1), 0)
            elif kind is OpKind.PAULI_Z:
                out = conjugate_by_pauli(out, 0, 1 << (op.qubits[0] - 1))
            elif kind is OpKind.PAULI_Y:
                b = 1 << (op.qubits[0] - 1)
                out = conjugate_by_pauli(out, b, b)
            elif kind is OpKind.I:
                pass
            else:
                raise ValueError(f"{kind.value} is not a gate")
    return out


# ---------------------------------------------------------------------------
# The Clifford sign of a codeword


def nu(circuit: Circuit, g: TannerGraph, c: BitVector) -> int:
    """Sign contributed by the Clifford gates along a codeword.

    The codeword's wire bits give the Pauli operator at every time. The
    operations of one layer act on disjoint qubits, so nu is the product over
    layers of the sign picked up by conjugating the operator at t - 1 through
    the layer's gates, with the qubits the layer measures or initialises left
    out. Each conjugate is checked against the operator at t. A gate on
    qubits where the operator is the identity leaves it the identity with
    sign +1, so only the gates that touch its support are conjugated.
    """
    if c.n != g.n_bits or g.syndrome(c):
        raise ValueError("nu needs a codeword of the circuit graph")
    n = circuit.n_qubits
    masks = g.wire_masks(c)
    sign = 1
    for t, layer in enumerate(circuit.layers, start=1):
        (x0, z0), (x1, z1) = masks[t - 1], masks[t]
        support = x0 | z0
        keep = (1 << n) - 1
        gates = []
        for op in layer:
            if op.kind.is_init or op.kind.is_measurement:
                keep &= ~(1 << (op.qubits[0] - 1))
            elif any(support >> (q - 1) & 1 for q in op.qubits):
                gates.append(op)
        out = conjugate_pauli(Circuit(n, [gates]), PauliOperator(n, x0 & keep, z0 & keep))
        if out.x != x1 & keep or out.z != z1 & keep:
            raise AssertionError(
                f"conjugated codeword operator does not match layer {t}"
            )
        sign *= out.sign()
    return sign


# ---------------------------------------------------------------------------
# Codeword-equation verification


@dataclass
class Failure:
    trial: int
    kind: str
    expected: int
    actual: int | None
    outcomes: dict[tuple[int, int], int]


@dataclass
class Verdict:
    ok: bool
    codeword_class: str
    nu_sign: int
    failures: list[Failure] = field(default_factory=list)

    def report(self, circuit: Circuit, c: BitVector, e: BitVector | None) -> str:
        lines = [
            "codeword equation " + ("verified" if self.ok else "VIOLATED"),
            f"class: {self.codeword_class}",
            f"nu: {self.nu_sign:+d}",
            f"codeword: {c.to01()}",
            f"error: {e.to01() if e is not None else '-'}",
        ]
        for f in self.failures:
            lines.append(
                f"trial {f.trial}: expected {f.expected:+d} got"
                f" {f.actual if f.actual is not None else 'indefinite'}"
                f" outcomes {sorted(f.outcomes.items())}"
            )
        lines.append("circuit:")
        lines.append(serialize(circuit))
        return "\n".join(lines)


def error_layer_masks(g: TannerGraph, e: BitVector) -> dict[int, tuple[int, int]]:
    """Spacetime error as per-time Pauli masks: x bits flip Z, z bits flip X."""
    if any(g.bits[i].kind not in ("x", "z") for i in e.support()):
        raise ValueError("spacetime errors live on wire bits")
    return {t: (z, x) for t, (x, z) in enumerate(g.wire_masks(e)) if x or z}


def verify_codeword_equation(
    circuit: Circuit,
    g: TannerGraph,
    c: BitVector,
    e: BitVector | None,
    seed: int,
    trials: int = 4,
) -> Verdict:
    """Check the codeword equation of c, optionally with a spacetime error.

    Depending on the codeword class the check asserts the sign relation
    between the relevant measurement outcomes, the Clifford sign, the error
    parity and the transported Pauli operators, on stabiliser initial states.
    """
    rng = random.Random(seed)
    n = circuit.n_qubits
    cls = cw.classify(g, c)
    sign_nu = nu(circuit, g, c)
    parity = c.dot(e) if e is not None else 0
    error_layers = error_layer_masks(g, e) if e is not None else None

    sigma_in = cw.sigma_at_layer(g, c, 0)
    sigma_out = cw.sigma_at_layer(g, c, circuit.depth)
    relevant = cw.relevant_measurements(g, c)
    relevant_keys = {(g.bits[i].q, g.bits[i].t + 1) for i in relevant}

    failures: list[Failure] = []
    for trial in range(trials):
        if sigma_in.is_identity_kind():
            initial = random_tableau(n, rng)
        else:
            initial = state_containing(sigma_in, n, rng)
        result = run(circuit, initial, rng, error_layers=error_layers)
        mu_r = 1
        for key in relevant_keys:
            mu_r *= result.outcomes[key]
        observed = (-1) ** parity * sign_nu * mu_r
        if cls in ("checker", "detector"):
            # nu * mu_R * (-1)^{c.e} equals the eigenvalue of sigma_in, which
            # the prepared state fixes to +1 (trivially so for checkers).
            if observed != 1:
                failures.append(Failure(trial, cls, 1, observed, result.outcomes))
        else:
            # emitters and propagators leave the final state in an eigenstate
            # of sigma_out with that same eigenvalue
            got = result.tableau.stabilizes(sigma_out)
            if got != observed:
                failures.append(Failure(trial, cls, observed, got, result.outcomes))
    return Verdict(not failures, cls, sign_nu, failures)
