"""Stabiliser-tableau simulator and codeword-equation verification.

This module is the independent oracle for everything the Tanner-graph side
claims: it executes circuits on stabiliser states with exact sign tracking,
evaluates the Clifford sign of a codeword layer by layer, and checks each
codeword equation, optionally with injected Pauli errors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .circuit import Circuit, INIT_KINDS, MEAS_KINDS, OpKind
from .gf2 import BitVector
from .pauli import (
    PauliOperator,
    conjugate_by_cnot,
    conjugate_by_h,
    conjugate_by_pauli,
    conjugate_by_s,
)
from .tanner import TannerGraph


def _phase_product(x1, z1, x2, z2):
    """Exponent of i in sigma(x1,z1) sigma(x2,z2) relative to sigma(x3,z3)."""
    x3, z3 = x1 ^ x2, z1 ^ z2
    return (
        (x1 & z1).bit_count()
        + (x2 & z2).bit_count()
        + 2 * (z1 & x2).bit_count()
        - (x3 & z3).bit_count()
    ) % 4


class Tableau:
    """Aaronson-Gottesman tableau: destabiliser and stabiliser rows with signs.

    Row i of ``stab`` is the Pauli (-1)^r sigma(x, z); destabiliser i
    anticommutes with stabiliser i and commutes with every other generator.
    """

    def __init__(self, n: int):
        self.n = n
        self.destab = [[1 << i, 0, 0] for i in range(n)]  # X_i
        self.stab = [[0, 1 << i, 0] for i in range(n)]  # Z_i

    def copy(self) -> "Tableau":
        t = Tableau(self.n)
        t.destab = [row[:] for row in self.destab]
        t.stab = [row[:] for row in self.stab]
        return t

    # -- gates --------------------------------------------------------------

    def _rows(self):
        yield from self.destab
        yield from self.stab

    def apply_h(self, q: int):
        bit = 1 << q
        for row in self._rows():
            x, z, r = row
            if x & z & bit:
                row[2] = r ^ 1
            xb, zb = x & bit, z & bit
            row[0] = (x & ~bit) | (bit if zb else 0)
            row[1] = (z & ~bit) | (bit if xb else 0)

    def apply_s(self, q: int):
        bit = 1 << q
        for row in self._rows():
            x, z, r = row
            if x & z & bit:
                row[2] = r ^ 1
            if x & bit:
                row[1] = z ^ bit

    def apply_cnot(self, control: int, target: int):
        cb, tb = 1 << control, 1 << target
        for row in self._rows():
            x, z, r = row
            if (x & cb) and (z & tb):
                xt = 1 if x & tb else 0
                zc = 1 if z & cb else 0
                if xt ^ zc ^ 1:
                    row[2] = r ^ 1
            if x & cb:
                row[0] = x ^ tb
            if z & tb:
                row[1] = z ^ cb

    # No circuit operation applies a swap; kept because perfbench/tracing.py
    # wraps every ``Tableau.apply_*`` method by name.
    def apply_swap(self, a: int, b: int):
        ab, bb = 1 << a, 1 << b
        for row in self._rows():
            for idx in (0, 1):
                v = row[idx]
                va, vb = v & ab, v & bb
                v &= ~(ab | bb)
                if va:
                    v |= bb
                if vb:
                    v |= ab
                row[idx] = v

    def apply_pauli(self, x_mask: int, z_mask: int):
        for row in self._rows():
            x, z, r = row
            if ((x & z_mask).bit_count() + (z & x_mask).bit_count()) & 1:
                row[2] = r ^ 1

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

    # -- row algebra ----------------------------------------------------------

    @staticmethod
    def _mul_rows(a, b):
        x1, z1, r1 = a
        x2, z2, r2 = b
        m = _phase_product(x1, z1, x2, z2)
        total = (2 * r1 + 2 * r2 + m) % 4
        if total & 1:
            raise AssertionError("row product acquired an imaginary phase")
        return [x1 ^ x2, z1 ^ z2, total // 2]

    @staticmethod
    def _anticommute(row, x, z) -> bool:
        return bool(((row[0] & z).bit_count() + (row[1] & x).bit_count()) & 1)

    # -- measurement ----------------------------------------------------------

    def measure_pauli(self, p: PauliOperator, rng: random.Random | None = None) -> int:
        """Measure the Hermitian Pauli p; returns the outcome +1 or -1."""
        sign = p.sign()  # raises on imaginary phase
        s = 0 if sign == 1 else 1
        x, z = p.x, p.z
        pivot = None
        for i in range(self.n):
            if self._anticommute(self.stab[i], x, z):
                pivot = i
                break
        if pivot is not None:
            if rng is None:
                raise ValueError("random outcome needs an rng")
            outcome = 1 if rng.random() < 0.5 else -1
            old = self.stab[pivot][:]
            for i in range(self.n):
                if i != pivot and self._anticommute(self.stab[i], x, z):
                    self.stab[i] = self._mul_rows(self.stab[i], old)
                if self._anticommute(self.destab[i], x, z) and i != pivot:
                    self.destab[i] = self._mul_rows(self.destab[i], old)
            self.destab[pivot] = old
            m = 0 if outcome == 1 else 1
            self.stab[pivot] = [x, z, (m + s) & 1]
            return outcome
        return self._group_sign(x, z, s)

    def measure_z(self, q: int, rng=None) -> int:
        return self.measure_pauli(PauliOperator(self.n, 0, 1 << q), rng)

    def stabilizes(self, p: PauliOperator) -> int | None:
        """Expectation of p when it is +-1; None when the expectation is 0."""
        s = 0 if p.sign() == 1 else 1
        for i in range(self.n):
            if self._anticommute(self.stab[i], p.x, p.z):
                return None
        return self._group_sign(p.x, p.z, s)

    def _group_sign(self, x: int, z: int, s: int) -> int:
        """The +-1 with which the state fixes (-1)^s sigma(x, z).

        The operator must commute with every stabiliser: it is then the
        product of the stabilisers whose destabilisers anticommute with it.
        """
        acc = [0, 0, 0]
        for i in range(self.n):
            if self._anticommute(self.destab[i], x, z):
                acc = self._mul_rows(acc, self.stab[i])
        if acc[0] != x or acc[1] != z:
            raise AssertionError("operator commutes with the group but is not in it")
        return 1 if ((acc[2] + s) & 1) == 0 else -1

    def invariants_ok(self) -> bool:
        for i in range(self.n):
            for j in range(self.n):
                if self._anticommute(self.stab[i], self.stab[j][0], self.stab[j][1]):
                    return False
                anti = self._anticommute(self.destab[i], self.stab[j][0], self.stab[j][1])
                if anti != (i == j):
                    return False
        return True


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
            if kind in MEAS_KINDS or kind in INIT_KINDS:
                # an initialisation is a measurement whose -1 outcome is
                # flipped back by the anticommuting single-qubit Pauli
                q = op.qubits[0]
                b = 1 << (q - 1)
                z_basis = kind is OpKind.MEAS_Z or kind is OpKind.INIT_Z
                p = PauliOperator(t.n, 0, b) if z_basis else PauliOperator(t.n, b, 0)
                outcome = outcomes[(q, layer_no)] = t.measure_pauli(p, rng)
                if outcome == -1 and kind in INIT_KINDS:
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
    out. Each conjugate is checked against the operator at t.
    """
    a = g.check_matrix()
    if c.n != g.n_bits or not a.mul_vec(c).is_zero():
        raise ValueError("nu needs a codeword of the circuit graph")
    n = circuit.n_qubits
    masks = g.wire_masks(c)
    sign = 1
    for t, layer in enumerate(circuit.layers, start=1):
        keep = (1 << n) - 1
        gates = []
        for op in layer:
            if op.kind in INIT_KINDS or op.kind in MEAS_KINDS:
                keep &= ~(1 << (op.qubits[0] - 1))
            else:
                gates.append(op)
        (x0, z0), (x1, z1) = masks[t - 1], masks[t]
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
        from .circuit import serialize

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
    from . import codewords as cw

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
