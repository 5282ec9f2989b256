"""Stabiliser-tableau simulator and codeword-equation verification.

This module is the independent oracle for everything the Tanner-graph side
claims: it executes circuits on stabiliser states with exact sign tracking,
evaluates the Clifford sign of a codeword layer by layer, and checks each
codeword equation, optionally with injected Pauli errors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import or_
from typing import Sequence

from . import codewords as cw
from .circuit import Circuit, OpKind, Operation, serialize
from .gf2 import BitVector
from .pauli import PauliOperator
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

    @classmethod
    def _from_columns(cls, n: int, x: list[int], z: list[int], r: int) -> "Tableau":
        t = cls.__new__(cls)
        t.n, t.x, t.z, t.r = n, x, z, r
        return t

    def copy(self) -> "Tableau":
        return Tableau._from_columns(self.n, self.x[:], self.z[:], self.r)

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
        # Only the columns that meet the pivot change, and then p's support.
        lo = hi = 0
        x, z, keep = self.x, self.z, ~pivot
        for q, column in enumerate(map(or_, x, z)):
            if not column & pivot:
                continue
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
            # the old pivot becomes destabiliser i
            x[q] = (xq & keep) | (px >> n)
            z[q] = (zq & keep) | (pz >> n)
        # and p becomes stabiliser i
        mask = p.x
        while mask:
            low = mask & -mask
            x[low.bit_length() - 1] |= s_bit
            mask ^= low
        mask = p.z
        while mask:
            low = mask & -mask
            z[low.bit_length() - 1] |= s_bit
            mask ^= low
        if lo:
            raise AssertionError("row product acquired an imaginary phase")
        r_pivot = self.r >> (n + i) & 1
        r = self.r ^ hi ^ (rows if r_pivot else 0)
        m = 0 if outcome == 1 else 1
        self.r = (r & ~pivot) | (r_pivot << i) | (((m + s) & 1) << (n + i))
        return outcome

    def project(self, p: PauliOperator, rng: random.Random | None) -> int:
        """Measure p and return the outcome; a -1 outcome is then flipped by
        the Pauli that anticommutes with p on the lowest qubit p acts on (Z
        where p has an X part, else X), which leaves the state in the +1
        eigenspace of p."""
        outcome = self.measure_pauli(p, rng)
        if outcome == -1:
            low = (p.x | p.z) & -(p.x | p.z)
            if p.x & low:
                self.apply_pauli(0, low)
            else:
                self.apply_pauli(low, 0)
        return outcome

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
        # only the qubits where a selected row acts contribute
        xs, zs = self.x, self.z
        for q, column in enumerate(map(or_, xs, zs)):
            if not column & rows:
                continue
            a, b = xs[q] & rows, zs[q] & rows
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


def random_tableau(n: int, rng: random.Random, qubits: Sequence[int]) -> Tableau:
    """A random n-qubit stabiliser state on ``qubits`` (0-based), from
    12k + 6 random Clifford moves on those k qubits; every other qubit stays
    in |0>. On ``range(n)`` it is a random state on every qubit."""
    t = Tableau(n)
    k = len(qubits)
    for _ in range(12 * k + 6 if k else 0):
        r = rng.random()
        if k >= 2 and r < 0.35:
            a, b = rng.sample(qubits, 2)
            t.apply_cnot(a, b)
        elif r < 0.6:
            t.apply_h(qubits[rng.randrange(k)])
        elif r < 0.85:
            t.apply_s(qubits[rng.randrange(k)])
        else:
            q = qubits[rng.randrange(k)]
            t.apply_pauli(1 << q if rng.random() < 0.5 else 0, 1 << q)
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
                # an initialisation is a projection onto the +1 eigenspace
                q = op.qubits[0]
                b = 1 << (q - 1)
                z_basis = kind is OpKind.MEAS_Z or kind is OpKind.INIT_Z
                p = PauliOperator(t.n, 0, b) if z_basis else PauliOperator(t.n, b, 0)
                measure = t.project if kind.is_init else t.measure_pauli
                outcomes[(q, layer_no)] = measure(p, rng)
            else:
                t.apply_operation(op)
        if error_layers and layer_no in error_layers:
            x, z = error_layers[layer_no]
            t.apply_pauli(x, z)
    return RunResult(t, outcomes)


# ---------------------------------------------------------------------------
# The Clifford sign of a codeword


def nu(
    circuit: Circuit,
    g: TannerGraph,
    c: BitVector,
    masks: list[tuple[int, int]] | None = None,
    ops_on: list[dict[int, Operation]] | None = None,
) -> int:
    """Sign contributed by the Clifford gates along a codeword.

    The codeword's wire bits give the Pauli operator at every time. The
    operations of one layer act on disjoint qubits, so nu is the product over
    layers of the sign picked up by conjugating the operator at t - 1 through
    the layer's gates, with the qubits the layer measures or initialises left
    out. Each conjugate is checked against the operator at t. A gate on
    qubits where the operator is the identity leaves it the identity with
    sign +1, so only the operations on the qubits of the operators at t - 1
    and t are looked up, in ``ops_on``, the per-layer ``{qubit: operation}``
    index of ``circuit.wires()``; only the gates on the operator at t - 1
    are conjugated. The operator is the one row of a tableau whose columns
    on a gate's qubits are set from the masks before the gate; its sign bit
    collects the signs.

    A caller that has read c's ``g.wire_masks(c)`` after checking that c is
    a codeword passes them as ``masks``, and one that checks many codewords
    of the circuit passes the index it built once.
    """
    if masks is None:
        if c.n != g.n_bits or g.syndrome(c):
            raise ValueError("nu needs a codeword of the circuit graph")
        masks = g.wire_masks(c)
    if ops_on is None:
        ops_on = circuit.wires()[0]
    n = circuit.n_qubits
    row = Tableau._from_columns(n, [0] * n, [0] * n, 0)
    row_x, row_z = row.x, row.z
    for t, on in enumerate(ops_on, start=1):
        (x, z), (x1, z1) = masks[t - 1], masks[t]
        support = x | z
        unread = support | x1 | z1
        dropped = 0
        gates = {}
        while unread:
            low = unread & -unread
            unread ^= low
            op = on.get(low.bit_length())
            if op is None:
                continue
            if op.kind.is_init or op.kind.is_measurement:
                dropped |= low
            elif support & low:
                gates[id(op)] = op
        x &= ~dropped
        z &= ~dropped
        for op in gates.values():
            for q in op.qubits:
                row_x[q - 1], row_z[q - 1] = x >> (q - 1) & 1, z >> (q - 1) & 1
            row.apply_operation(op)
            for q in op.qubits:
                keep = ~(1 << (q - 1))
                x = x & keep | row_x[q - 1] << (q - 1)
                z = z & keep | row_z[q - 1] << (q - 1)
        if x != x1 & ~dropped or z != z1 & ~dropped:
            raise AssertionError(
                f"conjugated codeword operator does not match layer {t}"
            )
    return -1 if row.r else 1


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
    support = e.support()
    if any(g.bits[i].kind not in ("x", "z") for i in support):
        raise ValueError("spacetime errors live on wire bits")
    return {t: (z, x) for t, (x, z) in enumerate(g.wire_masks(e, support)) if x or z}


def commuting_groups(paulis: list[PauliOperator]) -> list[list[int]]:
    """The indices of the operators in groups that pairwise commute.

    First fit, in order: each operator joins the first group whose operators
    it all commutes with, or else opens a new group. The identity commutes
    with everything, so it joins the first group.
    """
    groups: list[tuple[list[int], dict[tuple[int, int], PauliOperator]]] = []
    for i, p in enumerate(paulis):
        for members, distinct in groups:
            if all(p.commutes_with(q) for q in distinct.values()):
                break
        else:
            members, distinct = [], {}
            groups.append((members, distinct))
        members.append(i)
        if p.x | p.z:
            distinct.setdefault((p.x, p.z), p)
    return [members for members, _ in groups]


class Runs:
    """Runs of a circuit shared by a group of codewords whose input operators
    pairwise commute.

    Trial k started from its own random stabiliser state, measured every
    distinct input operator other than the identity and then ran the circuit
    under ``error``. ``eigenvalues[k]`` maps each measured operator's (x, z)
    masks to its outcome: the operators commute, so the state the circuit
    started from has every one of those eigenvalues. ``ops_on`` is the
    per-layer ``{qubit: operation}`` index that ``nu`` reads.
    """

    # a plain class: a dataclass would be generated at every import
    def __init__(self, error: BitVector | None, ops_on: list[dict[int, Operation]]):
        self.error = error
        self.ops_on = ops_on
        self.results: list[RunResult] = []
        self.eigenvalues: list[dict[tuple[int, int], int]] = []


def prepare_runs(
    circuit: Circuit,
    g: TannerGraph,
    inputs: list[PauliOperator],
    e: BitVector | None,
    seed: int,
    trials: int,
) -> Runs:
    """``trials`` runs of the circuit, shared by the codewords whose input
    operators are ``inputs``, which must pairwise commute, under the
    spacetime error e (or none); the random draws come from ``seed``.

    Each run starts from a random state on the qubits that are live at
    t = 0, those whose first wire segment starts there, and |0> on the
    others. The graph has no bit on such a qubit before its initialisation,
    and that projection commutes with every operator on the other qubits, so
    the equations checked are those of a random state on every qubit. When
    every qubit is live at t = 0, the draws are those of a random state on
    ``range(n)``.
    """
    rng = random.Random(seed)
    error_layers = error_layer_masks(g, e) if e is not None else None
    distinct = {(p.x, p.z): p for p in inputs if p.x | p.z}
    ops_on, spans = circuit.wires()
    live = [q for q, q_spans in enumerate(spans) if q_spans and q_spans[0][0] == 0]
    runs = Runs(e, ops_on)
    for _ in range(trials):
        state = random_tableau(circuit.n_qubits, rng, live)
        runs.eigenvalues.append({key: state.measure_pauli(p, rng) for key, p in distinct.items()})
        runs.results.append(run(circuit, state, rng, error_layers=error_layers))
    return runs


def verify_codeword_equation(
    circuit: Circuit,
    g: TannerGraph,
    c: BitVector,
    e: BitVector | None,
    seed: int,
    trials: int = 4,
    runs: Runs | None = None,
    support: list[int] | None = None,
) -> Verdict:
    """Check the codeword equation of c, optionally with a spacetime error.

    Depending on the codeword class the check asserts the sign relation
    between the relevant measurement outcomes, the Clifford sign, the error
    parity, the transported Pauli operators and the eigenvalue of the input
    operator, on every run of ``runs``: those ``prepare_runs`` made for a
    group of codewords that holds c, under the same error e. Without
    ``runs``, c is a group of one, run ``trials`` times from ``seed``. The
    syndrome, wire masks and relevant measurements are read from one walk of
    c's support, ``support`` when the caller has made it.
    """
    if support is None:
        support = c.support()
    masks = g.wire_masks(c, support)
    cls = cw.classify(g, c, masks, support)
    sigma_in = PauliOperator(g.n_qubits, *masks[0])
    if runs is None:
        runs = prepare_runs(circuit, g, [sigma_in], e, seed, trials)
    if runs.error != e:
        raise ValueError("the runs were made under another error")
    key_in = (sigma_in.x, sigma_in.z)
    if key_in != (0, 0) and any(key_in not in values for values in runs.eigenvalues):
        raise ValueError("the runs did not measure the codeword's input operator")
    sign_nu = nu(circuit, g, c, masks, runs.ops_on)
    parity = c.dot(e) if e is not None else 0
    sigma_out = PauliOperator(g.n_qubits, *masks[circuit.depth])
    relevant = cw.relevant_measurements(g, c, support)
    relevant_keys = {(g.bits[i].q, g.bits[i].t + 1) for i in relevant}

    failures: list[Failure] = []
    for trial, (result, eigenvalues) in enumerate(zip(runs.results, runs.eigenvalues)):
        eigenvalue = eigenvalues.get(key_in, 1)
        mu_r = 1
        for key in relevant_keys:
            mu_r *= result.outcomes[key]
        observed = (-1) ** parity * sign_nu * mu_r
        if cls in (cw.CHECKER, cw.DETECTOR):
            # nu * mu_R * (-1)^{c.e} equals the eigenvalue of sigma_in, which
            # is +1 for a checker, whose sigma_in is the identity
            if observed != eigenvalue:
                failures.append(Failure(trial, cls, eigenvalue, observed, result.outcomes))
        else:
            # emitters and propagators leave the final state in an eigenstate
            # of sigma_out, with that value times the eigenvalue of sigma_in
            want = observed * eigenvalue
            got = result.tableau.stabilizes(sigma_out)
            if got != want:
                failures.append(Failure(trial, cls, want, got, result.outcomes))
    return Verdict(not failures, cls, sign_nu, failures)
