"""Circuit intermediate representation, text format and validation.

A circuit is a list of layers; each layer is a set of primitive operations.
Qubits not mentioned in a layer implicitly idle. Indices are 1-based in the
text format and the public API.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field


class OpKind(enum.Enum):
    INIT_Z = "rz"
    INIT_X = "rx"
    MEAS_Z = "mz"
    MEAS_X = "mx"
    CNOT = "cnot"
    H = "h"
    S = "s"
    I = "i"
    PAULI_X = "x"
    PAULI_Y = "y"
    PAULI_Z = "z"


PAULI_KINDS = {OpKind.PAULI_X, OpKind.PAULI_Y, OpKind.PAULI_Z}
INIT_KINDS = {OpKind.INIT_Z, OpKind.INIT_X}
MEAS_KINDS = {OpKind.MEAS_Z, OpKind.MEAS_X}


@dataclass(frozen=True)
class Operation:
    kind: OpKind
    qubits: tuple[int, ...]

    def __post_init__(self):
        want = 2 if self.kind is OpKind.CNOT else 1
        if len(self.qubits) != want:
            raise ValueError(f"{self.kind.value} takes {want} qubit(s)")
        if want == 2 and self.qubits[0] == self.qubits[1]:
            raise ValueError(f"{self.kind.value} needs two distinct qubits")

    def text(self) -> str:
        return " ".join([self.kind.value] + [str(q) for q in self.qubits])


class CircuitError(ValueError):
    """Raised on malformed circuit text or an invalid circuit."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass
class Circuit:
    n_qubits: int
    layers: list[list[Operation]] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.layers)

    def op_on(self, qubit: int, layer_index: int) -> Operation | None:
        """The explicit operation touching `qubit` in layer `layer_index` (0-based)."""
        for op in self.layers[layer_index]:
            if qubit in op.qubits:
                return op
        return None

    def validate(self) -> list[str]:
        """All rule violations, empty when the circuit is well formed."""
        problems = []
        for t, layer in enumerate(self.layers, start=1):
            seen: set[int] = set()
            for op in layer:
                for q in op.qubits:
                    if not 1 <= q <= self.n_qubits:
                        problems.append(f"layer {t}: qubit {q} out of range 1..{self.n_qubits}")
                    if q in seen:
                        problems.append(f"layer {t}: qubit {q} used twice")
                    seen.add(q)
        # Wire discipline: gates may not follow a measurement before the next
        # initialisation, and an initialisation may not follow gates unless a
        # measurement closed the wire first. Identity and Pauli operations are
        # transparent for both rules.
        for q in range(1, self.n_qubits + 1):
            state = "open"  # open wire from t=0
            for t, layer in enumerate(self.layers, start=1):
                op = None
                for cand in layer:
                    if q in cand.qubits:
                        op = cand
                        break
                if op is None or op.kind is OpKind.I or op.kind in PAULI_KINDS:
                    continue
                if op.kind in MEAS_KINDS:
                    if state == "dead":
                        problems.append(
                            f"layer {t}: qubit {q} measured while not carrying a state"
                        )
                    state = "dead"
                elif op.kind in INIT_KINDS:
                    if state == "live":
                        problems.append(
                            f"layer {t}: qubit {q} reinitialised after gates without a measurement"
                        )
                    state = "live"
                else:  # gate
                    if state == "dead":
                        problems.append(
                            f"layer {t}: gate on qubit {q} after measurement without reinitialisation"
                        )
                    elif state == "open":
                        state = "live"
        return problems

    def check_valid(self) -> "Circuit":
        problems = self.validate()
        if problems:
            raise CircuitError("; ".join(problems))
        return self

    def live_spans(self, qubit: int) -> list[tuple[int, int, bool, bool]]:
        """Maximal live wire segments of a qubit as (t_start, t_end, opened, closed).

        Times are bit-layer indices 0..T. ``opened`` means the segment starts
        at an initialisation; ``closed`` means it ends at a measurement. Bits
        outside live segments never receive graph gadgets: a wire between a
        measurement and the next initialisation carries no state.
        """
        spans = []
        start = 0
        opened = False
        alive = True
        for t in range(1, self.depth + 1):
            op = self.op_on(qubit, t - 1)
            if op is None or op.kind is OpKind.I or op.kind in PAULI_KINDS:
                continue
            if op.kind in INIT_KINDS:
                # validate() guarantees the wire is unused here, so any open
                # segment before the init never carried a state: drop it.
                start = t
                opened = True
                alive = True
            elif op.kind in MEAS_KINDS:
                spans.append((start, t - 1, opened, True))
                alive = False
            else:
                if not alive:
                    raise CircuitError(f"gate on dead wire of qubit {qubit}")
        if alive:
            spans.append((start, self.depth, opened, False))
        return spans

    def canonical(self) -> "Circuit":
        layers = [
            sorted(layer, key=lambda op: (min(op.qubits), op.kind.value, op.qubits))
            for layer in self.layers
        ]
        return Circuit(self.n_qubits, layers)


# ---------------------------------------------------------------------------
# Text format

_TEXT_KINDS = {k.value: k for k in OpKind}

# Largest accepted qubits x (layers + 1), the number of wire-bit positions of
# a circuit. Graph construction costs time and memory per position, so larger
# circuits are rejected before anything loops over them.
MAX_WIRE_BITS = 1_000_000


def parse_circuit(text: str) -> Circuit:
    """Parse the line-oriented circuit format.

    ``qubits <n>`` header, ``tick`` separates layers, ``#`` starts a comment.
    """
    n_qubits: int | None = None
    layers: list[list[Operation]] = []
    current: list[Operation] = []
    saw_op_since_tick = False
    saw_tick = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        head = fields[0].lower()
        if head == "qubits":
            if n_qubits is not None:
                raise CircuitError("duplicate qubits header", lineno)
            if len(fields) != 2 or not fields[1].isdigit():
                raise CircuitError("usage: qubits <n>", lineno)
            n_qubits = int(fields[1])
            continue
        if n_qubits is None:
            raise CircuitError("qubits header must come first", lineno)
        if head == "tick":
            layers.append(current)
            current = []
            saw_tick = True
            saw_op_since_tick = False
            continue
        kind = _TEXT_KINDS.get(head)
        if kind is None:
            raise CircuitError(f"unknown operation {head!r}", lineno)
        want = 2 if kind is OpKind.CNOT else 1
        if len(fields) != 1 + want:
            raise CircuitError(f"{head} takes {want} qubit argument(s)", lineno)
        try:
            qubits = tuple(int(f) for f in fields[1:])
        except ValueError:
            raise CircuitError("qubit arguments must be integers", lineno) from None
        for q in qubits:
            if not 1 <= q <= n_qubits:
                raise CircuitError(f"qubit {q} out of range 1..{n_qubits}", lineno)
        try:
            op = Operation(kind, qubits)
        except ValueError as exc:
            raise CircuitError(str(exc), lineno) from None
        for prev in current:
            clash = set(prev.qubits) & set(op.qubits)
            if clash:
                raise CircuitError(f"qubit {clash.pop()} used twice in one layer", lineno)
        current.append(op)
        saw_op_since_tick = True
    if n_qubits is None:
        raise CircuitError("missing qubits header")
    if saw_op_since_tick or (current and saw_tick):
        layers.append(current)
    if n_qubits * (len(layers) + 1) > MAX_WIRE_BITS:
        raise CircuitError(
            f"{n_qubits} qubits x {len(layers) + 1} times exceeds the limit of"
            f" {MAX_WIRE_BITS} wire bits"
        )
    circuit = Circuit(n_qubits, layers).canonical()
    problems = circuit.validate()
    if problems:
        raise CircuitError(problems[0])
    return circuit


def serialize(circuit: Circuit) -> str:
    lines = [f"qubits {circuit.n_qubits}"]
    canon = circuit.canonical()
    for t, layer in enumerate(canon.layers):
        if t:
            lines.append("tick")
        for op in layer:
            lines.append(op.text())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Random circuits (fuzzing support)


def random_circuit(
    n: int,
    depth: int,
    rng: random.Random,
    p_cnot: float = 0.2,
    p_single: float = 0.4,
    p_meas: float = 0.12,
    p_init_start: float = 0.3,
    x_basis: bool = True,
) -> Circuit:
    """A random valid stabiliser circuit; dead wires are reinitialised lazily."""
    layers: list[list[Operation]] = []
    state = {}
    for q in range(1, n + 1):
        state[q] = "dead" if rng.random() < p_init_start else "open"
    for _ in range(depth):
        ops: list[Operation] = []
        used: set[int] = set()
        qubits = list(range(1, n + 1))
        rng.shuffle(qubits)
        for q in qubits:
            if q in used:
                continue
            r = rng.random()
            if state[q] == "dead":
                if r < 0.55:
                    kind = OpKind.INIT_X if (x_basis and rng.random() < 0.3) else OpKind.INIT_Z
                    ops.append(Operation(kind, (q,)))
                    used.add(q)
                    state[q] = "live"
                continue
            if r < p_cnot:
                partners = [p for p in qubits if p != q and p not in used and state[p] != "dead"]
                if partners:
                    p = rng.choice(partners)
                    ops.append(Operation(OpKind.CNOT, (q, p)))
                    used.update((q, p))
                    state[q] = state[p] = "live"
                    continue
            if r < p_cnot + p_single:
                kind = rng.choice((OpKind.H, OpKind.S, OpKind.PAULI_X, OpKind.PAULI_Z))
                ops.append(Operation(kind, (q,)))
                used.add(q)
                state[q] = "live"
            elif r < p_cnot + p_single + p_meas:
                kind = OpKind.MEAS_X if (x_basis and rng.random() < 0.3) else OpKind.MEAS_Z
                ops.append(Operation(kind, (q,)))
                used.add(q)
                state[q] = "dead"
        layers.append(ops)
    return Circuit(n, layers).canonical().check_valid()
