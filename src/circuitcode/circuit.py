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
    """Operation kinds. ``value`` is the text token; the other attributes say
    how many qubits the kind acts on, whether it initialises or measures, and
    whether it is a wire: an identity up to sign (``i``, ``x``, ``y``, ``z``).
    """

    # (token, arity, is_init, is_measurement, is_wire)
    INIT_Z = ("rz", 1, True, False, False)
    INIT_X = ("rx", 1, True, False, False)
    MEAS_Z = ("mz", 1, False, True, False)
    MEAS_X = ("mx", 1, False, True, False)
    CNOT = ("cnot", 2, False, False, False)
    H = ("h", 1, False, False, False)
    S = ("s", 1, False, False, False)
    I = ("i", 1, False, False, True)
    PAULI_X = ("x", 1, False, False, True)
    PAULI_Y = ("y", 1, False, False, True)
    PAULI_Z = ("z", 1, False, False, True)

    def __new__(cls, token, arity, is_init, is_measurement, is_wire):
        member = object.__new__(cls)
        member._value_ = token
        member.arity = arity
        member.is_init = is_init
        member.is_measurement = is_measurement
        member.is_wire = is_wire
        return member

    # members are singletons compared by identity; the C identity hash keeps
    # lookups keyed by kind (the gadget tables) out of Enum's Python __hash__
    __hash__ = object.__hash__


@dataclass(frozen=True)
class Operation:
    kind: OpKind
    qubits: tuple[int, ...]

    def __post_init__(self):
        want = self.kind.arity
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


# a live wire segment: (t_start, t_end, opened, closed), see Circuit.wires
Span = tuple[int, int, bool, bool]


@dataclass
class Circuit:
    n_qubits: int
    layers: list[list[Operation]] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.layers)

    def validate(self) -> list[str]:
        """All rule violations, empty when the circuit is well formed."""
        return self._walk_wires()[0]

    def check_valid(self) -> "Circuit":
        self.wires()
        return self

    def wires(self) -> tuple[list[dict[int, Operation]], list[list[Span]]]:
        """The per-layer ``{qubit: operation}`` index and every qubit's live
        wire segments (entry q - 1), from one walk.

        A segment is (t_start, t_end, opened, closed) in bit-layer indices
        0..T. ``opened`` means the segment starts at an initialisation;
        ``closed`` means it ends at a measurement. Bits outside live segments
        never receive graph gadgets: a wire between a measurement and the next
        initialisation carries no state. A circuit that breaks any rule raises
        ``CircuitError`` with every problem ``validate()`` reports.
        """
        problems, on, spans = self._walk_wires()
        if problems:
            raise CircuitError("; ".join(problems))
        return on, spans

    def _walk_wires(self) -> tuple[list[str], list[dict[int, Operation]], list[list[Span]]]:
        """One walk: rule violations, the per-layer index and live segments.

        Each layer is indexed once, where qubit range and reuse are checked;
        the first operation on a qubit wins. Then one walk per qubit checks
        the wire rules: gates may not follow a measurement before the next
        initialisation, and an initialisation may not follow gates unless a
        measurement closed the wire first. Wire operations (identity and
        Paulis) are transparent for both rules.
        """
        problems = []
        on: list[dict[int, Operation]] = []
        for t, layer in enumerate(self.layers, start=1):
            index: dict[int, Operation] = {}
            for op in layer:
                for q in op.qubits:
                    if not 1 <= q <= self.n_qubits:
                        problems.append(f"layer {t}: qubit {q} out of range 1..{self.n_qubits}")
                    if q in index:
                        problems.append(f"layer {t}: qubit {q} used twice")
                    else:
                        index[q] = op
            on.append(index)
        all_spans = []
        for q in range(1, self.n_qubits + 1):
            spans = []
            state = "open"  # open wire from t=0
            start = 0
            opened = False
            for t, index in enumerate(on, start=1):
                op = index.get(q)
                if op is None or op.kind.is_wire:
                    continue
                if op.kind.is_measurement:
                    if state == "dead":
                        problems.append(
                            f"layer {t}: qubit {q} measured while not carrying a state"
                        )
                    spans.append((start, t - 1, opened, True))
                    state = "dead"
                elif op.kind.is_init:
                    if state == "live":
                        problems.append(
                            f"layer {t}: qubit {q} reinitialised after gates without a measurement"
                        )
                    # the wire is unused before the init, so any open segment
                    # there never carried a state: drop it
                    start, opened, state = t, True, "live"
                elif state == "dead":
                    problems.append(
                        f"layer {t}: gate on qubit {q} after measurement without reinitialisation"
                    )
                else:
                    state = "live"
            if state != "dead":
                spans.append((start, self.depth, opened, False))
            all_spans.append(spans)
        return problems, on, all_spans

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
    position: dict[int, int] = {}  # qubit -> index of its operation in current
    saw_op_since_tick = False
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
            position = {}
            saw_op_since_tick = False
            continue
        kind = _TEXT_KINDS.get(head)
        if kind is None:
            raise CircuitError(f"unknown operation {head!r}", lineno)
        want = kind.arity
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
        earlier = [position[q] for q in qubits if q in position]
        if earlier:
            clash = set(current[min(earlier)].qubits) & set(qubits)
            raise CircuitError(f"qubit {clash.pop()} used twice in one layer", lineno)
        position.update((q, len(current)) for q in qubits)
        current.append(op)
        saw_op_since_tick = True
    if n_qubits is None:
        raise CircuitError("missing qubits header")
    if saw_op_since_tick:
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
    if canon.layers and not canon.layers[-1]:
        lines.append("tick")  # the parser ends the last layer at its last op
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
