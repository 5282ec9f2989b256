"""Tanner graphs of stabiliser circuits.

Builds the plain bipartite graph of a circuit from per-operation gadgets,
splits bits, and restores bit-check symmetry with an explicit witness
(deleting matrix plus dual pairing).

Bit vertices carry (kind, qubit, time) labels; x and z bits of layer t
represent the binary components of the Pauli operator at time t. Check rows
encode the operation constraints: for a gate row i of (M | 1), the output
bit i equals the masked sum of input bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from .circuit import Circuit, OpKind
from .gf2 import BitMatrix, BitVector


class VertexLabel(NamedTuple):
    kind: str  # 'x', 'z' wire bits; 's' split-auxiliary bits
    q: int
    t: int
    serial: int = 0
    is_measurement: bool = False
    is_initialisation: bool = False

    @property
    def name(self) -> str:
        if self.kind == "s":
            return f"s{self.serial}"
        return f"{self.kind}[{self.q},{self.t}]"

    def key(self) -> tuple:
        return (self.kind, self.q, self.t, self.serial)


@dataclass(frozen=True)
class SideInfo:
    """Terminal bookkeeping for one qubit side (in/out) of a gadget."""

    side: str  # 'in' | 'out'
    short_bit: int
    long_bit: int
    pair_check: int


@dataclass
class GadgetRec:
    checks: list[int]
    sides: list[SideInfo]


class TannerGraph:
    def __init__(
        self,
        bits: list[VertexLabel],
        checks: list[tuple[int, ...]],
        n_qubits: int | None = None,
        depth: int | None = None,
        gadgets: list[GadgetRec] | Callable[[], list[GadgetRec]] | None = None,
    ):
        self.bits = bits
        self.checks = [tuple(sorted(c)) for c in checks]
        self.n_qubits = n_qubits
        self.depth = depth
        self._gadgets = gadgets
        # memoised on the assumption that a graph is not mutated once built
        self._matrix: BitMatrix | None = None
        self._kernel: BitMatrix | None = None
        self._index: dict[tuple, int] | None = None
        self._bit_checks: list[list[int]] | None = None

    @property
    def gadgets(self) -> list[GadgetRec] | None:
        """The gadget records of a plain graph, None for any other graph;
        ``build_plain`` passes a function that builds them on first read."""
        if callable(self._gadgets):
            self._gadgets = self._gadgets()
        return self._gadgets

    @property
    def n_bits(self) -> int:
        return len(self.bits)

    @property
    def n_checks(self) -> int:
        return len(self.checks)

    def check_matrix(self) -> BitMatrix:
        if self._matrix is None:
            rows = []
            for c in self.checks:
                bits = 0
                for j in c:
                    bits |= 1 << j
                rows.append(bits)
            self._matrix = BitMatrix(len(rows), len(self.bits), rows)
        return self._matrix

    def kernel_basis(self) -> BitMatrix:
        """RREF basis of the codewords, ker A, from one ``sweep_checks``: the
        null space of the closing sums over the sources, carried to the bits
        through the sources' columns. Its largest matrix is sources x bits,
        not the checks x bits of A."""
        if self._kernel is None:
            values: list[int | None] = [None] * self.n_bits
            free, closing = sweep_checks(self.checks, values, 0)
            relations = BitMatrix(len(closing), len(free), closing)
            columns = BitMatrix(self.n_bits, len(free), values).transpose()
            self._kernel = relations.kernel_basis().matmul(columns).rref()
        return self._kernel

    def bit_index(self, kind: str, q: int, t: int, serial: int = 0) -> int | None:
        if self._index is None:
            # lab[:4] is lab.key() without the method call
            self._index = {lab[:4]: i for i, lab in enumerate(self.bits)}
        return self._index.get((kind, q, t, serial))

    def _adjacency(self) -> list[list[int]]:
        """The checks of every bit, in increasing check index."""
        if self._bit_checks is None:
            self._bit_checks = [[] for _ in self.bits]
            for k, c in enumerate(self.checks):
                for j in c:
                    self._bit_checks[j].append(k)
        return self._bit_checks

    def bit_degree(self, i: int) -> int:
        return len(self._adjacency()[i])

    def bit_neighbors(self, i: int) -> list[int]:
        return list(self._adjacency()[i])

    def syndrome(self, v: BitVector, support: Sequence[int] | None = None) -> int:
        """A v^T as a mask over the checks: the checks with an odd number of
        bits in v's support, read from the bit->checks adjacency. A caller
        that has walked ``v.support()`` passes it as ``support``."""
        if v.n != self.n_bits:
            raise ValueError("length mismatch")
        adjacency = self._adjacency()
        odd: set[int] = set()
        for i in v.support() if support is None else support:
            odd.symmetric_difference_update(adjacency[i])
        return sum(1 << k for k in odd)

    def layer_bits(self, t: int) -> list[int]:
        return [
            i
            for i, lab in enumerate(self.bits)
            if lab.kind in ("x", "z") and lab.t == t
        ]

    def wire_masks(
        self, v: BitVector, support: Sequence[int] | None = None
    ) -> list[tuple[int, int]]:
        """(x, z) qubit masks of the wire bits set in v, one pair per time
        0..depth; ``support`` is ``v.support()`` when the caller has walked it."""
        if self.depth is None:
            raise ValueError("graph has no layer structure")
        if v.n != self.n_bits:
            raise ValueError("length mismatch")
        xs = [0] * (self.depth + 1)
        zs = [0] * (self.depth + 1)
        for i in v.support() if support is None else support:
            lab = self.bits[i]
            if lab.kind == "x":
                xs[lab.t] |= 1 << (lab.q - 1)
            elif lab.kind == "z":
                zs[lab.t] |= 1 << (lab.q - 1)
        return list(zip(xs, zs))

    def boundaries(self, m: BitMatrix) -> tuple[BitMatrix, BitMatrix]:
        """The (x|z) operator matrices of the rows of m at t = 0 and t = depth,
        one row per row of m: the columns of m at the layer's wire bits, zero
        where a wire carries no bit."""
        if self.depth is None:
            raise ValueError("graph has no layer structure")
        if m.n_cols != self.n_bits:
            raise ValueError("length mismatch")
        columns = m.transpose().rows
        out = []
        for t in (0, self.depth):
            indices = (self.bit_index(k, q, t) for k in "xz" for q in range(1, self.n_qubits + 1))
            gathered = [0 if i is None else columns[i] for i in indices]
            out.append(BitMatrix(len(gathered), m.n_rows, gathered).transpose())
        return out[0], out[1]

    def max_degree(self) -> int:
        degrees = [len(c) for c in self.checks] + [len(c) for c in self._adjacency()]
        return max(degrees, default=0)


def sweep_checks(
    checks: Iterable[Sequence[int]], values: list[int | None], n_sources: int
) -> tuple[list[int], list[int]]:
    """Walk the checks in order, writing each bit's value as a sum of sources.

    ``values[j]`` is bit j's value, a mask over the sources, or None while
    it is unset; the bits the caller set are seeds over sources 0 ..
    n_sources - 1. Each check lists its bits in increasing order, each once.
    In a check, every unset bit but the highest becomes a new source and the
    highest is set to the sum of the others, so the check holds whatever the
    sources are. A check with no unset bit closes: its sum must vanish. A
    bit in no check becomes a source at the end.

    Returns the bits that became sources, in order (bit ``free[k]`` is
    source n_sources + k), and the sum of each closing check. The codewords
    are the values on the assignments of the sources that zero every closing
    sum. Plain graphs close only at measurements, and their sources are the
    t = 0 and initialised bits.
    """
    free: list[int] = []
    closing: list[int] = []
    for members in checks:
        acc = 0
        last = -1
        for j in members:
            v = values[j]
            if v is None:
                if last >= 0:
                    values[last] = v = 1 << (n_sources + len(free))
                    free.append(last)
                    acc ^= v
                last = j
            else:
                acc ^= v
        if last >= 0:
            values[last] = acc
        else:
            closing.append(acc)
    for j, v in enumerate(values):
        if v is None:
            values[j] = 1 << (n_sources + len(free))
            free.append(j)
    return free, closing


@dataclass
class CodeMaps:
    """Linear maps between codeword spaces and error spaces of two graphs.

    Both are kept as supports over the source bits, one per target bit: in
    every codeword c of the source graph, target bit i of ``codeword(c)``
    is the sum of c over ``codeword[i]``, and target bit i of ``error(e)``
    is e at the one source bit of ``error[i]``, or 0 when it is empty. So
    c . e = codeword(c) . error(e), and weights are preserved, when every
    source bit has one carrier. Bit splitting, symmetrisation, symmetric
    splitting and synthesis all return one.
    """

    codeword: list[Sequence[int]]
    error: list[Sequence[int]]

    def map_columns(self, columns: Sequence[int]) -> list[int]:
        """The columns of a matrix of source codewords -> those of its image:
        target column i is the XOR of ``columns`` over ``codeword[i]``."""
        out = []
        for support in self.codeword:
            acc = 0
            for s in support:
                acc ^= columns[s]
            out.append(acc)
        return out

    def map_matrix(self, m: BitMatrix) -> BitMatrix:
        """Map every row of ``m`` (a codeword of the source graph)."""
        columns = self.map_columns(m.transpose().rows)
        return BitMatrix(len(columns), m.n_rows, columns).transpose()


@dataclass
class SymmetryWitness:
    """Dual pairing check -> bit plus the long-terminal set."""

    dual: dict[int, int]
    long_terminals: frozenset[int]

    def check_of_bit(self) -> dict[int, int]:
        return {b: c for c, b in self.dual.items()}


# ---------------------------------------------------------------------------
# Gadget table

# One gadget per operation kind, and one per short input kind ("x" or "z") of
# a wire kind. A row lists (bit kind, qubit slot, time offset) references:
# slot i is the operation's i-th qubit, offset 0 the layer's input time t - 1
# and offset 1 its output time t. A gate row of (M | 1) says that its output
# bit equals the masked sum of its input bits. The last reference of every
# row is the output bit it constrains, and names the row. A side is (slot,
# side, short kind, kind of the paired row): the short terminal of one qubit
# side, and the row on the same qubit whose check the side pairs with. The
# pairings make the deleted check matrix A.D symmetric for every composition
# of gadgets, including across bit splits at asymmetric merges.
_WIRE_ROWS = ((("x", 0, 0), ("x", 0, 1)), (("z", 0, 0), ("z", 0, 1)))
_WIRE_SIDES = {
    "x": ((0, "in", "x", "z"), (0, "out", "z", "x")),
    "z": ((0, "in", "z", "x"), (0, "out", "x", "z")),
}

GADGETS = {
    (OpKind.CNOT, None): (
        (
            (("x", 0, 0), ("x", 0, 1)),
            (("x", 0, 0), ("x", 1, 0), ("x", 1, 1)),
            (("z", 0, 0), ("z", 1, 0), ("z", 0, 1)),
            (("z", 1, 0), ("z", 1, 1)),
        ),
        ((0, "in", "x", "z"), (0, "out", "z", "x"), (1, "in", "z", "x"), (1, "out", "x", "z")),
    ),
    (OpKind.H, None): (
        ((("z", 0, 0), ("x", 0, 1)), (("x", 0, 0), ("z", 0, 1))),
        ((0, "in", "z", "z"), (0, "out", "z", "x")),
    ),
    (OpKind.S, None): (
        ((("x", 0, 0), ("x", 0, 1)), (("x", 0, 0), ("z", 0, 0), ("z", 0, 1))),
        ((0, "in", "x", "z"), (0, "out", "z", "x")),
    ),
    (OpKind.INIT_Z, None): (((("x", 0, 1),),), ((0, "out", "z", "x"),)),
    (OpKind.INIT_X, None): (((("z", 0, 1),),), ((0, "out", "x", "z"),)),
    (OpKind.MEAS_Z, None): (((("x", 0, 0),),), ((0, "in", "z", "x"),)),
    (OpKind.MEAS_X, None): (((("z", 0, 0),),), ((0, "in", "x", "z"),)),
    **{
        (kind, orient): (_WIRE_ROWS, sides)
        for kind in OpKind
        if kind.is_wire
        for orient, sides in _WIRE_SIDES.items()
    },
}

# short terminal kind of each (kind, slot, side) of a non-wire gadget
_SHORT = {
    (kind, slot, side): short
    for (kind, orient), (_, sides) in GADGETS.items()
    if orient is None
    for slot, side, short, _ in sides
}


def _other(kind: str) -> str:
    return "z" if kind == "x" else "x"


def _compile(rows, sides):
    """A gadget as build_plain reads it, its references resolved to positions.

    A reference becomes (position, slot), where position 2 * offset + (kind
    is z) picks one of the four bit kinds of a layer. A side becomes (slot,
    side, short position, long position, index of the paired row).
    """
    names = [row[-1][:2] for row in rows]
    emit_sides = []
    for slot, side, short, pair in sides:
        dt = 2 * (side == "out")
        emit_sides.append(
            (slot, side, dt + (short == "z"), dt + (short == "x"), names.index((pair, slot)))
        )
    return (
        tuple(tuple((2 * dt + (kind == "z"), slot) for kind, slot, dt in row) for row in rows),
        tuple(emit_sides),
    )


_EMIT = {key: _compile(*gadget) for key, gadget in GADGETS.items()}


# ---------------------------------------------------------------------------
# Plain graph construction


def build_plain(circuit: Circuit) -> TannerGraph:
    """Plain Tanner graph: one gadget per operation.

    Wire segments that carry no state (before a first initialisation, between
    a measurement and the following initialisation, after a final
    measurement) receive no bits and no gadgets; identity and Pauli operations
    on such segments are sign bookkeeping only. Every bit of a live segment
    lies on a gadget row or is a flagged initialisation or measurement bit,
    so a circuit with at least one layer has no isolated bit.
    """
    on, spans = circuit.wires()
    n, T = circuit.n_qubits, circuit.depth
    if T == 0:
        return TannerGraph([], [], n, 0, [])

    # one walk per live segment: the live qubits of each time, the gadgets of
    # each layer, and the initialised and measured bits. Qubits are walked in
    # increasing order, so each layer's gadgets come in the order their checks
    # are numbered. A wire gadget is short on the other kind to the short
    # output before it; with no opener, the segment's first gate or closer
    # decides.
    live: list[list[int]] = [[] for _ in range(T + 1)]
    gadget: list[list[tuple]] = [[] for _ in range(T + 1)]
    initialised: set[tuple[str, int, int]] = set()
    measured: set[tuple[str, int, int]] = set()
    for q, q_spans in enumerate(spans, start=1):
        for t0, t1, opened, closed in q_spans:
            for t in range(t0, t1 + 1):
                live[t].append(q)
            opener = on[t0 - 1][q] if opened else None
            closer = on[t1][q] if closed else None
            if opener:
                out = _SHORT[opener.kind, 0, "out"]
                initialised.add((out, q, t0))
                gadget[t0].append(((q,), _EMIT[opener.kind, None]))
            else:
                inner = (on[t - 1].get(q) for t in range(t0 + 1, t1 + 1))
                first = next((op for op in inner if op and not op.kind.is_wire), closer)
                out = _other(_SHORT[first.kind, first.qubits.index(q), "in"] if first else "x")
            for t in range(t0 + 1, t1 + 1):
                op = on[t - 1].get(q)
                if op is None or op.kind.is_wire:
                    gadget[t].append(((q,), _EMIT[op.kind if op else OpKind.I, _other(out)]))
                else:
                    out = _SHORT[op.kind, op.qubits.index(q), "out"]
                    if q == min(op.qubits):  # a CNOT is emitted at its lower qubit
                        gadget[t].append((op.qubits, _EMIT[op.kind, None]))
            if closer:
                measured.add((_SHORT[closer.kind, 0, "in"], q, t1))
                gadget[t1 + 1].append(((q,), _EMIT[closer.kind, None]))

    # wire bits, ordered by (t, kind, q): per layer x1..xn then z1..zn;
    # index[2 * t + k][q] is the bit of kind "xz"[k] on qubit q at time t.
    # Labels are made as plain tuples, then the flagged few are replaced.
    bits: list[VertexLabel] = []
    index: list[list[int | None]] = []
    make = tuple.__new__
    for t in range(T + 1):
        for kind in ("x", "z"):
            at: list[int | None] = [None] * (n + 1)
            for q in live[t]:
                at[q] = len(bits)
                bits.append(make(VertexLabel, (kind, q, t, 0, False, False)))
            index.append(at)
    for key in measured | initialised:
        kind, q, t = key
        bits[index[2 * t + (kind == "z")][q]] = VertexLabel(
            kind, q, t, 0, key in measured, key in initialised
        )

    checks: list[tuple[int, ...]] = []
    for t in range(1, T + 1):
        at = index[2 * t - 2 : 2 * t + 2]
        for qubits, (rows, _) in gadget[t]:
            for row in rows:
                checks.append(tuple([at[off][qubits[slot]] for off, slot in row]))
    return TannerGraph(bits, checks, n, T, lambda: _gadget_records(gadget, index))


def _gadget_records(
    gadget: list[list[tuple]], index: list[list[int | None]]
) -> list[GadgetRec]:
    """The records of build_plain's gadgets, whose checks it numbered in this
    order; only symmetrisation reads them."""
    records = []
    first = 0
    for t in range(1, len(gadget)):
        at = index[2 * t - 2 : 2 * t + 2]
        for qubits, (rows, sides) in gadget[t]:
            records.append(GadgetRec(list(range(first, first + len(rows))), [
                SideInfo(side, at[short][qubits[slot]], at[long][qubits[slot]], first + pair)
                for slot, side, short, long, pair in sides
            ]))
            first += len(rows)
    return records


# ---------------------------------------------------------------------------
# Bit splitting


def bit_split(
    g: TannerGraph,
    v: int,
    partition: tuple[list[int], list[int]],
) -> tuple[TannerGraph, CodeMaps]:
    """Split bit v: checks in N2 move to a fresh bit tied back by a new check.

    Returns the new graph and the codeword/error maps into it. The codeword
    map duplicates the value of v onto the new bit; the error map leaves the
    new bit clean, which preserves weights.
    """
    n1, n2 = partition
    if set(n1) | set(n2) != set(g.bit_neighbors(v)) or set(n1) & set(n2):
        raise ValueError("partition must split the neighbourhood of v")
    return _split_bits(g, [(v, set(n2))])


def _split_bits(
    g: TannerGraph, moves: list[tuple[int, Iterable[int]]]
) -> tuple[TannerGraph, CodeMaps]:
    """The one split step: for each ``(v, moved checks)`` in order, a fresh
    ``s`` bit takes over v's edges to the moved checks and a new check
    ``(v, v')`` ties it back to v.

    The k-th fresh bit is bit ``g.n_bits + k`` and its tie check is check
    ``g.n_checks + k``. The codeword map copies v onto its fresh bit; the
    error map leaves the fresh bit clean. Every old bit keeps one unit
    support, shared by both maps.
    """
    n = g.n_bits
    serial = max((lab.serial for lab in g.bits if lab.kind == "s"), default=-1) + 1
    bits = list(g.bits)
    checks = list(g.checks)
    for v, moved in moves:
        v2 = len(bits)
        bits.append(VertexLabel("s", 0, -1, serial + v2 - n))
        for c in moved:
            checks[c] = tuple(j for j in checks[c] if j != v) + (v2,)
        checks.append((v, v2))
    units = [(i,) for i in range(n)]
    codeword = units + [units[v] for v, _ in moves]
    error = units + [()] * len(moves)
    return TannerGraph(bits, checks, g.n_qubits, g.depth), CodeMaps(codeword, error)


# ---------------------------------------------------------------------------
# Symmetrisation


def symmetrize(
    g: TannerGraph, circuit: Circuit
) -> tuple[TannerGraph, SymmetryWitness, CodeMaps]:
    """Restore bit-check symmetry of a plain circuit graph via bit splitting.

    Splits are applied exactly at asymmetric wire junctions, where an output
    terminal pair and the next input terminal pair are short on the same
    component. All splits are applied in one pass; the result equals folding
    ``bit_split`` over the junctions in increasing bit order, and the returned
    maps equal the product of the individual split maps. ``g`` must be the
    plain graph of ``circuit``: its qubit count and depth are checked.
    """
    if (g.n_qubits, g.depth) != (circuit.n_qubits, circuit.depth):
        raise ValueError(
            f"symmetrize needs the plain graph of the circuit: the graph has"
            f" {g.n_qubits} qubits and depth {g.depth}, the circuit"
            f" {circuit.n_qubits} qubits and depth {circuit.depth}"
        )
    dual, long_bits, splits = _junctions(g)
    side_checks = {s: set(rec.checks) for rec in g.gadgets for s in rec.sides}
    moves = []
    for k, (v, early, late) in enumerate(splits):
        neighbours = g.bit_neighbors(v)
        if not set(neighbours) <= side_checks[early] | side_checks[late]:
            raise AssertionError("junction checks do not cover the split bit")
        # the late gadget's checks move to fresh bit k, and the tie check
        # pairs with the double-long partner bit on the same wire junction
        moves.append((v, [c for c in neighbours if c in side_checks[late]]))
        lab = g.bits[v]
        dual[early.pair_check] = v
        dual[late.pair_check] = g.n_bits + k
        dual[g.n_checks + k] = g.bit_index(_other(lab.kind), lab.q, lab.t)
    out, maps = _split_bits(g, moves)
    return out, SymmetryWitness(dual, frozenset(long_bits)), maps


def _junctions(
    g: TannerGraph,
) -> tuple[dict[int, int], set[int], list[tuple[int, SideInfo, SideInfo]]]:
    """Pairings of the unsplit bits, long terminals, and the junctions to split.

    A bit claimed short by one gadget side pairs with that side's check; a
    bit claimed long only is a long terminal; a bit claimed short by two
    sides is a junction ``(bit, early side, late side)``, in increasing bit
    order.
    """
    if g.gadgets is None:
        raise ValueError("symmetrize needs the plain graph of the circuit")

    claims: dict[int, list[SideInfo]] = {}
    for rec in g.gadgets:
        for s in rec.sides:
            claims.setdefault(s.short_bit, []).append(s)
            claims.setdefault(s.long_bit, []).append(s)

    dual: dict[int, int] = {}
    long_bits: set[int] = set()
    splits: list[tuple[int, SideInfo, SideInfo]] = []

    for i in range(g.n_bits):
        sides = claims[i]
        shorts = [s for s in sides if s.short_bit == i]
        longs = [s for s in sides if s.long_bit == i]
        if len(shorts) == 1 and len(longs) <= 1:
            dual[shorts[0].pair_check] = i
        elif len(shorts) == 0 and len(longs) == 1:
            long_bits.add(i)
        elif len(shorts) == 2:
            early, late = shorts
            if not (early.side == "out" and late.side == "in"):
                early, late = late, early
            splits.append((i, early, late))
        elif len(longs) == 2:
            pass  # handled together with its short-short partner
        else:
            raise AssertionError(f"unexpected terminal claims on bit {i}")
    return dual, long_bits, splits


def verify_symmetry(g: TannerGraph, w: SymmetryWitness) -> list[str]:
    """Check the bit-check symmetry conditions; empty list means ok."""
    problems: list[str] = []
    bits_in_dual = set(w.dual.values())
    if len(w.dual) != g.n_checks:
        problems.append("dual pairing must cover every check")
    if len(bits_in_dual) != len(w.dual):
        problems.append("dual pairing must be injective")
    if bits_in_dual & set(w.long_terminals):
        problems.append("a long terminal cannot be a dual bit")
    expected_long = set(range(g.n_bits)) - bits_in_dual
    if set(w.long_terminals) != expected_long:
        problems.append("long terminals must be exactly the unpaired bits")
    if problems:
        return problems

    # (A.D)[i][j] = 1 iff check i holds the dual bit of check j, so row i
    # of A.D equals column i iff those j are the checks of i's dual bit
    check_of = w.check_of_bit()
    adjacency = g._adjacency()
    for i, check in enumerate(g.checks):
        row = {check_of[b] for b in check if b in check_of}
        asymmetric = row ^ set(adjacency[w.dual[i]])
        if asymmetric:
            j = min(asymmetric)
            problems.append(
                f"A.D not symmetric at checks ({i},{j}): "
                f"duals {g.bits[w.dual[j]].name}, {g.bits[w.dual[i]].name}"
            )
            break
    for v in sorted(w.long_terminals):
        deg = g.bit_degree(v)
        if deg != 1:
            problems.append(f"long terminal {g.bits[v].name} has degree {deg}")
    seen: dict[int, int] = {}
    for v in sorted(w.long_terminals):
        neigh = g.bit_neighbors(v)
        if len(neigh) == 1:
            c = neigh[0]
            if c in seen:
                problems.append(
                    f"long terminals {g.bits[seen[c]].name} and {g.bits[v].name} share a check"
                )
            seen[c] = v
    return problems


# ---------------------------------------------------------------------------
# Export formats


def export_dot(g: TannerGraph) -> str:
    lines = ["graph tanner {", "  rankdir=LR;"]
    if g.depth is not None:
        for t in range(g.depth + 1):
            members = [g.bits[i].name for i in g.layer_bits(t)]
            if members:
                row = " ".join(f'"{m}";' for m in members)
                lines.append(f"  {{ rank=same; {row} }}")
    for lab in g.bits:
        shape = "ellipse"
        extra = ""
        if lab.is_measurement:
            extra = ", peripheries=2"
        lines.append(f'  "{lab.name}" [shape={shape}{extra}];')
    for k in range(g.n_checks):
        lines.append(f'  "c{k}" [shape=box];')
    for k, c in enumerate(g.checks):
        for j in c:
            lines.append(f'  "{g.bits[j].name}" -- "c{k}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_labels(g: TannerGraph) -> str:
    """Column sidecar: `col kind q t flags` with `-` for empty flags."""
    lines = []
    for i, lab in enumerate(g.bits):
        flags = ""
        if lab.is_measurement:
            flags += "M"
        if lab.is_initialisation:
            flags += "I"
        lines.append(f"{i} {lab.kind} {lab.q} {lab.t} {flags or '-'}")
    return "\n".join(lines) + "\n"


def read_labels(text: str) -> list[VertexLabel]:
    labels = []
    keys: set[tuple] = set()
    serial = 0
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            col, kind, q, t, flags = line.split()
            col, q, t = int(col), int(q), int(t)
        except ValueError:
            raise ValueError(f"bad labels line {line!r}") from None
        lab = VertexLabel(
            kind,
            q,
            t,
            serial if kind == "s" else 0,
            is_measurement="M" in flags,
            is_initialisation="I" in flags,
        )
        if kind == "s":
            serial += 1
        elif kind not in ("x", "z"):
            raise ValueError(f"label kind must be x, z or s: {line!r}")
        elif lab.q < 1 or lab.t < 0:
            raise ValueError(f"wire label needs q >= 1 and t >= 0: {line!r}")
        if col != len(labels):
            raise ValueError("label columns out of order")
        if lab.key() in keys:
            raise ValueError(f"repeated wire label: {line!r}")
        keys.add(lab.key())
        labels.append(lab)
    return labels


def write_witness(g: TannerGraph, w: SymmetryWitness) -> str:
    lines = [f"dual {c} {w.dual[c]}" for c in sorted(w.dual)]
    lines.extend(f"long {v}" for v in sorted(w.long_terminals))
    return "\n".join(lines) + "\n"


def read_witness(text: str) -> SymmetryWitness:
    dual: dict[int, int] = {}
    long_bits: set[int] = set()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, *fields = line.split()
        try:
            values = [int(f) for f in fields]
        except ValueError:
            raise ValueError(f"bad witness line {line!r}") from None
        if head == "dual" and len(values) == 2:
            check, bit = values
            if check in dual:
                raise ValueError(f"witness pairs check {check} twice: {line!r}")
            dual[check] = bit
        elif head == "long" and len(values) == 1:
            long_bits.add(values[0])
        else:
            raise ValueError(f"bad witness line {line!r}")
    return SymmetryWitness(dual, frozenset(long_bits))


def graph_from_matrix(
    a: BitMatrix, labels: list[VertexLabel] | None = None
) -> TannerGraph:
    """The graph of check matrix ``a``; see ``_graph_from_supports``."""
    return _graph_from_supports(a.n_cols, [v.support() for v in a.row_vectors()], labels)


def _graph_from_supports(
    n_bits: int, supports: Iterable[Iterable[int]], labels: list[VertexLabel] | None
) -> TannerGraph:
    """The graph whose checks have these supports over ``n_bits`` bits, with
    its layer structure read off the wire labels: ``n_qubits`` is the largest
    q, and ``depth`` the largest t, plus one where the bit is measured (layer
    t + 1 reads it), and at least one. A graph without wire labels has no
    layer structure."""
    if labels is None:
        labels = [VertexLabel("s", 0, -1, i) for i in range(n_bits)]
    if len(labels) != n_bits:
        raise ValueError("label count must match columns")
    wires = [lab for lab in labels if lab.kind in ("x", "z")]
    if not wires:
        return TannerGraph(labels, supports)
    depth = max(1, max(lab.t + lab.is_measurement for lab in wires))
    return TannerGraph(labels, supports, max(lab.q for lab in wires), depth)
