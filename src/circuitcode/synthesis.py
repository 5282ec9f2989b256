"""Circuit synthesis from symmetric Tanner graphs via path partitions.

Dual path pairs become qubits, time labels become gate windows, and each
inter-path edge class contributes one gate. The synthesised circuit's
symmetric Tanner graph relates to the input graph by symmetric splitting;
the returned maps realise that relation explicitly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .circuit import MAX_WIRE_BITS, Circuit, OpKind, Operation
from .distance import circuit_distance
from .gf2 import BitMatrix
from .splitting import distance_bound_holds
from .tanner import CodeMaps, SymmetryWitness, TannerGraph, build_plain

Vertex = tuple[str, int]  # ("b", bit index) or ("c", check index)


@dataclass
class PathPartition:
    paths: list[list[Vertex]]
    tau: dict[Vertex, int]


def _duals(w: SymmetryWitness) -> dict[Vertex, Vertex]:
    """The dual of every vertex of the symmetric subgraph: its keys are the
    subgraph's vertices."""
    duals: dict[Vertex, Vertex] = {}
    for a, v in w.dual.items():
        duals[("c", a)] = ("b", v)
        duals[("b", v)] = ("c", a)
    return duals


def _neighbours(g: TannerGraph, w: SymmetryWitness, v: Vertex) -> list[Vertex]:
    """The neighbours of v in the symmetric subgraph: long terminals left out."""
    kind, idx = v
    if kind == "b":
        return [("c", a) for a in g.bit_neighbors(idx)]
    return [("b", b) for b in g.checks[idx] if b not in w.long_terminals]


def _path_index(paths: list[list[Vertex]]) -> dict[Vertex, int]:
    """The index of the path holding each vertex."""
    return {v: i for i, path in enumerate(paths) for v in path}


def _qubit_paths(
    duals: dict[Vertex, Vertex], p: PathPartition, index_of: dict[Vertex, int]
) -> list[tuple[list[Vertex], list[Vertex]]]:
    """Each dual path pair once, in partition order, as (X path, Z path).

    The path holding the smaller bit plays X. A path met second in the
    partition is reversed where needed so that it runs dual vertex by dual
    vertex along its partner.
    """
    paired: set[int] = set()
    pairs = []
    for i, path in enumerate(p.paths):
        if i in paired:
            continue
        dual = [duals[v] for v in path]
        j = index_of[dual[0]]
        paired.update((i, j))
        other = p.paths[j] if dual == p.paths[j] else p.paths[j][::-1]
        min_here = min((v[1] for v in path if v[0] == "b"), default=None)
        min_there = min((v[1] for v in other if v[0] == "b"), default=None)
        if min_there is None or (min_here is not None and min_here <= min_there):
            pairs.append((path, other))
        else:
            pairs.append((other, path))
    return pairs


def trivial_partition(g: TannerGraph, w: SymmetryWitness) -> PathPartition:
    """One vertex per path, every time label 1."""
    paths: list[list[Vertex]] = []
    tau: dict[Vertex, int] = {}
    for a, v in sorted(w.dual.items()):
        paths.append([("b", v)])
        paths.append([("c", a)])
        tau[("b", v)] = 1
        tau[("c", a)] = 1
    return PathPartition(paths, tau)


def validate_partition(
    g: TannerGraph, w: SymmetryWitness, p: PathPartition
) -> list[str]:
    """All violated partition conditions; empty when valid."""
    problems: list[str] = []
    duals = _duals(w)
    seen: set[Vertex] = set()
    for path in p.paths:
        if not path:
            problems.append("empty path")
            continue
        for v in path:
            if v in seen:
                problems.append(f"vertex {v} appears twice")
            seen.add(v)
        for u, v in zip(path, path[1:]):
            bit = u[1] if u[0] == "b" else v[1]
            chk = v[1] if v[0] == "c" else u[1]
            if u[0] == v[0]:
                problems.append(f"path is not alternating at {u}->{v}")
            elif bit not in g.checks[chk]:
                problems.append(f"path edge {u}->{v} is not a graph edge")
        taus = [p.tau.get(v) for v in path]
        if any(t is None for t in taus):
            problems.append("missing time label on a path")
        elif min(taus) < 1:
            problems.append("time labels must be at least 1")
        elif any(t2 <= t1 for t1, t2 in zip(taus, taus[1:])):
            problems.append("time labels must increase strictly along a path")
    if seen != duals.keys():
        problems.append("paths must partition the symmetric subgraph")
        return problems

    index_of = _path_index(p.paths)
    for i, path in enumerate(p.paths):
        dual = [duals[v] for v in path]
        js = {index_of.get(v) for v in dual}
        if len(js) != 1 or None in js:
            problems.append(f"path {i} has no single dual path")
            continue
        j = js.pop()
        if j == i:
            problems.append(f"path {i} is its own dual")
            continue
        other = p.paths[j]
        if dual != other and dual != other[::-1]:
            problems.append(f"dual of path {i} is not a path of the partition")
        for v, d in zip(path, dual):
            if p.tau.get(v) != p.tau.get(d):
                problems.append(f"dual vertices {v},{d} disagree on time labels")
                break

    # inter-path edges must connect equal time labels; long terminals must
    # attach to path end checks
    pos_in_path = {v: k for path in p.paths for k, v in enumerate(path)}
    for a, members in enumerate(g.checks):
        for bit in members:
            if bit in w.long_terminals:
                path = p.paths[index_of[("c", a)]]
                if path[0] != ("c", a) and path[-1] != ("c", a):
                    problems.append(
                        f"long terminal {g.bits[bit].name} attaches inside a path"
                    )
                continue
            u, v = ("b", bit), ("c", a)
            if index_of[u] == index_of[v] and abs(pos_in_path[u] - pos_in_path[v]) == 1:
                continue  # intra-path edge
            if p.tau.get(u) != p.tau.get(v):
                problems.append(
                    f"inter-path edge {g.bits[bit].name}-c{a} spans time labels"
                )
    return problems


@dataclass
class QubitLine:
    qubit: int
    first_bit: int  # the subgraph bit at the start of the qubit's path pair
    init_kind: OpKind | None
    meas_kind: OpKind | None
    open_in: tuple[int, int] | None  # (end bit, long terminal) indices at t=0
    open_out: tuple[int, int] | None


@dataclass
class SynthesisResult:
    circuit: Circuit
    maps: CodeMaps


def synthesize(
    g: TannerGraph, w: SymmetryWitness, p: PathPartition
) -> SynthesisResult:
    problems = validate_partition(g, w, p)
    if problems:
        raise ValueError("invalid partition: " + problems[0])
    duals = _duals(w)

    # qubits in order of the smallest bit, which always lies on the X path
    index_of = _path_index(p.paths)
    order = sorted(
        _qubit_paths(duals, p, index_of),
        key=lambda pair: min(v[1] for v in pair[0] if v[0] == "b"),
    )

    role_of: dict[Vertex, tuple[int, str]] = {}
    qubits: list[QubitLine] = []
    long_on_check: dict[int, int] = {}
    for t in w.long_terminals:
        (chk,) = g.bit_neighbors(t)
        long_on_check[chk] = t
    for q, (x_path, z_path) in enumerate(order, start=1):
        for role, path in (("x", x_path), ("z", z_path)):
            for v in path:
                role_of[v] = (q, role)
        # each end of the pair is one bit and its dual check ("b" < "c")
        bit_min, chk_min = sorted((x_path[0], z_path[0]))
        bit_max, chk_max = sorted((x_path[-1], z_path[-1]))
        long_min = long_on_check.get(chk_min[1])
        long_max = long_on_check.get(chk_max[1])
        init_kind = meas_kind = open_in = open_out = None
        if long_min is None:
            init_kind = OpKind.INIT_Z if role_of[bit_min][1] == "z" else OpKind.INIT_X
        else:
            # open input: the wire of the end bit's role carries its value,
            # the partner wire carries the long terminal
            open_in = (bit_min[1], long_min)
        if long_max is None or chk_min == chk_max:
            # a single shared end check has one long terminal, which opens
            # the input; the measurement still closes the wire
            meas_kind = OpKind.MEAS_Z if role_of[bit_max][1] == "z" else OpKind.MEAS_X
        else:
            open_out = (bit_max[1], long_max)
        qubits.append(QubitLine(q, bit_min[1], init_kind, meas_kind, open_in, open_out))

    # gates per inter-path edge class, grouped by time label
    window_gates: dict[int, list[tuple[tuple, list[Operation]]]] = {}
    seen_classes: set[frozenset] = set()
    for a, members in enumerate(g.checks):
        for bit in members:
            if bit in w.long_terminals:
                continue
            u, v = ("b", bit), ("c", a)
            qu, ru = role_of[u]
            qv, rv = role_of[v]
            if index_of[u] == index_of[v]:
                continue  # intra-path wire edge
            dual_edge = (duals[v], duals[u])
            cls = frozenset((u, v, dual_edge[0], dual_edge[1]))
            if cls in seen_classes:
                continue
            seen_classes.add(cls)
            # canonical representative: the edge whose bit index is smaller
            alt_bit = dual_edge[0]
            if alt_bit[0] == "b" and alt_bit[1] < bit:
                u, v = dual_edge
                qu, ru = role_of[u]
                qv, rv = role_of[v]
            tau = p.tau[u]
            ops = _table_gate(qu, ru, qv, rv)
            sort_key = (len(ops) > 1, qu, qv)
            window_gates.setdefault(tau, []).append((sort_key, ops))

    # schedule each window greedily, single-qubit gates first
    dt = 1
    schedules: dict[int, list[list[Operation]]] = {}
    for tau, gates in window_gates.items():
        gates.sort(key=lambda item: item[0])
        layers: list[list[Operation]] = []
        next_free: dict[int, int] = {}
        for _, ops in gates:
            involved = sorted({q for op in ops for q in op.qubits})
            start = max((next_free.get(q, 0) for q in involved), default=0)
            for k, op in enumerate(ops):
                while len(layers) <= start + k:
                    layers.append([])
                layers[start + k].append(op)
            for q in involved:
                next_free[q] = start + len(ops)
        schedules[tau] = layers
        dt = max(dt, len(layers))

    tau_max_global = max((p.tau[v] for path in p.paths for v in path), default=1)
    n_layers = 1 + tau_max_global * dt + 1
    if len(qubits) * (n_layers + 1) > MAX_WIRE_BITS:
        raise ValueError(
            f"synthesised circuit of {len(qubits)} qubits x {n_layers + 1} times exceeds"
            f" the limit of {MAX_WIRE_BITS} wire bits"
        )
    layers: list[list[Operation]] = [[] for _ in range(n_layers)]
    for line in qubits:
        if line.init_kind is not None:
            layers[0].append(Operation(line.init_kind, (line.qubit,)))
        if line.meas_kind is not None:
            layers[-1].append(Operation(line.meas_kind, (line.qubit,)))
    for tau, window in schedules.items():
        base = 1 + (tau - 1) * dt
        for k, ops in enumerate(window):
            layers[base + k].extend(ops)
    circuit = Circuit(len(qubits), layers).canonical().check_valid()

    maps = _build_maps(g, w, p, circuit, qubits, role_of, dt)
    return SynthesisResult(circuit, maps)


def _table_gate(qu: int, ru: str, qv: int, rv: str) -> list[Operation]:
    """Gate for an inter-path edge: bit on (qu, ru), check on (qv, rv)."""
    if qu == qv:
        if ru == "x":
            return [Operation(OpKind.S, (qu,))]
        return [
            Operation(OpKind.H, (qu,)),
            Operation(OpKind.S, (qu,)),
            Operation(OpKind.H, (qu,)),
        ]
    if ru == "x" and rv == "x":
        return [Operation(OpKind.CNOT, (qu, qv))]
    if ru == "z" and rv == "z":
        return [Operation(OpKind.CNOT, (qv, qu))]
    if ru == "x" and rv == "z":
        return [
            Operation(OpKind.H, (qv,)),
            Operation(OpKind.CNOT, (qu, qv)),
            Operation(OpKind.H, (qv,)),
        ]
    return [
        Operation(OpKind.H, (qu,)),
        Operation(OpKind.CNOT, (qu, qv)),
        Operation(OpKind.H, (qu,)),
    ]


def _build_maps(g, w, p, circuit, qubits, role_of, dt):
    g_out = build_plain(circuit)
    kernel = g.kernel_basis()

    # Each wire starts at the source bits it carries: an open input at its end
    # bit and long terminal, an initialised qubit at the bit of its init basis.
    # Source s is seeded with the unit vector 1 << s; seeds[s] is its value on
    # each kernel row, so bit k of (values . seeds)[i] is output bit i in the
    # image of kernel row k.
    columns = kernel.transpose().rows
    values: list[int | None] = [None] * g_out.n_bits
    seeds: list[int] = []
    for line in qubits:
        role = role_of[("b", line.first_bit)][1]
        if line.open_in is None:
            starts = [(role, 1, line.first_bit)]
        else:
            other = "z" if role == "x" else "x"
            starts = [(role, 0, line.first_bit), (other, 0, line.open_in[1])]
        for kind, t, bit in starts:
            values[g_out.bit_index(kind, line.qubit, t)] = 1 << len(seeds)
            seeds.append(columns[bit])
    # build_plain emits its checks layer by layer and every gadget row has one
    # output bit, so each row either fixes that bit or finds every bit set. A
    # value is never changed once set, so the output codewords are the source
    # values on which every such closing row sums to zero.
    closing_rows: list[int] = []
    for members in g_out.checks:
        unset = []
        acc = 0
        for j in members:
            if values[j] is None:
                unset.append(j)
            else:
                acc ^= values[j]
        if len(unset) == 1:
            values[unset[0]] = acc
        elif unset:
            raise AssertionError("codeword images violate an output check")
        else:
            closing_rows.append(acc)
    if None in values:
        raise AssertionError("an output bit carries no codeword image")

    sources = BitMatrix(len(seeds), kernel.n_rows, seeds)
    closing = BitMatrix(len(closing_rows), len(seeds), closing_rows)
    if not closing.matmul(sources).is_zero():
        raise AssertionError("codeword images violate an output check")
    images = BitMatrix(g_out.n_bits, len(seeds), values).matmul(sources)
    if images.transpose().rank() != kernel.n_rows:
        raise AssertionError("codeword images are not injective")
    if len(seeds) - closing.rank() != kernel.n_rows:
        raise AssertionError("synthesised code has a different dimension")

    # error carriers: boundary bits for long terminals, window-exit wire bits
    # for subgraph bits
    err_rows = [0] * g_out.n_bits
    used = set()

    def carrier(kind: str, q: int, t: int) -> int:
        idx = g_out.bit_index(kind, q, t)
        if idx is None or idx in used:
            raise AssertionError("missing or duplicate error carrier")
        used.add(idx)
        return idx

    for line in qubits:
        for end, t in ((line.open_in, 0), (line.open_out, circuit.depth)):
            if end is not None:
                bit_end, long_end = end
                other = "z" if role_of[("b", bit_end)][1] == "x" else "x"
                err_rows[carrier(other, line.qubit, t)] = 1 << long_end
    for v_idx in sorted(w.dual.values()):
        q, role = role_of[("b", v_idx)]
        # the wire bit at the exit of the bit's time window
        err_rows[carrier(role, q, 1 + p.tau[("b", v_idx)] * dt)] = 1 << v_idx

    # row k of the kernel basis is the only one with a 1 at its pivot, the
    # lowest set bit of the row, so reading the pivot bits of a codeword gives
    # its coefficients over the basis
    coefficients = BitMatrix(kernel.n_rows, g.n_bits, [r & -r for r in kernel.rows])
    return CodeMaps(
        codeword=images.matmul(coefficients),
        error=BitMatrix(g_out.n_bits, g.n_bits, err_rows),
    )


# ---------------------------------------------------------------------------
# Round trip


@dataclass
class RoundTripReport:
    circuit: Circuit
    code_dimension: int
    pairing_ok: bool
    distance_before: object
    distance_after: object
    g_max: int

    @property
    def ok(self) -> bool:
        lower, upper = distance_bound_holds(
            self.distance_before, self.distance_after, self.g_max
        )
        return self.pairing_ok and lower and upper


def roundtrip_check(
    g: TannerGraph,
    result: SynthesisResult,
    b: BitMatrix,
    l: BitMatrix,
    max_weight: int = 5,
) -> RoundTripReport:
    """Compare the codes, pairings and distances of ``g`` and its synthesis.

    ``result`` is ``synthesize`` run on ``g``. The rows of ``b`` and ``l``
    must be codewords of ``g``. The pairing holds when the error map sends
    each bit to its own output bit and ``c.e = codeword(c).error(e)`` for
    every codeword ``c`` and error ``e``.
    """
    for name, m in (("B", b), ("L", l)):
        if m.n_cols != g.n_bits:
            raise ValueError(f"{name} has {m.n_cols} columns, the graph has {g.n_bits} bits")
        if any(g.syndrome(c) for c in m.row_vectors()):
            raise ValueError(f"the rows of {name} are not codewords of the graph")
    maps = result.maps
    kernel = g.kernel_basis()
    pairing_ok = (
        sorted(r for r in maps.error.rows if r) == [1 << j for j in range(g.n_bits)]
        and maps.map_matrix(kernel).matmul(maps.error) == kernel
    )
    d1 = circuit_distance(b, l, max_weight)
    d2 = circuit_distance(maps.map_matrix(b), maps.map_matrix(l), max_weight)
    return RoundTripReport(
        result.circuit, kernel.n_rows, pairing_ok, d1, d2, g.max_degree()
    )


# ---------------------------------------------------------------------------
# Partition files and the greedy heuristic


def write_partition(g: TannerGraph, w: SymmetryWitness, p: PathPartition) -> str:
    index_of = _path_index(p.paths)

    def vertex_name(v: Vertex) -> str:
        return g.bits[v[1]].name if v[0] == "b" else f"c{v[1]}"

    # the synthesis pairing gives stable qubit labels and roles; each path is
    # written as stored in the partition
    result_lines = []
    for q, pair in enumerate(_qubit_paths(_duals(w), p, index_of), start=1):
        for role, path in zip("XZ", pair):
            stored = p.paths[index_of[path[0]]]
            result_lines.append(
                f"path {q} {role} : " + " ".join(vertex_name(v) for v in stored)
            )
    for v in sorted(p.tau, key=lambda v: (v[0], v[1])):
        result_lines.append(f"tau {vertex_name(v)} {p.tau[v]}")
    return "\n".join(result_lines) + "\n"


def read_partition(g: TannerGraph, text: str) -> PathPartition:
    name_to_bit = {lab.name: i for i, lab in enumerate(g.bits)}

    def parse_vertex(name: str) -> Vertex:
        if name in name_to_bit:
            return ("b", name_to_bit[name])
        if name.startswith("c") and name[1:].isdigit():
            if int(name[1:]) >= g.n_checks:
                raise ValueError(f"check {name} is outside the graph's {g.n_checks} checks")
            return ("c", int(name[1:]))
        raise ValueError(f"unknown vertex {name!r}")

    paths = []
    tau = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("path "):
            _, rest = line.split(None, 1)
            _, _, names = rest.partition(":")
            paths.append([parse_vertex(nm) for nm in names.split()])
        elif line.startswith("tau "):
            try:
                _, name, value = line.split()
                value = int(value)
            except ValueError:
                raise ValueError(f"bad partition line {line!r}") from None
            tau[parse_vertex(name)] = value
        else:
            raise ValueError(f"bad partition line {line!r}")
    return PathPartition(paths, tau)


def greedy_partition(g: TannerGraph, w: SymmetryWitness) -> PathPartition:
    """Grow dual path pairs greedily; falls back to single vertices.

    Time labels are solved afterwards by offset propagation over inter-path
    edges; a labelling that is inconsistent, or a partition that is invalid
    for any other reason, gives the trivial partition instead.
    """
    duals = _duals(w)
    unused = set(duals)
    long_checks = set()
    for t in w.long_terminals:
        long_checks.update(g.bit_neighbors(t))

    paths: list[list[Vertex]] = []
    for start in sorted(v for v in unused if v[0] == "b"):
        if start not in unused:
            continue
        path = [start]
        dual_path = [duals[start]]
        unused.difference_update((start, duals[start]))
        # a path ends at its fourth vertex, or at a check with a long terminal
        # (on either side of the dual pair), which must sit at a path end
        while len(path) < 4:
            v = next(
                (u for u in _neighbours(g, w, path[-1]) if u in unused and duals[u] in unused),
                None,
            )
            if v is None:
                break
            path.append(v)
            dual_path.append(duals[v])
            unused.difference_update((v, duals[v]))
            check = max(v, duals[v])  # the pair's check, as "b" < "c"
            if check[1] in long_checks:
                break
        paths.append(path)
        paths.append(dual_path)

    # assign taus: position along the path plus a per-path offset, solved by
    # propagation over inter-path equality constraints
    index_of = _path_index(paths)
    pos = {v: k for path in paths for k, v in enumerate(path)}
    pair_of = {i: index_of[duals[path[0]]] for i, path in enumerate(paths)}
    offset = {}
    for i in range(len(paths)):
        if i in offset:
            continue
        offset[i] = 0
        queue = deque([i])
        while queue:
            cur = queue.popleft()
            j = pair_of[cur]
            if j not in offset:
                offset[j] = offset[cur]
                queue.append(j)
            for v in paths[cur]:
                for u in _neighbours(g, w, v):
                    j2 = index_of[u]
                    if j2 not in offset:
                        offset[j2] = offset[cur] + pos[v] - pos[u]
                        queue.append(j2)

    # an inconsistent labelling fails validate_partition
    base = min(offset.values(), default=0)
    tau = {}
    for i, path in enumerate(paths):
        for k, v in enumerate(path):
            tau[v] = offset[i] - base + k + 1
    p = PathPartition(paths, tau)
    if validate_partition(g, w, p):
        return trivial_partition(g, w)
    return p
