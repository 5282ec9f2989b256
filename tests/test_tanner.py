import cProfile
import hashlib
import pstats
import random

import pytest

from circuitcode import tanner
from circuitcode.circuit import Circuit, OpKind, Operation, parse_circuit, random_circuit
from circuitcode.gf2 import BitMatrix, BitVector
from circuitcode.splitting import random_plan, symmetric_split
from circuitcode.tanner import (
    GADGETS,
    SymmetryWitness,
    TannerGraph,
    VertexLabel,
    _junctions,
    bit_split,
    build_plain,
    export_dot,
    graph_from_matrix,
    read_labels,
    read_witness,
    symmetrize,
    verify_symmetry,
    write_labels,
    write_witness,
)
from tests.test_circuit import ZZ_TEXT
from tests.test_gf2 import entry


def cnot_graph():
    return build_plain(parse_circuit("qubits 2\ncnot 1 2\n"))


def dense_maps(maps, n_source):
    """The dense oracle of a CodeMaps: its codeword and error maps as
    |V_B'| x |V_B| matrices, row i the sum of the unit rows over target bit
    i's support."""

    def dense(supports):
        rows = []
        for support in supports:
            row = 0
            for s in support:
                row ^= 1 << s
            rows.append(row)
        return BitMatrix(len(rows), n_source, rows)

    return dense(maps.codeword), dense(maps.error)


def test_cnot_graph_shape_and_codeword():
    g = cnot_graph()
    assert g.n_bits == 8
    assert g.n_checks == 4
    a = g.check_matrix()
    k = a.kernel_basis()
    assert k.n_rows == 4
    # Propagation of X1 to X1X2: bit order per layer is x1 x2 z1 z2.
    v = BitVector.from_bits([1, 0, 0, 0, 1, 1, 0, 0])
    assert a.mul_vec(v).is_zero()


def test_identity_wire_graph():
    g = build_plain(parse_circuit("qubits 1\ni 1\n"))
    assert g.n_bits == 4
    assert g.n_checks == 2
    assert sorted(len(c) for c in g.checks) == [2, 2]
    assert g.max_degree() == 2


def test_zz_graph_structure():
    g = build_plain(parse_circuit(ZZ_TEXT))
    # no isolated bits survive except flagged ones, which all carry edges here
    for i in range(g.n_bits):
        assert g.bit_degree(i) >= 1 or g.bits[i].is_measurement
    assert len([lab for lab in g.bits if lab.is_measurement]) == 2
    assert len([lab for lab in g.bits if lab.is_initialisation]) == 2
    # the mid-circuit dead step of the ancilla leaves no bits at t=4
    assert g.bit_index("x", 3, 4) is None
    assert g.bit_index("z", 3, 4) is None
    assert g.max_degree() <= 3


def test_max_degree_invariant_random():
    rng = random.Random(31)
    for _ in range(40):
        c = random_circuit(rng.randrange(1, 5), rng.randrange(1, 8), rng, x_basis=False)
        g = build_plain(c)
        assert g.max_degree() <= 3
        # no isolated bit: every bit has a check or an init/measurement flag
        for i, lab in enumerate(g.bits):
            assert g.bit_degree(i) >= 1 or lab.is_measurement or lab.is_initialisation
    # a circuit with no layers has no bits, checks or gadgets
    g = build_plain(parse_circuit("qubits 2\n"))
    assert g.bits == [] and g.checks == [] and g.gadgets == []


def test_bit_split_examples():
    g = cnot_graph()
    a = g.check_matrix()
    k = a.kernel_basis()
    v = g.bit_index("x", 1, 0)
    neigh = g.bit_neighbors(v)
    assert len(neigh) == 2
    g2, maps = bit_split(g, v, ([neigh[0]], [neigh[1]]))
    a2 = g2.check_matrix()
    assert a2.kernel_basis().n_rows == k.n_rows
    codeword, _ = dense_maps(maps, g.n_bits)
    for c in k.row_vectors():
        assert a2.mul_vec(codeword.mul_vec(c)).is_zero()

    # degenerate split with an empty side still preserves the code
    g3, maps3 = bit_split(g, v, (neigh, []))
    assert g3.check_matrix().kernel_basis().n_rows == k.n_rows
    # the dangling bit copies the value of v in every codeword
    codeword3, _ = dense_maps(maps3, g.n_bits)
    for c in k.row_vectors():
        c3 = codeword3.mul_vec(c)
        assert c3[g3.n_bits - 1] == c[v]


def test_bit_split_rejects_bad_partition():
    g = cnot_graph()
    v = g.bit_index("x", 1, 0)
    neigh = g.bit_neighbors(v)
    with pytest.raises(ValueError):
        bit_split(g, v, (neigh, neigh))
    with pytest.raises(ValueError):
        bit_split(g, v, ([neigh[0]], []))


def test_bit_split_pairing_identity():
    rng = random.Random(77)
    for _ in range(20):
        c = random_circuit(rng.randrange(1, 4), rng.randrange(1, 6), rng)
        g = build_plain(c)
        if g.n_bits == 0:
            continue
        v = rng.randrange(g.n_bits)
        neigh = g.bit_neighbors(v)
        rng.shuffle(neigh)
        cut = rng.randrange(len(neigh) + 1)
        g2, maps = bit_split(g, v, (neigh[:cut], neigh[cut:]))
        k = g.check_matrix().kernel_basis()
        codeword, error = dense_maps(maps, g.n_bits)
        for cw in k.row_vectors():
            e = BitVector(g.n_bits, rng.getrandbits(g.n_bits))
            assert cw.dot(e) == codeword.mul_vec(cw).dot(error.mul_vec(e))
            assert e.weight() == error.mul_vec(e).weight()


def test_symmetrize_sh_needs_no_split():
    # H first, then S: every junction merges a long with a short terminal.
    c = parse_circuit("qubits 1\nh 1\ntick\ns 1\n")
    g = build_plain(c)
    g2, w, maps = symmetrize(g, c)
    assert g2.n_bits == g.n_bits
    assert verify_symmetry(g2, w) == []


def test_symmetrize_hs_one_split():
    c = parse_circuit("qubits 1\ns 1\ntick\nh 1\n")
    g = build_plain(c)
    g2, w, maps = symmetrize(g, c)
    assert g2.n_bits == g.n_bits + 1
    assert g2.n_checks == g.n_checks + 1
    assert verify_symmetry(g2, w) == []
    # the plain graph has no valid witness on the same pairing
    assert g.check_matrix().kernel_basis().n_rows == g2.check_matrix().kernel_basis().n_rows


def test_symmetrize_rejects_a_graph_of_another_circuit():
    zz = parse_circuit(ZZ_TEXT)
    for other in ("qubits 2\nh 1\n", "qubits 3\nh 1\n", "qubits 3\n"):
        c = parse_circuit(other)
        with pytest.raises(ValueError, match="symmetrize needs the plain graph of the circuit"):
            symmetrize(build_plain(zz), c)
    # a circuit of the same width and depth passes the check
    same = parse_circuit(ZZ_TEXT.replace("cnot 1 3", "cnot 2 3", 1))
    assert (same.n_qubits, same.depth) == (zz.n_qubits, zz.depth)
    assert verify_symmetry(*symmetrize(build_plain(zz), same)[:2]) == []


def test_symmetrize_zz_split_count():
    c = parse_circuit(ZZ_TEXT)
    g = build_plain(c)
    g2, w, maps = symmetrize(g, c)
    assert verify_symmetry(g2, w) == []
    # asymmetric merges happen exactly where the ancilla leaves its
    # initialisations into the CNOT target inputs
    assert g2.n_bits - g.n_bits == 2


def test_symmetrize_random_circuits():
    rng = random.Random(97)
    for _ in range(1000):
        c = random_circuit(rng.randrange(1, 7), rng.randrange(1, 11), rng)
        g = build_plain(c)
        g2, w, maps = symmetrize(g, c)
        assert verify_symmetry(g2, w) == [], (serialize_for_debug(c), verify_symmetry(g2, w))
        k = g.check_matrix().kernel_basis()
        a2 = g2.check_matrix()
        assert a2.kernel_basis().n_rows == k.n_rows
        codeword, _ = dense_maps(maps, g.n_bits)
        for cw in k.row_vectors():
            assert a2.mul_vec(codeword.mul_vec(cw)).is_zero()


def rep_memory_text(d):
    """Repetition-code memory, d rounds: data 1..d, ancillas d+1..2d-1."""
    layers = []
    for _ in range(d):
        layers.append([f"rz {d + i}" for i in range(1, d)])
        layers.append([f"cnot {i} {d + i}" for i in range(1, d)])
        layers.append([f"cnot {i + 1} {d + i}" for i in range(1, d)])
        layers.append([f"mz {d + i}" for i in range(1, d)])
    return f"qubits {2 * d - 1}\n" + "\ntick\n".join("\n".join(l) for l in layers) + "\n"


def symmetrize_by_bit_split(g):
    """Reference symmetrisation: one bit_split per junction, maps by matmul."""
    dual, long_bits, splits = _junctions(g)
    current = g
    codeword = error = BitMatrix.identity(g.n_bits)
    for v, early, late in splits:
        early_checks = next(rec.checks for rec in g.gadgets if early in rec.sides)
        late_checks = next(rec.checks for rec in g.gadgets if late in rec.sides)
        neigh = current.bit_neighbors(v)
        partition = (
            [c for c in neigh if c in early_checks],
            [c for c in neigh if c in late_checks],
        )
        n = current.n_bits
        current, maps = bit_split(current, v, partition)
        step_codeword, step_error = dense_maps(maps, n)
        codeword = step_codeword.matmul(codeword)
        error = step_error.matmul(error)
        lab = g.bits[v]
        partner = g.bit_index("z" if lab.kind == "x" else "x", lab.q, lab.t)
        dual[early.pair_check] = v
        dual[late.pair_check] = current.n_bits - 1
        if partner is not None:
            dual[current.n_checks - 1] = partner
    return current, SymmetryWitness(dual, frozenset(long_bits)), codeword, error


def test_symmetrize_equals_bit_split_fold():
    rng = random.Random(101)
    circuits = [parse_circuit(t) for t in (ZZ_TEXT, rep_memory_text(3), rep_memory_text(5))]
    circuits += [random_circuit(rng.randrange(1, 9), rng.randrange(1, 17), rng) for _ in range(200)]
    n_splits = 0
    for c in circuits:
        g = build_plain(c)
        g2, w, maps = symmetrize(g, c)
        ref, ref_w, codeword, error = symmetrize_by_bit_split(g)
        assert g2.bits == ref.bits
        assert g2.checks == ref.checks
        assert list(w.dual.items()) == list(ref_w.dual.items())
        assert w.long_terminals == ref_w.long_terminals
        assert dense_maps(maps, g.n_bits) == (codeword, error)
        n_splits += g2.n_bits - g.n_bits
    assert n_splits > 1500


def serialize_for_debug(c):
    from circuitcode.circuit import serialize

    return serialize(c)


def deleting_matrix(g, w):
    """The deleting matrix D of a witness: column j selects check j's dual bit."""
    rows = [0] * g.n_bits
    for check, bit in w.dual.items():
        rows[bit] |= 1 << check
    return BitMatrix(g.n_bits, g.n_checks, rows)


def test_dual_exchange_is_automorphism():
    c = parse_circuit(ZZ_TEXT)
    g = build_plain(c)
    g2, w, _ = symmetrize(g, c)
    a = g2.check_matrix()
    d = deleting_matrix(g2, w)
    ad = a.matmul(d)
    # exchanging every dual pair maps the deleted subgraph to itself
    assert ad == ad.transpose()


def test_verify_symmetry_reports_violations():
    c = parse_circuit("qubits 1\ns 1\ntick\nh 1\n")
    g = build_plain(c)
    g2, w, _ = symmetrize(g, c)
    # break the witness: swap two dual assignments
    bad = dict(w.dual)
    ks = sorted(bad)
    bad[ks[0]], bad[ks[1]] = bad[ks[1]], bad[ks[0]]
    from circuitcode.tanner import SymmetryWitness

    problems = verify_symmetry(g2, SymmetryWitness(bad, w.long_terminals))
    assert problems


def dense_verify_symmetry(g, w):
    """Reference verify_symmetry: the A.D symmetry test on the dense product."""
    problems = []
    bits_in_dual = set(w.dual.values())
    if len(w.dual) != g.n_checks:
        problems.append("dual pairing must cover every check")
    if len(bits_in_dual) != len(w.dual):
        problems.append("dual pairing must be injective")
    if bits_in_dual & set(w.long_terminals):
        problems.append("a long terminal cannot be a dual bit")
    if set(w.long_terminals) != set(range(g.n_bits)) - bits_in_dual:
        problems.append("long terminals must be exactly the unpaired bits")
    if problems:
        return problems
    ad = g.check_matrix().matmul(deleting_matrix(g, w))
    adt = ad.transpose()
    asymmetric = [
        (i, j) for i in range(ad.n_rows) for j in range(ad.n_cols) if entry(ad, i, j) != entry(adt, i, j)
    ]
    if asymmetric:
        i, j = asymmetric[0]
        problems.append(
            f"A.D not symmetric at checks ({i},{j}): "
            f"duals {g.bits[w.dual[j]].name}, {g.bits[w.dual[i]].name}"
        )
    for v in sorted(w.long_terminals):
        if g.bit_degree(v) != 1:
            problems.append(f"long terminal {g.bits[v].name} has degree {g.bit_degree(v)}")
    seen = {}
    for v in sorted(w.long_terminals):
        neigh = g.bit_neighbors(v)
        if len(neigh) == 1:
            if neigh[0] in seen:
                problems.append(
                    f"long terminals {g.bits[seen[neigh[0]]].name} and {g.bits[v].name}"
                    " share a check"
                )
            seen[neigh[0]] = v
    return problems


def test_verify_symmetry_matches_dense_oracle():
    rng = random.Random(2024)
    violations = 0
    for i in range(400):
        c = random_circuit(rng.randrange(1, 6), rng.randrange(1, 9), rng)
        g, w, _ = symmetrize(build_plain(c), c)
        if i % 2:
            g, w, _ = symmetric_split(g, w, random_plan(g, w, rng))
        dual = dict(w.dual)
        for _ in range(rng.randrange(3)):  # swap dual pairs
            a, b = rng.sample(sorted(dual), 2) if len(dual) > 1 else (0, 0)
            dual[a], dual[b] = dual[b], dual[a]
        w = SymmetryWitness(dual, w.long_terminals)
        problems = verify_symmetry(g, w)
        assert problems == dense_verify_symmetry(g, w), serialize_for_debug(c)
        violations += bool(problems)
    assert 50 < violations < 350


def test_verify_symmetry_builds_no_dense_matrix():
    c = parse_circuit(ZZ_TEXT)
    g, w, _ = symmetrize(build_plain(c), c)

    def dense(*_):
        raise AssertionError("verify_symmetry built a dense matrix")

    g.check_matrix = dense
    assert verify_symmetry(g, w) == []
    bad = dict(w.dual)
    bad[0], bad[1] = bad[1], bad[0]
    assert verify_symmetry(g, SymmetryWitness(bad, w.long_terminals))[0].startswith("A.D not")


def test_gadget_graphs_have_symmetry():
    for text in ("h 1", "s 1", "i 1", "cnot 1 2", "rz 1", "mz 1", "rx 1", "mx 1"):
        n = 2 if "cnot" in text else 1
        c = parse_circuit(f"qubits {n}\n{text}\n")
        g = build_plain(c)
        g2, w, _ = symmetrize(g, c)
        assert verify_symmetry(g2, w) == [], text


def test_export_dot():
    g = cnot_graph()
    dot = export_dot(g)
    assert dot.count("shape=ellipse") == 8
    assert dot.count("shape=box") == 4
    assert dot == export_dot(cnot_graph())
    empty = graph_from_matrix(BitMatrix(0, 0))
    assert export_dot(empty).startswith("graph tanner {")


def test_labels_roundtrip():
    g = build_plain(parse_circuit(ZZ_TEXT))
    labs = read_labels(write_labels(g))
    assert labs == g.bits


def test_witness_roundtrip():
    c = parse_circuit(ZZ_TEXT)
    g = build_plain(c)
    g2, w, _ = symmetrize(g, c)
    w2 = read_witness(write_witness(g2, w))
    assert w2.dual == w.dual
    assert w2.long_terminals == w.long_terminals


# ---------------------------------------------------------------------------
# The gadget table against its specification

# The per-kind ladders that the gadget table replaced, kept as the
# specification the table must reproduce.
_IDENTITY_KINDS = {OpKind.I, OpKind.PAULI_X, OpKind.PAULI_Y, OpKind.PAULI_Z}


def _gate_rows(op, t):
    """Check rows of a one-layer operation: (edges, row_owner) pairs.

    ``edges`` lists (kind, q, time) references; ``row_owner`` is the (kind, q)
    output coordinate the row constrains, used by the pairing tables.
    """
    tin, tout = t - 1, t
    k = op.kind
    if k is OpKind.CNOT:
        c, g = op.qubits
        return [
            ([("x", c, tin), ("x", c, tout)], ("x", c)),
            ([("x", c, tin), ("x", g, tin), ("x", g, tout)], ("x", g)),
            ([("z", c, tin), ("z", g, tin), ("z", c, tout)], ("z", c)),
            ([("z", g, tin), ("z", g, tout)], ("z", g)),
        ]
    (q,) = op.qubits
    if k is OpKind.H:
        return [
            ([("z", q, tin), ("x", q, tout)], ("x", q)),
            ([("x", q, tin), ("z", q, tout)], ("z", q)),
        ]
    if k is OpKind.S:
        return [
            ([("x", q, tin), ("x", q, tout)], ("x", q)),
            ([("x", q, tin), ("z", q, tin), ("z", q, tout)], ("z", q)),
        ]
    if k in _IDENTITY_KINDS:
        return [
            ([("x", q, tin), ("x", q, tout)], ("x", q)),
            ([("z", q, tin), ("z", q, tout)], ("z", q)),
        ]
    if k is OpKind.INIT_Z:
        return [([("x", q, tout)], ("x", q))]
    if k is OpKind.INIT_X:
        return [([("z", q, tout)], ("z", q))]
    if k is OpKind.MEAS_Z:
        return [([("x", q, tin)], ("x", q))]
    if k is OpKind.MEAS_X:
        return [([("z", q, tin)], ("z", q))]
    raise ValueError(f"no gadget for {k}")


def _side_table(op, q, orient=None):
    """Short-terminal kinds and pairing row owners per side of a gadget.

    Returns a list of (side, short_kind, pair_row_owner) for qubit ``q``;
    ``orient`` is the short input kind of an identity or Pauli gadget.
    """
    k = op.kind
    if k is OpKind.CNOT:
        c, g = op.qubits
        if q == c:
            return [("in", "x", ("z", c)), ("out", "z", ("x", c))]
        return [("in", "z", ("x", g)), ("out", "x", ("z", g))]
    if k is OpKind.H:
        return [("in", "z", ("z", q)), ("out", "z", ("x", q))]
    if k is OpKind.S:
        return [("in", "x", ("z", q)), ("out", "z", ("x", q))]
    if k in _IDENTITY_KINDS:
        if orient == "x":  # x-in short
            return [("in", "x", ("z", q)), ("out", "z", ("x", q))]
        return [("in", "z", ("x", q)), ("out", "x", ("z", q))]
    if k is OpKind.INIT_Z:
        return [("out", "z", ("x", q))]
    if k is OpKind.INIT_X:
        return [("out", "x", ("z", q))]
    if k is OpKind.MEAS_Z:
        return [("in", "z", ("x", q))]
    if k is OpKind.MEAS_X:
        return [("in", "x", ("z", q))]
    raise ValueError(f"no side table for {k}")


def test_gadget_table_reproduces_the_ladders():
    t = 4
    keys = set()
    for kind in OpKind:
        assert kind.is_wire == (kind in _IDENTITY_KINDS)
        for qubits in [(2, 5), (5, 2)] if kind.arity == 2 else [(3,)]:
            op = Operation(kind, qubits)
            for orient in ("x", "z") if kind.is_wire else (None,):
                keys.add((kind, orient))
                rows, sides = GADGETS[kind, orient]
                assert [
                    (
                        [(k, qubits[slot], t - 1 + dt) for k, slot, dt in row],
                        (row[-1][0], qubits[row[-1][1]]),
                    )
                    for row in rows
                ] == _gate_rows(op, t)
                for slot, q in enumerate(qubits):
                    assert [
                        (side, short, (pair, q))
                        for s, side, short, pair in sides
                        if s == slot
                    ] == _side_table(op, q, orient)
    assert set(GADGETS) == keys


# ---------------------------------------------------------------------------
# A seeded corpus of graphs, pinned by digest

# SHA-256 of graph_digest(graph_corpus()), computed with the ladder-based
# build_plain (commit 208779f): every bit label and flag, check, gadget record
# and symmetrize output of the corpus must stay the same.
GRAPH_CORPUS_SHA256 = "befc1716166efc9804c538609fb12c2e3ae8a30afda3c5d12273b60aebaff818"

_SWAPPABLE = (OpKind.H, OpKind.S, OpKind.PAULI_X, OpKind.PAULI_Z)


def with_i_and_y(c, rng):
    """c with about half of its h, s, x and z replaced by i or y.

    ``random_circuit`` never draws i or y; this leaves its draws alone and
    takes its own from ``rng``. Wire rules treat i and y as transparent, so
    the result is valid whenever c is.
    """
    layers = [
        [
            Operation(rng.choice((OpKind.I, OpKind.PAULI_Y)), op.qubits)
            if op.kind in _SWAPPABLE and rng.random() < 0.5
            else op
            for op in layer
        ]
        for layer in c.layers
    ]
    return Circuit(c.n_qubits, layers).canonical().check_valid()


def parity_text(k):
    """One round of a weight-k Z parity measurement onto ancilla k + 1."""
    a = k + 1
    layers = [f"rz {a}"] + [f"cnot {i} {a}" for i in range(1, k + 1)] + [f"mz {a}"]
    return f"qubits {a}\n" + "\ntick\n".join(layers) + "\n"


def graph_corpus():
    """806 circuits: repetition memory, parity rounds, 400 seeded random
    circuits and the same 400 with i and y substituted."""
    circuits = [parse_circuit(rep_memory_text(d)) for d in (3, 5, 7)]
    circuits += [parse_circuit(parity_text(k)) for k in (1, 2, 3)]
    rng, swap_rng = random.Random(2024), random.Random(2025)
    drawn = [random_circuit(rng.randrange(1, 9), rng.randrange(1, 17), rng) for _ in range(400)]
    return circuits + drawn + [with_i_and_y(c, swap_rng) for c in drawn]


def graph_digest(circuits):
    h = hashlib.sha256()
    for c in circuits:
        g = build_plain(c)
        sym, w, maps = symmetrize(g, c)
        record = (
            [(b.kind, b.q, b.t, b.serial, b.is_measurement, b.is_initialisation) for b in sym.bits],
            g.checks,
            [
                (r.checks, [(s.side, s.short_bit, s.long_bit, s.pair_check) for s in r.sides])
                for r in g.gadgets
            ],
            sym.checks,
            list(w.dual.items()),
            sorted(w.long_terminals),
            *(m.rows for m in dense_maps(maps, g.n_bits)),
        )
        h.update(repr(record).encode())
    return h.hexdigest()


def test_graph_corpus_digest_is_pinned():
    circuits = graph_corpus()
    assert len(circuits) == 806
    kinds = {op.kind for c in circuits for layer in c.layers for op in layer}
    assert kinds == set(OpKind)
    assert graph_digest(circuits) == GRAPH_CORPUS_SHA256


def test_build_plain_walks_each_wire_once(monkeypatch):
    c = parse_circuit(rep_memory_text(3))
    walks = []
    walk = Circuit._walk_wires
    monkeypatch.setattr(Circuit, "_walk_wires", lambda self: walks.append(1) or walk(self))
    build_plain(c)
    assert len(walks) == 1


def test_build_plain_hashes_no_kind_in_python():
    # the gadget tables are keyed by OpKind; its hash must stay in C
    prof = cProfile.Profile()
    prof.runcall(build_plain, parse_circuit(rep_memory_text(3)))
    assert [f for f in pstats.Stats(prof).stats if f[2] == "__hash__"] == []


def test_syndrome_matches_the_dense_product():
    rng = random.Random(13)
    graphs = []
    for _ in range(30):
        c = random_circuit(rng.randrange(1, 5), rng.randrange(1, 7), rng, p_meas=0.15)
        g = build_plain(c)
        sym, w, _ = symmetrize(g, c)
        split, _, _ = symmetric_split(sym, w, random_plan(sym, w, rng))
        graphs += [g, sym, split, graph_from_matrix(split.check_matrix(), split.bits)]
    for _ in range(30):
        n_rows, n_cols = rng.randrange(0, 9), rng.randrange(0, 13)
        rows = [rng.getrandbits(n_cols) for _ in range(n_rows)]
        graphs.append(graph_from_matrix(BitMatrix(n_rows, n_cols, rows)))
    codewords = non_codewords = 0
    for g in graphs:
        a = g.check_matrix()
        kernel = g.kernel_basis().rows
        vectors = [BitVector(g.n_bits, 1 << j) for j in range(g.n_bits)]
        for _ in range(10):
            vectors.append(BitVector(g.n_bits, rng.getrandbits(g.n_bits)))
            combination = 0
            for row in kernel:
                combination ^= row * rng.randrange(2)
            vectors.append(BitVector(g.n_bits, combination))
        for v in vectors:
            dense = a.mul_vec(v).bits
            assert g.syndrome(v) == dense
            codewords += dense == 0
            non_codewords += dense != 0
        with pytest.raises(ValueError, match="length mismatch"):
            g.syndrome(BitVector(g.n_bits + 1))
    assert codewords > 1000 and non_codewords > 1000


# ---------------------------------------------------------------------------
# The kernel by one sweep over the checks, against the dense elimination


def dense_kernel(g):
    """The oracle: the RREF kernel basis of the dense check matrix."""
    return g.check_matrix().kernel_basis()


def test_kernel_equals_the_dense_oracle_on_the_graph_corpus():
    rng = random.Random(29)
    for c in graph_corpus():
        g = build_plain(c)
        sym, w, _ = symmetrize(g, c)
        split, _, _ = symmetric_split(sym, w, random_plan(sym, w, rng))
        for graph in (g, sym, split):
            assert graph.kernel_basis() == dense_kernel(graph)


def test_kernel_equals_the_dense_oracle_on_shuffled_check_lists():
    rng = random.Random(31)
    shapes = set()
    for _ in range(400):
        n_bits = rng.randrange(0, 16)
        checks = []
        for _ in range(rng.randrange(0, 14)):
            size = rng.randrange(0, min(n_bits, 5) + 1)
            checks.append(tuple(rng.sample(range(n_bits), size)))
        # repeat some checks and shuffle their order, so the sweep sees a
        # check that closes on a copy and checks in no layer order
        checks += rng.sample(checks, rng.randrange(0, len(checks) + 1))
        rng.shuffle(checks)
        g = TannerGraph([VertexLabel("s", 0, -1, i) for i in range(n_bits)], checks)
        assert g.kernel_basis() == dense_kernel(g)
        in_checks = {j for c in checks for j in c}
        shapes.add((
            () in g.checks,
            len(set(g.checks)) < len(g.checks),
            len(in_checks) < n_bits,
        ))
    # empty checks, repeated checks and isolated bits, alone and together
    assert len(shapes) == 8


def test_sweep_checks_sources_of_a_plain_graph():
    # the sources are the t = 0 bits and the initialised bits (an init
    # gadget fixes the other kind), and only the measurements close
    g = build_plain(parse_circuit(ZZ_TEXT))
    values = [None] * g.n_bits
    free, closing = tanner.sweep_checks(g.checks, values, 0)
    initialised = [i for i, lab in enumerate(g.bits) if lab.is_initialisation]
    assert initialised and sorted(free) == g.layer_bits(0) + initialised
    assert len(closing) == sum(lab.is_measurement for lab in g.bits) > 0
    assert None not in values


def test_build_plain_builds_gadget_records_when_read(monkeypatch):
    made = []
    records = tanner._gadget_records
    monkeypatch.setattr(tanner, "_gadget_records", lambda *a: made.append(1) or records(*a))
    c = parse_circuit(rep_memory_text(3))
    g = build_plain(c)
    g.kernel_basis()
    g.syndrome(BitVector(g.n_bits))
    assert made == []
    assert g.gadgets is g.gadgets and len(made) == 1
    symmetrize(build_plain(c), c)
    assert len(made) == 2
