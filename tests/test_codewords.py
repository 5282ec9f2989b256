import itertools
import random
import re
from dataclasses import replace

import pytest

from circuitcode import cli
from circuitcode import codewords as cw
from circuitcode import pauli_sim as sim
from circuitcode.circuit import parse_circuit, random_circuit
from circuitcode.gf2 import BitMatrix, BitVector
from circuitcode.pauli import PauliOperator
from circuitcode.splitting import random_plan, symmetric_split
from circuitcode.synthesis import roundtrip_check, synthesize, trivial_partition
from circuitcode.tanner import TannerGraph, build_plain, graph_from_matrix, symmetrize
from tests.test_circuit import ZZ_TEXT
from tests.test_tanner import graph_corpus, rep_memory_text


def zz_graph():
    c = parse_circuit(ZZ_TEXT)
    return c, build_plain(c)


def test_sigma_at_layer_cnot():
    g = build_plain(parse_circuit("qubits 2\ncnot 1 2\n"))
    v = BitVector.from_bits([1, 0, 0, 0, 1, 1, 0, 0])
    assert cw.sigma_at_layer(g, v, 0).label() == "X1"
    assert cw.sigma_at_layer(g, v, 1).label() == "X1X2"
    zero = BitVector(g.n_bits)
    assert cw.sigma_at_layer(g, zero, 0).is_identity_kind()


def pauli(label, n):
    return PauliOperator.from_label(label, n)


def test_zz_classification():
    c, g = zz_graph()
    xx = cw.solve_codeword(g, pauli("X1X2", 3), pauli("X1X2", 3))
    assert xx is not None
    assert cw.classify(g, xx) == cw.GENUINE_PROPAGATOR

    z1 = cw.solve_codeword(g, pauli("Z1", 3), pauli("Z1", 3))
    assert z1 is not None
    assert cw.classify(g, z1) == cw.GENUINE_PROPAGATOR

    zz = cw.solve_codeword(g, pauli("Z1Z2", 3), pauli("Z1Z2", 3))
    assert zz is not None
    assert cw.classify(g, zz) == cw.PSEUDO_PROPAGATOR


def test_zz_detectors_emitters_checker():
    c, g = zz_graph()
    m1, m2 = [i for i, lab in enumerate(g.bits) if lab.is_measurement]
    ident = pauli("I1", 3)
    d1 = cw.solve_codeword(g, pauli("Z1Z2", 3), ident, {m1: 1, m2: 0})
    d2 = cw.solve_codeword(g, pauli("Z1Z2", 3), ident, {m1: 0, m2: 1})
    assert d1 is not None and d2 is not None
    assert cw.classify(g, d1) == cw.DETECTOR
    assert cw.classify(g, d2) == cw.DETECTOR
    assert cw.relevant_measurements(g, d1) == [m1]
    assert cw.relevant_measurements(g, d2) == [m2]

    e1 = cw.solve_codeword(g, ident, pauli("Z1Z2", 3), {m1: 1, m2: 0})
    e2 = cw.solve_codeword(g, ident, pauli("Z1Z2", 3), {m1: 0, m2: 1})
    assert e1 is not None and e2 is not None
    assert cw.classify(g, e1) == cw.EMITTER
    assert cw.classify(g, e2) == cw.EMITTER

    checker = d1 ^ d2
    assert cw.classify(g, checker) == cw.CHECKER
    assert cw.relevant_measurements(g, checker) == [m1, m2]
    # the checker space of this circuit is one-dimensional
    assert cw.code_spaces(g).checkers.n_rows == 1

    # detector + emitter with the same middle section is a propagator
    prop = d1 ^ e1
    assert cw.classify(g, prop) == cw.PSEUDO_PROPAGATOR


def test_checker_algebra():
    _, g = zz_graph()
    spaces = cw.code_spaces(g)
    ch = spaces.checkers.row(0)
    assert cw.classify(g, ch) == cw.CHECKER
    m1, m2 = [i for i, lab in enumerate(g.bits) if lab.is_measurement]
    d1 = cw.solve_codeword(g, pauli("Z1Z2", 3), pauli("I1", 3), {m1: 1, m2: 0})
    assert cw.classify(g, d1 ^ ch) == cw.DETECTOR


def test_propagator_theorem_statement():
    # A codeword is incoherent exactly when its boundary operators commute
    # with those of every codeword; checked exhaustively on small circuits.
    rng = random.Random(6)
    tested = 0
    while tested < 8:
        c = random_circuit(rng.randrange(1, 4), rng.randrange(1, 6), rng)
        g = build_plain(c)
        spaces = cw.code_spaces(g)
        k = spaces.kernel
        if not 1 <= k.n_rows <= 9:
            continue
        tested += 1
        basis = list(k.row_vectors())
        for coeffs in itertools.product([0, 1], repeat=len(basis)):
            v = BitVector(g.n_bits)
            for b, take in zip(basis, coeffs):
                if take:
                    v ^= b
            s_in = cw.sigma_at_layer(g, v, 0)
            s_out = cw.sigma_at_layer(g, v, g.depth)
            commuting = all(
                s_in.commutes_with(cw.sigma_at_layer(g, b, 0))
                and s_out.commutes_with(cw.sigma_at_layer(g, b, g.depth))
                for b in basis
            )
            incoherent = spaces.incoherent.row_space_member(v)
            assert commuting == incoherent


def test_build_ec_structure_zz():
    c, g = zz_graph()
    zz = [pauli("Z1Z2", 3)]
    ec = cw.build_ec_structure(g, zz, zz)
    assert ec.b.n_rows == 3
    assert ec.l.n_rows == 2
    ins, _ = g.boundaries(ec.l)
    assert ins.row_space_member(pauli("X1X2", 3).xz_vector())
    assert ins.row_space_member(pauli("Z1", 3).xz_vector())
    # B rows are incoherent codewords of the expected kinds
    kinds = {cw.classify(g, r) for r in ec.b.row_vectors()}
    assert kinds <= {cw.CHECKER, cw.DETECTOR, cw.EMITTER, cw.PSEUDO_PROPAGATOR}


def test_build_ec_structure_rejects_noncommuting():
    _, g = zz_graph()
    with pytest.raises(ValueError):
        cw.build_ec_structure(g, [pauli("X1", 3), pauli("Z1", 3)], [])


def test_validate_b_l_trips_each_condition():
    _, g = zz_graph()
    zz = [pauli("Z1Z2", 3)]
    ec = cw.build_ec_structure(g, zz, zz)  # validates; L carries X1X2 and Z1
    j = next(i for i in range(g.n_bits) if g.bit_degree(i))
    not_codeword = BitMatrix(1, g.n_bits, [1 << j])
    no_rows = BitMatrix(0, g.n_bits, [])
    broken = {
        "A B^T must vanish": replace(ec, b=not_codeword),
        "A L^T must vanish": replace(ec, l=not_codeword),
        "rows of B and L must be independent": replace(ec, l=ec.b),
        "B boundary operators must commute": replace(ec, b=ec.l, l=no_rows),
    }
    for message, structure in broken.items():
        b, l = structure.b, structure.l
        # the check matrix, or the graph whose syndromes test the rows
        for a in (g.check_matrix(), g):
            with pytest.raises(ValueError, match=re.escape(message)):
                cw.validate_b_l(a, b, l, g.boundaries(b))


def test_ec_structure_unitary_circuit():
    c = parse_circuit("qubits 2\ncnot 1 2\ntick\nh 1\n")
    g = build_plain(c)
    ec = cw.build_ec_structure(g, [], [])
    assert ec.b.n_rows == 0
    assert ec.l.n_rows == g.check_matrix().kernel_basis().n_rows


def test_complete_ec_structure():
    c, g = zz_graph()
    ec = cw.complete_ec_structure(g)
    spaces = cw.code_spaces(g)
    assert ec.b.n_rows + ec.l.n_rows == spaces.kernel.n_rows
    s_in_mat = BitMatrix.from_vectors(
        [p.xz_vector() for p in ec.s_in], n_cols=6
    )
    assert s_in_mat.rref() == BitMatrix.from_vectors([pauli("Z1Z2", 3).xz_vector()]).rref()


def test_derive_codes_from_b():
    c, g = zz_graph()
    ec = cw.build_ec_structure(g, [pauli("Z1Z2", 3)], [pauli("Z1Z2", 3)])
    s_in, s_out = cw.derive_codes_from_b(g, ec.b)
    m = BitMatrix.from_vectors([p.xz_vector() for p in s_in], n_cols=6)
    assert m.rref() == BitMatrix.from_vectors([pauli("Z1Z2", 3).xz_vector()]).rref()
    assert cw.derive_codes_from_b(g, BitMatrix(0, g.n_bits)) == ([], [])


def test_errors_equivalent():
    _, g = zz_graph()
    a = g.check_matrix()
    e = BitVector.from_indices(g.n_bits, [3])
    # two errors are equivalent iff their sum lies in rowsp(A)
    assert a.row_space_member(e ^ e)
    row = a.row(0)
    assert a.row_space_member(e ^ (e ^ row))

    one = BitMatrix.from_rows([[1, 1, 0]])
    e1, e2 = BitVector.from_bits([1, 0, 0]), BitVector.from_bits([0, 0, 1])
    assert not one.row_space_member(e1 ^ e2)


def test_split_bit_errors_equivalent():
    # After splitting, single-bit errors on the two halves are equivalent
    # because the new degree-2 check row is exactly their sum.
    c = parse_circuit("qubits 1\ns 1\ntick\nh 1\n")
    g = build_plain(c)
    g2, w, maps = symmetrize(g, c)
    v2 = g2.n_bits - 1  # the added bit
    new_check = g2.n_checks - 1
    v, v2 = g2.checks[new_check]
    a2 = g2.check_matrix()
    e_v = BitVector.from_indices(g2.n_bits, [v])
    e_u = BitVector.from_indices(g2.n_bits, [v2])
    assert a2.row_space_member(e_v ^ e_u)


def test_find_anticommuting_partner_zz():
    c, g = zz_graph()
    xx = cw.solve_codeword(g, pauli("X1X2", 3), pauli("X1X2", 3))
    partner = cw.find_anticommuting_partner(g, xx)
    s_in = cw.sigma_at_layer(g, partner, 0)
    s_out = cw.sigma_at_layer(g, partner, g.depth)
    assert not s_in.commutes_with(pauli("X1X2", 3))
    assert not s_out.commutes_with(pauli("X1X2", 3))


def test_find_anticommuting_partner_identity_wire():
    c = parse_circuit("qubits 1\ni 1\n")
    g = build_plain(c)
    x_line = cw.solve_codeword(g, pauli("X1", 1), pauli("X1", 1))
    partner = cw.find_anticommuting_partner(g, x_line)
    assert cw.sigma_at_layer(g, partner, 0).x == 0  # a Z-type line


def test_find_anticommuting_partner_random():
    rng = random.Random(11)
    found = 0
    while found < 6:
        c = random_circuit(4, rng.randrange(2, 7), rng, p_meas=0.05)
        g = build_plain(c)
        spaces = cw.code_spaces(g)
        genuine = None
        for v in spaces.kernel.row_vectors():
            if cw.classify(g, v) == cw.GENUINE_PROPAGATOR:
                genuine = v
                break
        if genuine is None:
            continue
        found += 1
        partner = cw.find_anticommuting_partner(g, genuine)
        a = cw.sigma_at_layer(g, genuine, 0)
        b = cw.sigma_at_layer(g, partner, 0)
        assert not a.commutes_with(b)


def test_b_and_l_dimension_bound():
    rng = random.Random(21)
    for _ in range(10):
        c = random_circuit(rng.randrange(1, 4), rng.randrange(1, 6), rng)
        g = build_plain(c)
        ec = cw.complete_ec_structure(g)
        k = cw.code_spaces(g).kernel
        assert ec.b.n_rows + ec.l.n_rows <= k.n_rows


# ---------------------------------------------------------------------------
# The code spaces in bit coordinates: the formulation code_spaces replaced,
# kept as the oracle for the kernel-coordinate one


def layer_projection(g, t):
    """Selector rows for the bits of layer t (removed bits contribute none)."""
    rows = [1 << i for i in g.layer_bits(t)]
    return BitMatrix(len(rows), g.n_bits, rows)


def code_spaces_by_projection(g):
    a = g.check_matrix()
    p0 = layer_projection(g, 0)
    pt = layer_projection(g, g.depth)
    with_detectors = a.stack(pt).kernel_basis()
    with_emitters = a.stack(p0).kernel_basis()
    checkers = a.stack(p0, pt).kernel_basis()
    incoherent = with_detectors.stack(with_emitters).rref()
    k = a.kernel_basis()
    xz_in, xz_out = (layer_xz(g, k, t) for t in (0, g.depth))
    return cw.CodeSpaces(k, checkers, with_detectors, with_emitters, incoherent, xz_in, xz_out)


def layer_xz(g, basis, t):
    """The (x|z) vector of each row's layer-t bits, read bit by bit."""
    n = g.n_qubits
    rows = []
    for r in basis.rows:
        row = 0
        for i in g.layer_bits(t):
            lab = g.bits[i]
            if r >> i & 1:
                row |= 1 << ((0 if lab.kind == "x" else n) + lab.q - 1)
        rows.append(row)
    return BitMatrix(basis.n_rows, 2 * n, rows)


def ec_b_l_by_stack_kernel(g, s_in, s_out):
    """B and L as build_ec_structure wrote them out before sharing _carve."""
    n = g.n_qubits
    k = g.check_matrix().kernel_basis()
    m0, mt = g.boundaries(k)
    g_in = cw._pauli_matrix(s_in, n)
    g_out = cw._pauli_matrix(s_out, n)
    n_in = m0.matmul(g_in.kernel_basis().transpose())
    n_out = mt.matmul(g_out.kernel_basis().transpose())
    b = n_in.transpose().stack(n_out.transpose()).kernel_basis().matmul(k).rref()
    c_in = m0.matmul(cw._swap_halves(g_in, n).transpose())
    c_out = mt.matmul(cw._swap_halves(g_out, n).transpose())
    w = c_in.transpose().stack(c_out.transpose()).kernel_basis().matmul(k)
    return b, cw.extend_span(b, w).rref()


def b_by_bit_conditions(g, s_in, s_out):
    """B from conditions on the boundary bits: each dual vector of a group
    is one parity of the layer's bits that must vanish."""
    rows = []
    for t, gens in ((0, s_in), (g.depth, s_out)):
        duals = cw._pauli_matrix(gens, g.n_qubits).kernel_basis()
        for d in duals.rows:
            row = 0
            for i in g.layer_bits(t):
                lab = g.bits[i]
                offset = 0 if lab.kind == "x" else g.n_qubits
                if d >> (offset + lab.q - 1) & 1:
                    row |= 1 << i
            rows.append(row)
    return g.check_matrix().stack(BitMatrix(len(rows), g.n_bits, rows)).kernel_basis().rref()


def seeded_circuits(count, seed):
    rng = random.Random(seed)
    return [
        random_circuit(rng.randrange(1, 5), rng.randrange(1, 7), rng, p_meas=0.15)
        for _ in range(count)
    ]


def test_code_spaces_match_the_projection_oracle():
    circuits = seeded_circuits(200, 31)
    circuits += [parse_circuit(rep_memory_text(d)) for d in (3, 5, 7)]
    circuits.append(parse_circuit(ZZ_TEXT))
    for c in circuits:
        g = build_plain(c)
        assert cw.code_spaces(g) == code_spaces_by_projection(g)


def test_ec_structure_matches_the_stack_kernel_oracle():
    z1z2, x1x2 = pauli("Z1Z2", 3), pauli("X1X2", 3)
    cases = [(build_plain(parse_circuit(ZZ_TEXT)), s_in, s_out) for s_in, s_out in (
        ([z1z2], [z1z2]), ([z1z2], []), ([], [z1z2]), ([z1z2, x1x2], [z1z2]), ([], []),
    )]
    for c in seeded_circuits(60, 37):
        g = build_plain(c)
        if c.depth == 0:
            continue
        s_in, s_out = cw.derive_codes_from_b(g, cw.complete_ec_structure(g).b)
        cases += [(g, s_in, s_out), (g, s_in[:1], []), (g, [], s_out[1:])]
    for g, s_in, s_out in cases:
        ec = cw.build_ec_structure(g, s_in, s_out)
        assert (ec.b, ec.l) == ec_b_l_by_stack_kernel(g, s_in, s_out)
        assert ec.b == b_by_bit_conditions(g, s_in, s_out)


# ---------------------------------------------------------------------------
# Boundary operators of a whole matrix of codewords


def xz_matrix_by_rows(g, basis, t):
    """The (x|z) operator of each row at time t, read one row at a time: the
    reader that TannerGraph.boundaries replaced, kept as its oracle."""
    rows = [cw.sigma_at_layer(g, c, t).xz_vector().bits for c in basis.row_vectors()]
    return BitMatrix(basis.n_rows, 2 * g.n_qubits, rows)


def assert_boundaries_match_the_row_oracle(g, rng):
    random_rows = [rng.getrandbits(g.n_bits) for _ in range(3)]
    for m in (g.kernel_basis(), BitMatrix(3, g.n_bits, random_rows)):
        oracle = tuple(xz_matrix_by_rows(g, m, t) for t in (0, g.depth))
        assert g.boundaries(m) == oracle


def test_boundaries_match_the_row_oracle_on_the_graph_corpus():
    rng = random.Random(15)
    for c in graph_corpus():
        assert_boundaries_match_the_row_oracle(build_plain(c), rng)


def test_boundaries_match_the_row_oracle_on_reloaded_bundles(tmp_path):
    rng = random.Random(16)
    circuits = [parse_circuit(text) for text in (ZZ_TEXT, rep_memory_text(3))]
    circuits += [c for c in seeded_circuits(30, 17) if c.depth]
    for i, c in enumerate(circuits):
        sym, w, _ = symmetrize(build_plain(c), c)
        split, w2, _ = symmetric_split(sym, w, random_plan(sym, w, rng))
        for name, g, witness in (("sym", sym, w), ("split", split, w2)):
            prefix = str(tmp_path / f"{name}{i}")
            cli._save_graph(prefix, g, witness, alist=False)
            loaded, _ = cli._load_graph(prefix)
            assert loaded.bits == g.bits
            assert_boundaries_match_the_row_oracle(loaded, rng)


@pytest.mark.parametrize("text", [ZZ_TEXT, rep_memory_text(3)], ids=["zz", "rep3"])
def test_whole_code_readers_walk_no_single_codeword(text, monkeypatch):
    g = build_plain(parse_circuit(text))
    calls = []
    wire_masks = TannerGraph.wire_masks
    monkeypatch.setattr(
        TannerGraph, "wire_masks", lambda self, v: calls.append(v) or wire_masks(self, v)
    )
    spaces = cw.code_spaces(g)
    ec = cw.complete_ec_structure(g)
    cw.build_ec_structure(g, ec.s_in, ec.s_out)
    cw.derive_codes_from_b(g, spaces.incoherent)
    assert calls == []


@pytest.mark.parametrize("text", [ZZ_TEXT, rep_memory_text(3)], ids=["zz", "rep3"])
def test_classify_and_verify_walk_each_codeword_once(text, tmp_path, monkeypatch):
    # the syndrome, wire masks and relevant measurements of a codeword come
    # from one walk of its support, on the command line and in the library
    path = tmp_path / "c.qc"
    path.write_text(text)
    g = build_plain(parse_circuit(text))
    walks = []
    support = BitVector.support
    monkeypatch.setattr(BitVector, "support", lambda self: walks.append(self) or support(self))
    dim = g.kernel_basis().n_rows
    for argv in (["classify"], ["verify", "--seed", "3", "--states", "2"]):
        walks.clear()
        assert cli.main([*argv[:1], "--circuit", str(path), *argv[1:]]) == 0
        assert len(walks) == dim
    for i, v in enumerate(g.kernel_basis().row_vectors()):
        walks.clear()
        assert sim.verify_codeword_equation(parse_circuit(text), g, v, None, seed=i, trials=2).ok
        assert walks == [v]


# ---------------------------------------------------------------------------
# Neither the kernel nor the per-codeword readers build the dense check matrix


def _forbid_check_matrix(g, monkeypatch):
    def dense(*_):
        raise AssertionError("a per-codeword reader built the dense check matrix")

    monkeypatch.setattr(TannerGraph, "check_matrix", dense)


@pytest.mark.parametrize("text", [ZZ_TEXT, rep_memory_text(3)], ids=["zz", "rep3"])
def test_codeword_readers_use_no_dense_matrix(text, monkeypatch):
    c = parse_circuit(text)
    g = build_plain(c)
    _forbid_check_matrix(g, monkeypatch)
    for i, v in enumerate(g.kernel_basis().row_vectors()):
        cw.classify(g, v)
        cw.relevant_measurements(g, v)
        sim.nu(c, g, v)
        assert sim.verify_codeword_equation(c, g, v, None, seed=i, trials=2).ok
    with pytest.raises(ValueError, match="not a codeword"):
        cw.classify(g, BitVector(g.n_bits, 1))


@pytest.mark.parametrize("text", [ZZ_TEXT, rep_memory_text(3)], ids=["zz", "rep3"])
def test_ec_structures_use_no_dense_matrix(text, monkeypatch):
    c = parse_circuit(text)
    g = build_plain(c)
    _forbid_check_matrix(g, monkeypatch)
    ec = cw.complete_ec_structure(g)
    assert ec.b.n_rows + ec.l.n_rows == g.kernel_basis().n_rows
    assert cw.build_ec_structure(g, ec.s_in, ec.s_out).b == ec.b


@pytest.mark.parametrize("text", [ZZ_TEXT, rep_memory_text(3)], ids=["zz", "rep3"])
def test_roundtrip_codeword_test_uses_no_dense_matrix(text, monkeypatch):
    # neither the input graph nor the synthesised circuit's graph may build it
    c = parse_circuit(text)
    g, w, _ = symmetrize(build_plain(c), c)
    ec = cw.complete_ec_structure(g)
    _forbid_check_matrix(g, monkeypatch)
    result = synthesize(g, w, trivial_partition(g, w))
    assert roundtrip_check(g, result, ec.b, ec.l, max_weight=2).pairing_ok
    with pytest.raises(ValueError, match="rows of L are not codewords"):
        roundtrip_check(g, result, ec.b, BitMatrix(1, g.n_bits, [1]), max_weight=2)


def test_graph_without_layers_is_a_value_error():
    g0 = build_plain(parse_circuit(ZZ_TEXT))
    g = graph_from_matrix(g0.check_matrix())
    assert g.depth is None
    v = g.kernel_basis().row(0)
    for call in (
        lambda: cw.classify(g, v),
        lambda: cw.code_spaces(g),
        lambda: cw.sigma_at_layer(g, v, 0),
    ):
        with pytest.raises(ValueError, match="graph has no layer structure"):
            call()
    # no kernel at all still raises the same error
    empty = graph_from_matrix(BitMatrix.identity(3))
    with pytest.raises(ValueError, match="graph has no layer structure"):
        cw.code_spaces(empty)
