"""Acceptance suite: one test per criterion, each printing its own verdict.

Every criterion runs at its stated tolerance and deadline; failures carry
counterexample context.
"""

import random
import time

from circuitcode import codewords as cw
from circuitcode import pauli_sim as sim
from circuitcode.circuit import parse_circuit, random_circuit
from circuitcode.css import assemble_physical, derive_logicals, repeated_measurement_layer
from circuitcode.distance import circuit_distance, css_distance
from circuitcode.gf2 import BitMatrix, BitVector
from circuitcode.pauli import PauliOperator
from circuitcode.splitting import distance_bound_holds, random_plan, symmetric_split
from circuitcode.synthesis import roundtrip_check, synthesize, trivial_partition
from circuitcode.tanner import bit_split, build_plain, symmetrize, verify_symmetry
from tests.test_circuit import ZZ_TEXT
from tests.test_splitting import split_distances
from tests.test_synthesis import sampled_pairing_ok
from tests.test_tanner import dense_maps

STEANE_H = BitMatrix.from_rows(
    [
        [1, 0, 1, 0, 1, 0, 1],
        [0, 1, 1, 0, 0, 1, 1],
        [0, 0, 0, 1, 1, 1, 1],
    ]
)


class Deadline:
    def __init__(self, number, limit):
        self.number = number
        self.limit = limit
        self.start = time.perf_counter()

    def finish(self):
        elapsed = time.perf_counter() - self.start
        print(f"criterion {self.number}: PASS ({elapsed:.2f}s, limit {self.limit}s)")
        assert elapsed < self.limit, f"criterion {self.number} exceeded {self.limit}s"


def test_criterion_1_cnot_propagation():
    gate = Deadline(1, 1.0)
    g = build_plain(parse_circuit("qubits 2\ncnot 1 2\n"))
    a = g.check_matrix()
    v = BitVector.from_bits([1, 0, 0, 0, 1, 1, 0, 0])
    assert a.mul_vec(v).is_zero()
    assert a.kernel_basis().row_space_member(v)
    assert cw.sigma_at_layer(g, v, 0).label() == "X1"
    assert cw.sigma_at_layer(g, v, 1).label() == "X1X2"
    gate.finish()


def test_criterion_2_parity_check_classification():
    gate = Deadline(2, 1.0)
    c = parse_circuit(ZZ_TEXT)
    assert c.n_qubits == 3 and c.depth == 8
    g = build_plain(c)
    p = lambda s: PauliOperator.from_label(s, 3)
    ident = p("I1")

    xx = cw.solve_codeword(g, p("X1X2"), p("X1X2"))
    assert xx is not None and cw.classify(g, xx) == cw.GENUINE_PROPAGATOR
    z1 = cw.solve_codeword(g, p("Z1"), p("Z1"))
    assert z1 is not None and cw.classify(g, z1) == cw.GENUINE_PROPAGATOR
    zz = cw.solve_codeword(g, p("Z1Z2"), p("Z1Z2"))
    assert zz is not None and cw.classify(g, zz) == cw.PSEUDO_PROPAGATOR

    m1, m2 = [i for i, lab in enumerate(g.bits) if lab.is_measurement]
    d1 = cw.solve_codeword(g, p("Z1Z2"), ident, {m1: 1, m2: 0})
    d2 = cw.solve_codeword(g, p("Z1Z2"), ident, {m1: 0, m2: 1})
    assert d1 is not None and cw.classify(g, d1) == cw.DETECTOR
    assert d2 is not None and cw.classify(g, d2) == cw.DETECTOR
    e1 = cw.solve_codeword(g, ident, p("Z1Z2"), {m1: 1, m2: 0})
    e2 = cw.solve_codeword(g, ident, p("Z1Z2"), {m1: 0, m2: 1})
    assert e1 is not None and cw.classify(g, e1) == cw.EMITTER
    assert e2 is not None and cw.classify(g, e2) == cw.EMITTER

    checker = d1 ^ d2
    assert cw.classify(g, checker) == cw.CHECKER
    assert cw.relevant_measurements(g, checker) == [m1, m2]
    gate.finish()


def _fuzz_corpus(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(1, 6)
        depth = rng.randrange(1, 11)
        yield rng, random_circuit(n, depth, rng)


def test_criterion_3_codeword_equation_fuzz():
    gate = Deadline(3, 120.0)
    checked = 0
    for rng, c in _fuzz_corpus(20240, 500):
        g = build_plain(c)
        for v in g.check_matrix().kernel_basis().row_vectors():
            verdict = sim.verify_codeword_equation(
                c, g, v, None, seed=rng.randrange(1 << 30), trials=8
            )
            assert verdict.ok, verdict.report(c, v, None)
            checked += 1
    assert checked > 1000
    gate.finish()


def test_criterion_4_generalised_equation_fuzz():
    gate = Deadline(4, 300.0)
    checked = 0
    for rng, c in _fuzz_corpus(20241, 500):
        g = build_plain(c)
        if g.n_bits == 0:
            continue
        for v in g.check_matrix().kernel_basis().row_vectors():
            for _ in range(2):
                weight = rng.randrange(1, 5)
                supp = rng.sample(range(g.n_bits), min(weight, g.n_bits))
                e = BitVector.from_indices(g.n_bits, supp)
                verdict = sim.verify_codeword_equation(
                    c, g, v, e, seed=rng.randrange(1 << 30), trials=4
                )
                assert verdict.ok, verdict.report(c, v, e)
                checked += 1
    assert checked > 1000
    gate.finish()


def test_criterion_5_bit_splitting_preserves_code_and_distance():
    gate = Deadline(5, 300.0)
    rng = random.Random(20242)
    done = 0
    while done < 200:
        c = random_circuit(rng.randrange(1, 4), rng.randrange(1, 5), rng)
        g = build_plain(c)
        if g.n_bits == 0:
            continue
        done += 1
        ec = cw.complete_ec_structure(g)
        before = circuit_distance(ec.b, ec.l, 5)
        b, l = ec.b, ec.l
        current = g
        dim = g.check_matrix().kernel_basis().n_rows
        for _ in range(2):
            v = rng.randrange(current.n_bits)
            neigh = current.bit_neighbors(v)
            rng.shuffle(neigh)
            cut = rng.randrange(len(neigh) + 1)
            current, maps = bit_split(current, v, (neigh[:cut], neigh[cut:]))
            b = maps.map_matrix(b)
            l = maps.map_matrix(l)
            assert current.check_matrix().kernel_basis().n_rows == dim
            after = circuit_distance(b, l, 5)
            assert after.value == before.value
            assert after.exact == before.exact
    gate.finish()


def test_criterion_6_symmetric_splitting_bound():
    gate = Deadline(6, 600.0)
    rng = random.Random(20243)
    done = 0
    while done < 50:
        c = random_circuit(rng.randrange(1, 5), rng.randrange(1, 7), rng)
        g0 = build_plain(c)
        g, w, maps0 = symmetrize(g0, c)
        if not (0 < g.n_bits <= 40) or g.max_degree() > 6:
            continue
        ec = cw.complete_ec_structure(g0)
        b = maps0.map_matrix(ec.b)
        l = maps0.map_matrix(ec.l)
        plan = random_plan(g, w, rng)
        g2, w2, maps = symmetric_split(g, w, plan)
        assert verify_symmetry(g2, w2) == []
        k = g.check_matrix().kernel_basis()
        a2 = g2.check_matrix()
        assert a2.kernel_basis().n_rows == k.n_rows
        codeword, _ = dense_maps(maps, g.n_bits)
        images = [codeword.mul_vec(v) for v in k.row_vectors()]
        for img in images:
            assert a2.mul_vec(img).is_zero()
        if images:
            assert (
                BitMatrix.from_vectors(images, n_cols=g2.n_bits).rank() == len(images)
            )
        before, after = split_distances(b, l, maps, max_weight=5)
        assert all(distance_bound_holds(before, after, g.max_degree()))
        done += 1
    gate.finish()


def test_criterion_7_synthesis_roundtrip():
    gate = Deadline(7, 600.0)
    rng = random.Random(20244)
    done = 0
    while done < 20:
        c = random_circuit(rng.randrange(1, 4), rng.randrange(1, 6), rng)
        g0 = build_plain(c)
        if g0.n_bits == 0:
            continue
        ec = cw.complete_ec_structure(g0)
        g, w, maps0 = symmetrize(g0, c)
        b = maps0.map_matrix(ec.b)
        l = maps0.map_matrix(ec.l)
        result = synthesize(g, w, trivial_partition(g, w))
        report = roundtrip_check(g, result, b, l, max_weight=4)
        assert report.pairing_ok
        assert sampled_pairing_ok(g, result.maps, rng) == report.pairing_ok
        assert report.ok
        done += 1
    gate.finish()


def test_criterion_8_css_closed_forms():
    gate = Deadline(8, 60.0)
    code = derive_logicals(STEANE_H, STEANE_H)
    asm = assemble_physical(code, repeated_measurement_layer(2))
    assert asm.a.n_cols == 54
    assert asm.a.matmul(asm.b.transpose()).is_zero()
    assert asm.a.matmul(asm.l.transpose()).is_zero()
    assert asm.a_x.matmul(asm.d_x) == asm.a_z.matmul(asm.d_z).transpose()

    d_x, d_z, d_css = css_distance(STEANE_H, STEANE_H, max_weight=3)
    assert d_css.value == 3
    res = circuit_distance(asm.b, asm.l, max_weight=3)
    assert res.value == 3 == d_css.value
    # weight-3 witness confined to a single n-qubit operator mini-block
    blocks = set()
    for j in res.witness.support():
        side = 0 if j < asm.x_cols else 1
        local = j - side * asm.x_cols
        assert local < 3 * 7
        blocks.add((side, local // 7))
    assert len(blocks) == 1
    gate.finish()


def test_criterion_9_parity_check_distances():
    gate = Deadline(9, 1.0)
    code = derive_logicals(BitMatrix(0, 2), BitMatrix.from_rows([[1, 1]]))
    d_x, d_z, d_css = css_distance(code.g_x, code.g_z, max_weight=2)
    assert d_css.value == 1

    c = parse_circuit(ZZ_TEXT)
    g = build_plain(c)
    zz = [PauliOperator.from_label("Z1Z2", 3)]
    ec = cw.build_ec_structure(g, zz, zz)
    res = circuit_distance(ec.b, ec.l, max_weight=2)
    assert res.value == 1
    assert res.witness.weight() == 1
    assert ec.b.mul_vec(res.witness).is_zero()
    assert not ec.l.mul_vec(res.witness).is_zero()
    gate.finish()
