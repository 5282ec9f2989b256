import itertools
import random

import pytest

from circuitcode import codewords as cw
from circuitcode import pauli_sim as sim
from circuitcode.circuit import parse_circuit, random_circuit
from circuitcode.gf2 import BitVector
from circuitcode.pauli import PauliOperator
from circuitcode.tanner import build_plain
from tests.test_circuit import ZZ_TEXT
from tests.test_tanner import rep_memory_text


def test_conjugate_pauli_through_circuit():
    c = parse_circuit("qubits 1\ns 1\n")
    out = sim.conjugate_pauli(c, PauliOperator.from_label("X1", 1))
    assert out.label() == "Y1"
    out2 = sim.conjugate_pauli(c, PauliOperator.from_label("Y1", 1))
    assert out2.label() == "-X1"
    cx = parse_circuit("qubits 2\ncnot 1 2\n")
    assert sim.conjugate_pauli(cx, PauliOperator.from_label("X1", 2)).label() == "X1X2"


def test_conjugate_rejects_measurement():
    c = parse_circuit("qubits 1\nmz 1\n")
    with pytest.raises(ValueError):
        sim.conjugate_pauli(c, PauliOperator.from_label("X1", 1))


def test_measure_zero_state_deterministic():
    t = sim.Tableau(1)
    assert t.measure_z(0) == 1
    assert t.stabilizes(PauliOperator.from_label("Z1", 1)) == 1


def test_forced_contradiction_raises():
    t = sim.Tableau(1)
    with pytest.raises(sim.ForcedOutcomeError):
        t.measure_z(0, forced=-1)


def test_forced_random_outcome_keeps_state_consistent():
    t = sim.Tableau(1)
    t.apply_h(0)  # |+>
    out = t.measure_z(0, forced=-1)
    assert out == -1
    assert t.stabilizes(PauliOperator.from_label("Z1", 1)) == -1


def test_zz_outcomes_agree_on_stabilised_input():
    c = parse_circuit(ZZ_TEXT)
    rng = random.Random(3)
    for _ in range(20):
        initial = sim.state_containing(
            [PauliOperator.from_label("Z1Z2", 3)], 3, rng
        )
        result = sim.run(c, initial, rng)
        assert result.outcomes[(3, 4)] == result.outcomes[(3, 8)]


def test_tableau_invariants_preserved():
    rng = random.Random(9)
    for _ in range(20):
        c = random_circuit(rng.randrange(1, 5), rng.randrange(1, 8), rng)
        t = sim.random_tableau(c.n_qubits, rng)
        assert t.invariants_ok()
        out = sim.run(c, t, rng)
        assert out.tableau.invariants_ok()


def test_random_state_containing():
    rng = random.Random(13)
    p = PauliOperator.from_label("X1Z3", 3)
    for _ in range(10):
        t = sim.state_containing([p], 3, rng)
        assert t.stabilizes(p) == 1


def test_nu_cnot_only():
    c = parse_circuit("qubits 2\ncnot 1 2\n")
    g = build_plain(c)
    for v in g.check_matrix().kernel_basis().row_vectors():
        assert sim.nu(c, g, v) == 1


def test_nu_s_gate_lines():
    c = parse_circuit("qubits 1\ns 1\n")
    g = build_plain(c)
    x_line = BitVector.from_bits([1, 0, 1, 1])  # X -> Y
    y_line = BitVector.from_bits([1, 1, 1, 0])  # Y -> X, sign -1
    assert sim.nu(c, g, x_line) == 1
    assert sim.nu(c, g, y_line) == -1


def test_nu_rejects_non_codeword():
    c = parse_circuit("qubits 1\ns 1\n")
    g = build_plain(c)
    with pytest.raises(ValueError):
        sim.nu(c, g, BitVector.from_bits([1, 0, 0, 0]))


def test_clifford_codewords_match_conjugation():
    # Gate-only circuits: every codeword transports sigma_in to sigma_out with
    # the sign nu, checked against direct conjugation.
    rng = random.Random(17)
    for _ in range(25):
        c = random_circuit(
            rng.randrange(1, 6), rng.randrange(1, 9), rng, p_meas=0.0, p_init_start=0.0
        )
        g = build_plain(c)
        for v in g.check_matrix().kernel_basis().row_vectors():
            s_in = cw.sigma_at_layer(g, v, 0)
            s_out = cw.sigma_at_layer(g, v, g.depth)
            got = sim.conjugate_pauli(c, s_in)
            assert got.x == s_out.x and got.z == s_out.z
            assert got.sign() == sim.nu(c, g, v)


def test_verify_zz_checker_error_free():
    c = parse_circuit(ZZ_TEXT)
    g = build_plain(c)
    checker = cw.code_spaces(g).checkers.row(0)
    verdict = sim.verify_codeword_equation(c, g, checker, None, seed=7, trials=8)
    assert verdict.ok, verdict.report(c, checker, None)
    assert verdict.nu_sign == 1


def test_verify_zz_checker_with_data_error():
    c = parse_circuit(ZZ_TEXT)
    g = build_plain(c)
    checker = cw.code_spaces(g).checkers.row(0)
    # X error on data qubit 1 between the two measurement cycles
    idx = g.bit_index("z", 1, 4)
    e = BitVector.from_indices(g.n_bits, [idx])
    assert checker.dot(e) == 1
    verdict = sim.verify_codeword_equation(c, g, checker, e, seed=11, trials=8)
    assert verdict.ok, verdict.report(c, checker, e)
    # the parity flip is observable: mu1*mu2 = -1 in actual runs
    rng = random.Random(5)
    res = sim.run(
        c,
        sim.random_tableau(3, rng),
        rng,
        error_layers=sim.error_layer_masks(g, e, 3),
    )
    assert res.outcomes[(3, 4)] * res.outcomes[(3, 8)] == -1


def test_verify_all_zz_basis_codewords():
    c = parse_circuit(ZZ_TEXT)
    g = build_plain(c)
    for v in g.check_matrix().kernel_basis().row_vectors():
        verdict = sim.verify_codeword_equation(c, g, v, None, seed=23, trials=4)
        assert verdict.ok, verdict.report(c, v, None)


def test_error_in_rowspace_is_invisible():
    c = parse_circuit(ZZ_TEXT)
    g = build_plain(c)
    a = g.check_matrix()
    rng = random.Random(31)
    combo = BitVector(g.n_bits)
    for r in a.row_vectors():
        if rng.random() < 0.4:
            combo ^= r
    for v in a.kernel_basis().row_vectors():
        assert v.dot(combo) == 0
        verdict = sim.verify_codeword_equation(c, g, v, combo, seed=37, trials=3)
        assert verdict.ok


def test_verify_fuzz_small():
    rng = random.Random(41)
    for _ in range(15):
        c = random_circuit(rng.randrange(1, 5), rng.randrange(1, 7), rng)
        g = build_plain(c)
        basis = g.check_matrix().kernel_basis()
        for v in basis.row_vectors():
            verdict = sim.verify_codeword_equation(
                c, g, v, None, seed=rng.randrange(10**6), trials=2
            )
            assert verdict.ok, verdict.report(c, v, None)


def test_verify_fuzz_with_errors_small():
    rng = random.Random(43)
    for _ in range(10):
        c = random_circuit(rng.randrange(1, 5), rng.randrange(1, 7), rng)
        g = build_plain(c)
        if g.n_bits == 0:
            continue
        basis = g.check_matrix().kernel_basis()
        for v in basis.row_vectors():
            supp = rng.sample(range(g.n_bits), min(g.n_bits, rng.randrange(1, 5)))
            e = BitVector.from_indices(g.n_bits, supp)
            verdict = sim.verify_codeword_equation(
                c, g, v, e, seed=rng.randrange(10**6), trials=2
            )
            assert verdict.ok, verdict.report(c, v, e)


def test_pauli_gates_share_graph_but_flip_signs():
    # circuits differing by Pauli gates share one code; nu absorbs the signs
    plain = parse_circuit("qubits 1\ni 1\n")
    flipped = parse_circuit("qubits 1\nx 1\n")
    g1 = build_plain(plain)
    g2 = build_plain(flipped)
    assert g1.check_matrix() == g2.check_matrix()
    z_line = BitVector.from_bits([0, 1, 0, 1])
    assert sim.nu(plain, g1, z_line) == 1
    assert sim.nu(flipped, g2, z_line) == -1
    for c, g in ((plain, g1), (flipped, g2)):
        verdict = sim.verify_codeword_equation(c, g, z_line, None, seed=5, trials=4)
        assert verdict.ok, verdict.report(c, z_line, None)


def _nu_string(c):
    """nu of every kernel-basis codeword of c, as a string of + and -."""
    g = build_plain(c)
    signs = (sim.nu(c, g, v) for v in g.kernel_basis().row_vectors())
    return "".join("+" if s == 1 else "-" for s in signs)


# Pinned while nu was still read off an equivalent circuit with every
# initialisation first, every measurement last and each reused qubit rerouted
# through a fresh ancilla and a swap.
PINNED_NU = {
    "zz": "+++++",
    "rep3": "++++++++++",
    "reused": [
        "-++-++", "-++", "---++", "-+--+", "++++---+", "++++++++", "+++++++", "++++",
        "+-+", "+++++", "+-+", "--+++", "+++++++", "+--+-+", "+++-+", "++++",
        "-++-++", "-+++++", "+++-+", "-++-+-", "-+++", "+++++", "++++", "++++++++",
        "-++++", "++++", "++++--+", "-+", "-++", "++---+++",
    ],
}


def test_nu_pinned_on_circuits_that_reuse_qubits():
    assert _nu_string(parse_circuit(ZZ_TEXT)) == PINNED_NU["zz"]
    assert _nu_string(parse_circuit(rep_memory_text(3))) == PINNED_NU["rep3"]
    rng = random.Random(53)
    got = []
    while len(got) < len(PINNED_NU["reused"]):
        c = random_circuit(rng.randrange(2, 5), rng.randrange(3, 9), rng)
        # a qubit with two live spans is measured and then reinitialised
        if any(len(c.live_spans(q)) > 1 for q in range(1, c.n_qubits + 1)):
            got.append(_nu_string(c))
    assert got == PINNED_NU["reused"]


def test_apply_swap_is_three_cnots():
    rng = random.Random(59)
    for _ in range(20):
        n = rng.randrange(2, 5)
        t = sim.random_tableau(n, rng)
        a, b = rng.sample(range(n), 2)
        swapped, cnots = t.copy(), t.copy()
        swapped.apply_swap(a, b)
        for c, g in ((a, b), (b, a), (a, b)):
            cnots.apply_cnot(c, g)
        singles = {
            q: [PauliOperator(n, x << q, z << q) for x, z in ((1, 0), (0, 1), (1, 1))]
            for q in range(n)
        }
        products = [
            p * r
            for q1, q2 in itertools.combinations(range(n), 2)
            for p in singles[q1]
            for r in singles[q2]
        ]
        for p in [p for ps in singles.values() for p in ps] + products:
            assert swapped.stabilizes(p) == cnots.stabilizes(p)
