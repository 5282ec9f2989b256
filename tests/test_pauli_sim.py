import itertools
import random

import pytest

from circuitcode import codewords as cw
from circuitcode import pauli_sim as sim
from circuitcode.circuit import Circuit, OpKind, parse_circuit, random_circuit
from circuitcode.gf2 import BitVector
from circuitcode.pauli import PauliOperator
from circuitcode.tanner import build_plain, symmetrize, verify_symmetry
from tests.test_circuit import ZZ_TEXT
from tests.test_tanner import rep_memory_text, with_i_and_y


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


def test_forced_random_outcome_keeps_state_consistent():
    outcomes = set()
    for seed in range(8):
        t = sim.Tableau(1)
        t.apply_h(0)  # |+>
        out = t.measure_z(0, random.Random(seed))
        assert t.stabilizes(PauliOperator.from_label("Z1", 1)) == out
        outcomes.add(out)
    assert outcomes == {1, -1}


def test_zz_outcomes_agree_on_stabilised_input():
    c = parse_circuit(ZZ_TEXT)
    rng = random.Random(3)
    for _ in range(20):
        initial = sim.state_containing(PauliOperator.from_label("Z1Z2", 3), 3, rng)
        result = sim.run(c, initial, rng)
        assert result.outcomes[(3, 4)] == result.outcomes[(3, 8)]


def invariants_ok(t):
    """Read off the columns: stabiliser j anticommutes with destabiliser j
    and commutes with every other row."""
    n = t.n
    for j in range(n):
        anti = 0  # the rows that anticommute with stabiliser j
        for q in range(n):
            if t.z[q] >> (n + j) & 1:
                anti ^= t.x[q]
            if t.x[q] >> (n + j) & 1:
                anti ^= t.z[q]
        if anti != 1 << j:
            return False
    return True


def test_tableau_invariants_preserved():
    rng = random.Random(9)
    for _ in range(20):
        c = random_circuit(rng.randrange(1, 5), rng.randrange(1, 8), rng)
        t = sim.random_tableau(c.n_qubits, rng)
        assert invariants_ok(t)
        out = sim.run(c, t, rng)
        assert invariants_ok(out.tableau)


def test_random_state_containing():
    rng = random.Random(13)
    p = PauliOperator.from_label("X1Z3", 3)
    for _ in range(10):
        t = sim.state_containing(p, 3, rng)
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


def nu_conjugating_every_gate(circuit, g, c):
    """nu as written before it skipped the gates off the operator's support."""
    n = circuit.n_qubits
    masks = g.wire_masks(c)
    sign = 1
    for t, layer in enumerate(circuit.layers, start=1):
        keep = (1 << n) - 1
        gates = []
        for op in layer:
            if op.kind.is_init or op.kind.is_measurement:
                keep &= ~(1 << (op.qubits[0] - 1))
            else:
                gates.append(op)
        (x0, z0), (x1, z1) = masks[t - 1], masks[t]
        out = sim.conjugate_pauli(Circuit(n, [gates]), PauliOperator(n, x0 & keep, z0 & keep))
        assert (out.x, out.z) == (x1 & keep, z1 & keep)
        sign *= out.sign()
    return sign


def test_nu_matches_conjugating_every_gate():
    rng = random.Random(19)
    circuits = [parse_circuit(ZZ_TEXT), parse_circuit(rep_memory_text(3))]
    for _ in range(150):
        c = random_circuit(rng.randrange(1, 6), rng.randrange(1, 8), rng, p_meas=0.15)
        circuits.append(with_i_and_y(c, rng))
    signs = set()
    for c in circuits:
        g = build_plain(c)
        kernel = g.kernel_basis().rows
        vectors = list(kernel)
        for _ in range(5):
            combination = 0
            for row in kernel:
                combination ^= row * rng.randrange(2)
            vectors.append(combination)
        for bits in vectors:
            v = BitVector(g.n_bits, bits)
            sign = sim.nu(c, g, v)
            assert sign == nu_conjugating_every_gate(c, g, v)
            signs.add(sign)
    assert signs == {1, -1}


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
        error_layers=sim.error_layer_masks(g, e),
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


def test_i_and_y_codeword_equations_and_symmetry():
    rng, swap_rng = random.Random(47), random.Random(48)
    checked = 0
    kinds = set()
    for _ in range(250):
        c = with_i_and_y(random_circuit(rng.randrange(1, 6), rng.randrange(1, 10), rng), swap_rng)
        kinds.update(op.kind for layer in c.layers for op in layer)
        g = build_plain(c)
        for v in g.check_matrix().kernel_basis().row_vectors():
            verdict = sim.verify_codeword_equation(
                c, g, v, None, seed=rng.randrange(1 << 30), trials=2
            )
            assert verdict.ok, verdict.report(c, v, None)
            checked += 1
        sym, w, _ = symmetrize(g, c)
        assert verify_symmetry(sym, w) == []
    assert {OpKind.I, OpKind.PAULI_Y} <= kinds
    assert checked > 1000


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
        if any(len(spans) > 1 for spans in c.wires()[1]):
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


# ---------------------------------------------------------------------------
# Oracle: the row-major Aaronson-Gottesman tableau the column-major one replaced


def _phase_product(x1, z1, x2, z2):
    """Exponent of i in sigma(x1,z1) sigma(x2,z2) relative to sigma(x3,z3)."""
    x3, z3 = x1 ^ x2, z1 ^ z2
    return (
        (x1 & z1).bit_count()
        + (x2 & z2).bit_count()
        + 2 * (z1 & x2).bit_count()
        - (x3 & z3).bit_count()
    ) % 4


class RowMajorTableau:
    """Destabiliser and stabiliser rows [x, z, r], each gate a loop over rows."""

    def __init__(self, n):
        self.n = n
        self.destab = [[1 << i, 0, 0] for i in range(n)]  # X_i
        self.stab = [[0, 1 << i, 0] for i in range(n)]  # Z_i

    def _rows(self):
        yield from self.destab
        yield from self.stab

    def apply_h(self, q):
        bit = 1 << q
        for row in self._rows():
            x, z, r = row
            if x & z & bit:
                row[2] = r ^ 1
            xb, zb = x & bit, z & bit
            row[0] = (x & ~bit) | (bit if zb else 0)
            row[1] = (z & ~bit) | (bit if xb else 0)

    def apply_s(self, q):
        bit = 1 << q
        for row in self._rows():
            x, z, r = row
            if x & z & bit:
                row[2] = r ^ 1
            if x & bit:
                row[1] = z ^ bit

    def apply_cnot(self, control, target):
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

    def apply_swap(self, a, b):
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

    def apply_pauli(self, x_mask, z_mask):
        for row in self._rows():
            x, z, r = row
            if ((x & z_mask).bit_count() + (z & x_mask).bit_count()) & 1:
                row[2] = r ^ 1

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
    def _anticommute(row, x, z):
        return bool(((row[0] & z).bit_count() + (row[1] & x).bit_count()) & 1)

    def measure_pauli(self, p, rng=None):
        sign = p.sign()
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

    def measure_z(self, q, rng=None):
        return self.measure_pauli(PauliOperator(self.n, 0, 1 << q), rng)

    def stabilizes(self, p):
        s = 0 if p.sign() == 1 else 1
        for i in range(self.n):
            if self._anticommute(self.stab[i], p.x, p.z):
                return None
        return self._group_sign(p.x, p.z, s)

    def _group_sign(self, x, z, s):
        acc = [0, 0, 0]
        for i in range(self.n):
            if self._anticommute(self.destab[i], x, z):
                acc = self._mul_rows(acc, self.stab[i])
        if acc[0] != x or acc[1] != z:
            raise AssertionError("operator commutes with the group but is not in it")
        return 1 if ((acc[2] + s) & 1) == 0 else -1


def _transposed(t):
    """The rows of a column-major tableau, as RowMajorTableau holds them."""
    n = t.n

    def row(k):
        x = sum((t.x[q] >> k & 1) << q for q in range(n))
        z = sum((t.z[q] >> k & 1) << q for q in range(n))
        return [x, z, t.r >> k & 1]

    return [row(i) for i in range(n)], [row(n + i) for i in range(n)]


def _random_moves(n, count, gen):
    """A seeded mix of gates, measurements and stabilizes queries on n qubits.

    Measured operators are remembered and asked again, so that deterministic
    outcomes and stabilizes hits occur as well as random outcomes.
    """
    seen = [PauliOperator(n, 0, 1 << gen.randrange(n))]
    moves = []
    for _ in range(count):
        r = gen.random()
        q = gen.randrange(n)
        if r < 0.15:
            moves.append(("apply_h", (q,)))
        elif r < 0.25:
            moves.append(("apply_s", (q,)))
        elif r < 0.4 and n >= 2:
            moves.append(("apply_cnot", tuple(gen.sample(range(n), 2))))
        elif r < 0.45 and n >= 2:
            moves.append(("apply_swap", tuple(gen.sample(range(n), 2))))
        elif r < 0.55:
            moves.append(("apply_pauli", (gen.getrandbits(n), gen.getrandbits(n))))
        elif r < 0.6:
            moves.append(("measure_z", (q, gen.random() < 0.9)))
        elif r < 0.8:
            if gen.random() < 0.5:
                p = gen.choice(seen)
            else:
                # mostly +-1 phases; an imaginary one must raise
                phase = gen.choice((0, 0, 0, 2, 2, 1, 3))
                p = PauliOperator(n, gen.getrandbits(n), gen.getrandbits(n), phase)
                if phase % 2 == 0:
                    seen.append(p)
            moves.append(("measure_pauli", (p, gen.random() < 0.9)))
        else:
            p = gen.choice(seen)
            if gen.random() < 0.3:
                p = p * gen.choice(seen)
            moves.append(("stabilizes", (p,)))
    return moves


def _play(t, moves, seed):
    """Results of the moves on t: values, or the (type, message) raised."""
    rng = random.Random(seed)
    results = []
    for name, args in moves:
        if name in ("measure_pauli", "measure_z"):
            args = (args[0], rng if args[1] else None)
        try:
            results.append(getattr(t, name)(*args))
        except (ValueError, AssertionError) as err:
            results.append((type(err), str(err)))
    return results, rng.getstate()


def _assert_matches_row_major(n, moves, seed):
    col, row = sim.Tableau(n), RowMajorTableau(n)
    assert _play(col, moves, seed) == _play(row, moves, seed)
    assert _transposed(col) == (row.destab, row.stab)


def test_column_tableau_matches_row_major_oracle():
    gen = random.Random(61)
    for n in range(1, 9):
        for _ in range(40):
            _assert_matches_row_major(n, _random_moves(n, 60, gen), gen.randrange(10**6))


def test_column_tableau_matches_row_major_oracle_wide():
    gen = random.Random(67)
    for _ in range(3):
        _assert_matches_row_major(40, _random_moves(40, 400, gen), gen.randrange(10**6))
