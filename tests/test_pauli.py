"""Pauli phase arithmetic and gate conjugation checked against dense complex
matrices: ``conjugate_pauli`` below runs each one-operation circuit on the
tableau gates, so these oracles pin the simulator's gate rules."""

import itertools
import random

import pytest

from circuitcode.circuit import Circuit, OpKind, Operation
from circuitcode.pauli import PauliOperator
from circuitcode.pauli_sim import Tableau


def conjugate_pauli(circuit: Circuit, p: PauliOperator) -> PauliOperator:
    """Conjugate p through a circuit of gates, tracking the exact sign.

    p is the one row of a tableau, which the gates update as they update
    every tableau; its imaginary phase bit commutes with them and is kept.
    """
    n = circuit.n_qubits
    if p.n != n:
        raise ValueError("operator size does not match the circuit")
    x = [p.x >> q & 1 for q in range(n)]
    z = [p.z >> q & 1 for q in range(n)]
    row = Tableau._from_columns(n, x, z, p.phase_exp >> 1)
    for layer in circuit.layers:
        for op in layer:
            row.apply_operation(op)
    x = z = 0
    for q in range(n):
        x |= row.x[q] << q
        z |= row.z[q] << q
    return PauliOperator(n, x, z, row.r << 1 | p.phase_exp & 1)


I2 = ((1, 0), (0, 1))
X = ((0, 1), (1, 0))
Y = ((0, -1j), (1j, 0))
Z = ((1, 0), (0, -1))
H = ((2 ** -0.5, 2 ** -0.5), (2 ** -0.5, -(2 ** -0.5)))
S = ((1, 0), (0, 1j))


def matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def kron(a, b):
    na, nb = len(a), len(b)
    return tuple(
        tuple(a[i // nb][j // nb] * b[i % nb][j % nb] for j in range(na * nb))
        for i in range(na * nb)
    )


def dagger(a):
    n = len(a)
    return tuple(tuple(a[j][i].conjugate() for j in range(n)) for i in range(n))


def close(a, b):
    return all(
        abs(a[i][j] - b[i][j]) < 1e-9 for i in range(len(a)) for j in range(len(a))
    )


def phase(p: PauliOperator) -> complex:
    return (1, 1j, -1, -1j)[p.phase_exp]


def dense(p: PauliOperator):
    m = ((phase(p),),)
    acc = None
    for q in range(p.n):
        xb = (p.x >> q) & 1
        zb = (p.z >> q) & 1
        local = Y if (xb and zb) else X if xb else Z if zb else I2
        acc = local if acc is None else kron(acc, local)
    if acc is None:
        acc = ((1,),)
    return tuple(tuple(phase(p) * v for v in row) for row in acc)


CNOT01 = (
    (1, 0, 0, 0),
    (0, 0, 0, 1),
    (0, 0, 1, 0),
    (0, 1, 0, 0),
)
# Tensor order: qubit 0 is the most significant factor here, and the matrix
# above is CNOT with control on qubit 0 in that ordering? Safer to build it.


def cnot_matrix():
    m = [[0] * 4 for _ in range(4)]
    for c in range(2):
        for t in range(2):
            # basis index with qubit0 as the high bit
            src = 2 * c + t
            dst = 2 * c + (t ^ c)
            m[dst][src] = 1
    return tuple(tuple(row) for row in m)


def conjugate(p, kind, *qubits):
    """p conjugated by the one operation ``kind`` on the 0-based qubits."""
    op = Operation(kind, tuple(q + 1 for q in qubits))
    return conjugate_pauli(Circuit(p.n, [[op]]), p)


def single(q, n, gate):
    acc = None
    for k in range(n):
        local = gate if k == q else I2
        acc = local if acc is None else kron(acc, local)
    return acc


@pytest.mark.parametrize("xb,zb,ph", list(itertools.product([0, 1], [0, 1], range(4))))
def test_single_qubit_conjugations_match_dense(xb, zb, ph):
    p = PauliOperator(1, xb, zb, ph)
    gates = ((H, OpKind.H), (S, OpKind.S), (X, OpKind.PAULI_X), (Y, OpKind.PAULI_Y),
             (Z, OpKind.PAULI_Z), (I2, OpKind.I))
    for gate, kind in gates:
        got = conjugate(p, kind, 0)
        um = gate
        expect = matmul(matmul(um, dense(p)), dagger(um))
        assert close(dense(got), expect)


def test_s_gate_examples():
    # S X S^dag = Y and S Y S^dag = -X, phases tracked exactly.
    x = PauliOperator.from_label("X1", 1)
    y = conjugate(x, OpKind.S, 0)
    assert y.label() == "Y1"
    minus_x = conjugate(y, OpKind.S, 0)
    assert minus_x.label() == "-X1"


def test_cnot_example():
    p = PauliOperator.from_label("X1", 2)
    out = conjugate(p, OpKind.CNOT, 0, 1)
    assert out.label() == "X1X2"


@pytest.mark.parametrize(
    "x,z,ph", list(itertools.product(range(4), range(4), [0, 2]))
)
def test_cnot_conjugation_matches_dense(x, z, ph):
    p = PauliOperator(2, x, z, ph)
    got = conjugate(p, OpKind.CNOT, 0, 1)
    um = cnot_matrix()
    expect = matmul(matmul(um, dense(p)), dagger(um))
    assert close(dense(got), expect)


def test_product_matches_dense():
    for n in (1, 2):
        for _ in range(1):
            pass
        cases = itertools.product(range(1 << n), repeat=4)
        for x1, z1, x2, z2 in itertools.islice(cases, 260):
            a = PauliOperator(n, x1, z1, 0)
            b = PauliOperator(n, x2, z2, 0)
            assert close(dense(a * b), matmul(dense(a), dense(b)))


def test_xz_is_minus_i_y():
    x = PauliOperator.from_label("X1", 1)
    z = PauliOperator.from_label("Z1", 1)
    prod = x * z
    assert prod.x == 1 and prod.z == 1 and phase(prod) == -1j


def test_pauli_conjugation_signs():
    p = PauliOperator.from_label("Z1", 1)
    assert conjugate(p, OpKind.PAULI_X, 0).label() == "-Z1"
    assert conjugate(p, OpKind.PAULI_Z, 0).label() == "Z1"


def test_label_roundtrip():
    p = PauliOperator.from_label("-Y2X3", 3)
    assert p.label() == "-Y2X3"
    assert PauliOperator.from_label(p.label(), 3) == p


def test_commutes_with():
    a = PauliOperator.from_label("X1X2", 2)
    b = PauliOperator.from_label("Z1", 2)
    c = PauliOperator.from_label("Z1Z2", 2)
    assert not a.commutes_with(b)
    assert a.commutes_with(c)


def test_commutes_with_symplectic_values():
    x1 = PauliOperator.from_label("X1", 1)
    z1 = PauliOperator.from_label("Z1", 1)
    assert not x1.commutes_with(z1)
    assert x1.commutes_with(x1)
    assert not PauliOperator.from_label("X1X2", 2).commutes_with(PauliOperator.from_label("Z1", 2))


def test_commutes_with_rejects_a_qubit_count_mismatch():
    with pytest.raises(ValueError, match="qubit count mismatch"):
        PauliOperator.from_label("X1", 1).commutes_with(PauliOperator.from_label("Z1", 2))


def test_commutes_with_bilinear_symmetric():
    # the symplectic form: symmetric, and additive in each argument, where
    # adding (x|z) vectors is multiplying operators up to phase
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randrange(1, 5)
        a, b, c = (PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n)) for _ in range(3))
        assert a.commutes_with(b) == b.commutes_with(a)
        assert (a * b).commutes_with(c) == (a.commutes_with(c) == b.commutes_with(c))
        assert a.commutes_with(a)
    # disjoint x and z supports commute with themselves
    v = PauliOperator.from_label("X1Z2", 2)
    assert v.commutes_with(v)


@pytest.mark.parametrize("n", [1, 2])
def test_commutes_with_matches_dense(n):
    paulis = [PauliOperator(n, x, z) for x in range(1 << n) for z in range(1 << n)]
    for a, b in itertools.product(paulis, repeat=2):
        ab, ba = matmul(dense(a), dense(b)), matmul(dense(b), dense(a))
        assert a.commutes_with(b) == close(ab, ba)
        assert a.commutes_with(b) != close(ab, tuple(tuple(-v for v in row) for row in ba))
