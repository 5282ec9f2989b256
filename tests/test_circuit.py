import random

import pytest

from circuitcode.circuit import (
    Circuit,
    CircuitError,
    OpKind,
    Operation,
    parse_circuit,
    random_circuit,
    serialize,
)

ZZ_TEXT = """\
# repeated two-qubit parity measurement via an ancilla
qubits 3
rz 3
tick
cnot 1 3
tick
cnot 2 3
tick
mz 3
tick
rz 3
tick
cnot 1 3
tick
cnot 2 3
tick
mz 3
"""


def zz_circuit() -> Circuit:
    return parse_circuit(ZZ_TEXT)


def test_parse_zz_circuit():
    c = zz_circuit()
    assert c.n_qubits == 3
    assert c.depth == 8


def test_parse_empty_circuit():
    c = parse_circuit("qubits 1\n")
    assert c.n_qubits == 1
    assert c.depth == 0


def test_parse_rejects_gate_after_measurement():
    with pytest.raises(CircuitError):
        parse_circuit("qubits 1\nmz 1\ntick\nh 1\n")


def test_parse_rejects_unknown_mnemonic():
    with pytest.raises(CircuitError) as err:
        parse_circuit("qubits 1\nfoo 1\n")
    assert "line 2" in str(err.value)


def test_parse_rejects_out_of_range():
    with pytest.raises(CircuitError):
        parse_circuit("qubits 2\ncnot 1 3\n")


def test_parse_rejects_duplicate_in_layer():
    with pytest.raises(CircuitError):
        parse_circuit("qubits 2\nh 1\ns 1\n")


def test_parse_rejects_init_after_gates():
    with pytest.raises(CircuitError):
        parse_circuit("qubits 1\nh 1\ntick\nrz 1\n")


def test_serialize_empty():
    assert serialize(Circuit(0, [])) == "qubits 0\n"


def test_serialize_single_h():
    text = serialize(Circuit(1, [[Operation(OpKind.H, (1,))]]))
    assert text == "qubits 1\nh 1\n"


def test_roundtrip_is_identity_on_canonical_form():
    c = zz_circuit()
    text = serialize(c)
    assert serialize(parse_circuit(text)) == text
    assert parse_circuit(text) == c


def test_validate_programmatic():
    ok = Circuit(2, [[Operation(OpKind.CNOT, (1, 2))]])
    assert ok.validate() == []
    bad = Circuit(2, [[Operation(OpKind.H, (1,)), Operation(OpKind.S, (1,))]])
    assert bad.validate()
    bad2 = Circuit(1, [[Operation(OpKind.MEAS_Z, (1,))], [Operation(OpKind.H, (1,))]])
    assert any("after measurement" in p for p in bad2.validate())


def test_live_spans():
    c = zz_circuit()
    # data qubits live across the whole circuit
    assert c.live_spans(1) == [(0, 8, False, False)]
    # the ancilla has two measured spans starting at its initialisations
    assert c.live_spans(3) == [(1, 3, True, True), (5, 7, True, True)]


def test_random_circuits_are_valid():
    rng = random.Random(1)
    for _ in range(50):
        c = random_circuit(rng.randrange(1, 6), rng.randrange(1, 10), rng)
        assert c.validate() == []
