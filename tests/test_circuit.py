import random
import time

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
from circuitcode.tanner import build_plain

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


def test_parse_is_linear_in_layer_width():
    width = 20_000
    text = "qubits %d\n" % width + "".join(f"h {q}\n" for q in range(1, width + 1))
    start = time.perf_counter()
    c = parse_circuit(text)
    assert time.perf_counter() - start < 5
    assert c.depth == 1 and len(c.layers[0]) == width


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


MX = Operation(OpKind.MEAS_X, (1,))


@pytest.mark.parametrize(
    "layers", [[], [[]], [[], []], [[], [MX], []]], ids=["none", "empty", "two-empty", "empty-mx-empty"]
)
def test_roundtrip_keeps_trailing_empty_layers(layers):
    c = Circuit(1, layers)
    assert parse_circuit(serialize(c)) == c


def test_roundtrip_of_random_circuits():
    rng = random.Random(77)
    for _ in range(300):
        c = random_circuit(rng.randint(1, 4), rng.randint(1, 8), rng)
        assert parse_circuit(serialize(c)) == c


def test_validate_programmatic():
    ok = Circuit(2, [[Operation(OpKind.CNOT, (1, 2))]])
    assert ok.validate() == []
    bad = Circuit(2, [[Operation(OpKind.H, (1,)), Operation(OpKind.S, (1,))]])
    assert bad.validate()
    bad2 = Circuit(1, [[Operation(OpKind.MEAS_Z, (1,))], [Operation(OpKind.H, (1,))]])
    assert any("after measurement" in p for p in bad2.validate())
    # both layer rules and all three wire rules: layer problems come first,
    # then the wire problems qubit by qubit
    h, s, rz, mz = OpKind.H, OpKind.S, OpKind.INIT_Z, OpKind.MEAS_Z
    every_rule = Circuit(
        2,
        [
            [Operation(h, (1,)), Operation(s, (1,)), Operation(mz, (2,)), Operation(h, (3,))],
            [Operation(rz, (1,)), Operation(h, (2,))],
            [Operation(mz, (1,))],
            [Operation(mz, (1,))],
            [Operation(h, (1,))],
        ],
    )
    assert every_rule.validate() == [
        "layer 1: qubit 1 used twice",
        "layer 1: qubit 3 out of range 1..2",
        "layer 2: qubit 1 reinitialised after gates without a measurement",
        "layer 4: qubit 1 measured while not carrying a state",
        "layer 5: gate on qubit 1 after measurement without reinitialisation",
        "layer 2: gate on qubit 2 after measurement without reinitialisation",
    ]


def test_wire_walk_raises_every_validate_problem():
    h, mz = OpKind.H, OpKind.MEAS_Z
    c = Circuit(
        2,
        [
            [Operation(h, (1,)), Operation(h, (1,)), Operation(h, (3,))],
            [Operation(mz, (2,))],
            [Operation(h, (2,))],
        ],
    )
    problems = [
        "layer 1: qubit 1 used twice",
        "layer 1: qubit 3 out of range 1..2",
        "layer 3: gate on qubit 2 after measurement without reinitialisation",
    ]
    assert c.validate() == problems
    for call in (c.wires, c.check_valid, lambda: build_plain(c)):
        with pytest.raises(CircuitError) as exc:
            call()
        assert str(exc.value) == "; ".join(problems)


def test_live_spans():
    spans = zz_circuit().wires()[1]
    # data qubits live across the whole circuit
    assert spans[0] == [(0, 8, False, False)]
    # the ancilla has two measured spans starting at its initialisations
    assert spans[2] == [(1, 3, True, True), (5, 7, True, True)]


def test_random_circuits_are_valid():
    rng = random.Random(1)
    for _ in range(50):
        c = random_circuit(rng.randrange(1, 6), rng.randrange(1, 10), rng)
        assert c.validate() == []
