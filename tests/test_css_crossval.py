"""Closed-form CSS matrices validated against the generic circuit pipeline."""

import pytest

from circuitcode import codewords as cw
from circuitcode.css import assemble_physical, derive_logicals, repeated_measurement_layer
from circuitcode.gf2 import BitMatrix
from circuitcode.synthesis import roundtrip_check, synthesize, trivial_partition
from circuitcode.tanner import SymmetryWitness, build_plain, graph_from_matrix, verify_symmetry
from tests.test_gf2 import entry


def witness_from_deleting_matrix(g, d: BitMatrix) -> SymmetryWitness:
    dual = {}
    long_bits = set(range(d.n_rows))
    for check in range(d.n_cols):
        col = [i for i in range(d.n_rows) if entry(d, i, check)]
        assert len(col) == 1
        dual[check] = col[0]
        long_bits.discard(col[0])
    return SymmetryWitness(dual, frozenset(long_bits))


def assembled_graph(code, layer):
    asm = assemble_physical(code, layer)
    g = graph_from_matrix(asm.a)
    w = witness_from_deleting_matrix(g, asm.d)
    return asm, g, w


def code_211():
    return derive_logicals(BitMatrix(0, 2), BitMatrix.from_rows([[1, 1]]))


@pytest.mark.parametrize("m", [1, 2])
def test_closed_form_witness_is_valid(m):
    asm, g, w = assembled_graph(code_211(), repeated_measurement_layer(m))
    assert verify_symmetry(g, w) == []


def test_steane_closed_form_witness_is_valid():
    h = BitMatrix.from_rows(
        [
            [1, 0, 1, 0, 1, 0, 1],
            [0, 1, 1, 0, 0, 1, 1],
            [0, 0, 0, 1, 1, 1, 1],
        ]
    )
    asm, g, w = assembled_graph(derive_logicals(h, h), repeated_measurement_layer(2))
    assert verify_symmetry(g, w) == []


@pytest.mark.parametrize("m", [1, 2])
def test_cross_validation_211(m):
    asm, g, w = assembled_graph(code_211(), repeated_measurement_layer(m))
    p = trivial_partition(g, w)
    result = synthesize(g, w, p)
    maps = result.maps
    g2 = build_plain(result.circuit)

    b2 = maps.map_matrix(asm.b)
    l2 = maps.map_matrix(asm.l)
    s_in, s_out = cw.derive_codes_from_b(g2, b2)
    ec = cw.build_ec_structure(g2, s_in, s_out)
    assert ec.b.rref() == b2.rref()
    # the transported logical rows live inside the generic logical subspace
    full = ec.b.stack(ec.l)
    for row in l2.row_vectors():
        assert full.row_space_member(row)

    report = roundtrip_check(g, result, asm.b, asm.l, max_weight=3)
    assert report.pairing_ok
    assert report.ok
    # the [[2,1,1]] code keeps distance 1 through the whole pipeline
    assert report.distance_before.value == 1
    assert report.distance_after.value == 1


@pytest.mark.parametrize("m", [1, 2])
def test_cross_validation_steane(m):
    h = BitMatrix.from_rows(
        [
            [1, 0, 1, 0, 1, 0, 1],
            [0, 1, 1, 0, 0, 1, 1],
            [0, 0, 0, 1, 1, 1, 1],
        ]
    )
    asm, g, w = assembled_graph(derive_logicals(h, h), repeated_measurement_layer(m))
    result = synthesize(g, w, trivial_partition(g, w))
    g2 = build_plain(result.circuit)
    b2 = result.maps.map_matrix(asm.b)
    l2 = result.maps.map_matrix(asm.l)
    s_in, s_out = cw.derive_codes_from_b(g2, b2)
    ec = cw.build_ec_structure(g2, s_in, s_out)
    assert ec.b.rref() == b2.rref()
    full = ec.b.stack(ec.l)
    for row in l2.row_vectors():
        assert full.row_space_member(row)
