import random
from dataclasses import replace

import pytest

from circuitcode.css import (
    _validate_assembly,
    assemble_physical,
    derive_logicals,
    logical_cnot_layer,
    repeated_measurement_layer,
)
from circuitcode.distance import circuit_distance, css_distance
from circuitcode.gf2 import BitMatrix, BitVector, kron
from circuitcode.pauli import PauliOperator

STEANE_H = [
    [1, 0, 1, 0, 1, 0, 1],
    [0, 1, 1, 0, 0, 1, 1],
    [0, 0, 0, 1, 1, 1, 1],
]


def steane():
    h = BitMatrix.from_rows(STEANE_H)
    return derive_logicals(h, h)


def code_211():
    return derive_logicals(BitMatrix(0, 2), BitMatrix.from_rows([[1, 1]]))


def test_derive_logicals_211():
    code = code_211()
    assert code.k == 1
    assert code.j_x == BitMatrix.from_rows([[1, 1]])
    assert code.j_z == BitMatrix.from_rows([[1, 0]])


def test_derive_logicals_steane():
    code = steane()
    assert code.k == 1
    assert code.j_x.matmul(code.j_z.transpose()) == BitMatrix.identity(1)


def test_derive_logicals_trivial():
    code = derive_logicals(BitMatrix(0, 1), BitMatrix(0, 1))
    assert code.k == 1
    assert code.j_x == BitMatrix.from_rows([[1]])
    assert code.j_z == BitMatrix.from_rows([[1]])


def test_derive_logicals_rejects_incompatible():
    with pytest.raises(ValueError):
        derive_logicals(BitMatrix.from_rows([[1, 0]]), BitMatrix.from_rows([[1, 0]]))


def test_repeated_measurement_layer():
    layer = repeated_measurement_layer(1)
    assert layer.a_x == BitMatrix.from_rows([[1, 1]])
    layer2 = repeated_measurement_layer(2)
    assert layer2.a_x == BitMatrix.from_rows([[1, 1, 0], [0, 1, 1]])
    for m in range(1, 11):
        repeated_measurement_layer(m).validate()


def test_logical_cnot_layer():
    layer = logical_cnot_layer()
    assert layer.a_x.row(0) == BitVector.from_bits([1, 0, 1, 0])
    assert layer.a_x.matmul(layer.gen_x.transpose()).is_zero()
    assert layer.a_x.matmul(layer.d_x) == layer.a_z.matmul(layer.d_z).transpose()


def test_assembly_steane_shapes():
    asm = assemble_physical(steane(), repeated_measurement_layer(2))
    # X block: 3 operator mini-blocks OF 7 plus 2 measurement mini-blocks of 3
    assert asm.x_cols == 3 * 7 + 2 * 3 == 27
    assert asm.a.n_cols == 54


def test_assembly_211_checker():
    code = code_211()
    asm = assemble_physical(code, repeated_measurement_layer(2))
    # the Z-block checker pairing the two cycles of the same generator:
    # mini-block 2 carries the generator, measurement mini-blocks 1 and 2
    # carry the outcome markers
    n = code.n
    z0 = asm.x_cols
    bits = []
    gen = code.g_z.row(0)
    for j in gen.support():
        bits.append(z0 + n + j)  # operator snapshot after cycle 1
    bits.append(z0 + 3 * n + 0)  # cycle-1 outcome of generator 1
    bits.append(z0 + 3 * n + code.r_z)  # cycle-2 outcome
    checker = BitVector.from_indices(asm.a.n_cols, bits)
    assert asm.a.mul_vec(checker).is_zero()
    assert asm.b.row_space_member(checker)
    m_in, m_out = asm.boundaries(BitMatrix.from_vectors([checker]))
    assert m_in.is_zero()
    assert m_out.is_zero()


def test_assembly_zero_logical_code():
    # repetition-3 checks for Z with a full X generator: k = 0, so L is empty
    g_z = BitMatrix.from_rows([[1, 1, 0], [0, 1, 1]])
    g_x = BitMatrix.from_rows([[1, 1, 1]])
    code = derive_logicals(g_x, g_z)
    assert code.k == 0
    asm = assemble_physical(code, repeated_measurement_layer(1))
    assert asm.l.n_rows == 0


def test_assembly_invariants_corpus():
    codes = [
        code_211(),
        derive_logicals(
            BitMatrix.from_rows([[1, 1, 1]]), BitMatrix.from_rows([[1, 1, 0], [0, 1, 1]])
        ),
        steane(),
    ]
    layers = [repeated_measurement_layer(m) for m in (1, 2, 3)]
    for code in codes:
        for layer in layers:
            assemble_physical(code, layer)  # raises on any violated invariant
    # the logical-CNOT layer applies to two blocks of k=1 codes jointly; the
    # closed forms still hold per block pair on the trivial one-qubit code
    trivial = derive_logicals(BitMatrix(0, 1), BitMatrix(0, 1))
    assemble_physical(trivial, logical_cnot_layer())


def test_assembly_validation_trips():
    asm = assemble_physical(code_211(), repeated_measurement_layer(1))
    zero_d_x = BitMatrix(asm.d_x.n_rows, asm.d_x.n_cols)
    with pytest.raises(ValueError, match=r"A_X D_X must equal \(A_Z D_Z\)\^T"):
        _validate_assembly(replace(asm, d_x=zero_d_x))
    # the X and Z logicals of the [[2,1]] code anticommute at both boundaries
    no_rows = BitMatrix(0, asm.l.n_cols)
    with pytest.raises(ValueError, match="B boundary operators must commute"):
        _validate_assembly(replace(asm, b=asm.l, l=no_rows))


def hstack(*ms):
    """Reference left-to-right concatenation of matrices with one row count."""
    rows = [0] * ms[0].n_rows
    shift = 0
    for m in ms:
        assert m.n_rows == len(rows)
        for i, r in enumerate(m.rows):
            rows[i] |= r << shift
        shift += m.n_cols
    return BitMatrix(len(rows), shift, rows)


def reference_assembly(code, layer):
    """A_X, A_Z, D_X, D_Z, A, D, B, L built by concatenation, every zero
    block sized by hand."""
    n, r_x, r_z = code.n, code.r_x, code.r_z
    eye, zeros = BitMatrix.identity, BitMatrix
    a_x = hstack(
        kron(layer.a_x, eye(n)), kron(eye(layer.m_x_checks), code.g_x.transpose())
    ).stack(
        hstack(
            kron(layer.d_x.transpose(), code.g_z),
            zeros(layer.m_z_checks * r_z, layer.m_x_checks * r_x),
        )
    )
    a_z = hstack(
        kron(layer.a_z, eye(n)), kron(eye(layer.m_z_checks), code.g_z.transpose())
    ).stack(
        hstack(
            kron(layer.d_z.transpose(), code.g_x),
            zeros(layer.m_x_checks * r_x, layer.m_z_checks * r_z),
        )
    )
    d_x = hstack(
        kron(layer.d_x, eye(n)), zeros(layer.m_x_bits * n, layer.m_x_checks * r_x)
    ).stack(
        hstack(zeros(layer.m_x_checks * r_x, layer.m_z_checks * n), eye(layer.m_x_checks * r_x))
    )
    d_z = hstack(
        kron(layer.d_z, eye(n)), zeros(layer.m_z_bits * n, layer.m_z_checks * r_z)
    ).stack(
        hstack(zeros(layer.m_z_checks * r_z, layer.m_x_checks * n), eye(layer.m_z_checks * r_z))
    )
    x_cols, z_cols = a_x.n_cols, a_z.n_cols
    x_rows, z_rows = a_x.n_rows, a_z.n_rows
    a = hstack(zeros(z_rows, x_cols), a_z).stack(hstack(a_x, zeros(x_rows, z_cols)))
    d = hstack(d_x, zeros(x_cols, x_rows)).stack(hstack(zeros(z_cols, z_rows), d_z))
    b_x = hstack(
        kron(eye(layer.m_x_bits), code.g_x), kron(layer.a_x.transpose(), eye(r_x))
    )
    b_z = hstack(
        kron(eye(layer.m_z_bits), code.g_z), kron(layer.a_z.transpose(), eye(r_z))
    )
    b = hstack(b_x, zeros(b_x.n_rows, z_cols)).stack(hstack(zeros(b_z.n_rows, x_cols), b_z))
    l_x = hstack(
        kron(layer.gen_x, code.j_x),
        zeros(layer.gen_x.n_rows * code.k, layer.m_x_checks * r_x),
    )
    l_z = hstack(
        kron(layer.gen_z, code.j_z),
        zeros(layer.gen_z.n_rows * code.k, layer.m_z_checks * r_z),
    )
    l = hstack(l_x, zeros(l_x.n_rows, z_cols)).stack(hstack(zeros(l_z.n_rows, x_cols), l_z))
    return a_x, a_z, d_x, d_z, a, d, b, l


def hgp_rep(d):
    """Hypergraph product of the length-d repetition code with itself."""
    h = BitMatrix(d - 1, d, [3 << i for i in range(d - 1)])
    eye = BitMatrix.identity
    g_x = hstack(kron(h, eye(d)), kron(eye(d - 1), h.transpose()))
    g_z = hstack(kron(eye(d), h), kron(h.transpose(), eye(d - 1)))
    return derive_logicals(g_x, g_z)


def test_repeated_measurement_deleting_blocks():
    for m in range(1, 12):
        layer = repeated_measurement_layer(m)
        assert layer.d_x == BitMatrix.identity(m).stack(BitMatrix(1, m))
        assert layer.d_z == BitMatrix(1, m).stack(BitMatrix.identity(m))


def test_block_assembly_matches_concatenation_oracle():
    codes = [hgp_rep(d) for d in range(2, 6)]
    codes += [
        steane(),
        derive_logicals(BitMatrix.from_rows([[1, 1]]), BitMatrix.from_rows([[1, 1]])),  # k = 0
        derive_logicals(BitMatrix(0, 0), BitMatrix(0, 0)),  # n = 0
    ]
    assert [c.k for c in codes] == [1, 1, 1, 1, 1, 0, 0]
    layers = [repeated_measurement_layer(m) for m in (1, 2, 3, 7)] + [logical_cnot_layer()]
    for code in codes:
        for layer in layers:
            asm = assemble_physical(code, layer)
            got = (asm.a_x, asm.a_z, asm.d_x, asm.d_z, asm.a, asm.d, asm.b, asm.l)
            assert got == reference_assembly(code, layer), (code.n, layer.m_x_bits)


def boundary_by_row(asm, row, which):
    """The operator of one row at the first (0) or last (-1) snapshot: the
    reader CssAssembly.boundaries replaced, kept as its oracle."""
    n = asm.code.n
    mask = (1 << n) - 1
    xi = 0 if which == 0 else asm.layer.m_x_bits - 1
    zi = 0 if which == 0 else asm.layer.m_z_bits - 1
    x = (row.bits >> (xi * n)) & mask
    z = (row.bits >> (asm.x_cols + zi * n)) & mask
    return PauliOperator(n, x, z)


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("layer", ["rep:1", "rep:2", "rep:3", "cnot"])
def test_boundaries_match_the_row_oracle(d, layer):
    if layer == "cnot":
        asm = assemble_physical(hgp_rep(d), logical_cnot_layer())
    else:
        asm = assemble_physical(hgp_rep(d), repeated_measurement_layer(int(layer[4:])))
    rng = random.Random(d)
    noise = BitMatrix(5, asm.a.n_cols, [rng.getrandbits(asm.a.n_cols) for _ in range(5)])
    m = asm.b.stack(asm.l, noise)
    oracle = tuple(
        BitMatrix.from_vectors([boundary_by_row(asm, r, w).xz_vector() for r in m.row_vectors()])
        for w in (0, -1)
    )
    assert asm.boundaries(m) == oracle


def test_css_distance_steane_exhaustive_oracle():
    h = BitMatrix.from_rows(STEANE_H)
    # brute-force oracle over all 2^7 vectors
    best = None
    for bits in range(1, 1 << 7):
        v = BitVector(7, bits)
        if not h.mul_vec(v).is_zero():
            continue
        if h.row_space_member(v):
            continue
        w = v.weight()
        best = w if best is None else min(best, w)
    assert best == 3

    d_x, d_z, d_css = css_distance(h, h, max_weight=3)
    assert (d_x.value, d_z.value, d_css.value) == (3, 3, 3)


def test_css_distance_211():
    code = code_211()
    d_x, d_z, d_css = css_distance(code.g_x, code.g_z, max_weight=2)
    assert d_x.value == 1  # single-qubit Z flips the logical
    assert d_z.value == 2
    assert d_css.value == 1


def test_css_distance_repetition_pattern():
    g_z = BitMatrix.from_rows([[1, 1, 0], [0, 1, 1]])
    g_x = BitMatrix.from_rows([[1, 1, 1]])
    # k = 0: no logical errors at all
    d_x, d_z, d_css = css_distance(g_x, g_z, max_weight=3)
    assert not d_x.exact and not d_z.exact
    # dropping the X check leaves the classic 3/1 split
    d_x2, d_z2, _ = css_distance(BitMatrix(0, 3), g_z, max_weight=3)
    assert d_x2.value == 1
    assert d_z2.value == 3


def test_steane_circuit_distance_matches_code_distance():
    asm = assemble_physical(steane(), repeated_measurement_layer(2))
    res = circuit_distance(asm.b, asm.l, max_weight=3)
    assert res.value == 3
    # the witness is a single-time code logical error: one 7-column mini-block
    blocks = set()
    for j in res.witness.support():
        side = 0 if j < asm.x_cols else 1
        local = j - side * asm.x_cols
        assert local < 3 * 7  # operator snapshot, not a measurement column
        blocks.add((side, local // 7))
    assert len(blocks) == 1


def test_circuit_distance_monotonicity():
    import random

    rng = random.Random(3)
    for _ in range(12):
        n = 8
        b = BitMatrix(2, n, [rng.getrandbits(n) for _ in range(2)])
        l_full = BitMatrix(2, n, [rng.getrandbits(n) for _ in range(2)])
        l_small = BitMatrix(1, n, [l_full.rows[0]])
        d_small = circuit_distance(b, l_small, n)
        d_full = circuit_distance(b, l_full, n)
        if d_small.exact and d_full.exact:
            assert d_full.value <= d_small.value
        b_big = b.stack(BitMatrix(1, n, [rng.getrandbits(n)]))
        d_checked = circuit_distance(b_big, l_full, n)
        if d_full.exact and d_checked.exact:
            assert d_checked.value >= d_full.value


def test_circuit_distance_caps_and_empty_l():
    b = BitMatrix.from_rows([[1, 1, 0], [0, 1, 1]])
    l_empty = BitMatrix(0, 3)
    assert not circuit_distance(b, l_empty, 3).exact
    l = BitMatrix.from_rows([[1, 0, 0]])
    capped = circuit_distance(b, l, max_weight=2)
    assert not capped.exact
    assert capped.lower_bound == 3
    exact = circuit_distance(b, l, max_weight=3)
    assert exact.value == 3
    assert exact.witness.to01() == "111"


def test_half_distance_bound():
    from circuitcode.distance import half_distance_bound

    assert half_distance_bound(3) == 2
    assert half_distance_bound(1) == 1
    assert half_distance_bound(4) == 2


def test_circuit_distance_against_exhaustive_oracle():
    # independent oracle: scan the entire error space of small random B/L
    import random

    from circuitcode.gf2 import BitVector

    rng = random.Random(91)
    for _ in range(25):
        n = rng.randrange(2, 11)
        b = BitMatrix(2, n, [rng.getrandbits(n) for _ in range(2)])
        l = BitMatrix(2, n, [rng.getrandbits(n) for _ in range(2)])
        best = None
        for bits in range(1, 1 << n):
            v = BitVector(n, bits)
            if b.mul_vec(v).is_zero() and not l.mul_vec(v).is_zero():
                w = v.weight()
                if best is None or w < best:
                    best = w
        res = circuit_distance(b, l, max_weight=n)
        if best is None:
            assert not res.exact
        else:
            assert res.value == best
