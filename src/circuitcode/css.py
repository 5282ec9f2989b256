"""Closed-form check matrices for transversal circuits on CSS codes.

A CSS-type logical-layer matrix pair (a_X, a_Z) with its deleting blocks and
code generators, combined with a CSS code (G_X, G_Z), yields the full
physical-circuit matrices A, D, B, L as Kronecker blocks. Column layout per
X/Z block: m^B mini-blocks of n qubit columns (operator snapshots), then m^C
mini-blocks of r measurement columns.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codewords import validate_b_l
from .gf2 import BitMatrix, block, extend_span, kron


@dataclass
class CssCode:
    n: int
    k: int
    g_x: BitMatrix
    g_z: BitMatrix
    j_x: BitMatrix
    j_z: BitMatrix

    @property
    def r_x(self) -> int:
        return self.g_x.n_rows

    @property
    def r_z(self) -> int:
        return self.g_z.n_rows

    def validate(self) -> None:
        if not self.g_x.matmul(self.g_z.transpose()).is_zero():
            raise ValueError("G_X G_Z^T must vanish")
        if not self.g_x.matmul(self.j_z.transpose()).is_zero():
            raise ValueError("G_X J_Z^T must vanish")
        if not self.g_z.matmul(self.j_x.transpose()).is_zero():
            raise ValueError("G_Z J_X^T must vanish")
        if self.j_x.matmul(self.j_z.transpose()) != BitMatrix.identity(self.k):
            raise ValueError("J_X J_Z^T must be the identity")
        if self.k != self.n - self.g_x.rank() - self.g_z.rank():
            raise ValueError("logical count mismatch")


def derive_logicals(g_x: BitMatrix, g_z: BitMatrix) -> CssCode:
    """Logical generator matrices with the canonical pairing J_X J_Z^T = 1."""
    if g_x.n_cols != g_z.n_cols:
        raise ValueError("check matrices must share the qubit count")
    if not g_x.matmul(g_z.transpose()).is_zero():
        raise ValueError("G_X G_Z^T must vanish")
    n = g_x.n_cols
    k = n - g_x.rank() - g_z.rank()
    j_x0 = extend_span(g_x, g_z.kernel_basis())
    j_z0 = extend_span(g_z, g_x.kernel_basis())
    if j_x0.n_rows != k or j_z0.n_rows != k:
        raise AssertionError("logical completion does not match k")
    if k == 0:
        code = CssCode(n, 0, g_x, g_z, j_x0, j_z0)
        code.validate()
        return code
    pairing = j_x0.matmul(j_z0.transpose())
    j_x = pairing.inverse().matmul(j_x0)
    code = CssCode(n, k, g_x, g_z, j_x, j_z0)
    code.validate()
    return code


@dataclass
class LogicalLayer:
    """Symmetric logical-layer data: checks, deleting blocks, generators."""

    a_x: BitMatrix
    a_z: BitMatrix
    d_x: BitMatrix
    d_z: BitMatrix
    gen_x: BitMatrix
    gen_z: BitMatrix

    @property
    def m_x_bits(self) -> int:
        return self.a_x.n_cols

    @property
    def m_z_bits(self) -> int:
        return self.a_z.n_cols

    @property
    def m_x_checks(self) -> int:
        return self.a_x.n_rows

    @property
    def m_z_checks(self) -> int:
        return self.a_z.n_rows

    def validate(self) -> None:
        if self.d_x.n_rows != self.m_x_bits or self.d_x.n_cols != self.m_z_checks:
            raise ValueError("d_X shape mismatch")
        if self.d_z.n_rows != self.m_z_bits or self.d_z.n_cols != self.m_x_checks:
            raise ValueError("d_Z shape mismatch")
        lhs = self.a_x.matmul(self.d_x)
        rhs = self.a_z.matmul(self.d_z).transpose()
        if lhs != rhs:
            raise ValueError("a_X d_X must equal (a_Z d_Z)^T")
        for a, gen in ((self.a_x, self.gen_x), (self.a_z, self.gen_z)):
            if not a.matmul(gen.transpose()).is_zero():
                raise ValueError("generators must satisfy the layer checks")
            if gen.rank() != a.n_cols - a.rank():
                raise ValueError("generators must span the layer code")


def repeated_measurement_layer(m: int) -> LogicalLayer:
    """m cycles of stabiliser-generator measurement: repetition-code checks."""
    if m < 1:
        raise ValueError("need at least one cycle")
    a = BitMatrix(m, m + 1, [3 << i for i in range(m)])
    eye, zero_row = BitMatrix.identity(m), BitMatrix(1, m)
    d_x, d_z = block([[eye], [zero_row]]), block([[zero_row], [eye]])
    gen = BitMatrix(1, m + 1, [(1 << (m + 1)) - 1])
    layer = LogicalLayer(a, a, d_x, d_z, gen, gen)
    layer.validate()
    return layer


def logical_cnot_layer() -> LogicalLayer:
    """Transversal controlled-NOT on two code blocks."""
    a_x = BitMatrix.from_rows([[1, 0, 1, 0], [1, 1, 0, 1]])
    a_z = BitMatrix.from_rows([[1, 1, 1, 0], [0, 1, 0, 1]])
    d_x = BitMatrix.from_rows([[1, 0], [0, 0], [0, 0], [0, 1]])
    d_z = BitMatrix.from_rows([[0, 0], [0, 1], [1, 0], [0, 0]])
    gen_x = BitMatrix.from_rows([[1, 0, 1, 1], [0, 1, 0, 1]])
    gen_z = BitMatrix.from_rows([[1, 0, 1, 0], [0, 1, 1, 1]])
    layer = LogicalLayer(a_x, a_z, d_x, d_z, gen_x, gen_z)
    layer.validate()
    return layer


@dataclass
class CssAssembly:
    """Physical-circuit matrices for a CSS code under a logical layer."""

    code: CssCode
    layer: LogicalLayer
    a_x: BitMatrix
    a_z: BitMatrix
    d_x: BitMatrix
    d_z: BitMatrix
    a: BitMatrix
    d: BitMatrix
    b: BitMatrix
    l: BitMatrix

    @property
    def x_cols(self) -> int:
        return self.a_x.n_cols

    def boundaries(self, m: BitMatrix) -> tuple[BitMatrix, BitMatrix]:
        """The (x|z) operator matrices of the rows of m at the input and the
        output: their first and last operator snapshots."""
        n = self.code.n
        mask = (1 << n) - 1
        out = []
        for xi, zi in ((0, 0), (self.layer.m_x_bits - 1, self.layer.m_z_bits - 1)):
            x, z = xi * n, self.x_cols + zi * n
            rows = [r >> x & mask | (r >> z & mask) << n for r in m.rows]
            out.append(BitMatrix(m.n_rows, 2 * n, rows))
        return out[0], out[1]


def assemble_physical(code: CssCode, layer: LogicalLayer) -> CssAssembly:
    """Kronecker assembly of A, D, B, L with all compatibility checks."""
    code.validate()
    layer.validate()
    n, r_x, r_z = code.n, code.r_x, code.r_z
    eye = BitMatrix.identity
    t = BitMatrix.transpose

    a_x = block([[kron(layer.a_x, eye(n)), kron(eye(layer.m_x_checks), t(code.g_x))],
                 [kron(t(layer.d_x), code.g_z), None]])
    a_z = block([[kron(layer.a_z, eye(n)), kron(eye(layer.m_z_checks), t(code.g_z))],
                 [kron(t(layer.d_z), code.g_x), None]])
    d_x = block([[kron(layer.d_x, eye(n)), None],
                 [None, eye(layer.m_x_checks * r_x)]])
    d_z = block([[kron(layer.d_z, eye(n)), None],
                 [None, eye(layer.m_z_checks * r_z)]])
    a = block([[None, a_z],
               [a_x, None]])
    d = block([[d_x, None],
               [None, d_z]])
    b = block([[kron(eye(layer.m_x_bits), code.g_x), kron(t(layer.a_x), eye(r_x)), None, None],
               [None, None, kron(eye(layer.m_z_bits), code.g_z), kron(t(layer.a_z), eye(r_z))]])
    # the logical blocks vanish on the measurement columns, so they are
    # widened to the full X or Z block width
    l_x, l_z = kron(layer.gen_x, code.j_x), kron(layer.gen_z, code.j_z)
    l = block([[BitMatrix(l_x.n_rows, a_x.n_cols, l_x.rows), None],
               [None, BitMatrix(l_z.n_rows, a_z.n_cols, l_z.rows)]])

    assembly = CssAssembly(code, layer, a_x, a_z, d_x, d_z, a, d, b, l)
    _validate_assembly(assembly)
    return assembly


def _validate_assembly(asm: CssAssembly) -> None:
    if asm.a_x.matmul(asm.d_x) != asm.a_z.matmul(asm.d_z).transpose():
        raise ValueError("A_X D_X must equal (A_Z D_Z)^T")
    validate_b_l(asm.a, asm.b, asm.l, asm.boundaries(asm.b))
