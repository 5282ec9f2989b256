"""Codeword analysis: kernel-coordinate code spaces, classification, EC structure.

Codewords of a circuit graph are kernel vectors of its check matrix. Their
layer-0 and layer-T wire bits give the input and output Pauli operators;
measurement bits with value one mark the outcomes entering the sign factor.
Every subspace of the code is carved out of the kernel basis, so the check
matrix is eliminated once per graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .gf2 import BitMatrix, BitVector, extend_span, span_union, stack_kernel
from .pauli import PauliOperator
from .tanner import TannerGraph

CHECKER = "checker"
DETECTOR = "detector"
EMITTER = "emitter"
PSEUDO_PROPAGATOR = "pseudo-propagator"
GENUINE_PROPAGATOR = "genuine-propagator"


def sigma_at_layer(g: TannerGraph, c: BitVector, t: int) -> PauliOperator:
    """The Pauli operator carried by a codeword at time t, with +1 phase."""
    x, z = g.wire_masks(c)[t]
    return PauliOperator(g.n_qubits, x, z)


@dataclass
class CodeSpaces:
    kernel: BitMatrix  # basis of ker A
    checkers: BitMatrix  # ker A . ker P0 . ker PT
    with_detectors: BitMatrix  # ker A . ker PT
    with_emitters: BitMatrix  # ker A . ker P0
    incoherent: BitMatrix  # span of the two above


def _carve(kernel: BitMatrix, conditions: list[BitMatrix]) -> BitMatrix:
    """Basis of the codewords alpha . kernel with alpha . C = 0 for every C.

    Each C has one row per kernel row: the linear functionals of the
    codeword that must vanish, evaluated on that basis vector.
    """
    return stack_kernel([c.transpose() for c in conditions]).matmul(kernel)


def code_spaces(g: TannerGraph) -> CodeSpaces:
    cached = getattr(g, "_code_spaces", None)
    if cached is not None:
        return cached
    if g.depth is None:
        raise ValueError("graph has no layer structure")
    kernel = g.kernel_basis()
    # a codeword's layer-t bits vanish iff its operator at time t does
    m0 = _xz_matrix(g, kernel, 0)
    mt = _xz_matrix(g, kernel, g.depth)
    with_detectors = _carve(kernel, [mt]).rref()
    with_emitters = _carve(kernel, [m0]).rref()
    checkers = _carve(kernel, [m0, mt]).rref()
    incoherent = span_union(with_detectors, with_emitters)
    spaces = CodeSpaces(kernel, checkers, with_detectors, with_emitters, incoherent)
    g._code_spaces = spaces
    return spaces


def classify(g: TannerGraph, c: BitVector) -> str:
    """Codeword class by its boundary layers and coherence."""
    if g.syndrome(c):
        raise ValueError("not a codeword of the graph")
    masks = g.wire_masks(c)
    zero_in = masks[0] == (0, 0)
    zero_out = masks[g.depth] == (0, 0)
    if zero_in and zero_out:
        return CHECKER
    if zero_out:
        return DETECTOR
    if zero_in:
        return EMITTER
    spaces = code_spaces(g)
    if spaces.incoherent.row_space_member(c):
        return PSEUDO_PROPAGATOR
    return GENUINE_PROPAGATOR


def relevant_measurements(g: TannerGraph, c: BitVector) -> list[int]:
    """Measurement bits whose outcomes enter the codeword's sign factor."""
    return [i for i in c.support() if g.bits[i].is_measurement]


def errors_equivalent(a: BitMatrix, e1: BitVector, e2: BitVector) -> bool:
    """Two spacetime errors are equivalent iff their sum lies in rowsp(A)."""
    return a.row_space_member(e1 ^ e2)


def _xz_matrix(g: TannerGraph, basis: BitMatrix, t: int) -> BitMatrix:
    rows = [sigma_at_layer(g, c, t).xz_vector().bits for c in basis.row_vectors()]
    return BitMatrix(basis.n_rows, 2 * g.n_qubits, rows)


def _swap_halves(m: BitMatrix, n: int) -> BitMatrix:
    mask = (1 << n) - 1
    rows = [((r >> n) & mask) | ((r & mask) << n) for r in m.rows]
    return BitMatrix(m.n_rows, m.n_cols, rows)


def _pauli_matrix(paulis: list[PauliOperator], n: int) -> BitMatrix:
    return BitMatrix(len(paulis), 2 * n, [p.xz_vector().bits for p in paulis])


@dataclass
class EcStructure:
    """Error-correction check matrix and logical generators of a circuit."""

    a: BitMatrix
    b: BitMatrix
    l: BitMatrix
    v_m: tuple[int, ...]
    v_i: tuple[int, ...]
    s_in: list[PauliOperator]
    s_out: list[PauliOperator]
    l_in: list[PauliOperator]
    l_out: list[PauliOperator]

    def validate(self, g: TannerGraph) -> None:
        boundaries = [lambda c: sigma_at_layer(g, c, 0), lambda c: sigma_at_layer(g, c, g.depth)]
        validate_b_l(self.a, self.b, self.l, boundaries)


def _require_commuting(paulis: list[PauliOperator], message: str) -> None:
    """Raise ValueError(message) unless the operators pairwise commute."""
    for i in range(len(paulis)):
        for j in range(i + 1, len(paulis)):
            if not paulis[i].commutes_with(paulis[j]):
                raise ValueError(message)


def validate_b_l(a: BitMatrix, b: BitMatrix, l: BitMatrix, boundaries: list[Callable]) -> None:
    """Rows of B and L are independent codewords of A, and the operators that
    each function in ``boundaries`` reads off the rows of B pairwise commute.
    """
    if not a.matmul(b.transpose()).is_zero():
        raise ValueError("A B^T must vanish")
    if not a.matmul(l.transpose()).is_zero():
        raise ValueError("A L^T must vanish")
    if b.stack(l).rank() != b.n_rows + l.n_rows:
        raise ValueError("rows of B and L must be independent")
    rows = list(b.row_vectors())
    for boundary in boundaries:
        _require_commuting([boundary(c) for c in rows], "B boundary operators must commute")


def _ec_structure(
    g: TannerGraph,
    b: BitMatrix,
    l: BitMatrix,
    s_in: list[PauliOperator],
    s_out: list[PauliOperator],
) -> EcStructure:
    structure = EcStructure(
        a=g.check_matrix(),
        b=b,
        l=l,
        v_m=tuple(g.measurement_bits()),
        v_i=tuple(g.initialisation_bits()),
        s_in=s_in,
        s_out=s_out,
        l_in=[sigma_at_layer(g, c, 0) for c in l.row_vectors()],
        l_out=[sigma_at_layer(g, c, g.depth) for c in l.row_vectors()],
    )
    structure.validate(g)
    return structure


def build_ec_structure(
    g: TannerGraph,
    s_in: list[PauliOperator],
    s_out: list[PauliOperator],
) -> EcStructure:
    """Assemble B (error-detecting codewords) and L (logical generators).

    B spans the codewords whose boundary operators lie in the given stabiliser
    groups (up to sign); L extends B inside the subspace of codewords whose
    boundary operators commute with those groups.
    """
    _require_commuting(s_in, "input generators must commute")
    _require_commuting(s_out, "output generators must commute")
    n = g.n_qubits
    spaces = code_spaces(g)
    k = spaces.kernel
    m0 = _xz_matrix(g, k, 0)
    mt = _xz_matrix(g, k, g.depth)
    g_in = _pauli_matrix(s_in, n)
    g_out = _pauli_matrix(s_out, n)

    # membership in the group (ignoring signs): orthogonality to the dual
    w_in = g_in.kernel_basis()
    w_out = g_out.kernel_basis()
    n_in = m0.matmul(w_in.transpose())
    n_out = mt.matmul(w_out.transpose())
    b = _carve(k, [n_in, n_out]).rref()

    # logical condition: boundary operators commute with the stabilisers
    c_in = m0.matmul(_swap_halves(g_in, n).transpose())
    c_out = mt.matmul(_swap_halves(g_out, n).transpose())
    w = _carve(k, [c_in, c_out])

    l = extend_span(b, w).rref()
    return _ec_structure(g, b, l, s_in, s_out)


def complete_ec_structure(g: TannerGraph) -> EcStructure:
    """The maximal compatible pair: B spans every incoherent codeword and L
    completes it to the whole code with genuine propagators."""
    spaces = code_spaces(g)
    b = spaces.incoherent
    l = extend_span(b, spaces.kernel).rref()
    return _ec_structure(g, b, l, *derive_codes_from_b(g, b))


def derive_codes_from_b(
    g: TannerGraph, b: BitMatrix
) -> tuple[list[PauliOperator], list[PauliOperator]]:
    """Stabiliser generators spanned by the boundary operators of B's rows."""
    gens = []
    for t in (0, g.depth):
        m = _xz_matrix(g, b, t).rref()
        gens.append([PauliOperator.from_xz_vector(v) for v in m.row_vectors()])
    return gens[0], gens[1]


def solve_codeword(
    g: TannerGraph,
    sigma_in: PauliOperator | None = None,
    sigma_out: PauliOperator | None = None,
    bit_values: dict[int, int] | None = None,
) -> BitVector | None:
    """A codeword with prescribed boundary operators and bit values, if any.

    The solution is generally not unique (any checker can be added); the
    returned one is the deterministic output of the linear solver.
    """
    rows = list(g.check_matrix().rows)
    rhs = [0] * len(rows)

    def pin_layer(t: int, op: PauliOperator):
        for i in g.layer_bits(t):
            lab = g.bits[i]
            want = (op.x if lab.kind == "x" else op.z) >> (lab.q - 1) & 1
            rows.append(1 << i)
            rhs.append(want)

    if sigma_in is not None:
        pin_layer(0, sigma_in)
    if sigma_out is not None:
        pin_layer(g.depth, sigma_out)
    for i, val in (bit_values or {}).items():
        rows.append(1 << i)
        rhs.append(val & 1)
    system = BitMatrix(len(rows), g.n_bits, rows)
    return system.solve(BitVector.from_bits(rhs))


def find_anticommuting_partner(
    g: TannerGraph, c: BitVector
) -> BitVector:
    """A genuine propagator anticommuting with c on both boundaries.

    Existence is guaranteed for genuine propagators; failing to find one
    signals an internal inconsistency, hence the hard error.
    """
    if classify(g, c) != GENUINE_PROPAGATOR:
        raise ValueError("partner search needs a genuine propagator")
    k = code_spaces(g).kernel
    target = BitMatrix(1, g.n_bits, [c.bits])
    # one equation per boundary: the symplectic product of each kernel row's
    # operator with c's operator there
    system = [
        _xz_matrix(g, k, t).mul_vec(_swap_halves(_xz_matrix(g, target, t), g.n_qubits).row(0))
        for t in (0, g.depth)
    ]
    alpha = BitMatrix.from_vectors(system).solve(BitVector.from_bits([1, 1]))
    if alpha is None:
        raise AssertionError("no anticommuting partner exists; classification is broken")
    partner = BitMatrix(1, k.n_rows, [alpha.bits]).matmul(k).row(0)
    if classify(g, partner) != GENUINE_PROPAGATOR:
        raise AssertionError("partner is not a genuine propagator")
    return partner
