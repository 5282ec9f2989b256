"""Codeword analysis: kernel-coordinate code spaces, classification, EC structure.

Codewords of a circuit graph are kernel vectors of its check matrix. Their
layer-0 and layer-T wire bits give the input and output Pauli operators;
measurement bits with value one mark the outcomes entering the sign factor.
Every subspace of the code is carved out of the kernel basis, so the check
matrix is eliminated once per graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2 import BitMatrix, BitVector, block, extend_span
from .pauli import PauliOperator
from .tanner import TannerGraph

CHECKER = "checker"
DETECTOR = "detector"
EMITTER = "emitter"
PSEUDO_PROPAGATOR = "pseudo-propagator"
GENUINE_PROPAGATOR = "genuine-propagator"


def sigma_at_layer(
    g: TannerGraph, c: BitVector, t: int, support: list[int] | None = None
) -> PauliOperator:
    """The Pauli operator carried by a codeword at time t, with +1 phase;
    ``support`` is ``c.support()`` when the caller has walked it."""
    x, z = g.wire_masks(c, support)[t]
    return PauliOperator(g.n_qubits, x, z)


@dataclass
class CodeSpaces:
    kernel: BitMatrix  # basis of ker A
    checkers: BitMatrix  # ker A . ker P0 . ker PT
    with_detectors: BitMatrix  # ker A . ker PT
    with_emitters: BitMatrix  # ker A . ker P0
    incoherent: BitMatrix  # span of the two above
    xz_in: BitMatrix  # (x|z) operator of each kernel row at t = 0
    xz_out: BitMatrix  # (x|z) operator of each kernel row at t = depth


def _carve(kernel: BitMatrix, conditions: list[BitMatrix]) -> BitMatrix:
    """Basis of the codewords alpha . kernel with alpha . C = 0 for every C.

    Each C has one row per kernel row: the linear functionals of the
    codeword that must vanish, evaluated on that basis vector.
    """
    return block([[c.transpose()] for c in conditions]).kernel_basis().matmul(kernel)


def code_spaces(g: TannerGraph) -> CodeSpaces:
    cached = getattr(g, "_code_spaces", None)
    if cached is not None:
        return cached
    kernel = g.kernel_basis()
    # a codeword's layer-t bits vanish iff its operator at time t does
    m0, mt = g.boundaries(kernel)
    with_detectors = _carve(kernel, [mt]).rref()
    with_emitters = _carve(kernel, [m0]).rref()
    checkers = _carve(kernel, [m0, mt]).rref()
    incoherent = with_detectors.stack(with_emitters).rref()
    spaces = CodeSpaces(kernel, checkers, with_detectors, with_emitters, incoherent, m0, mt)
    g._code_spaces = spaces
    return spaces


def classify(
    g: TannerGraph,
    c: BitVector,
    masks: list[tuple[int, int]] | None = None,
    support: list[int] | None = None,
) -> str:
    """Codeword class by its boundary layers and coherence; ``masks`` are
    c's ``g.wire_masks(c)`` and ``support`` its ``c.support()`` when the
    caller has read them."""
    if support is None:
        support = c.support()
    if g.syndrome(c, support):
        raise ValueError("not a codeword of the graph")
    if masks is None:
        masks = g.wire_masks(c, support)
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


def relevant_measurements(
    g: TannerGraph, c: BitVector, support: list[int] | None = None
) -> list[int]:
    """Measurement bits whose outcomes enter the codeword's sign factor;
    ``support`` is ``c.support()`` when the caller has walked it."""
    bits = g.bits
    return [i for i in (c.support() if support is None else support) if bits[i].is_measurement]


def _swap_halves(m: BitMatrix, n: int) -> BitMatrix:
    mask = (1 << n) - 1
    rows = [((r >> n) & mask) | ((r & mask) << n) for r in m.rows]
    return BitMatrix(m.n_rows, m.n_cols, rows)


def _pauli_matrix(paulis: list[PauliOperator], n: int) -> BitMatrix:
    return BitMatrix(len(paulis), 2 * n, [p.xz_vector().bits for p in paulis])


@dataclass
class EcStructure:
    """Error-detecting codewords B and logical generators L of a circuit."""

    b: BitMatrix
    l: BitMatrix
    s_in: list[PauliOperator]
    s_out: list[PauliOperator]


def _require_commuting(paulis: list[PauliOperator], message: str) -> None:
    """Raise ValueError(message) unless the operators pairwise commute.

    Only distinct operators other than the identity are compared: the
    identity commutes with every operator, and an operator with its copies.
    """
    distinct = list({(p.x, p.z): p for p in paulis if p.x | p.z}.values())
    for i, p in enumerate(distinct):
        for q in distinct[i + 1 :]:
            if not p.commutes_with(q):
                raise ValueError(message)


def validate_b_l(
    a: BitMatrix | TannerGraph,
    b: BitMatrix,
    l: BitMatrix,
    boundaries: tuple[BitMatrix, BitMatrix],
) -> None:
    """Rows of B and L are independent codewords of A, and the operators of
    the rows of B pairwise commute at each boundary. ``a`` is the check
    matrix, or the graph, whose syndromes then test the rows without a dense
    A. ``boundaries`` holds the (x|z) operator matrices of B's rows at the
    input and the output.
    """
    for name, m in (("B", b), ("L", l)):
        if isinstance(a, TannerGraph):
            codewords = not any(a.syndrome(v) for v in m.row_vectors())
        else:
            codewords = a.matmul(m.transpose()).is_zero()
        if not codewords:
            raise ValueError(f"A {name}^T must vanish")
    if b.stack(l).rank() != b.n_rows + l.n_rows:
        raise ValueError("rows of B and L must be independent")
    for m in boundaries:
        paulis = [PauliOperator.from_xz_vector(v) for v in m.row_vectors()]
        _require_commuting(paulis, "B boundary operators must commute")


def _ec_structure(
    g: TannerGraph,
    b: BitMatrix,
    l: BitMatrix,
    s_in: list[PauliOperator],
    s_out: list[PauliOperator],
    boundaries: tuple[BitMatrix, BitMatrix],
) -> EcStructure:
    """The validated structure; ``boundaries`` spans the boundary operators
    of B's rows at the input and the output, as ``validate_b_l`` takes them."""
    validate_b_l(g, b, l, boundaries)
    return EcStructure(b=b, l=l, s_in=s_in, s_out=s_out)


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
    k, m0, mt = spaces.kernel, spaces.xz_in, spaces.xz_out
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
    return _ec_structure(g, b, l, s_in, s_out, g.boundaries(b))


def complete_ec_structure(g: TannerGraph) -> EcStructure:
    """The maximal compatible pair: B spans every incoherent codeword and L
    completes it to the whole code with genuine propagators."""
    spaces = code_spaces(g)
    b = spaces.incoherent
    l = extend_span(b, spaces.kernel).rref()
    s_in, s_out = derive_codes_from_b(g, b)
    # the generators span B's boundary operators, and operators commute
    # pairwise iff a spanning set of them does
    n = g.n_qubits
    spans = (_pauli_matrix(s_in, n), _pauli_matrix(s_out, n))
    return _ec_structure(g, b, l, s_in, s_out, spans)


def derive_codes_from_b(
    g: TannerGraph, b: BitMatrix
) -> tuple[list[PauliOperator], list[PauliOperator]]:
    """Stabiliser generators spanned by the boundary operators of B's rows."""
    return tuple(
        [PauliOperator.from_xz_vector(v) for v in m.rref().row_vectors()] for m in g.boundaries(b)
    )


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
    spaces = code_spaces(g)
    n, masks = g.n_qubits, g.wire_masks(c)
    # one equation per boundary: the symplectic product of each kernel row's
    # operator with c's operator there, (x|z) against c's (z|x)
    system = [
        m.mul_vec(BitVector(2 * n, z | x << n))
        for m, (x, z) in ((spaces.xz_in, masks[0]), (spaces.xz_out, masks[g.depth]))
    ]
    alpha = BitMatrix.from_vectors(system).solve(BitVector.from_bits([1, 1]))
    if alpha is None:
        raise AssertionError("no anticommuting partner exists; classification is broken")
    k = spaces.kernel
    partner = BitMatrix(1, k.n_rows, [alpha.bits]).matmul(k).row(0)
    if classify(g, partner) != GENUINE_PROPAGATOR:
        raise AssertionError("partner is not a genuine propagator")
    return partner
