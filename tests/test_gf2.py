import random

import pytest

from circuitcode.gf2 import (
    BitMatrix,
    BitVector,
    _set_bits,
    block,
    extend_span,
    kron,
    read_alist,
    read_matrix_text,
    symplectic_product,
    write_alist,
    write_matrix_text,
)

# Linear map of the controlled-NOT gate on (x1, x2, z1, z2).
M_CNOT = BitMatrix.from_rows(
    [
        [1, 0, 0, 0],
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [0, 0, 0, 1],
    ]
)


def test_rank_identity():
    assert BitMatrix.identity(2).rank() == 2


def test_rank_cnot_map():
    # Hand row reduction: rows 1000,1100,0011,0001 reduce to the identity.
    assert M_CNOT.rank() == 4


def test_rank_zero_matrix():
    assert BitMatrix(3, 5).rank() == 0


def test_kernel_single_pivot():
    a_mea = BitMatrix.from_rows([[1, 0, 0, 0]])
    k = a_mea.kernel_basis()
    assert k.n_rows == 3
    assert a_mea.matmul(k.transpose()).is_zero()


def test_kernel_cnot_check_matrix():
    # A = (M | 1) for the controlled-NOT gate; its kernel holds the
    # propagation X1 -> X1X2 as the vector (1,0,0,0,1,1,0,0).
    rows = []
    for i in range(4):
        row = as_lists(M_CNOT)[i] + [1 if j == i else 0 for j in range(4)]
        rows.append(row)
    a = BitMatrix.from_rows(rows)
    k = a.kernel_basis()
    assert k.n_rows == 4
    v = BitVector.from_bits([1, 0, 0, 0, 1, 1, 0, 0])
    assert k.row_space_member(v)


def test_kernel_full_rank_square():
    assert BitMatrix.identity(4).kernel_basis().n_rows == 0


def test_row_space_member():
    assert BitMatrix.identity(2).row_space_member(BitVector.from_bits([1, 1]))
    m = BitMatrix.from_rows([[1, 1, 0]])
    assert not m.row_space_member(BitVector.from_bits([0, 0, 1]))
    m2 = BitMatrix.from_rows([[1, 1, 0], [0, 1, 1]])
    # (1,0,1) is the sum of the two rows.
    assert m2.row_space_member(BitVector.from_bits([1, 0, 1]))


def stack_kernel(ms):
    """The intersection of the kernels of ms, as codewords._carve takes it."""
    return block([[m] for m in ms]).kernel_basis()


def test_stack_kernel():
    assert stack_kernel([BitMatrix.identity(2)]).n_rows == 0
    ms = [BitMatrix.from_rows([[1, 0]]), BitMatrix.from_rows([[0, 1]])]
    assert stack_kernel(ms).n_rows == 0
    k = stack_kernel([BitMatrix.from_rows([[1, 1, 0]]), BitMatrix.from_rows([[0, 1, 1]])])
    # Solving v1+v2=0, v2+v3=0 by hand leaves only (1,1,1).
    assert k.n_rows == 1
    assert k.row(0) == BitVector.from_bits([1, 1, 1])


def test_stack_kernel_dimension_mismatch():
    with pytest.raises(ValueError):
        stack_kernel([BitMatrix.identity(2), BitMatrix.identity(3)])


def test_span_union():
    # rowsp(a) + rowsp(b) as code_spaces takes it: the rref of a stacked on b
    u = BitMatrix.identity(2).stack(BitMatrix(1, 2)).rref()
    assert u.rref() == BitMatrix.identity(2).rref()
    u2 = BitMatrix.from_rows([[1, 0]]).stack(BitMatrix.from_rows([[0, 1]])).rref()
    assert u2.n_rows == 2
    u3 = BitMatrix.from_rows([[1, 1, 0]]).stack(BitMatrix.from_rows([[0, 1, 1]])).rref()
    assert u3.n_rows == 2
    assert u3.row_space_member(BitVector.from_bits([1, 0, 1]))


def test_symplectic_product():
    x1 = BitVector.from_bits([1, 0])
    z1 = BitVector.from_bits([0, 1])
    assert symplectic_product(x1, z1) == 1
    assert symplectic_product(x1, x1) == 0
    x1x2 = BitVector.from_bits([1, 1, 0, 0])
    z1_2q = BitVector.from_bits([0, 0, 1, 0])
    assert symplectic_product(x1x2, z1_2q) == 1


def test_symplectic_product_odd_length():
    with pytest.raises(ValueError):
        symplectic_product(BitVector.from_bits([1, 0, 1]), BitVector.from_bits([0, 1, 1]))


# ---------------------------------------------------------------------------
# Invariants


def test_kernel_orthogonality_and_rank_sum():
    rng = random.Random(7)
    for _ in range(30):
        n_rows = rng.randrange(1, 7)
        n_cols = rng.randrange(1, 9)
        m = BitMatrix(n_rows, n_cols, [rng.getrandbits(n_cols) for _ in range(n_rows)])
        k = m.kernel_basis()
        assert m.matmul(k.transpose()).is_zero()
        assert k.rank() + m.rank() == n_cols
        assert k.rank() == k.n_rows


def test_rref_idempotent_rank():
    rng = random.Random(11)
    for _ in range(20):
        m = BitMatrix(4, 6, [rng.getrandbits(6) for _ in range(4)])
        assert m.rref().rank() == m.rank()
        assert m.rref().rref() == m.rref()


def test_random_rowspace_membership():
    rng = random.Random(13)
    for _ in range(30):
        m = BitMatrix(5, 8, [rng.getrandbits(8) for _ in range(5)])
        combo = 0
        for r in m.rows:
            if rng.random() < 0.5:
                combo ^= r
        assert m.row_space_member(BitVector(8, combo))


def test_symplectic_bilinear_symmetric():
    rng = random.Random(17)
    for _ in range(40):
        n = 2 * rng.randrange(1, 5)
        a = BitVector(n, rng.getrandbits(n))
        b = BitVector(n, rng.getrandbits(n))
        c = BitVector(n, rng.getrandbits(n))
        assert symplectic_product(a, b) == symplectic_product(b, a)
        assert (
            symplectic_product(a ^ b, c)
            == (symplectic_product(a, c) + symplectic_product(b, c)) % 2
        )
    # Disjoint x/z supports commute with themselves.
    v = BitVector.from_bits([1, 0, 0, 1])
    assert symplectic_product(v, v) == 0


def test_solve():
    m = BitMatrix.from_rows([[1, 1, 0], [0, 1, 1]])
    rhs = BitVector.from_bits([1, 0])
    x = m.solve(rhs)
    assert x is not None
    assert m.mul_vec(x) == rhs
    # Inconsistent system: duplicate row with conflicting right-hand side.
    m2 = BitMatrix.from_rows([[1, 1, 0], [1, 1, 0]])
    assert m2.solve(BitVector.from_bits([1, 0])) is None


# ---------------------------------------------------------------------------
# The elimination kernel against a textbook Gauss-Jordan on lists of 0/1


def naive_rref(rows: list[list[int]], n_cols: int) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan with row swaps, column by column: (nonzero rows, pivots)."""
    m = [list(r) for r in rows]
    pivots = []
    top = 0
    for c in range(n_cols):
        found = next((i for i in range(top, len(m)) if m[i][c]), None)
        if found is None:
            continue
        m[top], m[found] = m[found], m[top]
        for i in range(len(m)):
            if i != top and m[i][c]:
                m[i] = [a ^ b for a, b in zip(m[i], m[top])]
        pivots.append(c)
        top += 1
    return m[:top], pivots


def naive_kernel(rows: list[list[int]], n_cols: int) -> list[list[int]]:
    """One kernel vector per free column, brought to rref."""
    red, pivots = naive_rref(rows, n_cols)
    basis = []
    for f in (j for j in range(n_cols) if j not in pivots):
        v = [0] * n_cols
        v[f] = 1
        for row, c in zip(red, pivots):
            v[c] = row[f]
        basis.append(v)
    return naive_rref(basis, n_cols)[0]


def random_lists(rng, n_rows, n_cols, density):
    return [[int(rng.random() < density) for _ in range(n_cols)] for _ in range(n_rows)]


def kernel_cases():
    """Seeded random matrices of every shape the kernel has to handle."""
    rng = random.Random(2024)
    cases = []
    for _ in range(25):
        for n_rows, n_cols, density in [
            (rng.randrange(8, 16), rng.randrange(1, 7), 0.5),  # tall
            (rng.randrange(1, 7), rng.randrange(8, 16), 0.5),  # wide
            (rng.randrange(1, 12), rng.randrange(1, 12), 0.9),  # dense
            (rng.randrange(1, 12), rng.randrange(1, 12), 0.12),  # sparse
        ]:
            cases.append(random_lists(rng, n_rows, n_cols, density))
        rows = random_lists(rng, rng.randrange(1, 6), rng.randrange(1, 10), 0.5)
        cases.append(rows + [rows[rng.randrange(len(rows))] for _ in range(3)])  # duplicates
    cases += [[[0] * 5] * 3, [[0] * 4] * 4, [[]] * 2]  # all-zero, one with no columns
    return cases


def as_matrix(rows):
    return BitMatrix.from_rows(rows, n_cols=len(rows[0]))


def entry(m, i, j):
    """Entry (i, j) of m, read off its row integer."""
    return (m.rows[i] >> j) & 1


def as_lists(m):
    """The entries of m as one list of 0/1 per row, read one at a time."""
    return [[entry(m, i, j) for j in range(m.n_cols)] for i in range(m.n_rows)]


def test_kernel_matches_naive_gauss_jordan():
    for rows in kernel_cases():
        n_cols = len(rows[0])
        m = as_matrix(rows)
        red, pivots = naive_rref(rows, n_cols)
        assert as_lists(m.rref()) == red
        assert m.rank() == len(pivots)
        assert as_lists(m.kernel_basis()) == naive_kernel(rows, n_cols)


def test_inverse_matches_naive_gauss_jordan():
    rng = random.Random(99)
    singular = 0
    for _ in range(120):
        n = rng.randrange(1, 9)
        rows = random_lists(rng, n, n, rng.choice([0.2, 0.5, 0.8]))
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        red, pivots = naive_rref([r + e for r, e in zip(rows, eye)], 2 * n)
        if pivots[:n] != list(range(n)):
            singular += 1
            with pytest.raises(ValueError):
                as_matrix(rows).inverse()
        else:
            assert as_lists(as_matrix(rows).inverse()) == [r[n:] for r in red]
    assert 0 < singular < 120


def test_solve_matches_naive_gauss_jordan():
    rng = random.Random(5)
    outcomes = set()
    for rows in kernel_cases():
        n_rows, n_cols = len(rows), len(rows[0])
        for _ in range(4):
            rhs = [rng.randrange(2) for _ in range(n_rows)]
            red, pivots = naive_rref([r + [b] for r, b in zip(rows, rhs)], n_cols + 1)
            got = as_matrix(rows).solve(BitVector.from_bits(rhs))
            consistent = n_cols not in pivots
            outcomes.add(consistent)
            if not consistent:
                assert got is None
                continue
            # the solution with every free variable zero
            want = [0] * n_cols
            for row, c in zip(red, pivots):
                want[c] = row[n_cols]
            assert got is not None and [got[j] for j in range(n_cols)] == want
    assert outcomes == {True, False}


def test_extend_span_matches_greedy_rank_test():
    rng = random.Random(31)
    for rows in kernel_cases():
        n_cols = len(rows[0])
        base = rows[: len(rows) // 2]
        candidates = rows[len(rows) // 2 :] + random_lists(rng, 4, n_cols, 0.4)
        kept = []
        for v in candidates:
            acc = base + kept
            if len(naive_rref(acc + [v], n_cols)[1]) > len(naive_rref(acc, n_cols)[1]):
                kept.append(v)
        base_m = BitMatrix.from_rows(base, n_cols=n_cols)
        got = extend_span(base_m, as_matrix(candidates))
        assert as_lists(got) == kept
        assert got.n_cols == n_cols


# ---------------------------------------------------------------------------
# The set-bit walker against element-wise oracles


def naive_set_bits(r):
    return [j for j in range(r.bit_length()) if r >> j & 1]


def sparse_matrix(rng, n_rows, n_cols, weight):
    """n_rows rows of up to ``weight`` random set bits each over n_cols columns."""
    k = min(weight, n_cols)
    rows = [sum(1 << j for j in rng.sample(range(n_cols), k)) for _ in range(n_rows)]
    return BitMatrix(n_rows, n_cols, rows)


def walker_matrices():
    """Seeded matrices for the set-bit walker: empty and zero ones, single
    bits, small dense ones, and rows at least 20,000 bits wide."""
    rng = random.Random(41)
    cases = [BitMatrix(0, 0), BitMatrix(0, 5), BitMatrix(3, 0), BitMatrix(4, 9)]
    cases.append(BitMatrix(4, 65, [1, 1 << 63, 1 << 64, 1 << 31]))
    cases += [BitMatrix(5, 7, [rng.getrandbits(7) for _ in range(5)]) for _ in range(10)]
    cases += [sparse_matrix(rng, 9, 70, 6), sparse_matrix(rng, 70, 9, 3)]
    cases += [sparse_matrix(rng, 4, 20_011, 25), sparse_matrix(rng, 3, 40_000, 12)]
    cases.append(BitMatrix(2, 20_000, [1 << 19_999, (1 << 20_000) - 1]))
    return cases


def naive_product(a, b):
    """a b over GF(2), one entry at a time."""
    la, lb = as_lists(a), as_lists(b)
    entries = [
        [sum(x & lb[k][j] for k, x in enumerate(row)) % 2 for j in range(b.n_cols)] for row in la
    ]
    return BitMatrix.from_rows(entries, b.n_cols)


def naive_alist(m):
    """The alist lines of m from its entries: column lists, then row lists."""
    entries = as_lists(m)
    cols = [[i + 1 for i in range(m.n_rows) if entries[i][j]] for j in range(m.n_cols)]
    rows = [[j + 1 for j in range(m.n_cols) if entries[i][j]] for i in range(m.n_rows)]
    max_col = max(map(len, cols), default=0)
    max_row = max(map(len, rows), default=0)
    lines = [f"{m.n_cols} {m.n_rows}", f"{max_col} {max_row}"]
    lines.append(" ".join(str(len(c)) for c in cols))
    lines.append(" ".join(str(len(r)) for r in rows))
    lines += [" ".join(str(v) for v in c + [0] * (max_col - len(c))) for c in cols]
    lines += [" ".join(str(v) for v in r + [0] * (max_row - len(r))) for r in rows]
    return lines


# Matrices are compared as BitMatrix and texts as lists of lines, so that a
# failure on a 20,000-column case reports a shape or a line index, not a
# diff of the whole text.


def test_set_bits_and_support_match_a_bit_by_bit_walk():
    singles = [1 << k for k in (0, 1, 29, 30, 31, 63, 64, 20_000)]
    for r in [0, *singles, *(r for m in walker_matrices() for r in m.rows)]:
        assert _set_bits(r) == naive_set_bits(r)
        assert BitVector(r.bit_length(), r).support() == naive_set_bits(r)


def test_transpose_matches_entrywise_transpose():
    for m in walker_matrices():
        want = [[entry(m, i, j) for i in range(m.n_rows)] for j in range(m.n_cols)]
        assert m.transpose() == BitMatrix.from_rows(want, m.n_rows)
        assert m.transpose().transpose() == m


def test_matmul_matches_entrywise_product():
    rng = random.Random(43)
    for m in walker_matrices():
        other = sparse_matrix(rng, m.n_cols, 5, 2)
        assert m.matmul(other) == naive_product(m, other)


def test_kron_matches_entrywise_product():
    rng = random.Random(47)
    smalls = [
        BitMatrix(0, 2), BitMatrix(2, 3), BitMatrix(2, 3, [0b101, 0b011]), BitMatrix.identity(3)
    ]
    wide = sparse_matrix(rng, 2, 10_007, 9)
    for a, b in [*((a, b) for a in smalls for b in smalls), (smalls[2], wide), (wide, smalls[2])]:
        la, lb = as_lists(a), as_lists(b)
        want = [
            [la[i1][j1] & lb[i2][j2] for j1 in range(a.n_cols) for j2 in range(b.n_cols)]
            for i1 in range(a.n_rows)
            for i2 in range(b.n_rows)
        ]
        assert kron(a, b) == BitMatrix.from_rows(want, a.n_cols * b.n_cols)


def test_alist_matches_entrywise_writer_and_reads_back():
    for m in walker_matrices():
        text = write_alist(m)
        assert text.splitlines() == naive_alist(m)
        assert read_alist(text) == m


# ---------------------------------------------------------------------------
# File formats


def test_matrix_text_roundtrip():
    m = BitMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
    text = write_matrix_text(m)
    assert text.splitlines()[0] == "2 3"
    assert read_matrix_text(text) == m


def test_alist_roundtrip():
    rng = random.Random(23)
    for _ in range(10):
        m = BitMatrix(4, 7, [rng.getrandbits(7) for _ in range(4)])
        assert read_alist(write_alist(m)) == m


def test_read_matrix_text_rejects_garbage():
    with pytest.raises(ValueError):
        read_matrix_text("2 2\n1 0 2 1\n")
    with pytest.raises(ValueError):
        read_matrix_text("2 2\n1 0\n")


def test_matrix_text_layout():
    m = BitMatrix.from_rows([[1, 0, 1, 1], [0, 0, 0, 1], [0, 0, 0, 0]])
    assert write_matrix_text(m) == "3 4\n1 0 1 1\n0 0 0 1\n0 0 0 0\n"
    assert write_matrix_text(BitMatrix(2, 0)) == "2 0\n\n\n"
    assert read_matrix_text("2 0\n\n\n") == BitMatrix(2, 0)
    rng = random.Random(3)
    for n_cols in (1, 7, 64, 200):
        m = BitMatrix(5, n_cols, [rng.getrandbits(n_cols) for _ in range(5)])
        text = write_matrix_text(m)
        assert text.splitlines()[1] == " ".join(str(entry(m, 0, j)) for j in range(n_cols))
        assert read_matrix_text(text) == m


def test_read_matrix_text_rejects_bad_tokens():
    for text in ("1 2\n1 01\n", "1 2\n1 -1\n", "1 2\n0 x\n", "1 2\n1 0 1\n"):
        with pytest.raises(ValueError):
            read_matrix_text(text)


def test_read_alist_rejects_truncated_input():
    text = write_alist(BitMatrix.from_rows([[1, 1, 0], [0, 1, 1]]))
    tokens = text.split()
    for cut in (2, 4, 9, len(tokens) - 1):
        with pytest.raises(ValueError):
            read_alist(" ".join(tokens[:cut]))


def test_read_alist_rejects_out_of_range_entries():
    # 3 columns, 2 checks; the list of column 0 names check 5, then check -1
    good = "3 2\n1 2\n1 1 1\n1 2\n1\n2\n2\n1 0\n2 3\n"
    assert read_alist(good) == BitMatrix.from_rows([[1, 0, 0], [0, 1, 1]])
    for bad_entry in ("5", "-1"):
        with pytest.raises(ValueError):
            read_alist(good.replace("1 2\n1\n2", f"1 2\n{bad_entry}\n2"))
    with pytest.raises(ValueError):
        read_alist("-3 2 1 1")


def test_block_infers_zero_block_shapes():
    a = BitMatrix.from_rows([[1, 0, 1], [0, 1, 1]])  # 2 x 3
    b = BitMatrix.from_rows([[1], [1], [0], [1]])  # 4 x 1
    m = block([[a, None], [None, b]])
    assert as_lists(m) == [
        [1, 0, 1, 0],
        [0, 1, 1, 0],
        [0, 0, 0, 1],
        [0, 0, 0, 1],
        [0, 0, 0, 0],
        [0, 0, 0, 1],
    ]
    # a zero block between two matrices takes its width from its column
    c = BitMatrix.from_rows([[1, 1]])
    m = block([[c, None, c], [None, BitMatrix.identity(3), None]])
    assert as_lists(m) == [[1, 1, 0, 0, 0, 1, 1], [0, 0, 1, 0, 0, 0, 0],
                            [0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0]]


def test_block_of_one_matrix_is_that_matrix():
    rng = random.Random(5)
    for rows, cols in ((0, 0), (0, 3), (3, 0), (4, 7)):
        m = BitMatrix(rows, cols, [rng.getrandbits(cols) for _ in range(rows)])
        assert block([[m]]) == m


def test_block_matches_stack_of_concatenated_rows():
    rng = random.Random(6)
    for _ in range(50):
        heights = [rng.randrange(4) for _ in range(rng.randrange(1, 4))]
        widths = [rng.randrange(4) for _ in range(rng.randrange(1, 4))]
        grid = [
            [BitMatrix(h, w, [rng.getrandbits(w) for _ in range(h)]) for w in widths]
            for h in heights
        ]
        want = [
            sum(m.rows[i] << sum(widths[:j]) for j, m in enumerate(row))
            for row, h in zip(grid, heights)
            for i in range(h)
        ]
        # blank out every block whose row and column keep another matrix
        holed = [list(row) for row in grid]
        for i, row in enumerate(holed):
            for j in range(len(row)):
                if sum(x is not None for x in row) > 1 and sum(
                    r[j] is not None for r in holed
                ) > 1 and grid[i][j].is_zero():
                    row[j] = None
        for g in (grid, holed):
            assert block(g) == BitMatrix(sum(heights), sum(widths), want)


@pytest.mark.parametrize(
    "grid",
    [
        [[BitMatrix(2, 1), BitMatrix(3, 1)]],  # heights 2 and 3 in one block row
        [[BitMatrix(1, 2)], [BitMatrix(1, 3)]],  # widths 2 and 3 in one block column
        [[BitMatrix(1, 1), None], [None, None]],  # block row 1 holds no matrix
        [[BitMatrix(1, 1), None], [BitMatrix(1, 1), None]],  # block column 1 holds none
        [[None]],
        [[BitMatrix(1, 1), BitMatrix(1, 1)], [BitMatrix(1, 1)]],  # ragged
        [[]],
        [],
    ],
    ids=["heights", "widths", "empty-row", "empty-column", "only-none", "ragged",
         "empty-row-list", "empty-grid"],
)
def test_block_rejects_bad_grids(grid):
    with pytest.raises(ValueError):
        block(grid)
