import io
import random

import pytest

from circuitcode import gf2
from circuitcode.gf2 import (
    BitMatrix,
    BitVector,
    _set_bits,
    block,
    extend_span,
    kron,
    matrix_text_lines,
    read_alist,
    read_alist_supports,
    read_matrix_supports,
    read_matrix_text,
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


# ---------------------------------------------------------------------------
# The dense text format against the whole-text writer and reader it replaced


def oracle_write_matrix_text(m):
    n = m.n_cols
    lines = [f"{m.n_rows} {n}"]
    for r in m.rows:
        # binary digits are most significant first; column 0 is bit 0
        lines.append(" ".join(format(r, f"0{n}b")[::-1]) if n else "")
    return "\n".join(lines) + "\n"


def oracle_read_matrix_text(text):
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("matrix text needs a '<rows> <cols>' header")
    n_rows, n_cols = int(tokens[0]), int(tokens[1])
    values = tokens[2:]
    if len(values) != n_rows * n_cols:
        raise ValueError(
            f"expected {n_rows * n_cols} entries, found {len(values)}"
        )
    if not set(values) <= {"0", "1"}:
        bad = next(v for v in values if v not in ("0", "1"))
        raise ValueError(f"matrix entries must be 0 or 1, found {bad!r}")
    if n_cols == 0:
        return BitMatrix(n_rows, 0)
    digits = "".join(values)
    rows = [int(digits[i * n_cols : (i + 1) * n_cols][::-1], 2) for i in range(n_rows)]
    return BitMatrix(n_rows, n_cols, rows)


def outcome(read, data):
    """read(data) as ("ok", matrix) or ("error", message)."""
    try:
        return "ok", read(data)
    except ValueError as exc:
        return "error", str(exc)


def file_matrix(data):
    """The matrix that read_matrix_supports reads from the file bytes data."""
    n_cols, supports = read_matrix_supports(io.BytesIO(data))
    return BitMatrix(len(supports), n_cols, [sum(1 << j for j in s) for s in supports])


def read_text_matrix(data):
    """The whole-file path: read_text(encoding="ascii") decodes the file, then
    the oracle reads the text. A byte outside ASCII raises the decoding error."""
    return oracle_read_matrix_text(data.decode("ascii"))


# chunk sizes that cut tokens and rows, and the real one
CHUNKS = (1, 2, 3, 5, 8, 64, gf2._CHUNK_BYTES)


def assert_reads_like_the_oracle(monkeypatch, data):
    """File bytes data read in chunks of every size, and its text, as the
    whole-file path reads them: the same matrix or the same error message."""
    want = outcome(read_text_matrix, data)
    for size in CHUNKS:
        monkeypatch.setattr(gf2, "_CHUNK_BYTES", size)
        assert outcome(file_matrix, data) == want, (size, data[:200])
        assert outcome(read_matrix_text, data.decode("utf-8")) == want, (size, data[:200])


def text_matrices():
    """Seeded matrices for the text format: empty ones, dense, sparse and
    wide ones of at least 40,000 columns."""
    rng = random.Random(61)
    cases = [BitMatrix(0, 0), BitMatrix(0, 7), BitMatrix(4, 0), BitMatrix(3, 5)]
    cases += [BitMatrix(n, m, [rng.getrandbits(m) for _ in range(n)]) for n, m in
              ((1, 1), (2, 3), (7, 13), (20, 64), (9, 301))]
    cases += [sparse_matrix(rng, 30, 200, 3), sparse_matrix(rng, 200, 30, 2)]
    cases += [sparse_matrix(rng, 5, 40_000, 9), BitMatrix(2, 40_001, [rng.getrandbits(40_001), 1])]
    return cases


def test_writer_is_byte_identical_to_the_whole_text_writer():
    for m in text_matrices():
        want = oracle_write_matrix_text(m)
        assert write_matrix_text(m) == want
        supports = [naive_set_bits(r) for r in m.rows]
        assert b"".join(matrix_text_lines(m.n_cols, supports)).decode() == want


def test_reader_reads_written_matrices_like_the_whole_text_reader(monkeypatch):
    for m in text_matrices():
        data = oracle_write_matrix_text(m).encode()
        assert outcome(read_text_matrix, data) == ("ok", m)
        if m.n_cols > 100:  # every chunk size is too slow on the widest rows
            monkeypatch.setattr(gf2, "_CHUNK_BYTES", 4093)
            assert file_matrix(data) == m
            assert read_matrix_text(data.decode()) == m
        else:
            assert_reads_like_the_oracle(monkeypatch, data)


LAYOUTS = [
    "2 3\n1\n0\n1\n0\n0\n1\n",  # one entry a line
    "2 3 1 0 1 0 0 1",  # one line for everything, no newline
    "2\t3\n1\t0\t1\n0\t0\t1\n",  # tabs
    "2 3\r\n1 0 1\r\n0 0 1\r\n",  # CRLF
    "  2   3 \n\n 1 0  1\n\n0 0 1  \n\n",  # runs of spaces and blank lines
    "2 3\x0b1\x0c0 1\r0 0 1",  # vertical tab, form feed, lone CR
    "2 3\n1 0 1\n0 0 1",  # no final newline
    "+2 0_3\n1 0 1\n0 0 1\n",  # int() spellings of the header
]


def test_reader_takes_every_layout_the_whole_text_reader_takes(monkeypatch):
    for text in LAYOUTS:
        assert outcome(read_text_matrix, text.encode()) == ("ok", BitMatrix(2, 3, [0b101, 0b100]))
        assert_reads_like_the_oracle(monkeypatch, text.encode())


def test_separators_outside_ascii_whitespace_stay_inside_their_token(monkeypatch):
    # str.split() splits on \x1c-\x1f; the reader splits on ASCII whitespace only
    header = "2 3\x1c1\x1d0\x1e1\x1f0 0 1\n"
    want = ("error", "invalid literal for int() with base 10: '3\\x1c1\\x1d0\\x1e1\\x1f0'")
    for size in CHUNKS:
        monkeypatch.setattr(gf2, "_CHUNK_BYTES", size)
        assert outcome(file_matrix, header.encode()) == want
        for sep in "\x1c\x1d\x1e\x1f":
            data = f"1 2\n1{sep}0\n".encode()
            assert outcome(file_matrix, data) == ("error", "expected 2 entries, found 1")
            data = f"1 1\n{sep}1\n".encode()
            want_entry = f"matrix entries must be 0 or 1, found {sep + '1'!r}"
            assert outcome(file_matrix, data) == ("error", want_entry)


BAD_TEXTS = [
    "", "  \n", "3", "x 3\n", "3 y\n", "2 3\n1 0 1\n0 0\n", "2 3\n1 0 1\n0 0 1 1\n",
    "2 3\n1 0 2\n0 0 1\n", "2 3\n1 01\n0 0 1 1\n",
    "-1 -2\n0 0\n", "-1 0\n", "0 -2\n", "-2 2\n", "2 -2\n1 1 1 1\n",
    "1 2\n1 -1\n", "1 2\n0 x\n", "1 2\n1 0 1\n", "2 0\n1\n",
    "1 2\n1 0\x00\n", "1 2\n0 2 x 1\n",
    "1 2\n1 111 ",  # entries at every even byte, but a token of three
]


def test_reader_rejects_what_the_whole_text_reader_rejects(monkeypatch):
    for text in BAD_TEXTS:
        assert outcome(read_text_matrix, text.encode())[0] == "error", text
        assert_reads_like_the_oracle(monkeypatch, text.encode())


def ascii_error(byte, position):
    return (
        "error",
        f"'ascii' codec can't decode byte 0x{byte:02x} in position {position}:"
        " ordinal not in range(128)",
    )


# files with a byte outside ASCII: the first such byte and its offset
NON_ASCII = [
    ("2\u00a03\u20031\u30000\u20281\u00850\u20290\u205f1\u1680".encode(), 0xC2, 1),  # Unicode whitespace
    ("\uff12 \u0663\n1 0 1\n0 0 1\n".encode(), 0xEF, 0),  # non-ASCII digits
    ("2 3\n1 0 1\n0 0 \u00e9\n".encode(), 0xC3, 14),
    ("1 3\n1 \uff11 0\n".encode(), 0xEF, 6),
    ("2 3\n1 0 1\n0 0 1\ufeff\n".encode(), 0xEF, 15),  # a byte order mark at the end
    ("\ufeff2 3\n1 0 1\n0 0 1\n".encode(), 0xEF, 0),  # and at the start
    (b"2 3\n1 0 1\n0 0 \xff\n", 0xFF, 14),  # an invalid UTF-8 start byte
    (b"2 3\n1 0 1\n0 0 1\n\xe2\x80", 0xE2, 16),  # a character cut off at the end
    (b"2 3\n1 0 1\n\xe2\x80\x41 0 1\n", 0xE2, 10),  # an invalid continuation byte
    (b"x 3\n1 0 1\n0 0 1\n\xc3", 0xC3, 16),  # a bad header before it
    (b"2 3\n1 0 2\n0 0 1\xed\xa0\x80\n", 0xED, 15),  # a bad entry before it
    (b"\xf0\x9f\x98\x80 3", 0xF0, 0),  # a four-byte character as the header
    (b"2 3\n1 0 1\n0 0 1\n" + b"\xc3\xa9" * 3 + b"\x80", 0xC3, 16),
    (b"1 2\n1 0\n" + b"\x80" * 5, 0x80, 8),  # trailing bytes past a good matrix
]


def test_reader_rejects_bytes_that_are_not_utf8_as_read_text_does(monkeypatch):
    # every byte outside ASCII is the file's error, before any other, with
    # the line read_text(encoding="ascii") raises; small chunks put it in a
    # later chunk than the first
    for data, byte, position in NON_ASCII:
        want = ascii_error(byte, position)
        assert outcome(read_text_matrix, data) == want  # UnicodeDecodeError is a ValueError
        for size in CHUNKS:
            monkeypatch.setattr(gf2, "_CHUNK_BYTES", size)
            assert outcome(file_matrix, data) == want, (size, data)
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError:
                continue
            assert outcome(read_matrix_text, text) == want, (size, data)


def test_reader_matches_the_whole_text_reader_on_corrupted_files(monkeypatch):
    rng = random.Random(67)
    chars = ["0", "1", " ", "\n", "\t", "\r", "2", "-", "x", "\x0b", "+", "_", "\x00"]
    cases = 0
    for _ in range(300):
        n_rows, n_cols = rng.randrange(4), rng.randrange(5)
        m = BitMatrix(n_rows, n_cols, [rng.getrandbits(n_cols) for _ in range(n_rows)])
        text = oracle_write_matrix_text(m)
        for _ in range(rng.randrange(1, 4)):
            at = rng.randrange(len(text) + 1)
            if rng.random() < 0.5:
                text = text[:at] + rng.choice(chars) + text[at:]
            else:
                text = text[:at] + text[at + 1 :]
        data = text.encode()
        if rng.random() < 0.2:
            at = rng.randrange(len(data) + 1)
            data = data[:at] + bytes([rng.randrange(128, 256)]) + data[at:]
        want = outcome(read_text_matrix, data)
        for size in (1, 2, 3, 7):
            monkeypatch.setattr(gf2, "_CHUNK_BYTES", size)
            assert outcome(file_matrix, data) == want, (size, data)
        cases += want[0] == "error"
    assert 100 < cases < 300


def test_a_row_and_a_token_cross_the_real_chunk_boundary():
    chunk = gf2._CHUNK_BYTES
    n_cols = 1001  # a row is 2002 bytes, so rows straddle every boundary
    rng = random.Random(71)
    m = sparse_matrix(rng, chunk // 2002 + 50, n_cols, 5)
    text = oracle_write_matrix_text(m)
    assert file_matrix(text.encode()) == m == read_matrix_text(text)
    for shift in (b"", b" "):  # a leading space moves every entry across the boundary
        data = shift + text.encode()
        if data[chunk - 1] in b"01":
            # the last byte of the first chunk is an entry: join it to the next
            # one, and add one entry at the end to keep the entry count
            bad = data[:chunk] + data[chunk + 1 :] + b"0\n"
            want = outcome(read_text_matrix, bad)
            assert want[0] == "error" and want[1].endswith(("'00'", "'01'", "'10'", "'11'"))
            assert outcome(file_matrix, bad) == want
        else:
            # the space there becomes a three-byte space that the boundary cuts
            spaced = data[: chunk - 1] + "\u3000".encode() + data[chunk:]
            want = ascii_error(0xE3, chunk - 1)
            assert outcome(file_matrix, spaced) == outcome(read_text_matrix, spaced) == want
            # and a byte past the end of the first chunk is found there
            late = data + b"\x80"
            want = ascii_error(0x80, len(data))
            assert outcome(file_matrix, late) == outcome(read_text_matrix, late) == want


# ---------------------------------------------------------------------------
# The alist format against the reader that built one N-bit row per check


def oracle_read_alist(text):
    tokens = [int(t) for t in text.split()]
    if len(tokens) < 4:
        raise ValueError("truncated alist")
    n, mm, max_col, max_row = tokens[:4]
    if min(n, mm, max_col, max_row) < 0:
        raise ValueError("alist header values must be non-negative")
    expected = 4 + n + mm + n * max_col + mm * max_row
    if len(tokens) < expected:
        raise ValueError(f"truncated alist: expected {expected} entries, found {len(tokens)}")
    if len(tokens) > expected:
        raise ValueError(f"alist has {len(tokens) - expected} entries past its header's count")
    it = iter(tokens[4:])
    col_deg = [next(it) for _ in range(n)]
    row_deg = [next(it) for _ in range(mm)]
    rows = [0] * mm
    for j in range(n):
        entries = [next(it) for _ in range(max_col)]
        seen = 0
        for v in entries:
            if v == 0:
                continue
            if not 0 < v <= mm:
                raise ValueError(f"column {j} lists check {v}, outside 1..{mm}")
            rows[v - 1] |= 1 << j
            seen += 1
        if seen != col_deg[j]:
            raise ValueError(f"column {j} degree mismatch")
    for i in range(mm):
        entries = [next(it) for _ in range(max_row)]
        sup = {v - 1 for v in entries if v != 0}
        if len(sup) != row_deg[i]:
            raise ValueError(f"row {i} degree mismatch")
        expect = set(BitVector(n, rows[i]).support())
        if sup != expect:
            raise ValueError(f"row {i} support inconsistent with column lists")
    return BitMatrix(mm, n, rows)


def alist_matrices():
    """Seeded matrices with empty rows and columns, and 0 x n and n x 0 ones."""
    rng = random.Random(73)
    cases = [BitMatrix(0, 0), BitMatrix(0, 5), BitMatrix(4, 0), BitMatrix(3, 6)]
    for _ in range(60):
        n_rows, n_cols = rng.randrange(1, 9), rng.randrange(1, 12)
        density = rng.choice((0.1, 0.3, 0.6))
        rows = [sum(1 << j for j in range(n_cols) if rng.random() < density)
                for _ in range(n_rows)]
        cases.append(BitMatrix(n_rows, n_cols, rows))
    return cases


def column_lists_a_check_twice(text):
    """Whether some column list of the alist text names one check twice."""
    tokens = [int(t) for t in text.split()]
    n, mm, max_col = tokens[:3]
    lists = tokens[4 + n + mm :]
    for j in range(n):
        checks = [v for v in lists[j * max_col : (j + 1) * max_col] if v]
        if len(set(checks)) < len(checks):
            return True
    return False


def test_alist_reader_matches_the_row_building_reader():
    for m in alist_matrices():
        text = write_alist(m)
        assert outcome(read_alist, text) == outcome(oracle_read_alist, text) == ("ok", m)
        n_cols, supports = read_alist_supports(text)
        assert (n_cols, supports) == (m.n_cols, [naive_set_bits(r) for r in m.rows])


def test_alist_reader_rejects_what_the_row_building_reader_rejects():
    rng = random.Random(79)
    values = ["0", "1", "2", "3", "-1", "9", "x"]
    errors = twice = 0
    for m in alist_matrices():
        tokens = write_alist(m).split()
        for _ in range(20):
            bad = list(tokens)
            for _ in range(rng.randrange(1, 3)):
                at = rng.randrange(len(bad) + 1)
                kind = rng.randrange(3)
                if kind == 0 and at < len(bad):
                    bad[at] = rng.choice(values + bad)
                elif kind == 1:
                    bad.insert(at, rng.choice(values))
                else:
                    del bad[at - 1 : at]
            text = " ".join(bad) + "\n"
            got, want = outcome(read_alist, text), outcome(oracle_read_alist, text)
            if got[0] == "error" and got[1].endswith(" twice"):
                assert column_lists_a_check_twice(text), text
                twice += 1
            else:
                assert got == want, text
            errors += got[0] == "error"
    assert errors > 500 and twice > 0


def test_alist_column_listing_a_check_twice_is_an_error():
    # column 0 declares degree 2 but lists check 1 twice: one edge
    text = "2 1\n2 2\n2 0\n1\n1 1\n0 0\n1 0\n"
    assert oracle_read_alist(text) == BitMatrix(1, 2, [0b01])
    for read in (read_alist, read_alist_supports):
        with pytest.raises(ValueError, match="^column 0 lists check 1 twice$"):
            read(text)


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
