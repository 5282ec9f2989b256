"""Dense GF(2) linear algebra on bit-packed rows.

Rows are stored as Python integers, bit ``j`` of a row is column ``j``.
That keeps row operations (xor, popcount) word-level and makes the
weight-ordered enumeration used by the distance search cheap.
"""

from __future__ import annotations

from itertools import chain
from typing import BinaryIO, Iterable, Iterator, Sequence


def _set_bits(r: int) -> list[int]:
    """The set bit positions of r, ascending; every set-bit walk of this module is this one."""
    out = []
    while r:
        low = r & -r
        out.append(low.bit_length() - 1)
        r ^= low
    return out


class BitVector:
    """A fixed-length vector over GF(2), packed into one integer."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int = 0):
        if n < 0:
            raise ValueError("length must be non-negative")
        self.n = n
        self.bits = bits & ((1 << n) - 1) if n else 0

    @classmethod
    def from_bits(cls, values: Iterable[int]) -> "BitVector":
        bits = 0
        n = 0
        for v in values:
            if v & 1:
                bits |= 1 << n
            n += 1
        return cls(n, bits)

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "BitVector":
        bits = 0
        for j in indices:
            if not 0 <= j < n:
                raise IndexError(f"bit index {j} out of range for length {n}")
            bits |= 1 << j
        return cls(n, bits)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, j: int) -> int:
        if not 0 <= j < self.n:
            raise IndexError(j)
        return (self.bits >> j) & 1

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.n != other.n:
            raise ValueError("length mismatch")
        return BitVector(self.n, self.bits ^ other.bits)

    def __eq__(self, other) -> bool:
        return isinstance(other, BitVector) and self.n == other.n and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        return f"BitVector({self.to01()!r})"

    def to01(self) -> str:
        return "".join(str((self.bits >> j) & 1) for j in range(self.n))

    def weight(self) -> int:
        return self.bits.bit_count()

    def dot(self, other: "BitVector") -> int:
        if self.n != other.n:
            raise ValueError("length mismatch")
        return (self.bits & other.bits).bit_count() & 1

    def support(self) -> list[int]:
        return _set_bits(self.bits)

    def is_zero(self) -> bool:
        return self.bits == 0


class BitMatrix:
    """A dense GF(2) matrix with bit-packed rows; shape fixed at construction."""

    __slots__ = ("n_rows", "n_cols", "rows")

    def __init__(self, n_rows: int, n_cols: int, rows: Sequence[int] | None = None):
        if n_rows < 0 or n_cols < 0:
            raise ValueError("shape must be non-negative")
        self.n_rows = n_rows
        self.n_cols = n_cols
        mask = (1 << n_cols) - 1 if n_cols else 0
        if rows is None:
            self.rows = [0] * n_rows
        else:
            if len(rows) != n_rows:
                raise ValueError("row count mismatch")
            self.rows = [r & mask for r in rows]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], n_cols: int | None = None) -> "BitMatrix":
        rows = list(rows)
        if n_cols is None:
            n_cols = len(rows[0]) if rows else 0
        packed = []
        for row in rows:
            if len(row) != n_cols:
                raise ValueError("ragged rows")
            bits = 0
            for j, v in enumerate(row):
                if v & 1:
                    bits |= 1 << j
            packed.append(bits)
        return cls(len(packed), n_cols, packed)

    @classmethod
    def from_vectors(cls, vecs: Sequence[BitVector], n_cols: int | None = None) -> "BitMatrix":
        vecs = list(vecs)
        if n_cols is None:
            if not vecs:
                raise ValueError("cannot infer column count from an empty vector list")
            n_cols = vecs[0].n
        for v in vecs:
            if v.n != n_cols:
                raise ValueError("length mismatch")
        return cls(len(vecs), n_cols, [v.bits for v in vecs])

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, [1 << i for i in range(n)])

    def row(self, i: int) -> BitVector:
        return BitVector(self.n_cols, self.rows[i])

    def row_vectors(self) -> Iterator[BitVector]:
        for r in self.rows:
            yield BitVector(self.n_cols, r)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.n_rows == other.n_rows
            and self.n_cols == other.n_cols
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return f"BitMatrix({self.n_rows}x{self.n_cols})"

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.rows)

    def transpose(self) -> "BitMatrix":
        out = [0] * self.n_cols
        for i, r in enumerate(self.rows):
            for j in _set_bits(r):
                out[j] |= 1 << i
        return BitMatrix(self.n_cols, self.n_rows, out)

    def mul_vec(self, v: BitVector) -> BitVector:
        """Matrix-vector product ``A v^T`` as a vector over the rows."""
        if v.n != self.n_cols:
            raise ValueError("length mismatch")
        bits = 0
        for i, r in enumerate(self.rows):
            if (r & v.bits).bit_count() & 1:
                bits |= 1 << i
        return BitVector(self.n_rows, bits)

    def matmul(self, other: "BitMatrix") -> "BitMatrix":
        if self.n_cols != other.n_rows:
            raise ValueError("shape mismatch")
        out = []
        for r in self.rows:
            acc = 0
            for k in _set_bits(r):
                acc ^= other.rows[k]
            out.append(acc)
        return BitMatrix(self.n_rows, other.n_cols, out)

    def stack(self, *others: "BitMatrix") -> "BitMatrix":
        rows = list(self.rows)
        for m in others:
            if m.n_cols != self.n_cols:
                raise ValueError("column count mismatch")
            rows.extend(m.rows)
        return BitMatrix(len(rows), self.n_cols, rows)

    def _echelon(self) -> "_Echelon":
        ech = _Echelon()
        for r in self.rows:
            ech.add(r)
        return ech

    def rref(self) -> "BitMatrix":
        work, _ = self._echelon().rref()
        return BitMatrix(len(work), self.n_cols, work)

    def rank(self) -> int:
        return len(self._echelon().rows)

    def kernel_basis(self) -> "BitMatrix":
        """Rows form an rref basis of ``{v : A v^T = 0}``."""
        work, pivots = self._echelon().rref()
        pivot_set = set(pivots)
        # one vector per free column j: e_j plus e_col for each pivot row
        # (pivot column col) that has bit j
        basis = {j: 1 << j for j in range(self.n_cols) if j not in pivot_set}
        free_mask = sum(basis.values())
        for p, col in zip(work, pivots):
            for j in _set_bits(p & free_mask):
                basis[j] |= 1 << col
        return BitMatrix(len(basis), self.n_cols, list(basis.values())).rref()

    def row_space_member(self, v: BitVector) -> bool:
        if v.n != self.n_cols:
            raise ValueError("length mismatch")
        return self._echelon().reduce(v.bits) == 0

    def inverse(self) -> "BitMatrix":
        if self.n_rows != self.n_cols:
            raise ValueError("only square matrices invert")
        n = self.n_rows
        work, pivots = block([[self, BitMatrix.identity(n)]])._echelon().rref()
        if pivots[:n] != list(range(n)) or len(pivots) < n:
            raise ValueError("matrix is singular")
        mask = (1 << n) - 1
        return BitMatrix(n, n, [(r >> n) & mask for r in work[:n]])

    def solve(self, rhs: BitVector) -> BitVector | None:
        """One solution ``x`` of ``A x^T = rhs^T``, or None if inconsistent.

        The free variables of the solution are zero.
        """
        if rhs.n != self.n_rows:
            raise ValueError("length mismatch")
        # Augment each row with its rhs bit one position past the columns;
        # the system is inconsistent iff that column becomes a pivot.
        n = self.n_cols
        aug_bit = 1 << n
        aug = BitMatrix(
            self.n_rows,
            n + 1,
            [r | aug_bit if (rhs.bits >> i) & 1 else r for i, r in enumerate(self.rows)],
        )
        work, pivots = aug._echelon().rref()
        if pivots and pivots[-1] == n:
            return None
        x = 0
        for p, col in zip(work, pivots):
            if p & aug_bit:
                x |= 1 << col
        return BitVector(n, x)


class _Echelon:
    """Rows in echelon form in a pivot dictionary keyed by lowest set bit.

    ``rows[c]`` is the row whose lowest set bit is column ``c``; ``mask`` has
    one bit per pivot column. A row is reduced with ``x = r & mask``: XOR in
    the pivot row of x's lowest bit until x is 0. Each row is stored reduced
    only against the pivots that were there before it, so adding a row costs
    no back-substitution; ``rref`` does that once, at the end.
    """

    __slots__ = ("rows", "mask")

    def __init__(self):
        self.rows: dict[int, int] = {}
        self.mask = 0

    def reduce(self, r: int) -> int:
        """r minus its component in the span; 0 iff r lies in the span."""
        rows, mask = self.rows, self.mask
        x = r & mask
        while x:
            r ^= rows[(x & -x).bit_length() - 1]
            x = r & mask
        return r

    def add(self, r: int) -> bool:
        """Extend the span by r; False (and no change) if r already lies in it."""
        r = self.reduce(r)
        if not r:
            return False
        low = r & -r
        self.rows[low.bit_length() - 1] = r
        self.mask |= low
        return True

    def rref(self) -> tuple[list[int], list[int]]:
        """Back-substitute in descending pivot order: (rows, pivots) ascending."""
        pivots = sorted(self.rows)
        done: dict[int, int] = {}
        above = 0
        for c in reversed(pivots):
            r = self.rows[c]
            # rows in done have no pivot bit but their own, so one pass
            # over r's bits in later pivot columns clears them all
            for j in _set_bits(r & above):
                r ^= done[j]
            done[c] = r
            above |= 1 << c
        return [done[c] for c in pivots], pivots


def kron(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Kronecker product; column (j1, j2) maps to j1 * b.n_cols + j2."""
    rows = []
    for ra in a.rows:
        for rb in b.rows:
            bits = 0
            for j1 in _set_bits(ra):
                bits |= rb << (j1 * b.n_cols)
            rows.append(bits)
    return BitMatrix(a.n_rows * b.n_rows, a.n_cols * b.n_cols, rows)


def block(grid: Sequence[Sequence[BitMatrix | None]]) -> BitMatrix:
    """The block matrix whose block rows are the rows of grid.

    ``None`` is a zero block: its height is that of the other blocks in its
    block row and its width that of the other blocks in its block column.
    """
    if not grid or any(len(row) != len(grid[0]) for row in grid):
        raise ValueError("a block grid must be a non-empty rectangle")
    heights = [_extent(row, "n_rows") for row in grid]
    widths = [_extent(col, "n_cols") for col in zip(*grid)]
    rows = []
    for blocks, height in zip(grid, heights):
        out, shift = [0] * height, 0
        for m, width in zip(blocks, widths):
            for i, r in enumerate(m.rows if m is not None else ()):
                out[i] |= r << shift
            shift += width
        rows += out
    return BitMatrix(len(rows), sum(widths), rows)


def _extent(blocks: Sequence[BitMatrix | None], shape: str) -> int:
    """The one n_rows of a block row, or n_cols of a block column."""
    sizes = {getattr(m, shape) for m in blocks if m is not None}
    if len(sizes) != 1:
        raise ValueError(f"a block row or column needs one {shape}, found {sorted(sizes)}")
    return sizes.pop()


def extend_span(base: BitMatrix, candidates: BitMatrix) -> BitMatrix:
    """The rows of candidates that extend rowsp(base), chosen greedily in order.

    A row is kept iff it lies outside the span of base and the rows kept
    before it, so base and the result together span rowsp(base) +
    rowsp(candidates) and the result's rows are independent.
    """
    if base.n_cols != candidates.n_cols:
        raise ValueError("column count mismatch")
    ech = base._echelon()
    kept = [r for r in candidates.rows if ech.add(r)]
    return BitMatrix(len(kept), candidates.n_cols, kept)


# ---------------------------------------------------------------------------
# Text and alist formats


# bytes read from a dense text file at a time
_CHUNK_BYTES = 1 << 20
# the whitespace of bytes.split()
_SPACE = b" \t\n\r\x0b\x0c"


def matrix_text_lines(n_cols: int, supports: Sequence[Iterable[int]]) -> Iterator[bytes]:
    """The dense text form of the matrix with these row supports, a line at a time.

    A ``<rows> <cols>`` header, then one line of space-separated 0/1 entries
    per row: a copy of the all-zero line with the support's entries set.
    """
    yield f"{len(supports)} {n_cols}\n".encode()
    zeros = b"0 " * (n_cols - 1) + b"0\n" if n_cols else b"\n"
    for support in supports:
        line = bytearray(zeros)
        for j in support:
            line[2 * j] = 49  # ord("1")
        yield line


def write_matrix_text(m: BitMatrix) -> str:
    lines = matrix_text_lines(m.n_cols, [_set_bits(r) for r in m.rows])
    return b"".join(lines).decode()


def read_matrix_supports(f: BinaryIO) -> tuple[int, list[Sequence[int]]]:
    """(column count, row supports) of the dense text matrix in binary file f.

    The file is read in chunks of ASCII bytes; tokens are separated by ASCII
    whitespace. A byte outside ASCII is the file's error, raised before any
    other with the line ``read_text(encoding="ascii")`` gives.
    """
    chunks = iter(lambda: f.read(_CHUNK_BYTES), b"")
    return _parse_matrix_text(_token_pieces(_ascii_chunks(chunks)))


def read_matrix_text(text: str) -> BitMatrix:
    """The dense text matrix whose file holds the UTF-8 encoding of text."""
    chunks = (text[i : i + _CHUNK_BYTES].encode() for i in range(0, len(text), _CHUNK_BYTES))
    n_cols, supports = _parse_matrix_text(_token_pieces(_ascii_chunks(chunks)))
    return _from_supports(n_cols, supports)


def _from_supports(n_cols: int, supports: Sequence[Iterable[int]]) -> BitMatrix:
    return BitMatrix(len(supports), n_cols, [sum(1 << j for j in s) for s in supports])


def _ascii_chunks(chunks: Iterable[bytes]) -> Iterator[bytes]:
    """The chunks of a file; the first byte outside ASCII ends them in the
    error ``read_text(encoding="ascii")`` raises, its position counted from
    the start of the file."""
    offset = 0
    for chunk in chunks:
        if not chunk.isascii():
            at = next(i for i, b in enumerate(chunk) if b > 127)
            raise ValueError(
                f"'ascii' codec can't decode byte 0x{chunk[at]:02x} in position"
                f" {offset + at}: ordinal not in range(128)"
            )
        yield chunk
        offset += len(chunk)


def _token_pieces(chunks: Iterable[bytes]) -> Iterator[bytes]:
    """The bytes of chunks in pieces that each end between two tokens: a
    token cut by a chunk's end goes on into the next piece."""
    tail = b""
    for chunk in chunks:
        data = tail + chunk
        tail = data.rsplit(None, 1)[-1] if not data[-1:].isspace() else b""
        if len(data) > len(tail):
            yield data[: len(data) - len(tail)]
    if tail:
        yield tail


def _parse_matrix_text(pieces: Iterable[bytes]) -> tuple[int, list[Sequence[int]]]:
    """(column count, row supports) of the matrix text in pieces that end
    between tokens. Errors, in order: a header with fewer than two tokens or a
    non-integer one, then the entry count, then the first entry that is not 0
    or 1, then a negative shape; each is raised after every piece is read."""
    pieces = iter(pieces)
    head: list[bytes] = []
    rest = b""
    for data in pieces:
        words = data.split(None, 2 - len(head))
        if len(words) > 2 - len(head):
            rest = words.pop()
        head += words
        if len(head) == 2:
            break
    try:
        if len(head) < 2:
            raise ValueError("matrix text needs a '<rows> <cols>' header")
        # decoded, so that int()'s message quotes a bad token as text
        n_rows, n_cols = int(head[0].decode()), int(head[1].decode())
    except ValueError:
        for _ in pieces:  # a byte outside ASCII further on is the file's error
            pass
        raise
    rows: list[Sequence[int]] = []
    found = 0
    bad = None
    left = b""  # the entries of the row in progress
    for data in chain([rest], pieces):
        entries = _one_byte_entries(data)
        if entries is not None:
            found += len(entries)
        else:
            tokens = data.split()
            found += len(tokens)
            bad = bad or next((t for t in tokens if t not in (b"0", b"1")), None)
            entries = b"".join(tokens)
        if bad is not None or n_cols <= 0 or len(rows) == n_rows:
            continue
        left += entries
        start = 0
        while start + n_cols <= len(left) and len(rows) < n_rows:
            end = start + n_cols
            support = []
            j = left.find(b"1", start, end)
            while j >= 0:
                support.append(j - start)
                j = left.find(b"1", j + 1, end)
            rows.append(support)
            start = end
        left = left[start:]
    if found != n_rows * n_cols:
        raise ValueError(f"expected {n_rows * n_cols} entries, found {found}")
    if bad is not None:
        raise ValueError(f"matrix entries must be 0 or 1, found {bad.decode()!r}")
    if n_rows < 0 or n_cols < 0:
        raise ValueError("shape must be non-negative")
    return n_cols, rows if n_cols else [()] * n_rows


def _one_byte_entries(data: bytes) -> bytes | None:
    """The entries of a piece that alternates a 0/1 entry and one whitespace
    byte, as written; None for any other piece, which bytes.split() reads."""
    if not data or len(data) % 2 or data[1::2].translate(None, _SPACE):
        return None
    entries = data[0::2]
    return None if entries.translate(None, b"01") else entries


def write_alist(m: BitMatrix) -> str:
    return alist_text(m.n_cols, [_set_bits(r) for r in m.rows])


def alist_text(n_cols: int, supports: Sequence[Sequence[int]]) -> str:
    """Sparse alist format of the matrix with these ascending row supports;
    columns are variable nodes, rows are checks."""
    col_supports = [[] for _ in range(n_cols)]
    for i, sup in enumerate(supports):
        for j in sup:
            col_supports[j].append(i)
    max_col = max((len(s) for s in col_supports), default=0)
    max_row = max((len(s) for s in supports), default=0)
    lines = [f"{n_cols} {len(supports)}", f"{max_col} {max_row}"]
    lines.append(" ".join(str(len(s)) for s in col_supports))
    lines.append(" ".join(str(len(s)) for s in supports))
    for s in col_supports:
        padded = [i + 1 for i in s] + [0] * (max_col - len(s))
        lines.append(" ".join(str(v) for v in padded))
    for s in supports:
        padded = [j + 1 for j in s] + [0] * (max_row - len(s))
        lines.append(" ".join(str(v) for v in padded))
    return "\n".join(lines) + "\n"


def read_alist(text: str) -> BitMatrix:
    return _from_supports(*read_alist_supports(text))


def read_alist_supports(text: str) -> tuple[int, list[list[int]]]:
    """(column count, ascending row supports) of the alist matrix text: the
    column lists build the supports, and each row list must match its own."""
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
    col_deg = tokens[4 : 4 + n]
    row_deg = tokens[4 + n : 4 + n + mm]
    at = 4 + n + mm
    supports: list[list[int]] = [[] for _ in range(mm)]
    for j in range(n):
        seen = 0
        for v in tokens[at : at + max_col]:
            if v == 0:
                continue
            if not 0 < v <= mm:
                raise ValueError(f"column {j} lists check {v}, outside 1..{mm}")
            support = supports[v - 1]
            if support and support[-1] == j:
                raise ValueError(f"column {j} lists check {v} twice")
            support.append(j)
            seen += 1
        if seen != col_deg[j]:
            raise ValueError(f"column {j} degree mismatch")
        at += max_col
    for i in range(mm):
        listed = {v - 1 for v in tokens[at : at + max_row] if v != 0}
        if len(listed) != row_deg[i]:
            raise ValueError(f"row {i} degree mismatch")
        if listed != set(supports[i]):
            raise ValueError(f"row {i} support inconsistent with column lists")
        at += max_row
    return n, supports
