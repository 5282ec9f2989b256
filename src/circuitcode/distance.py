"""Circuit code distance and CSS code distance by weight enumeration.

The search drops the columns no lightest error uses, then walks error
supports by increasing weight, lexicographically within a weight class,
joining prefixes with a table of completions keyed by B-syndrome (meet in
the middle). The first hit is therefore a deterministic witness: the
lex-first support of least weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .css import derive_logicals
from .gf2 import BitMatrix, BitVector


@dataclass
class DistanceResult:
    value: int | None  # exact distance, None when only a bound is known
    witness: BitVector | None
    max_weight: int  # every weight up to this one was searched
    enumerated: int  # prefixes visited plus table entries built

    @property
    def exact(self) -> bool:
        return self.value is not None

    @property
    def lower_bound(self) -> int:
        """Smallest weight not excluded by the search."""
        return self.value if self.value is not None else self.max_weight + 1

    def __str__(self) -> str:
        if self.exact:
            return f"{self.value}"
        return f">{self.max_weight}"


# the most subsets one meet-in-the-middle table may hold; a search that would
# need a larger table stops with the weights below as its lower bound
TABLE_LIMIT = 1 << 20


def _reduce_columns(b_cols: list[int], l_cols: list[int]) -> list[int]:
    """Columns a lightest, lex-first witness can use: the lowest index of each
    set of equal nonzero (B, L) columns.

    A lightest error has no zero column and no two equal ones, and swapping a
    column for a lower equal one gives a lex-smaller support.
    """
    seen = set()
    keep = []
    for j, col in enumerate(zip(b_cols, l_cols)):
        if col != (0, 0) and col not in seen:
            seen.add(col)
            keep.append(j)
    return keep


def _table(b_cols: list[int], l_cols: list[int], k: int) -> dict[int, list]:
    """The k-subsets by B-syndrome, each a list of (L-syndrome, subset) in
    lex order."""
    table: dict[int, list] = {}
    for subset in combinations(range(len(b_cols)), k):
        syn_b = syn_l = 0
        for i in subset:
            syn_b ^= b_cols[i]
            syn_l ^= l_cols[i]
        table.setdefault(syn_b, []).append((syn_l, subset))
    return table


def _stream(b_cols, l_cols, p, table, budget):
    """Join the first `budget` p-prefixes, in lex order, with the table.

    A hit is a completion with the prefix's B-syndrome and another
    L-syndrome. Every lighter weight has been searched, so the first hit's
    completion starts past the prefix's last index: a completion sharing an
    index with the prefix would leave a lighter logical error, and a disjoint
    one starting lower would have been hit from an earlier prefix. Returns
    (the first hit's support or None, prefixes visited).

    The prefixes are walked as rows: a (p - 1)-head with each later column.
    A row whose B-syndromes all miss the table is counted in one step; a row
    with a table hit is visited column by column.
    """
    m = len(b_cols)
    left = comb(m, p) if budget is None else budget
    keys = table.keys()
    visited = 0
    for head in combinations(range(m - 1), p - 1):
        if visited == left:
            break
        start = head[-1] + 1 if head else 0
        head_b = head_l = 0
        for i in head:
            head_b ^= b_cols[i]
            head_l ^= l_cols[i]
        row = [head_b ^ col for col in b_cols[start : start + left - visited]]
        if keys.isdisjoint(row):
            visited += len(row)
            continue
        for j, syn_b in enumerate(row, start):
            visited += 1
            entries = table.get(syn_b)
            if entries:
                syn_l = head_l ^ l_cols[j]
                for other_l, subset in entries:
                    if other_l != syn_l:
                        return head + (j,) + subset, visited
    return None, visited


def _search(
    b_cols: list[int],
    l_cols: list[int],
    max_weight: int,
) -> tuple[tuple[int, ...] | None, int, int]:
    """First support (by weight, then lex) with zero B-syndrome and nonzero
    L-syndrome, by meet in the middle.

    Weight w joins (w - k)-prefixes with a table of k-subsets. The table
    starts at k = 0 and grows only when it pays: once a stream has visited
    more prefixes than the (k + 1)-table would hold, that table is built and
    the weight restarts with shorter prefixes. A table over TABLE_LIMIT ends
    the search. Returns (support or None, the weight searched through,
    prefixes visited plus table entries built).
    """
    m = len(b_cols)
    k, table = 0, {0: [(0, ())]}
    count = 0
    for w in range(1, min(max_weight, m) + 1):
        while True:
            budget = comb(m, k + 1) if k < w // 2 else None
            found, visited = _stream(b_cols, l_cols, w - k, table, budget)
            count += visited
            if found is not None:
                return found, w, count
            if visited == comb(m, w - k):  # the stream ran to its end
                break
            if budget > TABLE_LIMIT:
                return None, w - 1, count
            k += 1
            table = _table(b_cols, l_cols, k)
            count += budget
    return None, max_weight, count


def circuit_distance(
    b: BitMatrix,
    l: BitMatrix,
    max_weight: int = 6,
) -> DistanceResult:
    """Minimum weight of an undetected logical error: e in ker B, L e != 0.

    Exact when a witness of weight <= max_weight exists; otherwise the result
    carries as a lower bound the cap, or the last weight searched when the
    next table would exceed TABLE_LIMIT. The search runs on the columns of
    B and L; see ``column_distance``.
    """
    if b.n_cols != l.n_cols:
        raise ValueError("B and L must share the error space")
    return column_distance(b.transpose().rows, l.transpose().rows, max_weight)


def column_distance(
    b_cols: list[int], l_cols: list[int], max_weight: int = 6
) -> DistanceResult:
    """``circuit_distance`` of the B and L whose column j, a mask over their
    rows, is ``b_cols[j]`` and ``l_cols[j]``: the search and the witness
    check read the columns only."""
    if len(b_cols) != len(l_cols):
        raise ValueError("B and L must share the error space")
    n = len(b_cols)
    max_weight = min(max_weight, n)
    if not any(l_cols):
        return DistanceResult(None, None, max_weight, 0)
    keep = _reduce_columns(b_cols, l_cols)
    support, searched, count = _search(
        [b_cols[j] for j in keep], [l_cols[j] for j in keep], max_weight
    )
    if support is None:
        return DistanceResult(None, None, searched, count)
    witness = [keep[i] for i in support]
    syn_b = syn_l = 0
    for j in witness:
        syn_b ^= b_cols[j]
        syn_l ^= l_cols[j]
    if syn_b:
        raise AssertionError("witness fails the B checks")
    if not syn_l:
        raise AssertionError("witness is not a logical error")
    return DistanceResult(len(witness), BitVector.from_indices(n, witness), max_weight, count)


def css_distance(
    g_x: BitMatrix, g_z: BitMatrix, max_weight: int = 6
) -> tuple[DistanceResult, DistanceResult, DistanceResult]:
    """(d_x, d_z, d_css) for a CSS pair with G_X G_Z^T = 0.

    d_x is the minimum weight in ker G_X outside rowsp(G_Z) (errors caught by
    X checks), d_z the mirror image, d_css their minimum.
    """
    if g_x.n_cols != g_z.n_cols:
        raise ValueError("check matrices must share the qubit count")
    if not g_x.matmul(g_z.transpose()).is_zero():
        raise ValueError("G_X G_Z^T must vanish")
    n = g_x.n_cols
    # logical test: outside rowsp(G_Z) within ker G_X means some J_X row
    # pairing is nonzero; kernel completions provide the dual tests
    code = derive_logicals(g_x, g_z)
    d_x = circuit_distance(g_x, code.j_x, max_weight)
    d_z = circuit_distance(g_z, code.j_z, max_weight)
    if not d_x.exact or not d_z.exact:
        if d_x.exact and d_x.value <= d_z.lower_bound:
            return d_x, d_z, d_x
        if d_z.exact and d_z.value <= d_x.lower_bound:
            return d_x, d_z, d_z
        cap = min(d_x.lower_bound, d_z.lower_bound) - 1
        return d_x, d_z, DistanceResult(None, None, cap, 0)
    best = d_x if d_x.value <= d_z.value else d_z
    return d_x, d_z, best


def half_distance_bound(d: int) -> int:
    """Reported lower bound on single-qubit errors causing a logical fault."""
    return (d + 1) // 2
