"""Circuit code distance and CSS code distance by weight enumeration.

The search walks error supports by increasing weight, lexicographically
within a weight class, and tests syndromes incrementally with bit-packed
column masks. The first hit is therefore a deterministic witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2 import BitMatrix, BitVector


@dataclass
class DistanceResult:
    value: int | None  # exact distance, None when only a bound is known
    witness: BitVector | None
    max_weight: int
    enumerated: int

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


def _search(
    b_cols: list[int],
    l_cols: list[int],
    n: int,
    max_weight: int,
) -> tuple[tuple[int, ...] | None, int]:
    """First support (by weight, then lex) with zero B-syndrome and nonzero
    L-syndrome; returns (support, enumerated count)."""
    count = 0
    for w in range(1, max_weight + 1):
        for first in range(n - w + 1):
            found, c = _extend(
                b_cols, l_cols, n, w - 1, first + 1,
                b_cols[first], l_cols[first], (first,),
            )
            count += c
            if found is not None:
                return found, count
    return None, count


def _extend(b_cols, l_cols, n, remaining, start, syn_b, syn_l, support):
    count = 1
    if remaining == 0:
        if syn_b == 0 and syn_l != 0:
            return support, count
        return None, count
    for j in range(start, n - remaining + 1):
        found, c = _extend(
            b_cols, l_cols, n, remaining - 1, j + 1,
            syn_b ^ b_cols[j], syn_l ^ l_cols[j], support + (j,),
        )
        count += c
        if found is not None:
            return found, count
    return None, count


def circuit_distance(
    b: BitMatrix,
    l: BitMatrix,
    max_weight: int = 6,
) -> DistanceResult:
    """Minimum weight of an undetected logical error: e in ker B, L e != 0.

    Exact when a witness of weight <= max_weight exists; otherwise the result
    carries the cap as a lower bound.
    """
    if b.n_cols != l.n_cols:
        raise ValueError("B and L must share the error space")
    n = b.n_cols
    max_weight = min(max_weight, n)
    if l.n_rows == 0 or l.is_zero():
        return DistanceResult(None, None, max_weight, 0)
    support, count = _search(b.transpose().rows, l.transpose().rows, n, max_weight)
    if support is None:
        return DistanceResult(None, None, max_weight, count)
    witness = BitVector.from_indices(n, support)
    _verify_witness(b, l, witness)
    return DistanceResult(witness.weight(), witness, max_weight, count)


def _verify_witness(b: BitMatrix, l: BitMatrix, witness: BitVector) -> None:
    if not b.mul_vec(witness).is_zero():
        raise AssertionError("witness fails the B checks")
    if l.mul_vec(witness).is_zero():
        raise AssertionError("witness is not a logical error")


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
    from .css import derive_logicals

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
