"""The meet-in-the-middle distance search against the plain enumeration.

The oracle is the recursive weight-then-lex enumeration the search replaced:
it visits every support of each weight in lex order over the original
columns and returns the first with zero B-syndrome and nonzero L-syndrome.
"""

import random
from functools import lru_cache
from itertools import combinations, islice
from math import comb

import pytest

from circuitcode import distance
from circuitcode.circuit import parse_circuit, random_circuit
from circuitcode.codewords import complete_ec_structure
from circuitcode.css import (
    assemble_physical,
    derive_logicals,
    logical_cnot_layer,
    repeated_measurement_layer,
)
from circuitcode.distance import circuit_distance
from circuitcode.gf2 import BitMatrix
from circuitcode.tanner import build_plain
from perfbench import workloads
from tests.test_tanner import rep_memory_text


def _search(b_cols, l_cols, n, max_weight):
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


def oracle(b, l, max_weight):
    """The oracle's witness support, or None when no weight up to the cap has one."""
    n = b.n_cols
    if l.is_zero():
        return None
    support, _ = _search(b.transpose().rows, l.transpose().rows, n, min(max_weight, n))
    return support


def assert_matches_oracle(b, l, cap, want):
    res = circuit_distance(b, l, cap)
    if want is None:
        assert not res.exact and res.witness is None
        assert res.max_weight == min(cap, b.n_cols)
    else:
        assert res.exact and res.value == len(want)
        assert tuple(res.witness.support()) == want


def from_columns(cols, n_rows):
    return BitMatrix(len(cols), n_rows, cols).transpose()


@lru_cache(maxsize=None)
def random_corpus():
    """(B, L, cap, oracle support) for seeded B/L with zero and repeated columns."""
    rng = random.Random(1212)
    corpus = []
    for _ in range(600):
        n = rng.randrange(1, 17)
        n_b, n_l = rng.randrange(0, n + 1), rng.randrange(1, 4)
        cols = []
        for j in range(n):
            r = rng.random()
            if r < 0.15:
                cols.append((0, 0))
            elif r < 0.35 and j:
                cols.append(rng.choice(cols))
            else:
                cols.append((rng.getrandbits(n_b), rng.getrandbits(n_l)))
        b = from_columns([c[0] for c in cols], n_b)
        l = from_columns([c[1] for c in cols], n_l)
        cap = rng.randrange(1, 8)
        corpus.append((b, l, cap, oracle(b, l, cap)))
    return corpus


def test_random_corpus_matches_oracle():
    corpus = random_corpus()
    assert sum(want is not None for *_, want in corpus) > 100
    for b, l, cap, want in corpus:
        assert_matches_oracle(b, l, cap, want)


def test_column_search_matches_the_row_entry_on_the_corpus():
    # the search on the columns of B and L gives the value, witness,
    # searched weight and enumerated count of circuit_distance on B and L
    for b, l, cap, _ in random_corpus():
        by_rows = circuit_distance(b, l, cap)
        by_columns = distance.column_distance(b.transpose().rows, l.transpose().rows, cap)
        assert by_columns == by_rows
    with pytest.raises(ValueError, match="share the error space"):
        distance.column_distance([1, 0], [1], 2)


@pytest.mark.parametrize("limit", [1, 3, 20])
def test_table_limit_gives_the_witness_or_a_true_bound(monkeypatch, limit):
    monkeypatch.setattr(distance, "TABLE_LIMIT", limit)
    stopped = 0
    for b, l, cap, want in random_corpus():
        res = circuit_distance(b, l, cap)
        if res.exact:
            assert tuple(res.witness.support()) == want
            continue
        top = min(cap, b.n_cols)
        assert res.max_weight <= top
        assert want is None or res.max_weight < len(want)
        stopped += res.max_weight < top
    if limit < 20:
        assert stopped > 0


@pytest.mark.parametrize("extra", [0, -1])
def test_table_limit_is_the_largest_table_built(monkeypatch, extra):
    # distinct B columns, then two with equal B and unequal L: the weight-2
    # stream passes n prefixes before its hit and asks for the n-entry table
    n = 8
    cols = [(1 << j, 0) for j in range(1, n - 1)] + [(1, 0), (1, 1)]
    b, l = from_columns([c[0] for c in cols], n), from_columns([c[1] for c in cols], 1)
    monkeypatch.setattr(distance, "TABLE_LIMIT", n + extra)
    res = circuit_distance(b, l, 2)
    if extra == 0:
        assert res.exact and res.witness.support() == [n - 2, n - 1]
    else:
        assert str(res) == ">1"


def oracle_stream(b_cols, l_cols, p, table, budget):
    """distance._stream as it was written before the row-wise walk: one
    prefix at a time, each XORed from scratch."""
    visited = 0
    for prefix in islice(combinations(range(len(b_cols)), p), budget):
        visited += 1
        syn_b = 0
        for i in prefix:
            syn_b ^= b_cols[i]
        entries = table.get(syn_b)
        if entries:
            syn_l = 0
            for i in prefix:
                syn_l ^= l_cols[i]
            for other_l, subset in entries:
                if other_l != syn_l:
                    return prefix + subset, visited
    return None, visited


def stream_cases():
    """(B columns, L columns, p, table) over m <= 14 columns with few B rows,
    so that rows hit the table often: zero-B columns, all-zero L (every hit
    has an equal L-syndrome) and L nonzero on one column only, p = 1 (an
    empty head) and tables for k = 0..3."""
    rng = random.Random(2207)
    for case in range(240):
        m = rng.randrange(1, 15)
        n_b = rng.randrange(0, 6)
        b_cols = [0 if rng.random() < 0.2 else rng.getrandbits(n_b) for _ in range(m)]
        if case % 3 == 0:
            l_cols = [0] * m
        elif case % 3 == 1:
            l_cols = [0] * m
            l_cols[rng.randrange(m)] = 1
        else:
            l_cols = [rng.getrandbits(2) for _ in range(m)]
        k = case % 4
        p = 1 if case % 5 == 0 else rng.randrange(1, m + 1)
        yield b_cols, l_cols, p, distance._table(b_cols, l_cols, k)


def test_stream_matches_the_prefix_oracle_at_every_budget():
    hits = cuts = 0
    for b_cols, l_cols, p, table in stream_cases():
        total = comb(len(b_cols), p)
        budgets = [None, *range(total + 1)] if total <= 400 else [None, 0, 1, total // 2, total]
        for budget in budgets:
            want = oracle_stream(b_cols, l_cols, p, table, budget)
            assert distance._stream(b_cols, l_cols, p, table, budget) == want
            hits += want[0] is not None
            cuts += budget is not None and want == (None, budget) and budget < total
    assert hits > 1000 and cuts > 1000


def test_stream_rows_with_only_equal_l_hits_are_walked_through():
    # every prefix hits the table, but with its own L-syndrome, so no row
    # ends the stream, and a row cut mid-way counts only its visited columns
    b_cols, l_cols = [0, 1, 1, 0, 1, 0], [0] * 6
    table = distance._table(b_cols, l_cols, 1)
    for p in (1, 2, 3):
        for budget in range(comb(6, p) + 1):
            got = distance._stream(b_cols, l_cols, p, table, budget)
            assert got == oracle_stream(b_cols, l_cols, p, table, budget) == (None, budget)


def hgp_rep(d):
    """(G_X, G_Z) of HGP(rep_d), as the css-distance benchmark builds them."""
    n, g_x, g_z = workloads.hgp_rep(d)
    return BitMatrix(len(g_x), n, g_x), BitMatrix(len(g_z), n, g_z)


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("layer", ["rep:1", "rep:2", "cnot"])
def test_hgp_searches_match_oracle(d, layer):
    code = derive_logicals(*hgp_rep(d))
    if layer == "cnot":
        logical = logical_cnot_layer()
    else:
        logical = repeated_measurement_layer(int(layer.split(":")[1]))
    asm = assemble_physical(code, logical)
    want = oracle(asm.b, asm.l, d)
    assert want is not None and len(want) == d
    # the cap d - 1 search excludes every weight below the oracle's
    assert_matches_oracle(asm.b, asm.l, d - 1, None)
    assert_matches_oracle(asm.b, asm.l, d, want)


def test_random_circuit_searches_match_oracle():
    rng = random.Random(4242)
    searched = found = 0
    while searched < 600:
        c = random_circuit(rng.randrange(1, 6), rng.randrange(1, 7), rng)
        g = build_plain(c)
        if g.n_bits == 0:
            continue
        ec = complete_ec_structure(g)
        if ec.l.n_rows == 0:
            continue
        for cap in (2, 4):
            want = oracle(ec.b, ec.l, cap)
            assert_matches_oracle(ec.b, ec.l, cap, want)
            searched += 1
            found += want is not None
    assert found > 100


def protected_logical(d):
    """B of repetition memory d = r, and the row of L whose distance is d."""
    ec = complete_ec_structure(build_plain(parse_circuit(rep_memory_text(d))))
    return ec.b, BitMatrix(1, ec.l.n_cols, [ec.l.rows[1]])


def test_repetition_memory_distance_7_is_certified():
    b, l = protected_logical(7)
    res = circuit_distance(b, l, 7)
    assert res.exact and res.value == 7
    assert res.witness.weight() == 7


def test_repetition_memory_distance_9_ends_with_a_lower_bound():
    # the weight-6 search would need C(225, 3) > TABLE_LIMIT subsets
    b, l = protected_logical(9)
    res = circuit_distance(b, l, 9)
    assert not res.exact and res.witness is None
    assert str(res) == ">5"
