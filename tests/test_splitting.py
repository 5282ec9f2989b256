import random

import pytest

from circuitcode import codewords as cw
from circuitcode.circuit import parse_circuit, random_circuit
from circuitcode.distance import circuit_distance
from circuitcode.gf2 import BitVector
from circuitcode.splitting import (
    PairPlan,
    SplitPlan,
    distance_bound_holds,
    random_plan,
    read_plan,
    symmetric_split,
    trivial_plan,
    write_plan,
)
from circuitcode.tanner import build_plain, symmetrize, verify_symmetry
from tests.test_circuit import ZZ_TEXT
from tests.test_tanner import dense_maps


def split_distances(b, l, maps, max_weight):
    """Circuit distances of (B, L) before a split and of their images after it."""
    return (
        circuit_distance(b, l, max_weight),
        circuit_distance(maps.map_matrix(b), maps.map_matrix(l), max_weight),
    )


def symmetric_zz():
    c = parse_circuit(ZZ_TEXT)
    g = build_plain(c)
    return c, *symmetrize(g, c)


def test_trivial_plan_is_isomorphic():
    c, g, w, _ = symmetric_zz()
    plan = trivial_plan(g, w)
    g2, w2, maps = symmetric_split(g, w, plan)
    assert g2.n_bits == g.n_bits
    assert g2.n_checks == g.n_checks
    assert verify_symmetry(g2, w2) == []
    a, a2 = g.check_matrix(), g2.check_matrix()
    assert a2.kernel_basis().n_rows == a.kernel_basis().n_rows
    codeword, _ = dense_maps(maps, g.n_bits)
    for v in a.kernel_basis().row_vectors():
        assert a2.mul_vec(codeword.mul_vec(v)).is_zero()


def test_degree_five_check_path_template():
    # a graph with a degree-5 check: one CNOT layer fan-in gives high degree
    # when split with a 5-vertex path template
    c = parse_circuit(ZZ_TEXT)
    g = build_plain(c)
    g1, w, _ = symmetrize(g, c)
    # find the highest-degree check and use a path template on it
    a = max(range(g1.n_checks), key=lambda k: len(g1.checks[k]))
    neigh = sorted(g1.checks[a])
    r = len(neigh)
    pairs = {}
    for chk, bit in w.dual.items():
        if chk == a:
            subsets = [[u] for u in neigh]
            tree = [(i, i + 1) for i in range(r - 1)]
            pairs[chk] = PairPlan(bit, chk, subsets, tree)
        else:
            pairs[chk] = PairPlan(bit, chk, [sorted(g1.checks[chk])], [])
    plan = SplitPlan(pairs)
    g2, w2, maps = symmetric_split(g1, w, plan)
    assert verify_symmetry(g2, w2) == []
    # each template vertex now hosts one bit and one check of a tree
    assert g2.n_bits == g1.n_bits + 2 * (r - 1)
    k1 = g1.check_matrix().kernel_basis()
    k2 = g2.check_matrix().kernel_basis()
    assert k1.n_rows == k2.n_rows
    codeword, _ = dense_maps(maps, g1.n_bits)
    for v in k1.row_vectors():
        assert g2.check_matrix().mul_vec(codeword.mul_vec(v)).is_zero()


def test_random_splits_preserve_code_and_symmetry():
    rng = random.Random(5)
    for _ in range(25):
        c = random_circuit(rng.randrange(1, 4), rng.randrange(1, 6), rng)
        g0 = build_plain(c)
        g, w, _ = symmetrize(g0, c)
        plan = random_plan(g, w, rng)
        g2, w2, maps = symmetric_split(g, w, plan)
        assert verify_symmetry(g2, w2) == []
        k = g.check_matrix().kernel_basis()
        a2 = g2.check_matrix()
        assert a2.kernel_basis().n_rows == k.n_rows
        codeword, _ = dense_maps(maps, g.n_bits)
        images = [codeword.mul_vec(v) for v in k.row_vectors()]
        for img in images:
            assert a2.mul_vec(img).is_zero()
        # injectivity: images stay independent
        if images:
            from circuitcode.gf2 import BitMatrix

            m = BitMatrix.from_vectors(images, n_cols=g2.n_bits)
            assert m.rank() == len(images)


def test_pairing_identity_random():
    rng = random.Random(7)
    for _ in range(10):
        c = random_circuit(rng.randrange(1, 4), rng.randrange(1, 5), rng)
        g0 = build_plain(c)
        g, w, _ = symmetrize(g0, c)
        plan = random_plan(g, w, rng)
        g2, w2, maps = symmetric_split(g, w, plan)
        k = g.check_matrix().kernel_basis()
        codeword, error = dense_maps(maps, g.n_bits)
        for _ in range(100):
            e = BitVector(g.n_bits, rng.getrandbits(g.n_bits))
            assert e.weight() == error.mul_vec(e).weight()
            for v in k.row_vectors():
                assert v.dot(e) == codeword.mul_vec(v).dot(error.mul_vec(e))


def test_error_carrier_is_first_subset():
    c, g, w, _ = symmetric_zz()
    plan = random_plan(g, w, random.Random(11))
    g2, w2, maps = symmetric_split(g, w, plan)
    # single-bit error on a non-terminal maps to a single bit on its tree
    _, error = dense_maps(maps, g.n_bits)
    for v in sorted(set(w.dual.values()))[:5]:
        e = BitVector.from_indices(g.n_bits, [v])
        img = error.mul_vec(e)
        assert img.weight() == 1


def test_classification_preserved_zz():
    c, g, w, maps0 = symmetric_zz()
    g_plain = build_plain(c)
    checker_plain = cw.code_spaces(g_plain).checkers.row(0)
    checker = dense_maps(maps0, g_plain.n_bits)[0].mul_vec(checker_plain)
    plan = random_plan(g, w, random.Random(13))
    g2, w2, maps = symmetric_split(g, w, plan)
    img = dense_maps(maps, g.n_bits)[0].mul_vec(checker)
    assert g2.check_matrix().mul_vec(img).is_zero()
    # a checker stays supported away from the carried-over long terminals
    # of the boundary: its image pairs to zero with every boundary error
    for t in sorted(w2.long_terminals):
        lab = g2.bits[t]
        if lab.kind in ("x", "z") and lab.t in (0, g.depth):
            assert img[t] == 0


def test_distance_bound_trivial_plan_equality():
    c, g, w, maps0 = symmetric_zz()
    g_plain = build_plain(c)
    ec = cw.complete_ec_structure(g_plain)
    b = maps0.map_matrix(ec.b)
    l = maps0.map_matrix(ec.l)
    before, after = split_distances(b, l, trivial_maps(g), max_weight=3)
    assert all(distance_bound_holds(before, after, g.max_degree()))
    assert before.value == after.value


def trivial_maps(g):
    from circuitcode.tanner import CodeMaps

    units = [(i,) for i in range(g.n_bits)]
    return CodeMaps(units, units)


def test_distance_bound_random_plans():
    rng = random.Random(17)
    done = 0
    while done < 8:
        c = random_circuit(rng.randrange(1, 4), rng.randrange(1, 5), rng)
        g0 = build_plain(c)
        ec = cw.complete_ec_structure(g0)
        if ec.l.n_rows == 0:
            continue
        g, w, maps0 = symmetrize(g0, c)
        b = maps0.map_matrix(ec.b)
        l = maps0.map_matrix(ec.l)
        plan = random_plan(g, w, rng)
        g2, w2, maps = symmetric_split(g, w, plan)
        before, after = split_distances(b, l, maps, max_weight=5)
        assert all(distance_bound_holds(before, after, g.max_degree()))
        done += 1


def test_degree_three_graph_keeps_distance():
    # floor(3/2) = 1: the bound forces exact preservation
    rng = random.Random(19)
    done = 0
    while done < 5:
        c = random_circuit(rng.randrange(1, 4), rng.randrange(1, 5), rng, x_basis=False)
        g0 = build_plain(c)
        ec = cw.complete_ec_structure(g0)
        if ec.l.n_rows == 0:
            continue
        g, w, maps0 = symmetrize(g0, c)
        if g.max_degree() > 3:
            continue
        plan = random_plan(g, w, rng)
        g2, _, maps = symmetric_split(g, w, plan)
        b = maps0.map_matrix(ec.b)
        l = maps0.map_matrix(ec.l)
        before, after = split_distances(b, l, maps, max_weight=5)
        if before.exact and after.exact:
            assert before.value == after.value
            done += 1


def test_plan_roundtrip():
    c, g, w, _ = symmetric_zz()
    plan = random_plan(g, w, random.Random(23))
    text = write_plan(g, plan)
    back = read_plan(g, text)
    assert set(back.pairs) == set(plan.pairs)
    for a in plan.pairs:
        assert back.pairs[a].subsets == plan.pairs[a].subsets
        assert back.pairs[a].tree == plan.pairs[a].tree


def test_plan_validation_rejects_bad_input():
    c, g, w, _ = symmetric_zz()
    plan = trivial_plan(g, w)
    some = next(iter(plan.pairs))
    broken = SplitPlan(dict(plan.pairs))
    broken.pairs[some] = PairPlan(
        plan.pairs[some].bit, some, [[]], []
    )
    with pytest.raises(ValueError):
        symmetric_split(g, w, broken)


def test_codeword_map_inverse_via_carriers():
    # restriction to the error carriers inverts the codeword map
    rng = random.Random(29)
    c = random_circuit(3, 4, rng)
    g0 = build_plain(c)
    g, w, _ = symmetrize(g0, c)
    plan = random_plan(g, w, rng)
    g2, _, maps = symmetric_split(g, w, plan)
    k = g.check_matrix().kernel_basis()
    codeword, error = dense_maps(maps, g.n_bits)
    for v in k.row_vectors():
        img = codeword.mul_vec(v)
        rebuilt = BitVector(g.n_bits)
        for b in range(g.n_bits):
            e = BitVector.from_indices(g.n_bits, [b])
            carrier = error.mul_vec(e)
            (pos,) = carrier.support()
            if img[pos]:
                rebuilt ^= e
        assert rebuilt == v
