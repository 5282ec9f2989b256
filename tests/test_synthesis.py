import hashlib
import random
from dataclasses import replace

import pytest

from circuitcode import codewords as cw
from circuitcode.circuit import MAX_WIRE_BITS, parse_circuit, random_circuit, serialize
from circuitcode.gf2 import BitMatrix, BitVector
from circuitcode.splitting import random_plan, symmetric_split, trivial_plan
from circuitcode.synthesis import (
    PathPartition,
    RoundTripReport,
    greedy_partition,
    read_partition,
    roundtrip_check,
    synthesize,
    trivial_partition,
    validate_partition,
    write_partition,
)
from circuitcode.tanner import build_plain, symmetrize, verify_symmetry
from tests.test_circuit import ZZ_TEXT
from tests.test_tanner import dense_maps, parity_text, rep_memory_text


def symmetric_graph(text):
    c = parse_circuit(text)
    g0 = build_plain(c)
    g, w, maps = symmetrize(g0, c)
    return c, g0, g, w, maps


def sampled_pairing_ok(g, maps, rng, samples=50):
    """The pairing on every unit error and ``samples`` random errors.

    An independent oracle for ``RoundTripReport.pairing_ok``: each error
    keeps its weight and c.e = codeword(c).error(e) for every basis codeword.
    """
    basis = list(g.kernel_basis().row_vectors())
    codeword, error = dense_maps(maps, g.n_bits)
    images = [codeword.mul_vec(v) for v in basis]
    errors = [BitVector.from_indices(g.n_bits, [j]) for j in range(g.n_bits)]
    errors += [BitVector(g.n_bits, rng.getrandbits(g.n_bits)) for _ in range(samples)]
    for e in errors:
        img_e = error.mul_vec(e)
        if e.weight() != img_e.weight():
            return False
        if any(v.dot(e) != img.dot(img_e) for v, img in zip(basis, images)):
            return False
    return True


def test_trivial_partition_validates():
    _, _, g, w, _ = symmetric_graph(ZZ_TEXT)
    p = trivial_partition(g, w)
    assert validate_partition(g, w, p) == []
    # one single-vertex path per vertex of the symmetric subgraph
    assert len(p.paths) == 2 * g.n_checks


def test_trivial_partition_empty_graph():
    c = parse_circuit("qubits 1\n")
    g = build_plain(c)
    g2, w, _ = symmetrize(g, c)
    p = trivial_partition(g2, w)
    assert p.paths == []


def test_validate_partition_catches_tau_mismatch():
    _, _, g, w, _ = symmetric_graph(ZZ_TEXT)
    p = trivial_partition(g, w)
    # give one dual pair inconsistent labels
    a = next(iter(w.dual))
    bad_tau = dict(p.tau)
    bad_tau[("c", a)] = 2
    problems = validate_partition(g, w, PathPartition(p.paths, bad_tau))
    assert problems


@pytest.mark.parametrize("shift", [-1, -3, -10])
def test_validate_partition_rejects_time_labels_below_one(shift):
    _, _, g, w, _ = symmetric_graph(ZZ_TEXT)
    p = greedy_partition(g, w)
    assert min(p.tau.values()) == 1
    low = PathPartition(p.paths, {v: t + shift for v, t in p.tau.items()})
    assert "time labels must be at least 1" in validate_partition(g, w, low)
    with pytest.raises(ValueError, match="time labels must be at least 1"):
        synthesize(g, w, low)


def test_synthesize_checks_the_wire_bit_limit_before_allocating():
    _, _, g, w, _ = symmetric_graph(ZZ_TEXT)
    p = greedy_partition(g, w)
    high = PathPartition(p.paths, {v: t + 10**7 for v, t in p.tau.items()})
    assert validate_partition(g, w, high) == []
    with pytest.raises(ValueError, match=f"limit of {MAX_WIRE_BITS} wire bits"):
        synthesize(g, w, high)


def test_synthesize_cnot_gadget():
    c, g0, g, w, _ = symmetric_graph("qubits 2\ncnot 1 2\n")
    p = trivial_partition(g, w)
    result = synthesize(g, w, p)
    assert result.circuit.validate() == []
    maps = result.maps
    # codes map bijectively and the boundary pairing carries over
    k = g.check_matrix().kernel_basis()
    assert k.n_rows == 4
    assert maps.map_matrix(k).rank() == 4
    codeword, error = dense_maps(maps, g.n_bits)
    for v in k.row_vectors():
        img = codeword.mul_vec(v)
        for j in range(g.n_bits):
            e = BitVector.from_indices(g.n_bits, [j])
            assert v.dot(e) == img.dot(error.mul_vec(e))


def test_synthesize_gate_count_zz():
    _, _, g, w, _ = symmetric_graph(ZZ_TEXT)
    p = trivial_partition(g, w)
    result = synthesize(g, w, p)
    # every inter-path edge class becomes exactly one gate: count classes
    classes = set()
    check_of_bit = w.check_of_bit()
    for a, members in enumerate(g.checks):
        for bit in members:
            if bit in w.long_terminals:
                continue
            if check_of_bit[bit] == a:
                classes.add(frozenset([("b", bit), ("c", a)]))
            else:
                dual = frozenset(
                    [("b", bit), ("c", a), ("b", w.dual[a]), ("c", check_of_bit[bit])]
                )
                classes.add(dual)
    n_gates = 0
    from circuitcode.circuit import OpKind

    singles = 0
    for layer in result.circuit.layers:
        for op in layer:
            if op.kind is OpKind.CNOT:
                n_gates += 1
            elif op.kind is OpKind.S:
                singles += 1
    # S gates stand alone; H-conjugated forms wrap a CNOT or an S
    assert n_gates + singles == len(classes)


def test_roundtrip_zz():
    c, g0, g, w, maps0 = symmetric_graph(ZZ_TEXT)
    ec = cw.complete_ec_structure(g0)
    b = maps0.map_matrix(ec.b)
    l = maps0.map_matrix(ec.l)
    result = synthesize(g, w, trivial_partition(g, w))
    report = roundtrip_check(g, result, b, l, max_weight=3)
    assert report.pairing_ok
    assert report.ok
    assert report.distance_before.value == 1
    assert report.distance_after.value == 1
    # the original parity check transports to a checker of the synthesised
    # circuit whose measurement outcomes still multiply to +1
    from circuitcode import pauli_sim as sim

    g_plain0 = build_plain(c)
    checker0 = cw.code_spaces(g_plain0).checkers.row(0)
    checker_sym = dense_maps(maps0, g_plain0.n_bits)[0].mul_vec(checker0)
    img = dense_maps(result.maps, g.n_bits)[0].mul_vec(checker_sym)
    g2 = build_plain(result.circuit)
    assert cw.classify(g2, img) == cw.CHECKER
    assert len(cw.relevant_measurements(g2, img)) >= 2
    verdict = sim.verify_codeword_equation(result.circuit, g2, img, None, seed=3, trials=4)
    assert verdict.ok, verdict.report(result.circuit, img, None)


def test_roundtrip_random_graphs():
    rng = random.Random(71)
    done = 0
    while done < 12:
        c = random_circuit(rng.randrange(1, 4), rng.randrange(1, 5), rng)
        g0 = build_plain(c)
        if g0.n_bits == 0:
            continue
        ec = cw.complete_ec_structure(g0)
        g, w, maps0 = symmetrize(g0, c)
        b = maps0.map_matrix(ec.b)
        l = maps0.map_matrix(ec.l)
        result = synthesize(g, w, trivial_partition(g, w))
        report = roundtrip_check(g, result, b, l, max_weight=4)
        assert report.pairing_ok
        assert sampled_pairing_ok(g, result.maps, rng) == report.pairing_ok
        assert report.ok
        done += 1


def test_synthesized_graph_is_symmetric():
    _, _, g, w, _ = symmetric_graph(ZZ_TEXT)
    result = synthesize(g, w, trivial_partition(g, w))
    g2 = build_plain(result.circuit)
    g2s, w2, _ = symmetrize(g2, result.circuit)
    assert verify_symmetry(g2s, w2) == []


def test_partition_file_roundtrip():
    _, _, g, w, _ = symmetric_graph(ZZ_TEXT)
    p = trivial_partition(g, w)
    text = write_partition(g, w, p)
    p2 = read_partition(g, text)
    assert validate_partition(g, w, p2) == []
    assert sorted(map(tuple, p2.paths)) == sorted(map(tuple, p.paths))
    assert p2.tau == p.tau


def test_greedy_partition_validates():
    rng = random.Random(77)
    for _ in range(15):
        c = random_circuit(rng.randrange(1, 4), rng.randrange(1, 6), rng)
        g0 = build_plain(c)
        g, w, _ = symmetrize(g0, c)
        p = greedy_partition(g, w)
        assert validate_partition(g, w, p) == []
        result = synthesize(g, w, p)
        assert result.circuit.validate() == []
        k = g.check_matrix().kernel_basis()
        assert result.maps.map_matrix(k).rank() == k.n_rows


def test_greedy_roundtrip_distances():
    rng = random.Random(79)
    done = 0
    while done < 6:
        c = random_circuit(rng.randrange(1, 4), rng.randrange(1, 5), rng)
        g0 = build_plain(c)
        ec = cw.complete_ec_structure(g0)
        if ec.l.n_rows == 0:
            continue
        g, w, maps0 = symmetrize(g0, c)
        p = greedy_partition(g, w)
        b = maps0.map_matrix(ec.b)
        l = maps0.map_matrix(ec.l)
        result = synthesize(g, w, p)
        report = roundtrip_check(g, result, b, l, max_weight=4)
        assert report.pairing_ok
        assert sampled_pairing_ok(g, result.maps, rng) == report.pairing_ok
        assert report.ok
        done += 1


def test_pairing_check_catches_tampered_maps():
    _, g0, g, w, maps0 = symmetric_graph("qubits 2\ncnot 1 2\n")
    ec = cw.complete_ec_structure(g0)
    b = maps0.map_matrix(ec.b)
    l = maps0.map_matrix(ec.l)
    result = synthesize(g, w, trivial_partition(g, w))
    assert roundtrip_check(g, result, b, l, max_weight=2).pairing_ok

    def tampered(**change):
        maps = replace(result.maps, **change)
        return roundtrip_check(g, replace(result, maps=maps), b, l, max_weight=2).pairing_ok

    err = result.maps.error
    carriers = [i for i, support in enumerate(err) if support]
    first, second = carriers[:2]
    # two columns sent to one output bit
    supports = list(err)
    supports[first] += supports[second]
    supports[second] = ()
    assert not tampered(error=supports)
    # a column dropped
    supports = list(err)
    supports[first] = ()
    assert not tampered(error=supports)
    # one codeword-map bit flipped on a carrier row, in a column some
    # basis codeword uses
    k0 = g.kernel_basis().rows[0]
    pivot = (k0 & -k0).bit_length() - 1
    supports = list(result.maps.codeword)
    supports[first] = tuple(sorted(set(supports[first]) ^ {pivot}))
    assert not tampered(codeword=supports)


def test_roundtrip_report_uses_the_split_distance_bound():
    from circuitcode.distance import DistanceResult
    from circuitcode.splitting import distance_bound_holds

    one = DistanceResult(1, BitVector.from_indices(4, [0]), 3, 1)
    capped = DistanceResult(None, None, 3, 10)
    for before, after, ok in [(one, one, True), (one, capped, False), (capped, one, False)]:
        report = RoundTripReport(None, 0, True, before, after, 3)
        assert report.ok == ok
        assert report.ok == all(distance_bound_holds(before, after, 3))


# ---------------------------------------------------------------------------
# The symmetric-graph outputs of a seeded corpus, pinned by digest

# SHA-256 of symmetric_digest(symmetric_corpus()): every symmetrised graph,
# witness and map, every symmetric split under the trivial and a random plan,
# every synthesised circuit and map under the trivial and the greedy
# partition, and every written partition must stay the same. Re-pinned when
# split bits took their roots' wire labels and serials in .labels order, and
# serialize began to keep a trailing empty layer; no other field moved.
SYMMETRIC_CORPUS_SHA256 = "172cedcbfe3ed10feb9f2ec94a7aa682f9e473259abe3e59fecf64e80ba2a323"


def symmetric_corpus():
    """205 circuits: ZZ, repetition memory d = 3, parity rounds k = 1..3 and
    200 seeded random circuits of 1-3 qubits and 1-7 layers."""
    circuits = [parse_circuit(t) for t in (ZZ_TEXT, rep_memory_text(3))]
    circuits += [parse_circuit(parity_text(k)) for k in (1, 2, 3)]
    rng = random.Random(19)
    return circuits + [random_circuit(rng.randrange(1, 4), rng.randrange(1, 8), rng) for _ in range(200)]


def symmetric_digest(circuits):
    h = hashlib.sha256()
    plan_rng = random.Random(20)

    def graph_record(g, w, maps, n_source):
        bits = [(b.kind, b.q, b.t, b.serial, b.is_measurement, b.is_initialisation) for b in g.bits]
        dense = [m.rows for m in dense_maps(maps, n_source)]
        return bits, g.checks, list(w.dual.items()), sorted(w.long_terminals), *dense

    for c in circuits:
        plain = build_plain(c)
        sym, w, maps = symmetrize(plain, c)
        record = [graph_record(sym, w, maps, plain.n_bits)]
        for plan in (trivial_plan(sym, w), random_plan(sym, w, plan_rng)):
            record.append(graph_record(*symmetric_split(sym, w, plan), sym.n_bits))
        for p in (trivial_partition(sym, w), greedy_partition(sym, w)):
            result = synthesize(sym, w, p)
            record.append((
                serialize(result.circuit),
                *(m.rows for m in dense_maps(result.maps, sym.n_bits)),
                write_partition(sym, w, p),
            ))
        h.update(repr(record).encode())
    return h.hexdigest()


def test_symmetric_corpus_digest_is_pinned():
    circuits = symmetric_corpus()
    assert len(circuits) == 205
    assert symmetric_digest(circuits) == SYMMETRIC_CORPUS_SHA256


# ---------------------------------------------------------------------------
# Code maps as row supports, against the dense oracle


def assert_maps_match_the_dense_oracle(maps, source, rng):
    """``map_matrix`` and ``map_columns`` against ``m.codeword^T`` with the
    dense codeword matrix built from the supports: on the source graph's
    kernel basis and on a few random rows over its bits."""
    codeword, error = dense_maps(maps, source.n_bits)
    assert (codeword.n_rows, error.n_rows) == (len(maps.codeword), len(maps.error))
    rows = [rng.getrandbits(source.n_bits) for _ in range(3)]
    for m in (source.kernel_basis(), BitMatrix(len(rows), source.n_bits, rows)):
        want = m.matmul(codeword.transpose())
        assert maps.map_matrix(m) == want
        assert maps.map_columns(m.transpose().rows) == want.transpose().rows


def test_mapped_matrices_equal_the_dense_oracle_on_the_graph_corpus():
    # plain -> symmetric -> split on every circuit of the corpus; the split
    # graph is synthesised for the parity rounds, repetition memory d = 3
    # and every 80th random circuit, which keeps the dense oracle's
    # transposes of the wide outputs to a few seconds
    from tests.test_tanner import graph_corpus

    rng = random.Random(41)
    circuits = graph_corpus()
    synthesised = 0
    for k, c in enumerate(circuits):
        g = build_plain(c)
        sym, w, maps = symmetrize(g, c)
        assert_maps_match_the_dense_oracle(maps, g, rng)
        split, w2, maps = symmetric_split(sym, w, random_plan(sym, w, rng))
        assert_maps_match_the_dense_oracle(maps, sym, rng)
        if k in (0, 3, 4, 5) or (k > 5 and k % 80 == 0):
            result = synthesize(split, w2, greedy_partition(split, w2))
            assert_maps_match_the_dense_oracle(result.maps, split, rng)
            synthesised += 1
    assert len(circuits) == 806 and synthesised == 14
