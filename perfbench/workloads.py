"""The benchmark's four workloads: inputs, timed steps and known answers.

Each workload is a fixed item set driven by one caller in a closed loop: a
step starts only after the previous one has returned. A step is one timed
call into circuitcode. Its output is checked afterwards, outside the timed
interval, against answers that do not come from the code under test: closed
forms, the benchmark's own GF(2) rank and parity arithmetic below, or the
independent tableau oracle of ``pauli_sim``.

``analyse-rep`` and ``synth-roundtrip`` drive the command line in-process
through ``circuitcode.cli.main``; ``codeword-fuzz`` and ``css-distance`` call
the library. NOTES.md records why each workload was chosen.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator


class Mismatch(Exception):
    """A step's output differs from its known answer."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


@dataclass
class Step:
    """One timed call with a checked result.

    ``group`` is the size class the step's time is charged to for
    ``growth_slope``; ``item`` marks the steps whose latencies make up
    ``item_p50_ms`` and ``item_p99_ms``.
    """

    name: str
    group: str
    run: Callable[[], object]
    check: Callable[[object], None]
    item: bool = True


class Workload:
    """A fixed item set: ``setup`` makes the inputs, ``steps`` yields one pass."""

    def __init__(self):
        self.sizes: dict[str, int] = {}  # size class -> input size, for growth_slope

    def setup(self, cc, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def steps(self, cc) -> Iterator[Step]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Independent GF(2) arithmetic for the known answers


def read_dense(path: Path) -> tuple[int, int, list[int]]:
    """A matrix in the dense text format as (rows, cols, bit-packed rows)."""
    tokens = path.read_text().split()
    n_rows, n_cols = int(tokens[0]), int(tokens[1])
    expect(len(tokens) == 2 + n_rows * n_cols, f"{path.name}: wrong entry count")
    rows = []
    for i in range(n_rows):
        entries = tokens[2 + i * n_cols : 2 + (i + 1) * n_cols]
        rows.append(int("".join(reversed(entries)), 2) if n_cols else 0)
    return n_rows, n_cols, rows


def rank(rows: list[int]) -> int:
    pivots: dict[int, int] = {}
    for r in rows:
        while r:
            low = r & -r
            p = pivots.get(low)
            if p is None:
                pivots[low] = r
                break
            r ^= p
    return len(pivots)


def orthogonal(a_rows: list[int], v: int) -> bool:
    return all((r & v).bit_count() % 2 == 0 for r in a_rows)


def max_degree(rows: list[int], n_cols: int) -> int:
    """Largest row or column weight: the Tanner graph's maximum degree."""
    col = [0] * n_cols
    for r in rows:
        while r:
            low = r & -r
            col[low.bit_length() - 1] += 1
            r ^= low
    return max([r.bit_count() for r in rows] + col, default=0)


# ---------------------------------------------------------------------------
# Command-line steps


def cli(cc, *argv) -> tuple[int, str, str]:
    """Run one circuitcode command in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cc.cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def cli_lines(result: tuple[int, str, str]) -> list[str]:
    code, out, err = result
    expect(code == 0, f"exit code {code}: {err.strip()[:200]}")
    return out.splitlines()


# ---------------------------------------------------------------------------
# analyse-rep


def rep_memory_circuit(d: int, r: int) -> str:
    """Repetition-code memory: data 1..d open at both ends, ancillas d+1..2d-1."""
    anc = range(1, d)
    layers = []
    for _ in range(r):
        layers.append([f"rz {d + i}" for i in anc])
        layers.append([f"cnot {i} {d + i}" for i in anc])
        layers.append([f"cnot {i + 1} {d + i}" for i in anc])
        layers.append([f"mz {d + i}" for i in anc])
    body = "\ntick\n".join("\n".join(layer) for layer in layers)
    return f"qubits {2 * d - 1}\n{body}\n"


class AnalyseRep(Workload):
    """build-tanner, classify, ec-matrices, distance and symmetrize per size."""

    DISTANCES = (3, 5, 7)  # d = r; 114, 330 and 658 plain-graph bits

    def setup(self, cc, seed, workdir):
        self.dir = workdir
        for d in self.DISTANCES:
            (workdir / f"rep{d}.qc").write_text(rep_memory_circuit(d, d))

    def steps(self, cc):
        for d in self.DISTANCES:
            yield from self._size(cc, d, d)

    def _size(self, cc, d, r):
        group = f"d={d}"
        circ = self.dir / f"rep{d}.qc"
        plain, ec, sym = (self.dir / f"{k}{d}" for k in ("plain", "ec", "sym"))
        k = (d - 1) * (r + 1) + 2
        known = {}

        def check_build(res):
            checks, bits = map(int, cli_lines(res)[0].split())
            n_rows, n_cols, rows = read_dense(Path(f"{plain}.A.txt"))
            expect((n_rows, n_cols) == (checks, bits), "A.txt shape differs from stdout")
            expect(bits - rank(rows) == k, f"dim ker A = {bits - rank(rows)}, want {k}")
            known.update(bits=bits, a=rows)
            self.sizes[group] = bits

        yield Step(f"{group} build-tanner", group,
                   lambda: cli(cc, "build-tanner", "--circuit", circ, "--out-prefix", plain),
                   check_build)

        def check_classify(res):
            lines = cli_lines(res)
            want = (
                f"dimensions codewords={k} checkers={(d - 1) * (r - 1)}"
                f" with-detectors={(d - 1) * r} with-emitters={(d - 1) * r}"
                f" incoherent={(d - 1) * (r + 1)}"
            )
            expect(lines[-1] == want, f"classify: {lines[-1]!r}, want {want!r}")
            expect(len(lines) == k + 1, "one line per kernel basis vector")

        yield Step(f"{group} classify", group,
                   lambda: cli(cc, "classify", "--circuit", circ), check_classify)

        def check_ec(res):
            lines = cli_lines(res)
            n_b = (d - 1) * (r + 1)
            expect(lines[0] == f"B {n_b} L 2", f"ec-matrices: {lines[0]!r}")
            _, _, b = read_dense(Path(f"{ec}.B.txt"))
            _, _, l_rows = read_dense(Path(f"{ec}.L.txt"))
            expect(all(orthogonal(known["a"], v) for v in b + l_rows), "B or L row not in ker A")
            expect(rank(b + l_rows) == n_b + 2, "rows of B and L are dependent")
            known.update(b=b, l=l_rows)

        yield Step(f"{group} ec-matrices", group,
                   lambda: cli(cc, "ec-matrices", "--circuit", circ, "--complete",
                               "--out-prefix", ec),
                   check_ec)

        def check_distance(res):
            lines = cli_lines(res)
            expect(lines[0] == "1", f"distance: {lines[0]!r}, want 1")
            expect(lines[2].startswith("witness "), "distance 1 needs a witness")
            col = 1 << int(lines[2].split()[1])
            expect(orthogonal(known["b"], col), "witness violates a B check")
            expect(not orthogonal(known["l"], col), "witness is not a logical error")

        yield Step(f"{group} distance", group,
                   lambda: cli(cc, "distance", "--b", f"{ec}.B.txt", "--l", f"{ec}.L.txt",
                               "--max-weight", 4),
                   check_distance)

        def check_symmetrize(res):
            checks, bits, word, splits = cli_lines(res)[0].split()
            expect(word == "splits" and int(splits) == (d - 1) * r,
                   f"symmetrize: {splits} splits, want {(d - 1) * r}")
            expect(int(bits) - known["bits"] == int(splits), "bits added differ from splits")
            _, n_cols, rows = read_dense(Path(f"{sym}.A.txt"))
            expect(n_cols - rank(rows) == k, "symmetrisation changed the code dimension")

        yield Step(f"{group} symmetrize", group,
                   lambda: cli(cc, "symmetrize", "--circuit", circ, "--out-prefix", sym),
                   check_symmetrize)


# ---------------------------------------------------------------------------
# synth-roundtrip


def parity_circuit(k: int) -> str:
    """One round of a weight-k Z parity measurement onto ancilla k+1."""
    a = k + 1
    layers = [f"rz {a}"] + [f"cnot {i} {a}" for i in range(1, k + 1)] + [f"mz {a}"]
    return f"qubits {a}\n" + "\ntick\n".join(layers) + "\n"


class SynthRoundtrip(Workload):
    """symmetrize -> split --plan -> synthesize --check -> verify per circuit."""

    WEIGHTS = (1, 2, 3)
    # depth of the synthesised circuit, pinned at the commit that added the
    # benchmark; the qubit count is the symmetric graph's check count
    LAYERS = {1: 20, 2: 26, 3: 32}

    def setup(self, cc, seed, workdir):
        self.dir = workdir
        rng = random.Random(seed)
        self.verify_seed = {}
        for k in self.WEIGHTS:
            text = parity_circuit(k)
            (workdir / f"par{k}.qc").write_text(text)
            c = cc.circuit.parse_circuit(text)
            g, w, _ = cc.tanner.symmetrize(cc.tanner.build_plain(c), c)
            plan = cc.splitting.random_plan(g, w, rng)
            (workdir / f"par{k}.plan").write_text(cc.splitting.write_plan(g, plan))
            self.verify_seed[k] = rng.randrange(1 << 30)

    def steps(self, cc):
        for k in self.WEIGHTS:
            yield from self._circuit(cc, k)

    def _circuit(self, cc, k):
        group = f"w={k}"
        base = self.dir / f"par{k}"
        known = {}

        def check_symmetrize(res):
            checks, bits, _, _ = cli_lines(res)[0].split()
            _, n_cols, rows = read_dense(Path(f"{base}.sym.A.txt"))
            expect(n_cols == int(bits), "A.txt shape differs from stdout")
            known.update(checks=int(checks), dim=n_cols - rank(rows))
            self.sizes[group] = int(bits)

        yield Step(f"{group} symmetrize", group,
                   lambda: cli(cc, "symmetrize", "--circuit", f"{base}.qc",
                               "--out-prefix", f"{base}.sym"),
                   check_symmetrize)

        def check_split(res):
            cli_lines(res)
            n_rows, n_cols, rows = read_dense(Path(f"{base}.split.A.txt"))
            expect(max_degree(rows, n_cols) <= 3, "split graph has a vertex of degree > 3")
            expect(n_cols - rank(rows) == known["dim"], "splitting changed the code dimension")
            tanner = cc.tanner
            labels = tanner.read_labels(Path(f"{base}.split.labels").read_text())
            g = tanner.graph_from_matrix(cc.gf2.BitMatrix(n_rows, n_cols, rows), labels)
            w = tanner.read_witness(Path(f"{base}.split.witness").read_text())
            expect(tanner.verify_symmetry(g, w) == [], "split graph is not symmetric")

        yield Step(f"{group} split", group,
                   lambda: cli(cc, "split", "--graph", f"{base}.sym", "--plan",
                               f"{base}.plan", "--out-prefix", f"{base}.split"),
                   check_split)

        def check_synthesize(res):
            lines = cli_lines(res)
            want = f"qubits {known['checks']} layers {self.LAYERS[k]}"
            expect(lines[0] == want, f"synthesize: {lines[0]!r}, want {want!r}")
            expect(lines[1] == "roundtrip ok", f"synthesize: {lines[1]!r}")
            before, _, after = lines[2].split()[1:]
            expect(before == after, f"distance changed: {lines[2]!r}")

        yield Step(f"{group} synthesize", group,
                   lambda: cli(cc, "synthesize", "--graph", f"{base}.sym", "--out",
                               f"{base}.round.qc", "--check", "--max-weight", 3),
                   check_synthesize)

        def check_verify(res):
            lines = cli_lines(res)
            dim = known["dim"]
            expect(lines[-1] == f"verified {dim} codewords",
                   f"verify: {lines[-1]!r}, want {dim} codewords")
            expect(all(line.endswith(" ok") for line in lines[:-1]), "a codeword failed")

        yield Step(f"{group} verify", group,
                   lambda: cli(cc, "verify", "--circuit", f"{base}.round.qc",
                               "--seed", self.verify_seed[k]),
                   check_verify)


# ---------------------------------------------------------------------------
# codeword-fuzz


class CodewordFuzz(Workload):
    """Every codeword equation of a seeded corpus of random circuits."""

    # every (qubits, depth) with qubits in 1..5 and depth in 1..10, four
    # circuits each: a fixed size mix keeps the pass time from depending on
    # which sizes a seed happens to draw, and about 990 codewords leave ten
    # items beyond item_p99_ms
    SHAPES = [(n, depth) for n in range(1, 6) for depth in range(1, 11)] * 4

    def setup(self, cc, seed, workdir):
        rng = random.Random(seed)
        self.corpus = []
        for n, depth in self.SHAPES:
            text = cc.circuit.serialize(cc.circuit.random_circuit(n, depth, rng))
            self.corpus.append((text, rng.randrange(1 << 30)))

    def steps(self, cc):
        for i, (text, item_seed) in enumerate(self.corpus):
            group = f"c{i}"
            built = {}

            def prepare(text=text):
                c = cc.circuit.parse_circuit(text)
                g = cc.tanner.build_plain(c)
                return c, g, g.check_matrix().kernel_basis()

            def check_prepare(res, group=group, built=built):
                c, g, basis = res
                a = g.check_matrix().rows
                expect(basis.n_rows == g.n_bits - rank(a), "kernel basis has the wrong size")
                expect(all(orthogonal(a, v) for v in basis.rows), "basis vector not in ker A")
                built.update(c=c, g=g, basis=basis)
                self.sizes[group] = g.n_bits

            yield Step(f"{group} prepare", group, prepare, check_prepare, item=False)
            if not built:
                continue
            c, g, basis = built["c"], built["g"], built["basis"]
            rng = random.Random(item_seed)
            for j, v in enumerate(basis.row_vectors()):
                calls = [(None, rng.randrange(1 << 30), 8)]
                for _ in range(2):
                    support = rng.sample(range(g.n_bits), min(rng.randrange(1, 5), g.n_bits))
                    e = cc.gf2.BitVector.from_indices(g.n_bits, support)
                    calls.append((e, rng.randrange(1 << 30), 4))

                def verify(v=v, calls=calls):
                    return [
                        cc.pauli_sim.verify_codeword_equation(c, g, v, e, seed=s, trials=t)
                        for e, s, t in calls
                    ]

                def check_verify(verdicts):
                    expect(all(vd.ok for vd in verdicts), "codeword equation violated")

                yield Step(f"{group} codeword {j}", group, verify, check_verify)


# ---------------------------------------------------------------------------
# css-distance


def hgp_rep(d: int) -> tuple[int, list[int], list[int]]:
    """Hypergraph product of the length-d repetition code: (n, G_X, G_Z) rows.

    H is the (d-1) x d repetition check; G_X = [H (x) I_d | I_{d-1} (x) H^T] and
    G_Z = [I_d (x) H | H^T (x) I_{d-1}] on n = d^2 + (d-1)^2 qubits.
    """
    h = [(i, i + 1) for i in range(d - 1)]  # supports of the rows of H
    left = d * d

    def v(a, b):  # left-block qubit for (bit a, bit b) of two repetition codes
        return a * d + b

    def c(i, j):  # right-block qubit for (check i, check j)
        return left + i * (d - 1) + j

    g_x, g_z = [], []
    for i, row in enumerate(h):  # X checks: (check i of H, bit b)
        for b in range(d):
            bits = [v(a, b) for a in row] + [c(i, j) for j, hj in enumerate(h) if b in hj]
            g_x.append(sum(1 << q for q in bits))
    for a in range(d):  # Z checks: (bit a, check j of H)
        for j, row in enumerate(h):
            bits = [v(a, b) for b in row] + [c(i, j) for i, hi in enumerate(h) if a in hi]
            g_z.append(sum(1 << q for q in bits))
    return left + (d - 1) ** 2, g_x, g_z


class CssDistance(Workload):
    """Closed-form assembly and capped distance searches on HGP(rep_d)."""

    DISTANCES = (3, 4)
    LAYERS = ("rep:1", "rep:2", "cnot")

    def setup(self, cc, seed, workdir):
        self.codes = {d: hgp_rep(d) for d in self.DISTANCES}
        for n, g_x, g_z in self.codes.values():
            expect(all(orthogonal(g_z, r) for r in g_x), "G_X G_Z^T must vanish")

    def steps(self, cc):
        for d in self.DISTANCES:
            for layer in self.LAYERS:
                yield from self._case(cc, d, layer)

    def _case(self, cc, d, layer):
        group = f"d={d}"
        n, g_x, g_z = self.codes[d]
        known = {}

        def assemble():
            m = cc.gf2.BitMatrix
            code = cc.css.derive_logicals(m(len(g_x), n, g_x), m(len(g_z), n, g_z))
            if layer == "cnot":
                logical = cc.css.logical_cnot_layer()
            else:
                logical = cc.css.repeated_measurement_layer(int(layer.split(":")[1]))
            return cc.css.assemble_physical(code, logical)

        def check_assemble(asm):
            a, b, l_rows = asm.a.rows, asm.b.rows, asm.l.rows
            expect(all(orthogonal(a, v) for v in b + l_rows), "B or L row not in ker A")
            expect(rank(b + l_rows) == len(b) + len(l_rows), "rows of B and L are dependent")
            known.update(asm=asm, b=b, l=l_rows)
            self.sizes[group] = self.sizes.get(group, 0) + asm.a.n_cols

        yield Step(f"{group} {layer} assemble", group, assemble, check_assemble)

        def capped():
            return cc.distance.circuit_distance(known["asm"].b, known["asm"].l, d - 1)

        def check_capped(res):
            expect(not res.exact and res.max_weight == d - 1,
                   f"cap {d - 1}: got {res}, want lower bound only")
            expect(res.enumerated > 0, "capped search enumerated nothing")

        def exact():
            return cc.distance.circuit_distance(known["asm"].b, known["asm"].l, d)

        def check_exact(res):
            expect(res.exact and res.value == d, f"cap {d}: got {res}, want exactly {d}")
            w = res.witness.bits
            expect(w.bit_count() == d, "witness weight differs from the distance")
            expect(orthogonal(known["b"], w), "witness violates a B check")
            expect(not orthogonal(known["l"], w), "witness is not a logical error")

        if "asm" not in known:
            return
        yield Step(f"{group} {layer} distance cap {d - 1}", group, capped, check_capped)
        yield Step(f"{group} {layer} distance cap {d}", group, exact, check_exact)


WORKLOADS: dict[str, type[Workload]] = {
    "analyse-rep": AnalyseRep,
    "synth-roundtrip": SynthRoundtrip,
    "codeword-fuzz": CodewordFuzz,
    "css-distance": CssDistance,
}
