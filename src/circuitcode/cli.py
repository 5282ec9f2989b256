"""Command-line front end.

Every subcommand is a thin shell over the library; outputs are byte-stable
for identical inputs and seeds. Exit codes: 0 success, 1 domain error,
2 usage error.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from . import codewords as cw
from . import pauli_sim as sim
from .circuit import CircuitError, parse_circuit, serialize
from .css import assemble_physical, derive_logicals, logical_cnot_layer, repeated_measurement_layer
from .distance import circuit_distance, half_distance_bound
from .gf2 import (
    BitMatrix,
    read_alist,
    read_matrix_text,
    write_alist,
    write_matrix_text,
)
from .pauli import PauliOperator
from .splitting import read_plan, symmetric_split, trivial_plan
from .synthesis import (
    greedy_partition,
    read_partition,
    roundtrip_check,
    synthesize,
    trivial_partition,
    write_partition,
)
from .tanner import (
    SymmetryWitness,
    TannerGraph,
    build_plain,
    export_dot,
    graph_from_matrix,
    read_labels,
    read_witness,
    symmetrize,
    verify_symmetry,
    write_labels,
    write_witness,
)


def _read_circuit(path: str):
    return parse_circuit(Path(path).read_text())


def _read_matrix(path: str) -> BitMatrix:
    text = Path(path).read_text()
    if path.endswith(".alist"):
        return read_alist(text)
    return read_matrix_text(text)


def _write_matrix(path: Path, m: BitMatrix, alist: bool = False):
    path.write_text(write_alist(m) if alist else write_matrix_text(m))


def _bundle(prefix: str, ext: str) -> Path:
    return Path(prefix + ext)


def _save_graph(prefix: str, g: TannerGraph, w: SymmetryWitness | None, alist: bool):
    _write_matrix(_bundle(prefix, ".A.alist" if alist else ".A.txt"), g.check_matrix(), alist)
    _bundle(prefix, ".labels").write_text(write_labels(g))
    if w is not None:
        _bundle(prefix, ".witness").write_text(write_witness(g, w))


def _load_graph(prefix: str) -> tuple[TannerGraph, SymmetryWitness | None]:
    if _bundle(prefix, ".A.txt").exists():
        a = read_matrix_text(_bundle(prefix, ".A.txt").read_text())
    else:
        a = read_alist(_bundle(prefix, ".A.alist").read_text())
    labels = None
    if _bundle(prefix, ".labels").exists():
        labels = read_labels(_bundle(prefix, ".labels").read_text())
    g = graph_from_matrix(a, labels)
    w = None
    if _bundle(prefix, ".witness").exists():
        w = read_witness(_bundle(prefix, ".witness").read_text())
        in_range = all(0 <= c < g.n_checks for c in w.dual) and all(
            0 <= v < g.n_bits for v in (*w.dual.values(), *w.long_terminals)
        )
        if not in_range:
            raise ValueError(
                f"witness names a check or bit outside the {g.n_checks}x{g.n_bits} graph"
            )
    return g, w


def _parse_paulis(labels: str, n: int) -> list[PauliOperator]:
    if not labels:
        return []
    return [PauliOperator.from_label(tok, n) for tok in labels.split(",") if tok]


def cmd_build_tanner(args) -> int:
    circuit = _read_circuit(args.circuit)
    g = build_plain(circuit)
    _save_graph(args.out_prefix, g, None, args.alist)
    print(f"{g.n_checks} {g.n_bits}")
    return 0


def cmd_symmetrize(args) -> int:
    circuit = _read_circuit(args.circuit)
    g = build_plain(circuit)
    g2, w, _ = symmetrize(g, circuit)
    problems = verify_symmetry(g2, w)
    if problems:
        raise ValueError("symmetrisation failed: " + problems[0])
    _save_graph(args.out_prefix, g2, w, args.alist)
    print(f"{g2.n_checks} {g2.n_bits} splits {g2.n_bits - g.n_bits}")
    return 0


def cmd_classify(args) -> int:
    circuit = _read_circuit(args.circuit)
    g = build_plain(circuit)
    spaces = cw.code_spaces(g)
    for i, v in enumerate(spaces.kernel.row_vectors()):
        kind = cw.classify(g, v)
        s_in = PauliOperator.from_xz_vector(spaces.xz_in.row(i)).label()
        s_out = PauliOperator.from_xz_vector(spaces.xz_out.row(i)).label()
        rel = len(cw.relevant_measurements(g, v))
        print(f"{i} {kind} in={s_in} out={s_out} measurements={rel}")
    print(
        f"dimensions codewords={spaces.kernel.n_rows}"
        f" checkers={spaces.checkers.n_rows}"
        f" with-detectors={spaces.with_detectors.n_rows}"
        f" with-emitters={spaces.with_emitters.n_rows}"
        f" incoherent={spaces.incoherent.n_rows}"
    )
    return 0


def cmd_ec_matrices(args) -> int:
    if args.complete and (args.s_in is not None or args.s_out is not None):
        raise UsageError("--complete takes no --s-in or --s-out")
    circuit = _read_circuit(args.circuit)
    g = build_plain(circuit)
    if args.complete:
        ec = cw.complete_ec_structure(g)
    else:
        s_in = _parse_paulis(args.s_in or "", circuit.n_qubits)
        s_out = _parse_paulis(args.s_out or "", circuit.n_qubits)
        ec = cw.build_ec_structure(g, s_in, s_out)
    _write_matrix(_bundle(args.out_prefix, ".B.txt"), ec.b)
    _write_matrix(_bundle(args.out_prefix, ".L.txt"), ec.l)
    _bundle(args.out_prefix, ".labels").write_text(write_labels(g))
    print(f"B {ec.b.n_rows} L {ec.l.n_rows}")
    for p in ec.s_in:
        print(f"s_in {p.label()}")
    for p in ec.s_out:
        print(f"s_out {p.label()}")
    return 0


def cmd_distance(args) -> int:
    b = _read_matrix(args.b)
    l = _read_matrix(args.l)
    if l.is_zero():
        raise ValueError("L has no nonzero row, so no logical error exists")
    names = None
    if args.labels:
        labels = read_labels(Path(args.labels).read_text())
        if len(labels) != b.n_cols:
            raise ValueError(f"{len(labels)} labels for the {b.n_cols} columns of B")
        names = [lab.name for lab in labels]
    res = circuit_distance(b, l, args.max_weight)
    if res.exact:
        print(res.value)
        print(f"bound {half_distance_bound(res.value)}")
        support = res.witness.support()
        shown = [names[j] if names else str(j) for j in support]
        print(f"witness {' '.join(shown)}")
    else:
        print(f">{res.max_weight}")
        print("witness none (lower bound only)")
    print(f"enumerated {res.enumerated}")
    return 0


def cmd_verify(args) -> int:
    circuit = _read_circuit(args.circuit)
    g = build_plain(circuit)
    basis = g.kernel_basis()
    rng = random.Random(args.seed)
    failures = 0
    for i, v in enumerate(basis.row_vectors()):
        verdict = sim.verify_codeword_equation(
            circuit, g, v, None, seed=rng.randrange(1 << 30), trials=args.states
        )
        status = "ok" if verdict.ok else "FAIL"
        print(f"{i} {verdict.codeword_class} nu={verdict.nu_sign:+d} {status}")
        if not verdict.ok:
            failures += 1
            print(verdict.report(circuit, v, None), file=sys.stderr)
    if failures:
        raise ValueError(f"{failures} codeword equations violated")
    print(f"verified {basis.n_rows} codewords")
    return 0


def cmd_split(args) -> int:
    g, w = _load_graph(args.graph)
    if w is None:
        raise ValueError("symmetric splitting needs a witness file")
    if args.plan:
        plan = read_plan(g, Path(args.plan).read_text())
    else:
        plan = trivial_plan(g, w)
    g2, w2, _ = symmetric_split(g, w, plan)
    _save_graph(args.out_prefix, g2, w2, args.alist)
    print(f"{g2.n_checks} {g2.n_bits}")
    return 0


def cmd_synthesize(args) -> int:
    if (args.b is None) != (args.l is None):
        raise UsageError("--b and --l go together")
    if args.b is not None and not args.check:
        raise UsageError("--b and --l need --check")
    if args.partition and args.greedy:
        raise UsageError("--partition and --greedy exclude each other")
    g, w = _load_graph(args.graph)
    if w is None:
        raise ValueError("synthesis needs a witness file")
    problems = verify_symmetry(g, w)
    if problems:
        raise ValueError("the witness is not a symmetry witness: " + problems[0])
    if args.partition:
        partition = read_partition(g, Path(args.partition).read_text())
    elif args.greedy:
        partition = greedy_partition(g, w)
    else:
        partition = trivial_partition(g, w)
    if args.check and args.b is not None:
        b, l = _read_matrix(args.b), _read_matrix(args.l)
    elif args.check:
        ec = cw.complete_ec_structure(g)
        b, l = ec.b, ec.l
    result = synthesize(g, w, partition)
    Path(args.out).write_text(serialize(result.circuit))
    if args.emit_partition:
        Path(args.emit_partition).write_text(write_partition(g, w, partition))
    print(f"qubits {result.circuit.n_qubits} layers {result.circuit.depth}")
    if args.check:
        report = roundtrip_check(g, result, b, l, args.max_weight)
        print(f"roundtrip {'ok' if report.ok else 'FAILED'}")
        print(f"distance {report.distance_before} -> {report.distance_after}")
        if not report.ok:
            raise ValueError("roundtrip check failed")
    return 0


def cmd_css_gen(args) -> int:
    if args.layer.startswith("rep:"):
        text = args.layer[len("rep:"):]
        try:
            cycles = int(text)
        except ValueError:
            cycles = 0
        if not 1 <= cycles <= MAX_CYCLES:
            raise UsageError(f"--layer rep:<m> needs m in 1..{MAX_CYCLES}, got {text!r}")
        layer = repeated_measurement_layer(cycles)
    elif args.layer == "cnot":
        layer = logical_cnot_layer()
    else:
        raise UsageError(f"unknown layer {args.layer!r} (use rep:<m> or cnot)")
    code = derive_logicals(_read_matrix(args.gx), _read_matrix(args.gz))
    asm = assemble_physical(code, layer)
    # each check's dual is the lowest bit its column of D selects
    dual = {
        check: (col.bits & -col.bits).bit_length() - 1
        for check, col in enumerate(asm.d.transpose().row_vectors())
    }
    long_bits = frozenset(range(asm.d.n_rows)) - set(dual.values())
    w = SymmetryWitness(dual, long_bits)
    _save_graph(args.out_prefix, graph_from_matrix(asm.a), w, alist=False)
    _write_matrix(_bundle(args.out_prefix, ".D.txt"), asm.d)
    _write_matrix(_bundle(args.out_prefix, ".B.txt"), asm.b)
    _write_matrix(_bundle(args.out_prefix, ".L.txt"), asm.l)
    print(f"n {code.n} k {code.k} A {asm.a.n_rows}x{asm.a.n_cols}")
    return 0


def cmd_export_dot(args) -> int:
    if args.graph and args.symmetric:
        raise UsageError("--symmetric needs --circuit; a --graph bundle is drawn as it is")
    if args.circuit:
        circuit = _read_circuit(args.circuit)
        g = build_plain(circuit)
        if args.symmetric:
            g, w, _ = symmetrize(g, circuit)
    else:
        g, _ = _load_graph(args.graph)
    Path(args.out).write_text(export_dot(g))
    print(f"nodes {g.n_bits + g.n_checks}")
    return 0


class UsageError(ValueError):
    pass


# the most random input states `verify` prepares per codeword
MAX_STATES = 1000
# the most measurement cycles `css-gen --layer rep:<m>` assembles; assembly
# time grows as the square of the cycle count
MAX_CYCLES = 100


def _int_in(low: int, high: int | None, what: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low or (high is not None and value > high):
            raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
        return value

    return parse


_non_negative_int = _int_in(0, None, "non-negative")
_state_count = _int_in(1, MAX_STATES, f"in 1..{MAX_STATES}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circuitcode",
        description="Stabiliser circuits as classical LDPC codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-tanner", help="plain Tanner graph of a circuit")
    p.add_argument("--circuit", required=True)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--alist", action="store_true")
    p.set_defaults(func=cmd_build_tanner)

    p = sub.add_parser("symmetrize", help="symmetric Tanner graph with witness")
    p.add_argument("--circuit", required=True)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--alist", action="store_true")
    p.set_defaults(func=cmd_symmetrize)

    p = sub.add_parser("classify", help="classify the kernel basis codewords")
    p.add_argument("--circuit", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("ec-matrices", help="error-correction and logical matrices")
    p.add_argument("--circuit", required=True)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--s-in", dest="s_in", help="comma-separated Pauli labels")
    p.add_argument("--s-out", dest="s_out", help="comma-separated Pauli labels")
    p.add_argument("--complete", action="store_true", help="maximal B and L")
    p.set_defaults(func=cmd_ec_matrices)

    p = sub.add_parser("distance", help="circuit code distance from B and L")
    p.add_argument("--b", required=True, dest="b")
    p.add_argument("--l", required=True, dest="l")
    p.add_argument("--labels", help="column sidecar for a labelled witness")
    p.add_argument("--max-weight", type=_non_negative_int, default=6)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("verify", help="verify all codeword equations")
    p.add_argument("--circuit", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--states", type=_state_count, default=4)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("split", help="symmetric splitting with a plan")
    p.add_argument("--graph", required=True, help="graph bundle prefix")
    p.add_argument("--plan")
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--alist", action="store_true")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("synthesize", help="stabiliser circuit from a symmetric graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--partition")
    p.add_argument("--greedy", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--emit-partition")
    p.add_argument("--check", action="store_true")
    p.add_argument("--b", dest="b")
    p.add_argument("--l", dest="l")
    p.add_argument("--max-weight", type=_non_negative_int, default=5)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("css-gen", help="closed-form matrices for a CSS code")
    p.add_argument("--gx", required=True)
    p.add_argument("--gz", required=True)
    p.add_argument("--layer", required=True, help="rep:<m> or cnot")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_css_gen)

    p = sub.add_parser("export-dot", help="DOT drawing of a Tanner graph")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--circuit")
    group.add_argument("--graph")
    p.add_argument("--symmetric", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (CircuitError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
