"""Spans around the public entry points of each circuitcode module.

The wrappers are installed from outside: module attributes and class methods
are replaced by timing wrappers, and nothing under src/ is edited. Names that
other modules bound with ``from ... import`` are replaced as well, so a call
made by ``circuitcode.cli`` records the same span as a direct call.

A span is (name, start, end, parent, item). Spans are kept in memory and
written out by ``Tracer.write`` when the run ends. A layer's self time is its
spans' durations minus the time covered by their child spans.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from time import perf_counter

# span name -> entry points it covers: (module, function) or (module, class, method)
SPANS: dict[str, list[tuple[str, ...]]] = {
    "cli": [("cli", "main")],
    "circuit.parse": [("circuit", "parse_circuit")],
    "tanner.build_plain": [("tanner", "build_plain")],
    "tanner.symmetrize": [("tanner", "symmetrize"), ("tanner", "verify_symmetry")],
    "gf2.elim": [
        ("gf2", "BitMatrix", m)
        for m in ("rref", "rank", "kernel_basis", "row_space_member", "solve", "inverse")
    ],
    "gf2.text_io": [
        ("gf2", f) for f in ("read_matrix_text", "write_matrix_text", "read_alist", "write_alist")
    ],
    "codewords.code_spaces": [("codewords", "code_spaces")],
    "codewords.ec": [("codewords", "build_ec_structure"), ("codewords", "complete_ec_structure")],
    "codewords.classify": [("codewords", "classify")],
    "distance.search": [("distance", "circuit_distance")],
    "pauli_sim.verify": [("pauli_sim", "verify_codeword_equation")],
    "pauli_sim.random_tableau": [("pauli_sim", "random_tableau")],
    "pauli_sim.run": [("pauli_sim", "run")],
    "splitting.split": [("splitting", "symmetric_split")],
    "synthesis.synthesize": [("synthesis", "synthesize")],
    "synthesis.roundtrip": [("synthesis", "roundtrip_check")],
    "css.assemble": [("css", "derive_logicals"), ("css", "assemble_physical")],
}

# calls counted without a span; their time stays in the caller's self time
GATES = [("pauli_sim", "Tableau", f"apply_{g}") for g in ("h", "s", "cnot", "swap", "pauli")]


def _count_text(counts, args, result):
    counts["gf2.text_bytes"] += len(result) if isinstance(result, str) else len(args[0])


def _count_elim(counts, args, result):
    counts["gf2.elim_calls"] += 1
    counts["gf2.elim_rows"] += args[0].n_rows


def _count_plain(counts, args, g):
    counts["tanner.bits"] += g.n_bits
    counts["tanner.checks"] += g.n_checks


def _count_complete_ec(counts, args, ec):
    # the candidates rank-tested for L are the kernel basis rows, and B and L
    # together span the kernel, so their row counts add up to the candidates
    counts["codewords.l_kept"] += ec.l.n_rows
    counts["codewords.l_candidates"] += ec.b.n_rows + ec.l.n_rows


# exact work counts recorded at the entry points: (module, name) -> hook
HOOKS = {
    ("tanner", "build_plain"): _count_plain,
    ("tanner", "symmetrize"): lambda c, a, r: c.update({"tanner.splits": r[0].n_bits - a[0].n_bits}),
    ("codewords", "complete_ec_structure"): _count_complete_ec,
    ("distance", "circuit_distance"): lambda c, a, r: c.update({"distance.nodes": r.enumerated}),
    ("pauli_sim", "verify_codeword_equation"): lambda c, a, r: c.update({"pauli_sim.codewords": 1}),
    ("splitting", "symmetric_split"): lambda c, a, r: c.update({"splitting.bits_after": r[0].n_bits}),
    ("synthesis", "synthesize"): lambda c, a, r: c.update(
        {"synthesis.qubits": r.circuit.n_qubits, "synthesis.layers": r.circuit.depth}
    ),
    ("css", "assemble_physical"): lambda c, a, r: c.update({"css.cols": r.a.n_cols}),
}
HOOKS.update({("gf2", m): _count_elim for *_, m in SPANS["gf2.elim"]})
HOOKS.update({key: _count_text for key in SPANS["gf2.text_io"]})


class Tracer:
    """Records spans and work counts while ``active`` is set."""

    def __init__(self):
        self.names = list(SPANS)
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.item = -1
        self.active = False
        self._kernels: dict[int, object] = {}

    def install(self, cc) -> None:
        """Wrap every entry point in SPANS and GATES on the modules of ``cc``."""
        modules = vars(cc)
        replaced: dict[int, object] = {}
        for name_id, name in enumerate(self.names):
            for path in SPANS[name]:
                hook = HOOKS.get((path[0], path[-1]))
                if path == ("codewords", "code_spaces"):
                    hook = self._count_kernel
                self._patch(modules, path, replaced, lambda fn: self._span(name_id, fn, hook))
        for path in GATES:
            self._patch(modules, path, replaced, self._counter)
        # rebind names imported with ``from ... import`` in other modules
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in replaced and replaced[id(value)][0] is value:
                    setattr(module, attr, replaced[id(value)][1])

    @staticmethod
    def _patch(modules, path, replaced, make):
        owner = modules[path[0]]
        if len(path) == 3:
            owner = getattr(owner, path[1])
        original = getattr(owner, path[-1])
        wrapper = make(original)
        setattr(owner, path[-1], wrapper)
        replaced[id(original)] = (original, wrapper)

    def _span(self, name_id, fn, hook):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.item)
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return wrapper

    def _counter(self, fn):
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts["pauli_sim.gate_calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_kernel(self, counts, args, spaces):
        # code_spaces caches on the graph; count each kernel it computed once
        if id(spaces) not in self._kernels:
            self._kernels[id(spaces)] = spaces
            counts["codewords.kernel_dim"] += spaces.kernel.n_rows

    def begin_pass(self) -> int:
        self.counts = Counter()
        self._kernels = {}
        return len(self.spans)

    def self_times(self, first: int) -> dict[str, float]:
        """Self time per span name over the spans recorded since ``first``."""
        spans = self.spans[first:]
        covered = [0.0] * len(spans)
        for name_id, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent - first] += end - start
        out = dict.fromkeys(self.names, 0.0)
        for (name_id, start, end, _, _), child in zip(spans, covered):
            out[self.names[name_id]] += end - start - child
        return out

    def write(self, path: Path) -> None:
        with path.open("w") as f:
            f.write("name\tstart_s\tend_s\tparent\titem\n")
            for name_id, start, end, parent, item in self.spans:
                f.write(f"{self.names[name_id]}\t{start:.9f}\t{end:.9f}\t{parent}\t{item}\n")
