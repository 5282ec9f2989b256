"""Benchmark of the circuit -> code -> circuit pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload analyse-rep --seed 1 --seconds 30 --trace 0

The run imports circuitcode from src/ of the checkout, sets up the
workload's inputs several times (``setup_s`` is their median), then makes
timed passes over the workload's fixed item set until ``--seconds`` have
gone by, checking every output against its known answer. With ``--trace 0``
the last line of stdout is the JSON record of the end-to-end metrics. With
``--trace 1`` the first half of the time is untraced and the second half
runs with spans around each module's entry points; the record then holds the
per-layer metrics, and the spans are written to
``.perfbench/spans-<workload>-seed<seed>.tsv``. Lines before the record are
a human-readable summary. The exit code is 2 when circuitcode cannot be
imported from the checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracing import SPANS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

MODULES = (
    "gf2", "circuit", "pauli", "tanner", "codewords", "pauli_sim",
    "distance", "splitting", "synthesis", "css", "cli",
)
SETUPS = 9  # set-ups per run; setup_s is their median
MIN_PASSES = 3  # per untraced run; a traced run makes at least 2 of each kind

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "item_p50_ms": "ms",
    "item_p99_ms": "ms",
    "growth_slope": "log/log",
}
COUNTS = {
    "tanner.bits": "count",
    "tanner.checks": "count",
    "tanner.splits": "count",
    "gf2.elim_calls": "count",
    "gf2.elim_rows": "count",
    "gf2.text_bytes": "bytes",
    "codewords.kernel_dim": "count",
    "distance.nodes": "count",
    "pauli_sim.codewords": "count",
    "pauli_sim.gate_calls": "count",
    "splitting.bits_after": "count",
    "synthesis.qubits": "count",
    "synthesis.layers": "count",
    "css.cols": "count",
}
PER_LAYER = {
    **{("cli.self_s" if name == "cli" else f"{name}_s"): "s" for name in SPANS},
    **COUNTS,
    "codewords.l_accept_ratio": "ratio",
    "distance.nodes_per_s": "1/s",
    "trace.overhead": "ratio",
}


def import_circuitcode() -> SimpleNamespace:
    """A fresh import of every circuitcode module from the checkout's src/."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m.split(".")[0] == "circuitcode"]:
        del sys.modules[name]
    cc = SimpleNamespace(
        **{m: importlib.import_module(f"circuitcode.{m}") for m in MODULES}
    )
    if not Path(cc.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"circuitcode imported from {cc.cli.__file__}, not {SRC}")
    return cc


@dataclass
class Pass:
    """Timings and outcomes of one pass over the item set."""

    wall: float = 0.0
    groups: dict[str, float] = field(default_factory=dict)  # seconds per size class
    latencies: dict[str, float] = field(default_factory=dict)  # seconds per item
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def run_pass(workload, cc, tracer: Tracer | None) -> Pass:
    result = Pass()
    for step in workload.steps(cc):
        if tracer is not None:
            tracer.item += 1
            tracer.active = True
        start = perf_counter()
        try:
            try:
                out = step.run()
            finally:
                elapsed = perf_counter() - start
                if tracer is not None:
                    tracer.active = False
            step.check(out)
        except Exception as exc:  # a failing step is counted, and the pass goes on
            result.failures.append(f"{step.name}: {type(exc).__name__}: {exc}")
        result.attempted += 1
        result.wall += elapsed
        result.groups[step.group] = result.groups.get(step.group, 0.0) + elapsed
        if step.item:
            result.latencies[step.name] = elapsed
    return result


def run_passes(workload, cc, seconds: float, min_passes: int, tracer=None):
    """Passes until ``seconds`` have gone by, to within half a pass."""
    passes, per_pass, durations = [], [], []
    start = perf_counter()
    while len(passes) < min_passes or (
        perf_counter() - start + statistics.median(durations) / 2 < seconds
    ):
        gc.collect()  # garbage of set-up and earlier passes is not charged to this pass
        begun = perf_counter()
        first = tracer.begin_pass() if tracer else 0
        passes.append(run_pass(workload, cc, tracer))
        if tracer:
            per_pass.append((tracer.self_times(first), dict(tracer.counts)))
        durations.append(perf_counter() - begun)
    return passes, per_pass


def growth_slope(passes: list[Pass], sizes: dict[str, int]) -> float:
    """Least-squares slope of log(median seconds per size class) on log(size)."""
    points = [
        (math.log(sizes[g]), math.log(statistics.median(p.groups[g] for p in passes)))
        for g in passes[0].groups
        if sizes.get(g, 0) > 0
    ]
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def end_to_end(passes, setup_times, sizes):
    # each item's latency is its median over the passes, so that host noise
    # does not reorder the items; the percentiles are taken over the item set
    items = [statistics.median(p.latencies[name] for p in passes) for name in passes[0].latencies]
    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "item_p50_ms": statistics.median(items) * 1e3,
        "item_p99_ms": statistics.quantiles(items, n=100, method="inclusive")[98] * 1e3,
        "growth_slope": growth_slope(passes, sizes),
    }, len(items)


def per_layer(untraced, traced, per_pass):
    times = {
        name: statistics.median(t[name] for t, _ in per_pass) for name in per_pass[0][0]
    }
    counts = per_pass[-1][1]
    metrics = {("cli.self_s" if n == "cli" else f"{n}_s"): v for n, v in times.items()}
    metrics.update({name: counts.get(name, 0) for name in COUNTS})
    kept, tested = counts.get("codewords.l_kept", 0), counts.get("codewords.l_candidates", 0)
    metrics["codewords.l_accept_ratio"] = kept / tested if tested else 0.0
    search = metrics["distance.search_s"]
    metrics["distance.nodes_per_s"] = metrics["distance.nodes"] / search if search else 0.0
    metrics["trace.overhead"] = statistics.median(p.wall for p in traced) / statistics.median(
        p.wall for p in untraced
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "circuitcode" / "__init__.py").is_file():
        print(f"error: no circuitcode package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    workload = WORKLOADS[args.workload]()
    setup_times = []
    for _ in range(SETUPS):
        start = perf_counter()
        try:
            cc = import_circuitcode()
        except ImportError as exc:
            print(f"error: cannot import circuitcode: {exc}", file=sys.stderr)
            return 2
        workload.setup(cc, args.seed, workdir)
        setup_times.append(perf_counter() - start)

    failures: list[str] = []
    if args.trace:
        untraced, _ = run_passes(workload, cc, args.seconds / 2, 2)
        tracer = Tracer()
        tracer.install(cc)
        traced, per_pass = run_passes(workload, cc, args.seconds / 2, 2, tracer)
        passes = untraced + traced
        if any(counts != per_pass[0][1] for _, counts in per_pass):
            failures.append("work counts differ between traced passes")
        metrics = per_layer(untraced, traced, per_pass)
        units = PER_LAYER
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write(spans_file)
    else:
        passes, _ = run_passes(workload, cc, args.seconds, MIN_PASSES)
        metrics, samples = end_to_end(passes, setup_times, workload.sizes)
        units = END_TO_END

    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    failures += [message for p in passes for message in p.failures]

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}:"
          f" {len(passes)} passes, {attempted} steps, failed_frac {failed}/{attempted}")
    print("pass seconds: " + " ".join(f"{p.wall:.4f}" for p in passes))
    print("set-up seconds: " + " ".join(f"{t:.4f}" for t in setup_times))
    for message in failures[:5]:
        print(f"FAIL {message}")
    if args.trace:
        wall = statistics.median(p.wall for p in traced)
        print(f"traced pass {wall:.4f} s; self time share of the traced pass:")
        for name, unit in units.items():
            share = f"  {metrics[name] / wall:6.1%}" if unit == "s" else ""
            print(f"  {name:28s} {metrics[name]:>16.6g} {unit}{share}")
        outside = statistics.median(
            p.wall - sum(times.values()) for p, (times, _) in zip(traced, per_pass)
        )
        print(f"  {'(outside any span)':28s} {outside:>16.6g} s  {outside / wall:6.1%}")
        print(f"spans written to {spans_file.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    else:
        print(f"  ({len(passes)} passes of {samples} items, {SETUPS} set-ups)")
        for name, unit in units.items():
            print(f"  {name:14s} {metrics[name]:>12.6g} {unit}")

    record = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
