"""Every entry point the benchmark's tracer wraps exists in circuitcode.

``perfbench/tracing.py`` names the functions and methods it wraps as strings,
so a rename or deletion in ``src/`` would only show when a traced benchmark
run fails. The file imports only the standard library, so it is loaded here
by path.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(path):
    module, *names = path
    obj = importlib.import_module(f"circuitcode.{module}")
    for name in names:
        obj = getattr(obj, name, None)
    return obj


def test_every_traced_entry_point_is_a_callable():
    tracing = _load_tracing()
    paths = [path for paths in tracing.SPANS.values() for path in paths]
    paths += tracing.GATES
    assert len(paths) > len(tracing.SPANS)
    missing = [".".join(path) for path in paths if not callable(_resolve(path))]
    assert missing == []
