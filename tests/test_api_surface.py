"""Every public function, method and property of circuitcode has a caller.

A public name that only the tests call is library surface the program does
not use: it must be kept working, documented and reviewed for nothing. The
test reads ``src/circuitcode/*.py`` with ``ast`` and looks for each public
module-level function and class-level method or property as a whole word in
the program (``src/``), the benchmark (``perfbench/``) and ``README.md``,
not counting its own ``def`` lines.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "circuitcode"

# Names kept although no caller names them, each with its reason.
KEEP = {
    "solve_codeword": "paper-facing: a codeword with given boundary operators and bit values",
    "css_distance": "paper-facing: d_x, d_z and d_css of a CSS pair; the acceptance tests use it",
    "Tableau.apply_swap": "perfbench/tracing.py wraps the gate methods by the built name apply_{g}",
    "Tableau.measure_z": "the row-major reference-tableau test drives the gates by name",
}


def public_definitions():
    """(qualified name, bare name) of every public function, method and property."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                yield node.name, node.name
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield f"{node.name}.{item.name}", item.name


def corpus() -> str:
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py"), ROOT / "README.md"]
    return "\n".join(path.read_text() for path in sorted(files))


def uncalled() -> list[str]:
    text = corpus()
    uses = Counter(re.findall(r"\w+", text))
    uses.subtract(re.findall(r"\bdef (\w+)", text))
    return [
        qualified
        for qualified, name in public_definitions()
        if not name.startswith("_") and uses[name] <= 0
    ]


def test_definitions_are_found():
    names = {qualified for qualified, _ in public_definitions()}
    assert {"BitMatrix.rref", "TannerGraph.n_bits", "parse_circuit", *KEEP} <= names


def test_every_public_name_has_a_caller():
    assert sorted(set(uncalled()) - set(KEEP)) == []


def test_keep_list_names_no_called_name():
    # an entry whose name has since gained a caller no longer needs keeping
    assert sorted(set(KEEP) - set(uncalled())) == []
