"""Every public function, method and property of circuitcode has a caller.

A public name that only the tests call is library surface the program does
not use: it must be kept working, documented and reviewed for nothing. The
test reads ``src/circuitcode/*.py`` with ``ast`` and counts the uses of each
public module-level function and class-level method or property in code:
every ``ast.Name``, ``ast.Attribute`` and import alias in the program
(``src/``) and the benchmark (``perfbench/``), plus every word inside a
fenced block of ``README.md``. Prose and ``def`` lines are not uses.
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
    "bit_split": "paper-facing: the code-preserving bit split that symmetrize applies at every junction; acceptance criterion 5 folds it",
    "find_anticommuting_partner": "paper-facing: the anticommuting genuine propagator every genuine propagator has, on both boundaries",
    "Tableau.apply_swap": "perfbench/tracing.py wraps the gate methods by the built name apply_{g}",
    "write_alist": "perfbench/tracing.py wraps the text formats by name; the CLI writes alist bundles from the checks with alist_text",
    "read_matrix_text": "perfbench/tracing.py wraps the text formats by name; the CLI streams dense matrix files through read_matrix_supports",
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


def uses() -> Counter:
    counts: Counter = Counter()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                counts[node.id] += 1
            elif isinstance(node, ast.Attribute):
                counts[node.attr] += 1
            elif isinstance(node, ast.alias):
                counts[node.name.rsplit(".", 1)[-1]] += 1
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.M | re.S):
        counts.update(re.findall(r"\w+", block))
    return counts


def uncalled() -> list[str]:
    counts = uses()
    return [
        qualified
        for qualified, name in public_definitions()
        if not name.startswith("_") and counts[name] <= 0
    ]


def test_definitions_are_found():
    names = {qualified for qualified, _ in public_definitions()}
    assert {"BitMatrix.rref", "TannerGraph.n_bits", "parse_circuit", *KEEP} <= names


def test_uses_count_code_not_prose():
    counts = uses()
    assert counts["build_plain"] > 0  # called in src/
    assert counts["rep_memory_circuit"] > 0  # called in perfbench/
    assert counts["trivial_partition"] > 0  # imported and called in the README round trip
    # "phase" is a word of docstrings, messages and README prose only
    assert counts["phase_exp"] > 0 and counts["phase"] == 0


def test_every_public_name_has_a_caller():
    assert sorted(set(uncalled()) - set(KEEP)) == []


def test_keep_list_names_no_called_name():
    # an entry whose name has since gained a caller no longer needs keeping
    assert sorted(set(KEEP) - set(uncalled())) == []
