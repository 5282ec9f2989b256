"""The README's code blocks run as written."""

import re
from pathlib import Path

from tests.test_circuit import ZZ_TEXT

README = Path(__file__).resolve().parent.parent / "README.md"


def test_typical_round_trip_runs_on_zz(tmp_path, monkeypatch):
    text = README.read_text()
    (block,) = re.findall(r"A typical round trip:\n\n```python\n(.*?)^```", text, re.M | re.S)
    (tmp_path / "zz.qc").write_text(ZZ_TEXT)
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert scope["report"].ok
    assert scope["report"].code_dimension == scope["plain"].kernel_basis().n_rows
