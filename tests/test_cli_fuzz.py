"""Seeded mutation fuzz over every kind of CLI input file.

The ZZ example's circuit and the files the CLI derives from it are corrupted
one at a time, and the commands that read each file are run on the result.
Every case must end in exit code 0, 1 or 2; an exception escaping ``main``
would reach the user as a Python traceback.
"""

import random

from circuitcode import codewords
from circuitcode.circuit import parse_circuit
from circuitcode.cli import main
from circuitcode.gf2 import read_matrix_text, write_alist, write_matrix_text
from circuitcode.splitting import trivial_plan, write_plan
from circuitcode.tanner import build_plain, symmetrize
from tests.test_circuit import ZZ_TEXT

# replacements for one whitespace-separated token: small and negative counts,
# indices past every range, a count far over any bound, and non-numbers
TOKENS = ["0", "1", "2", "3", "5", "-1", "99", "1000000000000", "x", "1.5", "", "c0", "x[1,0]", ":"]
CHARS = " 01-x:[],\n"


def _bundle(d, run):
    """Write the ZZ example's input files into d: the circuit, its symmetric
    graph bundle, a split plan, a partition, and dense and alist B/L."""
    (d / "zz.qc").write_text(ZZ_TEXT)
    assert run(["symmetrize", "--circuit", d / "zz.qc", "--out-prefix", d / "sym"]) == 0
    assert run(["synthesize", "--graph", d / "sym", "--out", d / "out.qc",
                "--emit-partition", d / "sym.part"]) == 0
    assert run(["ec-matrices", "--circuit", d / "zz.qc", "--out-prefix", d / "ec",
                "--complete"]) == 0
    c = parse_circuit(ZZ_TEXT)
    g, w, _ = symmetrize(build_plain(c), c)
    (d / "sym.plan").write_text(write_plan(g, trivial_plan(g, w)))
    ec = codewords.complete_ec_structure(g)
    (d / "symB.txt").write_text(write_matrix_text(ec.b))
    (d / "symL.txt").write_text(write_matrix_text(ec.l))
    for name in ("B", "L"):
        m = read_matrix_text((d / f"ec.{name}.txt").read_text())
        (d / f"ec.{name}.alist").write_text(write_alist(m))


def _commands(d):
    """Input file -> the commands that read it."""
    out = d / "out"
    circuit = [
        ["build-tanner", "--circuit", d / "zz.qc", "--out-prefix", out],
        ["classify", "--circuit", d / "zz.qc"],
        ["verify", "--circuit", d / "zz.qc", "--seed", "1", "--states", "1"],
        ["symmetrize", "--circuit", d / "zz.qc", "--out-prefix", out],
        ["ec-matrices", "--circuit", d / "zz.qc", "--out-prefix", out, "--complete"],
        ["export-dot", "--circuit", d / "zz.qc", "--symmetric", "--out", d / "out.dot"],
    ]
    graph = [
        ["split", "--graph", d / "sym", "--out-prefix", out],
        ["synthesize", "--graph", d / "sym", "--out", d / "out.qc"],
        ["export-dot", "--graph", d / "sym", "--out", d / "out.dot"],
    ]
    distance = ["distance", "--b", d / "ec.B.txt", "--l", d / "ec.L.txt", "--max-weight", "3"]
    distance_alist = ["distance", "--b", d / "ec.B.alist", "--l", d / "ec.L.alist",
                      "--max-weight", "3"]
    check = ["synthesize", "--graph", d / "sym", "--out", d / "out.qc", "--check",
             "--b", d / "symB.txt", "--l", d / "symL.txt", "--max-weight", "2"]
    return {
        "zz.qc": circuit,
        "sym.A.txt": graph,
        "sym.labels": graph,
        "sym.witness": graph[:2],
        "sym.plan": [["split", "--graph", d / "sym", "--plan", d / "sym.plan",
                      "--out-prefix", out]],
        "sym.part": [["synthesize", "--graph", d / "sym", "--partition", d / "sym.part",
                      "--out", d / "out.qc"]],
        "ec.B.txt": [distance],
        "ec.L.txt": [distance],
        "ec.B.alist": [distance_alist],
        "ec.L.alist": [distance_alist],
        "ec.labels": [distance + ["--labels", d / "ec.labels"]],
        "symB.txt": [check],
        "symL.txt": [check],
    }


def _mutate(text, rng):
    """One random corruption of a text file."""
    lines = text.splitlines(keepends=True) or ["\n"]
    j = rng.randrange(len(lines))
    kind = rng.randrange(8)
    if kind == 0:
        del lines[j]
    elif kind == 1:
        lines.insert(rng.randrange(len(lines) + 1), lines[j])
    elif kind == 2:
        k = rng.randrange(len(lines))
        lines[j], lines[k] = lines[k], lines[j]
    elif kind == 3:
        tokens = lines[j].split()
        if tokens:
            tokens[rng.randrange(len(tokens))] = rng.choice(TOKENS)
        lines[j] = " ".join(tokens) + "\n"
    elif kind == 4:
        return text[: rng.randrange(len(text) + 1)]
    elif kind == 5:
        at = rng.randrange(len(text) + 1)
        return text[:at] + rng.choice(CHARS) + text[at:]
    elif kind == 6:
        at = rng.randrange(max(len(text), 1))
        return text[:at] + text[at + 1 :]
    else:
        return ""
    return "".join(lines)


def test_mutated_input_files_never_raise_out_of_main(tmp_path, capsys):
    def run(args):
        code = main([str(a) for a in args])
        capsys.readouterr()
        return code

    _bundle(tmp_path, run)
    commands = _commands(tmp_path)
    originals = {name: (tmp_path / name).read_text() for name in commands}
    rng = random.Random(71)
    failures = []
    for case in range(200):
        name = rng.choice(sorted(commands))
        text = originals[name]
        for _ in range(rng.choice((1, 1, 2))):
            text = _mutate(text, rng)
        (tmp_path / name).write_text(text)
        args = rng.choice(commands[name])
        try:
            code = run(args)
        except Exception as exc:  # a traceback for the user
            failures.append((case, name, text, args[0], repr(exc)))
        else:
            if code not in (0, 1, 2):
                failures.append((case, name, text, args[0], code))
        (tmp_path / name).write_text(originals[name])
    assert failures == []
