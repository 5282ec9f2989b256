import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from circuitcode import cli, synthesis
from circuitcode import codewords as cw
from circuitcode.circuit import MAX_WIRE_BITS, parse_circuit, random_circuit
from circuitcode.cli import main
from circuitcode.gf2 import BitMatrix, read_matrix_text, write_matrix_text
from circuitcode.splitting import random_plan, trivial_plan, write_plan
from circuitcode.tanner import (
    build_plain,
    graph_from_matrix,
    read_labels,
    symmetrize,
    write_labels,
)
from tests.test_circuit import ZZ_TEXT

SRC = Path(__file__).resolve().parent.parent / "src"

STEANE_H = "3 7\n1 0 1 0 1 0 1\n0 1 1 0 0 1 1\n0 0 0 1 1 1 1\n"


@pytest.fixture
def zz_file(tmp_path):
    path = tmp_path / "zz.qc"
    path.write_text(ZZ_TEXT)
    return path


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_no_arguments_usage_error(capsys):
    code, _, _ = run_cli([], capsys)
    assert code == 2


def test_unknown_subcommand(capsys):
    code, _, _ = run_cli(["frobnicate"], capsys)
    assert code == 2


def test_build_tanner_and_dot(zz_file, tmp_path, capsys):
    prefix = tmp_path / "zz"
    code, out, _ = run_cli(
        ["build-tanner", "--circuit", zz_file, "--out-prefix", prefix], capsys
    )
    assert code == 0
    assert (tmp_path / "zz.A.txt").exists()
    assert (tmp_path / "zz.labels").exists()

    code, out, _ = run_cli(
        ["export-dot", "--circuit", zz_file, "--out", tmp_path / "zz.dot"], capsys
    )
    assert code == 0
    assert (tmp_path / "zz.dot").read_text().startswith("graph tanner")


def test_verify_zz(zz_file, capsys):
    code, out, _ = run_cli(
        ["verify", "--circuit", zz_file, "--seed", 7], capsys
    )
    assert code == 0
    assert "verified" in out


def test_verify_requires_seed(zz_file, capsys):
    code, _, _ = run_cli(["verify", "--circuit", zz_file], capsys)
    assert code == 2


def test_classify_zz(zz_file, capsys):
    code, out, _ = run_cli(["classify", "--circuit", zz_file], capsys)
    assert code == 0
    assert "genuine-propagator in=X1X2 out=X1X2" in out
    assert "checkers=1" in out


def test_ec_matrices_and_distance(zz_file, tmp_path, capsys):
    prefix = tmp_path / "ec"
    code, out, _ = run_cli(
        [
            "ec-matrices",
            "--circuit",
            zz_file,
            "--s-in",
            "Z1Z2",
            "--s-out",
            "Z1Z2",
            "--out-prefix",
            prefix,
        ],
        capsys,
    )
    assert code == 0
    assert "B 3 L 2" in out
    code, out, _ = run_cli(
        [
            "distance",
            "--b",
            tmp_path / "ec.B.txt",
            "--l",
            tmp_path / "ec.L.txt",
            "--max-weight",
            3,
        ],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[0] == "1"


def test_css_gen_steane_distance(tmp_path, capsys):
    gx = tmp_path / "gx.txt"
    gx.write_text(STEANE_H)
    gz = tmp_path / "gz.txt"
    gz.write_text(STEANE_H)
    prefix = tmp_path / "steane"
    code, out, _ = run_cli(
        ["css-gen", "--gx", gx, "--gz", gz, "--layer", "rep:2", "--out-prefix", prefix],
        capsys,
    )
    assert code == 0
    assert "n 7 k 1" in out
    code, out, _ = run_cli(
        [
            "distance",
            "--b",
            tmp_path / "steane.B.txt",
            "--l",
            tmp_path / "steane.L.txt",
            "--max-weight",
            3,
        ],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[0] == "3"


def test_symmetrize_split_synthesize_pipeline(zz_file, tmp_path, capsys):
    prefix = tmp_path / "sym"
    code, out, _ = run_cli(
        ["symmetrize", "--circuit", zz_file, "--out-prefix", prefix], capsys
    )
    assert code == 0
    assert (tmp_path / "sym.witness").exists()

    code, out, _ = run_cli(
        ["split", "--graph", prefix, "--out-prefix", tmp_path / "split"], capsys
    )
    assert code == 0
    assert (tmp_path / "split.A.txt").exists()

    out_circ = tmp_path / "synth.qc"
    code, out, _ = run_cli(
        [
            "synthesize",
            "--graph",
            prefix,
            "--out",
            out_circ,
            "--check",
            "--max-weight",
            "2",
        ],
        capsys,
    )
    assert code == 0
    assert "roundtrip ok" in out
    assert out_circ.exists()


def test_domain_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.qc"
    bad.write_text("qubits 1\nmz 1\ntick\nh 1\n")
    code, _, err = run_cli(["classify", "--circuit", bad], capsys)
    assert code == 1
    assert "error" in err


def test_byte_identical_outputs(zz_file, tmp_path):
    # identical inputs and seeds give identical bytes
    results = []
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    for run in range(2):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "circuitcode.cli",
                "verify",
                "--circuit",
                str(zz_file),
                "--seed",
                "11",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        results.append(proc.stdout)
    assert results[0] == results[1]


@pytest.mark.parametrize(
    "alist",
    [
        "3 2\n1 2\n1 1 1\n1 2\n1\n2\n",  # truncated after the column lists
        "3 2\n1 2\n1 1 1\n1 2\n1\n5\n2\n1 0\n2 3\n",  # column 1 names check 5 of 2
        "3 2\n2 2\n1 2 1\n2 2\n1 0\n1 2\n2 0\n1 2\n2 3\n9 9 9\n",  # tokens past the count
    ],
    ids=["truncated", "entry-out-of-range", "trailing-tokens"],
)
def test_distance_rejects_bad_alist(tmp_path, capsys, alist):
    bad = tmp_path / "bad.alist"
    bad.write_text(alist)
    l = tmp_path / "l.txt"
    l.write_text("1 3\n1 1 1\n")
    code, out, err = run_cli(["distance", "--b", bad, "--l", l], capsys)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_negative_max_weight_is_a_usage_error(zz_file, tmp_path, capsys):
    b = tmp_path / "b.txt"
    b.write_text("2 3\n1 1 0\n0 1 1\n")
    l = tmp_path / "l.txt"
    l.write_text("1 3\n1 1 1\n")
    code, out, err = run_cli(
        ["distance", "--b", b, "--l", l, "--max-weight", "-1"], capsys
    )
    assert code == 2
    assert out == "" and "--max-weight" in err
    code, out, _ = run_cli(["distance", "--b", b, "--l", l, "--max-weight", "0"], capsys)
    assert code == 0
    assert out.splitlines()[0] == ">0"

    prefix = tmp_path / "sym"
    assert run_cli(["symmetrize", "--circuit", zz_file, "--out-prefix", prefix], capsys)[0] == 0
    code, _, err = run_cli(
        ["synthesize", "--graph", prefix, "--out", tmp_path / "s.qc", "--check",
         "--max-weight", "-2"],
        capsys,
    )
    assert code == 2
    assert "--max-weight" in err
    assert not (tmp_path / "s.qc").exists()


def test_removed_jobs_flag_is_a_usage_error(tmp_path, capsys):
    b = tmp_path / "b.txt"
    b.write_text("2 3\n1 1 0\n0 1 1\n")
    l = tmp_path / "l.txt"
    l.write_text("1 3\n1 1 1\n")
    code, out, err = run_cli(["distance", "--b", b, "--l", l, "--jobs", "2"], capsys)
    assert code == 2
    assert out == "" and "--jobs" in err


def symmetric_bundle(zz_file, tmp_path, capsys):
    prefix = tmp_path / "sym"
    assert run_cli(["symmetrize", "--circuit", zz_file, "--out-prefix", prefix], capsys)[0] == 0
    return prefix


@pytest.mark.parametrize("case", ["wide", "non-codeword"])
def test_synthesize_check_rejects_bad_b_and_l(zz_file, tmp_path, capsys, case):
    prefix = symmetric_bundle(zz_file, tmp_path, capsys)
    a = read_matrix_text((tmp_path / "sym.A.txt").read_text())
    k = a.kernel_basis()
    if case == "wide":
        m = BitMatrix(k.n_rows, a.n_cols + 3, k.rows)
    else:
        m = BitMatrix(1, a.n_cols, [1])
        assert not a.mul_vec(m.row(0)).is_zero()
    for name in ("b", "l"):
        (tmp_path / f"{name}.txt").write_text(write_matrix_text(m))
    code, _, err = run_cli(
        ["synthesize", "--graph", prefix, "--out", tmp_path / "s.qc", "--check",
         "--b", tmp_path / "b.txt", "--l", tmp_path / "l.txt", "--max-weight", "2"],
        capsys,
    )
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "edit",
    [
        lambda text: re.sub(r"^dual 0 \d+$", "dual 0 999", text, flags=re.M),  # bit outside
        lambda text: text + "dual 0 3\n",  # second dual line for check 0
        lambda text: text + "dual 999 3\n",  # check outside
        lambda text: text + "long 999\n",  # long terminal outside
        lambda text: text + "dual 0\n",  # missing field
        lambda text: "",  # no pairing at all
        lambda text: re.sub(r"^dual 1 \d+$", "dual 1 7", text, flags=re.M),  # 7 is dual 0's bit
    ],
    ids=[
        "bit-outside", "repeated-dual", "check-outside", "long-outside", "short-line",
        "empty", "not-injective",
    ],
)
def test_synthesize_rejects_bad_witness(zz_file, tmp_path, capsys, edit):
    prefix = symmetric_bundle(zz_file, tmp_path, capsys)
    witness = tmp_path / "sym.witness"
    witness.write_text(edit(witness.read_text()))
    code, out, err = run_cli(["synthesize", "--graph", prefix, "--out", tmp_path / "s.qc"], capsys)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "witness" in err


@pytest.mark.parametrize(
    "edit",
    [
        lambda text: text.replace("0 x 1 0 -", "0 x 1 -1 -"),  # a time before the input
        lambda text: text.replace("1 x 2 0 -", "1 x 1 0 -"),  # column 0's label again
        lambda text: text.replace("0 x 1 0 -", "0 q 1 0 -"),  # no such bit kind
    ],
    ids=["negative-time", "repeated-label", "unknown-kind"],
)
def test_synthesize_rejects_bad_labels(zz_file, tmp_path, capsys, edit):
    prefix = symmetric_bundle(zz_file, tmp_path, capsys)
    labels = tmp_path / "sym.labels"
    text = labels.read_text()
    assert text.startswith("0 x 1 0 -\n1 x 2 0 -\n")
    labels.write_text(edit(text))
    code, out, err = run_cli(
        ["synthesize", "--graph", prefix, "--out", tmp_path / "s.qc", "--check"], capsys
    )
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "label" in err


@pytest.mark.parametrize("l_text", ["0 3\n", "2 3\n0 0 0\n0 0 0\n"], ids=["no-rows", "zero-rows"])
def test_distance_without_a_logical_is_an_error(tmp_path, capsys, l_text):
    b = tmp_path / "b.txt"
    b.write_text("2 3\n1 1 0\n0 1 1\n")
    l = tmp_path / "l.txt"
    l.write_text(l_text)
    code, out, err = run_cli(["distance", "--b", b, "--l", l], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: L has no nonzero row, so no logical error exists\n"


def test_synthesize_check_synthesises_once(zz_file, tmp_path, capsys, monkeypatch):
    prefix = symmetric_bundle(zz_file, tmp_path, capsys)
    a = (tmp_path / "sym.A.txt").read_text().split("\n", 1)[0]
    calls = []
    original = synthesis.synthesize

    def counted(*args):
        calls.append("synthesize")
        return original(*args)

    kernel_basis = BitMatrix.kernel_basis

    def counted_kernel(m):
        calls.append(f"{m.n_rows} {m.n_cols}")
        return kernel_basis(m)

    monkeypatch.setattr(cli, "synthesize", counted)
    monkeypatch.setattr(synthesis, "synthesize", counted)
    monkeypatch.setattr(BitMatrix, "kernel_basis", counted_kernel)
    code, out, _ = run_cli(
        ["synthesize", "--graph", prefix, "--out", tmp_path / "s.qc", "--check",
         "--max-weight", "2"],
        capsys,
    )
    assert code == 0 and "roundtrip ok" in out
    assert calls.count("synthesize") == 1
    # the kernel of the input graph's check matrix is eliminated once
    assert calls.count(a) == 1


@pytest.mark.parametrize(
    "text", ["qubits 1000000\nh 1\n", "qubits 100000000\n"], ids=["one-gate", "bare-header"]
)
def test_circuit_over_the_wire_bit_limit_is_an_error(tmp_path, capsys, text):
    big = tmp_path / "big.qc"
    big.write_text(text)
    start = time.perf_counter()
    code, out, err = run_cli(["classify", "--circuit", big], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert f"limit of {MAX_WIRE_BITS} wire bits" in err


def test_partition_naming_a_check_outside_the_graph_is_an_error(zz_file, tmp_path, capsys):
    prefix = symmetric_bundle(zz_file, tmp_path, capsys)
    part = tmp_path / "bad.part"
    part.write_text("path 1 X : x[1,0] c999\ntau x[1,0] 1\ntau c999 2\n")
    code, out, err = run_cli(
        ["synthesize", "--graph", prefix, "--partition", part, "--out", tmp_path / "s.qc"],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "c999" in err
    assert not (tmp_path / "s.qc").exists()


def test_distance_rejects_a_labels_file_of_the_wrong_length(tmp_path, capsys):
    b = tmp_path / "b.txt"
    b.write_text("1 3\n1 1 0\n")
    l = tmp_path / "l.txt"
    l.write_text("1 3\n0 0 1\n")
    labels = tmp_path / "f.labels"
    labels.write_text("0 x 1 0 -\n")
    code, out, err = run_cli(["distance", "--b", b, "--l", l, "--labels", labels], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: 1 labels for the 3 columns of B\n"


@pytest.mark.parametrize("states", ["0", "-3", "1001", "100000000000000000000"])
def test_verify_states_must_be_positive(zz_file, capsys, states):
    code, out, err = run_cli(
        ["verify", "--circuit", zz_file, "--seed", 7, "--states", states], capsys
    )
    assert code == 2
    assert out == "" and "--states" in err


@pytest.mark.parametrize("cycles", ["101", "0", "x", "100000"])
def test_css_gen_bounds_the_cycle_count(tmp_path, capsys, cycles):
    gx = tmp_path / "gx.txt"
    gx.write_text(STEANE_H)
    prefix = tmp_path / "steane"
    code, out, err = run_cli(
        ["css-gen", "--gx", gx, "--gz", gx, "--layer", f"rep:{cycles}", "--out-prefix", prefix],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err == f"usage error: --layer rep:<m> needs m in 1..100, got {cycles!r}\n"
    assert not (tmp_path / "steane.A.txt").exists()


def test_synthesize_greedy_takes_no_seed(zz_file, tmp_path, capsys):
    prefix = symmetric_bundle(zz_file, tmp_path, capsys)
    code, out, _ = run_cli(
        ["synthesize", "--graph", prefix, "--greedy", "--out", tmp_path / "g.qc"], capsys
    )
    assert code == 0 and out.startswith("qubits ")
    assert (tmp_path / "g.qc").exists()
    code, out, err = run_cli(
        ["synthesize", "--graph", prefix, "--greedy", "--seed", "1", "--out", tmp_path / "s.qc"],
        capsys,
    )
    assert code == 2
    assert out == "" and "--seed" in err
    assert not (tmp_path / "s.qc").exists()


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda text: text.replace("pair x[1,0] c1 ", "pair x[9,9] c1 "), "x[9,9]"),
        (lambda text: text + text.splitlines()[0] + "\n", "c0"),
    ],
    ids=["unknown-bit", "repeated-pair"],
)
def test_split_rejects_bad_plan(zz_file, tmp_path, capsys, edit, named):
    prefix = symmetric_bundle(zz_file, tmp_path, capsys)
    c = parse_circuit(ZZ_TEXT)
    g, w, _ = symmetrize(build_plain(c), c)
    plan = tmp_path / "bad.plan"
    plan.write_text(edit(write_plan(g, trivial_plan(g, w))))
    code, out, err = run_cli(
        ["split", "--graph", prefix, "--plan", plan, "--out-prefix", tmp_path / "split"], capsys
    )
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: plan ") and named in err


def shifted_greedy_partition(zz_file, tmp_path, capsys, shift):
    """The ZZ example's greedy partition with every time label moved by ``shift``."""
    prefix = symmetric_bundle(zz_file, tmp_path, capsys)
    part = tmp_path / "greedy.part"
    code, _, _ = run_cli(
        ["synthesize", "--graph", prefix, "--greedy", "--out", tmp_path / "g.qc",
         "--emit-partition", part],
        capsys,
    )
    assert code == 0
    text = re.sub(
        r"^(tau \S+) (\d+)$",
        lambda m: f"{m.group(1)} {int(m.group(2)) + shift}",
        part.read_text(),
        flags=re.M,
    )
    shifted = tmp_path / "shifted.part"
    shifted.write_text(text)
    return prefix, shifted


@pytest.mark.parametrize("shift", [-1, -3, -10])
def test_synthesize_rejects_time_labels_below_one(zz_file, tmp_path, capsys, shift):
    prefix, part = shifted_greedy_partition(zz_file, tmp_path, capsys, shift)
    code, out, err = run_cli(
        ["synthesize", "--graph", prefix, "--partition", part, "--out", tmp_path / "s.qc"],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert err == "error: invalid partition: time labels must be at least 1\n"
    assert not (tmp_path / "s.qc").exists()


def test_synthesize_rejects_a_circuit_over_the_wire_bit_limit(zz_file, tmp_path, capsys):
    # the shifted labels still form a valid partition, so only the size check stops it
    prefix, part = shifted_greedy_partition(zz_file, tmp_path, capsys, 10**7)
    start = time.perf_counter()
    code, out, err = run_cli(
        ["synthesize", "--graph", prefix, "--partition", part, "--out", tmp_path / "s.qc"],
        capsys,
    )
    assert time.perf_counter() - start < 5.0
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert f"limit of {MAX_WIRE_BITS} wire bits" in err
    assert not (tmp_path / "s.qc").exists()


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--check", "--b", "/nonexistent/b.txt"], "--b and --l"),
        (["--check", "--l", "/nonexistent/l.txt"], "--b and --l"),
        (["--b", "B", "--l", "L"], "--check"),
        (["--b", "B"], "--b and --l"),
        (["--partition", "P", "--greedy"], "--greedy"),
    ],
    ids=["lone-b", "lone-l", "b-l-without-check", "lone-b-without-check", "partition-greedy"],
)
def test_synthesize_rejects_flags_it_would_ignore(zz_file, tmp_path, capsys, flags, named):
    prefix = symmetric_bundle(zz_file, tmp_path, capsys)
    flags = [tmp_path / f if f in ("B", "L", "P") else f for f in flags]
    code, out, err = run_cli(
        ["synthesize", "--graph", prefix, "--out", tmp_path / "s.qc", *flags], capsys
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("usage error: ") and named in err
    assert not (tmp_path / "s.qc").exists()


@pytest.mark.parametrize("flag", ["--s-in", "--s-out"])
def test_ec_matrices_complete_takes_no_stabilisers(zz_file, tmp_path, capsys, flag):
    prefix = tmp_path / "ec"
    code, out, err = run_cli(
        ["ec-matrices", "--circuit", zz_file, "--complete", flag, "Q9", "--out-prefix", prefix],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err == "usage error: --complete takes no --s-in or --s-out\n"
    assert not (tmp_path / "ec.B.txt").exists()


def test_export_dot_of_a_bundle_takes_no_symmetric(zz_file, tmp_path, capsys):
    prefix = symmetric_bundle(zz_file, tmp_path, capsys)
    code, out, err = run_cli(
        ["export-dot", "--graph", prefix, "--symmetric", "--out", tmp_path / "g.dot"], capsys
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("usage error: --symmetric")
    assert not (tmp_path / "g.dot").exists()


def test_synthesize_check_without_layers_fails_before_writing(tmp_path, capsys):
    gx = tmp_path / "gx.txt"
    gx.write_text(STEANE_H)
    prefix = tmp_path / "steane"
    args = ["css-gen", "--gx", gx, "--gz", gx, "--layer", "rep:1", "--out-prefix", prefix]
    assert run_cli(args, capsys)[0] == 0
    out_file = tmp_path / "s.qc"
    code, out, err = run_cli(
        ["synthesize", "--graph", prefix, "--out", out_file, "--check"], capsys
    )
    assert code == 1
    assert out == ""
    assert err == "error: graph has no layer structure\n"
    assert not out_file.exists()
    # without --check the bundle synthesises, and with B and L given it checks them
    assert run_cli(["synthesize", "--graph", prefix, "--out", out_file], capsys)[0] == 0
    code, out, _ = run_cli(
        ["synthesize", "--graph", prefix, "--out", out_file, "--check",
         "--b", f"{prefix}.B.txt", "--l", f"{prefix}.L.txt", "--max-weight", "2"],
        capsys,
    )
    assert code == 0 and "roundtrip ok" in out


def sidecar_readers(zz_file, tmp_path, capsys):
    """Per sidecar file kind of the ZZ bundle: the file and a command that reads it."""
    prefix = symmetric_bundle(zz_file, tmp_path, capsys)
    synth = ["synthesize", "--graph", prefix, "--out", tmp_path / "s.qc"]
    part = tmp_path / "greedy.part"
    assert run_cli([*synth, "--greedy", "--emit-partition", part], capsys)[0] == 0
    c = parse_circuit(ZZ_TEXT)
    g, w, _ = symmetrize(build_plain(c), c)
    plan = tmp_path / "random.plan"
    plan.write_text(write_plan(g, random_plan(g, w, random.Random(1))))
    split = ["split", "--graph", prefix, "--plan", plan, "--out-prefix", tmp_path / "split"]
    return {
        "labels": (tmp_path / "sym.labels", synth),
        "witness": (tmp_path / "sym.witness", synth),
        "partition": (part, [*synth, "--partition", part]),
        "plan": (plan, split),
    }


@pytest.mark.parametrize(
    "kind, line, bad",
    [
        ("labels", r"0 x 1 0 -", "0 x 1 0"),
        ("labels", r"0 x 1 0 -", "0 x 1 0 - M"),
        ("labels", r"0 x 1 0 -", "c0 x 1 0 -"),
        ("labels", r"0 x 1 0 -", "0 x X 0 -"),
        ("labels", r"0 x 1 0 -", "0 x 1 t0 -"),
        ("witness", r"dual 0 \d+", "dual 0 X"),
        ("witness", r"dual 0 \d+", "dual c0 7"),
        ("witness", r"long 3", "long x[1,0]"),
        ("partition", r"tau x\[1,0\] \d+", "tau x[1,0]"),
        ("partition", r"tau x\[1,0\] \d+", "tau x[1,0] 3 4"),
        ("partition", r"tau x\[1,0\] \d+", "tau x[1,0] X"),
        ("plan", r"pair z\[1,1\] c0 : .*", "pair z[1,1] cX : subsets x[1,0] x[1,1] ; tree"),
        ("plan", r"pair z\[2,1\] c2 : .*", "pair z[2,1] c2 : subsets x[2,1];x[2,0] ; tree 0-a"),
    ],
    ids=[
        "labels-four-fields", "labels-six-fields", "labels-column", "labels-q", "labels-t",
        "witness-bit", "witness-check", "witness-long", "partition-tau-two-fields",
        "partition-tau-four-fields", "partition-tau-time", "plan-check", "plan-tree-edge",
    ],
)
def test_malformed_sidecar_line_is_named(zz_file, tmp_path, capsys, kind, line, bad):
    path, args = sidecar_readers(zz_file, tmp_path, capsys)[kind]
    text, found = re.subn(rf"^{line}$", bad, path.read_text(), count=1, flags=re.M)
    assert found == 1
    path.write_text(text)
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: bad {kind} line {bad!r}\n"


# Circuits whose last layers only measure or are empty: the labels of their
# bundles end before the circuit's depth, and a split bundle keeps only the
# wire labels of its long terminals.
LAYER_STRUCTURE_CASES = {
    "mx": "qubits 1\nmx 1\n",
    "empty-mx-empty": "qubits 1\ntick\nmx 1\ntick\ntick\n",
    "cnot-then-measure": "qubits 2\nrz 2\ntick\ncnot 1 2\ntick\nmz 2\nmz 1\n",
}


def in_memory_distance_line(text):
    c = parse_circuit(text)
    g, w, _ = symmetrize(build_plain(c), c)
    ec = cw.complete_ec_structure(g)
    report = synthesis.roundtrip_check(
        g, synthesis.synthesize(g, w, synthesis.trivial_partition(g, w)), ec.b, ec.l
    )
    return f"distance {report.distance_before} -> {report.distance_after}"


@pytest.mark.parametrize("name", sorted(LAYER_STRUCTURE_CASES))
@pytest.mark.parametrize("bundle", ["sym", "split"])
def test_synthesize_check_reads_the_layer_structure_of_a_bundle(tmp_path, capsys, name, bundle):
    text = LAYER_STRUCTURE_CASES[name]
    circuit = tmp_path / "c.qc"
    circuit.write_text(text)
    run_cli(["symmetrize", "--circuit", circuit, "--out-prefix", tmp_path / "sym"], capsys)
    run_cli(["split", "--graph", tmp_path / "sym", "--out-prefix", tmp_path / "split"], capsys)
    code, out, _ = run_cli(
        ["synthesize", "--graph", tmp_path / bundle, "--out", tmp_path / "s.qc", "--check"], capsys
    )
    assert code == 0
    assert out.splitlines()[1:] == ["roundtrip ok", in_memory_distance_line(text)]
    # none of these circuits has a logical, so no fault corrupts one
    assert "distance 1 -> 1" not in out
    _, ec_out, _ = run_cli(
        ["ec-matrices", "--circuit", circuit, "--complete", "--out-prefix", tmp_path / "ec"], capsys
    )
    assert ec_out.split()[2:4] == ["L", "0"]


def test_reloaded_bundles_keep_the_error_correction_structure():
    def structure(g):
        ec = cw.complete_ec_structure(g)
        return ec.b.rows, ec.l.rows, [p.label() for p in ec.s_in], [p.label() for p in ec.s_out]

    rng = random.Random(3)
    for _ in range(300):
        c = random_circuit(rng.randint(1, 4), rng.randint(1, 7), rng)
        g, _, _ = symmetrize(build_plain(c), c)
        a = read_matrix_text(write_matrix_text(g.check_matrix()))
        reloaded = graph_from_matrix(a, read_labels(write_labels(g)))
        assert reloaded.n_qubits == g.n_qubits and reloaded.depth <= g.depth
        assert structure(reloaded) == structure(g)
