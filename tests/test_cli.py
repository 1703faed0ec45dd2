"""Command line interface: generation, encoding, solving, verification, bench."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import gssynth
import gssynth.cli
from gssynth.cli import main
from gssynth.cnf import write_dimacs
from gssynth.driver import EncodingSoundnessError
from gssynth.encoding import SynthesisInstance, encode_bmc, layout_to_text
from gssynth.generators import erdos_renyi, read_instance, secret_sharing_demo, write_instance
from gssynth.graphs import Graph, pair_count, star_graph


STAR4 = star_graph(4, 0, (1, 2, 3))
K4 = Graph(4, (1 << pair_count(4)) - 1)


@pytest.fixture(autouse=True)
def builtin_solver(monkeypatch):
    # keep CLI tests hermetic and deterministic regardless of installed solvers
    monkeypatch.setenv("GSSYNTH_SOLVER", "builtin")


def write_inst(tmp_path, name: str, inst: SynthesisInstance) -> str:
    path = tmp_path / name
    path.write_text(write_instance(inst))
    return str(path)


# --- gen --------------------------------------------------------------------------


def test_gen_demo_round_trips(tmp_path, capsys):
    out = tmp_path / "demo.inst"
    assert main(["gen", "--family", "demo", "--out", str(out)]) == 0
    inst, meta = read_instance(out.read_text())
    assert inst == secret_sharing_demo()
    assert meta["family"] == "demo"
    capsys.readouterr()


def test_gen_er_is_deterministic(tmp_path):
    a, b = tmp_path / "a.inst", tmp_path / "b.inst"
    argv = ["gen", "--family", "er", "--n", "6", "--p", "0.5", "--seed", "3",
            "--d-size", "2", "--parties", "0,1,2", "--out"]
    assert main([*argv, str(a)]) == 0
    assert main([*argv, str(b)]) == 0
    assert a.read_text() == b.read_text()
    inst, meta = read_instance(a.read_text())
    assert inst.n == 6
    assert len(inst.designated) == 2
    assert meta["d_size"] == "2"


def test_gen_network_uses_the_builtin_topology(tmp_path):
    out = tmp_path / "net.inst"
    assert main(["gen", "--family", "network", "--p", "0.9", "--seed", "1",
                 "--out", str(out)]) == 0
    inst, _ = read_instance(out.read_text())
    assert inst.n == 14
    assert inst.target == star_graph(14, 0, (7, 8, 11))


def test_gen_rejects_out_of_range_parties(tmp_path, capsys):
    code = main(["gen", "--family", "er", "--n", "3", "--parties", "0,1,2,3",
                 "--out", str(tmp_path / "x.inst")])
    assert code == 64
    assert "party out of range" in capsys.readouterr().err


def test_gen_to_stdout(capsys):
    assert main(["gen", "--family", "demo"]) == 0
    captured = capsys.readouterr()
    inst, _ = read_instance(captured.out)
    assert inst == secret_sharing_demo()


# --- encode ------------------------------------------------------------------------


def test_encode_single_state_header(tmp_path, capsys):
    # source == target on four vertices: one state, six source and six target units
    inst = SynthesisInstance(STAR4, STAR4)
    path = write_inst(tmp_path, "eq.inst", inst)
    prefix = str(tmp_path / "eq")
    assert main(["encode", path, "--states", "1", "--out-prefix", prefix]) == 0
    cnf_text = (tmp_path / "eq.cnf").read_text()
    assert cnf_text.startswith("p cnf 6 12\n")
    formula, layout = encode_bmc(inst, 1)
    assert cnf_text == write_dimacs(formula)
    assert (tmp_path / "eq.layout").read_text() == layout_to_text(layout)
    assert "eq.cnf" in capsys.readouterr().out


def test_encode_layout_matches_formula(tmp_path, capsys):
    inst = SynthesisInstance(STAR4, K4)
    path = write_inst(tmp_path, "p.inst", inst)
    prefix = str(tmp_path / "p")
    assert main(["encode", path, "--states", "3", "--out-prefix", prefix]) == 0
    formula, layout = encode_bmc(inst, 3)
    assert (tmp_path / "p.cnf").read_text() == write_dimacs(formula)
    assert (tmp_path / "p.layout").read_text() == layout_to_text(layout)
    assert formula.num_vars == layout.total_vars
    capsys.readouterr()


def test_encode_writes_every_dimacs_slice(tmp_path, capsys):
    # large enough that the text comes in several slices
    inst = secret_sharing_demo()
    path = write_inst(tmp_path, "demo.inst", inst)
    prefix = str(tmp_path / "demo")
    assert main(["encode", path, "--states", "32", "--out-prefix", prefix]) == 0
    formula, _ = encode_bmc(inst, 32)
    assert len(formula.literals) > 2 * (1 << 16)
    assert (tmp_path / "demo.cnf").read_text() == write_dimacs(formula)
    capsys.readouterr()


def test_encode_rejects_zero_states(tmp_path, capsys):
    path = write_inst(tmp_path, "x.inst", SynthesisInstance(STAR4, K4))
    assert main(["encode", path, "--states", "0", "--out-prefix", str(tmp_path / "x")]) == 64
    assert "--states" in capsys.readouterr().err


# --- synth / verify -------------------------------------------------------------------


def test_synth_reachable_with_witness_file(tmp_path, capsys):
    inst_path = write_inst(tmp_path, "star.inst", SynthesisInstance(STAR4, K4))
    witness_path = tmp_path / "star.witness"
    code = main(["synth", inst_path, "--witness-out", str(witness_path)])
    out = capsys.readouterr().out
    assert code == 0
    table = out.splitlines()
    assert table[0] == "states  vars  clauses  status   seconds  conflicts  decisions"
    # the top probe (6 operations, 7 states) comes first; every probe has 7 columns
    assert table[1].split()[:4] == ["7", "72", "696", "sat"]
    assert all(len(row.split()) == 7 for row in table[1 : table.index("verdict reachable")])
    assert "verdict reachable" in out
    assert "op LC 0" in out
    assert witness_path.read_text() == "LC 0\n"
    # and the verify subcommand accepts what synth wrote
    assert main(["verify", inst_path, str(witness_path)]) == 0
    assert "witness ok (1 operations)" in capsys.readouterr().out


def test_synth_exit_codes_for_unreachable_and_unknown(tmp_path, capsys):
    unreachable = write_inst(
        tmp_path,
        "unreach.inst",
        SynthesisInstance(Graph.from_edges(3, [(0, 1)]), Graph.from_edges(3, [(0, 2)])),
    )
    assert main(["synth", unreachable]) == 1
    assert "verdict unreachable" in capsys.readouterr().out

    unknown = write_inst(
        tmp_path,
        "unknown.inst",
        SynthesisInstance(Graph(3), Graph.from_edges(3, [(0, 2)]), ((0, 1),)),
    )
    assert main(["synth", unknown]) == 2
    assert "verdict unknown" in capsys.readouterr().out


def test_synth_equal_graphs_prints_an_empty_witness(tmp_path, capsys):
    path = write_inst(tmp_path, "eq.inst", SynthesisInstance(STAR4, STAR4))
    assert main(["synth", path]) == 0
    out = capsys.readouterr().out
    assert "operations 0" in out


def test_verify_rejects_a_wrong_witness(tmp_path, capsys):
    inst_path = write_inst(tmp_path, "star.inst", SynthesisInstance(STAR4, K4))
    bad = tmp_path / "bad.witness"
    bad.write_text("LC 1\n")  # LC at a leaf does nothing
    assert main(["verify", inst_path, str(bad)]) == 1
    assert "witness invalid" in capsys.readouterr().out


def test_verify_rejects_an_operation_that_does_not_apply(tmp_path, capsys):
    path = write_inst(tmp_path, "t.inst", SynthesisInstance(Graph(3), Graph(3)))
    bad = tmp_path / "bad.witness"
    bad.write_text("VD 9\n")
    assert main(["verify", path, str(bad)]) == 1
    assert "witness invalid" in capsys.readouterr().out


@pytest.mark.parametrize(
    "witness, code",
    [
        ("LC 0\n", 0),  # a good witness
        ("VD 9\n", 1),  # a vertex out of range
        ("LC 1\n", 1),  # misses the target: LC at a leaf does nothing
        ("LC\n", 64),  # a malformed line
        (None, 64),  # a missing file
    ],
)
def test_verify_exit_codes(tmp_path, capsys, witness, code):
    inst = write_inst(tmp_path, "star.inst", SynthesisInstance(STAR4, K4))
    path = tmp_path / "w.witness"
    if witness is not None:
        path.write_text(witness)
    assert main(["verify", inst, str(path)]) == code
    captured = capsys.readouterr()
    if code == 64:
        assert captured.err.startswith("gssynth:") and captured.err.count("\n") == 1
    else:
        assert captured.out.startswith("witness ok" if code == 0 else "witness invalid")


def test_synth_reports_bad_instance_files(tmp_path, capsys):
    missing = str(tmp_path / "nope.inst")
    assert main(["synth", missing]) == 64
    assert "cannot read" in capsys.readouterr().err

    broken = tmp_path / "broken.inst"
    broken.write_text("what is this\n")
    assert main(["synth", str(broken)]) == 64
    assert "bad instance file" in capsys.readouterr().err


def test_verify_reports_bad_witness_files(tmp_path, capsys):
    inst = write_inst(tmp_path, "star.inst", SynthesisInstance(STAR4, K4))
    assert main(["verify", inst, str(tmp_path / "nope.witness")]) == 64
    assert capsys.readouterr().err.startswith("gssynth: cannot read")

    unknown_op = tmp_path / "xx.witness"
    unknown_op.write_text("XX 1\n")
    assert main(["verify", inst, str(unknown_op)]) == 64
    assert capsys.readouterr().err.startswith("gssynth: bad witness file")


def test_a_crash_exits_70_with_its_traceback(tmp_path, capsys, monkeypatch):
    def crash(*args):
        raise EncodingSoundnessError("replayed witness misses the target")

    monkeypatch.setattr(gssynth.cli, "synthesize", crash)
    inst = write_inst(tmp_path, "star.inst", SynthesisInstance(STAR4, K4))
    assert main(["synth", inst]) == 70
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and "EncodingSoundnessError" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "ZERO"],
        ["encode", "ZERO", "--states", "2", "--out-prefix", "PREFIX"],
        ["oracle", "ZERO"],
        ["verify", "ZERO", "EMPTY"],
        ["synth", "STAR", "--max-ops", "-1"],
        ["synth", "STAR", "--solver", "no-such-solver"],
        ["synth", "STAR", "--solve-timeout", "-1"],
        ["synth", "STAR", "--budget", "-1"],
        ["synth", "STAR", "--budget", "nan"],
        ["synth", "STAR", "--solve-timeout", "nan"],
        ["oracle", "STAR", "--state-cap", "0"],
        ["encode", "STAR", "--states", "2", "--out-prefix", "NODIR"],
        ["gen", "--family", "er", "--parties", "a,b"],
        ["gen", "--family", "er", "--n", "4", "--d-size", "-1"],
        ["gen", "--family", "demo", "--d-size", "3"],
        ["gen", "--family", "demo", "--parties", "0,5"],
        ["gen", "--family", "demo", "--n", "3"],
        ["gen", "--family", "demo", "--p", "0.5"],
        ["gen", "--family", "demo", "--seed", "5"],
        ["gen", "--family", "network", "--n", "5"],
        ["bench", "--family", "er", "--sizes", "1"],
        ["bench", "--family", "er", "--sizes", "x"],
        ["bench", "--family", "er", "--sizes", "4", "--p", "2"],
        ["bench", "--family", "er", "--sizes", "4", "--d-size", "9"],
        ["bench", "--family", "er", "--sizes", "4", "--max-ops", "-1"],
        ["bench", "--family", "er", "--sizes", "4", "--max-ops", "x"],
        ["bench", "--family", "er", "--sizes", "4", "--budget", "-1"],
        ["bench", "--family", "er", "--sizes", "4", "--budget", "nan"],
        ["bench", "--family", "er", "--sizes", "4", "--solve-timeout", "nan"],
        ["bench", "--family", "er", "--sizes", "4", "--solver", "no-such-solver"],
        ["bench", "--family", "er", "--sizes", "4", "--seeds", "0"],
        ["bench", "--family", "er", "--sizes", "4", "--seeds", "-1"],
        ["bench", "--family", "er", "--sizes", "4", "--jobs", "0"],
        ["bench", "--family", "er", "--sizes", "4", "--jobs", "-3"],
        ["bench", "--family", "network", "--sizes", "5,6"],
        ["gen", "--family", "er", "--parties", ""],
        ["gen", "--family", "er", "--parties", " , "],
        ["bench", "--family", "er", "--sizes", "4", "--p", ""],
        ["bench", "--family", "er", "--sizes", ""],
        # malformed command lines, rejected by the parser
        [],
        ["nosuch"],
        ["synth"],
        ["gen", "--family", "foo"],
        ["gen", "--family", "er", "--n", "abc"],
        ["synth", "STAR", "--budget", "abc"],
        ["encode", "STAR", "--states", "x", "--out-prefix", "PREFIX"],
        ["bench", "--family", "demo"],
    ],
    ids=lambda argv: "-".join(argv) or "no-arguments",
)
def test_bad_values_exit_with_the_usage_code(tmp_path, capsys, argv):
    zero = tmp_path / "zero.inst"
    zero.write_text("n 0\nsource\ntarget\n")
    empty = tmp_path / "empty.witness"
    empty.write_text("")
    paths = {
        "ZERO": str(zero),
        "EMPTY": str(empty),
        "STAR": write_inst(tmp_path, "star.inst", SynthesisInstance(STAR4, K4)),
        "PREFIX": str(tmp_path / "out"),
        "NODIR": str(tmp_path / "no" / "dir"),
    }
    assert main([paths.get(arg, arg) for arg in argv]) == 64
    err = capsys.readouterr().err
    assert err.startswith("gssynth:") and err.count("\n") == 1


def search_options_help(capsys, command: str) -> str:
    """The help of the four search options, which come first in both commands."""
    with pytest.raises(SystemExit) as raised:
        main([command, "--help"])
    assert raised.value.code == 0
    text, last = capsys.readouterr().out, "override the depth cap"
    return text[text.index("  --solver") : text.index(last) + len(last)]


def test_synth_and_bench_declare_the_search_options_alike(capsys):
    synth, bench = (search_options_help(capsys, command) for command in ("synth", "bench"))
    assert synth == bench
    for option, help_text in (
        ("--solver", "solver command, or 'builtin'"),
        ("--solve-timeout", "seconds per solver call"),
        ("--budget", "seconds for the whole search"),
        ("--max-ops", "override the depth cap"),
    ):
        assert option in synth and help_text in synth


# --- oracle -----------------------------------------------------------------------------


def test_oracle_verdicts_and_exit_codes(tmp_path, capsys):
    reachable = write_inst(tmp_path, "r.inst", SynthesisInstance(STAR4, K4))
    assert main(["oracle", reachable]) == 0
    out = capsys.readouterr().out
    assert "verdict reachable" in out and "operations 1" in out and "op LC 0" in out

    unreachable = write_inst(
        tmp_path,
        "u.inst",
        SynthesisInstance(Graph.from_edges(3, [(0, 1)]), Graph.from_edges(3, [(0, 2)])),
    )
    assert main(["oracle", unreachable]) == 1
    assert "verdict unreachable" in capsys.readouterr().out


def test_oracle_state_cap_yields_unknown(tmp_path, capsys):
    path = write_inst(tmp_path, "big.inst", SynthesisInstance(K4, Graph(4)))
    assert main(["oracle", path, "--state-cap", "2"]) == 2
    assert "verdict unknown" in capsys.readouterr().out


def test_oracle_state_cap_stores_at_most_that_many_states(tmp_path, capsys):
    # the search stores this target as the 34th and last state of its closure
    inst = SynthesisInstance(erdos_renyi(4, 0.8, 0), Graph(4, 17))
    path = write_inst(tmp_path, "last.inst", inst)
    assert main(["oracle", path, "--state-cap", "33"]) == 2
    assert main(["oracle", path, "--state-cap", "34"]) == 0
    assert "verdict reachable" in capsys.readouterr().out


def test_synth_verdict_matches_oracle_on_a_random_instance(tmp_path, capsys):
    argv = ["gen", "--family", "er", "--n", "5", "--p", "0.5", "--seed", "12",
            "--parties", "0,1,2,3", "--out", str(tmp_path / "r5.inst")]
    assert main(argv) == 0
    synth_code = main(["synth", str(tmp_path / "r5.inst")])
    oracle_code = main(["oracle", str(tmp_path / "r5.inst")])
    capsys.readouterr()
    assert synth_code == oracle_code


# --- bench ------------------------------------------------------------------------------


def test_bench_table_is_reproducible(tmp_path):
    argv = ["bench", "--family", "er", "--sizes", "4", "--p", "0.5", "--seeds", "2",
            "--solver", "builtin", "--no-timing", "--out"]
    first, second = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert main([*argv, str(first)]) == 0
    assert main([*argv, str(second)]) == 0
    assert first.read_text() == second.read_text()
    lines = first.read_text().splitlines()
    assert lines[0] == "family,n,p,seed,d_size,verdict,operations,probes"
    assert len(lines) == 3


def test_bench_parallel_matches_serial(tmp_path):
    base = ["bench", "--family", "er", "--sizes", "4", "--p", "0.5", "--seeds", "2",
            "--solver", "builtin", "--no-timing"]
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    assert main([*base, "--out", str(serial)]) == 0
    assert main([*base, "--jobs", "2", "--out", str(parallel)]) == 0
    assert serial.read_text() == parallel.read_text()


def test_bench_default_output_includes_timing(tmp_path):
    out = tmp_path / "timed.csv"
    assert main(["bench", "--family", "er", "--sizes", "3", "--p", "0.3", "--seeds", "1",
                 "--solver", "builtin", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header.endswith(",solver_seconds")


def test_bench_starts_no_more_workers_than_instances(tmp_path, monkeypatch):
    sizes = []

    class InProcessPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, tasks):
            return [func(task) for task in tasks]

    monkeypatch.setattr(gssynth.cli, "Pool", InProcessPool)
    base = ["bench", "--family", "er", "--sizes", "3", "--p", "0.3", "--solver", "builtin",
            "--no-timing", "--jobs", "8"]
    assert main([*base, "--seeds", "2", "--out", str(tmp_path / "two.csv")]) == 0
    assert sizes == [2]
    assert main([*base, "--seeds", "1", "--out", str(tmp_path / "one.csv")]) == 0
    assert sizes == [2]  # one instance runs without a pool
    assert len((tmp_path / "two.csv").read_text().splitlines()) == 3


# --- module entry point --------------------------------------------------------------------


def test_python_dash_m_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "gssynth", "gen", "--family", "demo"],
        # run where the package under test lives, so the child imports it too,
        # installed or not
        cwd=os.path.dirname(os.path.dirname(gssynth.__file__)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    inst, _ = read_instance(proc.stdout)
    assert inst == secret_sharing_demo()


@pytest.mark.parametrize("unbuffered", ("", "1"))
def test_synth_into_a_closed_pipe_exits_141_without_a_traceback(tmp_path, unbuffered):
    path = write_inst(tmp_path, "demo.inst", secret_sharing_demo())
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first line is written
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gssynth", "synth", path, "--solver", "builtin"],
            cwd=os.path.dirname(os.path.dirname(gssynth.__file__)),
            env={**os.environ, "PYTHONUNBUFFERED": unbuffered},
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr
