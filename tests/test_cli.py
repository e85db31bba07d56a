import argparse
import ast
import atexit
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hiddenpartition import cli, exactlp, experiments, hardness, instances, reduction, signpoly
from hiddenpartition.cli import main
from hiddenpartition.experiments import (
    run_protocol_trials,
    wilson_interval,
    write_csv,
    write_jsonl,
)
from hiddenpartition.boolfn import (
    SymmetricSpec, all_points, and_fn, dictator, majority, parity, weight_profile,
)
from hiddenpartition.instances import PartitionParams, b_map_rows, generate_instances
from hiddenpartition.reduction import ReductionGadget
from hiddenpartition.rng import coin, fisher_yates, fisher_yates_rows, stream

from conftest import random_table
from oracles import apply_permutation, hamming_weight


GOLDEN_DIR = Path(__file__).parent / "golden"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def run_cli(args):
    return main(args)


def test_wilson_interval_basic():
    low, high = wilson_interval(90, 100)
    assert 0.8 < low < 0.9 < high < 0.96
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_wilson_interval_holds_phat_inside_the_unit_interval():
    # exhaustive over trials <= 2000: at successes 0 or trials the float
    # formula can put an end outside [0, 1] (5/5: a high of
    # 1.0000000000000002) or short of p-hat (300/300: 0.9999999999999998)
    wrong = []
    for trials in range(1, 2001):
        for successes in range(trials + 1):
            low, high = wilson_interval(successes, trials)
            if not 0 <= low <= successes / trials <= high <= 1:
                wrong.append((successes, trials))
    assert not wrong
    assert wilson_interval(5, 5)[1] == wilson_interval(300, 300)[1] == 1.0
    assert wilson_interval(0, 300)[0] == 0.0


def test_summary_counts_match_records():
    params = PartitionParams(40, 2, Fraction(1))
    records, summary = run_protocol_trials(
        "classical", dictator(2), "dictator:2", params, trials=50, seed=3, epsilon=0.1
    )
    assert summary.successes == sum(r.correct for r in records)
    assert summary.trials == len(records) == 50
    assert summary.per_run_guarantee == pytest.approx(0.8)
    assert summary.m == records[0].cost_bits // (math.ceil(math.log2(40)) + 1)


def test_record_writers_are_consistent(tmp_path):
    params = PartitionParams(40, 2, Fraction(1))
    records, summary = run_protocol_trials(
        "classical", dictator(2), "dictator:2", params, trials=5, seed=3, epsilon=0.1
    )
    csv_path = tmp_path / "out.csv"
    jsonl_path = tmp_path / "out.jsonl"
    with open(csv_path, "w", newline="") as fh:
        write_csv(fh, records, summary)
    with open(jsonl_path, "w") as fh:
        write_jsonl(fh, records, summary)
    csv_lines = csv_path.read_text().splitlines()
    assert len(csv_lines) == 1 + 5 + 1  # header, trials, summary
    rows = [json.loads(line) for line in jsonl_path.read_text().splitlines()]
    assert [r["record"] for r in rows] == ["trial"] * 5 + ["summary"]
    assert rows[-1]["successes"] == summary.successes


def test_plain_records_are_read_only():
    # one of each plain record type, from the call that returns it
    params = PartitionParams(40, 2, Fraction(1))
    records, summary = run_protocol_trials(
        "classical", dictator(2), "dictator:2", params, trials=2, seed=3, epsilon=0.1
    )
    full_cube = hardness.MessageSet(4, np.arange(2**4))
    tvd = hardness.expected_tvd(parity(2), full_cube, PartitionParams(4, 2, Fraction(1, 2)), 2,
                                np.random.default_rng(0))
    fields = [
        (exactlp.minimise([[1, 2, 1, 0], [3, 1, 0, 1]], [4, 6], [-1, -1, 0, 0]), "den"),
        (records[0], "guess"),
        (summary, "successes"),
        (tvd, "mean"),
        (hardness.kkl_check(full_cube, [0.5]), "violations"),
        (signpoly._reduce(majority(3)), "relevant"),
    ]
    assert [type(record).__name__ for record, _ in fields] == [
        "Optimum", "TrialRecord", "RunSummary", "TvdEstimate", "KklReport", "_Reduction"]
    for record, name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


def test_cli_help_names_the_output_columns(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        main(["--help"])
    assert (
        "CSV columns: record, trial, b, guess, correct, statistic, cost_bits for per-trial rows; "
        "record, protocol, function, n, t, alpha, epsilon, per_run_guarantee, m, samples, "
        "trials, successes, success_rate, wilson_low, wilson_high, mean_cost_bits, seed "
        "for the summary row."
    ) in capsys.readouterr().out


def test_cli_analyze_named(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli(["analyze", "--named", "majority", "--t", "3", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["sign_degree"] == 1
    assert report["pure_high_degree"] == 1
    assert report["bias_at_sign_degree"] == pytest.approx(1 / 3, abs=1e-6)
    assert report["fourier_l1"] == pytest.approx(2.0)


def test_cli_analyze_parity(tmp_path):
    out = tmp_path / "report.json"
    assert run_cli(["analyze", "--named", "parity", "--t", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["sign_degree"] == 2
    assert report["pure_high_degree"] == 2
    assert report["bias_at_sign_degree"] == pytest.approx(1.0, abs=1e-6)
    assert report["block_matrix_norm"] == pytest.approx(0.5, abs=1e-9)


def test_cli_analyze_nae_reduction_status(tmp_path):
    out = tmp_path / "report.json"
    assert run_cli(["analyze", "--named", "nae", "--t", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["sign_degree"] == 2
    assert report["reduction"] == "NAE-odd: no gadget"


def test_cli_guard_rejection_exit_code(tmp_path, capsys):
    code = run_cli(
        [
            "run-classical", "--named", "parity", "--t", "2",
            "--n", "16", "--trials", "4", "--seed", "0",
            "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "sdeg(f) = 2 > 1" in err
    # a table that does not reduce is refused after its one dense LP
    spec = tmp_path / "table.json"
    table = random_table(8, np.random.default_rng(8)).table
    spec.write_text(json.dumps({"kind": "truth_table", "t": 8, "values": table.tolist()}))
    code = run_cli(["run-classical", "--function", str(spec), "--n", "16", "--trials", "4",
                    "--seed", "0"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("guard rejection: sdeg(f) > 1")
    assert captured.err.count("\n") == 1


def test_cli_command_runs_with_the_import_graph_frozen(monkeypatch, tmp_path):
    # main moves what is alive before it builds the parser (numpy, scipy) to
    # the permanent generation, so no collection walks it again, at exit included
    frozen = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda names: frozen.append(gc.get_freeze_count()) or build(names))
    gc.unfreeze()
    try:
        assert run_cli(["analyze", "--named", "majority", "--t", "3",
                        "--out", str(tmp_path / "a.json")]) == 0
        assert len(frozen) == 1 and frozen[0] > 0
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()


VALID_ARGS = {
    "analyze": ["--named", "majority", "--t", "3", "--out", "a.json"],
    "run-classical": ["--named", "majority", "--t", "3", "--n", "60", "--alpha", "1/2",
                      "--epsilon", "0.2", "--format", "jsonl"],
    "run-quantum": ["--function", "f.json", "--n", "60", "--trials", "7"],
    "run-uniform": ["--named", "dictator", "--t", "2", "--n", "60", "--samples", "5"],
    "reduce": ["--named", "nae", "--t", "4", "--n", "4", "--sigmas", "3", "--seed", "9"],
    "hardness": ["--named", "parity", "--t", "2", "--check", "u", "--n", "8", "--set-size", "4"],
}


def parse_outcome(parser, argv, capsys):
    """The namespace parsed, or the code argparse exits with; and what it printed."""
    try:
        outcome = parser.parse_args(argv)
    except SystemExit as exc:
        outcome = exc.code
    return outcome, capsys.readouterr()


@pytest.mark.parametrize("case", ["valid", "help", "unrecognized", "missing"])
@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_one_command_parser_parses_and_prints_as_the_full_one(monkeypatch, capsys, name, case):
    monkeypatch.setenv("COLUMNS", "80")
    argv = {"valid": [name, *VALID_ARGS[name]], "help": [name, "--help"],
            "unrecognized": [name, *VALID_ARGS[name], "--bogus"], "missing": [name]}[case]
    one = parse_outcome(cli.build_parser([name]), argv, capsys)
    assert one == parse_outcome(cli.build_parser(), argv, capsys)
    outcome, printed = one
    if case == "valid":
        assert (outcome.command, printed.out, printed.err) == (name, "", "")
    elif case == "help":
        assert (outcome, printed.err) == (0, "")
        assert printed.out.startswith(f"usage: hiddenpartition {name} [-h]")
    elif case == "unrecognized":
        # reported with the top-level usage, which names every command
        assert (outcome, printed.out) == (2, "")
        assert printed.err.startswith("usage: hiddenpartition [-h]")
        assert "{" + ",".join(cli.COMMANDS) + "}" in printed.err
    else:
        assert (outcome, printed.out) == (2, "")
        assert printed.err.startswith(f"usage: hiddenpartition {name} [-h]")


@pytest.mark.parametrize("argv, built", [
    (["analyze", "--named", "majority", "--t", "3"], ["analyze"]),
    (["hardness", "--named", "parity", "--t", "2", "--check", "u", "--n", "4", "--cases", "2"],
     ["hardness"]),
    (["--help"], list(cli.COMMANDS)),
    (["-h", "analyze"], list(cli.COMMANDS)),
    (["--", "analyze"], list(cli.COMMANDS)),
    (["ana"], list(cli.COMMANDS)),
    ([], list(cli.COMMANDS)),
])
def test_cli_command_line_builds_only_its_own_subparser(monkeypatch, capsys, argv, built):
    added = []
    add_parser = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        lambda self, name, **kw: added.append(name) or add_parser(self, name, **kw))
    with contextlib.suppress(SystemExit):
        main(argv)
    assert added == built


def run_python(*argv):
    """A fresh interpreter with src on its path: exit code, stdout and stderr.
    Its stdout is block-buffered even where PYTHONUNBUFFERED is set, so
    output left in the buffer at os._exit would be lost."""
    pythonpath = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, *argv], env=dict(env, PYTHONPATH=pythonpath),
                          capture_output=True, timeout=120)


def test_cli_subprocess_writes_the_in_process_bytes(tmp_path):
    # the command closes --out itself; the process then ends by os._exit,
    # with no module teardown left to flush or close it
    args = ["run-classical", "--named", "majority", "--t", "3", "--n", "240",
            "--alpha", "1/2", "--trials", "40", "--seed", "3"]
    assert run_cli([*args, "--out", str(tmp_path / "in.csv")]) == 0
    done = run_python("-m", "hiddenpartition.cli", *args, "--out", str(tmp_path / "sub.csv"))
    assert done.returncode == 0
    assert (tmp_path / "sub.csv").read_bytes() == (tmp_path / "in.csv").read_bytes()


def test_cli_subprocess_stdout_larger_than_a_pipe_buffer_arrives_whole(tmp_path):
    # the hard exit flushes what is still buffered before os._exit
    args = ["run-classical", "--named", "majority", "--t", "3", "--n", "240",
            "--alpha", "1/2", "--trials", "2000", "--seed", "3"]
    assert run_cli([*args, "--out", str(tmp_path / "in.csv")]) == 0
    expected = (tmp_path / "in.csv").read_bytes()
    assert len(expected) > 65536  # Linux's default pipe buffer
    done = run_python("-m", "hiddenpartition.cli", *args)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == expected


def test_cli_subprocess_guard_rejection_exits_two():
    done = run_python("-m", "hiddenpartition.cli", "reduce", "--named", "nae", "--t", "4",
                      "--n", "3")
    assert done.returncode == 2
    assert done.stdout == b""
    assert done.stderr == (b"guard rejection: parity-instance size n must be one of "
                           b"2, 4, 6, 8, 10, got 3\n")


MAIN_THEN = ("import atexit, sys\n"
             "from hiddenpartition.cli import main\n"
             "sys.argv = ['hiddenpartition', 'analyze', '--named', 'majority', '--t', '3']\n")


def test_cli_subprocess_exception_after_main_exits_one_with_its_traceback():
    # the hard exit stands down, so the traceback is printed and the code is 1
    done = run_python("-c", MAIN_THEN + "code = main()\nraise RuntimeError(f'after main {code}')")
    assert done.returncode == 1
    assert json.loads(done.stdout)["function"] == "majority:3"
    assert done.stderr.startswith(b"Traceback (most recent call last):")
    assert done.stderr.endswith(b"RuntimeError: after main 0\n")


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_cli_subprocess_atexit_handlers_around_main(traced):
    # a handler registered after main runs before the hard exit, which then
    # flushes what it printed; os._exit skips the handlers registered before
    # main, unless a tracer (coverage, say) makes the hard exit stand down
    code = MAIN_THEN + "atexit.register(print, 'earlier handler ran')\n"
    if traced:
        code += "sys.settrace(lambda *_: None)\n"
    code += "code = main()\natexit.register(print, 'later handler ran')\nsys.exit(code)"
    done = run_python("-c", code)
    assert done.returncode == 0
    tail = b"later handler ran\n" + (b"earlier handler ran\n" if traced else b"")
    assert done.stdout.endswith(tail)
    assert json.loads(done.stdout.removesuffix(tail))["t"] == 3


def test_cli_main_arms_the_hard_exit_only_when_it_owns_the_process(monkeypatch, tmp_path):
    # main(list) must never replace the exit status of the process calling it
    registered = []
    monkeypatch.setattr(atexit, "register", lambda *hook: registered.append(hook))
    args = ["analyze", "--named", "majority", "--t", "3", "--out", str(tmp_path / "a.json")]
    assert run_cli(args) == 0
    assert registered == []
    monkeypatch.setattr(sys, "argv", ["hiddenpartition", *args])
    assert main() == 0
    assert registered == [(cli._exit_without_teardown, 0)]


@pytest.mark.parametrize("reason", [None, "exception", "tracer", "profiler", "flush"])
def test_cli_hard_exit_hook_stands_down(monkeypatch, reason):
    exits = []
    monkeypatch.setattr(os, "_exit", exits.append)

    def tracer(*_):
        return None

    monkeypatch.setattr(sys, "gettrace", lambda: tracer if reason == "tracer" else None)
    monkeypatch.setattr(sys, "getprofile", lambda: tracer if reason == "profiler" else None)
    monkeypatch.delattr(sys, "last_value", raising=False)
    if reason == "exception":
        monkeypatch.setattr(sys, "last_value", RuntimeError("uncaught"), raising=False)
    if reason == "flush":
        class BrokenPipe(io.StringIO):
            def flush(self):
                raise BrokenPipeError

        monkeypatch.setattr(sys, "stdout", BrokenPipe())
    cli._exit_without_teardown(3)
    assert exits == ([3] if reason is None else [])


@pytest.mark.parametrize("args, code", [(["--help"], 0), (["analyze", "--bogus"], 2)],
                         ids=["help", "usage-error"])
def test_cli_subprocess_help_and_usage_errors_keep_their_output(monkeypatch, capsys, args, code):
    # argparse's SystemExit now ends the process through the hard exit too;
    # its code, stdout and stderr are still those main(list) gives
    monkeypatch.setenv("COLUMNS", "80")  # the help's width, here and in the child
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == code
    expected = capsys.readouterr()
    done = run_python("-m", "hiddenpartition.cli", *args)
    assert (done.returncode, done.stdout.decode(), done.stderr.decode()) == \
        (code, expected.out, expected.err)
    assert (expected.out if code == 0 else expected.err).startswith("usage: hiddenpartition")


def test_cli_main_arms_the_hard_exit_on_help_and_usage_errors(monkeypatch, capsys):
    registered = []
    monkeypatch.setattr(atexit, "register", lambda *hook: registered.append(hook))
    with pytest.raises(SystemExit):
        main(["analyze", "--bogus"])
    assert registered == []
    for args, code in ((["--help"], 0), (["analyze", "--bogus"], 2)):
        monkeypatch.setattr(sys, "argv", ["hiddenpartition", *args])
        with pytest.raises(SystemExit):
            main()
        assert registered.pop() == (cli._exit_without_teardown, code)


def test_importing_the_cli_imports_no_scipy_module():
    # the import budget: scipy.optimize is imported by the dense LP alone
    done = run_python("-X", "importtime", "-c", "import hiddenpartition.cli")
    assert done.returncode == 0
    names = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.decode().splitlines()
             if line.startswith("import time:")]
    assert "hiddenpartition.cli" in names
    assert [name for name in names if name.split(".")[0] == "scipy"] == []


# The modules of one package (argv[2]) in sys.modules after the import and
# after each command line of argv[1] in turn, printed as the last line
MODULES_AFTER_MAIN = """
import json, sys
from hiddenpartition.cli import main

package = sys.argv[2]

def modules():
    return sorted(name for name in sys.modules
                  if name == package or name.startswith(package + "."))

loaded = {"import": modules()}
for argv in json.loads(sys.argv[1]):
    try:
        assert main(argv) == 0, argv
    except SystemExit as exc:  # --help
        assert exc.code == 0, argv
    loaded[" ".join(argv)] = modules()
print(json.dumps(loaded))
"""


def modules_after_main(package: str, argvs: list) -> dict:
    done = run_python("-c", MODULES_AFTER_MAIN, json.dumps(argvs), package)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert len(loaded) == 1 + len(argvs)
    return loaded


def write_junta_spec(path: Path) -> str:
    """A signed-symmetric junta's truth table, written to path: majority
    of x1, -x3 and x5 at t = 5."""
    rows = np.arange(2**5)
    weights = sum(((rows ^ 0b00100) >> i) & 1 for i in (0, 2, 4))
    table = np.where(weights >= 2, -1, 1)
    path.write_text(json.dumps({"kind": "truth_table", "t": 5, "values": table.tolist()}))
    return str(path)


def test_cli_commands_on_reducible_functions_import_no_scipy(tmp_path):
    # every command line of the benchmark's kinds on a symmetric function or
    # a signed-symmetric junta runs without scipy in sys.modules
    spec = write_junta_spec(tmp_path / "junta.json")
    run = ["--n", "24", "--alpha", "1/2", "--trials", "5", "--seed", "7"]
    argvs = [
        ["analyze", "--named", "majority", "--t", "9"],
        ["analyze", "--function", str(spec)],
        ["analyze", "--named", "dictator", "--t", "4"],
        ["run-classical", "--named", "majority", "--t", "3", *run],
        ["run-quantum", "--named", "parity", "--t", "2", *run],
        ["reduce", "--named", "nae", "--t", "4", "--n", "4", "--sigmas", "3"],
        ["hardness", "--named", "parity", "--t", "2", "--check", "u", "--n", "6",
         "--cases", "5"],
    ]
    argvs = [[*argv, "--out", str(tmp_path / f"out{i}")] for i, argv in enumerate(argvs)]
    loaded = modules_after_main("scipy", argvs)
    assert all(names == [] for names in loaded.values()), loaded


def test_only_a_command_that_draws_imports_numpy_random(tmp_path):
    # numpy.random costs about 1.9 MiB of RSS: --help and analyze, of a
    # symmetric spec or a truth table, leave it out of sys.modules, and a
    # protocol run, which draws, loads it
    symmetric = tmp_path / "symmetric.json"
    symmetric.write_text(json.dumps({"kind": "symmetric", "t": 6, "thresholds": [1, 3, 4],
                                     "leading_sign": -1}))
    argvs = [
        ["--help"],
        ["analyze", "--function", str(symmetric), "--out", str(tmp_path / "out0")],
        ["analyze", "--function", write_junta_spec(tmp_path / "junta.json"),
         "--out", str(tmp_path / "out1")],
        ["run-classical", "--named", "majority", "--t", "3", "--n", "24", "--alpha", "1/2",
         "--trials", "5", "--seed", "7", "--out", str(tmp_path / "out2")],
    ]
    loaded = modules_after_main("numpy.random", argvs)
    *before, run = loaded.values()
    assert all(names == [] for names in before), loaded
    assert "numpy.random" in run


def test_cli_run_deterministic_output(tmp_path):
    args = [
        "run-quantum", "--named", "parity", "--t", "2",
        "--n", "16", "--alpha", "1/2", "--epsilon", "0.1",
        "--trials", "6", "--seed", "5", "--format", "jsonl",
    ]
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = [json.loads(line) for line in out1.read_text().splitlines()]
    summary = rows[-1]
    assert summary["successes"] == sum(r["correct"] for r in rows[:-1])


def test_cli_run_uniform(tmp_path):
    out = tmp_path / "u.csv"
    code = run_cli(
        [
            "run-uniform", "--named", "dictator", "--t", "4",
            "--n", "32", "--alpha", "1/2", "--samples", "8",
            "--trials", "20", "--seed", "1", "--out", str(out),
        ]
    )
    assert code == 0
    assert out.read_text().count("\n") == 22


def test_cli_function_file(tmp_path):
    spec_file = tmp_path / "f.json"
    spec_file.write_text(json.dumps({"kind": "truth_table", "t": 2, "values": [1, -1, -1, 1]}))
    out = tmp_path / "r.json"
    assert run_cli(["analyze", "--function", str(spec_file), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["sign_degree"] == 2


def test_cli_analyze_prints_the_block_matrix(tmp_path):
    out = tmp_path / "a.json"
    assert run_cli(["analyze", "--named", "parity", "--t", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["block_matrix_norm"] == pytest.approx(0.5, abs=1e-9)
    assert [len(row) for row in report["block_matrix"]] == [3, 3, 3]
    # no lift above sign-degree 2
    assert run_cli(["analyze", "--named", "parity", "--t", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["block_matrix"] is None and report["block_matrix_norm"] is None


def lift_function_args(tmp_path, function):
    """The function arguments for "name:t", or a spec file holding the
    random table of ``default_rng([t, seed])`` for "table:t:seed"."""
    name, *numbers = function.split(":")
    if name != "table":
        return ["--named", name, "--t", *numbers]
    t, seed = map(int, numbers)
    table = random_table(t, np.random.default_rng([t, seed])).table
    spec_file = tmp_path / "f.json"
    spec_file.write_text(json.dumps({"kind": "truth_table", "t": t, "values": table.tolist()}))
    return ["--function", str(spec_file)]


# sdeg = min(2, t) for parity:2, nae:3, dictator:1 and table:4:0; sdeg 1 < 2 for
# dictator:2 and table:3:1, so analyze solves the degree-2 LP a second time
@pytest.mark.parametrize("function", ["parity:2", "nae:3", "dictator:1", "dictator:2",
                                      "table:3:1", "table:4:0"])
def test_analyze_block_matrix_is_the_matrix_run_quantum_decides_from(
        monkeypatch, tmp_path, function):
    decided = []
    build = experiments.block_multilinear_matrix

    def spy(poly):
        decided.append(build(poly))
        return decided[-1]

    monkeypatch.setattr(experiments, "block_multilinear_matrix", spy)
    args = lift_function_args(tmp_path, function)
    assert run_cli(["run-quantum", *args, "--n", "12", "--trials", "2",
                    "--out", str(tmp_path / "o.csv")]) == 0
    out = tmp_path / "a.json"
    assert run_cli(["analyze", *args, "--out", str(out)]) == 0
    [matrix] = decided
    assert json.loads(out.read_text())["block_matrix"] == matrix.tolist()


def test_run_quantum_dump_matrix_is_a_usage_error(tmp_path, capsys):
    dump = tmp_path / "m.json"
    with pytest.raises(SystemExit) as exit_info:
        run_cli(["run-quantum", "--named", "parity", "--t", "2", "--n", "24",
                 "--dump-matrix", str(dump)])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --dump-matrix" in captured.err
    assert not dump.exists()


def test_cli_reduce(tmp_path):
    out = tmp_path / "red.json"
    spec_file = tmp_path / "sym.json"
    spec_file.write_text(
        json.dumps({"kind": "symmetric", "t": 4, "thresholds": [1, 3], "leading_sign": 1})
    )
    code = run_cli(
        ["reduce", "--function", str(spec_file), "--n", "8", "--sigmas", "5",
         "--seed", "2", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "pass"
    assert doc["gadget"] == {"a": 2, "b": 0, "flipped": False}


@pytest.mark.parametrize("passed", [0, 2], ids=["at-the-identity", "at-the-third-sigma"])
def test_cli_reduce_prints_the_fail_record(monkeypatch, tmp_path, capsys, passed):
    # a gadget one copy short breaks the identity at every sigma; with the
    # check patched to pass the first `passed` sigmas, the record names the next
    spec = SymmetricSpec(4, (1, 3), 1)
    good = reduction.find_gadget(spec)
    bad = ReductionGadget(good.a - 1, good.b, good.t, good.flipped)
    check = reduction.blockwise_identity_counterexamples
    sigmas = []

    def patched(f, gadget, sigma, xs):
        sigmas.append(sigma)
        return None if len(sigmas) <= passed else check(f, gadget, sigma, xs)

    monkeypatch.setattr(reduction, "find_gadget", lambda _: bad)
    monkeypatch.setattr(reduction, "blockwise_identity_counterexamples", patched)
    spec_file = tmp_path / "sym.json"
    spec_file.write_text(
        json.dumps({"kind": "symmetric", "t": 4, "thresholds": [1, 3], "leading_sign": 1})
    )
    n, seed = 6, 3
    assert run_cli(["reduce", "--function", str(spec_file), "--n", str(n), "--sigmas", "5",
                    "--seed", str(seed)]) == 0
    doc = json.loads(capsys.readouterr().out)

    rng = stream(seed, "reduce")
    expected_sigmas = [list(range(1, n + 1))]
    expected_sigmas += [fisher_yates(n, rng).tolist() for _ in range(passed)]
    assert [sigma.tolist() for sigma in sigmas] == expected_sigmas
    # the first (x, block), in row then block order, whose transformed block
    # weight a |pair| + b gives sign * f a value other than the pair's parity
    profile, sign = weight_profile(spec), -1 if bad.flipped else 1
    first = next(
        {"x": x.tolist(), "sigma": expected_sigmas[-1], "block": j + 1}
        for x in all_points(n)
        for j, pair in enumerate(np.reshape(apply_permutation(expected_sigmas[-1], x), (-1, 2)))
        if sign * profile[bad.a * hamming_weight(pair) + bad.b] != pair[0] * pair[1]
    )
    assert doc == {"function": str(spec_file), "status": "fail",
                   "gadget": {"a": bad.a, "b": bad.b, "flipped": bad.flipped},
                   "cases": (passed + 1) * 2**n, "counterexample": first}


def test_readme_command_examples_parse():
    # every `hiddenpartition ...` line of the README, its `\`-continued
    # lines joined, must parse, so a renamed or dropped flag fails here
    text = (SRC_DIR.parent / "README.md").read_text(encoding="utf-8")
    lines = re.sub(r"\\\n\s*", " ", text).splitlines()
    examples = [shlex.split(line)[1:] for line in lines if line.startswith("hiddenpartition ")]
    assert len(examples) >= 8
    for words in examples:
        assert cli.build_parser().parse_args(words).command == words[0]
    # and every --flag it names, in prose too, is one the CLI or a script
    # defines, so docs left behind by a removed flag fail here
    defined = {"--help"}
    for path in [SRC_DIR / "hiddenpartition" / "cli.py",
                 *sorted((SRC_DIR.parent / "scripts").glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
                defined.update(arg.value for arg in node.args if isinstance(arg, ast.Constant))
    named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", text))
    assert named - defined == set()


def test_cli_reduce_nae(tmp_path):
    out = tmp_path / "red.json"
    code = run_cli(
        ["reduce", "--named", "nae", "--t", "3", "--n", "6", "--seed", "0",
         "--out", str(out)]
    )
    assert code == 0
    assert json.loads(out.read_text())["status"] == "no-gadget"


def test_cli_reduce_rejects_asymmetric(tmp_path, capsys):
    spec_file = tmp_path / "f.json"
    spec_file.write_text(
        json.dumps({"kind": "truth_table", "t": 2, "values": [1, -1, 1, 1]})
    )
    assert run_cli(["reduce", "--function", str(spec_file), "--n", "4"]) == 2


@pytest.mark.parametrize("n", ["-2", "0", "3", "12"])
def test_cli_reduce_refuses_a_size_outside_two_to_ten_up_front(capsys, n):
    # refused by verify_reduction's own guard, before any shuffle of size n
    assert run_cli(["reduce", "--named", "nae", "--t", "4", "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("guard rejection: parity-instance size n must be one of "
                            f"2, 4, 6, 8, 10, got {n}\n")


def test_cli_hardness_rhat(tmp_path):
    out = tmp_path / "h.json"
    code = run_cli(
        ["hardness", "--named", "parity", "--t", "2", "--check", "rhat",
         "--n", "6", "--cases", "3", "--set-size", "16", "--seed", "4",
         "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["check"] == "rhat"
    assert doc["violations"] == 0
    assert doc["max_discrepancy"] <= 1e-10


def test_cli_hardness_kkl(tmp_path):
    out = tmp_path / "h.json"
    code = run_cli(
        ["hardness", "--named", "parity", "--t", "2", "--check", "kkl",
         "--n", "8", "--cases", "5", "--seed", "4", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["violations"] == 0


def test_cli_hardness_u_and_tvd(tmp_path):
    out = tmp_path / "h.json"
    assert run_cli(
        ["hardness", "--named", "parity", "--t", "2", "--check", "u",
         "--n", "6", "--alpha", "1/3", "--cases", "10", "--seed", "4",
         "--out", str(out)]
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["max_discrepancy"] <= 1e-12
    assert run_cli(
        ["hardness", "--named", "parity", "--t", "2", "--check", "tvd",
         "--n", "8", "--set-size", "256", "--sigmas", "5", "--seed", "4",
         "--out", str(out)]
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["mean"] == 0.0  # full cube


GOLDEN_RUN_ARGS = ("--n", "24", "--alpha", "1/2", "--trials", "5", "--seed", "7")


@pytest.mark.parametrize(
    "args, golden",
    [
        (["run-classical", "--named", "majority", "--t", "3", "--epsilon", "0.1"],
         "run_classical_majority_t3.csv"),
        (["run-quantum", "--named", "parity", "--t", "2", "--epsilon", "0.1",
          "--format", "jsonl"],
         "run_quantum_parity_t2.jsonl"),
        (["run-uniform", "--named", "dictator", "--t", "4", "--samples", "8"],
         "run_uniform_dictator_t4.csv"),
    ],
)
def test_cli_run_matches_golden(tmp_path, args, golden):
    out = tmp_path / golden
    assert run_cli([*args, *GOLDEN_RUN_ARGS, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / golden).read_bytes()


# sha256 of the stdout of each run at the benchmark's scale, which spans
# several lockstep chunks (the files above span one)
BENCH_RUN_ARGS = ("--n", "3000", "--alpha", "1/2", "--trials", "300", "--seed", "7")


@pytest.mark.parametrize(
    "args, digest",
    [
        (["run-classical", "--named", "majority", "--t", "3", "--epsilon", "0.1"],
         "fa7d18c22d4ddbb20378863113c1a29ee381611d34969fd7153d40e18fad73ab"),
        (["run-quantum", "--named", "parity", "--t", "2", "--epsilon", "0.1",
          "--format", "jsonl"],
         "04820ca1095399ae72dd69fe0e54f79d1d495a3082bb9a98fe233c5d649b4ffb"),
        (["run-uniform", "--named", "dictator", "--t", "4", "--samples", "32"],
         "6b1595292bfd0cd6ac6f0c01ef99a80ef281472d93581e44d3beb4114624b48f"),
    ],
    ids=["classical", "quantum", "uniform"],
)
def test_cli_run_at_benchmark_scale_matches_digest(tmp_path, args, digest):
    out = tmp_path / "run.out"
    assert run_cli([*args, *BENCH_RUN_ARGS, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of the stdout of each hardness-lab call at the benchmark's scale;
# the reduce spec is t = 8 with four sign changes, read from a relative path
# so that the record's "function" field is fixed
LAB_SPEC = {"kind": "symmetric", "t": 8, "thresholds": [1, 3, 4, 6], "leading_sign": 1}


@pytest.mark.parametrize(
    "args, digest",
    [
        (["hardness", "--named", "parity", "--t", "2", "--check", "tvd", "--n", "16",
          "--sigmas", "50"],
         "fa1828eaa44c56eaffbcd70789961876e9e906ec37badbc94cf6f5b9a091eb0c"),
        (["hardness", "--named", "parity", "--t", "2", "--check", "rhat", "--n", "12",
          "--cases", "10"],
         "f5b2b135a8a0a333d007233ec99ce8e487e6b2bbf9b250ee29cd912ad34f7b06"),
        (["hardness", "--named", "parity", "--t", "2", "--check", "u", "--n", "12",
          "--cases", "200"],
         "8c88f483466b5a6351e82a13df918a46ab16ccf6a8fe19e6d308684f1f95182d"),
        (["hardness", "--named", "parity", "--t", "2", "--check", "kkl", "--n", "14",
          "--cases", "50"],
         "d8a76df2327289267873cf987c389675e5d6eff1ab714ce01a009d0d4ec90fd1"),
        (["reduce", "--named", "nae", "--t", "4", "--n", "10", "--sigmas", "20"],
         "51ffa19daaad4b140bff0040101c4499d29a134ba564e245bd250dc6cb6d7998"),
        (["reduce", "--function", "spec8.json", "--n", "10", "--sigmas", "20"],
         "153b0050839da2ee98d09fe5250405e59528d5793428c0bf2fa0e4886bb6aea9"),
    ],
    ids=["tvd", "rhat", "u", "kkl", "reduce-nae", "reduce-spec"],
)
def test_cli_lab_at_benchmark_scale_matches_digest(monkeypatch, tmp_path, args, digest):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec8.json").write_text(json.dumps(LAB_SPEC))
    assert run_cli([*args, "--seed", "7", "--out", "lab.out"]) == 0
    assert hashlib.sha256((tmp_path / "lab.out").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "protocol, f, options",
    [("classical", majority(3), {"epsilon": 0.1}),
     ("quantum", parity(2), {"epsilon": 0.1}),
     ("uniform", dictator(4), {"sample_count": 8}),
     ("classical", and_fn(6), {"epsilon": 0.1})],  # m = 20061 > n: one row a slice
)
def test_trials_do_not_depend_on_chunking(monkeypatch, protocol, f, options):
    params = PartitionParams(24, f.t, Fraction(1, 2))
    chunks, slices = [], []
    generate = experiments.generate_instances
    monkeypatch.setattr(experiments, "generate_instances",
                        lambda *a: chunks.append(len(a[2])) or generate(*a))
    name = {"classical": "run_classical", "quantum": "run_quantum",
            "uniform": "run_uniform_phd1"}[protocol]
    decide = getattr(experiments, name)
    monkeypatch.setattr(experiments, name, lambda *a: slices.append(len(a[1])) or decide(*a))

    def run() -> tuple[str, int]:
        chunks.clear()
        slices.clear()
        out = io.StringIO()
        records, summary = run_protocol_trials(protocol, f, "f", params, 20, 5, **options)
        write_csv(out, records, summary)
        return out.getvalue(), summary.m or summary.samples

    whole, message_len = run()
    # the default bounds: one chunk, decided whole unless the message is
    # long (m = 374 takes 6 rows a slice, m = 20061 one)
    assert chunks == [20]
    assert slices == {374: [6, 6, 6, 2], 20061: [1] * 20}.get(message_len, [20])
    # chunks of 7 from the length-n bound, each decided in slices of 3 from
    # the row-slice budget
    monkeypatch.setattr(experiments, "CHUNK_BYTES", 7 * experiments.POSITION_BYTES * params.n)
    monkeypatch.setattr(instances, "SLICE_BYTES", 3 * experiments.MESSAGE_BYTES * message_len)
    assert run()[0] == whole
    assert chunks == [7, 7, 6]
    assert slices == [3, 3, 1, 3, 3, 1, 3, 3]
    # a 200-byte budget decides one row at a time and cuts the block map
    # into slices of 2 or 3 rows
    monkeypatch.setattr(instances, "SLICE_BYTES", 200)
    assert run()[0] == whole
    assert slices == [1] * 20


@pytest.mark.parametrize(
    "protocol, f, options, name",
    [("classical", majority(3), {"epsilon": 0.1}, "run_classical"),
     ("quantum", parity(2), {"epsilon": 0.1}, "run_quantum"),
     ("uniform", dictator(4), {"sample_count": 8}, "run_uniform_phd1")],
)
def test_each_protocol_call_decides_a_whole_chunk(monkeypatch, protocol, f, options, name):
    # 20 trials fit one chunk: one call takes all 20 rows, not one call per
    # trial, unless the row-slice budget cuts a long message (classical's
    # m = 374 into 6 rows a call)
    rows = []
    run = getattr(experiments, name)
    monkeypatch.setattr(experiments, name, lambda *a, **k: rows.append(len(a[1])) or run(*a, **k))
    params = PartitionParams(24, f.t, Fraction(1, 2))
    run_protocol_trials(protocol, f, "f", params, 20, 5, **options)
    assert rows == ([6, 6, 6, 2] if protocol == "classical" else [20])


def traced_peak(call) -> int:
    """The peak of the memory traced while call() runs, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def chunk_at_n3000(f):
    """The params, instance streams, hidden bits and protocol streams of
    the first 116-trial chunk at n = 3000, alpha = 1/2 and seed 0."""
    params = PartitionParams(3000, f.t, Fraction(1, 2))
    instance_rngs = [stream(0, "instance", trial) for trial in range(116)]
    bs = [coin(rng) for rng in instance_rngs]
    protocol_rngs = [stream(0, "protocol", trial) for trial in range(116)]
    return params, instance_rngs, bs, protocol_rngs


@pytest.mark.parametrize(
    "protocol, f, options, bound",
    [("quantum", parity(2), {"epsilon": 0.1}, 1.3e6),
     ("classical", majority(3), {"epsilon": 0.1}, 1.3e6),
     ("uniform", dictator(4), {"sample_count": 32}, 1.3e6)],
    ids=["quantum", "classical", "uniform"],
)
def test_a_trial_chunk_at_n3000_stays_under_its_memory_bound(monkeypatch, protocol, f, options,
                                                              bound):
    # a chunk at n = 3000 (alpha = 1/2, the benchmark's runs) is 116 trials,
    # and a run of two traces a peak of about 1.23 MB at the instances'
    # shuffle, which draws its swaps in halves beside x's packed bits:
    # uniform shuffles its subsets first, every decision slice stays under
    # the row-slice budget, and the second chunk's shuffle holds none of
    # the first chunk's arrays.  With the draws taken whole it was about
    # 1.58 MB; with classical's m = 374 decided 50 rows a slice, its chunk
    # peaked deciding, at 1.72 MB; with an int8 x beside the shuffle and
    # uniform's subsets shuffled beside the instances, the three were 1.86,
    # 1.86 and 2.60 MB
    params, instance_rngs, bs, _ = chunk_at_n3000(f)
    chunks = []
    generate = experiments.generate_instances
    monkeypatch.setattr(experiments, "generate_instances",
                        lambda *a: chunks.append(len(a[2])) or generate(*a))
    run_protocol_trials(protocol, f, "f", params, 117, 0, **options)
    assert chunks == [116, 1]

    alone = traced_peak(lambda: generate(f, params, bs, instance_rngs))
    # the run's own streams, built before the trace (tie-break ones inside)
    built = {label: [stream(0, label, trial) for trial in range(232)]
             for label in ("instance", "protocol")}
    build = experiments.stream
    monkeypatch.setattr(experiments, "stream", lambda seed, label, trial:
                        built[label][trial] if label in built else build(seed, label, trial))
    peak = traced_peak(lambda: run_protocol_trials(protocol, f, "f", params, 232, 0, **options))
    assert peak < bound
    assert peak < alone + 0.05e6


@pytest.mark.parametrize("stage, bound", [("b_map_rows", 0.4e6), ("fisher_yates_rows", 1.25e6),
                                          ("generate_instances", 1.3e6)])
def test_each_peak_of_a_trial_chunk_at_n3000_stays_cut(stage, bound):
    # the chunk's stages, each on its own (parity(2), as run-quantum): the
    # block map traces about 0.27 MB in row slices of x's packed bits
    # (1.29 MB whole), the shuffle 1.16 MB, its uint16 images, one half's
    # uint16 draws and 32 positions of intp indices (1.51 MB with all the
    # draws, 1.96 MB at 256 positions), and the whole instance draw
    # 1.20 MB, the shuffle beside x's packed bits (1.86 MB beside int8 x)
    params, instance_rngs, bs, protocol_rngs = chunk_at_n3000(parity(2))
    xs, sigmas, _ = generate_instances(parity(2), params, bs, instance_rngs)
    instance_rngs = chunk_at_n3000(parity(2))[1]  # fresh streams that have drawn their coins
    stages = {"b_map_rows": lambda: b_map_rows(parity(2), xs, sigmas, params),
              "fisher_yates_rows": lambda: fisher_yates_rows(params.n, protocol_rngs),
              "generate_instances": lambda: generate_instances(parity(2), params, bs,
                                                               instance_rngs)}
    assert traced_peak(stages[stage]) < bound


def test_a_run_quantum_call_codes_only_its_sampled_blocks():
    # on a pre-drawn 116-trial chunk (parity(2), n = 3000, alpha = 1/2,
    # m = 42) the protocol call traces about 0.34 MB: (116, 42) arrays and
    # the int8 strings of one map slice unpacked and scattered at a time
    # (0.68 MB with the whole chunk's), no (116, 1500) int64 code table
    # (2.2 MB)
    params, instance_rngs, bs, protocol_rngs = chunk_at_n3000(parity(2))
    prepare, decide, m, _ = experiments._make_runner("quantum", parity(2), params, 0.1, None)
    assert m == 42
    chunk = generate_instances(parity(2), params, bs, instance_rngs)
    assert traced_peak(lambda: decide(*chunk, prepare(protocol_rngs))) < 0.37e6


@pytest.mark.parametrize(
    "protocol, f, options, ties",
    [("classical", dictator(2), {"epsilon": 0.45}, True),  # m = 2
     ("classical", majority(3), {"epsilon": 0.1}, False),
     ("quantum", parity(2), {"epsilon": 0.45}, True),
     ("uniform", dictator(4), {"sample_count": 1}, True)],
)
def test_tie_streams_are_built_only_for_zero_statistics(monkeypatch, protocol, f, options, ties):
    # a trial's tie-break stream is built only where its statistic is 0,
    # also when chunks of 7 are decided in slices of 3
    built = []
    build = experiments.stream

    def counted(seed, label, trial):
        if label == "tiebreak":
            built.append(trial)
        return build(seed, label, trial)

    monkeypatch.setattr(experiments, "stream", counted)
    params = PartitionParams(24, f.t, Fraction(1))
    _, _, m, _ = experiments._make_runner(protocol, f, params, options.get("epsilon"),
                                          options.get("sample_count"))
    monkeypatch.setattr(experiments, "CHUNK_BYTES", 7 * experiments.POSITION_BYTES * params.n)
    monkeypatch.setattr(instances, "SLICE_BYTES",
                        3 * experiments.MESSAGE_BYTES * (m or options["sample_count"]))
    records, _ = run_protocol_trials(protocol, f, "f", params, 60, 5, **options)
    assert built == [record.trial for record in records if record.statistic == 0]
    assert bool(built) == ties


@pytest.mark.parametrize(
    "protocol, f, options",
    [("classical", dictator(2), {"epsilon": 0.45}),
     ("classical", majority(3), {"epsilon": 0.1}),
     ("quantum", parity(2), {"epsilon": 0.45}),
     ("uniform", dictator(4), {"sample_count": 1})],
)
def test_a_chunk_builds_two_streams_a_trial_and_shuffles_subsets_first(monkeypatch, protocol, f,
                                                                        options):
    # per chunk of 7: the protocol streams, run-uniform's subset shuffle,
    # the instance streams and the instances, then one tie-break stream
    # per zero statistic and nothing else, so the subsets are drawn before
    # the chunk's x, sigma and w exist
    events = []
    build, shuffle, generate = (experiments.stream, experiments.fisher_yates_rows,
                                experiments.generate_instances)
    monkeypatch.setattr(experiments, "stream", lambda seed, label, trial:
                        events.append((label, trial)) or build(seed, label, trial))
    monkeypatch.setattr(experiments, "fisher_yates_rows", lambda n, rngs:
                        events.append(("subsets", len(rngs))) or shuffle(n, rngs))
    monkeypatch.setattr(experiments, "generate_instances", lambda *a:
                        events.append(("instances", len(a[2]))) or generate(*a))
    params = PartitionParams(24, f.t, Fraction(1))
    monkeypatch.setattr(experiments, "CHUNK_BYTES", 7 * experiments.POSITION_BYTES * params.n)
    records, _ = run_protocol_trials(protocol, f, "f", params, 20, 5, **options)
    ties = {record.trial for record in records if record.statistic == 0}
    expected = []
    for numbers in (range(0, 7), range(7, 14), range(14, 20)):
        expected += [("protocol", trial) for trial in numbers]
        expected += [("subsets", len(numbers))] * (protocol == "uniform")
        expected += [("instance", trial) for trial in numbers]
        expected += [("instances", len(numbers))]
        expected += [("tiebreak", trial) for trial in numbers if trial in ties]
    assert events == expected


def test_a_zero_statistic_is_decided_by_the_trials_coin(monkeypatch):
    # the guess is the statistic's sign; +0.0 and -0.0 flip the trial's
    # tie-break coin (at seed 2 those of trials 0 and 1 are -1 and +1, the
    # reverse of the zeros' signs) and build only those two streams
    statistics = np.array([0.0, -0.0, 5e-324, -5e-324])
    monkeypatch.setattr(experiments, "_make_runner",
                        lambda *a: (lambda rngs: rngs, lambda *per_trial: statistics, 1, 3))
    built = []
    build = experiments.stream

    def counted(seed, label, trial):
        if label == "tiebreak":
            built.append(trial)
        return build(seed, label, trial)

    monkeypatch.setattr(experiments, "stream", counted)
    params = PartitionParams(24, 3, Fraction(1))
    records, _ = run_protocol_trials("classical", majority(3), "f", params, 4, 2, epsilon=0.1)
    coins = [coin(stream(2, "tiebreak", trial)) for trial in (0, 1)]
    assert coins == [-1, 1]
    assert [record.guess for record in records] == [*coins, 1, -1]
    assert built == [0, 1]
    assert [math.copysign(1, record.statistic) for record in records] == [1, -1, 1, -1]


@pytest.mark.parametrize("protocol, f", [("classical", majority(3)), ("quantum", parity(2))])
def test_bad_epsilon_refused_before_any_instance(monkeypatch, protocol, f):
    # the message size is fixed once per run, so epsilon is checked before the first trial
    def refuse(*args):
        raise AssertionError("instance drawn before epsilon was checked")

    monkeypatch.setattr(experiments, "generate_instances", refuse)
    with pytest.raises(ValueError, match="epsilon must lie in"):
        run_protocol_trials(
            protocol, f, "f", PartitionParams(24, f.t, Fraction(1, 2)), 10, 5, epsilon=0.7
        )


@pytest.mark.parametrize(
    "protocol, f, unread",
    [("uniform", majority(3), "epsilon"), ("classical", majority(3), "a sample count"),
     ("quantum", parity(2), "a sample count")],
    ids=["uniform", "classical", "quantum"],
)
def test_a_budget_the_protocol_does_not_read_is_refused_before_any_stream(
    monkeypatch, protocol, f, unread
):
    # run-uniform reads only its sample count, the others only epsilon; a
    # run given both would record a budget it never used
    def refuse(*args):
        raise AssertionError("stream built or instance drawn before the budget was checked")

    for name in ("stream", "generate_instances", "fisher_yates_rows"):
        monkeypatch.setattr(experiments, name, refuse)
    with pytest.raises(ValueError, match=f"not {unread}"):
        run_protocol_trials(protocol, f, "f", PartitionParams(24, f.t, Fraction(1, 2)), 10, 5,
                            epsilon=0.1, sample_count=8)


@pytest.mark.parametrize("check, flag", [("tvd", "--cases"), ("u", "--set-size"),
                                         ("u", "--sigmas"), ("rhat", "--sigmas"),
                                         ("kkl", "--sigmas")])
def test_a_budget_the_hardness_check_does_not_read_is_refused_before_any_stream(
    monkeypatch, capsys, check, flag
):
    # tvd reads --sigmas and --set-size, rhat and kkl --cases and --set-size,
    # u --cases alone; a record never rests on a budget its check ignored
    def refuse(*args):
        raise AssertionError("stream built before the budgets were checked")

    monkeypatch.setattr(cli, "run_check", refuse)
    monkeypatch.setattr(hardness, "stream", refuse)
    assert run_cli(["hardness", "--named", "parity", "--t", "2", "--check", check, "--n", "8",
                    flag, "3"]) == 2
    assert capsys.readouterr() == ("", f"guard rejection: the {check} check does not read {flag}\n")


@pytest.mark.parametrize(
    "check, n, flag, count",
    [("rhat", 8, "--cases", 5), ("u", 8, "--cases", 50),
     ("tvd", 8, "--sigmas", 10), ("kkl", 8, "--cases", 10)],
)
def test_cli_hardness_matches_golden(tmp_path, check, n, flag, count):
    golden = f"hardness_{check}.json"
    out = tmp_path / golden
    assert run_cli(["hardness", "--named", "parity", "--t", "2", "--check", check,
                    "--n", str(n), flag, str(count), "--seed", "0", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / golden).read_bytes()


MALFORMED_SPECS = {
    "values-not-pm1": {"kind": "truth_table", "t": 1, "values": [1.5, 1]},
    "values-null": {"kind": "truth_table", "t": 1, "values": [None, 1]},
    "t-null": {"kind": "truth_table", "t": None, "values": [1, -1]},
    "t-fraction": {"kind": "truth_table", "t": 2.5, "values": [1, -1, -1, 1]},
    "named-t-fraction": {"kind": "named", "name": "parity", "t": 2.5},
    "thresholds-not-a-list": {"kind": "symmetric", "t": 4, "thresholds": 5},
    "thresholds-fraction": {"kind": "symmetric", "t": 4, "thresholds": [1.5]},
    "leading-sign-list": {"kind": "symmetric", "t": 4, "thresholds": [1], "leading_sign": [1]},
}


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["run-classical", "--named", "majority", "--t", "3", "--n", "7"],
                     id="run-n-not-multiple-of-t"),
        pytest.param(["run-classical", "--named", "majority", "--t", "3", "--n", "24",
                      "--epsilon", "0.7"], id="epsilon-out-of-range"),
        pytest.param(["run-classical", "--named", "majority", "--t", "3", "--n", "30",
                      "--epsilon", "1e-320"], id="classical-epsilon-without-finite-m"),
        pytest.param(["run-quantum", "--named", "parity", "--t", "2", "--n", "30",
                      "--epsilon", "1e-320"], id="quantum-epsilon-without-finite-m"),
        pytest.param(["run-uniform", "--named", "dictator", "--t", "4", "--n", "24",
                      "--samples", "0"], id="zero-samples"),
        pytest.param(["hardness", "--named", "parity", "--t", "2", "--check", "u", "--n", "7"],
                     id="hardness-n-not-multiple-of-t"),
        pytest.param(["analyze", "--named", "majority", "--t", "4"], id="even-majority"),
        pytest.param(["analyze", "--named", "parity", "--t", "17"], id="arity-over-cap"),
        pytest.param(["run-classical", "--named", "majority", "--t", "3", "--n", "24",
                      "--trials", "0"], id="zero-trials"),
        pytest.param(["hardness", "--named", "parity", "--t", "2", "--check", "tvd",
                      "--n", "30"], id="message-set-over-cap"),
        pytest.param(["analyze", "--named", "parity"], id="named-without-t"),
        pytest.param(["analyze", "--function", "{tmp}/missing.json"], id="missing-function-file"),
        pytest.param(["analyze", "--function", "{tmp}/spec-without-t.json"],
                     id="function-spec-without-t"),
        pytest.param(["analyze", "--function", "{tmp}/parity3.json", "--t", "5"],
                     id="t-with-function"),
        pytest.param(["analyze", "--function", "{tmp}/spec-not-an-object.json"],
                     id="spec-not-an-object"),
        *(pytest.param(["analyze", "--function", f"{{tmp}}/{name}.json"], id=name)
          for name in MALFORMED_SPECS),
        pytest.param(["hardness", "--named", "parity", "--t", "2", "--check", "tvd",
                      "--n", "8", "--sigmas", "0"], id="zero-sigmas"),
        pytest.param(["hardness", "--named", "parity", "--t", "2", "--check", "rhat",
                      "--n", "8", "--cases", "-3"], id="negative-cases"),
        pytest.param(["hardness", "--named", "parity", "--t", "2", "--check", "tvd",
                      "--n", "8", "--set-size", "0"], id="zero-set-size"),
        pytest.param(["hardness", "--named", "parity", "--t", "2", "--check", "tvd",
                      "--n", "8", "--set-size", "100000"], id="set-size-over-cube"),
        pytest.param(["hardness", "--named", "parity", "--t", "2", "--check", "tvd",
                      "--n", "8", "--cases", "7"], id="tvd-with-cases"),
        pytest.param(["hardness", "--named", "parity", "--t", "2", "--check", "u",
                      "--n", "8", "--set-size", "5", "--sigmas", "9"], id="u-with-set-size"),
        pytest.param(["reduce", "--named", "nae", "--t", "4", "--n", "8", "--sigmas", "0"],
                     id="reduce-zero-sigmas"),
        pytest.param(["reduce", "--named", "nae", "--t", "4", "--n", "8", "--sigmas", "-3"],
                     id="reduce-negative-sigmas"),
    ],
)
def test_cli_invalid_input_is_a_guard_rejection(tmp_path, capsys, args):
    (tmp_path / "spec-without-t.json").write_text(
        json.dumps({"kind": "truth_table", "values": [1, -1, -1, 1]})
    )
    (tmp_path / "spec-not-an-object.json").write_text(json.dumps([1, 2]))
    (tmp_path / "parity3.json").write_text(
        json.dumps({"kind": "truth_table", "t": 3, "values": parity(3).table.tolist()})
    )
    for name, spec in MALFORMED_SPECS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(spec))
    args = [arg.format(tmp=tmp_path) for arg in args]
    assert run_cli([*args, "--out", str(tmp_path / "out")]) == 2
    assert_one_guard_rejection(capsys)


@pytest.mark.parametrize(
    "message, reason",
    [("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type "
      "int64", None), ("", "MemoryError")],
    ids=["numpy-message", "bare"],
)
def test_cli_out_of_memory_is_a_guard_rejection(monkeypatch, capsys, message, reason):
    # expected_tvd's per-sigma array at --sigmas 10^12 is one such allocation
    def exhaust(*_):
        raise MemoryError(message)

    monkeypatch.setattr(hardness, "expected_tvd", exhaust)
    assert run_cli(["hardness", "--named", "parity", "--t", "2", "--check", "tvd", "--n", "4",
                    "--sigmas", "1000000000000"]) == 2
    assert capsys.readouterr() == ("", f"guard rejection: {reason or message}\n")


@pytest.mark.parametrize(
    "args, work",
    [(["run-classical", "--named", "majority", "--t", "3", "--n", "24", "--out", "{bad}"],
      "run_protocol_trials"),
     (["hardness", "--named", "parity", "--t", "2", "--check", "tvd", "--n", "8",
       "--out", "{bad}"], "run_check"),
     (["reduce", "--named", "nae", "--t", "4", "--out", "{bad}"], "verify_reduction"),
     (["analyze", "--named", "majority", "--t", "3", "--out", "{bad}"], "sign_degree")],
    ids=["run-out", "hardness", "reduce", "analyze"],
)
def test_cli_unwritable_path_is_refused_before_the_work(monkeypatch, tmp_path, capsys, args, work):
    def refuse(*_):
        raise AssertionError("work ran before the output path was checked")

    monkeypatch.setattr(cli, work, refuse)
    bad = tmp_path / "missing-dir" / "out"
    assert run_cli([arg.format(bad=bad) for arg in args]) == 2
    assert_one_guard_rejection(capsys)


@pytest.mark.parametrize(
    "check, n, t",
    [*((check, n, t) for check, cap in hardness.CHECK_CAPS.items()
       for n, t in ((cap + 1, 1), (64, 2))), ("rhat", 10, 5)],
)
def test_cli_hardness_cap_is_refused_before_the_message_set_is_drawn(
        monkeypatch, capsys, check, n, t):
    # the refusal comes before any stream, message set or permutation is drawn
    def refuse(*_):
        raise AssertionError("drawn before the cap was checked")

    for name in ("stream", "draw_message_set", "fisher_yates"):
        monkeypatch.setattr(hardness, name, refuse)
    args = ["hardness", "--named", "parity", "--t", str(t), "--check", check, "--n", str(n)]
    assert run_cli(args) == 2
    arity = ", t <= 4" if check == "rhat" else ""
    reason = f"{check} is capped at n <= {hardness.CHECK_CAPS[check]}{arity}"
    assert capsys.readouterr() == ("", f"guard rejection: {reason}\n")


@pytest.mark.parametrize(
    "args",
    [["run-quantum", "--named", "and", "--t", "16", "--n", "32", "--alpha", "1/2",
      "--epsilon", "1e-300"],
     ["run-classical", "--named", "and", "--t", "16", "--n", "32", "--alpha", "1/2",
      "--epsilon", "1e-300"],
     ["run-uniform", "--named", "dictator", "--t", "4", "--n", "400000000", "--samples", "1"]],
    ids=["quantum-m", "classical-m", "uniform-n"],
)
def test_cli_oversized_trial_is_refused_before_any_draw(monkeypatch, capsys, args):
    def refuse(*_):
        raise AssertionError("an instance was drawn for an oversized trial")

    monkeypatch.setattr(experiments, "generate_instances", refuse)
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("guard rejection: one trial at n = ")
    assert err.endswith(f"over the {experiments.MAX_TRIAL_BYTES // 2**30} GiB limit\n")


def test_trial_cap_admits_and16_at_the_default_epsilon(monkeypatch):
    # quantum m = 19,174,896 copies, about 1.07 GB of decision arrays: admitted,
    # so the run gets as far as drawing its instances (stopped there)
    class Drawn(Exception):
        pass

    def stop(*_):
        raise Drawn

    monkeypatch.setattr(experiments, "generate_instances", stop)
    with pytest.raises(Drawn):
        run_protocol_trials("quantum", and_fn(16), "and:16", PartitionParams(32, 16, Fraction(1, 2)),
                            trials=1, seed=0, epsilon=0.1)


@pytest.mark.parametrize("flag", ["--out"])
def test_cli_rejected_input_keeps_an_existing_output_file(tmp_path, capsys, flag):
    kept = tmp_path / "kept"
    kept.write_text("earlier contents\n")
    args = ["run-quantum", "--named", "parity", "--t", "2", "--n", "24", "--epsilon", "0.7"]
    assert run_cli([*args, flag, str(kept)]) == 2
    assert_one_guard_rejection(capsys)
    assert kept.read_text() == "earlier contents\n"


@pytest.mark.parametrize(
    "args",
    [["run-classical", "--named", "majority", "--t", "3", "--n", "24"],
     ["hardness", "--named", "parity", "--t", "2", "--check", "u", "--n", "8"]],
)
def test_cli_zero_denominator_alpha_is_a_usage_error(capsys, args):
    with pytest.raises(SystemExit) as exit_info:
        run_cli([*args, "--alpha", "1/0"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ")
    assert "argument --alpha: invalid" in captured.err
    assert "Traceback" not in captured.err


def test_cli_unwritable_out_is_a_guard_rejection(tmp_path, capsys):
    assert run_cli(["run-classical", "--named", "majority", "--t", "3", "--n", "24",
                    "--trials", "2", "--out", str(tmp_path / "missing" / "x.csv")]) == 2
    assert_one_guard_rejection(capsys)


def assert_one_guard_rejection(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("guard rejection: ")
    assert captured.err.count("\n") == 1
