import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from hiddenpartition.cli import main
from hiddenpartition.experiments import (
    run_protocol_trials,
    wilson_interval,
    write_csv,
    write_jsonl,
)
from hiddenpartition.boolfn import dictator
from hiddenpartition.instances import PartitionParams


GOLDEN_DIR = Path(__file__).parent / "golden"


def run_cli(args):
    return main(args)


def test_wilson_interval_basic():
    low, high = wilson_interval(90, 100)
    assert 0.8 < low < 0.9 < high < 0.96
    assert wilson_interval(0, 0) == (0.0, 1.0)


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


def test_cli_quantum_matrix_dump(tmp_path):
    dump = tmp_path / "matrix.json"
    code = run_cli(
        [
            "run-quantum", "--named", "parity", "--t", "2",
            "--n", "8", "--epsilon", "0.1", "--trials", "2", "--seed", "0",
            "--out", str(tmp_path / "o.csv"), "--dump-matrix", str(dump),
        ]
    )
    assert code == 0
    record = json.loads(dump.read_text())
    assert record["spectral_norm"] == pytest.approx(0.5, abs=1e-9)
    assert len(record["entries"]) == 3
    assert len(record["dilation"]) == 6


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


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["run-classical", "--named", "majority", "--t", "3", "--n", "7"],
                     id="run-n-not-multiple-of-t"),
        pytest.param(["run-classical", "--named", "majority", "--t", "3", "--n", "24",
                      "--epsilon", "0.7"], id="epsilon-out-of-range"),
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
        pytest.param(["analyze", "--function", "{tmp}/spec-not-an-object.json"],
                     id="spec-not-an-object"),
        pytest.param(["hardness", "--named", "parity", "--t", "2", "--check", "tvd",
                      "--n", "8", "--sigmas", "0"], id="zero-sigmas"),
        pytest.param(["hardness", "--named", "parity", "--t", "2", "--check", "rhat",
                      "--n", "8", "--cases", "-3"], id="negative-cases"),
        pytest.param(["hardness", "--named", "parity", "--t", "2", "--check", "tvd",
                      "--n", "8", "--set-size", "0"], id="zero-set-size"),
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
    args = [arg.format(tmp=tmp_path) for arg in args]
    assert run_cli([*args, "--out", str(tmp_path / "out")]) == 2
    assert_one_guard_rejection(capsys)


def test_cli_unwritable_out_is_a_guard_rejection(tmp_path, capsys):
    assert run_cli(["run-classical", "--named", "majority", "--t", "3", "--n", "24",
                    "--trials", "2", "--out", str(tmp_path / "missing" / "x.csv")]) == 2
    assert_one_guard_rejection(capsys)


def assert_one_guard_rejection(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("guard rejection: ")
    assert captured.err.count("\n") == 1
