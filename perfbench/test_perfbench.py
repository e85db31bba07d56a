"""Self-test of the benchmark; not part of the package's test suite.

    python3 -m pytest perfbench/test_perfbench.py

Runs every workload at its smallest size, traced and untraced, and checks
that the result line names every metric of BENCHMARK.json with its unit;
checks that corrupted or changed outputs count as failed ops; and checks
that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_smallest_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def _outcome(stdout: str) -> run.Outcome:
    return run.Outcome(1, 1, 1, 0, stdout.encode(), b"")


GOOD_ANALYZE = json.dumps({"sign_degree": 3, "pure_high_degree": 3, "bias_at_sign_degree": 0.1})
GOOD_RUN = json.dumps({"record": "summary", "trials": 300, "wilson_high": 0.99,
                       "success_rate": 0.98})

CORRUPTED = [
    (functools.partial(checks.check_analyze, sign_degree=3), GOOD_ANALYZE,
     GOOD_ANALYZE.replace('"sign_degree": 3', '"sign_degree": 4')),
    (functools.partial(checks.check_analyze, sign_degree=3), GOOD_ANALYZE,
     GOOD_ANALYZE.replace("0.1", "0.0")),
    (functools.partial(checks.check_run, fmt="jsonl", trials=300, epsilon=0.1), GOOD_RUN,
     GOOD_RUN.replace("300", "299")),
    (functools.partial(checks.check_run, fmt="jsonl", trials=300, epsilon=0.1), GOOD_RUN,
     GOOD_RUN.replace("0.99", "0.79")),
    (functools.partial(checks.check_run, fmt="csv", trials=300, epsilon=None),
     "record,trials,success_rate\nsummary,300,0.98\n",
     "record,trials,success_rate\nsummary,300,0.5\n"),
    (checks.check_hardness, '{"violations": 0}', '{"violations": 1}'),
    (checks.check_reduce, '{"status": "pass"}', '{"status": "fail"}'),
    (checks.check_reduce, '{"status": "pass"}', '{"status": "pa'),
]


@pytest.mark.parametrize("check, good, bad", CORRUPTED)
def test_corrupted_output_counts_as_failed(check, good, bad):
    invocation = run.Invocation(("analyze",), 1, check)
    assert run._problem(invocation, _outcome(good), None) is None
    assert run._problem(invocation, _outcome(bad), None) is not None


def test_nonzero_exit_and_changed_stdout_count_as_failed():
    invocation = run.Invocation(("reduce",), 1, checks.check_reduce)
    good = _outcome('{"status": "pass"}')
    crashed = run.Outcome(1, 1, 1, 2, good.stdout, b"guard rejection: bad\n")
    assert run._problem(invocation, crashed, None).startswith("exit code 2")
    reference = run.hashlib.sha256(b'{"status": "pass"} ').hexdigest()
    assert run._problem(invocation, good, reference) == "stdout differs from the first pass"


def test_refuses_to_run_without_the_package_sources():
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        runs = [_bench("--workload", w["name"], "--seed", "1", "--seconds", "1", cwd=bare)
                for w in DECLARED["workloads"]]
    finally:
        shutil.rmtree(bare)
    for proc in runs:
        assert proc.returncode != 0
        assert "hiddenpartition/cli.py not found" in proc.stderr
        assert '"correct"' not in proc.stdout
