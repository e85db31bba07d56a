"""The experiment scripts run end to end and are deterministic per seed."""

import atexit
import csv
import importlib.util
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hiddenpartition.hardness import CHECK_CAPS

ROOT = Path(__file__).resolve().parents[1]
TVD_CAP_REFUSAL = f"guard rejection: tvd is capped at n <= {CHECK_CAPS['tvd']}\n"


def run_script(name, *args, check=True):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True, text=True, timeout=120, check=check,
    )


def load_script(name):
    """The script as a module, for calling its main() in process."""
    spec = importlib.util.spec_from_file_location(name[:-3], ROOT / "scripts" / name)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


@pytest.mark.parametrize(
    "name, args, header, rows",
    [
        ("protocol_sweep.py",
         ("--protocol", "classical", "--named", "majority", "--t", "3",
          "--trials", "5", "--sizes", "6", "12"),
         ["n", "trials", "success_rate", "wilson_low", "wilson_high", "mean_cost_bits"], 2),
        ("tvd_trend.py", ("--n", "6", "--sigmas", "3"),
         ["set_size_log2", "mean_tvd", "stderr"], 5),  # log2 |A| = 2..6
    ],
)
def test_script_writes_a_deterministic_csv(name, args, header, rows):
    first = run_script(name, *args).stdout
    table = list(csv.reader(io.StringIO(first)))
    assert table[0] == header
    assert len(table) == 1 + rows
    assert run_script(name, *args).stdout == first


@pytest.mark.parametrize(
    "name, args",
    [("protocol_sweep.py",
      ("--protocol", "classical", "--named", "majority", "--t", "3", "--sizes", "6")),
     ("tvd_trend.py", ("--n", "6"))],
)
def test_script_zero_denominator_alpha_is_a_usage_error(name, args):
    result = run_script(name, *args, "--alpha", "1/0", check=False)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("usage: ")
    assert "argument --alpha: invalid" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "name, args",
    [("protocol_sweep.py",  # parity has sign-degree 2: no sampled-bits protocol
      ("--protocol", "classical", "--named", "parity", "--t", "2", "--sizes", "10")),
     ("protocol_sweep.py",  # t does not divide n
      ("--protocol", "quantum", "--named", "parity", "--t", "2", "--sizes", "7")),
     ("tvd_trend.py", ("--n", "30")),  # above the brute-force cap
     ("tvd_trend.py", ("--n", "6", "--out", "/nonexistent/x.csv")),
     ("tvd_trend.py", ("--n", "6", "--sigmas", "0")),
     ("tvd_trend.py", ("--n", "1", "--t", "1", "--named", "dictator"))],  # no set size to show
)
def test_script_bad_input_is_a_guard_rejection(name, args):
    result = run_script(name, *args, check=False)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.count("guard rejection: ") == 1
    assert result.stderr.startswith("guard rejection: ")
    assert "Traceback" not in result.stderr
    if args == ("--n", "30"):
        assert result.stderr == TVD_CAP_REFUSAL


@pytest.mark.parametrize("n", ["18", "22"])  # over tvd's cap; 22 is over the message sets' too
def test_tvd_trend_over_the_cap_is_refused_before_any_draw(monkeypatch, capsys, n):
    script = load_script("tvd_trend.py")

    def refuse(*_, **__):
        raise AssertionError("drew before the cap was checked")

    monkeypatch.setattr(script, "stream", refuse)
    monkeypatch.setattr(script, "draw_message_set", refuse)
    monkeypatch.setattr(sys, "argv", ["tvd_trend.py", "--n", n])
    assert script.main() == 2
    assert capsys.readouterr() == ("", TVD_CAP_REFUSAL)


@pytest.mark.parametrize(
    "name, args, work",
    [("protocol_sweep.py",
      ("--protocol", "classical", "--named", "majority", "--t", "3", "--sizes", "6"),
      "run_protocol_trials"),
     ("tvd_trend.py", ("--n", "6"), "expected_tvd")],
)
def test_script_unwritable_out_is_refused_before_the_work(monkeypatch, capsys, tmp_path,
                                                          name, args, work):
    script = load_script(name)

    def refuse(*_, **__):
        raise AssertionError("work ran before --out was checked")

    monkeypatch.setattr(script, work, refuse)
    monkeypatch.setattr(sys, "argv", [name, *args, "--out", str(tmp_path / "missing-dir" / "x.csv")])
    assert script.main() == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("guard rejection: ")
    assert captured.err.count("guard rejection: ") == 1


def test_script_main_arms_no_hard_exit(monkeypatch, tmp_path):
    # only cli.main() owns a process; run_guarded never replaces its exit code
    registered = []
    monkeypatch.setattr(atexit, "register", lambda *hook: registered.append(hook))
    script = load_script("tvd_trend.py")
    monkeypatch.setattr(sys, "argv", ["tvd_trend.py", "--n", "4", "--sigmas", "1",
                                      "--out", str(tmp_path / "trend.csv")])
    assert script.main() == 0
    assert registered == []


def test_script_subprocess_writes_the_in_process_bytes(monkeypatch, tmp_path):
    # run_guarded freezes the collector before the sweep; the process's
    # teardown still flushes and closes --out
    args = ["--protocol", "classical", "--named", "majority", "--t", "3",
            "--trials", "20", "--sizes", "6", "12"]
    run_script("protocol_sweep.py", *args, "--out", str(tmp_path / "sub.csv"))
    script = load_script("protocol_sweep.py")
    monkeypatch.setattr(sys, "argv", ["protocol_sweep.py", *args,
                                      "--out", str(tmp_path / "in.csv")])
    assert script.main() == 0
    assert (tmp_path / "sub.csv").read_bytes() == (tmp_path / "in.csv").read_bytes()
