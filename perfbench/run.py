#!/usr/bin/env python3
"""End-to-end and per-module benchmark of the hiddenpartition CLI.

    python3 perfbench/run.py --workload lp-sym --seed 1 --seconds 50 --trace 0
    python3 -m pytest perfbench/test_perfbench.py     # the benchmark's self-test

Run it from the root of a source checkout; the package is imported from
./src and nothing needs installing.  A workload is a fixed list of CLI
invocations whose inputs are generated from --seed; the program receives
only those arguments and spec files.  Each invocation runs in a fresh
interpreter through launch.py, which imports ``hiddenpartition.cli`` and
calls ``main`` as the console script does, so import is part of every
timing.  Load is a closed loop with one client: one invocation at a time.
A pass runs the whole list once.  Passes repeat until the pass end nearest
to --seconds, and at least twice, so that each invocation's stdout can be
compared with the first pass (the determinism check).

--trace 0 prints the end-to-end metrics.  Each invocation's times are
taken as its median over the passes, so one slow pass moves them little:

  wall_s       sum over the list of spawn-to-exit time
  setup_s      sum over the list of time from spawn until
               ``hiddenpartition.cli`` is imported and ``main`` is callable;
               that is the same work in every invocation, so it is the
               median of every such time in the run, times the list length
  ops_per_s    ops / sum over the list of (spawn-to-exit - setup) time; an
               op is one protocol trial of a ``run-*`` invocation and one
               invocation of any other subcommand
  peak_rss_mb  highest max-RSS of any invocation (wait4 rusage), MiB

An op fails when its invocation exits non-zero, its output fails its check
(checks.py) or its stdout hash differs from the first pass; every op of a
failed invocation fails.  The failure fraction is failed / attempted of
the result line.

--trace 1 alternates untraced and traced passes (at least one of each;
the traced ones must print what the untraced ones did) and prints the
per-layer metrics that BENCHMARK.json names, ``<module>.<function>.<stat>``,
from the spans tracer.py records (medians over traced passes), the import
profile of ``python -X importtime`` and the trace overhead (traced minus
untraced wall_s).  LAYER_MOVES says which end-to-end metric, on which
workload, each module's metrics should move.

The last stdout line is the JSON result.  A result file with provenance
(and, traced, a spans file) is written to .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable, Optional

import checks
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
ENV = dict(os.environ, PYTHONPATH=str(SRC))
RUN_BUDGET_S = 170  # no pass starts that would end a run past this

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "ops_per_s": "op/s", "peak_rss_mb": "MiB"}
LAYER_MOVES = {
    "cli": "setup_s on both workloads, most on trials-lab (11 short invocations)",
    "signpoly": "wall_s, ops_per_s and peak_rss_mb on lp-sym; wall_s on trials-lab "
                "(dense truth-table LPs; one tiny LP per protocol run)",
    "boolfn": "ops_per_s on trials-lab (uniform recomputes the spectrum every trial; hardness)",
    "rng": "ops_per_s on trials-lab (per-trial Fisher-Yates; small-n hardness calls)",
    "instances": "ops_per_s on trials-lab (per-trial instances; batched b_map_rows in hardness)",
    "classical": "ops_per_s on trials-lab",
    "quantum": "ops_per_s on trials-lab",
    "experiments": "ops_per_s on trials-lab",
    "reduction": "wall_s on trials-lab",
    "hardness": "wall_s on trials-lab",
    "trace": "nothing: the cost of tracing itself",
}
SPAN_STATS = {"calls": "count", "s": "s", "self_s": "s"}
COUNTER_METRICS = {"signpoly.linprog.cells", "signpoly.linprog.inconclusive",
                   "instances.b_map_rows.rows"}
SPECIAL_METRICS = {"cli.import_s": "s", "cli.import.scipy_optimize_s": "s",
                   "signpoly.linprog.per_function": "count", "trace.overhead_s": "s"}


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Invocation:
    args: tuple[str, ...]
    ops: int
    check: Callable[[str], None]


def _seed(rnd: random.Random) -> str:
    return str(rnd.randrange(2**31))


def _spec_file(name: str, spec: dict) -> str:
    path = WORK / "inputs" / name
    path.write_text(json.dumps(spec) + "\n", encoding="utf-8")
    return str(path.relative_to(ROOT))


def _symmetric_spec(rnd: random.Random, t: int, k: int) -> dict:
    """Symmetric function of arity t with exactly k sign changes."""
    return {"kind": "symmetric", "t": t, "thresholds": sorted(rnd.sample(range(t), k)),
            "leading_sign": rnd.choice((-1, 1))}


def _junta_table(rnd: random.Random, t: int, m: int, k: int) -> dict:
    """Truth table on t inputs: a symmetric function with k sign changes
    of m < t of them, some inputs negated.  It is not symmetric, and its
    sign-degree is exactly k (averaging a representation over the unused
    inputs represents the m-input function), which gives the check an
    oracle that does not come from the LP."""
    inner = _symmetric_spec(rnd, m, k)
    profile = [inner["leading_sign"] * (-1) ** sum(th < w for th in inner["thresholds"])
               for w in range(m + 1)]
    used = rnd.sample(range(t), m)
    negated = rnd.getrandbits(t)
    values = [profile[sum(((row ^ negated) >> i) & 1 for i in used)] for row in range(2**t)]
    return {"kind": "truth_table", "t": t, "values": values}


def _analyze(args: tuple[str, ...], sign_degree: int) -> Invocation:
    return Invocation(("analyze", *args), 1,
                      functools.partial(checks.check_analyze, sign_degree=sign_degree))


def lp_sym(rnd: random.Random, smoke: bool) -> list[Invocation]:
    """Parity, then one symmetric spec per sign-change count 3..t."""
    t_parity, t = (5, 5) if smoke else (9, 8)
    invocations = [_analyze(("--named", "parity", "--t", str(t_parity)), t_parity)]
    for k in range(3, t + 1):
        path = _spec_file(f"lp-sym-k{k}.json", _symmetric_spec(rnd, t, k))
        invocations.append(_analyze(("--function", path), k))
    return invocations


def _trials(rnd: random.Random, smoke: bool) -> list[Invocation]:
    """One run of each protocol at n = 3000, alpha = 1/2."""
    n, count = (240, 20) if smoke else (3000, 300)
    runs = (
        (("run-classical", "--named", "majority", "--t", "3", "--epsilon", "0.1"), "csv", 0.1),
        (("run-quantum", "--named", "parity", "--t", "2", "--epsilon", "0.1",
          "--format", "jsonl"), "jsonl", 0.1),
        (("run-uniform", "--named", "dictator", "--t", "4", "--samples", "32"), "csv", None),
    )
    common = ("--n", str(n), "--alpha", "1/2", "--trials", str(count))
    return [
        Invocation((*args, *common, "--seed", _seed(rnd)), count,
                   functools.partial(checks.check_run, fmt=fmt, trials=count, epsilon=epsilon))
        for args, fmt, epsilon in runs
    ]


def _lab(rnd: random.Random, smoke: bool) -> list[Invocation]:
    """Hardness checks, reductions, and analyze on non-symmetric tables."""
    if smoke:
        hardness = (("rhat", 6, "--cases", 2), ("u", 6, "--cases", 10),
                    ("tvd", 8, "--sigmas", 5), ("kkl", 6, "--cases", 5))
        reduce_n, reduce_t, sigmas, tables = 4, 6, 3, ((5, 4, 3), (6, 5, 3))
    else:
        hardness = (("rhat", 12, "--cases", 10), ("u", 12, "--cases", 200),
                    ("tvd", 16, "--sigmas", 50), ("kkl", 14, "--cases", 50))
        reduce_n, reduce_t, sigmas, tables = 10, 8, 20, ((7, 6, 3), (9, 8, 3))
    invocations = [
        Invocation(("hardness", "--named", "parity", "--t", "2", "--check", check, "--n", str(n),
                    flag, str(count), "--seed", _seed(rnd)), 1, checks.check_hardness)
        for check, n, flag, count in hardness
    ]
    reduce_path = _spec_file("lab-reduce.json", _symmetric_spec(rnd, reduce_t, 4))
    for function in (("--named", "nae", "--t", "4"), ("--function", reduce_path)):
        invocations.append(Invocation(
            ("reduce", *function, "--n", str(reduce_n), "--sigmas", str(sigmas),
             "--seed", _seed(rnd)), 1, checks.check_reduce))
    for t, m, k in tables:
        path = _spec_file(f"lab-table-t{t}.json", _junta_table(rnd, t, m, k))
        invocations.append(_analyze(("--function", path), k))
    return invocations


def trials_lab(rnd: random.Random, smoke: bool) -> list[Invocation]:
    """The protocol runs, then the hardness lab.  One workload rather than
    two: on a shared 2-core machine a run's medians only settle over about
    45 s or more of measuring, and with three workloads that long the 70
    runs of a two-sided comparison would take more than an hour."""
    return _trials(rnd, smoke) + _lab(rnd, smoke)


WORKLOADS = {"lp-sym": lp_sym, "trials-lab": trials_lab}


# ---------------------------------------------------------------------------
# Running invocations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Outcome:
    wall_ns: int
    setup_ns: int
    maxrss_kb: int
    exit_code: int
    stdout: bytes
    stderr: bytes


def spawn(args: tuple[str, ...], spans_path: Optional[Path], deadline: float) -> Outcome:
    """Run one CLI invocation to completion (killed at ``deadline``)."""
    out, err, ready = WORK / "stdout", WORK / "stderr", WORK / "ready"
    ready.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "launch.py"), str(ready),
            str(spans_path) if spans_path else "-", *args]
    actions = [(os.POSIX_SPAWN_OPEN, fd, str(path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
               for fd, path in ((1, out), (2, err))]
    start = _now_ns()
    pid = os.posix_spawn(sys.executable, argv, ENV, file_actions=actions)
    exited = []
    try:
        pidfd = os.pidfd_open(pid)
        try:
            exited = select.select([pidfd], [], [], max(0.0, deadline - time.monotonic()))[0]
        finally:
            os.close(pidfd)
    finally:
        if not exited:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    end = _now_ns()
    try:
        ready_ns = int(ready.read_text())
    except (OSError, ValueError):  # died before main was callable
        ready_ns = end
    return Outcome(end - start, ready_ns - start, usage.ru_maxrss,
                   os.waitstatus_to_exitcode(status), out.read_bytes(), err.read_bytes())


def _problem(invocation: Invocation, outcome: Outcome, reference: Optional[str]) -> Optional[str]:
    if outcome.exit_code != 0:
        tail = outcome.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return f"exit code {outcome.exit_code}: {' '.join(tail)}"
    try:
        invocation.check(outcome.stdout.decode())
    except (checks.CheckFailed, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"check failed: {exc!r}"
    if reference is not None and hashlib.sha256(outcome.stdout).hexdigest() != reference:
        return "stdout differs from the first pass"
    return None


def run_pass(invocations: list[Invocation], traced: bool, deadline: float,
             reference: list[str], failures: list[str], span_log: list) -> dict:
    """Run the list once.  ``reference`` holds each invocation's stdout
    sha256 from the first pass and is filled by it."""
    spans_path = WORK / "spans.json" if traced else None
    failed = attempted = 0
    outcomes, spans_per_invocation = [], []
    for index, invocation in enumerate(invocations):
        if spans_path:
            spans_path.unlink(missing_ok=True)
        outcome = spawn(invocation.args, spans_path, deadline)
        if index == len(reference):
            reference.append(hashlib.sha256(outcome.stdout).hexdigest())
            problem = _problem(invocation, outcome, None)
        else:
            problem = _problem(invocation, outcome, reference[index])
        if problem:
            failed += invocation.ops
            failures.append(f"{' '.join(invocation.args)}: {problem}")
        attempted += invocation.ops
        outcomes.append(outcome)
        if spans_path:
            spans = json.loads(spans_path.read_text()) if spans_path.exists() else []
            spans_per_invocation.append(spans)
            span_log.append({"args": invocation.args, "spans": spans})
    record = {"traced": traced, "attempted": attempted, "failed": failed,
              "wall_s": sum(o.wall_ns for o in outcomes) / 1e9,
              "per_invocation": [{"wall_s": o.wall_ns / 1e9, "setup_s": o.setup_ns / 1e9,
                                  "work_s": (o.wall_ns - o.setup_ns) / 1e9,
                                  "rss_mb": o.maxrss_kb / 1024} for o in outcomes]}
    if traced:
        record["layers"] = aggregate_spans(spans_per_invocation)
    return record


def end_to_end(passes: list[dict], ops: int) -> dict[str, float]:
    """Run-level metrics, robust to one slow pass: each invocation's
    median over passes, summed over the list.  The import is the same
    work in every invocation, so setup_s is the median of every import in
    the run times the number of invocations."""
    runs = list(zip(*(p["per_invocation"] for p in passes)))

    def summed(key: str) -> float:
        return sum(statistics.median(sample[key] for sample in run) for run in runs)

    setups = [sample["setup_s"] for run in runs for sample in run]
    return {"wall_s": summed("wall_s"),
            "setup_s": len(runs) * statistics.median(setups),
            "ops_per_s": ops / summed("work_s"),
            "peak_rss_mb": max(statistics.median(s["rss_mb"] for s in run) for run in runs)}


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def aggregate_spans(span_lists: list[list]) -> dict[str, float]:
    """calls, inclusive s, self s (inclusive minus time covered by child
    spans) per span name, counters summed, over all invocations."""
    totals: Counter = Counter()
    for spans in span_lists:
        covered = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _, counters), child_ns in zip(spans, covered):
            totals[f"{name}.calls"] += 1
            totals[f"{name}.s"] += (end - start) / 1e9
            totals[f"{name}.self_s"] += (end - start - child_ns) / 1e9
            for key, value in (counters or {}).items():
                totals[f"{name}.{key}"] += value
    totals["invocations"] = len(span_lists)
    return dict(totals)


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric; KeyError if the benchmark cannot compute it."""
    if name in SPECIAL_METRICS:
        return SPECIAL_METRICS[name]
    if name in COUNTER_METRICS:
        return "count"
    span, stat = name.rsplit(".", 1)
    module, function = span.split(".")
    if function not in tracer.TARGETS.get(module, ()) and span != "signpoly.linprog":
        raise KeyError(name)
    return SPAN_STATS[stat]


def layer_value(name: str, layers: dict[str, float]) -> float:
    if name == "signpoly.linprog.per_function":  # every invocation handles one function
        return layers.get("signpoly.linprog.calls", 0) / layers["invocations"]
    return layers.get(name, 0)


def import_profile(repeats: int = 3) -> dict[str, float]:
    """Median ``python -X importtime`` cost of ``import hiddenpartition.cli``
    and of the ``scipy.optimize`` import inside it, in seconds."""
    totals, scipy_optimize = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import hiddenpartition.cli"],
            env=ENV, capture_output=True, text=True, timeout=60, check=True)
        total = optimize = 0
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            cumulative, name = int(fields[1]), fields[2]
            top_level = not name.startswith("  ")
            if top_level and name.strip().split(".")[0] == "hiddenpartition":
                total += cumulative
            if name.strip() == "scipy.optimize":
                optimize = max(optimize, cumulative)
        totals.append(total / 1e6)
        scipy_optimize.append(optimize / 1e6)
    return {"cli.import_s": statistics.median(totals),
            "cli.import.scipy_optimize_s": statistics.median(scipy_optimize)}


# ---------------------------------------------------------------------------
# Provenance and main
# ---------------------------------------------------------------------------


def _git_sha() -> Optional[str]:
    """HEAD of the checkout's own .git, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"), "git_sha": _git_sha(), "seed": seed,
            "loadavg_start": os.getloadavg()}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest input sizes, for the benchmark's self-test")
    args = parser.parse_args(argv)

    # SIGTERM unwinds through spawn(), which then kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.chdir(ROOT)
    if not (SRC / "hiddenpartition" / "cli.py").is_file():
        print(f"perfbench: {SRC}/hiddenpartition/cli.py not found; run from a source checkout",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    units = {name: layer_unit(name) if args.trace else END_TO_END_UNITS[name] for name in names}
    origin = provenance(args.seed)
    (WORK / "inputs").mkdir(parents=True, exist_ok=True)
    # Compiles the package's bytecode and warms the file cache; users do not
    # pay that on every call, so no timed pass should.
    warm = subprocess.run([sys.executable, "-c", "import hiddenpartition.cli"], env=ENV,
                          capture_output=True, text=True, timeout=120)
    if warm.returncode != 0:
        print(f"perfbench: cannot import hiddenpartition.cli:\n{warm.stderr}", file=sys.stderr)
        return 2

    invocations = WORKLOADS[args.workload](random.Random(args.seed), args.smoke)
    reference: list[str] = []
    failures: list[str] = []
    span_log: list = []
    passes: list[dict] = []
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    rounds = 0
    while True:
        round_start = time.monotonic()
        for traced in ((False, True) if args.trace else (False,)):
            passes.append(run_pass(invocations, traced, deadline, reference, failures, span_log))
        rounds += 1
        now = time.monotonic()
        last = now - round_start
        # Stop at the round end nearest to --seconds (a round starts only if
        # half of it fits), after at least two passes for the determinism check.
        if rounds >= (1 if args.trace else 2) and now - start + last / 2 >= args.seconds:
            break
        if now + last > deadline:
            break

    plain = [p for p in passes if not p["traced"]]
    ops = sum(invocation.ops for invocation in invocations)
    if args.trace:
        traced_passes = [p for p in passes if p["traced"]]
        values = dict(import_profile())
        values["trace.overhead_s"] = (end_to_end(traced_passes, ops)["wall_s"]
                                      - end_to_end(plain, ops)["wall_s"])
        for name in names:
            if name not in values:
                values[name] = statistics.median(layer_value(name, p["layers"])
                                                 for p in traced_passes)
    else:
        values = end_to_end(plain, ops)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in names}
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"workload": args.workload, "provenance": origin, "seconds": args.seconds,
              "invocations": [list(i.args) for i in invocations], "passes": passes,
              "attempted": attempted, "failed": failed, "failures": failures,
              "metrics": metrics, "layer_moves": LAYER_MOVES}
    (WORK / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        spans = {"provenance": origin, "invocations": span_log}
        (WORK / f"spans-{tag}.json").write_text(json.dumps(spans) + "\n")
        _print_self_times(invocations, passes, span_log)

    for failure in failures[:10]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(f"{args.workload}: {len(plain)} untraced passes, {len(passes) - len(plain)} traced; "
          f"failed_frac = {failed}/{attempted}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def _print_self_times(invocations: list[Invocation], passes: list[dict], span_log: list) -> None:
    """The three largest self times of the traced passes per subcommand,
    with import (spawn until main is callable) as its own entry, each as a
    share of that subcommand's traced wall time."""
    groups: dict[str, Counter] = {}
    for p in passes:
        if p["traced"]:
            for invocation, sample in zip(invocations, p["per_invocation"]):
                group = groups.setdefault(invocation.args[0], Counter())
                group["wall"] += sample["wall_s"]
                group["import"] += sample["setup_s"]
    for entry in span_log:
        group = groups[entry["args"][0]]
        for key, value in aggregate_spans([entry["spans"]]).items():
            if key.endswith(".self_s"):
                group[key[: -len(".self_s")]] += value
    for command, group in groups.items():
        wall = group.pop("wall")
        top = ", ".join(f"{name} {100 * seconds / wall:.0f}%"
                        for name, seconds in group.most_common(3))
        print(f"  self time, {command}: {top}")


if __name__ == "__main__":
    sys.exit(main())
