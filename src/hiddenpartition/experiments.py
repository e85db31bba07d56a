"""Seeded Monte-Carlo trial runner and result records.

Every trial gets three named randomness streams derived from the one
experiment seed: "instance" (hidden bit, x, sigma), "protocol" (the
sender/decider), and "tiebreak" (zero-statistic coin flips).  Records are
written in trial order, so identical configurations produce byte-identical
output.

Trials run in chunks: a chunk's instances are generated together, their
shuffles in lockstep (``rng.fisher_yates_rows``), and so are run-uniform's
index subsets.  Since every trial draws only from its own streams, the
output does not depend on where the chunks are cut.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional

from .boolfn import BooleanFunction
from .classical import level_one_slots, protocol_witness, run_classical, run_uniform_phd1
from .instances import PartitionParams, generate_instances
from .quantum import block_multilinear_matrix, run_quantum
from .rng import coin, fisher_yates_rows, stream

PROTOCOLS = ("classical", "quantum", "uniform")

# Bound on a chunk's arrays, all counted together: per trial, x, sigma (the
# shuffle's (n, T) array), the shuffle's flat swap indices, b_map_rows'
# permuted string, and for run-uniform the subsets' shuffle (its (n, T)
# array and swap indices); CHUNK_ARRAYS length-n int64 arrays in all.
CHUNK_BYTES = 16 * 2**20
CHUNK_ARRAYS = 6

WILSON_Z = 1.96  # normal quantile of the summary's 95% Wilson interval

TRIAL_FIELDS = ("record", "trial", "b", "guess", "correct", "statistic", "cost_bits")
SUMMARY_FIELDS = (
    "record",
    "protocol",
    "function",
    "n",
    "t",
    "alpha",
    "epsilon",
    "per_run_guarantee",
    "m",
    "samples",
    "trials",
    "successes",
    "success_rate",
    "wilson_low",
    "wilson_high",
    "mean_cost_bits",
    "seed",
)


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    b: int
    guess: int
    correct: bool
    statistic: float
    cost_bits: int


@dataclass(frozen=True)
class RunSummary:
    protocol: str
    function: str
    n: int
    t: int
    alpha: str
    epsilon: Optional[float]
    per_run_guarantee: Optional[float]  # 1 - 2*epsilon: both Chernoff tails
    m: Optional[int]
    samples: Optional[int]
    trials: int
    successes: int
    success_rate: float
    wilson_low: float
    wilson_high: float
    mean_cost_bits: float
    seed: int


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    z = WILSON_Z
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    denom = 1 + z**2 / trials
    centre = phat + z**2 / (2 * trials)
    spread = z * math.sqrt(phat * (1 - phat) / trials + z**2 / (4 * trials**2))
    return (centre - spread) / denom, (centre + spread) / denom


def run_protocol_trials(
    protocol: str,
    f: BooleanFunction,
    f_label: str,
    params: PartitionParams,
    trials: int,
    seed: int,
    epsilon: Optional[float] = None,
    sample_count: Optional[int] = None,
) -> tuple[list[TrialRecord], RunSummary]:
    """Run independent seeded trials of one protocol on fresh instances.

    Guard failures (wrong sign-degree / pure high degree) surface from the
    first call before any trial randomness is consumed.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    if trials < 1:
        raise ValueError("trial count must be positive")
    runner = _make_runner(protocol, f, params, epsilon, sample_count)
    chunk = max(1, CHUNK_BYTES // (CHUNK_ARRAYS * 8 * params.n))

    records: list[TrialRecord] = []
    successes = 0
    total_cost = 0
    for start in range(0, trials, chunk):
        numbers = range(start, min(start + chunk, trials))
        inst_rngs = [stream(seed, "instance", trial) for trial in numbers]
        bs = [coin(rng) for rng in inst_rngs]
        outcomes = runner(
            *generate_instances(f, params, bs, inst_rngs),
            [stream(seed, "protocol", trial) for trial in numbers],
            [stream(seed, "tiebreak", trial) for trial in numbers],
        )
        for trial, b, outcome in zip(numbers, bs, outcomes):
            correct = outcome.guess == b
            successes += int(correct)
            total_cost += outcome.message_bits
            records.append(
                TrialRecord(trial, b, outcome.guess, correct, outcome.statistic, outcome.message_bits)
            )

    low, high = wilson_interval(successes, trials)
    summary = RunSummary(
        protocol=protocol,
        function=f_label,
        n=params.n,
        t=params.t,
        alpha=str(params.alpha),
        epsilon=epsilon,
        per_run_guarantee=None if epsilon is None else 1 - 2 * epsilon,
        m=None if epsilon is None else outcome.m,  # the same in every trial
        samples=sample_count,
        trials=trials,
        successes=successes,
        success_rate=successes / trials,
        wilson_low=low,
        wilson_high=high,
        mean_cost_bits=total_cost / trials,
        seed=seed,
    )
    return records, summary


def _make_runner(
    protocol: str,
    f: BooleanFunction,
    params: PartitionParams,
    epsilon: Optional[float],
    sample_count: Optional[int],
) -> Callable:
    """The protocol's run over a chunk: the instances' xs, sigmas and ws
    with their protocol and tie-break streams in, outcomes out."""
    if protocol == "uniform":
        if sample_count is None:
            raise ValueError("uniform protocol needs a sample count")
        slots = level_one_slots(f)
        if not 1 <= sample_count <= params.n:
            raise ValueError("subset size must lie in [1, n]")

        def run_uniform(xs, sigmas, ws, rngs, ties):
            subsets = fisher_yates_rows(params.n, rngs)[:, :sample_count]
            return [
                run_uniform_phd1(params, x, sigma, w, slots, subset, tie)
                for x, sigma, w, subset, tie in zip(xs, sigmas, ws, subsets, ties)
            ]

        return run_uniform
    if epsilon is None:
        raise ValueError(f"{protocol} protocol needs epsilon")
    if protocol == "classical":
        poly = protocol_witness(f, 1)
        run = lambda x, sigma, w, rng, tie: run_classical(
            params, x, sigma, w, poly, epsilon, rng, tie
        )
    else:
        poly = protocol_witness(f, 2)
        matrix = block_multilinear_matrix(poly)
        run = lambda x, sigma, w, rng, tie: run_quantum(
            params, x, sigma, w, poly, matrix, epsilon, rng, tie
        )
    return lambda xs, sigmas, ws, rngs, ties: list(map(run, xs, sigmas, ws, rngs, ties))


# ---------------------------------------------------------------------------
# Record output (CSV and JSON lines)
# ---------------------------------------------------------------------------


def _trial_row(record: TrialRecord) -> dict:
    row = {"record": "trial"}
    row.update(asdict(record))
    return row


def _summary_row(summary: RunSummary) -> dict:
    row = {"record": "summary"}
    row.update(asdict(summary))
    return row


def write_jsonl(out: io.TextIOBase, records: list[TrialRecord], summary: RunSummary) -> None:
    for record in records:
        out.write(json.dumps(_trial_row(record), sort_keys=True) + "\n")
    out.write(json.dumps(_summary_row(summary), sort_keys=True) + "\n")


def write_csv(out: io.TextIOBase, records: list[TrialRecord], summary: RunSummary) -> None:
    fields = list(dict.fromkeys(TRIAL_FIELDS + SUMMARY_FIELDS))
    writer = csv.DictWriter(out, fieldnames=fields, restval="", lineterminator="\n")
    writer.writeheader()
    for record in records:
        writer.writerow(_trial_row(record))
    writer.writerow(_summary_row(summary))
