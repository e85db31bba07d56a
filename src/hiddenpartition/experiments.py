"""Seeded Monte-Carlo trial runner and result records.

Every trial gets three named randomness streams derived from the one
experiment seed: "instance" (hidden bit, x, sigma), "protocol" (the
sender/decider), and "tiebreak" (zero-statistic coin flips).  Records are
written in trial order, so identical configurations produce byte-identical
output.

Every protocol ends the same way: Bob outputs the sign of the statistic.
The protocol runs return the statistic per trial, and
``run_protocol_trials`` turns it into the guess, flipping the trial's
tie-break coin where the statistic is 0; only those trials build their
"tiebreak" stream.

A run is set up once: its witness, message size and cost are fixed before
the first trial (a bad epsilon draws no instance).

Trials run in chunks, in one loop for every protocol: its ``prepare``
takes the chunk's protocol streams (run-uniform shuffles its subsets
there, before the chunk's instances exist), the chunk's instances are
generated together, their shuffles in lockstep (``rng.fisher_yates_rows``),
and its ``decide`` runs over the chunk's ``instances.row_slices``, in
which run-classical and run-quantum draw.  Since every trial draws only
from its own streams, the output does not depend on where the chunks or
the slices are cut, nor on which of a chunk's streams draws first.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from .boolfn import BooleanFunction, all_points
from .classical import level_one_slots, message_cost_bits, required_samples
from .classical import run_classical, run_uniform_phd1
from .instances import PartitionParams, generate_instances, row_slices
from .quantum import block_multilinear_matrix, hadamard_test_probs, qubits_per_copy
from .quantum import required_copies, run_quantum
from .rng import coin, fisher_yates_rows, stream
from .signpoly import best_sign_polynomial

PROTOCOLS = ("classical", "quantum", "uniform")

# Bound on a chunk's length-n arrays, counted at POSITION_BYTES per trial
# and position: x (int8), sigma (4 bytes), and the bytes the block map's
# permuted string (int8), block signs (bool) and int64 codes (one a
# position at t = 1) would take chunk-wide.  It is a worst case: the map
# runs in row slices, and sigma and the shuffle's swap draws take
# np.min_scalar_type(n), 4 bytes only past n = 65535 (2 at n = 3000).
# What peaks together is the shuffle of sigma: its swap draws and images
# beside x's packed bits (n/8 bytes a trial).  Run-uniform's subset
# shuffle, the same size, ends before the chunk's instances are drawn,
# and every row slice (instances.SLICE_BYTES) stays far below it.
CHUNK_BYTES = 5 * 2**20
POSITION_BYTES = 1 + 4 + (1 + 1 + 8)
# A trial whose length-n arrays (POSITION_BYTES a position) and length-m
# arrays (MESSAGE_BYTES a sample) exceed it is refused.
MAX_TRIAL_BYTES = 2**31
# A decision row's bytes per sample: seven 8-byte arrays (the message and
# the statistic's terms).  A message much longer than n cuts the decision
# into row slices, not the instance draw into chunks.
MESSAGE_BYTES = 7 * 8

WILSON_Z = 1.96  # normal quantile of the summary's 95% Wilson interval


class TrialRecord(NamedTuple):
    """One trial's output row, read-only; its fields are the CSV columns in order."""
    trial: int
    b: int
    guess: int
    correct: bool
    statistic: float
    cost_bits: int


class RunSummary(NamedTuple):
    """A run's summary row, read-only; its fields are the CSV columns in order."""
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


# Output columns: a row's kind, "trial" or "summary", then its record's fields.
TRIAL_FIELDS = ("record", *TrialRecord._fields)
SUMMARY_FIELDS = ("record", *RunSummary._fields)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion, clamped so that
    0 <= low <= p-hat <= high <= 1: at p-hat 0 or 1 the float formula can
    put an end just outside [0, 1] or just short of p-hat (5/5 gives a high
    of 1.0000000000000002, 300/300 one of 0.9999999999999998)."""
    z = WILSON_Z
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    denom = 1 + z**2 / trials
    centre = phat + z**2 / (2 * trials)
    spread = z * math.sqrt(phat * (1 - phat) / trials + z**2 / (4 * trials**2))
    low, high = (centre - spread) / denom, (centre + spread) / denom
    return max(0.0, min(low, phat)), min(1.0, max(high, phat))


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

    Guard failures (wrong sign-degree / pure high degree), a bad epsilon
    and a trial over MAX_TRIAL_BYTES surface before any randomness is used.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    if trials < 1:
        raise ValueError("trial count must be positive")
    prepare, decide, m, cost_bits = _make_runner(protocol, f, params, epsilon, sample_count)
    row_bytes = MESSAGE_BYTES * (m or sample_count)
    trial_bytes = POSITION_BYTES * params.n + row_bytes
    if trial_bytes > MAX_TRIAL_BYTES:
        raise ValueError(f"one trial at n = {params.n} needs {trial_bytes / 2**30:.1f} GiB of "
                         f"arrays, over the {MAX_TRIAL_BYTES // 2**30} GiB limit")
    chunk = max(1, CHUNK_BYTES // (POSITION_BYTES * params.n))

    records: list[TrialRecord] = []
    for start in range(0, trials, chunk):
        numbers = range(start, min(start + chunk, trials))
        inputs = prepare([stream(seed, "protocol", trial) for trial in numbers])
        inst_rngs = [stream(seed, "instance", trial) for trial in numbers]
        bs = [coin(rng) for rng in inst_rngs]
        xs, sigmas, ws = generate_instances(f, params, bs, inst_rngs)
        statistics = np.concatenate([decide(xs[part], sigmas[part], ws[part], inputs[part])
                                     for part in row_slices(len(bs), row_bytes)])
        del xs, sigmas, ws  # so the next chunk's shuffle does not peak beside them
        for trial, b, x in zip(numbers, bs, statistics.tolist()):
            guess = 1 if x > 0 else -1 if x < 0 else coin(stream(seed, "tiebreak", trial))
            records.append(TrialRecord(trial, b, guess, guess == b, x, cost_bits))

    successes = sum(record.correct for record in records)
    low, high = wilson_interval(successes, trials)
    summary = RunSummary(
        protocol=protocol,
        function=f_label,
        n=params.n,
        t=params.t,
        alpha=str(params.alpha),
        epsilon=epsilon,
        per_run_guarantee=None if epsilon is None else 1 - 2 * epsilon,
        m=m,
        samples=sample_count,
        trials=trials,
        successes=successes,
        success_rate=successes / trials,
        wilson_low=low,
        wilson_high=high,
        mean_cost_bits=float(cost_bits),  # every trial sends the same message
        seed=seed,
    )
    return records, summary


def _make_runner(
    protocol: str,
    f: BooleanFunction,
    params: PartitionParams,
    epsilon: Optional[float],
    sample_count: Optional[int],
) -> tuple[Callable, Callable, Optional[int], int]:
    """The protocol's two steps over a chunk, its message size m (None for
    run-uniform) and cost in bits.  prepare takes the chunk's protocol
    streams and gives what the decision reads for each trial: run-uniform
    shuffles its subsets there, before the chunk's instances exist; the
    other two take the streams themselves and draw inside the decision.
    decide(xs, sigmas, ws, inputs), on any rows of the chunk and of what
    prepare gave, returns the statistic per row, a (T,) float64 array."""
    if protocol == "uniform":
        if epsilon is not None:
            raise ValueError("uniform protocol takes a sample count, not epsilon")
        if sample_count is None:
            raise ValueError("uniform protocol needs a sample count")
        slots = level_one_slots(f)
        if not 1 <= sample_count <= params.n:
            raise ValueError("subset size must lie in [1, n]")

        def shuffle_subsets(rngs):
            # one lockstep shuffle per chunk: its per-position loop costs the
            # same for any number of rows, so only the decision is sliced; the
            # copy keeps the subsets, not the whole permutations
            return fisher_yates_rows(params.n, rngs)[:, :sample_count].copy()

        return (shuffle_subsets,
                lambda xs, sigmas, ws, subsets:
                run_uniform_phd1(params, xs, sigmas, ws, slots, subsets),
                None, message_cost_bits(sample_count, params.n))
    if sample_count is not None:
        raise ValueError(f"{protocol} protocol takes epsilon, not a sample count")
    if epsilon is None:
        raise ValueError(f"{protocol} protocol needs epsilon")
    if protocol == "classical":
        poly = best_sign_polynomial(f, 1)
        m = required_samples(params.t, params.alpha, poly.bias, epsilon)
        return (lambda rngs: rngs, lambda xs, sigmas, ws, rngs:
                run_classical(params, xs, sigmas, ws, poly, m, rngs),
                m, message_cost_bits(m, params.n))
    poly = best_sign_polynomial(f, 2)
    matrix = block_multilinear_matrix(poly)
    m = required_copies(params, poly.bias, matrix, epsilon)
    probs = hadamard_test_probs(matrix, all_points(params.t))  # one per block value
    return (lambda rngs: rngs, lambda xs, sigmas, ws, rngs:
            run_quantum(params, xs, sigmas, ws, probs, m, rngs),
            m, m * qubits_per_copy(params))


# ---------------------------------------------------------------------------
# Record output (CSV and JSON lines)
# ---------------------------------------------------------------------------


def _rows(records: list[TrialRecord], summary: RunSummary):
    """The output rows: each record's fields after its kind, "trial" or "summary"."""
    yield from ({"record": "trial", **record._asdict()} for record in records)
    yield {"record": "summary", **summary._asdict()}


def write_jsonl(out: io.TextIOBase, records: list[TrialRecord], summary: RunSummary) -> None:
    for row in _rows(records, summary):
        out.write(json.dumps(row, sort_keys=True) + "\n")


def write_csv(out: io.TextIOBase, records: list[TrialRecord], summary: RunSummary) -> None:
    columns = list(dict.fromkeys(TRIAL_FIELDS + SUMMARY_FIELDS))
    writer = csv.DictWriter(out, fieldnames=columns, restval="", lineterminator="\n")
    writer.writeheader()
    writer.writerows(_rows(records, summary))
