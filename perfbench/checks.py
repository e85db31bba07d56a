"""Output checks behind the benchmark's failure count.

Each check reads the stdout of one CLI invocation and raises CheckFailed
when it is wrong.  They test properties, as the acceptance suite does,
not stored bytes, so an LP reformulation that moves a last digit still
passes.  The sign-degree oracle is the sign-change count of the spec the
benchmark generated, never anything the LP computed.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Optional


class CheckFailed(ValueError):
    """An invocation's output does not have the required property."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_analyze(stdout: str, sign_degree: int) -> None:
    doc = json.loads(stdout)
    sdeg = doc["sign_degree"]
    _require(sdeg == sign_degree, f"sign_degree {sdeg} != sign-change count {sign_degree}")
    _require(sdeg >= doc["pure_high_degree"], "sign_degree below pure_high_degree")
    _require(doc["bias_at_sign_degree"] > 0, "bias_at_sign_degree is not positive")


def check_run(stdout: str, fmt: str, trials: int, epsilon: Optional[float]) -> None:
    """Protocol run: summary row complete; with epsilon, the Wilson upper
    bound reaches the per-run guarantee 1 - 2 epsilon; without (uniform),
    the success rate beats a coin."""
    if fmt == "csv":
        summary = list(csv.DictReader(io.StringIO(stdout)))[-1]
    else:
        summary = json.loads(stdout.splitlines()[-1])
    _require(summary["record"] == "summary", "last record is not the summary")
    _require(int(summary["trials"]) == trials, f"summary trials {summary['trials']} != {trials}")
    if epsilon is None:
        _require(float(summary["success_rate"]) > 0.5, "uniform success rate <= 1/2")
    else:
        _require(
            float(summary["wilson_high"]) >= 1 - 2 * epsilon,
            f"Wilson upper bound {summary['wilson_high']} < 1 - 2*epsilon",
        )


def check_hardness(stdout: str) -> None:
    doc = json.loads(stdout)
    _require(doc["violations"] == 0, f"{doc['violations']} closed-form violations")


def check_reduce(stdout: str) -> None:
    doc = json.loads(stdout)
    _require(doc["status"] == "pass", f"reduction status {doc['status']!r}")
