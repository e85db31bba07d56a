#!/usr/bin/env python3
"""Show how the permutation-averaged total variation distance between the
induced promise distributions shrinks as the message set grows.

A short message from Alice pins her string down to a large set A; the
larger A is, the less Bob's one sample can tell the promise string from
its complement.  This script estimates E_sigma[TVD] for message sets of
doubling sizes on one function.  Bad input (an n below 2 or above the
brute-force cap, an unwritable --out) exits 2 with one "guard rejection:"
line on stderr and nothing on stdout, as the hiddenpartition command does.

Example:
    python scripts/tvd_trend.py --n 12 --named parity --t 2 --sigmas 50
"""

import argparse
import csv
import sys
from fractions import Fraction

from hiddenpartition import boolfn
from hiddenpartition.cli import output, run_guarded
from hiddenpartition.hardness import check_cap, draw_message_set, expected_tvd
from hiddenpartition.instances import PartitionParams, exact_fraction
from hiddenpartition.rng import stream


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--named", default="parity", choices=boolfn.NAMED_FUNCTIONS)
    parser.add_argument("--t", type=int, default=2)
    parser.add_argument("--n", type=int, default=12)
    parser.add_argument("--alpha", type=exact_fraction, default=Fraction(1))
    parser.add_argument("--sigmas", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None)
    return run_guarded(trend, parser.parse_args())


def trend(args) -> int:
    if args.n < 2:
        raise ValueError(f"--n must be at least 2 (message sets of 2^2 and up), got {args.n}")
    check_cap("tvd", args.n)  # before any message set is drawn
    f = boolfn.named_function(args.named, args.t)
    params = PartitionParams(args.n, args.t, args.alpha)

    rows = []
    for log_size in range(2, args.n + 1):
        rng = stream(args.seed, "tvd", log_size)
        message_set = draw_message_set(args.n, 2**log_size, rng)  # the cube at log_size n
        estimate = expected_tvd(f, message_set, params, args.sigmas, rng)
        rows.append([log_size, f"{estimate.mean:.5f}", f"{estimate.stderr:.5f}"])
    with output(args.out) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["set_size_log2", "mean_tvd", "stderr"])
        writer.writerows(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
