#!/usr/bin/env python3
"""Show how the permutation-averaged total variation distance between the
induced promise distributions shrinks as the message set grows.

A short message from Alice pins her string down to a large set A; the
larger A is, the less Bob's one sample can tell the promise string from
its complement.  This script estimates E_sigma[TVD] for message sets of
doubling sizes on one function.

Example:
    python scripts/tvd_trend.py --n 12 --named parity --t 2 --sigmas 50
"""

import argparse
import csv
import sys
from fractions import Fraction

from hiddenpartition import boolfn
from hiddenpartition.hardness import expected_tvd, full_cube, random_message_set
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
    args = parser.parse_args()

    f = boolfn.named_function(args.named, args.t)
    params = PartitionParams(args.n, args.t, args.alpha)

    out = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["set_size_log2", "mean_tvd", "stderr"])
    for log_size in range(2, args.n + 1):
        rng = stream(args.seed, "tvd", log_size)
        if log_size == args.n:
            message_set = full_cube(args.n)
        else:
            message_set = random_message_set(args.n, 2**log_size, rng)
        estimate = expected_tvd(f, message_set, params, args.sigmas, rng)
        writer.writerow([log_size, f"{estimate.mean:.5f}", f"{estimate.stderr:.5f}"])
    if args.out:
        out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
