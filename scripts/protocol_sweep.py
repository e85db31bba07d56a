#!/usr/bin/env python3
"""Sweep the instance size n for one protocol and record success rate and
communication cost per n.  The cost column grows logarithmically in n for
fixed (t, alpha, beta, epsilon).  Bad input (a function the protocol
cannot run, an n the arity does not divide, an unwritable --out) exits 2
with one "guard rejection:" line on stderr and nothing on stdout, as the
hiddenpartition command does.

Example:
    python scripts/protocol_sweep.py --protocol quantum --named parity --t 2 \
        --alpha 1/2 --epsilon 0.1 --trials 500 --sizes 40 80 160 320 640
"""

import argparse
import csv
import sys
from fractions import Fraction

from hiddenpartition import boolfn
from hiddenpartition.cli import output, run_guarded
from hiddenpartition.experiments import PROTOCOLS, run_protocol_trials
from hiddenpartition.instances import PartitionParams, exact_fraction


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--protocol", choices=PROTOCOLS, required=True)
    parser.add_argument("--named", required=True, choices=boolfn.NAMED_FUNCTIONS)
    parser.add_argument("--t", type=int, required=True)
    parser.add_argument("--alpha", type=exact_fraction, default=Fraction(1))
    parser.add_argument("--epsilon", type=float, default=0.1)
    parser.add_argument("--samples", type=int, default=32, help="|I| for the uniform protocol")
    parser.add_argument("--trials", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sizes", type=int, nargs="+", required=True)
    parser.add_argument("--out", default=None)
    return run_guarded(sweep, parser.parse_args())


def sweep(args) -> int:
    f = boolfn.named_function(args.named, args.t)
    kwargs = (
        {"sample_count": args.samples}
        if args.protocol == "uniform"
        else {"epsilon": args.epsilon}
    )

    rows = []
    for n in args.sizes:
        params = PartitionParams(n, args.t, args.alpha)
        _, summary = run_protocol_trials(
            args.protocol, f, f"{args.named}:{args.t}", params,
            trials=args.trials, seed=args.seed, **kwargs,
        )
        rows.append([
            n, summary.trials, f"{summary.success_rate:.4f}",
            f"{summary.wilson_low:.4f}", f"{summary.wilson_high:.4f}",
            f"{summary.mean_cost_bits:.1f}",
        ])
    with output(args.out) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["n", "trials", "success_rate", "wilson_low", "wilson_high", "mean_cost_bits"])
        writer.writerows(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
