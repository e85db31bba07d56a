"""Command-line experiment runner.

Subcommands: analyze, run-classical, run-quantum, run-uniform, reduce,
hardness.  All randomness flows from the single --seed flag through named
streams, so identical invocations produce byte-identical output.  Exit
code 2 marks a guard rejection (wrong sign-degree / pure high degree for
the requested protocol) or an invalid parameter (a file that cannot be read
or written included); either is reported as one "guard rejection: ..." line
on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from fractions import Fraction
from typing import Optional

from . import boolfn
from .boolfn import BooleanFunction
from .classical import protocol_witness
from .experiments import run_protocol_trials, write_csv, write_jsonl
from .hardness import (
    full_cube,
    kkl_check,
    expected_tvd,
    random_message_set,
    r_hat_bruteforce,
    r_hat_formula,
    u_bruteforce,
    u_formula,
)
from .instances import PartitionParams
from .quantum import block_multilinear_matrix, matrix_audit_record, unitary_dilation
from .reduction import NoGadgetError, find_gadget, gadget_to_json, verify_reduction
from .rng import fisher_yates, stream
from .signpoly import sign_degree

CSV_COLUMNS_HELP = (
    "CSV columns: record, trial, b, guess, correct, statistic, cost_bits for "
    "per-trial rows; record, protocol, function, n, t, alpha, epsilon, "
    "per_run_guarantee, m, samples, trials, successes, success_rate, "
    "wilson_low, wilson_high, mean_cost_bits, seed for the summary row. "
    "JSON-lines output mirrors the same fields."
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hiddenpartition",
        description=__doc__,
        epilog=CSV_COLUMNS_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_function_args(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--function", metavar="FILE", help="JSON function spec file")
        group.add_argument("--named", choices=boolfn.NAMED_FUNCTIONS, help="named function")
        p.add_argument("--t", type=int, help="arity for --named")

    def add_run_args(p: argparse.ArgumentParser) -> None:
        add_function_args(p)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--alpha", type=Fraction, default=Fraction(1), metavar="P/Q")
        p.add_argument("--trials", type=int, default=1000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "jsonl"), default="csv")

    p_analyze = sub.add_parser("analyze", help="Fourier/threshold analysis of a function")
    add_function_args(p_analyze)
    p_analyze.add_argument("--out", default=None)

    for name, needs_epsilon in (("run-classical", True), ("run-quantum", True), ("run-uniform", False)):
        p_run = sub.add_parser(name, help=f"Monte-Carlo {name[4:]} protocol trials")
        add_run_args(p_run)
        if needs_epsilon:
            p_run.add_argument("--epsilon", type=float, default=0.1)
        else:
            p_run.add_argument("--samples", type=int, required=True, help="subset size |I|")
        if name == "run-quantum":
            p_run.add_argument(
                "--dump-matrix", default=None, metavar="FILE",
                help="write the bilinear-lift matrix, its norm, and the dilation as JSON",
            )

    p_reduce = sub.add_parser("reduce", help="verify the parity-pair reduction for a symmetric function")
    add_function_args(p_reduce)
    p_reduce.add_argument("--n", type=int, default=8, help="parity-instance size for exhaustive check")
    p_reduce.add_argument("--sigmas", type=int, default=20)
    p_reduce.add_argument("--seed", type=int, default=0)
    p_reduce.add_argument("--out", default=None)

    p_hard = sub.add_parser("hardness", help="brute-force-verified hardness quantities")
    add_function_args(p_hard)
    p_hard.add_argument("--check", choices=("tvd", "rhat", "u", "kkl"), required=True)
    p_hard.add_argument("--n", type=int, required=True)
    p_hard.add_argument("--alpha", type=Fraction, default=Fraction(1), metavar="P/Q")
    p_hard.add_argument("--cases", type=int, default=50)
    p_hard.add_argument("--set-size", type=int, default=None, help="message-set size (tvd/rhat/kkl)")
    p_hard.add_argument("--sigmas", type=int, default=50, help="permutation samples per tvd estimate")
    p_hard.add_argument("--seed", type=int, default=0)
    p_hard.add_argument("--out", default=None)
    return parser


def load_function(args) -> tuple[BooleanFunction, str]:
    if args.named:
        if args.t is None:
            raise ValueError("--named requires --t")
        return boolfn.named_function(args.named, args.t), f"{args.named}:{args.t}"
    with open(args.function, encoding="utf-8") as handle:
        spec = json.load(handle)
    return boolfn.function_from_spec(spec), args.function


@contextlib.contextmanager
def _output(path: Optional[str]):
    """Yield stdout, or the file at ``path`` opened for writing."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle


def _write_json(path: Optional[str], doc: dict, indent: Optional[int] = None) -> None:
    with _output(path) as out:
        json.dump(doc, out, indent=indent, sort_keys=True)
        out.write("\n")


def cmd_analyze(args) -> int:
    f, label = load_function(args)
    spec = boolfn.fourier_transform(f)
    phdeg = boolfn.pure_high_degree(spec)
    sym = boolfn.symmetric_spec_of(f)
    sdeg, witness = sign_degree(f)
    report = {
        "function": label,
        "t": f.t,
        "table_digest": _table_digest(f),
        "spectrum": {format(m, "b").zfill(f.t): v for m, v in sorted(spec.support().items())},
        "pure_high_degree": phdeg,
        "sign_degree": sdeg,
        "bias_at_sign_degree": witness.bias,
        "fourier_l1": boolfn.fourier_l1(spec),
        "alpha_upper_bound": boolfn.alpha_upper_bound(f),
    }
    if sdeg <= 2:
        # the dense witness run-quantum decides from, solved once
        poly = witness if sym is None and sdeg == min(2, f.t) else protocol_witness(f, 2)
        report["block_matrix_norm"] = block_multilinear_matrix(poly).spectral_norm
    else:
        report["block_matrix_norm"] = None
    if sym is None:
        report["reduction"] = "not symmetric: no reduction"
    elif boolfn.sign_changes(sym) < 2:
        report["reduction"] = "sdeg < 2: protocols are efficient, no reduction needed"
    else:
        try:
            report["reduction"] = gadget_to_json(find_gadget(sym))
        except NoGadgetError:
            report["reduction"] = "NAE-odd: no gadget"
    _write_json(args.out, report, indent=2)
    return 0


def _table_digest(f: BooleanFunction) -> str:
    import hashlib

    bits = bytes((1 - v) // 2 for v in f.table)
    return hashlib.sha256(bits).hexdigest()[:16]


def cmd_run(args, protocol: str) -> int:
    f, label = load_function(args)
    params = PartitionParams(args.n, f.t, args.alpha)
    kwargs = {}
    if protocol == "uniform":
        kwargs["sample_count"] = args.samples
    else:
        kwargs["epsilon"] = args.epsilon
    records, summary = run_protocol_trials(
        protocol, f, label, params, args.trials, args.seed, **kwargs
    )
    if protocol == "quantum" and args.dump_matrix:
        matrix = block_multilinear_matrix(protocol_witness(f, 2))
        _write_json(args.dump_matrix, matrix_audit_record(matrix, unitary_dilation(matrix)))
    write = write_csv if args.format == "csv" else write_jsonl
    with _output(args.out) as out:
        write(out, records, summary)
    return 0


def cmd_reduce(args) -> int:
    f, label = load_function(args)
    sym = boolfn.symmetric_spec_of(f)
    if sym is None:
        raise ValueError("function is not symmetric")
    report = verify_reduction(sym, args.n, args.sigmas, stream(args.seed, "reduce"))
    doc = {
        "function": label,
        "status": report.status,
        "gadget": None if report.gadget is None else gadget_to_json(report.gadget),
        "cases": report.cases,
        "counterexample": report.counterexample,
    }
    _write_json(args.out, doc)
    return 0


def cmd_hardness(args) -> int:
    f, label = load_function(args)
    params = PartitionParams(args.n, f.t, args.alpha)
    doc = _hardness_report(args, f, params)
    doc["function"] = label
    doc["params"] = {"n": params.n, "t": params.t, "alpha": str(params.alpha)}
    _write_json(args.out, doc)
    return 0


def _hardness_report(args, f: BooleanFunction, params: PartitionParams) -> dict:
    for flag, count in (("--cases", args.cases), ("--sigmas", args.sigmas),
                        ("--set-size", args.set_size)):
        if count is not None and count < 1:
            raise ValueError(f"{flag} must be at least 1, got {count}")
    n = params.n
    if args.check == "kkl":
        deltas = [round(0.1 * k, 1) for k in range(1, 10)]
        violations = 0
        worst = float("inf")
        for case in range(args.cases):
            rng = stream(args.seed, "hardness", "kkl", case)
            size = int(rng.integers(1, 2**n + 1)) if args.set_size is None else args.set_size
            report = kkl_check(random_message_set(n, size, rng), deltas)
            violations += report.violations
            worst = min(worst, min(report.margins))
        return {"check": "kkl", "cases": args.cases, "violations": violations,
                "min_margin": worst}
    if args.check == "tvd":
        size = 2 ** (n - 1) if args.set_size is None else args.set_size
        rng = stream(args.seed, "hardness", "tvd")
        message_set = full_cube(n) if size >= 2**n else random_message_set(n, size, rng)
        estimate = expected_tvd(f, message_set, params, args.sigmas, rng)
        return {"check": "tvd", "cases": args.sigmas, "set_size": size,
                "mean": estimate.mean, "stderr": estimate.stderr, "violations": 0}
    if args.check == "rhat":
        size = 2 ** (n - 1) if args.set_size is None else args.set_size
        worst = 0.0
        violations = 0
        for case in range(args.cases):
            rng = stream(args.seed, "hardness", "rhat", case)
            message_set = random_message_set(n, size, rng)
            sigma = fisher_yates(n, rng)
            formula = r_hat_formula(f, message_set, sigma, params)
            brute = r_hat_bruteforce(f, message_set, sigma, params)
            deltas = abs(formula[1:] - brute[1:])  # every block set V but the empty one
            worst = max(worst, float(deltas.max()))
            violations += int((deltas > 1e-10).sum())
        return {"check": "rhat", "cases": args.cases, "max_discrepancy": worst,
                "violations": violations}
    # u correlation
    worst = 0.0
    violations = 0
    for case in range(args.cases):
        rng = stream(args.seed, "hardness", "u", case)
        sigma = fisher_yates(n, rng)
        w = 1 - 2 * rng.integers(0, 2, size=params.active_blocks)
        mask = int(rng.integers(0, 2**n))
        delta = abs(
            u_formula(f, sigma, w, mask, params)
            - u_bruteforce(f, sigma, w, mask, params)
        )
        worst = max(worst, delta)
        violations += int(delta > 1e-12)
    return {"check": "u", "cases": args.cases, "max_discrepancy": worst,
            "violations": violations}


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    commands = {
        "analyze": cmd_analyze,
        "run-classical": lambda a: cmd_run(a, "classical"),
        "run-quantum": lambda a: cmd_run(a, "quantum"),
        "run-uniform": lambda a: cmd_run(a, "uniform"),
        "reduce": cmd_reduce,
        "hardness": cmd_hardness,
    }
    try:
        return commands[args.command](args)
    except (ValueError, OSError) as exc:  # guard rejection, invalid parameter or unusable path
        print(f"guard rejection: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
