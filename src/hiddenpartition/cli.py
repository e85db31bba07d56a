"""Command-line experiment runner.

Subcommands: analyze, run-classical, run-quantum, run-uniform, reduce,
hardness.  All randomness flows from the single --seed flag through named
streams, so identical invocations produce byte-identical output.  Exit
code 2 marks a guard rejection (wrong sign-degree / pure high degree for
the requested protocol) or an invalid parameter (a file that cannot be read
or written included); either is reported as one "guard rejection: ..." line
on stderr; the experiment scripts report theirs the same way (``run_guarded``).

Each subcommand writes one output, to stdout or --out.  ``analyze``
prints the bilinear lift A that run-quantum decides from, and ||A||,
when the sign-degree is at most 2.

Run as a program, the process ends with ``os._exit`` once the command has
returned and stdout and stderr are flushed, skipping the interpreter's
module teardown; after an uncaught exception, under a tracer or profiler,
or when a flush fails, it shuts down as usual (``main`` arms this).
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import functools
import gc
import hashlib
import json
import os
import sys
from fractions import Fraction
from typing import Callable, Iterable, Optional

from . import boolfn
from .boolfn import BooleanFunction
from .experiments import PROTOCOLS, SUMMARY_FIELDS, TRIAL_FIELDS, run_protocol_trials
from .experiments import write_csv, write_jsonl
from .hardness import CHECK_CAPS, run_check
from .instances import PartitionParams, exact_fraction
from .quantum import block_multilinear_matrix, spectral_norm
from .reduction import NoGadgetError, find_gadget, gadget_to_json, verify_reduction
from .rng import stream
from .signpoly import best_sign_polynomial, sign_degree

CSV_COLUMNS_HELP = (
    f"CSV columns: {', '.join(TRIAL_FIELDS)} for per-trial rows; "
    f"{', '.join(SUMMARY_FIELDS)} for the summary row. "
    "JSON-lines output mirrors the same fields."
)


def load_function(args) -> tuple[BooleanFunction, str]:
    if args.named:
        if args.t is None:
            raise ValueError("--named requires --t")
        return boolfn.named_function(args.named, args.t), f"{args.named}:{args.t}"
    if args.t is not None:
        raise ValueError("--t applies only to --named; a --function file sets its own arity")
    with open(args.function, encoding="utf-8") as handle:
        spec = json.load(handle)
    return boolfn.function_from_spec(spec), args.function


@contextlib.contextmanager
def output(path: Optional[str]):
    """Yield stdout, or the file at ``path`` opened for writing."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle


def _write_json(path: Optional[str], doc: dict, indent: Optional[int] = None) -> None:
    with output(path) as out:
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
        "spectrum": {format(m, "b").zfill(f.t): v for m, v in boolfn.support(spec).items()},
        "pure_high_degree": phdeg,
        "sign_degree": sdeg,
        "bias_at_sign_degree": witness.bias,
        "fourier_l1": boolfn.fourier_l1(spec),
        "alpha_upper_bound": boolfn.alpha_upper_bound(spec),
    }
    if sdeg <= 2:
        # the witness run-quantum decides from, solved once
        poly = witness if sdeg == min(2, f.t) else best_sign_polynomial(f, 2)
        matrix = block_multilinear_matrix(poly)
        report["block_matrix"] = matrix.tolist()
        report["block_matrix_norm"] = spectral_norm(matrix)
    else:
        report["block_matrix"] = report["block_matrix_norm"] = None
    if sym is None:
        report["reduction"] = "not symmetric: no reduction"
    elif sdeg < 2:
        report["reduction"] = "sdeg < 2: protocols are efficient, no reduction needed"
    else:
        try:
            report["reduction"] = gadget_to_json(find_gadget(sym))
        except NoGadgetError:
            report["reduction"] = "NAE-odd: no gadget"
    _write_json(args.out, report, indent=2)
    return 0


def _table_digest(f: BooleanFunction) -> str:
    minus = (f.table < 0).tobytes()  # one byte per row, 1 where f is -1
    return hashlib.sha256(minus).hexdigest()[:16]


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
    write = write_csv if args.format == "csv" else write_jsonl
    with output(args.out) as out:
        write(out, records, summary)
    return 0


def cmd_reduce(args) -> int:
    f, label = load_function(args)
    doc = verify_reduction(f, args.n, args.sigmas, stream(args.seed, "reduce"))
    doc["function"] = label
    _write_json(args.out, doc)
    return 0


def cmd_hardness(args) -> int:
    # the budgets each check reads; one it does not read is refused, not ignored
    reads = {"tvd": ("sigmas", "set_size"), "rhat": ("cases", "set_size"),
             "kkl": ("cases", "set_size"), "u": ("cases",)}[args.check]
    for name in ("cases", "set_size", "sigmas"):
        if name not in reads and getattr(args, name) is not None:
            raise ValueError(f"the {args.check} check does not read --{name.replace('_', '-')}")
    f, label = load_function(args)
    params = PartitionParams(args.n, f.t, args.alpha)
    cases = 50 if args.cases is None else args.cases
    sigmas = 50 if args.sigmas is None else args.sigmas
    doc = run_check(args.check, f, params, cases, args.set_size, sigmas, args.seed)
    doc["function"] = label
    doc["params"] = {"n": params.n, "t": params.t, "alpha": str(params.alpha)}
    _write_json(args.out, doc)
    return 0


def _add_function_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--function", metavar="FILE", help="JSON function spec file")
    group.add_argument("--named", choices=boolfn.NAMED_FUNCTIONS, help="named function")
    p.add_argument("--t", type=int, help="arity for --named")


def _add_run_args(p: argparse.ArgumentParser, protocol: str) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=exact_fraction, default=Fraction(1), metavar="P/Q")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    if protocol == "uniform":
        p.add_argument("--samples", type=int, required=True, help="subset size |I|")
    else:
        p.add_argument("--epsilon", type=float, default=0.1)


def _add_reduce_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=8, help="parity-instance size for exhaustive check")
    p.add_argument("--sigmas", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)


def _add_hardness_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--check", choices=tuple(CHECK_CAPS), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=exact_fraction, default=Fraction(1), metavar="P/Q")
    p.add_argument("--cases", type=int, default=None, help="cases checked (rhat/u/kkl; default 50)")
    p.add_argument("--set-size", type=int, default=None, help="message-set size (tvd/rhat/kkl)")
    p.add_argument("--sigmas", type=int, default=None,
                   help="permutation samples per estimate (tvd; default 50)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)


# The subcommands, in the order --help lists them: name -> (help, the
# function that adds its arguments after the function's, the command it runs).
COMMANDS = {
    "analyze": ("Fourier/threshold analysis of a function",
                lambda p: p.add_argument("--out", default=None), cmd_analyze),
    **{f"run-{protocol}": (f"Monte-Carlo {protocol} protocol trials",
                           functools.partial(_add_run_args, protocol=protocol),
                           functools.partial(cmd_run, protocol=protocol))
       for protocol in PROTOCOLS},
    "reduce": ("verify the parity-pair reduction for a symmetric function", _add_reduce_args,
               cmd_reduce),
    "hardness": ("brute-force-verified hardness quantities", _add_hardness_args, cmd_hardness),
}


def build_parser(names: Iterable[str] = tuple(COMMANDS)) -> argparse.ArgumentParser:
    """The parser with the subparsers of the COMMANDS ``names``, all of
    them by default."""
    names = tuple(names)
    parser = argparse.ArgumentParser(
        prog="hiddenpartition",
        description=__doc__,
        epilog=CSV_COLUMNS_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    # argparse's usage line lists the subparsers built, so a parser of fewer
    # commands lists them all as a metavar, and its errors read the same; the
    # full parser keeps none, as its errors about the command name it by it
    every = "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=None if names == tuple(COMMANDS) else every)
    for name in names:
        help_text, add_arguments, _ = COMMANDS[name]
        command_parser = sub.add_parser(name, help=help_text)
        _add_function_args(command_parser)
        add_arguments(command_parser)
    return parser


def run_guarded(command: Callable[[argparse.Namespace], int], args: argparse.Namespace) -> int:
    """command(args), or exit code 2 with one "guard rejection: <reason>"
    line on stderr when it raises ValueError, OSError or MemoryError (a
    guard rejection, an invalid parameter, an unusable path or an array
    too large for memory).  The output path in args.out, if any, is
    opened for appending first, so an unwritable one is refused before
    any work, and a file keeps what it holds until the command writes it.

    Everything alive before the command runs, the numpy import graph
    above all, is moved to the collector's permanent generation
    (``gc.freeze``): it lives until exit anyway, and the full collections
    during the command and at interpreter exit then skip it."""
    try:
        if args.out is not None:
            with open(args.out, "a", encoding="utf-8"):
                pass
        gc.freeze()
        return command(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"guard rejection: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


def _exit_without_teardown(code: int) -> None:
    """atexit hook: flush stdout and stderr, then ``os._exit(code)``.

    It stands down, leaving the interpreter to finalise as usual, when an
    uncaught exception was reported after ``main`` (so the process still
    exits 1 with its traceback), when a tracer or profiler is installed (so
    coverage still writes its data) and when a flush fails."""
    if hasattr(sys, "last_value") or sys.gettrace() is not None or sys.getprofile() is not None:
        return
    try:
        for handle in (sys.stdout, sys.stderr):
            if handle is not None:
                handle.flush()
    except OSError:
        return
    os._exit(code)


def main(argv: Optional[list[str]] = None) -> int:
    """Run the command line ``argv`` (default ``sys.argv[1:]``); return its
    exit code.

    It first moves everything alive, the numpy import graph above all, to
    the collector's permanent generation (``gc.freeze``), so no collection
    while the parser is built walks it.  A command line whose first word
    is a command builds that command's parser alone; any other builds all
    of them.  Either way it parses and prints the same.

    Called with ``argv=None`` it owns the process, so once the command has
    returned it arms one atexit hook.  At exit that hook flushes stdout and
    stderr and calls ``os._exit`` with the returned code: the modules of
    numpy (and of ``scipy.optimize``, once a dense LP has imported it) are
    not torn down, and atexit handlers registered before the hook (at most
    ``logging.shutdown``, which ``scipy.optimize`` registers) do not run.
    The hook stands down, and the interpreter finalises as usual, after an
    uncaught exception, under a tracer or profiler, or when a flush fails.
    ``main(list)``, as tests and embedders call it, never arms it.

    ``--help`` and usage errors leave through argparse's ``SystemExit``;
    called with ``argv=None``, main arms the hook with that exit's code
    before passing it on."""
    gc.freeze()
    words = sys.argv[1:] if argv is None else argv
    names = words[:1] if words and words[0] in COMMANDS else COMMANDS
    try:
        args = build_parser(names).parse_args(words)
    except SystemExit as exc:
        if argv is None and isinstance(exc.code, int):
            atexit.register(_exit_without_teardown, exc.code)
        raise
    code = run_guarded(COMMANDS[args.command][2], args)
    if argv is None:
        atexit.register(_exit_without_teardown, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
