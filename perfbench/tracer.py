"""Spans around the public functions of each hiddenpartition module,
installed from outside the package.

``Tracer.install`` wraps ``scipy.optimize.linprog`` before the package is
imported (so the LP counters still work if the package later imports it
lazily), imports ``hiddenpartition.cli``, then replaces every
module-level reference to each function in TARGETS, in every loaded
``hiddenpartition.*`` module, by a wrapper that records a span.  Spans
are kept in memory as [name, start_ns, end_ns, parent_index, counters]
and written out by ``Tracer.dump`` once ``main`` has returned.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

TARGETS = {
    "signpoly": ("sign_degree", "best_sign_polynomial"),
    "boolfn": ("fourier_transform", "symmetric_spec_of"),
    "rng": ("stream", "fisher_yates"),
    "instances": ("generate_instance", "b_map_rows"),
    "classical": ("run_classical", "alice_sample", "bob_decide", "run_uniform_phd1",
                  "level_one_slots"),
    "quantum": ("run_quantum", "block_multilinear_matrix", "hadamard_test_probs"),
    "experiments": ("run_protocol_trials", "write_csv", "write_jsonl"),
    "reduction": ("verify_reduction", "blockwise_identity_counterexamples", "find_gadget"),
    "hardness": ("induced_distributions", "r_hat_formula", "r_hat_bruteforce", "u_formula",
                 "u_bruteforce", "expected_tvd", "kkl_check"),
}

def _linprog_counters(args, kwargs, result) -> dict:
    """Matrix cells the solver was given, and whether the solve was
    inconclusive (neither optimal, status 0, nor infeasible, status 2)."""
    cells = 0
    for position, name in ((1, "A_ub"), (3, "A_eq")):
        matrix = kwargs.get(name, args[position] if len(args) > position else None)
        if matrix is not None:
            rows, cols = np.shape(matrix)
            cells += rows * cols
    return {"cells": cells, "inconclusive": int(result.status not in (0, 2))}


def _b_map_rows_counters(args, kwargs, result) -> dict:
    xs = kwargs["xs"] if "xs" in kwargs else args[1]
    return {"rows": len(xs)}


COUNTERS = {"signpoly.linprog": _linprog_counters, "instances.b_map_rows": _b_map_rows_counters}


class Tracer:
    """Spans of one process, kept in memory until ``dump``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        counters = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, self._open[-1] if self._open else -1, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._open.pop()
            if counters is not None:
                span[4] = counters(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Import the CLI with every target wrapped; return a traced main."""
        import scipy.optimize

        scipy.optimize.linprog = self.wrap("signpoly.linprog", scipy.optimize.linprog)
        from hiddenpartition import cli

        loaded = [module for key, module in sys.modules.items()
                  if key == "hiddenpartition" or key.startswith("hiddenpartition.")]
        for module_name, names in TARGETS.items():
            home = sys.modules[f"hiddenpartition.{module_name}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self.wrap(f"{module_name}.{name}", original)
                for module in loaded:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
        return self.wrap("cli.main", cli.main)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)
