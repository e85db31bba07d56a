"""Quantum one-way protocol for sign-degree <= 2, simulated exactly.

A degree-2 sign-representing polynomial p is folded into a symmetric
(t+1) x (t+1) matrix A whose quadratic form on the lifted point
x~ = (1, x_1, ..., x_t) reproduces p exactly:  x~^T A x~ = p(x).  The
protocol sends copies of a superposition of Alice's bits; Bob collapses
each copy onto one block, runs a Hadamard test against a unitary dilation
of A/||A||, and aggregates the +-1 outcomes weighted by w.  The test
returns outcome 0 with probability

    1/2 + p(z) / (2 ||A|| (t+1))

for block value z, which the simulator samples from the exact closed form.
A run's copy count m is fixed by ``required_copies`` before Alice sees x;
``run_quantum`` takes a chunk of trials whole and returns Bob's statistic
per trial.
A dense state-vector simulation of the same circuit in
``tests/oracles.py``, which builds the dilation itself, cross-checks
that closed form at small arity.

Basis convention: index 0 of A (and of the test state) is the lifted
constant coordinate, indices 1..t are x_1..x_t.  A relabelling of basis
states leaves every outcome probability unchanged, so the state-vector
cross-check uses this fixed order too.
"""

from __future__ import annotations

import math

import numpy as np

from .boolfn import all_points
from .classical import required_samples
from .instances import PartitionParams, block_slices, blocks_to_rows
from .signpoly import SignPolynomial

IDENTITY_TOL = 1e-10


def _lifted_forms(entries: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """z~^T A z~ for each row z of zs, with z~ = (1, z_1, ..., z_t)."""
    lifted = np.ones((zs.shape[0], zs.shape[1] + 1))
    lifted[:, 1:] = zs
    return np.einsum("ri,ij,rj->r", lifted, entries, lifted)


def spectral_norm(a: np.ndarray) -> float:
    """||A||, the largest singular value of the square array a."""
    return float(np.linalg.norm(a, 2))


def block_multilinear_matrix(p: SignPolynomial) -> np.ndarray:
    """Symmetric splitting of a degree <= 2 polynomial into a bilinear form:
    the read-only (t+1, t+1) float64 array A.

    The constant lands on the (0,0) entry; linear and quadratic
    coefficients are halved across the symmetric pair of entries, the
    lifted diagonal stays zero.  The defining identity x~^T A x~ = p(x) is
    re-verified on all 2^t points before returning.
    """
    if p.degree > 2:
        raise ValueError(f"polynomial degree {p.degree} > 2")
    t = p.t
    a = np.zeros((t + 1, t + 1))
    a[0, 0] = p.coeffs[0]
    a[0, 1:] = a[1:, 0] = p.coeffs[1 << np.arange(t)] / 2
    i, j = np.triu_indices(t, 1)
    a[i + 1, j + 1] = a[j + 1, i + 1] = p.coeffs[(1 << i) | (1 << j)] / 2

    reproduced = _lifted_forms(a, all_points(t))
    if np.max(np.abs(reproduced - p.evaluate_all())) > IDENTITY_TOL:
        raise RuntimeError("bilinear lift failed to reproduce the polynomial")
    a.setflags(write=False)
    return a


def hadamard_test_probs(a: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Vectorised closed form over a stack of block values (rows of zs)."""
    return 0.5 + _lifted_forms(a, zs) / (2 * spectral_norm(a) * len(a))


def qubits_per_copy(params: PartitionParams) -> int:
    """State qubits for dimension n + n/t plus the test ancilla."""
    return math.ceil(math.log2(params.n + params.num_blocks)) + 1


def required_copies(
    params: PartitionParams, bias: float, matrix: np.ndarray, epsilon: float
) -> int:
    """Copies a run sends: the Chernoff sample count at the statistic's
    expectation scale bias / (||A|| (t+1)), ``qubits_per_copy`` each."""
    effective_bias = bias / (spectral_norm(matrix) * len(matrix))
    return required_samples(params.t, params.alpha, effective_bias, epsilon)


def run_quantum(
    params: PartitionParams,
    xs: np.ndarray,
    sigmas: np.ndarray,
    ws: np.ndarray,
    probs: np.ndarray,
    m: int,
    rngs: list[np.random.Generator],
) -> np.ndarray:
    """Protocol runs on a chunk of instances (``generate_instances``) with
    m copies each; returns the (T,) float64 array of statistics.  probs
    is the Hadamard test's outcome-0 probability for each of the 2^t block
    values, indexed by row code:
    ``hadamard_test_probs(matrix, all_points(t))`` for the
    ``block_multilinear_matrix`` of a degree-2 witness
    (``best_sign_polynomial(f, 2)``, which exists when sdeg(f) <= 2).

    Per copy: a block index is drawn from the measurement distribution,
    uniform since each block's weight is (t+1)/(n + n/t) = t/n (its t
    permuted coordinates plus its marker state), the Hadamard-test
    outcome is drawn from its exact closed-form probability, and active
    blocks contribute (-1)^outcome * w_j to the statistic.  Row r draws
    its m block indices, then its m uniforms, from rngs[r].  Only the m
    sampled blocks of each row's ``active_blocks`` view are gathered and
    coded, one row slice of x's packed bits unpacked at a time
    (``block_slices``); a draw past the active prefix reads its last
    block and adds 0.
    """
    count = len(rngs)
    js = np.empty((count, m), dtype=np.int64)
    uniforms = np.empty((count, m))
    for j, uniform, rng in zip(js, uniforms, rngs):
        j[:] = rng.integers(0, params.num_blocks, size=m)
        uniform[:] = rng.random(m)
    read = np.minimum(js, params.active_blocks - 1)
    codes = np.empty((count, m), dtype=np.int64)
    for part, blocks in block_slices(xs, sigmas, params):
        codes[part] = blocks_to_rows(np.take_along_axis(blocks, read[part, :, None], axis=1))
    outcome_signs = np.where(uniforms < probs[codes], 1.0, -1.0)
    weights = np.take_along_axis(ws, read, axis=1)
    contributions = np.where(js < params.active_blocks, outcome_signs * weights, 0.0)
    return contributions.sum(axis=1)
