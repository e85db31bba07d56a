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
A dense state-vector implementation of the same circuit serves as an
independent cross-check oracle at small arity.

Basis convention: index 0 of A (and of the test state) is the lifted
constant coordinate, indices 1..t are x_1..x_t.  A relabelling of basis
states leaves every outcome probability unchanged, so this fixed order is
used on both the closed-form and state-vector paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .boolfn import all_points
from .classical import ProtocolOutcome, decide, required_samples
from .instances import PartitionInstance, PartitionParams, permute_rows
from .signpoly import SignPolynomial

IDENTITY_TOL = 1e-10
STATEVECTOR_MAX_ARITY = 10


@dataclass(frozen=True)
class BlockMatrix:
    """Symmetric matrix of the degree-2 bilinear lift of a polynomial."""

    t: int
    entries: np.ndarray
    spectral_norm: float

    @classmethod
    def from_entries(cls, entries: np.ndarray) -> "BlockMatrix":
        entries = np.asarray(entries, dtype=np.float64).copy()
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("entries must be square")
        entries.setflags(write=False)
        norm = float(np.linalg.norm(entries, 2))
        return cls(entries.shape[0] - 1, entries, norm)

    @property
    def dim(self) -> int:
        return self.t + 1


def lift_point(z: Sequence[int]) -> np.ndarray:
    return np.concatenate(([1.0], np.asarray(z, dtype=np.float64)))


def quadratic_form(a: BlockMatrix, z: Sequence[int]) -> float:
    """z~^T A z~ = p(z) for the polynomial A was built from."""
    zt = lift_point(z)
    return float(zt @ a.entries @ zt)


def block_multilinear_matrix(p: SignPolynomial) -> BlockMatrix:
    """Symmetric splitting of a degree <= 2 polynomial into a bilinear form.

    The constant lands on the (0,0) entry; linear and quadratic
    coefficients are halved across the symmetric pair of entries, the
    lifted diagonal stays zero.  The defining identity x~^T A x~ = p(x) is
    re-verified on all 2^t points before returning.
    """
    if p.degree > 2:
        raise ValueError(f"polynomial degree {p.degree} > 2")
    t = p.t
    a = np.zeros((t + 1, t + 1))
    for mask, c in p.coeffs.items():
        idx = [i + 1 for i in range(t) if (mask >> i) & 1]
        if len(idx) == 0:
            a[0, 0] += c
        elif len(idx) == 1:
            a[0, idx[0]] += c / 2
            a[idx[0], 0] += c / 2
        else:
            i, j = idx
            a[i, j] += c / 2
            a[j, i] += c / 2

    points = all_points(t)
    lifted = np.hstack([np.ones((points.shape[0], 1)), points.astype(np.float64)])
    reproduced = np.einsum("ri,ij,rj->r", lifted, a, lifted)
    if np.max(np.abs(reproduced - p.evaluate_all())) > IDENTITY_TOL:
        raise RuntimeError("bilinear lift failed to reproduce the polynomial")

    return BlockMatrix.from_entries(a)


@dataclass(frozen=True)
class Dilation:
    """Orthogonal matrix whose top-left block is A/||A||."""

    dim: int
    entries: np.ndarray


def unitary_dilation(a: BlockMatrix) -> Dilation:
    """Double-size orthogonal dilation built from the SVD of A/||A||.

    With A/||A|| = W S V^T the dilation is
    [[W S V^T, W sqrt(I-S^2)], [sqrt(I-S^2) V^T, -S]].
    """
    if a.spectral_norm <= 0:
        raise ValueError("cannot dilate the zero matrix")
    b = a.entries / a.spectral_norm
    w, s, vt = np.linalg.svd(b)
    s = np.clip(s, 0.0, 1.0)  # guards float overshoot of the top singular value
    root = np.sqrt(1.0 - s**2)
    top = np.hstack([(w * s) @ vt, w * root])
    bottom = np.hstack([root[:, None] * vt, -np.diag(s)])
    u = np.vstack([top, bottom])
    u.setflags(write=False)
    return Dilation(2 * a.dim, u)


def hadamard_test_prob(a: BlockMatrix, z: Sequence[int]) -> float:
    """Closed-form probability of outcome 0 on block value z."""
    return float(hadamard_test_probs(a, np.asarray(z, dtype=np.float64)[None, :])[0])


def hadamard_test_probs(a: BlockMatrix, zs: np.ndarray) -> np.ndarray:
    """Vectorised closed form over a stack of block values (rows of zs)."""
    zs = np.asarray(zs, dtype=np.float64)
    lifted = np.hstack([np.ones((zs.shape[0], 1)), zs])
    forms = np.einsum("ri,ij,rj->r", lifted, a.entries, lifted)
    return 0.5 + forms / (2 * a.spectral_norm * (a.t + 1))


def statevector_oracle(a: BlockMatrix, z: Sequence[int]) -> float:
    """Outcome-0 probability computed by simulating the circuit itself.

    Prepares the block state (1, z_1, ..., z_t)/sqrt(t+1) padded into the
    dilated space, runs ancilla-controlled U followed by the final
    Hadamard on a dense state vector, and reads off the probability by
    direct amplitude computation.  Must agree with ``hadamard_test_prob``
    to within 1e-9.
    """
    t = a.t
    if t > STATEVECTOR_MAX_ARITY:
        raise ValueError(f"state-vector oracle supports t <= {STATEVECTOR_MAX_ARITY}")
    if len(z) != t:
        raise ValueError("block length mismatch")
    dim = 2 * (t + 1)
    psi = np.zeros(dim)
    psi[0] = 1.0
    psi[1 : t + 1] = np.asarray(z, dtype=np.float64)
    psi /= math.sqrt(t + 1)

    u = unitary_dilation(a).entries
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    state = np.kron(plus, psi)

    controlled = np.zeros((2 * dim, 2 * dim))
    controlled[:dim, :dim] = np.eye(dim)
    controlled[dim:, dim:] = u
    state = controlled @ state

    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    state = np.kron(hadamard, np.eye(dim)) @ state

    return float(state[:dim] @ state[:dim])


def povm_block_distribution(params: PartitionParams) -> tuple[Fraction, ...]:
    """Exact outcome distribution of Bob's block-collapsing measurement.

    Each block j captures its t permuted coordinates plus the one marker
    state, so its weight is (t+1)/(n + n/t) = t/n: uniform over the n/t
    blocks.  Exposed so the sampling path of the simulator is auditable.
    """
    weight = Fraction(params.t + 1, params.n + params.num_blocks)
    return (weight,) * params.num_blocks


def qubits_per_copy(params: PartitionParams) -> int:
    """State qubits for dimension n + n/t plus the test ancilla."""
    return math.ceil(math.log2(params.n + params.num_blocks)) + 1


def run_quantum(
    instance: PartitionInstance,
    poly: SignPolynomial,
    matrix: BlockMatrix,
    epsilon: float,
    rng: np.random.Generator,
    tie_rng: Optional[np.random.Generator] = None,
) -> ProtocolOutcome:
    """Full protocol run from a degree-2 witness (``protocol_witness(f, 2)``,
    which exists when sdeg(f) <= 2) and its ``block_multilinear_matrix``.

    Per copy: a block index is drawn from the uniform measurement
    distribution, the Hadamard-test outcome is drawn from its exact
    closed-form probability, and active blocks contribute
    (-1)^outcome * w_j to the statistic.  The copy count reuses the
    Chernoff sample formula with the bias replaced by
    beta / (||A|| (t+1)), matching the statistic's expectation scale.
    """
    params = instance.params
    effective_bias = poly.bias / (matrix.spectral_norm * (matrix.t + 1))
    m = required_samples(params.t, params.alpha, effective_bias, epsilon)

    permuted = permute_rows(instance.sigma, instance.x[None, :])[0]
    blocks = permuted.reshape(params.num_blocks, params.t)
    probs0 = hadamard_test_probs(matrix, blocks)

    j = rng.integers(0, params.num_blocks, size=m)
    outcome_signs = np.where(rng.random(m) < probs0[j], 1.0, -1.0)
    active = j < params.active_blocks
    contributions = np.where(
        active, outcome_signs * instance.w[np.minimum(j, len(instance.w) - 1)], 0.0
    )
    x_stat = float(contributions.sum())
    return ProtocolOutcome(decide(x_stat, tie_rng), x_stat, m * qubits_per_copy(params), m)


def matrix_audit_record(a: BlockMatrix, dilation: Optional[Dilation] = None) -> dict:
    """JSON-ready dump of A, ||A|| and optionally U for audit."""
    record = {
        "dim": a.dim,
        "entries": [[float(v) for v in row] for row in a.entries],
        "spectral_norm": a.spectral_norm,
    }
    if dilation is not None:
        record["dilation"] = [[float(v) for v in row] for row in dilation.entries]
    return record
