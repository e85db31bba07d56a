"""Toolkit for one-way communication games where a hidden partition
compresses Alice's string blockwise through a Boolean function.

Submodules:
  boolfn       truth tables, Fourier spectra, symmetric constructions
  signpoly     LP-based sign-degree and maximum-bias representations
  exactlp      exact integer simplex behind signpoly's reduced LPs
  rng          named seeded streams and the Fisher-Yates shuffle
  instances    problem sizes, (x, sigma, w) instance rows and the block map
  classical    sampled-bits and uniform-distribution senders
  quantum      bilinear lift and Hadamard-test simulation
  reduction    parity-pair to symmetric-function instance transformation
  hardness     brute-force-verified Fourier quantities behind the lower bounds
  experiments  seeded protocol trials and their CSV / JSON-lines records
  cli          experiment runner
"""

from .boolfn import (
    BooleanFunction,
    SymmetricSpec,
    fourier_l1,
    fourier_transform,
    function_from_spec,
    make_symmetric,
    named_function,
    pure_high_degree,
    sign_changes,
)
from .instances import PartitionParams, b_map_rows, generate_instance
from .signpoly import SignPolynomial, best_sign_polynomial, sign_degree

__all__ = [
    "BooleanFunction",
    "SymmetricSpec",
    "PartitionParams",
    "SignPolynomial",
    "b_map_rows",
    "best_sign_polynomial",
    "fourier_l1",
    "fourier_transform",
    "function_from_spec",
    "generate_instance",
    "make_symmetric",
    "named_function",
    "pure_high_degree",
    "sign_changes",
    "sign_degree",
]
