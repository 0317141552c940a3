"""Truncated-hash Merkle trees and path falsification probabilities."""

from .hashing import (
    IDEAL,
    SHA256,
    Digest,
    HashSpec,
)
from .merkle import (
    MerkleProof,
    MerkleTree,
    ProofStep,
    build_tree,
    generate_proof,
    proof_from_json,
    proof_to_json,
    verify_proof,
)
from .probability import (
    DEFAULT_BITS,
    DEFAULT_PATH_LENS,
    FalsificationEstimate,
    PathParams,
    Probability,
    approx_falsification_prob,
    approximation_error,
    diff_table,
    exact_falsification_prob,
    exact_falsification_prob_termsum,
)
from .report import ReportTable, format_sig
from .simulate import (
    CellResult,
    ExperimentConfig,
    build_grid,
    run_experiment,
    run_grid,
)

__version__ = "0.1.0"

__all__ = [
    "IDEAL",
    "SHA256",
    "Digest",
    "HashSpec",
    "MerkleProof",
    "MerkleTree",
    "ProofStep",
    "build_tree",
    "generate_proof",
    "proof_from_json",
    "proof_to_json",
    "verify_proof",
    "DEFAULT_BITS",
    "DEFAULT_PATH_LENS",
    "FalsificationEstimate",
    "PathParams",
    "Probability",
    "approx_falsification_prob",
    "approximation_error",
    "diff_table",
    "exact_falsification_prob",
    "exact_falsification_prob_termsum",
    "ReportTable",
    "format_sig",
    "CellResult",
    "ExperimentConfig",
    "build_grid",
    "run_experiment",
    "run_grid",
    "__version__",
]
