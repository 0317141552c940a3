"""Merkle trees over truncated digests, with authentication paths.

Construction pairs digests left to right.  A level with an odd number of
digests is first extended by duplicating its final digest, so every level
pairs cleanly; a single-leaf tree is just the leaf digest.  A parent node is
the kernel ``hashing.node_fn`` applied to the bytes ``left || right`` under
the tree's :class:`HashSpec`.  Tree code binds that kernel once per call and
hashes raw bytes.  A tree stores each level as one ``bytes`` buffer of the
kernel's raw outputs laid end to end, so a node costs its ``spec.nbytes``
bytes and no object of its own.  A :class:`Digest` is built only for a
value that leaves the code: a tree's root and the siblings of a proof.

An authentication path (:class:`MerkleProof`) lists, bottom-up, the sibling
digest consumed at each level together with the side that sibling occupies
in the concatenation.  The sides are the bits of the leaf's index, low bit
first, and verification rejects a proof whose sides and ``leaf_index``
disagree.  Verification then rehashes the block, folds the siblings in
order, and compares against the expected root.

Known caveat: leaves are hashed payload bytes directly, with no
domain-separation prefix distinguishing leaf hashing from internal-node
hashing.  A payload equal to the concatenation of two sibling digests
therefore hashes to their parent's digest -- the classic second-preimage
weakness of unprefixed Merkle constructions.  Duplicating the last digest
of an odd level also means ``[a, b, c]`` and ``[a, b, c, c]`` share a root
(the ambiguity behind CVE-2012-2459).  This library keeps both properties
because that is the scheme whose falsification probabilities are being
studied; ``tests/test_merkle.py`` pins them.  Do not reuse it where either
attack matters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .hashing import Digest, HashSpec, OracleState, _require_int, node_fn

LEFT = "left"
RIGHT = "right"

PROOF_VERSION = 1


@dataclass(frozen=True)
class ProofStep:
    """One level of an authentication path.

    ``side`` names where the sibling goes in the concatenation: ``"right"``
    means the running digest is the left operand (``H(current || sibling)``),
    ``"left"`` the reverse.
    """

    sibling: Digest
    side: str

    def __post_init__(self) -> None:
        if self.side not in (LEFT, RIGHT):
            raise ValueError(f"side must be {LEFT!r} or {RIGHT!r}, got {self.side!r}")


@dataclass(frozen=True)
class MerkleProof:
    """Authentication path for one leaf, bottom-up."""

    bits: int
    leaf_index: int
    steps: tuple[ProofStep, ...]


class MerkleTree:
    """A built tree: all levels retained, leaves first, root level last.

    Each level is one ``bytes`` buffer holding its entries back to back:
    with ``nb = spec.nbytes``, entry ``i`` of level ``k`` is
    ``levels[k][i * nb : (i + 1) * nb]``.  An entry is the kernel's raw
    output: ``nb`` bytes, left-aligned, pad bits zero -- the ``data`` of a
    :class:`Digest` at ``spec.bits``, without the object.  ``root`` and
    ``generate_proof`` slice out and wrap the few entries they hand out.

    ``levels[0]`` holds the leaf digests *after* any duplication padding;
    ``leaf_count`` is the number of original blocks, and the last level
    holds the root alone.  Treat instances as immutable snapshots --
    replacing a level invalidates proofs.
    """

    def __init__(self, spec: HashSpec, leaf_count: int, levels: list[bytes]):
        self.spec = spec
        self.leaf_count = leaf_count
        self.levels = levels

    @property
    def root(self) -> Digest:
        return Digest(self.levels[-1], self.spec.bits)

    @property
    def height(self) -> int:
        """Number of pairing levels above the leaves."""
        return len(self.levels) - 1


def build_tree(
    leaves: Sequence[bytes], spec: HashSpec, oracle: OracleState | None = None
) -> MerkleTree:
    """Hash ``leaves`` and pair upward until a single root remains."""
    if len(leaves) == 0:
        raise ValueError("cannot build a tree from zero leaves")
    node = node_fn(spec, oracle)
    nb = spec.nbytes
    pair = 2 * nb
    buf = bytearray()
    for block in leaves:
        buf += node(block)
    levels = []
    while len(buf) > nb:
        if len(buf) % pair:
            buf += buf[-nb:]
        level = bytes(buf)
        levels.append(level)
        buf = bytearray()
        for i in range(0, len(level), pair):
            buf += node(level[i : i + pair])
    levels.append(bytes(buf))
    return MerkleTree(spec, len(leaves), levels)


def generate_proof(tree: MerkleTree, leaf_index: int) -> MerkleProof:
    """Authentication path for ``leaf_index`` against the tree's root."""
    try:
        _require_int("leaf index", leaf_index, 0, tree.leaf_count - 1)
    except ValueError as exc:
        raise IndexError(*exc.args) from None
    bits = tree.spec.bits
    nb = tree.spec.nbytes
    steps = []
    index = leaf_index
    for level in tree.levels[:-1]:
        side = RIGHT if index % 2 == 0 else LEFT
        at = (index ^ 1) * nb
        steps.append(ProofStep(Digest(level[at : at + nb], bits), side))
        index //= 2
    return MerkleProof(bits=bits, leaf_index=leaf_index, steps=tuple(steps))


def verify_proof(
    data: bytes,
    proof: MerkleProof,
    expected_root: Digest,
    spec: HashSpec,
    oracle: OracleState | None = None,
) -> bool:
    """Three-step check: hash the block, fold the path, compare to the root.

    The proof must also be bound to its leaf position: step ``k``'s sibling
    sits on the right exactly when bit ``k`` of ``leaf_index`` is 0, and
    ``leaf_index`` has no bits above the path length.  A proof whose sides
    do not spell out its ``leaf_index`` fails verification.

    Width mismatches (proof or root digests not at ``spec.bits``) raise
    ``ValueError`` -- they are caller mistakes, not failed verifications.
    """
    if proof.bits != spec.bits:
        raise ValueError(f"proof bits {proof.bits} do not match spec.bits {spec.bits}")
    if expected_root.bits != spec.bits:
        raise ValueError(
            f"expected root has {expected_root.bits} bits, spec.bits is {spec.bits}"
        )
    for step in proof.steps:
        if step.sibling.bits != spec.bits:
            raise ValueError(
                f"proof sibling has {step.sibling.bits} bits, spec.bits is {spec.bits}"
            )
    node = node_fn(spec, oracle)
    spelled = sum(1 << k for k, step in enumerate(proof.steps) if step.side == LEFT)
    if spelled != proof.leaf_index:
        return False
    current = node(data)
    for step in proof.steps:
        if step.side == RIGHT:
            current = node(current + step.sibling.data)
        else:
            current = node(step.sibling.data + current)
    return current == expected_root.data


def proof_to_json(proof: MerkleProof) -> str:
    """Serialize a proof to its canonical JSON form."""
    return json.dumps(
        {
            "version": PROOF_VERSION,
            "bits": proof.bits,
            "leaf_index": proof.leaf_index,
            "steps": [
                {"sibling": step.sibling.hex(), "side": step.side}
                for step in proof.steps
            ],
        }
    )


def proof_from_json(text: str) -> MerkleProof:
    """Parse and validate a serialized proof; malformed input raises ValueError."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"proof is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError("proof JSON must be an object")
    version = obj.get("version")
    _require_int("proof version", version, PROOF_VERSION, PROOF_VERSION)
    bits = obj.get("bits")
    _require_int("proof bits", bits, 1)
    leaf_index = obj.get("leaf_index")
    _require_int("proof leaf_index", leaf_index, 0)
    raw_steps = obj.get("steps")
    if not isinstance(raw_steps, list):
        raise ValueError("proof steps must be a list")
    steps = []
    for k, raw in enumerate(raw_steps):
        if not isinstance(raw, dict):
            raise ValueError(f"step {k} must be an object")
        side = raw.get("side")
        if side not in (LEFT, RIGHT):
            raise ValueError(f"step {k} side must be 'left' or 'right', got {side!r}")
        sibling = raw.get("sibling")
        if not isinstance(sibling, str):
            raise ValueError(f"step {k} sibling must be a hex string")
        steps.append(ProofStep(Digest.from_hex(sibling, bits), side))
    if leaf_index >> len(steps):
        raise ValueError(
            f"leaf_index {leaf_index} does not fit a path of {len(steps)} steps"
        )
    return MerkleProof(bits=bits, leaf_index=leaf_index, steps=tuple(steps))
