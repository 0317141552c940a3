"""Merkle trees over truncated digests, with authentication paths.

Construction pairs digests left to right.  A level with an odd number of
digests is first extended by duplicating its final digest, so every level
pairs cleanly; a single-leaf tree is just the leaf digest.  A parent node is
the kernel ``hashing.node_fn`` applied to the bytes ``left || right`` under
the tree's :class:`HashSpec`, which for the ideal oracle carries its seed, so
the spec alone fixes every digest of a tree.  Tree code binds the kernel
once per call and hashes raw bytes: ``build_tree`` through its level form,
which hashes a whole level into one buffer, and ``verify_proof`` through the
per-call form.  A tree stores each level as one ``bytes`` buffer of the
kernel's raw outputs laid end to end, so a node costs its ``spec.nbytes``
bytes and no object of its own.  A :class:`Digest` is built only for a value
that leaves the code: a tree's root and the siblings of a proof.

An authentication path (:class:`MerkleProof`) lists, bottom-up, the sibling
digest consumed at each level together with the side that sibling occupies
in the concatenation.  A proof is checked once, when it is built: its
siblings are at its width, and its sides are the bits of its leaf's index,
low bit first, so a proof cannot claim one leaf position while folding at
another.  Verification then only rehashes the block, folds the siblings in
order, and compares against the expected root.  A proof's JSON form is a
fixed canonical text, byte-identical to ``json.dumps`` of the documented
object (see ``proof_to_json``).

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

from .hashing import Digest, HashSpec, _level_fn, _require_int, node_fn

LEFT = "left"
RIGHT = "right"

PROOF_VERSION = 1


@dataclass(frozen=True, slots=True)
class ProofStep:
    """One level of an authentication path.

    ``side`` names where the sibling goes in the concatenation: ``"right"``
    means the running digest is the left operand (``H(current || sibling)``),
    ``"left"`` the reverse.  :class:`MerkleProof` checks its steps.
    """

    sibling: Digest
    side: str


@dataclass(frozen=True, slots=True)
class MerkleProof:
    """Authentication path for one leaf, bottom-up, checked when built.

    Every sibling has ``bits`` bits, and the sides spell ``leaf_index``: step
    ``k``'s sibling is on the left exactly when bit ``k`` is 1.
    """

    bits: int
    leaf_index: int
    steps: tuple[ProofStep, ...]

    def __post_init__(self) -> None:
        _require_int("proof bits", self.bits, 1)
        _require_int("proof leaf_index", self.leaf_index, 0)
        spelled = 0
        for k, step in enumerate(self.steps):
            if step.side == LEFT:
                spelled |= 1 << k
            elif step.side != RIGHT:
                raise ValueError(f"step {k} side must be 'left' or 'right', got {step.side!r}")
            width = step.sibling.bits
            if width != self.bits:
                raise ValueError(f"step {k} sibling has {width} bits, the proof {self.bits}")
        if spelled != self.leaf_index:
            raise ValueError(
                f"proof sides spell leaf_index {spelled} over {len(self.steps)} steps, "
                f"not the claimed {self.leaf_index}"
            )


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


def build_tree(leaves: Sequence[bytes], spec: HashSpec) -> MerkleTree:
    """Hash ``leaves`` and pair upward until a single root remains."""
    if len(leaves) == 0:
        raise ValueError("cannot build a tree from zero leaves")
    hash_level = _level_fn(spec)
    nb = spec.nbytes
    pair = 2 * nb
    level = hash_level(leaves)
    levels = []
    while len(level) > nb:
        if len(level) % pair:
            level += level[-nb:]
        levels.append(level)
        level = hash_level(level[i : i + pair] for i in range(0, len(level), pair))
    levels.append(level)
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
    data: bytes, proof: MerkleProof, expected_root: Digest, spec: HashSpec
) -> bool:
    """Three-step check: hash the block, fold the path, compare to the root.

    The proof was checked once, when it was built (see :class:`MerkleProof`):
    its sides spell its ``leaf_index`` and its siblings are at its width, so
    verification only folds.  A proof or root not at ``spec.bits`` raises
    ``ValueError`` -- a caller mistake, not a failed verification.
    """
    if proof.bits != spec.bits:
        raise ValueError(f"proof bits {proof.bits} do not match spec.bits {spec.bits}")
    if expected_root.bits != spec.bits:
        raise ValueError(
            f"expected root has {expected_root.bits} bits, spec.bits is {spec.bits}"
        )
    node = node_fn(spec)
    current = node(data)
    for step in proof.steps:
        if step.side == RIGHT:
            current = node(current + step.sibling.data)
        else:
            current = node(step.sibling.data + current)
    return current == expected_root.data


def proof_to_json(proof: MerkleProof) -> str:
    """Serialize a proof to its canonical JSON form.

    The text is exactly ``json.dumps`` of ``{"version": 1, "bits": ...,
    "leaf_index": ..., "steps": [{"sibling": <hex>, "side": <side>}, ...]}``,
    written out directly.  A :class:`MerkleProof` holds only plain ``int``
    fields, so they print as ``json.dumps`` prints them, and sides and hex
    digits need no escaping.
    """
    steps = ", ".join(
        f'{{"sibling": "{step.sibling.data.hex()}", "side": "{step.side}"}}'
        for step in proof.steps
    )
    return (
        f'{{"version": {PROOF_VERSION}, "bits": {proof.bits}, '
        f'"leaf_index": {proof.leaf_index}, "steps": [{steps}]}}'
    )


def proof_from_json(text: str) -> MerkleProof:
    """Parse a serialized proof; malformed JSON or an invalid proof raises ValueError.

    JSON nested deeper than the parser's recursion limit counts as malformed.
    """
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"proof is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError("proof JSON must be an object")
    version = obj.get("version")
    _require_int("proof version", version, PROOF_VERSION, PROOF_VERSION)
    bits = obj.get("bits")
    _require_int("proof bits", bits, 1)
    raw_steps = obj.get("steps")
    if not isinstance(raw_steps, list):
        raise ValueError("proof steps must be a list")
    steps = []
    for k, raw in enumerate(raw_steps):
        if not isinstance(raw, dict):
            raise ValueError(f"step {k} must be an object")
        sibling = raw.get("sibling")
        if not isinstance(sibling, str):
            raise ValueError(f"step {k} sibling must be a hex string")
        steps.append(ProofStep(Digest.from_hex(sibling, bits), raw.get("side")))
    return MerkleProof(bits=bits, leaf_index=obj.get("leaf_index"), steps=tuple(steps))
