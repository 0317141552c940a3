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
bytes and no object of its own.  A proof does the same for its path: it
holds its siblings as those raw bytes.  A :class:`Digest` is built only for
a tree's root, and for the ``steps`` view of a proof when it is read.

An authentication path (:class:`MerkleProof`) is a leaf index and, bottom-up,
the sibling bytes consumed at each level.  The side a sibling occupies in
the concatenation is not stored: step ``k``'s sibling is on the left exactly
when bit ``k`` of the leaf index is 1, so a proof cannot claim one leaf
position while folding at another.  A proof is checked once, when it is
built: its index fits its path and its siblings are at its width.
Verification then only rehashes the block, folds the siblings in order, and
compares against the expected root.  ``MerkleProof.steps`` shows the path as
:class:`ProofStep` values, each sibling a validated :class:`Digest` with
its side; nothing in this module reads it.  A proof's JSON form is a fixed
canonical text, byte-identical to ``json.dumps`` of the documented object
(see ``proof_to_json``), which writes each step's side out; parsing checks
that the sides spell the leaf index.

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

from .hashing import _PAD_MASKS, Digest, HashSpec, _hex_bytes, _level_fn, _require_int
from .hashing import _width_error, node_fn

LEFT = "left"
RIGHT = "right"
# A step's side, indexed by its bit of the leaf index.
_SIDES = (RIGHT, LEFT)

PROOF_VERSION = 1


@dataclass(frozen=True, slots=True)
class ProofStep:
    """One level of an authentication path, as ``MerkleProof.steps`` shows it.

    ``side`` names where the sibling goes in the concatenation: ``"right"``
    means the running digest is the left operand (``H(current || sibling)``),
    ``"left"`` the reverse.
    """

    sibling: Digest
    side: str


@dataclass(frozen=True, slots=True)
class MerkleProof:
    """Authentication path for one leaf, checked when built.

    ``siblings`` holds, bottom-up, the raw bytes of the sibling consumed at
    each level: ``ceil(bits / 8)`` bytes, left-aligned, pad bits zero, as in
    ``Digest.data``.  Step ``k``'s sibling is on the left exactly when bit
    ``k`` of ``leaf_index`` is 1, so the sides are read from the index and
    a proof folds at the position it claims.  ``leaf_index`` must be below
    ``2 ** len(siblings)``.
    """

    bits: int
    leaf_index: int
    siblings: tuple[bytes, ...]

    def __post_init__(self) -> None:
        bits, siblings = self.bits, self.siblings
        _require_int("proof bits", bits, 1)
        _require_int("proof leaf_index", self.leaf_index, 0)
        if type(siblings) is not tuple:
            raise ValueError(f"proof siblings must be a tuple, got {type(siblings).__name__}")
        if self.leaf_index >> len(siblings):
            raise ValueError(
                f"proof leaf_index {self.leaf_index} is past the "
                f"{1 << len(siblings)} leaves of a {len(siblings)}-step path"
            )
        nb = (bits + 7) // 8
        pad = _PAD_MASKS[bits % 8]
        for k, sibling in enumerate(siblings):
            if type(sibling) is not bytes or len(sibling) != nb or pad and sibling[-1] & pad:
                raise _width_error(f"step {k} sibling", bits, sibling)

    @property
    def steps(self) -> tuple[ProofStep, ...]:
        """The path as :class:`ProofStep` values, bottom-up, built on each
        read: each sibling as a validated :class:`Digest`, its side read from
        ``leaf_index``."""
        bits, index = self.bits, self.leaf_index
        # From a list, so the tuple is allocated at its final size: one grown
        # from a generator is resized on the way, and the freed results pile
        # up on the interpreter's tuple free list (up to 2000 per size).
        return tuple([
            ProofStep(Digest(sibling, bits), _SIDES[index >> k & 1])
            for k, sibling in enumerate(self.siblings)
        ])


class MerkleTree:
    """A built tree: all levels retained, leaves first, root level last.

    Each level is one ``bytes`` buffer holding its entries back to back:
    with ``nb = spec.nbytes``, entry ``i`` of level ``k`` is
    ``levels[k][i * nb : (i + 1) * nb]``.  An entry is the kernel's raw
    output: ``nb`` bytes, left-aligned, pad bits zero -- the ``data`` of a
    :class:`Digest` at ``spec.bits``, without the object.  ``root`` slices
    out and wraps its one entry; ``generate_proof`` slices out a path's
    siblings and hands them out as they are.

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
    nb = tree.spec.nbytes
    siblings = []
    index = leaf_index
    for level in tree.levels[:-1]:
        at = (index ^ 1) * nb
        siblings.append(level[at : at + nb])
        index >>= 1
    return MerkleProof(tree.spec.bits, leaf_index, tuple(siblings))


def verify_proof(
    data: bytes, proof: MerkleProof, expected_root: Digest, spec: HashSpec
) -> bool:
    """Three-step check: hash the block, fold the path, compare to the root.

    The proof was checked once, when it was built (see :class:`MerkleProof`):
    its siblings are at its width and its ``leaf_index`` fits its path, so
    verification only folds, taking each side from the index.  A proof or
    root not at ``spec.bits`` raises ``ValueError`` -- a caller mistake, not
    a failed verification.
    """
    if proof.bits != spec.bits:
        raise ValueError(f"proof bits {proof.bits} do not match spec.bits {spec.bits}")
    if expected_root.bits != spec.bits:
        raise ValueError(
            f"expected root has {expected_root.bits} bits, spec.bits is {spec.bits}"
        )
    node = node_fn(spec)
    current = node(data)
    index = proof.leaf_index
    for sibling in proof.siblings:
        if index & 1:
            current = node(sibling + current)
        else:
            current = node(current + sibling)
        index >>= 1
    return current == expected_root.data


def proof_to_json(proof: MerkleProof) -> str:
    """Serialize a proof to its canonical JSON form.

    The text is exactly ``json.dumps`` of ``{"version": 1, "bits": ...,
    "leaf_index": ..., "steps": [{"sibling": <hex>, "side": <side>}, ...]}``,
    written out directly, with step ``k``'s side read from bit ``k`` of
    ``leaf_index``.  A :class:`MerkleProof` holds only plain ``int`` fields,
    so they print as ``json.dumps`` prints them, and sides and hex digits
    need no escaping.
    """
    index = proof.leaf_index
    steps = ", ".join(
        f'{{"sibling": "{sibling.hex()}", "side": "{_SIDES[index >> k & 1]}"}}'
        for k, sibling in enumerate(proof.siblings)
    )
    return (
        f'{{"version": {PROOF_VERSION}, "bits": {proof.bits}, '
        f'"leaf_index": {index}, "steps": [{steps}]}}'
    )


def proof_from_json(text: str) -> MerkleProof:
    """Parse a serialized proof; malformed JSON or an invalid proof raises ValueError.

    Each sibling must be exactly ``2 * ceil(bits / 8)`` hex digits, in either
    case, and the sides must be ``"left"`` or ``"right"`` and spell
    ``leaf_index``: step ``k``'s side is ``"left"`` exactly when bit ``k`` is
    1.  JSON nested deeper than the parser's recursion limit counts as
    malformed.
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
    siblings = []
    spelled = 0
    for k, raw in enumerate(raw_steps):
        if not isinstance(raw, dict):
            raise ValueError(f"step {k} must be an object")
        sibling = raw.get("sibling")
        if not isinstance(sibling, str):
            raise ValueError(f"step {k} sibling must be a hex string")
        siblings.append(_hex_bytes(sibling, bits))
        side = raw.get("side")
        if side == LEFT:
            spelled |= 1 << k
        elif side != RIGHT:
            raise ValueError(f"step {k} side must be 'left' or 'right', got {side!r}")
    leaf_index = obj.get("leaf_index")
    _require_int("proof leaf_index", leaf_index, 0)
    if spelled != leaf_index:
        raise ValueError(
            f"proof sides spell leaf_index {spelled} over {len(siblings)} steps, "
            f"not the claimed {leaf_index}"
        )
    return MerkleProof(bits, leaf_index, tuple(siblings))
