"""
Merkle trees over truncated digests
===================================

Build a tree, prove membership of one block, watch verification fail the
moment anything is tampered with, and ship a proof through JSON.
"""

from merkle_falsify import (
    HashSpec,
    MerkleProof,
    SHA256,
    build_tree,
    generate_proof,
    proof_from_json,
    proof_to_json,
    verify_proof,
)

spec = HashSpec(SHA256, 256)

# Five blocks; an odd level duplicates its last digest before pairing,
# so the stored level sizes run 5+1 -> 3+1 -> 2 -> 1.  Each level is one
# bytes buffer of spec.nbytes-byte digests laid end to end.
blocks = [f"record-{i}".encode() for i in range(5)]
tree = build_tree(blocks, spec)

print("root         :", tree.root.hex())
print("height       :", tree.height)
for depth, level in enumerate(tree.levels):
    print(f"level {depth} size :", len(level) // spec.nbytes)

# An authentication path is the leaf's index and, bottom-up, the raw bytes
# of the sibling consumed at each level.  Sides are not stored: the sibling
# at step k sits on the left exactly when bit k of the index is 1.
proof = generate_proof(tree, 3)
print()
print(f"leaf index   : {proof.leaf_index} = 0b{proof.leaf_index:b}, read low bit first")
for k, sibling in enumerate(proof.siblings):
    side = "left" if proof.leaf_index >> k & 1 else "right"
    print(f"sibling on the {side:5s}: {sibling.hex()[:16]}...")

print("genuine block verifies   :", verify_proof(blocks[3], proof, tree.root, spec))
print("substituted block        :", verify_proof(b"record-999", proof, tree.root, spec))

# Corrupt one sibling: same path shape, wrong root.
first = proof.siblings[0]
flipped = bytes([first[0] ^ 0x01]) + first[1:]
tampered = MerkleProof(proof.bits, proof.leaf_index, (flipped,) + proof.siblings[1:])
print("tampered sibling         :", verify_proof(blocks[3], tampered, tree.root, spec))

# The same siblings relabelled to leaf 2 fold at leaf 2: the sides follow
# the index, so the genuine block no longer reaches the root.
moved = MerkleProof(proof.bits, 2, proof.siblings)
print("relabelled to leaf 2     :", verify_proof(blocks[3], moved, tree.root, spec))

# Proofs survive a JSON round trip, e.g. handed to a remote verifier.
wire = proof_to_json(proof)
print()
print("serialized:", wire[:72] + "...")
print("round-trip verifies      :", verify_proof(blocks[3], proof_from_json(wire), tree.root, spec))

# The same machinery runs at any digest width.  A 12-bit tree is useless
# for security but handy for studying collisions: second preimages are
# cheap enough to find by brute force.
tiny = HashSpec(SHA256, 12)
tiny_tree = build_tree(blocks, tiny)
tiny_proof = generate_proof(tiny_tree, 0)
print()
print("12-bit root  :", tiny_tree.root.hex())

forgery = None
for attempt in range(200_000):
    candidate = f"forged-{attempt}".encode()
    if candidate != blocks[0] and verify_proof(candidate, tiny_proof, tiny_tree.root, tiny):
        forgery = candidate
        break
print("12-bit forgery found     :", forgery)
