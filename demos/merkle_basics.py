"""
Merkle trees over truncated digests
===================================

Build a tree, prove membership of one block, watch verification fail the
moment anything is tampered with, and ship a proof through JSON.
"""

from merkle_falsify import (
    Digest,
    HashSpec,
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

# An authentication path lists, bottom-up, the sibling consumed at each
# level and the side it occupies in the concatenation.
proof = generate_proof(tree, 3)
print()
for step in proof.steps:
    print(f"sibling on the {step.side:5s}: {step.sibling.hex()[:16]}...")

print("genuine block verifies   :", verify_proof(blocks[3], proof, tree.root, spec))
print("substituted block        :", verify_proof(b"record-999", proof, tree.root, spec))

# Corrupt one sibling digest: same path shape, wrong root.
bad_first = proof.steps[0]
flipped = Digest(
    bytes([bad_first.sibling.data[0] ^ 0x01]) + bad_first.sibling.data[1:],
    bad_first.sibling.bits,
)
tampered = proof_from_json(
    proof_to_json(proof).replace(bad_first.sibling.hex(), flipped.hex())
)
print("tampered sibling         :", verify_proof(blocks[3], tampered, tree.root, spec))

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
