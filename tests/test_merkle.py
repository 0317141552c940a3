import copy
import dataclasses
import hashlib
import json
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from merkle_falsify import hashing
from merkle_falsify.hashing import IDEAL, SHA256, Digest, HashSpec, OracleState, node_fn
from merkle_falsify.merkle import (
    MerkleProof,
    ProofStep,
    build_tree,
    generate_proof,
    proof_from_json,
    proof_to_json,
    verify_proof,
)

from frozen_values import (
    FOLD3_ROOT_HEX,
    FOUR_LEAF_BLOCKS,
    FOUR_LEAF_P1_SIB0_HEX,
    FOUR_LEAF_P1_SIB1_HEX,
    FOUR_LEAF_ROOT_HEX,
    THREE_LEAF_L1_HEX,
    THREE_LEAF_ROOT_HEX,
)

SPEC256 = HashSpec(SHA256, 256)


def hash_bytes(data: bytes, spec: HashSpec, oracle: OracleState | None = None) -> Digest:
    """The kernel's output for ``data`` as a Digest."""
    return Digest(node_fn(spec, oracle)(data), spec.bits)


def entries(level: bytes, spec: HashSpec) -> list[bytes]:
    """A stored level cut into its ``spec.nbytes`` entries."""
    nb = spec.nbytes
    return [level[i : i + nb] for i in range(0, len(level), nb)]


def test_single_leaf():
    tree = build_tree([b"only"], SPEC256)
    assert tree.root == hash_bytes(b"only", SPEC256)
    assert tree.height == 0
    proof = generate_proof(tree, 0)
    assert len(proof.steps) == 0
    assert verify_proof(b"only", proof, tree.root, SPEC256)


def test_two_leaves():
    tree = build_tree([b"a", b"b"], SPEC256)
    expect = hashlib.sha256(
        hashlib.sha256(b"a").digest() + hashlib.sha256(b"b").digest()
    ).hexdigest()
    assert tree.root.hex() == expect


def test_three_leaf_duplication_structure():
    tree = build_tree([b"a", b"b", b"c"], SPEC256)
    assert tree.leaf_count == 3
    levels = [entries(level, SPEC256) for level in tree.levels]
    assert [len(level) for level in levels] == [4, 2, 1]
    assert levels[0][3] == levels[0][2]
    assert tuple(d.hex() for d in levels[1]) == THREE_LEAF_L1_HEX
    assert tree.root.hex() == THREE_LEAF_ROOT_HEX

    # leaf 2 pairs with its own duplicate, then the left subtree node
    proof = generate_proof(tree, 2)
    assert [s.side for s in proof.steps] == ["right", "left"]
    assert proof.steps[0].sibling.data == levels[0][2]
    assert proof.steps[1].sibling.data == levels[1][0]
    assert verify_proof(b"c", proof, tree.root, SPEC256)


def test_four_leaf_frozen_vectors():
    tree = build_tree(FOUR_LEAF_BLOCKS, SPEC256)
    assert tree.root.hex() == FOUR_LEAF_ROOT_HEX
    proof = generate_proof(tree, 1)
    assert [s.side for s in proof.steps] == ["left", "right"]
    assert proof.steps[0].sibling.hex() == FOUR_LEAF_P1_SIB0_HEX
    assert proof.steps[1].sibling.hex() == FOUR_LEAF_P1_SIB1_HEX
    assert verify_proof(FOUR_LEAF_BLOCKS[1], proof, tree.root, SPEC256)


def test_tamper_matrix():
    tree = build_tree(FOUR_LEAF_BLOCKS, SPEC256)
    root = tree.root
    proof = generate_proof(tree, 1)

    # bit-flipped data
    assert not verify_proof(b"block-1\x01", proof, root, SPEC256)
    assert not verify_proof(b"block-0", proof, root, SPEC256)

    # zeroed sibling
    broken = MerkleProof(
        bits=proof.bits,
        leaf_index=proof.leaf_index,
        steps=(ProofStep(Digest(b"\x00" * 32, 256), proof.steps[0].side),)
        + proof.steps[1:],
    )
    assert not verify_proof(FOUR_LEAF_BLOCKS[1], broken, root, SPEC256)

    # flipped side: the sides no longer spell leaf_index, so no such proof
    # exists; relabelled to the index they do spell, it builds and fails
    swapped = (ProofStep(proof.steps[0].sibling, "right"),) + proof.steps[1:]
    with pytest.raises(ValueError, match="spell leaf_index 0"):
        MerkleProof(bits=proof.bits, leaf_index=proof.leaf_index, steps=swapped)
    relabelled = MerkleProof(bits=proof.bits, leaf_index=0, steps=swapped)
    assert not verify_proof(FOUR_LEAF_BLOCKS[1], relabelled, root, SPEC256)

    # wrong root
    other = build_tree([b"x", b"y", b"z", b"w"], SPEC256)
    assert not verify_proof(FOUR_LEAF_BLOCKS[1], proof, other.root, SPEC256)


def test_relabelled_proof_rejected():
    # the sides of leaf 1's proof spell index 1; a proof claiming another
    # position with the same steps cannot be built
    tree = build_tree(FOUR_LEAF_BLOCKS, SPEC256)
    proof = generate_proof(tree, 1)
    assert verify_proof(FOUR_LEAF_BLOCKS[1], proof, tree.root, SPEC256)
    for claimed in (0, 2, 3, 5):
        with pytest.raises(ValueError, match=f"spell leaf_index 1 over 2 steps.*{claimed}"):
            MerkleProof(bits=proof.bits, leaf_index=claimed, steps=proof.steps)
    with pytest.raises(ValueError, match="proof leaf_index must be an integer >= 0"):
        MerkleProof(bits=proof.bits, leaf_index=-1, steps=proof.steps)


def test_proof_roundtrip_small_trees():
    for bits in (8, 64, 256):
        spec = HashSpec(SHA256, bits)
        for n in range(1, 10):
            blocks = [f"blk-{i}".encode() for i in range(n)]
            tree = build_tree(blocks, spec)
            for i in range(n):
                proof = generate_proof(tree, i)
                assert verify_proof(blocks[i], proof, tree.root, spec)


def test_proof_length_is_padded_log2():
    import math

    for n in range(2, 34):
        tree = build_tree([bytes([i]) for i in range(n)], HashSpec(SHA256, 32))
        padded = len(tree.levels[0]) // tree.spec.nbytes
        assert len(generate_proof(tree, 0).steps) == math.ceil(math.log2(padded))


def test_levels_recompute():
    # a fold of the per-call kernel from the blocks, one node at a time
    # (duplicate-if-odd, then pair), reproduces every stored level, pads
    # included; all widths but 40 leave pad bits in the last byte
    for bits in (1, 3, 7, 12, 40, 60, 255):
        spec = HashSpec(SHA256, bits)
        node = node_fn(spec)
        for n in range(1, 18):
            level = [node(bytes([i])) for i in range(n)]
            rebuilt = [level]
            while len(level) > 1:
                if len(level) % 2:
                    level = level + [level[-1]]
                    rebuilt[-1] = level
                level = [node(level[i] + level[i + 1]) for i in range(0, len(level), 2)]
                rebuilt.append(level)
            tree = build_tree([bytes([i]) for i in range(n)], spec)
            assert rebuilt == [entries(stored, spec) for stored in tree.levels], (bits, n)


@given(
    st.lists(st.binary(max_size=16), min_size=1, max_size=40),
    st.sampled_from([1, 4, 8, 12, 40, 256]),
)
@settings(max_examples=60, deadline=None)
def test_levels_are_raw_kernel_bytes(blocks, bits):
    # each level is Digest.data of its entries back to back, without the
    # objects; root and proof siblings are the only entries wrapped, and
    # they wrap exactly the stored bytes
    spec = HashSpec(SHA256, bits)
    tree = build_tree(blocks, spec)
    pad_mask = 0xFF >> bits % 8 if bits % 8 else 0
    for level in tree.levels:
        assert type(level) is bytes  # a Digest takes bytes, not bytearray
        assert len(level) % spec.nbytes == 0
        for entry in entries(level, spec):
            assert entry[-1] & pad_mask == 0
    assert len(tree.levels[-1]) == spec.nbytes
    assert tree.root == Digest(entries(tree.levels[-1], spec)[0], bits)
    for index in range(len(blocks)):
        proof = generate_proof(tree, index)
        at = index
        for k, step in enumerate(proof.steps):
            assert step.sibling == Digest(entries(tree.levels[k], spec)[at ^ 1], bits)
            at //= 2
        assert verify_proof(blocks[index], proof, tree.root, spec)


def test_build_tree_builds_no_digest(monkeypatch):
    # guard: a tree stores raw bytes, so building one validates no Digest
    calls = []
    real = hashing.Digest.__post_init__

    def counting(self):
        calls.append(1)
        real(self)

    monkeypatch.setattr(hashing.Digest, "__post_init__", counting)
    build_tree([i.to_bytes(2, "big") for i in range(1000)], SPEC256)
    assert len(calls) == 0


def test_tree_memory_is_flat():
    # guard: a level is one buffer, so a tree holds about its digest bytes
    # (2^15 entries of nb bytes) rather than an object per node, and the
    # build keeps no per-node objects on the way
    blocks = [i.to_bytes(4, "big") for i in range(1 << 14)]
    for bits, limit in ((256, 1.1 * (1 << 20)), (12, 80 << 10)):
        spec = HashSpec(SHA256, bits)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tree = build_tree(blocks, spec)
            held, peak = (n - before for n in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert tree.height == 14
        assert held <= limit, (bits, held)
        assert peak <= 1.1 * held, (bits, held, peak)


def test_node_payload_verifies_as_leaf():
    # Known weakness, pinned: leaves and nodes hash without a domain prefix
    # (RFC 6962 2.1 prefixes leaves with 0x00 and nodes with 0x01), so the
    # 64-byte concatenation of two leaf digests passes as a leaf one level up.
    blocks = [f"b{i}".encode() for i in range(4)]
    tree = build_tree(blocks, SPEC256)
    leaves = entries(tree.levels[0], SPEC256)
    payload = leaves[0] + leaves[1]
    assert len(payload) == 64
    proof = generate_proof(tree, 0)
    lifted = MerkleProof(bits=256, leaf_index=0, steps=proof.steps[1:])
    assert verify_proof(payload, lifted, tree.root, SPEC256)


def test_duplicated_last_leaf_shares_root():
    # Known weakness, pinned: an odd level duplicates its last digest, so a
    # list with its last block repeated builds the same root (CVE-2012-2459).
    a, b, c = b"a", b"b", b"c"
    assert build_tree([a, b, c], SPEC256).root == build_tree([a, b, c, c], SPEC256).root


def test_index_errors():
    tree = build_tree([b"a", b"b"], SPEC256)
    with pytest.raises(IndexError):
        generate_proof(tree, 2)
    with pytest.raises(IndexError):
        generate_proof(tree, -1)
    with pytest.raises(IndexError):
        generate_proof(tree, True)  # would serialize as "leaf_index": true
    with pytest.raises(ValueError):
        build_tree([], SPEC256)


def test_verify_width_mismatch_raises():
    spec8 = HashSpec(SHA256, 8)
    tree = build_tree([b"a", b"b"], spec8)
    proof = generate_proof(tree, 0)
    with pytest.raises(ValueError):
        verify_proof(b"a", proof, tree.root, SPEC256)
    with pytest.raises(ValueError):
        verify_proof(b"a", proof, hash_bytes(b"r", SPEC256), spec8)
    # a sibling at another width is refused when the proof is built
    with pytest.raises(ValueError, match="step 0 sibling has 16 bits, the proof 8"):
        MerkleProof(bits=8, leaf_index=0, steps=(ProofStep(Digest(b"\x00\x00", 16), "right"),))


def test_fold_path_right_spine():
    # proof for index 0 of a complete tree has all siblings on the right,
    # so the bare fold current || sibling -- the simulator's path model --
    # reproduces the root
    blocks = [f"n{i}".encode() for i in range(8)]
    tree = build_tree(blocks, SPEC256)
    proof = generate_proof(tree, 0)
    assert all(s.side == "right" for s in proof.steps)
    node = node_fn(SPEC256)
    folded = node(blocks[0])
    for step in proof.steps:
        folded = node(folded + step.sibling.data)
    assert folded == tree.root.data


def test_fold_path_frozen_vector():
    # leaf index 0: every sibling sits on the right
    steps = tuple(ProofStep(hash_bytes(x, SPEC256), "right") for x in (b"s0", b"s1", b"s2"))
    proof = MerkleProof(bits=256, leaf_index=0, steps=steps)
    root = Digest.from_hex(FOLD3_ROOT_HEX, 256)
    assert verify_proof(b"seed", proof, root, SPEC256)
    assert not verify_proof(b"seeds", proof, root, SPEC256)


def test_fold_path_empty_is_identity():
    # a zero-step path verifies exactly the leaf's own hash as the root
    empty = MerkleProof(bits=256, leaf_index=0, steps=())
    assert verify_proof(b"x", empty, hash_bytes(b"x", SPEC256), SPEC256)
    assert not verify_proof(b"x", empty, hash_bytes(b"y", SPEC256), SPEC256)


def test_proof_json_schema():
    tree = build_tree([b"a", b"b", b"c"], SPEC256)
    proof = generate_proof(tree, 2)
    obj = json.loads(proof_to_json(proof))
    assert obj["version"] == 1
    assert obj["bits"] == 256
    assert obj["leaf_index"] == 2
    assert [s["side"] for s in obj["steps"]] == ["right", "left"]
    assert all(len(s["sibling"]) == 64 for s in obj["steps"])
    assert proof_from_json(proof_to_json(proof)) == proof


def dumps_reference(proof: MerkleProof) -> str:
    """The documented proof object, serialized by ``json.dumps``."""
    return json.dumps(
        {
            "version": 1,
            "bits": proof.bits,
            "leaf_index": proof.leaf_index,
            "steps": [{"sibling": s.sibling.hex(), "side": s.side} for s in proof.steps],
        }
    )


@given(
    st.integers(min_value=1, max_value=40),
    st.sampled_from([(SHA256, b) for b in (1, 4, 7, 8, 12, 64, 255, 256)] + [(IDEAL, 13)]),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_proof_json_is_canonical_dumps(n, width, data):
    spec = HashSpec(*width)
    oracle = OracleState(5) if spec.algorithm == IDEAL else None
    tree = build_tree([f"c{i}".encode() for i in range(n)], spec, oracle)
    index = data.draw(st.integers(min_value=0, max_value=n - 1))
    proof = generate_proof(tree, index)
    assert proof_to_json(proof) == dumps_reference(proof)


@given(
    st.one_of(st.integers(min_value=-3, max_value=300), st.booleans(), st.just(8.0)),
    st.one_of(st.integers(min_value=-3, max_value=1 << 70), st.booleans(), st.just(0.0)),
)
@settings(max_examples=80, deadline=None)
def test_proof_json_refuses_inexact_ints(bits, leaf_index):
    # a hand-built proof is refused with the integer rule's ValueError unless
    # its fields are plain ints, so proof_to_json writes it as json.dumps
    # does and never meets a bool (dumps: true) or a float
    exact = type(bits) is int and bits >= 1 and type(leaf_index) is int and leaf_index >= 0
    if not exact:
        with pytest.raises(ValueError, match="must be an integer"):
            MerkleProof(bits=bits, leaf_index=leaf_index, steps=())
        return
    sibling = Digest(bytes((bits + 7) // 8), bits)
    steps = tuple(
        ProofStep(sibling, "left" if leaf_index >> k & 1 else "right")
        for k in range(leaf_index.bit_length())
    )
    proof = MerkleProof(bits=bits, leaf_index=leaf_index, steps=steps)
    assert proof_to_json(proof) == dumps_reference(proof)


@given(
    st.integers(min_value=1, max_value=40),
    st.sampled_from([(SHA256, b) for b in (1, 7, 12, 256)] + [(IDEAL, 13)]),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_proof_contract_property(n, width, data):
    # a proof exists only at the leaf index its sides spell and with every
    # sibling at its width, whether built directly or parsed from JSON
    spec = HashSpec(*width)
    oracle = OracleState(7) if spec.algorithm == IDEAL else None
    blocks = [f"p{i}".encode() for i in range(n)]
    tree = build_tree(blocks, spec, oracle)
    index = data.draw(st.integers(min_value=0, max_value=n - 1))
    proof = generate_proof(tree, index)
    steps = proof.steps

    for claimed in range(2 ** (len(steps) + 1)):
        if claimed != index:
            with pytest.raises(ValueError, match="spell leaf_index"):
                MerkleProof(bits=spec.bits, leaf_index=claimed, steps=steps)

    text = proof_to_json(proof)
    assert proof_from_json(text) == proof
    assert proof_to_json(proof_from_json(text)) == text
    assert verify_proof(blocks[index], proof, tree.root, spec, oracle)

    obj = json.loads(text)
    obj["leaf_index"] = data.draw(st.integers(min_value=0).filter(lambda i: i != index))
    with pytest.raises(ValueError, match="spell leaf_index"):
        proof_from_json(json.dumps(obj))
    if not steps:
        return
    k = data.draw(st.integers(min_value=0, max_value=len(steps) - 1))
    obj = json.loads(text)
    obj["steps"][k]["side"] = "left" if obj["steps"][k]["side"] == "right" else "right"
    with pytest.raises(ValueError, match="spell leaf_index"):
        proof_from_json(json.dumps(obj))

    other = data.draw(st.sampled_from([1, 7, 12, 13, 256]).filter(lambda b: b != spec.bits))
    odd = ProofStep(Digest(bytes((other + 7) // 8), other), steps[k].side)
    with pytest.raises(ValueError, match=f"step {k} sibling has {other} bits"):
        MerkleProof(bits=spec.bits, leaf_index=index, steps=steps[:k] + (odd,) + steps[k + 1 :])


def test_proof_classes_are_slotted_and_frozen():
    digest = Digest(b"\xb0", 4)
    step = ProofStep(digest, "left")
    proof = MerkleProof(bits=4, leaf_index=1, steps=(step,))
    for obj, field in ((digest, "bits"), (step, "side"), (proof, "leaf_index")):
        assert not hasattr(obj, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, 0)
        for twin in (copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert twin == obj
            assert hash(twin) == hash(obj)


def test_proof_json_malformed():
    good = json.loads(proof_to_json(generate_proof(build_tree([b"a", b"b"], SPEC256), 0)))
    for mangle in (
        lambda o: o.update(version=2),
        lambda o: o.update(version=True),  # JSON true == 1, but is no version
        lambda o: o.update(bits=True),
        lambda o: o.update(leaf_index=True),
        lambda o: o.update(bits=0),
        lambda o: o.update(leaf_index=-1),
        lambda o: o.update(leaf_index=2),  # a 1-step path has leaves 0 and 1
        lambda o: o.update(steps="nope"),
        lambda o: o["steps"][0].update(side="middle"),
        lambda o: o["steps"][0].update(sibling="zz"),
        lambda o: o["steps"][0].update(sibling="ab"),  # too short for 256 bits
    ):
        obj = json.loads(json.dumps(good))
        mangle(obj)
        with pytest.raises(ValueError):
            proof_from_json(json.dumps(obj))
    with pytest.raises(ValueError):
        proof_from_json("{not json")
    with pytest.raises(ValueError):
        proof_from_json("[1,2]")


def test_ideal_oracle_tree():
    spec = HashSpec(IDEAL, 16)
    oracle = OracleState(11)
    blocks = [b"u", b"v", b"w"]
    tree = build_tree(blocks, spec, oracle)
    proof = generate_proof(tree, 1)
    assert verify_proof(b"v", proof, tree.root, spec, oracle)
    assert not verify_proof(b"x", proof, tree.root, spec, oracle)
    # same seed rebuilds the same root
    assert build_tree(blocks, spec, OracleState(11)).root == tree.root


@given(st.lists(st.binary(min_size=0, max_size=24), min_size=1, max_size=20), st.data())
@settings(max_examples=30, deadline=None)
def test_roundtrip_property(blocks, data):
    spec = HashSpec(SHA256, 64)
    tree = build_tree(blocks, spec)
    index = data.draw(st.integers(min_value=0, max_value=len(blocks) - 1))
    proof = generate_proof(tree, index)
    assert verify_proof(blocks[index], proof, tree.root, spec)
    tampered = blocks[index] + b"!"
    if tampered not in blocks:
        assert not verify_proof(tampered, proof, tree.root, spec)
