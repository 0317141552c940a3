import copy
import dataclasses
import hashlib
import json
import pickle
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from merkle_falsify import hashing
from merkle_falsify.hashing import IDEAL, SHA256, Digest, HashSpec, node_fn
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
    FOUR_LEAF_IDEAL_SEED11_ROOT_HEX,
    FOUR_LEAF_P1_SIB0_HEX,
    FOUR_LEAF_P1_SIB1_HEX,
    FOUR_LEAF_ROOT_HEX,
    THREE_LEAF_L1_HEX,
    THREE_LEAF_ROOT_HEX,
)

SPEC256 = HashSpec(SHA256, 256)


def hash_bytes(data: bytes, spec: HashSpec) -> Digest:
    """The kernel's output for ``data`` as a Digest."""
    return Digest(node_fn(spec)(data), spec.bits)


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
        siblings=(b"\x00" * 32,) + proof.siblings[1:],
    )
    assert not verify_proof(FOUR_LEAF_BLOCKS[1], broken, root, SPEC256)

    # flipped side: a side is a bit of leaf_index, so flipping step 0's
    # side is relabelling the proof to index 0; it builds and fails
    relabelled = MerkleProof(bits=proof.bits, leaf_index=0, siblings=proof.siblings)
    assert [s.side for s in relabelled.steps] == ["right", "right"]
    assert not verify_proof(FOUR_LEAF_BLOCKS[1], relabelled, root, SPEC256)

    # wrong root
    other = build_tree([b"x", b"y", b"z", b"w"], SPEC256)
    assert not verify_proof(FOUR_LEAF_BLOCKS[1], proof, other.root, SPEC256)


def test_relabelled_proof_rejected():
    # a proof's sides are the bits of its leaf_index, so leaf 1's siblings
    # relabelled to another position fold at that position: the steps spell
    # the new index, and at 256 bits no block verifies against the root.
    # An index past the path's leaves cannot be built.
    tree = build_tree(FOUR_LEAF_BLOCKS, SPEC256)
    proof = generate_proof(tree, 1)
    assert verify_proof(FOUR_LEAF_BLOCKS[1], proof, tree.root, SPEC256)
    for claimed in (0, 2, 3):
        relabelled = MerkleProof(bits=proof.bits, leaf_index=claimed, siblings=proof.siblings)
        spelled = sum(1 << k for k, s in enumerate(relabelled.steps) if s.side == "left")
        assert spelled == claimed
        assert [s.sibling.data for s in relabelled.steps] == list(proof.siblings)
        for block in FOUR_LEAF_BLOCKS:
            assert not verify_proof(block, relabelled, tree.root, SPEC256)
    for claimed in (4, 5):
        with pytest.raises(ValueError, match=f"leaf_index {claimed} is past the 4 leaves"):
            MerkleProof(bits=proof.bits, leaf_index=claimed, siblings=proof.siblings)
    with pytest.raises(ValueError, match="proof leaf_index must be an integer >= 0"):
        MerkleProof(bits=proof.bits, leaf_index=-1, siblings=proof.siblings)


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
        assert len(generate_proof(tree, 0).siblings) == math.ceil(math.log2(padded))


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
    # objects; the root is the only entry wrapped, a proof holds its
    # siblings as the stored bytes, and its steps wrap exactly those
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
            assert proof.siblings[k] == entries(tree.levels[k], spec)[at ^ 1]
            assert step.sibling == Digest(proof.siblings[k], bits)
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
    # the level form writes each level once, into the buffer it returns: no
    # second copy of the level exists while it is built, nor while its pad
    # bits are masked (at 3 bits the last-byte column is the whole level)
    inputs = [i.to_bytes(64, "big") for i in range(1 << 14)]
    for spec in (
        HashSpec(SHA256, 3),
        HashSpec(SHA256, 8),
        HashSpec(SHA256, 12),
        SPEC256,
        HashSpec(IDEAL, 13, seed=3),
        HashSpec(IDEAL, 64, seed=3),
    ):
        level_fn = hashing._level_fn(spec)
        tracemalloc.start()
        try:
            level = level_fn(inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(level) == spec.nbytes << 14
        assert peak <= 1.2 * len(level), (spec, len(level), peak)


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
    lifted = MerkleProof(bits=256, leaf_index=0, siblings=proof.siblings[1:])
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
    # a sibling that is not the proof's width in bytes is refused when the
    # proof is built, as are pad bits and a sibling that is not bytes
    for bits, siblings in (
        (8, (b"\x00\x00",)),
        (4, (b"\xb0", b"\xb1")),
        (8, (bytearray(1),)),
        (8, (b"",)),
    ):
        k = len(siblings) - 1
        nb = (bits + 7) // 8
        message = f"step {k} sibling must be {nb} bytes with the pad bits below {bits} bits zero"
        with pytest.raises(ValueError, match=re.escape(f"{message}, got {siblings[k]!r}")):
            MerkleProof(bits=bits, leaf_index=0, siblings=siblings)
    with pytest.raises(ValueError, match="proof siblings must be a tuple, got list"):
        MerkleProof(bits=8, leaf_index=0, siblings=[b"\x00"])


class _Bytes(bytes):
    """A ``bytes`` subclass, which neither a digest nor a sibling accepts."""


def _refusal(make) -> str | None:
    """The ValueError text ``make()`` raises, or None if it returns."""
    try:
        make()
    except ValueError as exc:
        return str(exc)
    return None


@given(bits=st.integers(min_value=1, max_value=300), data=st.data())
@settings(max_examples=200, deadline=None)
def test_digest_and_sibling_share_one_width_rule(bits, data):
    # a Digest's data and a proof sibling are the same b-bit value, so they
    # are accepted by one rule and refused in the same words: exactly
    # ceil(b / 8) bytes, of type bytes itself, with the low (8 - b % 8) % 8
    # bits of the last byte zero
    nb = (bits + 7) // 8
    size = data.draw(st.integers(min_value=max(0, nb - 1), max_value=nb + 1))
    raw = bytearray(data.draw(st.binary(min_size=size, max_size=size)))
    pad = 8 * nb - bits
    if raw and data.draw(st.booleans()):
        raw[-1] = raw[-1] >> pad << pad
    kind = data.draw(st.sampled_from([bytes, _Bytes, bytearray]))
    value = kind(raw)
    digest = _refusal(lambda: Digest(value, bits))
    sibling = _refusal(lambda: MerkleProof(bits, 0, (value,)))
    valid = kind is bytes and size == nb and raw[-1] % (1 << pad) == 0
    assert (digest is None) == (sibling is None) == valid
    if not valid:
        assert digest.startswith("digest data must be ")
        assert sibling.startswith("step 0 sibling must be ")
        assert digest.removeprefix("digest data") == sibling.removeprefix("step 0 sibling")


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
    for sibling in proof.siblings:
        folded = node(folded + sibling)
    assert folded == tree.root.data


def test_fold_path_frozen_vector():
    # leaf index 0: every sibling sits on the right
    siblings = tuple(node_fn(SPEC256)(x) for x in (b"s0", b"s1", b"s2"))
    proof = MerkleProof(bits=256, leaf_index=0, siblings=siblings)
    root = Digest.from_hex(FOLD3_ROOT_HEX, 256)
    assert verify_proof(b"seed", proof, root, SPEC256)
    assert not verify_proof(b"seeds", proof, root, SPEC256)


def test_fold_path_empty_is_identity():
    # a zero-step path verifies exactly the leaf's own hash as the root
    empty = MerkleProof(bits=256, leaf_index=0, siblings=())
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
    st.sampled_from(
        [HashSpec(SHA256, b) for b in (1, 4, 7, 8, 12, 64, 255, 256)] + [HashSpec(IDEAL, 13, seed=5)]
    ),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_proof_json_is_canonical_dumps(n, spec, data):
    tree = build_tree([f"c{i}".encode() for i in range(n)], spec)
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
            MerkleProof(bits=bits, leaf_index=leaf_index, siblings=())
        return
    siblings = (bytes((bits + 7) // 8),) * leaf_index.bit_length()
    proof = MerkleProof(bits=bits, leaf_index=leaf_index, siblings=siblings)
    assert proof_to_json(proof) == dumps_reference(proof)


@given(
    st.integers(min_value=1, max_value=40),
    st.sampled_from([HashSpec(SHA256, b) for b in (1, 7, 12, 256)] + [HashSpec(IDEAL, 13, seed=7)]),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_proof_contract_property(n, spec, data):
    # a proof's sides are its leaf index's bits: relabelled within its path
    # it spells the new index, and past its path it cannot be built.  JSON
    # whose sides do not spell its leaf_index, and siblings not at the
    # proof's width, are refused.
    blocks = [f"p{i}".encode() for i in range(n)]
    tree = build_tree(blocks, spec)
    index = data.draw(st.integers(min_value=0, max_value=n - 1))
    proof = generate_proof(tree, index)
    siblings = proof.siblings
    steps = len(siblings)

    for claimed in range(2 ** (steps + 1)):
        if claimed >> steps:
            with pytest.raises(ValueError, match=f"leaf_index {claimed} is past the"):
                MerkleProof(bits=spec.bits, leaf_index=claimed, siblings=siblings)
        else:
            relabelled = MerkleProof(bits=spec.bits, leaf_index=claimed, siblings=siblings)
            sides = ["left" if claimed >> k & 1 else "right" for k in range(steps)]
            assert [s.side for s in relabelled.steps] == sides

    text = proof_to_json(proof)
    assert proof_from_json(text) == proof
    assert proof_to_json(proof_from_json(text)) == text
    assert verify_proof(blocks[index], proof, tree.root, spec)

    obj = json.loads(text)
    obj["leaf_index"] = data.draw(st.integers(min_value=0).filter(lambda i: i != index))
    with pytest.raises(ValueError, match="spell leaf_index"):
        proof_from_json(json.dumps(obj))
    if not steps:
        return
    k = data.draw(st.integers(min_value=0, max_value=steps - 1))
    obj = json.loads(text)
    obj["steps"][k]["side"] = "left" if obj["steps"][k]["side"] == "right" else "right"
    with pytest.raises(ValueError, match="spell leaf_index"):
        proof_from_json(json.dumps(obj))

    nb = spec.nbytes
    other = data.draw(st.sampled_from([1, 12, 24, 256]).filter(lambda b: (b + 7) // 8 != nb))
    odd = bytes((other + 7) // 8)
    with pytest.raises(ValueError, match=f"step {k} sibling must be {nb} bytes"):
        MerkleProof(spec.bits, index, siblings[:k] + (odd,) + siblings[k + 1 :])
    obj = json.loads(text)
    obj["steps"][k]["sibling"] = odd.hex()
    with pytest.raises(ValueError, match=f"invalid hex digest '{odd.hex()}'"):
        proof_from_json(json.dumps(obj))
    if spec.bits % 8:
        padded = siblings[k][:-1] + bytes([siblings[k][-1] | 1])
        with pytest.raises(ValueError, match=f"step {k} sibling must be {nb} bytes with the pad"):
            MerkleProof(spec.bits, index, siblings[:k] + (padded,) + siblings[k + 1 :])


def test_proof_classes_are_slotted_and_frozen():
    digest = Digest(b"\xb0", 4)
    step = ProofStep(digest, "left")
    proof = MerkleProof(bits=4, leaf_index=1, siblings=(digest.data,))
    assert proof.steps == (step,)
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
    for mangle, message in (
        (lambda o: o.update(steps=[1]), "step 0 must be an object"),
        (lambda o: o["steps"][0].update(sibling=1), "step 0 sibling must be a hex string"),
    ):
        obj = json.loads(json.dumps(good))
        mangle(obj)
        with pytest.raises(ValueError, match=f"^{message}$"):
            proof_from_json(json.dumps(obj))
    with pytest.raises(ValueError):
        proof_from_json("{not json")
    with pytest.raises(ValueError):
        proof_from_json("[1,2]")


def test_hex_text_is_exact_digits():
    # bytes.fromhex skips ASCII whitespace, so a sibling or root hex with
    # whitespace in or around it would parse; only exactly 2 * nbytes hex
    # digits are accepted, in either case
    spec = HashSpec(SHA256, 12)
    tree = build_tree(FOUR_LEAF_BLOCKS, spec)
    proof = generate_proof(tree, 1)
    text = proof_to_json(proof)
    sibling = proof.siblings[0].hex()
    for loose in (f"{sibling[:2]} \n{sibling[2:]}", f" {sibling}", f"{sibling}\t"):
        bad = text.replace(f'"{sibling}"', json.dumps(loose), 1)
        with pytest.raises(ValueError, match=re.escape(f"invalid hex digest {loose!r}")):
            proof_from_json(bad)
    assert proof_from_json(text.replace(sibling, sibling.upper())) == proof

    root = tree.root.hex()
    for loose in (f" {root}\t", f"{root[:2]} {root[2:]}", root + "00", root[:2]):
        message = f"invalid hex digest {loose!r}: 12 bits take exactly 4 hex digits"
        with pytest.raises(ValueError, match=re.escape(message)):
            Digest.from_hex(loose, 12)
    assert Digest.from_hex(root.upper(), 12) == tree.root
    with pytest.raises(ValueError, match="digest bits must be an integer >= 1"):
        Digest.from_hex(root, 0)


def test_proof_path_builds_no_digest(monkeypatch):
    # guard: proving, serializing, parsing and verifying handle siblings as
    # raw bytes; only the root handed to verify_proof is a Digest
    tree = build_tree([i.to_bytes(2, "big") for i in range(1 << 8)], SPEC256)
    root = tree.root
    calls = []
    real = hashing.Digest.__post_init__

    def counting(self):
        calls.append(1)
        real(self)

    monkeypatch.setattr(hashing.Digest, "__post_init__", counting)
    for index in (0, 77, 255):
        proof = generate_proof(tree, index)
        back = proof_from_json(proof_to_json(proof))
        assert back == proof
        assert verify_proof(index.to_bytes(2, "big"), back, root, SPEC256)
    assert len(calls) == 0
    # the steps view builds one validated Digest per sibling
    assert len(back.steps) == 8 and len(calls) == 8


def test_ideal_oracle_tree():
    spec = HashSpec(IDEAL, 16, seed=11)
    blocks = [b"u", b"v", b"w"]
    tree = build_tree(blocks, spec)
    proof = generate_proof(tree, 1)
    assert verify_proof(b"v", proof, tree.root, spec)
    assert not verify_proof(b"x", proof, tree.root, spec)
    # same seed rebuilds the same root
    assert build_tree(blocks, HashSpec(IDEAL, 16, seed=11)).root == tree.root


@pytest.mark.parametrize("bits", sorted(FOUR_LEAF_IDEAL_SEED11_ROOT_HEX))
def test_ideal_oracle_frozen_roots(bits):
    # the seed lives in the spec; the digests are those of a standalone fold
    spec = HashSpec(IDEAL, bits, seed=11)
    tree = build_tree(FOUR_LEAF_BLOCKS, spec)
    assert tree.root == Digest.from_hex(FOUR_LEAF_IDEAL_SEED11_ROOT_HEX[bits], bits)
    assert verify_proof(FOUR_LEAF_BLOCKS[2], generate_proof(tree, 2), tree.root, spec)


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
