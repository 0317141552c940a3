import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from merkle_falsify.hashing import (
    IDEAL,
    SHA256,
    Digest,
    HashSpec,
    OracleState,
    node_fn,
)

from frozen_values import ORACLE_SEED5_Q_U64, SHA_ABC_HEX


def hash_bytes(data: bytes, spec: HashSpec, oracle: OracleState | None = None) -> Digest:
    """The kernel's output for ``data`` as a Digest."""
    return Digest(node_fn(spec, oracle)(data), spec.bits)


def to_int(d: Digest) -> int:
    """Digest value as an integer, pad bits dropped."""
    return int.from_bytes(d.data, "big") >> ((8 - d.bits % 8) % 8)


def test_sha256_reference_vector():
    d = hash_bytes(b"abc", HashSpec(SHA256, 256))
    assert d.hex() == SHA_ABC_HEX
    assert d.bits == 256


def test_truncate_to_byte():
    d = hash_bytes(b"abc", HashSpec(SHA256, 8))
    assert d.data == bytes([0xBA])
    assert d.bits == 8


def test_truncate_to_nibble():
    # top nibble kept, low nibble zeroed
    d = hash_bytes(b"abc", HashSpec(SHA256, 4))
    assert d.data == bytes([0xB0])
    assert to_int(d) == 0xB


def test_spec_validation():
    with pytest.raises(ValueError):
        HashSpec(SHA256, 0)
    with pytest.raises(ValueError):
        HashSpec(SHA256, 257)
    with pytest.raises(ValueError):
        HashSpec(IDEAL, 65)
    with pytest.raises(ValueError):
        HashSpec("md5", 16)
    with pytest.raises(ValueError):
        HashSpec(SHA256, True)  # bool is an int subclass, not a width
    assert HashSpec(IDEAL, 64).nbytes == 8
    assert HashSpec(SHA256, 12).last_byte_mask == 0xF0


def test_oracle_presence_enforced():
    with pytest.raises(ValueError):
        hash_bytes(b"x", HashSpec(IDEAL, 8))
    with pytest.raises(ValueError):
        hash_bytes(b"x", HashSpec(SHA256, 8), OracleState(0))


def test_digest_validation():
    with pytest.raises(ValueError):
        Digest(b"\xb1", 4)  # nonzero pad bits
    with pytest.raises(ValueError):
        Digest(b"\x00\x00", 4)  # wrong byte count
    with pytest.raises(ValueError):
        Digest(b"", 1)
    with pytest.raises(ValueError):
        Digest(b"\x80", True)


def test_digest_equality_includes_width():
    assert Digest(b"\xb0", 4) != Digest(b"\xb0", 8)
    assert Digest(b"\xb0", 4) == Digest(b"\xb0", 4)


@given(st.binary(max_size=64), st.integers(min_value=1, max_value=255), st.integers(min_value=1, max_value=255))
@settings(max_examples=60, deadline=None)
def test_truncation_prefix_consistency(data, b1, b2):
    if b1 > b2:
        b1, b2 = b2, b1
    narrow = hash_bytes(data, HashSpec(SHA256, b1))
    wide = hash_bytes(data, HashSpec(SHA256, b2))
    assert to_int(narrow) == to_int(wide) >> (b2 - b1)


@given(st.binary(max_size=96))
@settings(max_examples=40, deadline=None)
def test_sha256_kernel_every_width(data):
    # reference truncation: the top b bits of the digest, left-aligned in
    # ceil(b / 8) bytes with the pad bits of the last byte zero
    value = int.from_bytes(hashlib.sha256(data).digest(), "big")
    for b in range(1, 257):
        nb = (b + 7) // 8
        want = (value >> (256 - b) << (8 * nb - b)).to_bytes(nb, "big")
        assert node_fn(HashSpec(SHA256, b))(data) == want, b


def test_oracle_repeat_query_is_deterministic():
    oracle = OracleState(3)
    spec = HashSpec(IDEAL, 16)
    first = hash_bytes(b"payload", spec, oracle)
    second = hash_bytes(b"payload", spec, oracle)
    assert first == second
    # nothing is cached: each query is one draw
    assert len(oracle) == 2
    # a second state with the same seed reproduces the value
    assert hash_bytes(b"payload", spec, OracleState(3)) == first


@given(
    st.integers(min_value=0, max_value=(1 << 64) - 1),
    st.binary(max_size=64),
    st.lists(st.binary(max_size=64), max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_oracle_value_derivation(seed, data, others):
    # frozen: low 64 bits of sha256(seed_be8 || input)
    oracle = OracleState(5)
    assert oracle.value64(b"q") == ORACLE_SEED5_Q_U64
    d = hash_bytes(b"q", HashSpec(IDEAL, 4), oracle)
    assert to_int(d) == ORACLE_SEED5_Q_U64 & 0xF
    # the same derivation for any seed and input, after unrelated queries
    oracle = OracleState(seed)
    for other in others:
        oracle.value64(other)
    expect = int.from_bytes(hashlib.sha256(seed.to_bytes(8, "big") + data).digest()[-8:], "big")
    assert oracle.value64(data) == expect


def test_oracle_widths_consistent():
    # low-b truncation of one backing value: narrower output = low bits
    oracle = OracleState(9)
    v16 = to_int(hash_bytes(b"zz", HashSpec(IDEAL, 16), oracle))
    v8 = to_int(hash_bytes(b"zz", HashSpec(IDEAL, 8), oracle))
    assert v8 == v16 & 0xFF


def test_oracle_seed_range():
    with pytest.raises(ValueError):
        OracleState(-1)
    with pytest.raises(ValueError):
        OracleState(1 << 64)
    for seed in (True, False):  # bool is an int subclass, not a seed
        with pytest.raises(ValueError, match="oracle seed must be an integer in 0..18446744073709551615"):
            OracleState(seed)


def test_oracle_seed_sensitivity():
    a = OracleState(1)
    b = OracleState(2)
    outs_a = [a.value64(str(i).encode()) for i in range(8)]
    outs_b = [b.value64(str(i).encode()) for i in range(8)]
    assert outs_a != outs_b


def test_oracle_uniformity_b4():
    # 10^5 distinct inputs: every 4-bit bucket within 5 binomial sigmas
    oracle = OracleState(1234)
    spec = HashSpec(IDEAL, 4)
    counts = [0] * 16
    for i in range(100_000):
        counts[to_int(hash_bytes(str(i).encode(), spec, oracle))] += 1
    expect = 100_000 / 16
    sigma = (100_000 * (1 / 16) * (15 / 16)) ** 0.5
    for c in counts:
        assert abs(c - expect) <= 5 * sigma


def test_hash_concat_ideal_pad_invariant():
    oracle = OracleState(0)
    spec = HashSpec(IDEAL, 4)
    a = hash_bytes(b"a", spec, oracle)
    b = hash_bytes(b"b", spec, oracle)
    out = hash_bytes(a.data + b.data, spec, oracle)
    assert out.bits == 4
    assert out.data[-1] & 0x0F == 0


@given(st.binary(max_size=32), st.integers(min_value=1, max_value=64))
@settings(max_examples=60, deadline=None)
def test_ideal_pad_invariant_property(data, bits):
    oracle = OracleState(77)
    d = hash_bytes(data, HashSpec(IDEAL, bits), oracle)
    rem = bits % 8
    if rem:
        assert d.data[-1] & (0xFF >> rem) == 0
    assert len(d.data) == (bits + 7) // 8
