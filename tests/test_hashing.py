import hashlib
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from merkle_falsify.hashing import (
    IDEAL,
    SHA256,
    Digest,
    HashSpec,
    OracleState,
    _MASK_NODES,
    _level_fn,
    node_fn,
)

from frozen_values import ORACLE_SEED5_Q_U64, SHA_ABC_HEX


def hash_bytes(data: bytes, spec: HashSpec) -> Digest:
    """The kernel's output for ``data`` as a Digest."""
    return Digest(node_fn(spec)(data), spec.bits)


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


def test_spec_seed_rule():
    # the seed is the ideal oracle's: any 64-bit value there, 0 by default,
    # and only 0 for sha256, which has no seed to vary
    assert HashSpec(IDEAL, 8).seed == 0
    assert HashSpec(IDEAL, 8, seed=(1 << 64) - 1).seed == (1 << 64) - 1
    assert HashSpec(SHA256, 8, seed=0) == HashSpec(SHA256, 8)
    for bad in (1, -1, 1 << 64, True, False, 0.0):
        with pytest.raises(ValueError, match=r"sha256 seed must be an integer in 0\.\.0"):
            HashSpec(SHA256, 8, seed=bad)


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


def test_level_form_equals_per_call_form():
    # the level form is the per-call outputs laid end to end, at every width
    # of both backends; the empty list gives the empty level, and the last
    # batch spans two whole pad-masking slices and part of a third
    batches = (
        [],
        [b""],
        [b"abc", b"", bytes(range(64)), b"\xff" * 33, b"abc"],
        [i.to_bytes(2, "big") for i in range(2 * _MASK_NODES + 3)],
    )
    specs = [HashSpec(SHA256, b) for b in range(1, 257)]
    specs += [HashSpec(IDEAL, b, seed=7) for b in range(1, 65)]
    for spec in specs:
        node = node_fn(spec)
        level = _level_fn(spec)
        for inputs in batches:
            got = level(inputs)
            assert type(got) is bytes
            assert got == b"".join(node(x) for x in inputs), (spec, inputs)


def test_oracle_repeat_query_is_deterministic():
    node = node_fn(HashSpec(IDEAL, 16, seed=3))
    first = node(b"payload")
    assert node(b"payload") == first
    # nothing is cached: each query is one draw
    oracle = OracleState(3)
    assert oracle.value64(b"payload") == oracle.value64(b"payload")
    assert len(oracle) == 2
    # a second kernel with the same seed reproduces the value
    assert node_fn(HashSpec(IDEAL, 16, seed=3))(b"payload") == first


@given(
    st.integers(min_value=0, max_value=(1 << 64) - 1),
    st.binary(max_size=64),
    st.lists(st.binary(max_size=64), max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_oracle_value_derivation(seed, data, others):
    # frozen: low 64 bits of sha256(seed_be8 || input)
    assert OracleState(5).value64(b"q") == ORACLE_SEED5_Q_U64
    d = hash_bytes(b"q", HashSpec(IDEAL, 4, seed=5))
    assert to_int(d) == ORACLE_SEED5_Q_U64 & 0xF
    # the same derivation for any seed and input, after unrelated queries
    node = node_fn(HashSpec(IDEAL, 64, seed=seed))
    for other in others:
        node(other)
    expect = hashlib.sha256(seed.to_bytes(8, "big") + data).digest()[-8:]
    assert node(data) == expect


def test_oracle_widths_consistent():
    # low-b truncation of one backing value: narrower output = low bits
    v16 = to_int(hash_bytes(b"zz", HashSpec(IDEAL, 16, seed=9)))
    v8 = to_int(hash_bytes(b"zz", HashSpec(IDEAL, 8, seed=9)))
    assert v8 == v16 & 0xFF


def test_oracle_seed_range():
    # bool is an int subclass, and 1.0 compares equal to 1, but neither is a seed
    for bits in (1, 13, 64):
        for seed in (-1, 1 << 64, True, False, 1.0):
            with pytest.raises(
                ValueError, match=r"ideal seed must be an integer in 0\.\.18446744073709551615"
            ):
                HashSpec(IDEAL, bits, seed=seed)


def test_oracle_seed_sensitivity():
    a = node_fn(HashSpec(IDEAL, 64, seed=1))
    b = node_fn(HashSpec(IDEAL, 64, seed=2))
    outs_a = [a(str(i).encode()) for i in range(8)]
    outs_b = [b(str(i).encode()) for i in range(8)]
    assert outs_a != outs_b


def test_oracle_uniformity_b4():
    # 10^5 distinct inputs: every 4-bit bucket within 5 binomial sigmas
    node = node_fn(HashSpec(IDEAL, 4, seed=1234))
    counts = [0] * 16
    for i in range(100_000):
        counts[node(str(i).encode())[0] >> 4] += 1
    expect = 100_000 / 16
    sigma = (100_000 * (1 / 16) * (15 / 16)) ** 0.5
    for c in counts:
        assert abs(c - expect) <= 5 * sigma


# Two-sided size of the collision test's accepted interval: the mass
# outside |z| <= 5 of a normal law, the simulator's own gate.
ALPHA = math.erfc(5 / math.sqrt(2))


def _collision_law(n: int, m: int) -> list[float]:
    """P(C = c) for c = 0, 1, ..., where C = n minus the number of distinct
    values among n independent uniform draws from m >= n values.

    The exact law (Knuth, TAOCP Vol. 2, 3.3.2): n draws from m values take
    exactly n - c of them with probability S(n, n - c) * m^(n - c falling)
    / m^n.  The Stirling number comes from second-order Eulerian numbers,
    S(n, n - c) = sum_k <<c, k>> * C(n + c - 1 - k, 2c) (Concrete
    Mathematics, eq. 6.43), in exact integers; only the logarithms are
    floats, so each term is good to about 1e-12 relative.  The list ends
    past the mode where a term drops below 1e-20, with the mass it leaves
    out far below that.
    """
    log_m = math.log(m)
    log_falling = math.fsum(math.log1p(-j / m) for j in range(n))  # c = 0
    row = [1]  # <<c, k>> for k = 0 .. max(c - 1, 0)
    law = []
    for c in range(n):
        if c:
            prev = [0, *row, 0]
            row = [(k + 1) * prev[k + 1] + (2 * c - 1 - k) * prev[k] for k in range(c)]
            log_falling -= math.log1p(-(n - c) / m)
        stirling = sum(e * math.comb(n + c - 1 - k, 2 * c) for k, e in enumerate(row))
        law.append(math.exp(math.log(stirling) + log_falling - c * log_m))
        if c and law[-1] < min(1e-20, law[-2]):
            break
    return law


def _accepted(law: list[float]) -> tuple[int, int]:
    """The counts c whose two-sided tail, the smaller tail doubled, is above
    ALPHA, as (lowest, highest)."""
    accepted = []
    below = 0.0  # P(C < c)
    for c, p in enumerate(law):
        if 2 * min(below + p, 1 - below) > ALPHA:
            accepted.append(c)
        below += p
    assert abs(below - 1) < 1e-12, below
    return accepted[0], accepted[-1]


@pytest.mark.parametrize(
    "bits, n, accepted",
    [
        # n inputs give lambda = C(n, 2) / 2^b colliding pairs on average:
        (17, 1 << 12, (28, 106)),  # lambda = 63.98
        (24, 1 << 15, (8, 64)),  # lambda = 32.00
        (30, 1 << 17, (0, 26)),  # lambda = 8.00
        (32, 1 << 18, (0, 26)),  # lambda = 8.00
    ],
)
def test_kernel_collision_count(bits, n, accepted):
    # Knuth's collision test of the per-level term: two distinct fold
    # inputs agree at b bits with probability 2^-b.  n distinct inputs of a
    # fold's shape (a b-bit node, then a 32-byte sibling) go through the
    # kernel, and the count of collisions, n minus the distinct outputs,
    # must lie in the interval the exact law accepts at ALPHA.  It equals
    # the colliding-pair count unless three inputs share an output.  A
    # fold cell would need about 2^b trials per match at these widths.
    assert _accepted(_collision_law(n, 1 << bits)) == accepted
    for spec in (HashSpec(SHA256, bits), HashSpec(IDEAL, bits, seed=1)):
        node = node_fn(spec)
        prefix = node(b"")
        outputs = Counter(map(node, (prefix + i.to_bytes(32, "big") for i in range(n))))
        collisions = n - len(outputs)
        pairs = sum(k * (k - 1) // 2 for k in outputs.values())
        assert accepted[0] <= collisions <= accepted[1], (spec, collisions, pairs)


def test_hash_concat_ideal_pad_invariant():
    spec = HashSpec(IDEAL, 4)
    a = hash_bytes(b"a", spec)
    b = hash_bytes(b"b", spec)
    out = hash_bytes(a.data + b.data, spec)
    assert out.bits == 4
    assert out.data[-1] & 0x0F == 0


@given(st.binary(max_size=32), st.integers(min_value=1, max_value=64))
@settings(max_examples=60, deadline=None)
def test_ideal_pad_invariant_property(data, bits):
    d = hash_bytes(data, HashSpec(IDEAL, bits, seed=77))
    rem = bits % 8
    if rem:
        assert d.data[-1] & (0xFF >> rem) == 0
    assert len(d.data) == (bits + 7) // 8
