"""Truncated hashing primitives.

Two hash backends share one interface:

- ``sha256``: SHA-256 truncated to the *most significant* ``bits`` bits
  (1..256).
- ``ideal``: a seeded random oracle returning uniform ``bits``-bit values
  (1..64).  Each query is one SHA-256 of ``seed || input``, so a repeated
  query returns the same digest and nothing is cached: every value is
  reproducible from the seed alone.

Truncated digests are carried as :class:`Digest` values: ``ceil(bits / 8)``
bytes, left-aligned, with the unused low-order bits of the final byte forced
to zero.

Every hash in the package goes through one kernel:

- ``node_fn(spec, oracle=None)`` -- checks the backend/oracle pairing once
  and returns a ``bytes -> bytes`` function yielding the truncated digest
  bytes.  It is the only place that knows truncation and the ideal-oracle
  bit layout; trees and the simulator bind it once and fold raw bytes.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Callable

SHA256 = "sha256"
IDEAL = "ideal"

_ALGORITHMS = (SHA256, IDEAL)

# The random oracle derives values from a 64-bit intermediate, so it cannot
# produce more than 64 independent bits per input.
_MAX_BITS = {SHA256: 256, IDEAL: 64}

# The SHA-256 constructor, bound once at import for both backends.  A wrapper
# installed on ``hashlib.sha256`` before the package is imported (a call
# counter, say) therefore still sees every hash.
_sha256 = hashlib.sha256
# The low 64 bits of a 32-byte digest, as a big-endian unsigned integer.
_low64 = struct.Struct(">Q").unpack_from


@dataclass(frozen=True)
class HashSpec:
    """Hash configuration: which backend, and how many output bits to keep."""

    algorithm: str = SHA256
    bits: int = 256

    def __post_init__(self) -> None:
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; expected one of {_ALGORITHMS}"
            )
        limit = _MAX_BITS[self.algorithm]
        # bool is an int subclass, but True is not a width.
        if type(self.bits) is not int or not 1 <= self.bits <= limit:
            raise ValueError(
                f"bits must be an integer in [1, {limit}] for {self.algorithm}, got {self.bits!r}"
            )

    @property
    def nbytes(self) -> int:
        return (self.bits + 7) // 8

    @property
    def last_byte_mask(self) -> int:
        """Bitmask for the final digest byte (high bits kept, pad bits zero)."""
        rem = self.bits % 8
        return 0xFF if rem == 0 else (0xFF << (8 - rem)) & 0xFF


@dataclass(frozen=True)
class Digest:
    """A truncated digest: left-aligned bytes plus the true bit length.

    Two digests are equal iff both the bit length and the bytes agree, so a
    4-bit ``0xb0`` never compares equal to an 8-bit ``0xb0``.
    """

    data: bytes
    bits: int

    def __post_init__(self) -> None:
        if not isinstance(self.data, bytes):
            raise ValueError(f"digest data must be bytes, got {type(self.data).__name__}")
        if type(self.bits) is not int or self.bits < 1:
            raise ValueError(f"digest bits must be a positive integer, got {self.bits!r}")
        if len(self.data) != (self.bits + 7) // 8:
            raise ValueError(
                f"digest of {self.bits} bits needs {(self.bits + 7) // 8} bytes, "
                f"got {len(self.data)}"
            )
        rem = self.bits % 8
        if rem and self.data[-1] & (0xFF >> rem):
            raise ValueError("pad bits below the kept width must be zero")

    def hex(self) -> str:
        return self.data.hex()

    @classmethod
    def from_hex(cls, text: str, bits: int) -> "Digest":
        try:
            raw = bytes.fromhex(text)
        except ValueError as exc:
            raise ValueError(f"invalid hex digest {text!r}") from exc
        return cls(raw, bits)


class OracleState:
    """Random oracle, reproducible from a 64-bit seed.

    Each query draws its 64-bit value by hashing ``seed || input`` with
    full-width SHA-256 and keeping the low 64 bits.  Nothing is cached: a
    repeated query hashes again and gets the same value, and the state's size
    stays constant however many inputs are queried.  ``node_fn`` then keeps the
    low ``bits`` bits of that value, so the same state can serve any width
    up to 64 consistently.  ``len()`` is the number of values drawn so far,
    one per query.

    Not safe for concurrent mutation -- give each worker its own instance.
    """

    def __init__(self, seed: int = 0) -> None:
        # bool is an int subclass, but True is not a seed.
        if type(seed) is not int or not 0 <= seed < (1 << 64):
            raise ValueError(f"oracle seed must be a 64-bit unsigned integer, got {seed!r}")
        self.seed = seed
        self._prefix = seed.to_bytes(8, "big")
        self._draws = 0

    def __len__(self) -> int:
        return self._draws

    def value64(self, data: bytes) -> int:
        """The 64-bit value backing every truncated width: one SHA-256 per call."""
        self._draws += 1
        return _low64(_sha256(self._prefix + data).digest(), 24)[0]


def _tail_table(rem: int) -> tuple[bytes, ...]:
    """The kept last byte of a ``bits % 8 == rem`` digest, indexed by its raw value."""
    mask = HashSpec(SHA256, rem).last_byte_mask
    kept = bytes(v & mask for v in range(256))
    # One-byte slices are the interpreter's shared single-byte objects, so
    # the tables hold no bytes objects of their own.
    return tuple(kept[v : v + 1] for v in range(256))


# One table per width that does not fill its last byte, keyed by bits % 8.
_TAILS = {rem: _tail_table(rem) for rem in range(1, 8)}


def node_fn(spec: HashSpec, oracle: OracleState | None = None) -> Callable[[bytes], bytes]:
    """The hashing kernel: a ``bytes -> bytes`` function for ``spec``.

    It returns ``spec.nbytes`` bytes, left-aligned, with the pad bits of the
    final byte zero -- exactly ``Digest.data``.  ``sha256`` keeps the most
    significant ``bits`` bits of the digest; ``ideal`` keeps the low ``bits``
    bits of the oracle's 64-bit value.

    An ``oracle`` must be supplied exactly when ``spec.algorithm`` is
    ``ideal``; passing one alongside ``sha256`` (or omitting it for
    ``ideal``) is an error rather than a silent fallback.
    """
    nb = spec.nbytes
    if spec.algorithm == IDEAL:
        if oracle is None:
            raise ValueError("ideal algorithm requires an OracleState")
        value64 = oracle.value64
        bitmask = (1 << spec.bits) - 1
        pad = (8 - spec.bits % 8) % 8
        return lambda x: ((value64(x) & bitmask) << pad).to_bytes(nb, "big")
    if oracle is not None:
        raise ValueError("oracle supplied but algorithm is sha256")
    sha = _sha256
    if spec.bits % 8 == 0:
        return lambda x: sha(x).digest()[:nb]
    tails = _TAILS[spec.bits % 8]
    if nb == 1:
        return lambda x: tails[sha(x).digest()[0]]
    cut = nb - 1

    def node(x: bytes) -> bytes:
        d = sha(x).digest()
        return d[:cut] + tails[d[cut]]

    return node
