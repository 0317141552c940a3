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

Every node hash in the package goes through ``hashing``: a per-call form
and a level form that share one mask table per width.

- ``node_fn(spec, oracle=None)`` -- the per-call form.  It checks the
  backend/oracle pairing once and returns a ``bytes -> bytes`` function
  yielding the truncated digest bytes; the simulator and proof verification
  bind it once and fold raw bytes.
- ``_level_fn(spec, oracle=None)`` -- the level form, for tree building.  It
  returns an ``inputs -> bytes`` function whose result is the per-call
  outputs laid end to end, computed a whole level at a time.

These two are the only places that know truncation and the ideal-oracle bit
layout.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Callable, Iterable

SHA256 = "sha256"
IDEAL = "ideal"

_ALGORITHMS = (SHA256, IDEAL)

# The random oracle derives values from a 64-bit intermediate, so it cannot
# produce more than 64 independent bits per input.
_MAX_BITS = {SHA256: 256, IDEAL: 64}
# The largest seed: the oracle's and a simulation's seeds are 64-bit unsigned.
_MAX_SEED = (1 << 64) - 1

# The SHA-256 constructor, bound once at import for both backends.  A wrapper
# installed on ``hashlib.sha256`` before the package is imported (a call
# counter, say) therefore still sees every hash.
_sha256 = hashlib.sha256
# The low 64 bits of a 32-byte digest, as a big-endian unsigned integer.
_low64 = struct.Struct(">Q").unpack_from


def _require_int(name: str, value, lo: int, hi: int | None = None) -> None:
    """Raise ValueError unless ``value`` is an ``int`` in ``lo..hi``.

    ``hi`` None means no upper bound.  The type must be ``int`` itself: a
    bool is an int subclass, and a float such as ``1.0`` compares equal to
    an int, but neither is a count, width, index or seed.  The message is
    built only when the check fails.
    """
    if type(value) is not int or value < lo or (hi is not None and value > hi):
        bounds = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")


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
        _require_int(f"{self.algorithm} bits", self.bits, 1, _MAX_BITS[self.algorithm])

    @property
    def nbytes(self) -> int:
        return (self.bits + 7) // 8

    @property
    def last_byte_mask(self) -> int:
        """Bitmask for the final digest byte (high bits kept, pad bits zero)."""
        rem = self.bits % 8
        return 0xFF if rem == 0 else (0xFF << (8 - rem)) & 0xFF


@dataclass(frozen=True, slots=True)
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
        _require_int("digest bits", self.bits, 1)
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
        _require_int("oracle seed", seed, 0, _MAX_SEED)
        self._prefix = seed.to_bytes(8, "big")
        self._draws = 0

    def __len__(self) -> int:
        return self._draws

    def value64(self, data: bytes) -> int:
        """The 64-bit value backing every truncated width: one SHA-256 per call."""
        self._draws += 1
        return _low64(_sha256(self._prefix + data).digest(), 24)[0]


def _mask_table(rem: int) -> bytes:
    """The kept last byte of a ``bits % 8 == rem`` digest, indexed by its raw value."""
    mask = HashSpec(SHA256, rem).last_byte_mask
    return bytes(v & mask for v in range(256))


# One ``bytes.translate`` table per width that does not fill its last byte,
# keyed by bits % 8.
_MASKS = {rem: _mask_table(rem) for rem in range(1, 8)}
# The same tables cut into one-byte slices, for the per-call form.  One-byte
# slices are the interpreter's shared single-byte objects, so these hold no
# bytes objects of their own.
_TAILS = {rem: tuple(table[v : v + 1] for v in range(256)) for rem, table in _MASKS.items()}


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


def _level_fn(
    spec: HashSpec, oracle: OracleState | None = None
) -> Callable[[Iterable[bytes]], bytes]:
    """The level form of the kernel: many inputs hashed into one buffer.

    The returned function maps ``inputs`` to
    ``b"".join(node_fn(spec, oracle)(x) for x in inputs)``, built in one
    ``bytearray`` so that no per-node object outlives its append.  For
    ``sha256`` each digest is cut to ``spec.nbytes`` as it is appended, and
    the pad bits of the whole level's last-byte column are cleared at the
    end with one ``bytes.translate``; ``ideal`` appends the per-call form's
    output.  The oracle pairing is checked as in ``node_fn``.
    """
    node = node_fn(spec, oracle)
    if spec.algorithm == IDEAL:

        def ideal_level(inputs: Iterable[bytes]) -> bytes:
            buf = bytearray()
            for x in inputs:
                buf += node(x)
            return bytes(buf)

        return ideal_level
    sha = _sha256
    nb = spec.nbytes
    table = _MASKS.get(spec.bits % 8)

    def sha256_level(inputs: Iterable[bytes]) -> bytes:
        buf = bytearray()
        for x in inputs:
            buf += sha(x).digest()[:nb]
        if table is not None:
            buf[nb - 1 :: nb] = buf[nb - 1 :: nb].translate(table)
        return bytes(buf)

    return sha256_level
