"""Truncated hashing primitives.

Two hash backends share one interface:

- ``sha256``: SHA-256 truncated to the *most significant* ``bits`` bits
  (1..256).
- ``ideal``: a seeded random oracle returning uniform ``bits``-bit values
  (1..64).  The seed is the spec's own ``seed`` field (0..2^64 - 1; a
  ``sha256`` spec's seed is 0).  Each query is one SHA-256 of
  ``seed || input``, so a repeated query returns the same digest and nothing
  is cached: every value is reproducible from the spec alone.

Every ``bits``-bit value in the package -- a kernel output, a stored tree
node, a proof sibling, a :class:`Digest`'s data -- is ``ceil(bits / 8)``
bytes, left-aligned, and its pad bits, the low ``(8 - bits % 8) % 8`` bits
of the last byte, are zero.  That pad rule is stated once, as
``_PAD_MASKS``; the kernels' masks and shifts and ``HashSpec.last_byte_mask``
derive from it, and a :class:`Digest` and a ``MerkleProof`` sibling accept
exactly the same values (``bytes`` itself, no subclass), refusing the rest
in the same words.

Every node hash in the package goes through ``hashing``: a per-call form
and a level form that share one mask table per width.

- ``node_fn(spec)`` -- the per-call form.  It returns a ``bytes -> bytes``
  function yielding the truncated digest bytes; the simulator and proof
  verification bind it once and fold raw bytes.
- ``_level_fn(spec)`` -- the level form, for tree building.  It
  returns an ``inputs -> bytes`` function whose result is the per-call
  outputs laid end to end, computed a whole level at a time and written
  once, into the buffer it is returned in.

These two are the only places that know truncation and the ideal-oracle bit
layout.
"""

from __future__ import annotations

import hashlib
import io
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


# The pad rule: the last byte of a b-bit value keeps b % 8 high bits, and its
# low (8 - b % 8) % 8 bits, the pad bits, are zero.  These are the pad bits'
# masks, indexed by b % 8; every other form of the rule is derived from them.
_PAD_MASKS = tuple((1 << -rem % 8) - 1 for rem in range(8))


def _width_error(name: str, bits: int, data) -> ValueError:
    """The error for a ``bits``-bit value ``data`` that is not ``ceil(bits / 8)``
    bytes (``bytes`` itself, no subclass) with its pad bits zero."""
    return ValueError(
        f"{name} must be {(bits + 7) // 8} bytes with the pad bits below "
        f"{bits} bits zero, got {data!r}"
    )


@dataclass(frozen=True)
class HashSpec:
    """Hash configuration: which backend, how many output bits to keep, and
    the ideal oracle's seed (0..2^64 - 1; always 0 for ``sha256``)."""

    algorithm: str = SHA256
    bits: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; expected one of {_ALGORITHMS}"
            )
        _require_int(f"{self.algorithm} bits", self.bits, 1, _MAX_BITS[self.algorithm])
        max_seed = _MAX_SEED if self.algorithm == IDEAL else 0
        _require_int(f"{self.algorithm} seed", self.seed, 0, max_seed)

    @property
    def nbytes(self) -> int:
        return (self.bits + 7) // 8

    @property
    def last_byte_mask(self) -> int:
        """Bitmask for the final digest byte (high bits kept, pad bits zero)."""
        return 0xFF ^ _PAD_MASKS[self.bits % 8]


@dataclass(frozen=True, slots=True)
class Digest:
    """A truncated digest: left-aligned bytes plus the true bit length.

    Two digests are equal iff both the bit length and the bytes agree, so a
    4-bit ``0xb0`` never compares equal to an 8-bit ``0xb0``.
    """

    data: bytes
    bits: int

    def __post_init__(self) -> None:
        data, bits = self.data, self.bits
        _require_int("digest bits", bits, 1)
        # The same condition as a MerkleProof sibling's, written out here
        # because a helper call would cost more than the check.
        pad = _PAD_MASKS[bits % 8]
        if type(data) is not bytes or len(data) != (bits + 7) // 8 or pad and data[-1] & pad:
            raise _width_error("digest data", bits, data)

    def hex(self) -> str:
        return self.data.hex()

    @classmethod
    def from_hex(cls, text: str, bits: int) -> "Digest":
        """The digest that ``text`` spells in exactly ``2 * ceil(bits / 8)``
        hex digits, either case."""
        _require_int("digest bits", bits, 1)
        return cls(_hex_bytes(text, bits), bits)


def _hex_bytes(text: str, bits: int) -> bytes:
    """The ``ceil(bits / 8)`` bytes spelled by ``text``, which must be exactly
    twice as many hex digits, in either case.

    ``bytes.fromhex`` alone also skips ASCII whitespace, so its result is
    accepted only if it has one byte per two characters of ``text``.
    """
    nb = (bits + 7) // 8
    try:
        raw = bytes.fromhex(text)
    except ValueError:
        raw = b""
    if len(text) != 2 * nb or len(raw) != nb:
        raise ValueError(
            f"invalid hex digest {text!r}: {bits} bits take exactly {2 * nb} hex digits"
        )
    return raw


class OracleState:
    """Random oracle behind an ``ideal`` spec, reproducible from its seed.

    Each query draws its 64-bit value by hashing ``seed || input`` with
    full-width SHA-256 and keeping the low 64 bits.  Nothing is cached: a
    repeated query hashes again and gets the same value, and the state's size
    stays constant however many inputs are queried.  ``node_fn`` then keeps the
    low ``bits`` bits of that value, so one seed gives consistent values at
    every width up to 64.  ``len()`` is the number of values drawn so far,
    one per query.  ``HashSpec`` checks the seed; ``node_fn`` builds one state
    per kernel it returns.

    Not safe for concurrent mutation -- give each worker its own instance.
    """

    def __init__(self, seed: int) -> None:
        self._prefix = seed.to_bytes(8, "big")
        self._draws = 0

    def __len__(self) -> int:
        return self._draws

    def value64(self, data: bytes) -> int:
        """The 64-bit value backing every truncated width: one SHA-256 per call."""
        self._draws += 1
        return _low64(_sha256(self._prefix + data).digest(), 24)[0]


# One ``bytes.translate`` table per width that does not fill its last byte,
# keyed by bits % 8: the kept last byte, indexed by its raw value.
_MASKS = {rem: bytes(v & ~pad for v in range(256)) for rem, pad in enumerate(_PAD_MASKS) if pad}
# The same tables cut into one-byte slices, for the per-call form.  One-byte
# slices are the interpreter's shared single-byte objects, so these hold no
# bytes objects of their own.
_TAILS = {rem: tuple(table[v : v + 1] for v in range(256)) for rem, table in _MASKS.items()}
# The level form masks the last-byte column this many nodes at a time, so
# the column copies it makes stay a few hundred bytes, not a level's worth.
_MASK_NODES = 256


def node_fn(spec: HashSpec) -> Callable[[bytes], bytes]:
    """The hashing kernel: a ``bytes -> bytes`` function for ``spec``.

    It returns ``spec.nbytes`` bytes, left-aligned, with the pad bits of the
    final byte zero -- exactly ``Digest.data``.  ``sha256`` keeps the most
    significant ``bits`` bits of the digest; ``ideal`` keeps the low ``bits``
    bits of the 64-bit value of an ``OracleState`` seeded with ``spec.seed``
    and made when ``node_fn`` is called, so every query goes through
    ``OracleState.value64``.
    """
    nb = spec.nbytes
    if spec.algorithm == IDEAL:
        value64 = OracleState(spec.seed).value64
        bitmask = (1 << spec.bits) - 1
        pad = _PAD_MASKS[spec.bits % 8].bit_length()
        return lambda x: ((value64(x) & bitmask) << pad).to_bytes(nb, "big")
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


def _level_fn(spec: HashSpec) -> Callable[[Iterable[bytes]], bytes]:
    """The level form of the kernel: many inputs hashed into one buffer.

    The returned function maps ``inputs`` to
    ``b"".join(node_fn(spec)(x) for x in inputs)``.  Each node is
    written once, into an ``io.BytesIO`` whose ``getvalue()`` (in CPython)
    hands its buffer over as the returned ``bytes``, so the level is never
    copied and no per-node object outlives its write.  For ``sha256`` each
    digest is cut to ``spec.nbytes`` as it is written; at widths with pad
    bits the last-byte column is then masked in place, ``_MASK_NODES`` nodes
    at a time, through a view that is released before ``getvalue()`` (a live
    view would make it copy); two copies of one such slice of the column
    exist while it is masked, whatever the level's size.  ``ideal`` writes
    the per-call form's output.
    """
    node = node_fn(spec)
    if spec.algorithm == IDEAL:

        def ideal_level(inputs: Iterable[bytes]) -> bytes:
            buf = io.BytesIO()
            write = buf.write
            for x in inputs:
                write(node(x))
            return buf.getvalue()

        return ideal_level
    sha = _sha256
    nb = spec.nbytes
    table = _MASKS.get(spec.bits % 8)
    step = _MASK_NODES * nb

    def sha256_level(inputs: Iterable[bytes]) -> bytes:
        buf = io.BytesIO()
        write = buf.write
        for x in inputs:
            write(sha(x).digest()[:nb])
        if table is not None:
            with buf.getbuffer() as view:
                for a in range(nb - 1, len(view), step):
                    b = a + step
                    view[a:b:nb] = view[a:b:nb].tobytes().translate(table)
        return buf.getvalue()

    return sha256_level
