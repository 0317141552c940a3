"""Reference values and independent re-computations for the output checks.

Nothing here calls into ``merkle_falsify``: the pinned values were computed
once, apart from the package, and the helpers below redo the arithmetic with
``hashlib``, ``fractions`` and ``decimal`` only.  Hashing goes through
``hashlib.new`` so that the counting pass, which wraps ``hashlib.sha256``,
never counts the benchmark's own hashes.
"""

from __future__ import annotations

import hashlib
import math
from decimal import Decimal, localcontext
from fractions import Fraction

# |approx - exact| for the 25 published cells (b in 2..10 step 2,
# m in {10, 50, 100, 500, 1000}), at the ~15 significant digits they were
# published with.  Matched at 1e-10 relative error.
PUBLISHED_DIFFS = {
    (2, 10): "0.00710805789680180",
    (2, 50): "0.0287983054922386",
    (2, 100): "0.0288007830608296",
    (2, 500): "0.0288007830714048",
    (2, 1000): "0.0288007830714048",
    (4, 10): "0.00923681979928365",
    (4, 50): "0.00216253840990199",
    (4, 100): "0.00157561166419240",
    (4, 500): "0.00191306281345960",
    (4, 1000): "0.00191306281347581",
    (6, 10): "0.00102043490152098",
    (6, 50): "0.00270533021104558",
    (6, 100): "0.00243368381652498",
    (6, 500): "0.0000975622497489947",
    (6, 1000): "0.000121418280353613",
    (8, 10): "0.0000729807479756192",
    (8, 50): "0.000311967273480596",
    (8, 100): "0.000512896153700371",
    (8, 500): "0.000532762483821725",
    (8, 1000): "0.000145220188735085",
    (10, 10): "0.00000471585051471136",
    (10, 50): "0.0000226752874874780",
    (10, 100): "0.0000431877859932567",
    (10, 500): "0.000146063524593065",
    (10, 1000): "0.000179180050212557",
}
PUBLISHED_REL_TOL = Decimal("1e-10")

# The seed the pinned outputs below belong to (run.py's default --seed).
DEFAULT_SEED = 0

# SHA-256 of the simulate CSV written for DEFAULT_SEED: the byte-identical
# CSV invariant.  They change only if the workload sizes in workloads.py
# change, or if the program stops computing the same cells.
PINNED_CSV_SHA256 = {
    "sim-saturating": "46061033c5236582ee723a5679b9b1e0105dd91cce2a5b051285eb8f565eb884",
    "sim-sparse": "e615d3dab5b74908837e0fd800fbb69931085c774ebb6c847d48ab7ee121f394",
}

# Roots of the tree-verify trees for DEFAULT_SEED, per width, computed with a
# standalone hashlib fold over the same seeded blocks.
PINNED_ROOTS = {
    256: "a6395e90d26cf64ee966c680c52b884176ec03fcc9d6a2760f9bcf95f30263a4",
    12: "9800",
}


def sha256_truncated(data: bytes, bits: int) -> bytes:
    """Most significant ``bits`` bits of SHA-256(data), pad bits zero."""
    full = hashlib.new("sha256", data).digest()
    nbytes = (bits + 7) // 8
    out = bytearray(full[:nbytes])
    rem = bits % 8
    if rem:
        out[-1] &= (0xFF << (8 - rem)) & 0xFF
    return bytes(out)


def fold_matches(block: bytes, steps, root: bytes, bits: int) -> bool:
    """Whether ``block`` folds to ``root`` through ``steps``.

    ``steps`` is a sequence of ``(sibling_bytes, sibling_is_left)``.
    """
    cur = sha256_truncated(block, bits)
    for sibling, sibling_is_left in steps:
        cur = sha256_truncated(sibling + cur if sibling_is_left else cur + sibling, bits)
    return cur == root


def closed_form_rational(bits: int, path_len: int) -> Fraction:
    """1 - (1 - 2^-b)^(m+1) as an exact rational."""
    return 1 - Fraction((1 << bits) - 1, 1 << bits) ** (path_len + 1)


def saturated(bits: int, path_len: int) -> bool:
    """True when P(b, m) > 1 - 1e-9, i.e. every trial should match."""
    return (path_len + 1) * math.log1p(-(2.0**-bits)) < math.log(1e-9)


def relative_error(value: str, reference: str) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 40
        ref = Decimal(reference)
        return abs(Decimal(value) / ref - 1)
