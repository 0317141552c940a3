"""Pinned reference values shared across test modules.

Everything here but the last three was computed once with tools independent
of the package (standalone hashlib folds, exact rational arithmetic, 40+
digit decimal evaluation) and then frozen.  Tests compare live results
against these constants instead of re-deriving them with the code under
test.  The last three are the package's own outputs at commit ``ee8cba2``:
SHA-256s of bytes that must not change unless a change means them to.  The
benchmark's pins live in ``bench/reference.py``, not here.
"""

# SHA-256 of b"abc" -- the standard reference vector.
SHA_ABC_HEX = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"

# 4-leaf tree over blocks b"block-0".."block-3" at 256 bits, standalone fold.
FOUR_LEAF_BLOCKS = [b"block-0", b"block-1", b"block-2", b"block-3"]
FOUR_LEAF_ROOT_HEX = "925a61bb3ca2f6ab3f841f0abcca50a4fa8b6c79344472a6642cba718a637126"
# Proof for index 1: sibling leaf hash of b"block-0" (left), then the right
# subtree node (right).
FOUR_LEAF_P1_SIB0_HEX = "b8c6f33f1780d30977c5e964f62e7959102a3694f1c28ae0834ab12f98a3dcb0"
FOUR_LEAF_P1_SIB1_HEX = "19aa9d71a0890b4996b8ccf505c3fb2cb9abb9fe760f13d9a0e3447c7e651610"
# The same 4-leaf tree under the ideal oracle at seed 11, by bit width:
# standalone fold where each node is the low b bits of
# SHA-256(seed_be8 || input), left-aligned in ceil(b / 8) bytes.
FOUR_LEAF_IDEAL_SEED11_ROOT_HEX = {16: "3b9e", 13: "c3f8"}

# 3-leaf tree over b"a", b"b", b"c" at 256 bits: last leaf duplicated.
THREE_LEAF_ROOT_HEX = "d31a37ef6ac14a2db1470c4316beb5592e6afd4465022339adafda76a18ffabe"
THREE_LEAF_L1_HEX = (
    "e5a01fee14e0ed5c48714f22180f25ad8365b53f9779f79dc4a3d7e93963f94a",
    "a3e333fbee455b9a054cf05077f0f9d45b91bd13db4cd4a3681ec47455af085c",
)

# hash(b"seed") folded through hash(b"s0"), hash(b"s1"), hash(b"s2") at 256 bits.
FOLD3_ROOT_HEX = "2975c67ca7a6c6ad344136a62809227abad8799d48e3440c1066e23fdc222958"

# Random-oracle backing value for seed=5, input=b"q": low 64 bits of
# SHA-256(seed_be8 || input).
ORACLE_SEED5_Q_U64 = 9570640286106825452

# Seed of experiment 0 in cell (b=2, m=10) at master seed 0: low 64 bits of
# SHA-256(b"seed:0:2:10:0").
CELL_SEED_0_2_10_0 = 6894408645117381920

# exact probability at (10, 10) as a 40-digit decimal of the exact rational
# 13876268984046959010445509252097 / 1298074214633706907132624082305024.
EXACT_10_10_DECIMAL = "0.01068988878109915420705169904075621927310"

# SHA-256 of `merkle-falsify table` on the default grid, as CSV and with
# `--format md`.
TABLE_CSV_SHA256 = "ebea5e87b0b07a92ac92b2653048827a39a46e905340d75ba80a85ab8e51243f"
TABLE_MD_SHA256 = "75e0acfcb2b2b91c9631f2c949ca69f5264bf581fe83cfa3c8530d5f5312adf1"
# SHA-256 of the `figure` SVG of the seed-0 sim-saturating CSV: `simulate
# --bits 2,6 --path-lens 200,1000 --trials 50 --experiments 2 --seed 0`.
FIGURE_SVG_SHA256 = "437cb6c5cb927ce4ec1aba52ebf1f65a0e8723a02dc55830aebadcd8a482b722"
