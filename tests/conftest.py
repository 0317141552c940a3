import sys
from pathlib import Path

# The benchmark's workloads and pinned reference values, importable as
# ``workloads`` and ``reference`` by every test module.  Standard library
# only: the Merkle and hashing tests load this without numpy or mpmath.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
