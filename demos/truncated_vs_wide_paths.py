"""
What the closed form actually models
====================================

The falsification probability 1 - (1 - 2^-b)^(m+1) treats every fold step
as an independent 2^-b collision opportunity.  That holds when each path
element carries fresh entropy -- the default "wide" mode draws 32-byte
siblings, so even though nodes are truncated to b bits, every level's fold
input is new.

In a fully truncated tree the siblings themselves are b-bit values.  At
small b that leaves only 2^b distinct sibling values and 2^b running-node
values: the same (node, sibling) fold input recurs across levels, the hash
is evaluated once and reused, and levels stop being independent.  The
"truncated" sibling mode reproduces that regime.  The dependence can pull
the match rate either way: below the closed form at b=2, m=10 here, above
it at b=3, m=10 with SHA-256 (0.8250 against 0.7698 over 40 000 trials at
seed 0).  An exact reference for this mode is open: ROADMAP.md item 5, a
Markov chain over the fold inputs.
"""

from merkle_falsify import ExperimentConfig, run_grid


def compare(bits: int, **common) -> None:
    """One run_grid call over both sibling modes at b = bits, m = 10."""
    configs = [
        ExperimentConfig(
            bits=bits,
            path_len=10,
            trials_per_experiment=1000,
            num_experiments=20,
            sibling_mode=mode,
            master_seed=7,
            **common,
        )
        for mode in ("wide", "truncated")
    ]
    for cell in run_grid(configs):
        print(
            f"b={bits}  m=10  {cell.config.sibling_mode:9s}: empirical {cell.empirical_p:.4f}"
            f"  closed form {cell.exact_p:.4f}  z = {cell.z_score:+8.1f}"
        )


# b=2, m=10, ideal oracle: only 4 distinct sibling values exist, so an
# 11-step path almost surely repeats fold inputs many times over.
compare(2, oracle_kind="ideal")

print()
print("wide matches the closed form; truncated misses it by many standard")
print("errors -- repeated fold inputs make levels dependent, which pulls the")
print("rate away from the closed form, here below it, at other cells above it.")
print()

# The dependence fades as b grows: at b=8 there are 256 sibling values,
# repeats along an 11-step path are rare, and both modes agree.
compare(8)
