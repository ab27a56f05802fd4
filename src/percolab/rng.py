"""Seeding conventions.

All randomness in percolab flows through numpy's PCG64 bit generator seeded
via SeedSequence, through one entry point:

  derived(seed, *indices)    -> an independent stream keyed by (seed, *indices)

derived(seed) is the root stream of a 64-bit seed: SeedSequence((seed,))
holds the same entropy words as SeedSequence(seed). Derived streams are used
wherever work is split into independently seeded units (per-trial subsets,
per-seed percolation runs, perturbation passes) so results do not depend on
execution order. Any external re-implementation that follows the same
convention reproduces every draw bit-for-bit.
"""

import numpy as np


def derived(seed, *indices):
    """Independent stream keyed by (seed, *indices), order-insensitive use."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, *indices))))


def uniforms(seed, n):
    """First n uniforms in [0, 1) from the root stream derived(seed)."""
    return derived(seed).random(n)
