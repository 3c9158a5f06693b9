"""Seeded, replayable random streams.

Every stochastic step in the package draws from a counter-based Philox
generator keyed by (seed, purpose, index).  Streams for different purposes
or indices are statistically independent, so a seeded run replays
bit-exactly and no draw shifts the numbers of another.  The genericity
Monte-Carlo reads all its trials from one stream, index 0, in trial order;
the dictionary and coupling perturbations read indices 0 and 1 of theirs.
"""

from __future__ import annotations

# Imported eagerly: numpy loads its random module on first attribute
# access, which would otherwise land inside the first seeded run.
from numpy.random import Generator, Philox, SeedSequence

# Stable purpose tags.  Values are part of the on-disk reproducibility
# contract: changing them changes every seeded experiment.
PURPOSE_GENERICITY = 1
PURPOSE_PERTURBATION = 2

__all__ = ["stream", "PURPOSE_GENERICITY", "PURPOSE_PERTURBATION"]


def stream(seed: int, purpose: int, index: int = 0) -> Generator:
    """Return the generator for one (seed, purpose, index) cell."""
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    seq = SeedSequence((int(seed), int(purpose), int(index)))
    return Generator(Philox(seq))
