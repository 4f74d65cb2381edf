"""Named random substreams derived from a single experiment seed.

Every stochastic stage (thermal noise, phase-noise paths, frame symbols)
draws from its own labeled substream, so adding or removing one consumer
never perturbs the draws seen by the others.
"""

from __future__ import annotations

import hashlib
from numbers import Integral

import numpy as np


def _require_int(value, name: str) -> None:
    """Reject a ``value`` that is not an integer; a boolean is not one here."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def substream(seed: int, *labels: str) -> np.random.Generator:
    """Return a Generator for the substream identified by ``labels``.

    The mapping (seed, labels) -> stream is stable across runs and
    independent of the order in which substreams are created. ``seed``
    must be an integer in [0, 2**64), so no two seeds share a stream.
    """
    _require_int(seed, "seed")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    words = [int(seed)]
    for label in labels:
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        words.append(int.from_bytes(digest[:8], "little"))
    return np.random.default_rng(np.random.SeedSequence(words))
