"""Seed handling shared by every sampler in the package."""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ._checks import count


def as_seedseq(seed) -> np.random.SeedSequence:
    """The SeedSequence behind an integer, an entropy sequence or a SeedSequence.

    Integers (numpy ones included) are reduced mod 2**64, so negative
    seeds are accepted.  Anything else, bools, floats and strings among
    them, or a sequence holding such an item, is a ``ValueError`` naming
    ``seed``.
    """
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, (str, bytes)) or not isinstance(seed, Iterable):
        return np.random.SeedSequence(count(seed, "seed") % 2**64)
    for item in seed:
        count(item, "seed")
    return np.random.SeedSequence(seed)


def spawn(seed, n: int) -> list:
    """``n`` child SeedSequences of ``seed``, leaving a passed SeedSequence as it was.

    ``SeedSequence.spawn`` advances the parent's child counter, so two
    runs from one SeedSequence object would draw different children.
    Spawning from a copy that starts at the caller's counter gives the
    children the caller's own next spawn would give, every time.
    """
    ss = as_seedseq(seed)
    return np.random.SeedSequence(
        ss.entropy,
        spawn_key=ss.spawn_key,
        pool_size=ss.pool_size,
        n_children_spawned=ss.n_children_spawned,
    ).spawn(n)
