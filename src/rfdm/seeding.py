"""Deterministic named sub-streams derived from one master seed.

All randomness in the pipeline flows from a single integer seed through
`substream`, so any stage can be re-run in isolation and reproduce the
exact bytes of a full run. Stream names are hashed with SHA-256, which is
stable across platforms and Python versions (unlike the builtin `hash`).
"""

import functools
import hashlib

import numpy as np


@functools.lru_cache(maxsize=None)
def name_key(name: str) -> int:
    """The 64-bit integer of a name: the first 8 bytes of its SHA-256,
    little-endian."""
    return int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:8], "little")


def substream(master_seed: int, name: str, *indices: int) -> np.random.Generator:
    """Return a Generator for the (name, *indices) slot under master_seed."""
    ss = np.random.SeedSequence([int(master_seed), name_key(name), *[int(i) for i in indices]])
    return np.random.default_rng(ss)


def child_seed(master_seed: int, name: str, *indices: int) -> int:
    """A derived 63-bit integer seed, e.g. for recording in manifests."""
    ss = np.random.SeedSequence([int(master_seed), name_key(name), *[int(i) for i in indices]])
    return int(ss.generate_state(1, np.uint64)[0] >> 1)
