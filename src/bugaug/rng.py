"""Keyed random-stream derivation.

Every randomized step draws from a stream derived from the master seed plus a
structural key (stage name, bug id, ordinal, attempt, ...), so results do not
depend on iteration or scheduling order.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(master_seed: int, *key: object) -> int:
    """Map (master seed, key parts) to a stable 64-bit stream seed."""
    data = "\x1f".join(map(str, (master_seed, *key))).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def derive_rng(master_seed: int, *key: object) -> random.Random:
    return random.Random(derive_seed(master_seed, *key))
