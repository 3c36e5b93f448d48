"""Small shared helpers: seed derivation, canonical hashing, GC pauses."""

from __future__ import annotations

import gc
import hashlib
import json
from contextlib import contextmanager
from typing import Iterator


def derive_seed(master: int, *parts: object) -> int:
    """Derive a reproducible 63-bit seed from a master seed and a label path.

    Splitting through a hash keeps per-task seed streams independent even when
    tasks run out of order or in parallel.
    """
    payload = repr((master,) + parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big") >> 1


def canonical_json(obj: object) -> str:
    """Serialize to JSON with a stable byte representation."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@contextmanager
def gc_paused() -> Iterator[None]:
    """Hold off the cyclic garbage collector, then restore the caller's setting.

    For building and using large structures free of reference cycles (clause
    lists, solver engines): each full collection would scan every object they
    allocate and free none of them, while reference counting still frees them.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
