"""Small shared helpers: seed derivation, canonical hashing, JSON field checks, GC pauses."""

from __future__ import annotations

import gc
import hashlib
import json
import threading
from contextlib import contextmanager
from typing import Any, Iterator


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


_JSON_KINDS = {int: "an integer", float: "a number", bool: "true or false", str: "a string",
               list: "a list"}


def json_field(value: Any, kind: type, what: str, nullable: bool = False) -> Any:
    """``value`` if its type is exactly ``kind`` (so a bool is no integer), an
    int where ``kind`` is ``float``, or ``None`` where ``nullable``; anything
    else raises ``ValueError`` naming ``what``."""
    if type(value) is kind or (kind is float and type(value) is int) or (nullable and value is None):
        return value
    null = " or null" if nullable else ""
    raise ValueError(f"{what} must be {_JSON_KINDS[kind]}{null}, got {value!r}")


@contextmanager
def gc_paused() -> Iterator[None]:
    """Hold off the cyclic garbage collector, then restore the caller's setting.

    For building and using large structures free of reference cycles (clause
    lists, solver engines): each full collection would scan every object they
    allocate and free none of them, while reference counting still frees them.
    Only the main thread (a pool worker's too) flips this process-wide switch:
    threads that paused it at once could otherwise leave it off.
    """
    paused = gc.isenabled() and threading.current_thread() is threading.main_thread()
    if paused:
        gc.disable()
    try:
        yield
    finally:
        if paused:
            gc.enable()
