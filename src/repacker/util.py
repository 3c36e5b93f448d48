"""Small shared helpers: seed derivation, canonical hashing, JSON field checks, GC pauses."""

from __future__ import annotations

import gc
import hashlib
import json
import threading
from contextlib import contextmanager
from typing import Any, Collection, Iterator


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
               list: "a list", dict: "an object", list[int]: "a list of integers",
               list[str]: "a list of strings"}


def json_field(
    value: Any, kind: Any, what: str, nullable: bool = False, one_of: Collection = ()
) -> Any:
    """``value`` if its type is exactly ``kind`` (so a bool is no integer), an
    int where ``kind`` is ``float``, a list of exactly ``T`` items where it is
    ``list[T]``, or ``None`` where ``nullable``; with ``one_of``, only its values.
    Anything else raises ``ValueError`` naming ``what`` and the value as JSON spells it."""
    item = getattr(kind, "__args__", (None,))[0]  # T of a list[T] kind
    if (nullable and value is None) or (
        (type(value) is getattr(kind, "__origin__", kind) or (kind is float and type(value) is int))
        and (item is None or all(type(x) is item for x in value)) and (not one_of or value in one_of)
    ):
        return value
    expected = f"one of {json.dumps(list(one_of))}" if one_of else _JSON_KINDS[kind]
    null = " or null" if nullable else ""
    raise ValueError(f"{what} must be {expected}{null}, got {json.dumps(value, default=repr)}")


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
