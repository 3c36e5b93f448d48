"""Co-channel cliques and the blocking-clique infeasibility fast path.

Any set of pairwise co-channel-conflicting stations that all refuse to
participate needs one channel each, so with ``c`` assignable channels, a
conflict clique of ``c + 1`` or more non-participants certifies infeasibility
outright — no solver call needed. The catalog of cliques is built once per
instance by randomized greedy growth; it makes no completeness claim, so the
absence of a blocking clique never proves feasibility.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Iterable, Optional

from .instance import Instance
from .instance_io import load_artifact, save_artifact
from .util import derive_seed


class CliqueError(ValueError):
    pass


def _verify_cliques(
    cliques: Iterable[frozenset[str]], adjacency: dict[str, frozenset[str]]
) -> None:
    for clique in cliques:
        members = sorted(clique)
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                if b not in adjacency.get(a, frozenset()):
                    raise CliqueError(f"{a} and {b} are not co-channel neighbors")


@dataclass(frozen=True)
class CliqueCatalog:
    """Verified co-channel cliques, largest first; greedy, not exhaustive."""

    cliques: tuple[frozenset[str], ...]
    min_size_retained: int = 2

    def __len__(self) -> int:
        return len(self.cliques)

    def largest(self) -> int:
        return max((len(c) for c in self.cliques), default=0)

    def save_jsonl(
        self,
        path: str | os.PathLike,
        instance: Instance,
        *,
        seed: Optional[int] = None,
        config_digest: Optional[str] = None,
    ) -> None:
        meta = {"min_size": self.min_size_retained}
        if seed is not None:
            meta["seed"] = seed
        records = ({"type": "clique", "members": sorted(clique)} for clique in self.cliques)
        save_artifact(path, "clique-catalog", instance, meta, records, config_digest)

    @classmethod
    def load_jsonl(cls, path: str | os.PathLike, instance: Instance) -> "CliqueCatalog":
        min_size, cliques = load_artifact(
            path, "clique-catalog", instance, "clique",
            lambda meta: int(meta.get("min_size", 2)), lambda rec: frozenset(rec["members"]),
        )
        _verify_cliques(cliques, instance.co_adjacency)
        return cls(cliques=tuple(cliques), min_size_retained=min_size)


def enumerate_cliques_greedy(
    instance: Instance,
    *,
    min_size: int = 2,
    attempts_per_vertex: int = 4,
    max_cliques: Optional[int] = None,
    seed: int = 0,
) -> CliqueCatalog:
    """Grow cliques greedily from every vertex, highest degree first.

    Each attempt grows a clique by repeatedly adding the candidate that keeps
    the most remaining candidates alive, breaking ties randomly; different
    attempts explore different tie-breaks. Every emitted set is re-verified
    pairwise connected, deduplicated, and filtered by ``min_size``.
    """
    if min_size < 1:
        raise ValueError("min_size must be at least 1")
    if attempts_per_vertex < 1:
        raise ValueError("attempts_per_vertex must be at least 1")
    adjacency = instance.co_adjacency
    rng = random.Random(derive_seed(seed, "clique-catalog"))
    order = sorted(adjacency, key=lambda v: (-len(adjacency[v]), v))
    found: set[frozenset[str]] = set()
    for v in order:
        if max_cliques is not None and len(found) >= max_cliques:
            break
        for _ in range(attempts_per_vertex):
            clique = [v]
            candidates = set(adjacency[v])
            while candidates:
                scored = [(len(candidates & adjacency[u]), u) for u in sorted(candidates)]
                best_score = max(score for score, _ in scored)
                pool = [u for score, u in scored if score == best_score]
                u = rng.choice(pool)
                clique.append(u)
                candidates &= adjacency[u]
            if len(clique) >= min_size:
                found.add(frozenset(clique))

    _verify_cliques(found, adjacency)
    ordered = tuple(sorted(found, key=lambda c: (-len(c), tuple(sorted(c)))))
    return CliqueCatalog(cliques=ordered, min_size_retained=min_size)


@dataclass(frozen=True)
class BlockingReport:
    """Outcome of the clique fast path for one participation draw.

    ``blocked`` certifies infeasibility; the converse does not hold, so an
    unblocked draw is only "feasibility unknown". ``z`` is the size of the
    union of all blocking cliques found — the degree of infeasibility.
    """

    blocked: bool
    z: Optional[int] = None
    blocking_sets: tuple[frozenset[str], ...] = ()

    @property
    def clique_count(self) -> int:
        return len(self.blocking_sets)


def blocking_check(
    catalog: CliqueCatalog, non_participants: frozenset[str], channel_count: int
) -> BlockingReport:
    """Scan the catalog for cliques whose non-participants overflow the band.

    A catalog clique restricted to non-participants is still a clique; when
    the restriction has more members than ``channel_count``, the number of
    assignable channels, those stations cannot all be repacked.
    """
    threshold = channel_count + 1
    blocking: list[frozenset[str]] = []
    union: set[str] = set()
    for clique in catalog.cliques:
        if len(clique) < threshold:
            continue
        hit = clique & non_participants
        if len(hit) >= threshold:
            blocking.append(hit)
            union |= hit
    if not blocking:
        return BlockingReport(blocked=False)
    return BlockingReport(blocked=True, z=len(union), blocking_sets=tuple(blocking))
