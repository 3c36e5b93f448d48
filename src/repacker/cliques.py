"""Co-channel cliques and the blocking-clique infeasibility fast path.

Any set of pairwise co-channel-conflicting stations that all refuse to
participate needs one channel each, so with ``c`` assignable channels, a
conflict clique of ``c + 1`` or more non-participants certifies infeasibility
outright — no solver call needed. The catalog of cliques is built once per
instance by randomized greedy growth; it makes no completeness claim, so the
absence of a blocking clique never proves feasibility. The same catalog
gives the minimum searches sound lower bounds: :func:`clearing_lower_bound`
and :func:`dma_lower_bound`.

Catalog construction and verification work on the instance's station index
(a station's position in the id-sorted ``station_ids``) with each station's
co-channel neighbours as an int bitmask, ``Instance.co_masks``; ascending
bit order is id order. Ids stay at every edge: catalogs hold frozensets of
station ids, and catalog files and :func:`blocking_check` see only ids.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Iterable, Optional

from .instance import Instance
from .instance_io import load_artifact, save_artifact
from .util import derive_seed, json_field


class CliqueError(ValueError):
    pass


def _bits(mask: int) -> list[int]:
    """The set bits of ``mask`` in ascending order: station indices in id order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _verify_cliques(cliques: Iterable[int], instance: Instance) -> None:
    """Raise :class:`CliqueError` naming the first non-adjacent pair, in id
    order, of any clique given as a station-index mask."""
    adj, ids = instance.co_masks, instance.station_ids
    for clique in cliques:
        for a in _bits(clique):
            clique ^= 1 << a  # leaves the members after a
            stray = clique & ~adj[a]
            if stray:
                b = (stray & -stray).bit_length() - 1
                raise CliqueError(f"{ids[a]} and {ids[b]} are not co-channel neighbors")


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
        index = instance.station_index

        def meta(rec: dict) -> int:
            min_size = json_field(rec["min_size"], int, "min_size")
            if min_size < 1:
                raise ValueError(f"min_size must be at least 1, got {min_size}")
            return min_size

        def clique(min_size: int, rec: dict) -> frozenset[str]:
            members = frozenset(json_field(rec["members"], list[str], "members"))
            unknown = members.difference(index)
            if unknown:
                raise ValueError(f"unknown station {min(unknown)!r}")
            if len(members) < min_size:
                raise ValueError(f"a clique of {len(members)} is below min_size {min_size}")
            return members

        min_size, cliques = load_artifact(
            path, "clique-catalog", instance, "clique", meta, clique, key=lambda members: members
        )
        _verify_cliques((sum(1 << index[sid] for sid in c) for c in cliques), instance)
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
    if max_cliques is not None and max_cliques < 0:
        raise ValueError("max_cliques must be non-negative")
    adj = instance.co_masks
    rng = random.Random(derive_seed(seed, "clique-catalog"))
    order = sorted(range(len(adj)), key=lambda v: (-adj[v].bit_count(), v))
    found: set[int] = set()
    # A candidate set fixes its best-scoring pool, and attempts keep reaching
    # the same sets (every attempt from a vertex starts from one), so each
    # pool is scored once per call.
    pools: dict[int, list[int]] = {}
    for v in order:
        if max_cliques is not None and len(found) >= max_cliques:
            break
        for _ in range(attempts_per_vertex):
            clique = 1 << v
            candidates = adj[v]
            while candidates:
                pool = pools.get(candidates)
                if pool is None:
                    # Ascending bits are ascending ids, so the pool and the
                    # draw from it are those of an id-sorted candidate walk.
                    best_score, pool = -1, []
                    for u in _bits(candidates):
                        score = (candidates & adj[u]).bit_count()
                        if score > best_score:
                            best_score, pool = score, [u]
                        elif score == best_score:
                            pool.append(u)
                    pools[candidates] = pool
                u = rng.choice(pool)
                clique |= 1 << u
                candidates &= adj[u]
            if clique.bit_count() >= min_size:
                found.add(clique)

    _verify_cliques(found, instance)
    ids = instance.station_ids
    cliques = (frozenset(ids[i] for i in _bits(mask)) for mask in found)
    ordered = tuple(sorted(cliques, key=lambda c: (-len(c), tuple(sorted(c)))))
    return CliqueCatalog(cliques=ordered, min_size_retained=min_size)


def default_catalog(instance: Instance, seed: int) -> CliqueCatalog:
    """The catalog that the minimum searches and Monte Carlo build from their master seed."""
    return enumerate_cliques_greedy(instance, seed=derive_seed(seed, "catalog"))


def clearing_lower_bound(
    catalog: CliqueCatalog, channel_count: int, within: Optional[frozenset[str]] = None
) -> int:
    """Clearings that every repack into ``channel_count`` channels needs.

    A co-channel clique ``K`` keeps at most ``channel_count`` members on air,
    so at least ``|K| - channel_count`` of them are cleared, and
    station-disjoint cliques add up. The packing is greedy, largest clique
    first: each clique gives up the stations earlier ones took (what remains
    is still a clique) and counts only if it still exceeds the band. With
    ``within``, cliques are cut down to those stations first, which bounds the
    clearings inside that set.
    """
    cliques = catalog.cliques if within is None else [k & within for k in catalog.cliques]
    total, used = 0, set()
    for clique in sorted(cliques, key=len, reverse=True):
        rest = clique - used
        if len(rest) > channel_count:
            total += len(rest) - channel_count
            used |= rest
    return total


def dma_lower_bound(catalog: CliqueCatalog, channel_count: int, instance: Instance) -> int:
    """DMAs in which every repack into ``channel_count`` channels clears a station.

    A clique larger than the band clears a member, so some DMA among its
    members' DMAs has a clearing; cliques whose DMA sets are pairwise
    disjoint name that many distinct DMAs. The packing is greedy, fewest
    DMAs first.
    """
    by_id = instance.by_id
    dma_sets = [
        {by_id[sid].dma_id for sid in k} for k in catalog.cliques if len(k) > channel_count
    ]
    count, used = 0, set()
    for dmas in sorted(dma_sets, key=len):
        if used.isdisjoint(dmas):
            count += 1
            used |= dmas
    return count


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
