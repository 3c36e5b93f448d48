"""Loading and saving instances.

The on-disk format is a directory of four CSV files:

* ``stations.csv``      — ``id,dma_id,affiliation,revenue``
* ``interference.csv``  — ``kind,station_a,station_b``
* ``domain.csv``        — ``station,channel``
* ``dmas.csv``          — ``dma_id,name``

Blank affiliation means independent, blank revenue means 0. The channel
universe travels in an optional ``universe.json`` next to the CSVs and
defaults to the UHF band 14..51 with channel 37 reserved.

An instance's digest is the hash of its canonical JSON form. Derived
artifacts (sample sets, trial sets, clique catalogs) are JSON-lines files
whose first line is a meta record naming the artifact's kind and the digest
of its instance; :func:`save_artifact` writes them and :func:`load_artifact`
checks both.
"""

from __future__ import annotations

import csv
import json
import os
from pathlib import Path
from typing import Iterable, Optional

from .instance import (
    US_UNIVERSE,
    Affiliation,
    ChannelUniverse,
    ConstraintKind,
    DomainConstraint,
    Instance,
    InstanceError,
    InterferenceConstraint,
    Station,
)
from .util import canonical_json, sha256_hex

STATIONS_FILE = "stations.csv"
INTERFERENCE_FILE = "interference.csv"
DOMAIN_FILE = "domain.csv"
DMAS_FILE = "dmas.csv"
UNIVERSE_FILE = "universe.json"


def _fail(path: Path, row: int, msg: str) -> "InstanceError":
    return InstanceError(f"{path.name}, row {row}: {msg}")


def _read_rows(path: Path, required: tuple[str, ...]) -> list[tuple[int, dict[str, str]]]:
    if not path.is_file():
        raise InstanceError(f"missing input file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise InstanceError(f"{path.name}: empty file, header required")
        missing = [c for c in required if c not in reader.fieldnames]
        if missing:
            raise InstanceError(f"{path.name}: missing columns {missing}")
        rows = []
        for i, row in enumerate(reader, start=2):
            if any((row.get(c) or "").strip() for c in required):
                rows.append((i, row))
        return rows


def load_instance(directory: str | os.PathLike) -> Instance:
    """Load and validate an instance from its CSV directory.

    Duplicate constraints are collapsed and co-channel pairs canonicalized,
    so reloading a saved instance yields an identical canonical form.
    """
    base = Path(directory)
    universe = US_UNIVERSE
    upath = base / UNIVERSE_FILE
    if upath.is_file():
        with open(upath, encoding="utf-8") as fh:
            udata = json.load(fh)
        universe = ChannelUniverse(
            channels=tuple(int(c) for c in udata["channels"]),
            forbidden=frozenset(int(c) for c in udata.get("forbidden", ())),
        )

    dmas: dict[int, str] = {}
    for rownum, row in _read_rows(base / DMAS_FILE, ("dma_id", "name")):
        try:
            dma_id = int(row["dma_id"])
        except ValueError:
            raise _fail(base / DMAS_FILE, rownum, f"bad dma_id {row['dma_id']!r}") from None
        if dma_id in dmas:
            raise _fail(base / DMAS_FILE, rownum, f"duplicate DMA id {dma_id}")
        dmas[dma_id] = row["name"].strip()

    stations: list[Station] = []
    seen_ids: set[str] = set()
    for rownum, row in _read_rows(base / STATIONS_FILE, ("id", "dma_id")):
        sid = row["id"].strip()
        if not sid:
            raise _fail(base / STATIONS_FILE, rownum, "empty station id")
        if sid in seen_ids:
            raise _fail(base / STATIONS_FILE, rownum, f"duplicate station id {sid!r}")
        seen_ids.add(sid)
        try:
            dma_id = int(row["dma_id"])
        except ValueError:
            raise _fail(base / STATIONS_FILE, rownum, f"bad dma_id {row['dma_id']!r}") from None
        aff_text = (row.get("affiliation") or "").strip()
        try:
            affiliation = Affiliation(aff_text) if aff_text else Affiliation.NONE
        except ValueError:
            raise _fail(base / STATIONS_FILE, rownum, f"unknown affiliation {aff_text!r}") from None
        rev_text = (row.get("revenue") or "").strip()
        try:
            revenue = float(rev_text) if rev_text else 0.0
        except ValueError:
            raise _fail(base / STATIONS_FILE, rownum, f"bad revenue {rev_text!r}") from None
        try:
            stations.append(Station(id=sid, dma_id=dma_id, affiliation=affiliation, revenue=revenue))
        except InstanceError as exc:
            raise _fail(base / STATIONS_FILE, rownum, str(exc)) from None

    interference: set[InterferenceConstraint] = set()
    for rownum, row in _read_rows(base / INTERFERENCE_FILE, ("kind", "station_a", "station_b")):
        kind_text = row["kind"].strip()
        try:
            kind = ConstraintKind(kind_text)
        except ValueError:
            raise _fail(base / INTERFERENCE_FILE, rownum, f"unknown kind {kind_text!r}") from None
        a, b = row["station_a"].strip(), row["station_b"].strip()
        for end in (a, b):
            if end not in seen_ids:
                raise _fail(base / INTERFERENCE_FILE, rownum, f"unknown station {end!r}")
        try:
            interference.add(InterferenceConstraint(kind=kind, a=a, b=b))
        except InstanceError as exc:
            raise _fail(base / INTERFERENCE_FILE, rownum, str(exc)) from None

    domain: set[DomainConstraint] = set()
    dpath = base / DOMAIN_FILE
    if dpath.is_file():
        for rownum, row in _read_rows(dpath, ("station", "channel")):
            sid = row["station"].strip()
            if sid not in seen_ids:
                raise _fail(dpath, rownum, f"unknown station {sid!r}")
            try:
                channel = int(row["channel"])
            except ValueError:
                raise _fail(dpath, rownum, f"bad channel {row['channel']!r}") from None
            domain.add(DomainConstraint(station=sid, channel=channel))

    return Instance(
        stations=tuple(stations),
        universe=universe,
        interference=frozenset(interference),
        domain=frozenset(domain),
        dmas=dmas,
    )


def save_instance(instance: Instance, directory: str | os.PathLike) -> None:
    """Write the instance as its canonical CSV directory."""
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    with open(base / STATIONS_FILE, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "dma_id", "affiliation", "revenue"])
        for s in instance.stations:
            aff = "" if s.affiliation is Affiliation.NONE else s.affiliation.value
            rev = "" if s.revenue == 0 else repr(s.revenue)
            w.writerow([s.id, s.dma_id, aff, rev])
    with open(base / INTERFERENCE_FILE, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["kind", "station_a", "station_b"])
        for ic in instance.sorted_interference:
            w.writerow([ic.kind.value, ic.a, ic.b])
    with open(base / DOMAIN_FILE, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["station", "channel"])
        for dc in instance.sorted_domain:
            w.writerow([dc.station, dc.channel])
    with open(base / DMAS_FILE, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["dma_id", "name"])
        for dma_id in sorted(instance.dmas):
            w.writerow([dma_id, instance.dmas[dma_id]])
    with open(base / UNIVERSE_FILE, "w", encoding="utf-8") as fh:
        fh.write(
            canonical_json(
                {
                    "channels": list(instance.universe.channels),
                    "forbidden": sorted(instance.universe.forbidden),
                }
            )
        )
        fh.write("\n")


def instance_to_json(instance: Instance) -> str:
    """Canonical JSON form; byte-stable for identical instances."""
    data = {
        "stations": [
            {
                "id": s.id,
                "dma_id": s.dma_id,
                "affiliation": s.affiliation.value,
                "revenue": s.revenue,
            }
            for s in instance.stations
        ],
        "universe": {
            "channels": list(instance.universe.channels),
            "forbidden": sorted(instance.universe.forbidden),
        },
        "interference": [
            {"kind": ic.kind.value, "a": ic.a, "b": ic.b} for ic in instance.sorted_interference
        ],
        "domain": [
            {"station": dc.station, "channel": dc.channel} for dc in instance.sorted_domain
        ],
        "dmas": {str(k): instance.dmas[k] for k in sorted(instance.dmas)},
    }
    return canonical_json(data)


def instance_digest(instance: Instance) -> str:
    """Content hash used to tie derived artifacts back to their instance."""
    return sha256_hex(instance_to_json(instance))


def save_artifact(
    path: str | os.PathLike,
    kind: str,
    instance: Instance,
    meta: dict,
    records: Iterable[dict],
    config_digest: Optional[str] = None,
) -> None:
    """Write a JSON-lines artifact: a meta record tying ``meta`` to ``kind``
    and ``instance``, then one line per record."""
    head = {**meta, "type": "meta", "kind": kind, "instance_digest": instance_digest(instance)}
    if config_digest:
        head["config_digest"] = config_digest
    with open(path, "w", encoding="utf-8") as fh:
        for record in (head, *records):
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def load_artifact(
    path: str | os.PathLike, kind: str, instance: Instance, record_type: str
) -> tuple[dict, list[dict]]:
    """Read a JSON-lines artifact written by :func:`save_artifact`.

    Returns the meta record and the records of ``record_type``. Raises
    ``ValueError`` when the file is not a ``kind`` artifact, was derived
    from a different instance, or holds a record that is not a JSON object.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [(n, json.loads(line)) for n, line in enumerate(fh, start=1) if line.strip()]
    meta = lines[0][1] if lines and isinstance(lines[0][1], dict) else {}
    if meta.get("type") != "meta" or meta.get("kind") != kind:
        raise ValueError(f"{path}: not a {kind} file")
    digest = instance_digest(instance)
    if meta.get("instance_digest") != digest:
        raise ValueError(
            f"{path}: {kind} belongs to a different instance "
            f"({str(meta.get('instance_digest'))[:12]}... vs {digest[:12]}...)"
        )
    for n, rec in lines[1:]:
        if not isinstance(rec, dict):
            raise ValueError(f"{path}: line {n} is not a JSON object")
    return meta, [rec for _, rec in lines[1:] if rec.get("type") == record_type]
