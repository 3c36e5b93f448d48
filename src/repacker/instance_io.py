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
of its instance. :func:`load_artifact` checks both, and reports a record
its reader cannot parse as a ``ValueError`` naming the record's line.
"""

from __future__ import annotations

import csv
import json
import os
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable, Optional, TypeVar

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
from .util import canonical_json, json_field, sha256_hex

STATIONS_FILE = "stations.csv"
INTERFERENCE_FILE = "interference.csv"
DOMAIN_FILE = "domain.csv"
DMAS_FILE = "dmas.csv"
UNIVERSE_FILE = "universe.json"

_T = TypeVar("_T")

# The CSV spellings of the enum-valued columns.
_KINDS = {kind.value: kind for kind in ConstraintKind}
_AFFILIATIONS = {aff.value: aff for aff in Affiliation}


def _fail(path: Path, row: int, msg: str) -> "InstanceError":
    return InstanceError(f"{path.name}, row {row}: {msg}")


def _read_rows(
    path: Path, required: tuple[str, ...], optional: tuple[str, ...] = ()
) -> list[tuple[int, tuple[str, ...]]]:
    """The rows of a CSV file as ``(row number, cells)``, the cells in the order
    of ``required + optional``. A cell missing from a short row, or from a file
    without an optional column, reads as blank. Rows with every required cell
    blank are dropped; row numbers count the header and every non-empty record."""
    if not path.is_file():
        raise InstanceError(f"missing input file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise InstanceError(f"{path.name}: empty file, header required")
        missing = [c for c in required if c not in header]
        if missing:
            raise InstanceError(f"{path.name}: missing columns {missing}")
        # A repeated column name reads its last cell; an absent optional
        # column reads the padding cell past the header. Every file names at
        # least two columns, so ``pick`` returns a tuple.
        column = {name: i for i, name in enumerate(header)}
        picks = [column.get(c, len(header)) for c in required + optional]
        pick, needed, n_required = itemgetter(*picks), max(picks) + 1, len(required)
        rows = []
        for i, row in enumerate(filter(None, reader), start=2):
            if len(row) < needed:
                row += [""] * (needed - len(row))
            cells = pick(row)
            if "".join(cells[:n_required]).strip():
                rows.append((i, cells))
        return rows


def _write_rows(path: Path, header: tuple[str, ...], rows: Iterable[tuple]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _field(path: Path, row: int, text: str, parse: Callable[[str], _T], what: str) -> _T:
    """``parse(text)``; a KeyError or ValueError becomes ``<what> <text>``,
    naming the file and row."""
    try:
        return parse(text)
    except (KeyError, ValueError):
        raise _fail(path, row, f"{what} {text!r}") from None


def _load_universe(path: Path) -> ChannelUniverse:
    """Read ``universe.json``: an object with a ``channels`` list of integers
    and an optional ``forbidden`` list; any defect names the file."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InstanceError(f"{path.name}: not JSON: {exc}") from None
    if not isinstance(data, dict) or "channels" not in data:
        raise InstanceError(f"{path.name}: expected an object with a 'channels' list")
    try:
        return ChannelUniverse(
            channels=tuple(json_field(data["channels"], list[int], "'channels'")),
            forbidden=frozenset(json_field(data.get("forbidden", []), list[int], "'forbidden'")),
        )
    except ValueError as exc:
        raise InstanceError(f"{path.name}: {exc}") from None


def load_instance(directory: str | os.PathLike) -> Instance:
    """Load and validate an instance from its CSV directory.

    Duplicate constraints are collapsed and co-channel pairs canonicalized,
    so reloading a saved instance yields an identical canonical form.
    """
    base = Path(directory)
    upath = base / UNIVERSE_FILE
    universe = _load_universe(upath) if upath.is_file() else US_UNIVERSE

    dmas: dict[int, str] = {}
    path = base / DMAS_FILE
    for rownum, (dma_text, name) in _read_rows(path, ("dma_id", "name")):
        dma_id = _field(path, rownum, dma_text, int, "bad dma_id")
        if dma_id in dmas:
            raise _fail(path, rownum, f"duplicate DMA id {dma_id}")
        dmas[dma_id] = name.strip()

    stations: list[Station] = []
    seen_ids: set[str] = set()
    path = base / STATIONS_FILE
    for rownum, (sid, dma_text, aff_text, rev_text) in _read_rows(
        path, ("id", "dma_id"), ("affiliation", "revenue")
    ):
        sid = sid.strip()
        if not sid:
            raise _fail(path, rownum, "empty station id")
        if sid in seen_ids:
            raise _fail(path, rownum, f"duplicate station id {sid!r}")
        seen_ids.add(sid)
        dma_id = _field(path, rownum, dma_text, int, "bad dma_id")
        affiliation = _field(path, rownum, aff_text.strip() or "NONE",
                             _AFFILIATIONS.__getitem__, "unknown affiliation")
        revenue = _field(path, rownum, rev_text.strip() or "0", float, "bad revenue")
        try:
            stations.append(Station(id=sid, dma_id=dma_id, affiliation=affiliation, revenue=revenue))
        except InstanceError as exc:
            raise _fail(path, rownum, str(exc)) from None

    interference: set[InterferenceConstraint] = set()
    path = base / INTERFERENCE_FILE
    for rownum, (kind_text, a, b) in _read_rows(path, ("kind", "station_a", "station_b")):
        kind = _field(path, rownum, kind_text.strip(), _KINDS.__getitem__, "unknown kind")
        a, b = a.strip(), b.strip()
        for end in (a, b):
            if end not in seen_ids:
                raise _fail(path, rownum, f"unknown station {end!r}")
        try:
            interference.add(InterferenceConstraint(kind=kind, a=a, b=b))
        except InstanceError as exc:
            raise _fail(path, rownum, str(exc)) from None

    domain: set[DomainConstraint] = set()
    path = base / DOMAIN_FILE
    if path.is_file():
        for rownum, (sid, channel_text) in _read_rows(path, ("station", "channel")):
            sid = sid.strip()
            if sid not in seen_ids:
                raise _fail(path, rownum, f"unknown station {sid!r}")
            channel = _field(path, rownum, channel_text, int, "bad channel")
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
    _write_rows(base / STATIONS_FILE, ("id", "dma_id", "affiliation", "revenue"), (
        (s.id, s.dma_id, "" if s.affiliation is Affiliation.NONE else s.affiliation.value,
         "" if s.revenue == 0 else repr(s.revenue))
        for s in instance.stations
    ))
    _write_rows(base / INTERFERENCE_FILE, ("kind", "station_a", "station_b"), (
        (ic.kind.value, ic.a, ic.b) for ic in instance.sorted_interference
    ))
    _write_rows(base / DOMAIN_FILE, ("station", "channel"), (
        (dc.station, dc.channel) for dc in instance.sorted_domain
    ))
    _write_rows(base / DMAS_FILE, ("dma_id", "name"), (
        (dma_id, instance.dmas[dma_id]) for dma_id in sorted(instance.dmas)
    ))
    with open(base / UNIVERSE_FILE, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(_universe_json(instance.universe)))
        fh.write("\n")


def _universe_json(universe: ChannelUniverse) -> dict:
    return {"channels": list(universe.channels), "forbidden": sorted(universe.forbidden)}


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
        "universe": _universe_json(instance.universe),
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


def _json_line(path: str | os.PathLike, n: int, line: str) -> Any:
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {n} is not JSON: {exc.msg} at column {exc.colno}") from None


def _parse_line(path: str | os.PathLike, n: int, parse: Callable[..., _T], *fields: Any) -> _T:
    """``parse(*fields)``, with a malformed field's exception naming the file and line."""
    try:
        return parse(*fields)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        why = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{path}: line {n}: {why}") from None


def load_artifact(
    path: str | os.PathLike, kind: str, instance: Instance, record_type: str,
    parse_meta: Callable[[dict], Any], parse_record: Callable[[Any, dict], _T],
    key: Callable[[_T], Hashable],
) -> tuple[Any, list[_T]]:
    """Read a JSON-lines artifact written by :func:`save_artifact`.

    Returns ``head = parse_meta(meta record)`` and ``parse_record(head, record)``
    of each record of ``record_type``. Raises ``ValueError`` when the file is
    not a ``kind`` artifact, was derived from a different instance, or holds a
    line that is not JSON, a record that is not a JSON object, one whose fields
    its parser rejects or one whose ``key`` an earlier record has, naming the line.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [(n, _json_line(path, n, line))
                 for n, line in enumerate(fh, start=1) if line.strip()]
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
    head = _parse_line(path, lines[0][0], parse_meta, meta)
    records = [(n, _parse_line(path, n, parse_record, head, rec))
               for n, rec in lines[1:] if rec.get("type") == record_type]
    first_line: dict[Hashable, int] = {}
    for n, record in records:
        first = first_line.setdefault(key(record), n)
        if first != n:
            raise ValueError(f"{path}: line {n}: repeats the {record_type} of line {first}")
    return head, [record for _, record in records]
