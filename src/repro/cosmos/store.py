"""Append-only extent store, after Cosmos (§2.3).

"Files in Cosmos are append-only and a file is split into multiple 'extents'
and an extent is stored in multiple servers to provide high reliability."

We model *streams* (named append-only files) whose appended records are
packed into immutable extents; each extent is placed on ``replication``
distinct storage nodes.  Storage-node failures are not modelled.  The store
tracks ingestion volume — the paper's headline "24 terabytes ... more than
2 Gb/s upload rate" is a store statistic here.  Retention ("we keep Pingmesh
historical data for 2 months") is not modelled: no run lasts that long.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.cosmos.columnar import ColumnBlock

__all__ = ["CosmosStore", "Extent", "Stream"]

Record = dict[str, Any]


@dataclass(frozen=True)
class Extent:
    """An immutable chunk of a stream, replicated across nodes.

    Every extent carries its records as a
    :class:`~repro.cosmos.columnar.ColumnBlock`, ``columns`` — the only
    form the SCOPE engine reads.  Appended as row dicts, ``records`` is the
    tuple of (copied) rows and ``columns`` their packing, made at append
    time whatever the rows' schemas.  Appended as a block, the extent *is*
    the block: ``records`` and ``columns`` are the one adopted object, whose
    ``len`` costs nothing and whose rows exist only while someone iterates
    them.
    """

    extent_id: int
    records: tuple[Record, ...] | ColumnBlock
    replicas: tuple[int, ...]
    size_bytes: int
    appended_at: float
    columns: ColumnBlock

    @property
    def adopted(self) -> bool:
        """True when the extent is an adopted block: every iteration of
        ``records`` then yields fresh dicts, so readers need no copies."""
        return self.records is self.columns


@dataclass
class Stream:
    """A named append-only sequence of extents."""

    name: str
    extents: list[Extent] = field(default_factory=list)

    @property
    def size_bytes(self) -> int:
        return sum(extent.size_bytes for extent in self.extents)

    @property
    def record_count(self) -> int:
        return sum(len(extent.records) for extent in self.extents)


class CosmosStore:
    """A miniature Cosmos cluster.

    Parameters
    ----------
    n_storage_nodes:
        How many storage nodes hold extents.
    replication:
        Replicas per extent ("an extent is stored in multiple servers").
    extent_max_records:
        Records per extent before a new extent is cut.
    """

    def __init__(
        self,
        n_storage_nodes: int = 8,
        replication: int = 3,
        extent_max_records: int = 10_000,
    ) -> None:
        if replication < 1:
            raise ValueError(f"replication must be >= 1: {replication}")
        if replication > n_storage_nodes:
            raise ValueError(
                f"cannot place {replication} replicas on {n_storage_nodes} nodes"
            )
        if extent_max_records < 1:
            raise ValueError(f"extent_max_records must be >= 1: {extent_max_records}")
        self.n_storage_nodes = n_storage_nodes
        self.replication = replication
        self.extent_max_records = extent_max_records
        self._streams: dict[str, Stream] = {}
        self._extent_ids = itertools.count()
        self._placement = itertools.count()  # round-robin replica placement
        self.bytes_ingested = 0
        self.records_ingested = 0
        # Monotone data-version counter: bumped by any mutation that can
        # change what a read returns (an append).  Cache
        # keys built on (window, version) stay correct across mutations.
        self.version = 0
        # Stream scans started (read/read_where/extents each count one);
        # lets tests assert how often a consumer really hits the store.
        self.read_count = 0

    # -- stream management ---------------------------------------------------

    def create_stream(self, name: str) -> Stream:
        """Create a stream; error if it exists (streams are append-only)."""
        if name in self._streams:
            raise ValueError(f"stream already exists: {name}")
        stream = Stream(name=name)
        self._streams[name] = stream
        return stream

    def stream(self, name: str) -> Stream:
        try:
            return self._streams[name]
        except KeyError:
            raise KeyError(f"no such stream: {name}") from None

    def has_stream(self, name: str) -> bool:
        return name in self._streams

    # -- append / read ---------------------------------------------------------

    def append(
        self, name: str, records: list[Record] | ColumnBlock, t: float = 0.0
    ) -> int:
        """Append records to a stream (created on first use).

        Returns the number of extents written.  Row dicts are copied into
        immutable extents and packed by looking at their values; callers
        cannot mutate stored data afterwards.  A
        :class:`~repro.cosmos.columnar.ColumnBlock` is *adopted*: its
        producer already knew the schema, so the block becomes the extent
        as it is — no row copy, no second packing — and must not be
        written to again.
        """
        if not records:
            return 0
        stream = self._streams.get(name) or self.create_stream(name)
        extents_written = 0
        for start in range(0, len(records), self.extent_max_records):
            chunk = records[start : start + self.extent_max_records]
            if isinstance(chunk, ColumnBlock):
                block = chunk
            else:
                chunk = tuple(dict(record) for record in chunk)
                block = ColumnBlock.from_records(chunk)
            size = block.size_bytes()
            replicas = self._place_replicas()
            stream.extents.append(
                Extent(
                    extent_id=next(self._extent_ids),
                    records=chunk,
                    replicas=replicas,
                    size_bytes=size,
                    appended_at=t,
                    columns=block,
                )
            )
            self.bytes_ingested += size
            self.records_ingested += len(chunk)
            extents_written += 1
        self.version += 1
        return extents_written

    def _place_replicas(self) -> tuple[int, ...]:
        """Round-robin placement over all nodes (down nodes still get
        replicas — Cosmos re-replicates lazily; reads just avoid them)."""
        start = next(self._placement)
        return tuple(
            (start + offset) % self.n_storage_nodes
            for offset in range(self.replication)
        )

    def read(self, name: str, copy: bool = True) -> Iterator[Record]:
        """Iterate all records of a stream, oldest first.

        ``copy=True`` (the default) yields defensive per-record dict copies
        so callers may mutate what they receive.  Extents are immutable, so
        read-only consumers — the SCOPE layer never mutates rows it
        extracts — may pass ``copy=False`` to skip the copies; they must
        then treat every yielded dict as frozen.
        """
        self.read_count += 1
        for extent in self._extents_since(name):
            if copy and not extent.adopted:
                yield from (dict(record) for record in extent.records)
            else:
                yield from extent.records

    def read_where(
        self,
        name: str,
        predicate: Callable[[Record], bool],
        appended_since: float | None = None,
        copy: bool = True,
    ) -> Iterator[Record]:
        """Filtered read; predicate pushdown for the SCOPE layer.

        ``appended_since`` prunes whole extents by their append time.  It is
        safe for time-window queries over measurement data because a record
        generated at time t can only be uploaded at or after t: extents
        appended before the window start cannot contain in-window records.

        ``copy`` follows the :meth:`read` contract: ``False`` skips the
        defensive copies for read-only consumers.
        """
        self.read_count += 1
        for extent in self._extents_since(name, appended_since):
            protect = copy and not extent.adopted
            for record in extent.records:
                if predicate(record):
                    yield dict(record) if protect else record

    def extents(
        self, name: str, appended_since: float | None = None
    ) -> Iterator[Extent]:
        """Iterate a stream's extents, oldest first (one scan).

        The SCOPE engine reads whole extents (their
        :class:`~repro.cosmos.columnar.ColumnBlock` columns) instead of
        per-record streams.  Pruning matches :meth:`read_where`.
        """
        self.read_count += 1
        yield from self._extents_since(name, appended_since)

    def _extents_since(
        self, name: str, appended_since: float | None = None
    ) -> Iterator[Extent]:
        for extent in self.stream(name).extents:
            if appended_since is not None and extent.appended_at < appended_since:
                continue
            yield extent

    # -- accounting ----------------------------------------------------------------

    def total_bytes(self) -> int:
        return sum(stream.size_bytes for stream in self._streams.values())
