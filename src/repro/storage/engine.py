"""Key-value storage engine of a simulated data source.

Tables map keys to :class:`~repro.storage.record.Record` objects.  Bulk-loaded
rows are kept copy-on-write: a row becomes a ``Record`` only when a run first
gets or puts it, so set-up costs one dict update per table however many rows
are preloaded.  Writes made by in-flight transactions are buffered per
transaction in a write set and only installed at commit time, which makes
rollback trivial and matches the "committed state only" view that strict 2PL
provides to readers.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.storage.record import Record, RecordSnapshot

RecordId = Tuple[str, Hashable]

#: ``last_writer`` of a row that was bulk-loaded and never written since.
LOADER = "loader"

#: Sentinel for "no such preloaded row" (a loaded value may itself be None).
_ABSENT = object()


class Table:
    """A named collection of records.

    Rows live in one of two layers.  ``_preloaded`` holds bulk-loaded rows
    that no get or put has reached yet, as plain ``key -> value`` entries; an
    entry there stands for ``Record(key, value, version=1,
    last_writer="loader")``.  The first :meth:`get` or :meth:`put` of such a
    key moves it into ``_records`` as a real :class:`Record`.
    """

    def __init__(self, name: str):
        self.name = name
        self._records: Dict[Hashable, Record] = {}
        self._preloaded: Dict[Hashable, Any] = {}

    def __len__(self) -> int:
        return len(self._records) + len(self._preloaded)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._records or key in self._preloaded

    def get(self, key: Hashable) -> Optional[Record]:
        """The record for ``key`` or None."""
        record = self._records.get(key)
        if record is None:
            value = self._preloaded.pop(key, _ABSENT)
            if value is not _ABSENT:
                record = self._records[key] = Record(key, value, 1, LOADER)
        return record

    def put(self, key: Hashable, value: Any, writer: str = LOADER) -> Record:
        """Insert or overwrite the committed value of ``key``."""
        record = self._records.get(key)
        if record is None:
            # First write of the key: an untouched preloaded row is at
            # version 1, so this write makes it 2; a new key starts at 1.
            version = 1 if self._preloaded.pop(key, _ABSENT) is _ABSENT else 2
            record = self._records[key] = Record(key, value, version, writer)
            return record
        # Record.apply_write, inlined: commits funnel through here, making
        # this the storage engine's hottest statement sequence.
        record.value = value
        record.version += 1
        record.last_writer = writer
        return record

    def version_of(self, key: Hashable) -> int:
        """Committed version of ``key`` (0 if absent), without building a record."""
        record = self._records.get(key)
        if record is not None:
            return record.version
        return 1 if key in self._preloaded else 0

    def keys(self) -> Iterable[Hashable]:
        """All keys in the table, touched rows first."""
        return [*self._records, *self._preloaded]


class StorageEngine:
    """All tables of one data source plus per-transaction write buffers."""

    def __init__(self, name: str = "engine"):
        self.name = name
        self._tables: Dict[str, Table] = {}
        self._write_sets: Dict[str, Dict[RecordId, Any]] = {}

    # ------------------------------------------------------------------ schema
    def create_table(self, table_name: str) -> Table:
        """Create a table if it does not exist and return it."""
        if table_name not in self._tables:
            self._tables[table_name] = Table(table_name)
        return self._tables[table_name]

    def table(self, table_name: str) -> Table:
        """Return an existing table, creating it lazily for convenience."""
        return self.create_table(table_name)

    def table_names(self) -> List[str]:
        """Names of all tables."""
        return list(self._tables)

    def record_count(self) -> int:
        """Total number of committed records across tables."""
        return sum(len(table) for table in self._tables.values())

    # ------------------------------------------------------------------- loads
    def load(self, table_name: str, key: Hashable, value: Any) -> None:
        """Bulk-load a committed record (no locking, used during setup)."""
        self.bulk_load(table_name, {key: value})

    def bulk_load(self, table_name: str, rows: "Dict[Hashable, Any]") -> None:
        """Load many committed rows at once (setup fast path).

        Fresh keys — the overwhelming case, since preloads target empty
        tables — go into the table's preloaded layer in one dict update and
        build no record; keys that already exist go through ``put`` so a
        reload bumps their version.
        """
        table = self.create_table(table_name)
        if len(table):
            put = table.put
            fresh = {}
            for key, value in rows.items():
                if key in table:
                    put(key, value)
                else:
                    fresh[key] = value
            rows = fresh
        table._preloaded.update(rows)

    # -------------------------------------------------------------------- reads
    def read(self, txn_id: str, table_name: str, key: Hashable) -> Optional[RecordSnapshot]:
        """Read the latest value visible to ``txn_id``.

        A transaction sees its own buffered writes; otherwise the committed
        record value (strict 2PL guarantees no other uncommitted writer).  An
        untouched preloaded row is read from the preloaded layer as is.
        """
        table = self._tables.get(table_name)
        write_set = self._write_sets.get(txn_id)
        if write_set:
            record_id = (table_name, key)
            if record_id in write_set:
                return RecordSnapshot(
                    key=key, value=write_set[record_id],
                    version=table.version_of(key) if table is not None else 0)
        if table is None:
            return None
        record = table._records.get(key)
        if record is not None:
            return RecordSnapshot(key=record.key, value=record.value,
                                  version=record.version)
        value = table._preloaded.get(key, _ABSENT)
        if value is _ABSENT:
            return None
        return RecordSnapshot(key=key, value=value, version=1)

    # ------------------------------------------------------------------- writes
    def buffer_write(self, txn_id: str, table_name: str, key: Hashable, value: Any) -> None:
        """Record an uncommitted write in the transaction's write set."""
        self._write_sets.setdefault(txn_id, {})[(table_name, key)] = value

    def write_set(self, txn_id: str) -> Dict[RecordId, Any]:
        """The buffered writes of ``txn_id`` (may be empty)."""
        return dict(self._write_sets.get(txn_id, {}))

    def write_count(self, txn_id: str) -> int:
        """How many writes ``txn_id`` has buffered, without copying them."""
        return len(self._write_sets.get(txn_id, ()))

    def commit_writes(self, txn_id: str) -> int:
        """Install all buffered writes of ``txn_id``; return how many."""
        write_set = self._write_sets.pop(txn_id, {})
        for (table_name, key), value in write_set.items():
            self.table(table_name).put(key, value, writer=txn_id)
        return len(write_set)

    def discard_writes(self, txn_id: str) -> int:
        """Drop all buffered writes of ``txn_id``; return how many were dropped."""
        return len(self._write_sets.pop(txn_id, {}))

    def has_pending_writes(self, txn_id: str) -> bool:
        """True if the transaction still has a buffered write set."""
        return txn_id in self._write_sets
