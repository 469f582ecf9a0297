"""Persistent content-addressed storage of solve artifacts.

The second tier of the solve service's cache: where the in-memory
:class:`~repro.engine.cache.SolveCache` dies with the process, the
:class:`SolveStore` keeps solved artifacts on disk under a digest of their
*content key*, so a re-run of any figure, oligopoly competition or
continuation trace against a warm store performs zero equilibrium solves.

Every entry is one row of one WAL-mode sqlite file, ``<root>/store.sqlite``:
``entries(digest, header, payload)``. The header is JSON — ``version``,
``codec``, scalar ``meta`` and the array ``layout`` ``[[name, dtype.str,
shape, offset], ...]``; the payload is the arrays' C-order bytes end to
end, each offset rounded up to its dtype's alignment. A read is one
``SELECT`` plus :func:`numpy.frombuffer` views over one writable copy of
the payload. Object dtypes are refused both ways, so loading an entry can
never unpickle anything. Each :meth:`~SolveStore.put` is one ``INSERT OR
REPLACE`` in its own transaction: an interrupted batch keeps the entries
it finished, and a writer killed mid-transaction leaves nothing behind.

*Any* failure to decode an entry — a missing row, a truncated payload, a
garbage header, an unknown codec, the wrong version (older store formats
included), an object dtype, a file that is not a database — is a cache
**miss**, never an exception: the caller recomputes and ``put``
overwrites the entry. :meth:`~SolveStore.clear` deletes a file that is not
a database at all.

Artifacts go through a closed codec registry (:data:`CODECS`):
``"grid-row"`` (one solved cap row, ``tuple[EquilibriumResult, ...]``),
``"ndarrays"`` (``dict[str, np.ndarray]``) and ``"json"`` (any JSON value;
floats round-trip exactly).

Example — persist a named-array bundle and read it back bit-exactly:

>>> import numpy as np, tempfile
>>> from repro.engine.store import SolveStore
>>> store = SolveStore(tempfile.mkdtemp())
>>> store.put(("docs", 1), {"x": np.arange(3.0)}, codec="ndarrays")
True
>>> store.get(("docs", 1))["x"]
array([0., 1., 2.])
>>> store.get(("docs", 2)) is None   # unknown key: a miss, never an error
True
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.core.equilibrium import EquilibriumResult
from repro.providers.market import MarketState

__all__ = ["CODECS", "SolveStore", "key_digest"]

#: Environment variable naming the default on-disk store directory.
_CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Store format version; bumping it invalidates every existing entry.
_STORE_VERSION = 2

#: The database file under the store's root directory.
_DB_NAME = "store.sqlite"

#: The counters :meth:`SolveStore.stats` reports.
_COUNTERS = (
    "hits", "misses", "writes", "write_errors",
    "read_seconds", "write_seconds",
)

#: Run once per connection: wait for a busy writer instead of raising, and
#: ``synchronous = NORMAL`` — under WAL a crash may drop the last commits
#: but never tears one, which is enough for a cache.
_SETUP = """
PRAGMA busy_timeout = 30000;
PRAGMA journal_mode = WAL;
PRAGMA synchronous = NORMAL;
CREATE TABLE IF NOT EXISTS entries (
    digest TEXT PRIMARY KEY, header TEXT NOT NULL, payload BLOB NOT NULL
);
"""

#: Evict every entry past the newest ``?`` entries or ``?`` bytes.
_PRUNE = """
DELETE FROM entries WHERE rowid IN (
    SELECT rowid FROM (
        SELECT rowid, ROW_NUMBER() OVER newest AS rank,
               SUM(length(header) + length(payload)) OVER newest AS kept
        FROM entries WINDOW newest AS (ORDER BY rowid DESC)
    ) WHERE rank > ? OR kept > ?
)
"""


def _encode_key_part(part: Any) -> bytes:
    """Canonical, *injective* byte encoding of one content-key component.

    Netstring-style: a one-byte type tag, the payload length, then the
    payload. Length prefixes (rather than separators) keep the encoding
    collision-free even though keys embed raw float buffers
    (``prices.tobytes()``) that may contain any byte sequence.
    """
    if part is None:
        tag, payload = b"n", b""
    elif isinstance(part, bytes):
        tag, payload = b"b", part
    elif isinstance(part, bool):  # before int: bool is an int subclass
        tag, payload = b"o", (b"1" if part else b"0")
    elif isinstance(part, int):
        tag, payload = b"i", str(part).encode()
    elif isinstance(part, float):
        tag, payload = b"f", part.hex().encode()
    elif isinstance(part, str):
        tag, payload = b"s", part.encode()
    elif isinstance(part, np.ndarray):
        tag, payload = b"a", np.ascontiguousarray(part).tobytes()
    elif isinstance(part, tuple):
        tag = b"t"
        payload = b"".join(_encode_key_part(p) for p in part)
    else:
        raise TypeError(
            f"content keys may contain None/bool/int/float/str/bytes/"
            f"ndarray/tuple, got {type(part).__name__}"
        )
    return tag + str(len(payload)).encode() + b":" + payload


def key_digest(key: tuple) -> str:
    """SHA-256 hex digest of a content key (the store's entry name)."""
    return hashlib.sha256(_encode_key_part(tuple(key))).hexdigest()


# ----------------------------------------------------------------------
# codecs: domain object <-> (meta dict, named float arrays)
# ----------------------------------------------------------------------

#: MarketState fields that are per-CP float vectors.
_STATE_VECTORS = (
    "subsidies", "effective_prices", "populations", "rates", "throughputs",
    "utilities",
)

#: MarketState fields that are scalars (stacked into per-row vectors).
_STATE_SCALARS = (
    "utilization", "revenue", "welfare", "gap_slope", "price", "capacity",
)

#: Every MarketState field, in constructor order.
_STATE_FIELDS = tuple(field.name for field in dataclasses.fields(MarketState))


def _encode_grid_row(row: Any) -> tuple[dict, dict[str, np.ndarray]]:
    results = tuple(row)
    if not all(isinstance(r, EquilibriumResult) for r in results):
        raise TypeError("grid-row codec expects a tuple of EquilibriumResult")
    arrays: dict[str, np.ndarray] = {
        "subsidies": np.stack([r.subsidies for r in results]),
        "kkt_residual": np.array([r.kkt_residual for r in results]),
        "iterations": np.array([r.iterations for r in results], dtype=np.int64),
    }
    for field in _STATE_VECTORS + _STATE_SCALARS:
        arrays[f"state.{field}"] = np.array(
            [getattr(r.state, field) for r in results]
        )
    meta = {"methods": [r.method for r in results], "count": len(results)}
    return meta, arrays


def _decode_grid_row(meta: dict, arrays: dict[str, np.ndarray]) -> Any:
    count = int(meta["count"])
    # MarketState's columns in field order: row views of the vectors, and
    # Python numbers of the scalars (tolist() gives the floats and ints
    # float() and int() give per cell).
    states = [
        arrays[f"state.{f}"].tolist() if f in _STATE_SCALARS
        else list(arrays[f"state.{f}"])
        for f in _STATE_FIELDS
    ]
    subsidies = list(arrays["subsidies"])
    kkt = arrays["kkt_residual"].tolist()
    iterations = arrays["iterations"].tolist()
    methods = [str(method) for method in meta["methods"]]
    columns = (subsidies, kkt, iterations, methods, *states)
    if any(len(column) != count for column in columns):
        raise ValueError("grid-row manifest/count mismatch")
    return tuple(
        EquilibriumResult(
            subsidies=s, state=MarketState(*state), kkt_residual=k,
            iterations=i, method=m,
        )
        for s, k, i, m, state in zip(*columns[:4], zip(*states))
    )


def _encode_ndarrays(value: Any) -> tuple[dict, dict[str, np.ndarray]]:
    if not isinstance(value, dict) or not all(
        isinstance(k, str) and isinstance(v, np.ndarray)
        for k, v in value.items()
    ):
        raise TypeError("ndarrays codec expects a dict[str, np.ndarray]")
    return {"names": sorted(value)}, {f"v.{k}": v for k, v in value.items()}


def _decode_ndarrays(meta: dict, arrays: dict[str, np.ndarray]) -> Any:
    return {name: arrays[f"v.{name}"] for name in meta["names"]}


def _encode_json(value: Any) -> tuple[dict, dict[str, np.ndarray]]:
    # Serialize now so an unserializable value fails at put(), not decode.
    return {"payload": json.loads(json.dumps(value))}, {}


def _decode_json(meta: dict, arrays: dict[str, np.ndarray]) -> Any:
    return meta["payload"]


#: Codec registry: name -> (encode, decode). Explicit and closed, like the
#: serialization registry in :mod:`repro.io` — a store entry can only ever
#: rebuild these known artifact shapes.
CODECS: dict[str, tuple[Callable[[Any], tuple], Callable[..., Any]]] = {
    "grid-row": (_encode_grid_row, _decode_grid_row),
    "ndarrays": (_encode_ndarrays, _decode_ndarrays),
    "json": (_encode_json, _decode_json),
}


def _pack(arrays: dict[str, np.ndarray]) -> tuple[list, bytes]:
    """``(layout, payload)``: the arrays' C-order bytes, end to end."""
    layout, chunks, offset = [], [], 0
    for name in sorted(arrays):
        array = arrays[name]
        if array.dtype.hasobject:
            raise TypeError(f"array {name!r}: object dtypes cannot be stored")
        pad = -offset % array.dtype.alignment
        chunks.append(bytes(pad))
        offset += pad
        layout.append([name, array.dtype.str, list(array.shape), offset])
        chunks.append(array.tobytes())
        offset += array.nbytes
    return layout, b"".join(chunks)


def _unpack(layout: list, payload: bytes) -> dict[str, np.ndarray]:
    """Writable arrays over one copy of ``payload`` (raises if malformed)."""
    buffer = bytearray(payload)
    arrays = {}
    for name, dtype_str, shape, offset in layout:
        dtype = np.dtype(dtype_str)
        if dtype.hasobject:
            raise ValueError(f"array {name!r}: object dtype")
        count = math.prod(shape)
        if min(shape, default=0) < 0 or offset < 0 or (
            offset + count * dtype.itemsize > len(buffer)
        ):
            raise ValueError(f"array {name!r} runs past the payload")
        arrays[name] = np.frombuffer(buffer, dtype, count, offset).reshape(
            shape
        )
    return arrays


class SolveStore:
    """A persistent, content-addressed, corruption-tolerant artifact store.

    ``root`` holds ``store.sqlite`` (created on first write). The counters
    (:data:`_COUNTERS`) feed the runner's ``--json`` summary and the serve
    daemon's ``/stats``; a small lock keeps concurrent threads' updates.
    """

    def __init__(self, root: str | Path) -> None:
        self._root = Path(root)
        self._db = self._root / _DB_NAME
        # One connection per thread; dropping the store drops them all.
        self._local = threading.local()
        self._metrics_lock = threading.Lock()
        self.hits = self.misses = self.writes = self.write_errors = 0
        self.read_seconds = self.write_seconds = 0.0

    @classmethod
    def from_env(cls) -> "SolveStore | None":
        """The store named by ``$REPRO_CACHE_DIR``, or ``None`` if unset."""
        root = os.environ.get(_CACHE_DIR_ENV, "").strip()
        return cls(root) if root else None

    @property
    def path(self) -> Path:
        """The store's root directory."""
        return self._root

    def _connection(self, *, create: bool) -> sqlite3.Connection | None:
        """This thread's connection, opened lazily (``None`` if there is no
        file and ``create`` is off); raises if it is not a database."""
        local, pid = self._local, os.getpid()
        if getattr(local, "pid", None) == pid:
            return local.conn
        if getattr(local, "pid", None) is not None:
            # A forked child must neither use nor close its parent's
            # connection: keep it referenced and open a fresh one.
            local.inherited = local.conn
        if not create and not self._db.is_file():
            return None
        self._root.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(self._db, isolation_level=None)
        try:
            conn.executescript(_SETUP)
        except BaseException:
            conn.close()
            raise
        local.pid, local.conn = pid, conn
        return conn

    def _footprint(self) -> tuple[int, int]:
        """``(entries, bytes)``; ``(0, 0)`` if absent or unreadable."""
        try:
            conn = self._connection(create=False)
            return (0, 0) if conn is None else conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(length(header) + "
                "length(payload)), 0) FROM entries"
            ).fetchone()
        except sqlite3.Error:
            return 0, 0

    def __len__(self) -> int:
        """Number of committed entries."""
        return self._footprint()[0]

    def _count(self, counter: str, start: float, seconds: str) -> None:
        with self._metrics_lock:
            setattr(self, counter, getattr(self, counter) + 1)
            setattr(self, seconds, getattr(self, seconds) + (
                time.perf_counter() - start
            ))

    def get(self, key: tuple) -> Any | None:
        """Decode the entry stored under ``key``, or ``None`` on any failure
        (every case in the module docstring): a read never raises."""
        start = time.perf_counter()
        try:
            value = self._read_entry(key_digest(key))
        except Exception:
            self._count("misses", start, "read_seconds")
            return None
        self._count("hits", start, "read_seconds")
        return value

    def _read_entry(self, digest: str) -> Any:
        """Decode one committed entry (raises on any failure)."""
        conn = self._connection(create=False)
        row = None if conn is None else conn.execute(
            "SELECT header, payload FROM entries WHERE digest = ?", (digest,)
        ).fetchone()
        if row is None:
            raise KeyError(digest)
        header = json.loads(row[0])
        if header["version"] != _STORE_VERSION:
            raise ValueError(f"store version {header['version']}")
        decode = CODECS[header["codec"]][1]
        return decode(header["meta"], _unpack(header["layout"], row[1]))

    def put(self, key: tuple, value: Any, *, codec: str) -> bool:
        """Persist ``value`` under ``key``; returns whether it committed.

        Encoding errors (unknown codec, value/codec mismatch) raise — they
        are caller bugs. sqlite and OS errors are counted in
        ``write_errors`` and return ``False``: a full disk degrades the
        store to a smaller cache, it never fails a solve.
        """
        if codec not in CODECS:
            raise KeyError(
                f"unknown store codec {codec!r}; registered: {sorted(CODECS)}"
            )
        meta, arrays = CODECS[codec][0](value)
        layout, payload = _pack(arrays)
        header = {"version": _STORE_VERSION, "codec": codec, "meta": meta}
        header = json.dumps({**header, "layout": layout}, sort_keys=True)
        start = time.perf_counter()
        try:
            self._connection(create=True).execute(
                "INSERT OR REPLACE INTO entries (digest, header, payload) "
                "VALUES (?, ?, ?)",
                (key_digest(key), header, payload),
            )
        except (sqlite3.Error, OSError):
            self._count("write_errors", start, "write_seconds")
            return False
        self._count("writes", start, "write_seconds")
        return True

    def clear(self) -> int:
        """Remove every entry; returns the number removed.

        A file that is not a database is deleted with its ``-wal`` and
        ``-shm`` files: the recovery path for whole-file corruption.
        """
        try:
            conn = self._connection(create=False)
            return 0 if conn is None else conn.execute(
                "DELETE FROM entries"
            ).rowcount
        except sqlite3.OperationalError:
            raise  # locked or unwritable, not corrupt: remove nothing
        except sqlite3.DatabaseError:
            self._local.pid = None  # reconnect to the recreated file
            for suffix in ("", "-wal", "-shm"):
                try:
                    os.unlink(f"{self._db}{suffix}")
                except OSError:
                    pass
            return 0

    def prune(
        self, *, max_entries: int | None = None, max_bytes: int | None = None
    ) -> dict:
        """Evict the oldest writes until the store fits both bounds.

        The newest entries (highest rowid) are kept while both bounds
        hold; ``INSERT OR REPLACE`` gives a rewritten entry a new rowid, so
        this is oldest-write-first, in one statement and one transaction.
        Returns ``{"entries": removed}``.
        """
        if (max_entries is not None and max_entries < 0) or (
            max_bytes is not None and max_bytes < 0
        ):
            raise ValueError("prune bounds must be non-negative")
        conn = self._connection(create=False)
        if conn is None or (max_entries is None and max_bytes is None):
            return {"entries": 0}
        unbounded = 2**62
        removed = conn.execute(_PRUNE, (
            unbounded if max_entries is None else max_entries,
            unbounded if max_bytes is None else max_bytes,
        )).rowcount
        return {"entries": removed}

    def stats(self) -> dict:
        """Counters plus the stored footprint, JSON-ready."""
        entries, size = self._footprint()
        with self._metrics_lock:
            counters = {name: getattr(self, name) for name in _COUNTERS}
        return {"path": str(self._root), "entries": entries, "bytes": size,
                **counters}
