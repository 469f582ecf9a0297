"""Unit tests for the persistent content-addressed solve store."""

import gc
import json
import os
import sqlite3
import sys
import threading
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest

from repro.engine.grid_engine import solve_cap_row
from repro.engine.store import CODECS, SolveStore, key_digest
from repro.providers import AccessISP, Market, exponential_cp


def small_market():
    return Market(
        [
            exponential_cp(2.0, 2.0, value=1.0),
            exponential_cp(5.0, 3.0, value=0.6),
        ],
        AccessISP(price=1.0, capacity=1.0),
    )


def solved_row():
    return solve_cap_row(
        small_market(), np.linspace(0.2, 1.0, 3), 0.5, warm_start=True
    )


def sole_row(root):
    """``(digest, header dict, payload)`` of the store's only entry."""
    with closing(sqlite3.connect(root / "store.sqlite")) as conn:
        rows = conn.execute("SELECT digest, header, payload FROM entries")
        rows = rows.fetchall()
    assert len(rows) == 1
    digest, header, payload = rows[0]
    return digest, json.loads(header), payload


def rewrite_row(root, *, header=None, payload=None):
    """Overwrite the only entry's header (dict or raw text) and/or payload."""
    digest, old_header, old_payload = sole_row(root)
    if header is None:
        header = old_header
    text = header if isinstance(header, str) else json.dumps(header)
    with closing(sqlite3.connect(root / "store.sqlite")) as conn:
        conn.execute(
            "UPDATE entries SET header = ?, payload = ? WHERE digest = ?",
            (text, old_payload if payload is None else payload, digest),
        )
        conn.commit()


def open_store_files(root):
    """This process's open descriptors on the store's database files."""
    fd_dir = Path("/proc/self/fd")
    found = []
    for fd in os.listdir(fd_dir):
        try:
            target = os.readlink(fd_dir / fd)
        except OSError:
            continue
        if target.startswith(str(root / "store.sqlite")):
            found.append(target)
    return found


def assert_rows_bitwise_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.subsidies.tobytes() == y.subsidies.tobytes()
        assert x.kkt_residual == y.kkt_residual
        assert x.iterations == y.iterations
        assert x.method == y.method
        for field in (
            "subsidies",
            "effective_prices",
            "populations",
            "rates",
            "throughputs",
            "utilities",
        ):
            assert (
                getattr(x.state, field).tobytes()
                == getattr(y.state, field).tobytes()
            )
        for field in (
            "utilization",
            "revenue",
            "welfare",
            "gap_slope",
            "price",
            "capacity",
        ):
            assert getattr(x.state, field) == getattr(y.state, field)


class TestKeyDigest:
    def test_deterministic_and_content_sensitive(self):
        key = ("cap-row/1", "fp", b"\x00\x01", 0.5, True)
        assert key_digest(key) == key_digest(key)
        assert key_digest(key) != key_digest(("cap-row/1", "fp", b"\x00\x01", 0.5, False))
        assert key_digest(key) != key_digest(("cap-row/1", "fp", b"\x00\x02", 0.5, True))

    def test_nested_tuples_and_none(self):
        a = key_digest(("x", ((0, 1), (2,), ()), None))
        b = key_digest(("x", ((0, 1), (2,), ()), None))
        c = key_digest(("x", ((0, 1), (2,), (3,)), None))
        assert a == b != c

    def test_type_distinctions(self):
        # bool/int/float/str/bytes with "equal" surface values stay distinct.
        assert key_digest((1,)) != key_digest((1.0,))
        assert key_digest((True,)) != key_digest((1,))
        assert key_digest(("1",)) != key_digest((1,))

    def test_rejects_unhashable_content(self):
        with pytest.raises(TypeError):
            key_digest((object(),))

    def test_encoding_is_injective_for_adversarial_byte_content(self):
        # Keys embed raw float buffers (prices.tobytes()), which can
        # contain any byte sequence — including ones that would collide
        # under separator-based (rather than length-prefixed) encodings.
        assert key_digest(((b"x\x1fb:y",),)) != key_digest(((b"x", b"y"),))
        assert key_digest((b"x\x1eb:y",)) != key_digest((b"x", b"y"))
        assert key_digest(("ab", "c")) != key_digest(("a", "bc"))
        assert key_digest((("a",), "b")) != key_digest((("a", "b"),))


class TestRoundTrip:
    def test_grid_row_round_trip_is_bitwise(self, tmp_path):
        store = SolveStore(tmp_path)
        row = solved_row()
        key = ("row", b"axes", 0.5)
        assert store.put(key, row, codec="grid-row")
        loaded = store.get(key)
        assert loaded is not None
        assert_rows_bitwise_equal(row, loaded)
        assert store.hits == 1 and store.writes == 1

    def test_ndarrays_round_trip(self, tmp_path):
        store = SolveStore(tmp_path)
        value = {
            "price": np.asarray(0.1 + 0.2, dtype=float),
            "warm": np.linspace(0.0, 1.0, 5),
            "count": np.asarray(7, dtype=np.int64),
        }
        store.put(("nd",), value, codec="ndarrays")
        loaded = store.get(("nd",))
        assert set(loaded) == set(value)
        for name in value:
            assert loaded[name].tobytes() == value[name].tobytes()
            assert loaded[name].dtype == value[name].dtype
            assert loaded[name].shape == value[name].shape
            assert loaded[name].flags.writeable

    def test_mixed_dtypes_round_trip_aligned(self, tmp_path):
        store = SolveStore(tmp_path)
        value = {
            "a": np.array([True, False, True]),
            "b": np.arange(5, dtype=np.int32),
            "c": np.linspace(0.0, 1.0, 4).reshape(2, 2),
            "d": np.arange(3.0)[::2],  # not contiguous
        }
        store.put(("mixed",), value, codec="ndarrays")
        loaded = store.get(("mixed",))
        for name in value:
            assert np.array_equal(loaded[name], value[name])
            assert loaded[name].dtype == value[name].dtype
            assert loaded[name].flags.aligned

    def test_json_round_trip_exact_floats(self, tmp_path):
        store = SolveStore(tmp_path)
        value = {"price": 0.1 + 0.2, "after": [[0, 1], [2], []]}
        store.put(("j",), value, codec="json")
        loaded = store.get(("j",))
        assert loaded["price"] == value["price"]  # repr round-trip is exact
        assert loaded["after"] == value["after"]

    def test_missing_key_misses(self, tmp_path):
        store = SolveStore(tmp_path)
        assert store.get(("absent",)) is None
        assert store.misses == 1

    def test_overwrite_replaces(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("k",), {"v": [1]}, codec="json")
        store.put(("k",), {"v": [2]}, codec="json")
        assert store.get(("k",))["v"] == [2]
        assert len(store) == 1


class TestCorruptionTolerance:
    """Bad entry -> miss, never crash; recompute-and-put repairs."""

    def test_truncated_payload_is_a_miss_then_repairable(self, tmp_path):
        store = SolveStore(tmp_path)
        row = solved_row()
        key = ("row", 1)
        store.put(key, row, codec="grid-row")
        _, _, payload = sole_row(tmp_path)
        rewrite_row(tmp_path, payload=payload[:20])
        assert store.get(key) is None
        assert store.misses == 1
        # The caller recomputes and overwrites; the entry works again.
        assert store.put(key, row, codec="grid-row")
        assert_rows_bitwise_equal(row, store.get(key))

    def test_garbage_header_is_a_miss(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("k",), solved_row(), codec="grid-row")
        rewrite_row(tmp_path, header="{not json at all")
        assert store.get(("k",)) is None

    def test_header_without_layout_is_a_miss(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("k",), solved_row(), codec="grid-row")
        _, header, _ = sole_row(tmp_path)
        del header["layout"]
        rewrite_row(tmp_path, header=header)
        assert store.get(("k",)) is None

    def test_version_skew_is_a_miss(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("k",), {"v": 1}, codec="json")
        _, header, _ = sole_row(tmp_path)
        header["version"] = 999
        rewrite_row(tmp_path, header=header)
        assert store.get(("k",)) is None

    def test_unknown_codec_in_header_is_a_miss(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("k",), {"v": 1}, codec="json")
        _, header, _ = sole_row(tmp_path)
        header["codec"] = "no-such-codec"
        rewrite_row(tmp_path, header=header)
        assert store.get(("k",)) is None

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_grid_row_count_unlike_its_arrays_is_a_miss(self, tmp_path, delta):
        # A row is never decoded shorter or longer than what was stored.
        store = SolveStore(tmp_path)
        store.put(("k",), solved_row(), codec="grid-row")
        _, header, _ = sole_row(tmp_path)
        header["meta"]["count"] += delta
        header["meta"]["methods"] = ["vi"] * header["meta"]["count"]
        rewrite_row(tmp_path, header=header)
        assert store.get(("k",)) is None

    def test_object_dtype_in_layout_is_a_miss(self, tmp_path):
        # A header may not ask for Python objects: reading an entry must
        # never unpickle anything, whatever the file says.
        store = SolveStore(tmp_path)
        store.put(("k",), {"v": np.arange(4.0)}, codec="ndarrays")
        _, header, _ = sole_row(tmp_path)
        header["layout"][0][1] = "|O"
        rewrite_row(tmp_path, header=header)
        assert store.get(("k",)) is None
        assert store.misses == 1

    def test_entries_of_the_file_layout_are_misses(self, tmp_path):
        # Older stores kept <digest[:2]>/<digest>.{npz,json} pairs; the
        # sqlite store ignores them rather than migrating them.
        key = ("legacy", 1)
        digest = key_digest(key)
        shard = tmp_path / digest[:2]
        shard.mkdir(parents=True)
        np.savez(shard / f"{digest}.npz", **{"v.x": np.arange(3.0)})
        (shard / f"{digest}.json").write_text(
            json.dumps(
                {
                    "version": 1,
                    "codec": "ndarrays",
                    "meta": {"names": ["x"]},
                    "arrays": ["v.x"],
                }
            )
        )
        store = SolveStore(tmp_path)
        assert store.get(key) is None
        assert len(store) == 0
        assert store.put(key, {"x": np.arange(3.0)}, codec="ndarrays")
        assert store.get(key)["x"].tolist() == [0.0, 1.0, 2.0]

    def test_unwritable_root_degrades_to_no_store(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        store = SolveStore(blocker / "sub")
        assert store.put(("k",), {"v": 1}, codec="json") is False
        assert store.write_errors == 1
        assert store.get(("k",)) is None  # still just a miss


class TestNotADatabase:
    """A store file that is not sqlite: misses, failed writes, clear heals."""

    @pytest.fixture
    def store(self, tmp_path):
        (tmp_path / "store.sqlite").write_bytes(b"not a database " * 512)
        return SolveStore(tmp_path)

    def test_get_misses_and_len_is_zero(self, store):
        assert store.get(("k",)) is None
        assert store.misses == 1
        assert len(store) == 0
        assert store.stats()["entries"] == 0

    def test_put_returns_false_and_counts_the_error(self, store):
        assert store.put(("k",), {"v": 1}, codec="json") is False
        assert store.write_errors == 1 and store.writes == 0

    def test_clear_recovers(self, store, tmp_path):
        assert store.clear() == 0
        assert not (tmp_path / "store.sqlite").exists()
        assert store.put(("k",), {"v": 1}, codec="json")
        assert store.get(("k",)) == {"v": 1}
        assert len(store) == 1


class TestMaintenance:
    def test_put_unknown_codec_raises(self, tmp_path):
        store = SolveStore(tmp_path)
        with pytest.raises(KeyError):
            store.put(("k",), {"v": 1}, codec="nope")

    def test_codec_value_mismatch_raises(self, tmp_path):
        store = SolveStore(tmp_path)
        with pytest.raises(TypeError):
            store.put(("k",), {"v": "not an array"}, codec="ndarrays")
        with pytest.raises(TypeError):
            store.put(("k",), ("not", "results"), codec="grid-row")

    def test_clear_removes_everything(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("a",), {"v": 1}, codec="json")
        store.put(("b",), solved_row(), codec="grid-row")
        assert len(store) == 2
        assert store.clear() == 2
        assert len(store) == 0
        assert store.get(("a",)) is None

    def test_clear_on_missing_directory(self, tmp_path):
        assert SolveStore(tmp_path / "never-created").clear() == 0

    def test_stats_shape(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("a",), {"v": 1}, codec="json")
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        assert stats["path"] == str(tmp_path)
        assert {"hits", "misses", "writes", "write_errors"} <= set(stats)

    def test_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert SolveStore.from_env() is None
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        store = SolveStore.from_env()
        assert store is not None and store.path == tmp_path

    def test_codec_registry_is_closed(self):
        assert set(CODECS) == {"grid-row", "ndarrays", "json"}

    def test_put_object_dtype_raises(self, tmp_path):
        store = SolveStore(tmp_path)
        with pytest.raises(TypeError):
            store.put(("k",), {"v": np.array([None, 1])}, codec="ndarrays")
        assert store.write_errors == 0

    def test_threads_share_one_store(self, tmp_path):
        # The serve daemon reads and writes one store from many threads;
        # each thread gets its own connection.
        store = SolveStore(tmp_path)
        errors = []

        def work(t):
            try:
                for i in range(20):
                    key = (t, i)
                    assert store.put(key, {"v": [t, i]}, codec="json")
                    assert store.get(key) == {"v": [t, i]}
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(store) == 80
        assert store.writes == 80 and store.hits == 80

    @pytest.mark.skipif(
        not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd"
    )
    def test_dropped_stores_release_their_connections(self, tmp_path):
        SolveStore(tmp_path).put(("k",), {"v": 1}, codec="json")
        gc.collect()
        baseline = len(open_store_files(tmp_path))
        for _ in range(30):
            assert SolveStore(tmp_path).get(("k",)) == {"v": 1}
        gc.collect()
        assert len(open_store_files(tmp_path)) <= baseline


class TestPrune:
    def test_prune_max_entries_evicts_oldest(self, tmp_path):
        store = SolveStore(tmp_path)
        for i in range(4):
            store.put((f"k{i}",), {"v": i}, codec="json")
        # A rewrite makes k0 the newest write.
        store.put(("k0",), {"v": 0}, codec="json")
        assert store.prune(max_entries=2) == {"entries": 2}
        assert len(store) == 2
        assert store.get(("k1",)) is None and store.get(("k2",)) is None
        assert store.get(("k3",)) == {"v": 3}
        assert store.get(("k0",)) == {"v": 0}

    def test_prune_max_bytes(self, tmp_path):
        store = SolveStore(tmp_path)
        for i in range(3):
            store.put((f"k{i}",), {"v": "x" * 64}, codec="json")
        entry_bytes = store.stats()["bytes"] // 3
        # Room for one entry and a bit: the two oldest go.
        assert store.prune(max_bytes=entry_bytes + 10)["entries"] == 2
        assert store.get(("k2",)) is not None
        assert store.prune(max_bytes=0)["entries"] == 1
        assert len(store) == 0

    def test_without_bounds_evicts_nothing(self, tmp_path):
        store = SolveStore(tmp_path)
        store.put(("k",), {"v": 1}, codec="json")
        assert store.prune() == {"entries": 0}
        assert len(store) == 1

    def test_prune_rejects_negative_bounds(self, tmp_path):
        with pytest.raises(ValueError):
            SolveStore(tmp_path).prune(max_entries=-1)
        with pytest.raises(ValueError):
            SolveStore(tmp_path).prune(max_bytes=-1)

    def test_prune_missing_directory(self, tmp_path):
        root = tmp_path / "never"
        assert SolveStore(root).prune(max_entries=1) == {"entries": 0}
        assert not root.exists()
