"""Concurrency stress + fault injection for the shared solve store.

The serve daemon's load story rests on two claims about
:class:`~repro.engine.store.SolveStore`:

* **Many concurrent writers are safe.** N processes hammering one
  ``store.sqlite`` with overlapping key sets leave no torn entries (every
  committed row decodes) and no duplicates (one row per distinct key) —
  after which a warm replay of the whole key set performs zero solves.
* **Any corruption is a miss, never a crash.** The parametrized matrix
  covers truncated payloads, layouts promising arrays the payload lacks,
  version skew, unknown codecs, garbage headers, empty payloads and object
  dtypes, plus a writer genuinely killed inside its open transaction;
  every case must miss-and-recompute, under the numpy and compiled
  backends alike.

Heavy variants (more processes, more keys) are marked ``slow`` and run
only when ``$REPRO_SLOW_TESTS`` is set (see ``tests/conftest.py``).
"""

import json
import multiprocessing
import os
import sqlite3
from contextlib import closing

import numpy as np
import pytest

from repro.backend import available_backends, use_backend
from repro.engine import SolveCache, SolveService, SolveStore, key_digest
from repro.engine.service import SolveTask, _effective_key
from repro.engine.store import CODECS


def _backends() -> list[str]:
    names = ["numpy"]
    if available_backends()["cext"] == "resolves to cext":
        names.append("compiled")
    return names


BACKENDS = _backends()

#: Spawned children import this module fresh — no inherited state, the
#: same isolation the serve daemon's workers have.
_CTX = multiprocessing.get_context("spawn")


def _value_for(i: int) -> dict:
    """The deterministic 'solve' result for key i — every writer that
    lands key i writes bit-identical content, like real content-keyed
    tasks do."""
    return {"v": np.linspace(0.0, float(i), 5), "i": np.asarray(i)}


def _key_for(i: int) -> tuple:
    return ("conc/1", int(i))


def _task_for(i: int) -> SolveTask:
    return SolveTask(
        fn=_value_for, args=(int(i),), key=_key_for(i), codec="ndarrays"
    )


def _writer(root: str, indices: list[int]) -> None:
    """One writer process: read-through then write its slice of keys."""
    store = SolveStore(root)
    for i in indices:
        if store.get(_key_for(i)) is None:
            store.put(_key_for(i), _value_for(i), codec="ndarrays")


def _crashing_writer(root: str, i: int) -> None:
    """A writer killed inside its open transaction.

    Opens a transaction on the store's own connection, so the ``put``'s
    ``INSERT`` runs inside it and is never committed, then dies: the exact
    footprint of a crash between the write and its commit.
    """
    store = SolveStore(root)
    store._connection(create=True).execute("BEGIN IMMEDIATE")
    if not store.put(_key_for(i), _value_for(i), codec="ndarrays"):
        os._exit(2)  # the write itself failed: not the case under test
    os._exit(1)


def _run_writers(root, slices):
    procs = [
        _CTX.Process(target=_writer, args=(str(root), list(chunk)))
        for chunk in slices
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(120)
        assert proc.exitcode == 0
    return procs


def _overlapping_slices(keys: int, writers: int) -> list[list[int]]:
    """Each writer gets ~2/3 of the key space, rotated so every pair of
    neighbours overlaps and every key has at least two writers."""
    span = max(1, (2 * keys) // 3)
    return [
        [(start + j) % keys for j in range(span)]
        for start in range(0, keys, max(1, keys // writers))
    ][:writers]


def _stored_digests(root) -> list[str]:
    with closing(sqlite3.connect(root / "store.sqlite")) as conn:
        return [row[0] for row in conn.execute("SELECT digest FROM entries")]


def _assert_settled(root, keys: int) -> None:
    """No torn entries, no duplicates, exactly the expected digests."""
    store = SolveStore(root)
    # Every key decodes to exactly the content any single writer produced.
    for i in range(keys):
        value = store.get(_key_for(i))
        assert value is not None, f"key {i} missing after settling"
        expected = _value_for(i)
        assert value["v"].tobytes() == expected["v"].tobytes()
        assert int(value["i"]) == i
    # One committed entry per key — concurrent writers never duplicated.
    assert len(store) == keys
    assert store.stats()["entries"] == keys
    digests = _stored_digests(root)
    assert sorted(digests) == sorted(
        key_digest(_key_for(i)) for i in range(keys)
    )


class TestConcurrentWriters:
    def test_overlapping_writers_settle_clean(self, tmp_path):
        keys, writers = 12, 4
        _run_writers(tmp_path, _overlapping_slices(keys, writers))
        # Stragglers: make sure every key was covered by someone.
        _writer(str(tmp_path), list(range(keys)))
        _assert_settled(tmp_path, keys)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_warm_replay_computes_nothing(self, tmp_path, backend):
        keys = 10
        with use_backend(backend):
            # Writers under this backend's key namespace: go through a
            # real service so keys carry the backend cache tag.
            warm = SolveService(
                cache=SolveCache(), store=SolveStore(tmp_path), executor="serial"
            )
            warm.map([_task_for(i) for i in range(keys)])
            assert warm.counters.computed == keys
            # A fresh process-like replay of the same overlapping set:
            # zero duplicate solves after settling.
            replay = SolveService(
                cache=SolveCache(), store=SolveStore(tmp_path), executor="serial"
            )
            values = replay.map([_task_for(i) for i in range(keys)])
            assert replay.counters.computed == 0
            assert replay.counters.store_hits == keys
            for i, value in enumerate(values):
                assert value["v"].tobytes() == _value_for(i)["v"].tobytes()

    @pytest.mark.slow
    def test_many_writers_many_keys(self, tmp_path):
        keys, writers = 200, 8
        _run_writers(tmp_path, _overlapping_slices(keys, writers))
        _writer(str(tmp_path), list(range(keys)))
        _assert_settled(tmp_path, keys)


def _rewrite(root, digest, *, header=None, payload=None):
    """Rewrite one entry's header (an edit of the parsed JSON, or raw
    text) and/or payload (a function of the stored bytes)."""
    with closing(sqlite3.connect(root / "store.sqlite")) as conn:
        text, blob = conn.execute(
            "SELECT header, payload FROM entries WHERE digest = ?", (digest,)
        ).fetchone()
        if isinstance(header, str):
            text = header
        elif header is not None:
            parsed = json.loads(text)
            header(parsed)
            text = json.dumps(parsed)
        if payload is not None:
            blob = payload(blob)
        conn.execute(
            "UPDATE entries SET header = ?, payload = ? WHERE digest = ?",
            (text, blob, digest),
        )
        conn.commit()


def _ghost_array(header):
    # The layout promises an array the payload does not hold.
    _, dtype, _, offset = header["layout"][-1]
    header["layout"].append(["v.ghost", dtype, [64], offset])
    header["meta"]["names"].append("ghost")


def _set(field, value):
    return lambda header: header.__setitem__(field, value)


def _object_dtype(header):
    header["layout"][0][1] = "|O"


CORRUPTIONS = {
    "truncated-payload": dict(payload=lambda blob: blob[:24]),
    "layout-past-payload": dict(header=_ghost_array),
    "version-skew": dict(header=_set("version", 999)),
    "unknown-codec": dict(header=_set("codec", "not-a-codec")),
    "garbage-header": dict(header="{torn mid-write"),
    "empty-payload": dict(payload=lambda blob: b""),
    "object-dtype": dict(header=_object_dtype),
}


@pytest.mark.parametrize("backend", BACKENDS)
class TestFaultInjection:
    """Every corruption is a miss and a recompute repairs it — no crash."""

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_corruption_matrix(self, tmp_path, backend, case):
        with use_backend(backend):
            # The key as the service stores it — compiled backends
            # namespace entries under their kernel tag.
            key = _effective_key(_task_for(3))
            store = SolveStore(tmp_path)
            assert store.put(key, _value_for(3), codec="ndarrays")
            _rewrite(tmp_path, key_digest(key), **CORRUPTIONS[case])
            assert store.get(key) is None, case
            # miss-and-recompute through the service: the entry heals.
            service = SolveService(
                cache=SolveCache(), store=store, executor="serial"
            )
            value = service.run(_task_for(3))
            assert value["v"].tobytes() == _value_for(3)["v"].tobytes()
            assert service.counters.computed == 1
            healed = SolveStore(tmp_path).get(key)
            assert healed is not None
            assert healed["v"].tobytes() == _value_for(3)["v"].tobytes()

    def test_killed_writer_is_miss_then_rewritten(self, tmp_path, backend):
        with use_backend(backend):
            proc = _CTX.Process(
                target=_crashing_writer, args=(str(tmp_path), 7)
            )
            proc.start()
            proc.join(120)
            assert proc.exitcode == 1  # died inside its transaction
            store = SolveStore(tmp_path)
            assert store.get(_key_for(7)) is None  # uncommitted = miss
            assert len(store) == 0
            # The next write lands cleanly.
            assert store.put(_key_for(7), _value_for(7), codec="ndarrays")
            assert store.get(_key_for(7)) is not None
            assert len(store) == 1


class TestMaintenanceUnderWriters:
    def test_prune_and_clear_race_writers(self, tmp_path):
        """prune and clear racing live writers never crash anyone, and
        the writers' final pass settles the store."""
        keys = 16
        writers = _overlapping_slices(keys, 3)
        procs = [
            _CTX.Process(target=_writer, args=(str(tmp_path), list(chunk)))
            for chunk in writers
        ]
        for proc in procs:
            proc.start()
        store = SolveStore(tmp_path)
        for round_ in range(10):  # maintenance while writers are live
            if round_ % 2:
                store.clear()
            else:
                store.prune(max_entries=4)
        for proc in procs:
            proc.join(120)
            assert proc.exitcode == 0
        _writer(str(tmp_path), list(range(keys)))
        _assert_settled(tmp_path, keys)
